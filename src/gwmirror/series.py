"""Truncated power series in one formal variable.

A ``DSeries`` stores rational coefficients c_0..c_dmax of sum_d c_d Q^d,
which ``str()`` prints in q.  The series knows only the index d: a case
that grades a degree-l hypersurface's generating series by the curve
degree reads Q as q^l, so its series stay dense, and that l belongs to
the case.  A series with values in the cohomology ring Q[H]/(H^r) is
carried as the tuple of its r scalar H-components, one ``DSeries`` per
power of H.  Every operation truncates at dmax and never claims
precision beyond it.  The stored form, the ring operations and the
length check come from ``cohomology._Truncated``, the base that
``CohClass`` shares: integer numerators over one denominator in lowest
common form, with ``coeffs`` built on first read.  ``DSeries`` adds its
constructor ``monomial`` and the series operations below, all of them
pure and all of them on the stored integers.

The change of variables Q -> Q exp(g(Q)), g with zero constant term,
lives here alone: ``substitute(g)`` applies it, ``unsubstitute(g)`` runs
it backwards and ``revert_exp`` gives the exponent of its inverse.  The
kernels exp(d*g) they read are integer rows over one denominator, which
``_kernels_of(g)`` reads from ``_power_rows`` of exp(g) and keeps on g;
``_power_rows`` keeps the last chain, so equal exponents share it.

Algorithms and their costs in coefficient products, with n = dmax:

* product and inverse: the schoolbook convolution and triangular solve
  (``cohomology._int_product``/``_inverse``), O(n^2);
* ``exp``: the recurrence from E' = g'E (Brent & Kung, J. ACM 1978),
  O(n^2); ``log``: theta f / f from L' = f'/f, one inverse and one
  product, O(n^2);
* the kernels exp(d*g): row d cut at index n-d, each row from d = 2 on
  the previous one times exp(g) by one integer product, O(n^3) once per
  exponent value; ``substitute`` and ``unsubstitute`` then cost O(n^2) each;
* ``revert_exp``: h = (-g).unsubstitute(g) on g's kernels, and a
  round-trip check of two substitutions, by g and by h, that builds h's
  kernels too, so O(n^3) in all.

The recurrences append each output to their numerators with
``cohomology._push``, one gcd an output, so they return lowest common
forms and make no ``Fraction``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .cohomology import Rational, _int_product, _inverse, _lowest, _push, _Truncated


@lru_cache(maxsize=1)
def _power_rows(en: tuple[int, ...], ed: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The powers e^d, d = 0..n, of the series e with stored form
    (en, ed) and n = len(en) - 1, as (rows, ed^n): row d holds the integer
    numerators of e^d over ed^n, cut at index n - d.  Row 0 is 1, row 1
    is e and each later row is the previous one times e.

    The stored form is canonical and its length carries n, so the last
    chain is kept in a one-entry cache keyed by it.  ``DSeries._kernels_of``
    passes exp(g), so exponents of equal value share one immutable chain,
    and a request that solves or reverts twice with an equal m builds it
    once."""
    n = len(en) - 1
    rows = [(1,) + (0,) * n]
    for d in range(1, n + 1):
        rows.append(en[:n] if d == 1 else _int_product(rows[-1], en, n + 1 - d))
    # Row d is over ed^d; bring all to ed^n.
    if ed != 1:
        rows = [[x * s for x in r] for r, s in zip(rows, [ed ** (n - d) for d in range(n + 1)])]
    return tuple(map(tuple, rows)), ed**n


class DSeries(_Truncated):
    """Power series sum_d c_d Q^d, truncated at index dmax."""

    __slots__ = ("_powers",)

    # Own entries: perfbench/spans.py wraps cls.__dict__[name] for each class.
    __mul__, inv = _Truncated.__mul__, _Truncated.inv

    @property
    def dmax(self) -> int:
        return len(self._nums) - 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, d: int, dmax: int, value: Rational = 1) -> DSeries:
        """The series value * Q^d."""
        if not 0 <= d <= dmax:
            raise ValueError("monomial index out of range")
        c = [0] * (dmax + 1)
        c[d] = value
        return cls(c)

    # -- series operations -------------------------------------------------

    def exp(self) -> DSeries:
        """Exponential of a series with zero constant coefficient, by the
        recurrence n E_n = sum_{k=1..n} k g_k E_{n-k} that E' = g' E gives."""
        gn, gd = self._nums, self._den
        if gn[0]:
            raise ValueError("exp needs constant coefficient 0")
        dg = [k * c for k, c in enumerate(gn)]
        e, ed = [1], 1  # numerators of E_0..E_{n-1} over ed
        for n in range(1, len(gn)):
            ed = _push(e, ed, sum(map(mul, dg[1 : n + 1], reversed(e))), gd * ed * n)
        return self._new(tuple(e), ed)

    def log(self) -> DSeries:
        """Logarithm of a series f with constant coefficient 1: n L_n is the
        index-n coefficient of theta f / f, theta = Q d/dQ, since L' = f'/f."""
        fn, fd = self._nums, self._den
        if fn[0] != fd:
            raise ValueError("log needs constant coefficient 1")
        inv_n, inv_d = _inverse(fn, fd)
        theta_l = _int_product([n * c for n, c in enumerate(fn)], inv_n, len(fn))
        nums: list[int] = [0]
        den = 1
        for n in range(1, len(fn)):
            den = _push(nums, den, theta_l[n], n * fd * inv_d)
        return self._new(tuple(nums), den)

    # -- change of variables -------------------------------------------------

    def _kernels_of(self, g: DSeries) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The kernels exp(d*g) for d = 0..dmax as (rows, den), g sharing
        this series' dmax and with zero constant term: row d holds the
        integer numerators over den of the kernel's coefficients and stops
        at index dmax - d, the last one a term Q^d times it reaches.  Read
        on first use, when g's ``_powers`` slot is still unset, from
        ``_power_rows`` of exp(g), and kept on g; equal exponents have
        equal exp(g), so they share one chain of rows.  The rows are
        shared, so do not change them."""
        if g.dmax != self.dmax:
            raise ValueError("substitution exponent must share dmax")
        if g._nums[0]:
            raise ValueError("substitution exponent must have zero constant term")
        try:
            return g._powers
        except AttributeError:
            e = g.exp()
            g._powers = _power_rows(e._nums, e._den)
            return g._powers

    def substitute(self, g: DSeries) -> DSeries:
        """Apply Q -> Q * exp(g(Q)) to the series variable Q.

        Sends the index-d term c_d Q^d to c_d Q^d exp(d*g), so the index-e
        coefficient of the result is sum_{d<=e} c_d * [exp(d*g)]_{e-d}.
        The exponent g must share this series' dmax and have zero
        constant term.  Its kernels exp(d*g) are kept on g and shared by
        equal exponents, so each later substitution by g costs O(dmax^2).
        """
        rows, kd = self._kernels_of(g)
        out = [0] * len(self._nums)
        for d, (c, row) in enumerate(zip(self._nums, rows)):
            if c:
                for e, k in enumerate(row, start=d):
                    out[e] += c * k
        return self._new(*_lowest(out, self._den * kd))

    def unsubstitute(self, g: DSeries) -> DSeries:
        """The series U with ``U.substitute(g) == self``: the change of
        variables Q -> Q * exp(g(Q)) run backwards, on the same kernels.

        Every kernel exp(d*g) has constant coefficient 1, so the index-e
        equation self_e = sum_{d<=e} U_d [exp(d*g)]_{e-d} gives U_e from
        U_0..U_{e-1}; the kernel exp(0*g) = 1 adds nothing past index 0.

        >>> q = DSeries.monomial(1, 3)
        >>> b = q.substitute(q)
        >>> str(b)
        '1*q^1 + 1*q^2 + 1/2*q^3'
        >>> b.unsubstitute(q) == q
        True
        """
        rows, kd = self._kernels_of(g)
        bn, bd = self._nums, self._den
        un: list[int] = []
        ud = _push(un, 1, bn[0], bd)
        for e in range(1, len(bn)):
            s = sum(un[d] * rows[d][e - d] for d in range(1, e))
            ud = _push(un, ud, bn[e] * ud * kd - bd * s, bd * ud * kd)
        return self._new(tuple(un), ud)

    def revert_exp(self) -> DSeries:
        """Invert the change of variables Qt = Q * exp(g(Q)) defined by this
        series g: returns h with Q = Qt * exp(h(Qt)).

        With Qt = Q exp(g(Q)), Q = Qt exp(h(Qt)) holds exactly when
        h(Q exp(g(Q))) = -g(Q), so h is -g with the change of variables
        run backwards: ``(-g).unsubstitute(g)``, which refuses a g with a
        nonzero constant term.  The round trip is verified before
        returning: Q -> Q exp(g) and then Qt -> Qt exp(h) must take Q back
        to Q.  A failure would be an implementation bug, not a data error.
        The reversion of g = Q is -W, W the Lambert series:

        >>> str(DSeries.monomial(1, 3).revert_exp())
        '-1*q^1 + 1*q^2 + -3/2*q^3'
        """
        g = self
        h = (-g).unsubstitute(g)
        if g.dmax >= 1:
            ident = DSeries.monomial(1, g.dmax)
            if ident.substitute(g).substitute(h) != ident:
                raise RuntimeError(
                    "series reversion failed its round-trip check (internal bug)"
                )
        return h

    def __str__(self) -> str:
        parts = [
            str(c) if d == 0 else f"{c}*q^{d}"
            for d, c in enumerate(self.coeffs)
            if c != 0
        ]
        return " + ".join(parts) if parts else "0"

