"""Truncated power series in the curve-degree variable.

A ``DSeries`` stores rational coefficients c_0..c_dmax where index d
stands for the monomial q^{step*d}.  Generating series of a degree-l
hypersurface only involve powers of q^l, so grading by the curve degree d
with an explicit step keeps them dense (no zero gaps to carry around).
A series with values in the cohomology ring Q[H]/(H^r) is carried as the
tuple of its r scalar H-components, one ``DSeries`` per power of H.
Every operation truncates at dmax and never claims precision beyond it.
The stored form and the ring operations come from
``cohomology._Truncated``, the base that ``CohClass`` shares: integer
numerators over one denominator in lowest common form, with ``coeffs``
built on first read.  ``DSeries`` adds ``step``, its shape check, its
constructors and the series operations below, all of them pure and all
of them on the stored integers.

The change of variables Q -> Q exp(g(Q)), g with zero constant term,
lives here alone: ``substitute(g)`` applies it, ``unsubstitute(g)`` runs
it backwards and ``revert_exp`` gives the exponent of its inverse.  The
kernels exp(d*g) they read are integer rows over one denominator, built
by g's private ``_kernels`` once and kept on g.

Algorithms and their costs in coefficient products, with n = dmax:

* product and inverse: the schoolbook convolution and triangular solve
  (``cohomology._int_product``/``_inverse``), O(n^2);
* ``exp``: the recurrence from E' = g'E (Brent & Kung, J. ACM 1978),
  O(n^2); ``log``: theta f / f from L' = f'/f, one inverse and one
  product, O(n^2);
* the kernels exp(d*g): row d cut at index n-d, each row from d = 2 on
  the previous one times exp(g) by one integer product, O(n^3) once per
  exponent; ``substitute`` and ``unsubstitute`` then cost O(n^2) each;
* ``revert_exp``: Lagrange-Buermann inversion, one O(m^2) exp recurrence
  per coefficient h_m, O(n^3); its round-trip check is one ``exp`` and
  one ``substitute``.

The recurrences append each output to their numerators with
``cohomology._push``, one gcd an output, so they return lowest common
forms and make no ``Fraction``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import mul

from .cohomology import Rational, _int_product, _inverse, _lowest, _push, _Truncated


class DSeries(_Truncated):
    """Power series sum_d c_d q^{step*d}, truncated at index dmax."""

    __slots__ = ("_step", "_powers")

    # Own entries: perfbench/spans.py wraps cls.__dict__[name] for each class.
    __mul__, inv = _Truncated.__mul__, _Truncated.inv

    def __init__(self, coeffs: Iterable[Rational], step: int = 1) -> None:
        super().__init__(coeffs)
        if step < 1:
            raise ValueError("step must be a positive integer")
        self._step, self._powers = step, None

    @classmethod
    def _new(cls, nums: tuple[int, ...], den: int, step: int) -> DSeries:
        new = super()._new(nums, den)
        new._step, new._powers = step, None
        return new

    def _like(self, nums: tuple[int, ...], den: int) -> DSeries:
        return DSeries._new(nums, den, self._step)

    @property
    def step(self) -> int:
        return self._step

    @property
    def dmax(self) -> int:
        return len(self._nums) - 1

    def _key(self) -> tuple:
        return self._den, self._nums, self._step

    def __repr__(self) -> str:
        return f"DSeries(coeffs={self.coeffs!r}, step={self._step})"

    def _check(self, other: DSeries) -> None:
        if self.dmax != other.dmax or self.step != other.step:
            raise ValueError(
                f"series shape mismatch: (dmax={self.dmax}, step={self.step}) vs "
                f"(dmax={other.dmax}, step={other.step})"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, dmax: int, step: int = 1) -> DSeries:
        return cls.monomial(0, dmax, step)

    @classmethod
    def monomial(cls, d: int, dmax: int, step: int = 1, value: Rational = 1) -> DSeries:
        """The series value * q^{step*d}."""
        if not 0 <= d <= dmax:
            raise ValueError("monomial index out of range")
        c = [0] * (dmax + 1)
        c[d] = value
        return cls(c, step)

    # -- series operations -------------------------------------------------

    def exp(self) -> DSeries:
        """Exponential of a series with zero constant coefficient, by the
        recurrence n E_n = sum_{k=1..n} k g_k E_{n-k} that E' = g' E gives."""
        if self._nums[0]:
            raise ValueError("exp needs constant coefficient 0")
        nums, den = _exp_coeffs(self._nums, self._den, 1, self.dmax + 1)
        return self._like(tuple(nums), den)

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
        return self._like(tuple(nums), den)

    # -- change of variables -------------------------------------------------

    def _kernels(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The kernels exp(d*g) for d = 0..dmax, with g this series, as
        (rows, den): row d holds the integer numerators over den of the
        kernel's coefficients and stops at index dmax - d, the last one a
        term Q^d times it reaches.  Row 0 is 1, row 1 is exp(g) and each
        later row is the previous one times exp(g).  Built on first use
        and kept on the series; the rows are shared, so do not change them."""
        if self._powers is None:
            e = self.exp()
            en, ed, n = e._nums, e._den, self.dmax
            rows = [(1,) + (0,) * n]
            for d in range(1, n + 1):
                rows.append(en[:n] if d == 1 else _int_product(rows[-1], en, n + 1 - d))
            # Row d is over ed^d; bring all to ed^n.
            if ed != 1:
                rows = [[x * s for x in r] for r, s in zip(rows, [ed ** (n - d) for d in range(n + 1)])]
            self._powers = tuple(map(tuple, rows)), ed**n
        return self._powers

    def _kernels_of(self, g: DSeries) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The kernels of g, which must share this series' shape and have
        zero constant term."""
        if g.dmax != self.dmax or g.step != self.step:
            raise ValueError("substitution exponent must share dmax and step")
        if g._nums[0]:
            raise ValueError("substitution exponent must have zero constant term")
        return g._kernels()

    def substitute(self, g: DSeries) -> DSeries:
        """Apply Q -> Q * exp(g(Q)) where Q = q^step is the index variable.

        Sends the index-d term c_d Q^d to c_d Q^d exp(d*g), so the index-e
        coefficient of the result is sum_{d<=e} c_d * [exp(d*g)]_{e-d}.
        The exponent g must share this series' dmax and step and have
        zero constant term.  Its kernels exp(d*g) are built once and kept
        on g, so each later substitution by g costs O(dmax^2).
        """
        rows, kd = self._kernels_of(g)
        out = [0] * len(self._nums)
        for d, (c, row) in enumerate(zip(self._nums, rows)):
            if c:
                for e, k in enumerate(row, start=d):
                    out[e] += c * k
        return self._like(*_lowest(out, self._den * kd))

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
        return self._like(tuple(un), ud)

    def revert_exp(self) -> DSeries:
        """Invert the change of variables Qt = Q * exp(g(Q)) defined by this
        series g: returns h with Q = Qt * exp(h(Qt)).

        Lagrange-Buermann inversion gives each coefficient on its own:
        h_m = -(1/m) [Q^{m-1}] g'(Q) exp(-m*g(Q)), which is the last step
        of the exp recurrence for exp(-m*g), so h_m = [Q^m] exp(-m*g) / m.
        The round trip is verified before returning: Q exp(g), which is
        Q -> Q exp(g) applied to Q, must go back to Q under h.  A failure
        would be an implementation bug, not a data error.
        """
        g = self
        if g._nums[0]:
            raise ValueError("reversion exponent must have zero constant term")
        hn, hd = [0], 1
        for m in range(1, g.dmax + 1):
            en, ed = _exp_coeffs(g._nums, g._den, -m, m + 1)
            hd = _push(hn, hd, en[m], ed * m)
        h = g._like(tuple(hn), hd)
        if g.dmax >= 1:
            ident = DSeries.monomial(1, g.dmax, g.step)
            e = g.exp()
            q_exp_g = g._like(*_lowest((0,) + e._nums[:-1], e._den))
            if q_exp_g.substitute(h) != ident:
                raise RuntimeError(
                    "series reversion failed its round-trip check (internal bug)"
                )
        return h

    def __str__(self) -> str:
        parts = [
            str(c) if d == 0 else f"{c}*q^{self.step * d}"
            for d, c in enumerate(self.coeffs)
            if c != 0
        ]
        return " + ".join(parts) if parts else "0"


# -- the exp recurrence --------------------------------------------------------


def _exp_coeffs(gn: Sequence[int], gd: int, scale: int, length: int) -> tuple[list[int], int]:
    """Numerators and denominator, in lowest common form, of the first
    ``length`` coefficients of exp(scale * g) for g = gn/gd with g_0 = 0:
    n E_n = scale * sum_{k=1..n} k g_k E_{n-k}."""
    dg = [k * c for k, c in enumerate(gn[:length])]
    e, ed = [1], 1  # numerators of E_0..E_{n-1} over ed
    for n in range(1, length):
        ed = _push(e, ed, scale * sum(map(mul, dg[1 : n + 1], reversed(e))), gd * ed * n)
    return e, ed

