"""Truncated power series in the curve-degree variable.

A ``DSeries`` stores rational coefficients c_0..c_dmax where index d
stands for the monomial q^{step*d}.  Generating series of a degree-l
hypersurface only involve powers of q^l, so grading by the curve degree d
with an explicit step keeps them dense (no zero gaps to carry around).
A series with values in the cohomology ring Q[H]/(H^r) is carried as the
tuple of its r scalar H-components, one ``DSeries`` per power of H.
Every operation truncates at dmax and never claims precision beyond it.
The ring operations come from ``cohomology._Truncated``, the base that
``CohClass`` shares; ``DSeries`` adds ``step``, its shape check, its
constructors and the series operations below, all of them pure.

Algorithms and their costs in coefficient products, with n = dmax:

* product and inverse: the schoolbook convolution and triangular solve
  (``cohomology._convolve``/``_inverse``), O(n^2);
* ``exp``: the recurrence from E' = g'E (Brent & Kung, J. ACM 1978),
  O(n^2); ``log``: theta f / f from L' = f'/f, one inverse and one
  product, O(n^2);
* ``exp_powers``: the substitution kernels exp(d*g), entry d cut at index
  n-d, each the previous one times exp(g) by one integer product on
  numerators carried from entry to entry, O(n^3); ``substitute`` adds
  O(n^2) to them;
* ``revert_exp``: Lagrange-Buermann inversion, one O(m^2) exp recurrence
  per coefficient h_m, O(n^3); its round-trip check is one ``exp`` and
  one ``substitute``.

Each kernel multiplies integer numerators over one common denominator per
operand (``cohomology._ints``/``_push``; substitution kernel rows once, by
``_kernel_rows``) and makes one ``Fraction`` per output coefficient, so
``coeffs`` stays a tuple of normalised Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Sequence

from .cohomology import Rational, _Truncated, _convolve, _int_product, _ints, _inverse, _push
from .cohomology import as_fraction


@dataclass(frozen=True)
class DSeries(_Truncated):
    """Power series sum_d c_d q^{step*d}, truncated at index dmax."""

    step: int = 1

    # Own entries: perfbench/spans.py wraps cls.__dict__[name] for each class.
    __mul__, inv = _Truncated.__mul__, _Truncated.inv

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.step < 1:
            raise ValueError("step must be a positive integer")

    @property
    def dmax(self) -> int:
        return len(self.coeffs) - 1

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
        c = [Fraction(0)] * (dmax + 1)
        c[d] = as_fraction(value)
        return cls(tuple(c), step)

    # -- series operations -------------------------------------------------

    def exp(self) -> DSeries:
        """Exponential of a series with zero constant coefficient, by the
        recurrence n E_n = sum_{k=1..n} k g_k E_{n-k} that E' = g' E gives."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs constant coefficient 0")
        return DSeries(_exp_coeffs(self.coeffs, 1, self.dmax + 1), self.step)

    def log(self) -> DSeries:
        """Logarithm of a series f with constant coefficient 1: n L_n is the
        index-n coefficient of theta f / f, theta = Q d/dQ, since L' = f'/f."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant coefficient 1")
        theta_f = [n * c for n, c in enumerate(self.coeffs)]
        theta_l = _convolve(theta_f, _inverse(self.coeffs), self.dmax + 1)
        return DSeries(tuple(c / (n or 1) for n, c in enumerate(theta_l)), self.step)

    def exp_powers(self, first: DSeries | None = None) -> list[tuple[Fraction, ...]]:
        """Coefficients of first * exp(d*g) for d = 0..dmax, with g this
        series and ``first`` defaulting to 1.  Entry d stops at index
        dmax - d, the last one a term Q^d times it reaches.  exp(g) is
        formed once and each entry is the previous one times it, on
        integer numerators kept from one entry to the next."""
        if first is None:
            first = DSeries.one(self.dmax, self.step)
        self._check(first)
        en, ed = _ints(self.exp().coeffs)
        kn, kd = _ints(first.coeffs)
        out = [first.coeffs]
        for d in range(1, self.dmax + 1):
            kn, kd = _int_product(kn, en, self.dmax + 1 - d), kd * ed
            out.append(tuple(Fraction(x, kd) for x in kn))
        return out

    # -- change of variables -------------------------------------------------

    def substitute(self, g: DSeries | Sequence[tuple[Fraction, ...]]) -> DSeries:
        """Apply Q -> Q * exp(g(Q)) where Q = q^step is the index variable.

        Sends the index-d term c_d Q^d to c_d Q^d exp(d*g), so the index-e
        coefficient of the result is sum_{d<=e} c_d * [exp(d*g)]_{e-d}.
        The exponent g must have zero constant term.  Several series that
        share one substitution can pass ``g.exp_powers()`` in place of g,
        so that the kernels exp(d*g) are built once; kernel row d must
        reach index dmax - d, and rows past dmax and entries past that
        index are ignored.
        """
        if isinstance(g, DSeries):
            if g.dmax != self.dmax or g.step != self.step:
                raise ValueError("substitution exponent must share dmax and step")
            if g.coeffs[0] != 0:
                raise ValueError("substitution exponent must have zero constant term")
            g = g.exp_powers()
        kn, kd = _kernel_rows(g, self.dmax)
        cn, cd = _ints(self.coeffs)
        out = [0] * (self.dmax + 1)
        for d, (c, row) in enumerate(zip(cn, kn)):
            if c:
                for e, k in enumerate(row, start=d):
                    out[e] += c * k
        return DSeries(tuple(Fraction(x, cd * kd) for x in out), self.step)

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
        if g.coeffs[0] != 0:
            raise ValueError("reversion exponent must have zero constant term")
        hm = [_exp_coeffs(g.coeffs, -m, m + 1)[m] / m for m in range(1, g.dmax + 1)]
        h = DSeries((Fraction(0), *hm), g.step)
        if g.dmax >= 1:
            ident = DSeries.monomial(1, g.dmax, g.step)
            q_exp_g = DSeries((Fraction(0),) + g.exp().coeffs[:-1], g.step)
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


def _exp_coeffs(g: Sequence[Fraction], scale: int, length: int) -> tuple[Fraction, ...]:
    """The first ``length`` coefficients of exp(scale * g) for g_0 = 0:
    n E_n = scale * sum_{k=1..n} k g_k E_{n-k}."""
    gn, gd = _ints(g[:length])
    dg = [k * c for k, c in enumerate(gn)]
    out, e, ed = [Fraction(1)], [1], 1  # e: numerators of E_0..E_{n-1} over ed
    for n in range(1, length):
        out.append(Fraction(scale * sum(map(mul, dg[1 : n + 1], reversed(e))), gd * ed * n))
        ed = _push(e, ed, out[-1])
    return tuple(out)


def _kernel_rows(kernels: Sequence[Sequence[Rational]], dmax: int) -> tuple[list[list[int]], int]:
    """Rows 0..dmax of ``kernels``, row d cut at index dmax - d, as integer
    numerators over one common denominator.  Rows past dmax and entries
    past index dmax - d are ignored; a row that is missing or stops short
    of that index raises ValueError naming d."""
    rows = [kernel[: dmax + 1 - d] for d, kernel in enumerate(kernels[: dmax + 1])]
    for d in range(dmax + 1):
        if d == len(rows) or len(rows[d]) < dmax + 1 - d:
            raise ValueError(f"kernel row {d} must reach index {dmax - d}")
    nums, den = _ints(x for row in rows for x in row)
    it = iter(nums)
    return [list(islice(it, len(row))) for row in rows], den
