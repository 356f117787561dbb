"""Truncated power series in the curve-degree variable.

A ``DSeries`` stores rational coefficients c_0..c_dmax where index d
stands for the monomial q^{step*d}.  Generating series of a degree-l
hypersurface only involve powers of q^l, so grading by the curve degree d
with an explicit step keeps them dense (no zero gaps to carry around).
A series with values in the cohomology ring Q[H]/(H^r) is carried as the
tuple of its r scalar H-components, one ``DSeries`` per power of H.
Every operation truncates at dmax and never claims precision beyond it.

Values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .cohomology import Rational, as_fraction


@dataclass(frozen=True)
class DSeries:
    """Power series sum_d c_d q^{step*d}, truncated at index dmax."""

    coeffs: tuple[Fraction, ...]
    step: int = 1

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the index-0 coefficient")
        if self.step < 1:
            raise ValueError("step must be a positive integer")
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dmax: int, step: int = 1) -> DSeries:
        return cls((Fraction(0),) * (dmax + 1), step)

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

    # -- structure ---------------------------------------------------------

    @property
    def dmax(self) -> int:
        return len(self.coeffs) - 1

    def _check_shape(self, other: DSeries) -> None:
        if self.dmax != other.dmax or self.step != other.step:
            raise ValueError(
                f"series shape mismatch: (dmax={self.dmax}, step={self.step}) vs "
                f"(dmax={other.dmax}, step={other.step})"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: DSeries) -> DSeries:
        if not isinstance(other, DSeries):
            return NotImplemented
        self._check_shape(other)
        return DSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.step
        )

    def __sub__(self, other: DSeries) -> DSeries:
        if not isinstance(other, DSeries):
            return NotImplemented
        self._check_shape(other)
        return DSeries(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.step
        )

    def __neg__(self) -> DSeries:
        return DSeries(tuple(-a for a in self.coeffs), self.step)

    def __mul__(self, other: Union[DSeries, Rational]) -> DSeries:
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return DSeries(tuple(c * f for c in self.coeffs), self.step)
        if not isinstance(other, DSeries):
            return NotImplemented
        self._check_shape(other)
        out = [Fraction(0)] * (self.dmax + 1)
        for d, a in enumerate(self.coeffs):
            for e in range(self.dmax + 1 - d):
                out[d + e] += a * other.coeffs[e]
        return DSeries(tuple(out), self.step)

    def __rmul__(self, other: Rational) -> DSeries:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other: DSeries) -> DSeries:
        if not isinstance(other, DSeries):
            return NotImplemented
        return self * other.inv()

    def inv(self) -> DSeries:
        """Multiplicative inverse; the constant coefficient must be nonzero.

        Standard recurrence: b_0 = 1/a_0, b_m = -b_0 * sum_{k>=1} a_k b_{m-k}.
        """
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("inverse requires a unit constant coefficient")
        b0 = 1 / self.coeffs[0]
        out = [b0]
        for m in range(1, self.dmax + 1):
            s = self.coeffs[1] * out[m - 1]
            for k in range(2, m + 1):
                s += self.coeffs[k] * out[m - k]
            out.append(-(b0 * s))
        return DSeries(tuple(out), self.step)

    def exp(self) -> DSeries:
        """Exponential of a series with zero constant coefficient.

        The series has positive q-valuation, so the sum sum_k g^k / k!
        stops at k = dmax.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp needs constant coefficient 0")
        acc = term = DSeries.one(self.dmax, self.step)
        for k in range(1, self.dmax + 1):
            term = term * self * Fraction(1, k)
            acc = acc + term
        return acc

    def log(self) -> DSeries:
        """Logarithm of a series with constant coefficient 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant coefficient 1")
        u = self - DSeries.one(self.dmax, self.step)
        acc = DSeries.zero(self.dmax, self.step)
        pw = DSeries.one(self.dmax, self.step)
        for m in range(1, self.dmax + 1):
            pw = pw * u
            acc = acc + pw * Fraction((-1) ** (m + 1), m)
        return acc

    def exp_powers(self, first: DSeries | None = None) -> list[DSeries]:
        """[first * exp(d*g) for d = 0..dmax] with g this series and
        ``first`` defaulting to 1; exp(g) is formed once and the list is
        built by repeated multiplication."""
        e1 = self.exp()
        out = [DSeries.one(self.dmax, self.step) if first is None else first]
        for _ in range(self.dmax):
            out.append(out[-1] * e1)
        return out

    # -- change of variables -------------------------------------------------

    def substitute(self, g: DSeries) -> DSeries:
        """Apply Q -> Q * exp(g(Q)) where Q = q^step is the index variable.

        Sends the index-d term c_d Q^d to c_d Q^d exp(d*g), so the index-e
        coefficient of the result is sum_{d<=e} c_d * [exp(d*g)]_{e-d}.
        The exponent g must have zero constant term.
        """
        if g.dmax != self.dmax or g.step != self.step:
            raise ValueError("substitution exponent must share dmax and step")
        if g.coeffs[0] != 0:
            raise ValueError("substitution exponent must have zero constant term")
        out = [Fraction(0)] * (self.dmax + 1)
        for d, (c, kernel) in enumerate(zip(self.coeffs, g.exp_powers())):
            for e in range(d, self.dmax + 1):
                out[e] += c * kernel.coeffs[e - d]
        return DSeries(tuple(out), self.step)

    def revert_exp(self) -> DSeries:
        """Invert the change of variables Qt = Q * exp(g(Q)) defined by this
        series g: returns h with Q = Qt * exp(h(Qt)).

        Fixed-point iteration h <- -substitute(g, h) gains one index of
        agreement per pass, so dmax passes are exact at this truncation.
        The round trip is verified before returning; a failure would be an
        implementation bug, not a data error.
        """
        g = self
        if g.coeffs[0] != 0:
            raise ValueError("reversion exponent must have zero constant term")
        h = DSeries.zero(g.dmax, g.step)
        for _ in range(g.dmax):
            h = -g.substitute(h)
        if g.dmax >= 1:
            ident = DSeries.monomial(1, g.dmax, g.step)
            if ident.substitute(g).substitute(h) != ident:
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
