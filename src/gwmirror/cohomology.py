"""Exact scalars and the truncated cohomology ring of projective space.

Rational scalars are ``fractions.Fraction`` throughout the package:
arithmetic is exact, every value is normalized (positive denominator,
coprime parts), and ``str()`` renders the canonical ``a/b`` form with
``/1`` omitted.  That string form is the one used bit-for-bit in CLI
output and golden files.

``CohClass`` models Q[H]/(H^r), the cohomology ring of P^{r-1} with H the
hyperplane class: a dense length-r coefficient vector with H^r == 0
enforced by every product.  All values are immutable; all operations are
pure, so instances are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def as_fraction(x: Rational) -> Fraction:
    """Coerce an int or Fraction; floats are rejected to keep arithmetic exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


@dataclass(frozen=True)
class CohClass:
    """Element of Q[H]/(H^ring_len), stored densely.

    ``coeffs[k]`` is the coefficient of H^k; ``len(coeffs)`` is the ring
    length and is checked on every binary operation (no silent coercion
    between rings of different length).

    >>> h = CohClass.hyperplane(3)
    >>> str((CohClass.one(3) + h).inv())
    '1 - H + H^2'
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("ring_len must be positive")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring_len: int) -> CohClass:
        return cls((Fraction(0),) * ring_len)

    @classmethod
    def one(cls, ring_len: int) -> CohClass:
        return cls.scalar(1, ring_len)

    @classmethod
    def scalar(cls, value: Rational, ring_len: int) -> CohClass:
        return cls((as_fraction(value),) + (Fraction(0),) * (ring_len - 1))

    @classmethod
    def hyperplane(cls, ring_len: int, power: int = 1) -> CohClass:
        """H^power as a ring element (zero if power >= ring_len)."""
        if power < 0:
            raise ValueError("power must be non-negative")
        c = [Fraction(0)] * ring_len
        if power < ring_len:
            c[power] = Fraction(1)
        return cls(tuple(c))

    # -- structure ---------------------------------------------------------

    @property
    def ring_len(self) -> int:
        return len(self.coeffs)

    def _check_same_ring(self, other: CohClass) -> None:
        if self.ring_len != other.ring_len:
            raise ValueError(
                f"ring length mismatch: {self.ring_len} vs {other.ring_len}"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: CohClass) -> CohClass:
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_same_ring(other)
        return CohClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CohClass) -> CohClass:
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_same_ring(other)
        return CohClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CohClass:
        return CohClass(tuple(-a for a in self.coeffs))

    def __mul__(self, other: Union[CohClass, Rational]) -> CohClass:
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return CohClass(tuple(a * f for a in self.coeffs))
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_same_ring(other)
        n = self.ring_len
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):  # H^{i+j} with i+j >= n is discarded
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return CohClass(tuple(out))

    def __rmul__(self, other: Rational) -> CohClass:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def inv(self) -> CohClass:
        """Multiplicative inverse of a unit, via the geometric series of
        the nilpotent part: 1/(c(1+u)) = (1/c) * sum_k (-u)^k."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("inverse requires a unit (nonzero H^0 part)")
        u = self * (1 / c0) - CohClass.one(self.ring_len)
        acc = CohClass.one(self.ring_len)
        term = CohClass.one(self.ring_len)
        for _ in range(self.ring_len - 1):
            term = -(term * u)
            acc = acc + term
        return acc * (1 / c0)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "1" if k == 0 else ("H" if k == 1 else f"H^{k}")
            if k == 0:
                body = str(c)
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if (c > 0 or k == 0) else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"
