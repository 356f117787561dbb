"""Exact scalars and the truncated cohomology ring of projective space.

Rational scalars are ``fractions.Fraction`` throughout the package:
arithmetic is exact, every value is normalized (positive denominator,
coprime parts), and ``str()`` renders the canonical ``a/b`` form with
``/1`` omitted.  That string form is the one used bit-for-bit in CLI
output and golden files.

Both factors of H^*(P^n)[[q]] are truncated univariate polynomials.  The
private base ``_Truncated`` owns what ``CohClass`` and ``series.DSeries``
share: coefficient coercion, +, -, scalar and truncated products and the
inverse.  ``CohClass`` models Q[H]/(H^r), the cohomology ring of P^{r-1}
with H the hyperplane class, and adds only its ring-length check and
``str()``.  All values are immutable and all operations are pure.

This module also holds the three truncated-polynomial kernels that
``CohClass``, ``DSeries`` and the twist and lemma products share:
``_convolve`` (schoolbook product, O(r^2), on the integer product
``_int_product`` that running products call directly), ``_inverse``
(triangular solve, O(r^2); Brent & Kung, J. ACM 1978) and
``_linear_product`` (prod (l*H + i), one O(r) shift-add per factor).
Their dot products, and those of the series recurrences and the
correction solver, run on Python ints: ``_ints`` takes a rational vector
apart into integer numerators over the lcm of its denominators, ``_push``
appends to such a vector as a recurrence produces it, and each output
coefficient is one ``Fraction(numerator, denominator)``, so gcd
normalisation runs once per output and not once per product.
``MultiPoly`` keeps numerators over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def as_fraction(x: Rational) -> Fraction:
    """Coerce an int or Fraction; floats are rejected to keep arithmetic exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


@dataclass(frozen=True)
class _Truncated:
    """A truncated univariate polynomial: the coercion and ring operations
    that ``CohClass`` and ``DSeries`` share.  Results are built by
    ``dataclasses.replace``, so ``DSeries.step`` carries over; an operand of
    another type gives NotImplemented, so classes and series never mix, and
    each subclass's ``_check(other)`` refuses operands of another shape."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("at least the index-0 coefficient is needed")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return replace(self, coeffs=tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return replace(self, coeffs=tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return replace(self, coeffs=tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return replace(self, coeffs=tuple(a * f for a in self.coeffs))
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return replace(self, coeffs=_convolve(self.coeffs, other.coeffs, len(self.coeffs)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def inv(self):
        """Multiplicative inverse; the index-0 coefficient must be nonzero."""
        return replace(self, coeffs=_inverse(self.coeffs))


@dataclass(frozen=True)
class CohClass(_Truncated):
    """Element of Q[H]/(H^ring_len), stored densely.

    ``coeffs[k]`` is the coefficient of H^k; ``len(coeffs)`` is the ring
    length and is checked on every binary operation (no silent coercion
    between rings of different length).

    >>> str(CohClass((1, 1, 0)).inv())
    '1 - H + H^2'
    """

    # Own entries: perfbench/spans.py wraps cls.__dict__[name] for each class.
    __add__, __mul__, inv = _Truncated.__add__, _Truncated.__mul__, _Truncated.inv

    @property
    def ring_len(self) -> int:
        return len(self.coeffs)

    def _check(self, other: CohClass) -> None:
        if self.ring_len != other.ring_len:
            raise ValueError(f"ring length mismatch: {self.ring_len} vs {other.ring_len}")

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


# -- truncated-polynomial kernels ---------------------------------------------


def _ints(seq: Iterable[Rational]) -> tuple[list[int], int]:
    """Integer numerators of ``seq`` over den = lcm of its denominators."""
    seq = list(seq)
    den = lcm(*(x.denominator for x in seq))
    return [x.numerator * (den // x.denominator) for x in seq], den


def _push(nums: list[int], den: int, v: Rational) -> int:
    """Append v to the numerators ``nums`` over ``den`` and return the new
    common denominator; the earlier numerators are rescaled only when v's
    denominator does not divide den."""
    vd = v.denominator
    if den % vd:
        grow = vd // gcd(den, vd)
        nums[:] = [x * grow for x in nums]
        den *= grow
    nums.append(v.numerator * (den // vd))
    return den


def _int_product(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """The first ``length`` coefficients of the product of the integer
    lists a and b, which must both reach index length-1."""
    return [sum(map(mul, a[: j + 1], b[j::-1])) for j in range(length)]


def _convolve(a: Sequence[Rational], b: Sequence[Rational], length: int) -> tuple[Fraction, ...]:
    """The first ``length`` coefficients of the product of a and b, which
    must both reach index length-1."""
    an, ad = _ints(a[:length])
    bn, bd = _ints(b[:length])
    return tuple(Fraction(x, ad * bd) for x in _int_product(an, bn, length))


def _inverse(a: Sequence[Rational]) -> tuple[Fraction, ...]:
    """The first len(a) coefficients of 1/a; a_0 must be nonzero.

    Triangular solve: b_0 = 1/a_0, b_m = -b_0 * sum_{k=1..m} a_k b_{m-k}.
    """
    if a[0] == 0:
        raise ZeroDivisionError("inverse requires a unit constant coefficient")
    an, ad = _ints(a)
    out = [Fraction(ad, an[0])]
    bn, bd = _ints(out)
    for m in range(1, len(an)):
        out.append(Fraction(-sum(map(mul, an[1 : m + 1], reversed(bn))), an[0] * bd))
        bd = _push(bn, bd, out[-1])
    return tuple(out)


def _linear_product(ring_len: int, l: Rational, shifts: Iterable[Rational]) -> tuple[Rational, ...]:
    """Coefficients of prod_{i in shifts} (l*H + i) mod H^ring_len, one
    shift-add c_k <- i*c_k + l*c_{k-1} per factor; integer data stays
    integer.  After n factors only c_0..c_n can be nonzero, so the
    shift-add stops there."""
    c: list[Rational] = [1] + [0] * (ring_len - 1)
    for n, i in enumerate(shifts, start=1):
        for k in range(min(n, ring_len - 1), 0, -1):
            c[k] = i * c[k] + l * c[k - 1]
        c[0] *= i
    return tuple(c)
