"""Exact scalars and the truncated cohomology ring of projective space.

Rational scalars are ``fractions.Fraction`` throughout the package:
arithmetic is exact, every value is normalized (positive denominator,
coprime parts), and ``str()`` renders the canonical ``a/b`` form with
``/1`` omitted.  That string form is the one used bit-for-bit in CLI
output and golden files.

Both factors of H^*(P^n)[[q]] are truncated univariate polynomials.  The
private base ``_Truncated`` owns what ``CohClass`` and ``series.DSeries``
share: the stored form, the length check, +, -, scalar and truncated
products and the inverse.  ``CohClass`` models Q[H]/(H^r), the
cohomology ring of P^{r-1} with H the hyperplane class, and adds only
``ring_len`` and ``str()``.  All values are immutable and all
operations are pure.

A value is stored as integer numerators over one positive denominator in
lowest common form, gcd(den, *nums) = 1, which is the lcm of the
denominators of its coefficients in lowest terms.  The form is
canonical, so ``==`` and ``hash`` compare (den, nums), and every
operation runs on the stored integers: a sum over the lcm of the two
denominators, a product on the integer product ``_int_product`` over the
product of the denominators, each followed by one gcd reduction
(``_lowest``).  ``coeffs``, the coefficients as normalised Fractions, is
built on first read and kept; ``coeff(k)`` reads one coefficient
without building them.  The public constructor validates
Fractions and ints; the package builds values from numerators with
``_new``, unchecked; ``_common`` is the one normaliser of other values.

This module also holds the integer kernels that ``CohClass``,
``DSeries`` and the twist products of ``hypergeom`` share:
``_int_product`` (schoolbook product, O(r^2)), ``_inverse`` (triangular
solve, O(r^2); Brent & Kung, J. ACM 1978) and ``_linear_product``
(c * prod (l*H + i), one O(r) shift-add per factor).  A recurrence
appends each output to its numerators with ``_push``, which reduces it
by one gcd and rescales the earlier numerators only when its
denominator does not divide the common one, so the result is already in
lowest common form.  The lemma products use none of these kernels:
``MultiPoly`` keeps its numerator blocks in the same lowest common form
and shares ``_Truncated.__eq__`` on its own ``_key()``.  Every builder
that takes a size refuses one that is not an int with ``_check_int``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Rational = int | Fraction


def as_fraction(x: Rational) -> Fraction:
    """Coerce an int or Fraction; floats are rejected to keep arithmetic exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def _check_int(**sizes: int) -> None:
    """Refuse a size that is not an int, by name, a bool included."""
    for name, n in sizes.items():
        if type(n) is not int:
            raise TypeError(f"{name} must be an int")


class _Truncated:
    """A truncated univariate polynomial as numerators ``_nums`` over
    ``_den`` in lowest common form: the ring operations that ``CohClass``
    and ``DSeries`` share.  Results are built by ``_new``; an operand of
    another type gives NotImplemented, so classes and series never mix,
    and ``_check(other)`` refuses an operand of another length."""

    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[Rational]) -> None:
        cs = [as_fraction(c) for c in coeffs]
        nums, den = _common([c.numerator for c in cs], [c.denominator for c in cs])
        if not nums:
            raise ValueError("at least the index-0 coefficient is needed")
        self._nums, self._den, self._coeffs = nums, den, None

    @classmethod
    def _new(cls, nums: tuple[int, ...], den: int):
        """The value with numerators ``nums`` over ``den``, which must be in
        lowest common form; unchecked."""
        new = object.__new__(cls)
        new._nums, new._den, new._coeffs = nums, den, None
        return new

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as normalised Fractions, built on first read."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(Fraction(x, den) for x in self._nums)
        return self._coeffs

    def coeff(self, k: int) -> Fraction:
        """The index-k coefficient, without building ``coeffs``."""
        return Fraction(self._nums[k], self._den)

    def _key(self) -> tuple:
        """What ``==`` and ``hash`` compare: the stored form is canonical."""
        return self._den, self._nums

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coeffs={self.coeffs!r})"

    def _check(self, other) -> None:
        a, b = len(self._nums), len(other._nums)
        if a != b:
            raise ValueError(f"{type(self).__name__} length mismatch: {a} vs {b}")

    def _sum(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        return self._new(*_lowest([a * sa + b * sb for a, b in zip(self._nums, other._nums)], den))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._new(tuple(-a for a in self._nums), self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return self._new(*_lowest([a * p for a in self._nums], self._den * q))
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        nums = _int_product(self._nums, other._nums, len(self._nums))
        return self._new(*_lowest(nums, self._den * other._den))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def inv(self):
        """Multiplicative inverse; the index-0 coefficient must be nonzero."""
        nums, den = _inverse(self._nums, self._den)
        return self._new(tuple(nums), den)


class _Record:
    """An immutable record on ``__slots__`` in place of a frozen dataclass,
    whose import took half of the command line's start-up: each field is
    set once, ``==`` and ``hash`` are the stored form's on ``_key()``, the
    field tuple, and ``repr`` is the dataclass form."""

    __slots__ = ()
    __eq__, __hash__ = _Truncated.__eq__, _Truncated.__hash__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


class CohClass(_Truncated):
    """Element of Q[H]/(H^ring_len), stored densely.

    ``coeffs[k]`` is the coefficient of H^k; ``len(coeffs)`` is the ring
    length and is checked on every binary operation (no silent coercion
    between rings of different length).

    >>> str(CohClass((1, 1, 0)).inv())
    '1 - H + H^2'
    """

    __slots__ = ()

    # Own entries: perfbench/spans.py wraps cls.__dict__[name] for each class.
    __add__, __mul__, inv = _Truncated.__add__, _Truncated.__mul__, _Truncated.inv

    @property
    def ring_len(self) -> int:
        return len(self._nums)

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


# -- integer numerators --------------------------------------------------------


def _lowest(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The numerators over the positive ``den`` divided by their common
    gcd with it: the lowest common form of the same values."""
    g = gcd(den, *nums) if den != 1 else 1
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def _common(nums: Sequence[int], dens: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The values nums[i]/dens[i], every dens[i] positive, in lowest common
    form: over the lcm of their denominators in lowest terms.  The
    constructor, the H-components and the lemma builders all use it."""
    gs = [gcd(x, d) for x, d in zip(nums, dens)]
    dens = [d // g for d, g in zip(dens, gs)]
    den = lcm(*dens)
    return tuple(x // g * (den // d) for x, g, d in zip(nums, gs, dens)), den


def _push(nums: list[int], den: int, num: int, vden: int) -> int:
    """Append num/vden (vden nonzero) to the numerators ``nums`` over
    ``den`` and return the new common denominator.  The value is reduced
    first, and the earlier numerators are rescaled only when its
    denominator does not divide den, so numerators in lowest common form
    stay in it."""
    g = gcd(num, vden)
    if vden < 0:
        g = -g
    num, vden = num // g, vden // g
    if den % vden:
        grow = vden // gcd(den, vden)
        nums[:] = [x * grow for x in nums]
        den *= grow
    nums.append(num * (den // vden))
    return den


def _int_product(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """The first ``length`` coefficients of the product of the integer
    lists a and b, which must both reach index length-1."""
    return [sum(map(mul, a[: j + 1], b[j::-1])) for j in range(length)]


def _inverse(an: Sequence[int], ad: int) -> tuple[list[int], int]:
    """Numerators and denominator of the first len(an) coefficients of 1/a,
    a = an/ad; a_0 must be nonzero.

    Triangular solve: b_0 = 1/a_0, b_m = -b_0 * sum_{k=1..m} a_k b_{m-k}.
    """
    if an[0] == 0:
        raise ZeroDivisionError("inverse requires a unit constant coefficient")
    bn: list[int] = []
    bd = _push(bn, 1, ad, an[0])
    for m in range(1, len(an)):
        bd = _push(bn, bd, -sum(map(mul, an[1 : m + 1], reversed(bn))), an[0] * bd)
    return bn, bd


def _linear_product(c: Sequence[Rational], l: Rational, shifts: Iterable[Rational]) -> list[Rational]:
    """The coefficients of c * prod_{i in shifts} (l*H + i) mod H^len(c),
    one shift-add c_k <- i*c_k + l*c_{k-1} per factor; integer data stays
    integer."""
    c = list(c)
    for i in shifts:
        for k in range(len(c) - 1, 0, -1):
            c[k] = i * c[k] + l * c[k - 1]
        c[0] *= i
    return c
