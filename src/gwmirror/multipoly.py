"""Sparse truncated polynomials in x_1..x_v, t, z over Q.

A polynomial is integer numerators over one common denominator, in blocks
by x-degree k_1+...+k_v: each block maps exponent vectors (k_1, ..., k_v,
t_exp, z_exp) to nonzero numerators.  Terms of x-degree above
``xdeg_max`` are dropped by every operation; t and z are not truncated,
since each x-degree is polynomial in them.  ``terms``, the read-only view
as normalised Fractions, is built on first read: with two variables
3*x1^2*t - z/2 is ``{(2, 0, 1, 0): Fraction(3), (0, 0, 0, 1):
Fraction(-1, 2)}``.  The public constructor validates its input; the
constants and variables, the lemma builders and every operation build
numerator blocks without that check, make no Fraction and may leave the
common denominator unreduced, so ``==`` compares ``terms``.

``log`` and ``exp`` solve the Euler-operator recurrences block by block,
with theta = sum_i x_i d/dx_i (Brent & Kung, J. ACM 1978).  With
P = 1 + U/D and g = G/D for integer U, G they stay on integers:

    log: n L_n = (n U_n - sum_{k<n} (k L_k) U_{n-k}) / D
    exp:   E_n = sum_{k<n} E_k (theta G)_{n-k} / (n D),    E_0 = 1

Each solved block is reduced to lowest terms and multiplied by U (resp.
theta G) in one ``__mul__``: xdeg_max - 1 products of one block by one
polynomial, where summing powers cost xdeg_max full products.  The
running sum of a later block is kept over the lcm of the reduced
denominators added to it, not over a power of D, so its integers stay
about as large as the blocks it sums.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add
from typing import Callable, Mapping, Optional, Union

from .cohomology import Rational, as_fraction

Key = tuple[int, ...]  # (k_1..k_v, t_exp, z_exp)
Blocks = dict[int, dict[Key, int]]  # x-degree -> {key: numerator}
Part = tuple[int, dict[Key, int], int]  # (x-degree, {key: numerator}, den)


def _accumulate(into: dict[Key, int], block: dict[Key, int], scale: int) -> None:
    """into += scale * block."""
    for k, c in block.items():
        into[k] = into.get(k, 0) + c * scale


class MultiPoly:
    __hash__ = None  # equality compares the dict of terms

    def __init__(self, nvars: int, xdeg_max: int, terms: Optional[Mapping[Key, Rational]] = None):
        parts: list[Part] = []
        for key, c in (terms or {}).items():
            key = tuple(key)
            if len(key) != nvars + 2:
                raise ValueError(f"exponent vector {key} has wrong length for {nvars} variables")
            if min(key) < 0:
                raise ValueError("negative exponent")
            deg = sum(key[:-2])
            if deg > xdeg_max:
                continue
            c = as_fraction(c)
            parts.append((deg, {key: c.numerator}, c.denominator))
        self.__dict__.update(MultiPoly._over(nvars, xdeg_max, parts).__dict__)

    @classmethod
    def _from_blocks(cls, nvars: int, xdeg_max: int, blocks: Blocks, den: int) -> MultiPoly:
        """The polynomial with numerator blocks over den, unvalidated; zeros
        and blocks above xdeg_max are dropped.  A block without zeros is
        kept, not copied, so the caller must not change it afterwards."""
        kept = {}
        for d, b in blocks.items():
            if 0 in b.values():
                b = {k: c for k, c in b.items() if c}
            if b and d <= xdeg_max:
                kept[d] = b
        poly = object.__new__(cls)
        poly.__dict__.update(nvars=nvars, xdeg_max=xdeg_max, _blocks=kept, _den=den)
        return poly

    def _result(self, blocks: Blocks, den: int) -> MultiPoly:
        """A polynomial in this ring from numerator blocks over den."""
        return MultiPoly._from_blocks(self.nvars, self.xdeg_max, blocks, den)

    @classmethod
    def _over(cls, nvars: int, xdeg_max: int, parts: list[Part]) -> MultiPoly:
        """The sum of the parts (x-degree, numerators, den), no key in two
        parts, as numerator blocks over the lcm of their dens."""
        den = lcm(*(d for _, _, d in parts))
        blocks: Blocks = {}
        for n, b, d in parts:
            scale = den // d
            into = blocks.setdefault(n, {})
            for k, c in b.items():
                into[k] = c * scale
        return cls._from_blocks(nvars, xdeg_max, blocks, den)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    __delattr__ = __setattr__

    @cached_property
    def terms(self) -> dict[Key, Fraction]:
        """{exponent vector: nonzero normalised Fraction}; do not mutate."""
        den = self._den
        return {k: Fraction(c, den) for b in self._blocks.values() for k, c in b.items()}

    def __eq__(self, other: object) -> bool:
        if type(other) is not MultiPoly:
            return NotImplemented
        same_ring = (self.nvars, self.xdeg_max) == (other.nvars, other.xdeg_max)
        return same_ring and self.terms == other.terms

    def __repr__(self) -> str:
        return f"MultiPoly(nvars={self.nvars}, xdeg_max={self.xdeg_max}, terms={self.terms!r})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        return cls._from_blocks(nvars, xdeg_max, {}, 1)

    @classmethod
    def const(cls, value: Rational, nvars: int, xdeg_max: int) -> MultiPoly:
        f = as_fraction(value)
        blocks = {0: {(0,) * (nvars + 2): f.numerator}}
        return cls._from_blocks(nvars, xdeg_max, blocks, f.denominator)

    @classmethod
    def one(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        return cls.const(1, nvars, xdeg_max)

    @classmethod
    def _variable(cls, pos: int, nvars: int, xdeg_max: int) -> MultiPoly:
        key = [0] * (nvars + 2)
        key[pos] = 1
        return cls._from_blocks(nvars, xdeg_max, {int(pos < nvars): {tuple(key): 1}}, 1)

    @classmethod
    def x(cls, i: int, nvars: int, xdeg_max: int) -> MultiPoly:
        """The variable x_{i+1} (0-based index i)."""
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        return cls._variable(i, nvars, xdeg_max)

    @classmethod
    def t(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        return cls._variable(nvars, nvars, xdeg_max)

    @classmethod
    def z(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        return cls._variable(nvars + 1, nvars, xdeg_max)

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._blocks

    def _check_ring(self, other: MultiPoly) -> None:
        if self.nvars != other.nvars or self.xdeg_max != other.xdeg_max:
            raise ValueError("polynomials live in different truncated rings")

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: Union[MultiPoly, Rational]) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.nvars, self.xdeg_max)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        den = lcm(self._den, other._den)
        out: Blocks = {}
        for poly in (self, other):
            for d, b in poly._blocks.items():
                _accumulate(out.setdefault(d, {}), b, den // poly._den)
        return self._result(out, den)

    __radd__ = __add__

    def __sub__(self, other: Union[MultiPoly, Rational]) -> MultiPoly:
        return self + (-other if isinstance(other, MultiPoly) else -as_fraction(other))

    def __neg__(self) -> MultiPoly:
        return self._result(
            {d: {k: -c for k, c in b.items()} for d, b in self._blocks.items()}, self._den
        )

    def __mul__(self, other: Union[MultiPoly, Rational]) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return self._result(
                {d: {k: c * f.numerator for k, c in b.items()} for d, b in self._blocks.items()},
                self._den * f.denominator,
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        # Pairs of blocks beyond the truncation are never formed, and each
        # product term lands in the block of its degree.
        out: Blocks = {}
        for da, block_a in self._blocks.items():
            for db, block_b in other._blocks.items():
                if da + db > self.xdeg_max:
                    continue
                into = out.setdefault(da + db, {})
                items_b = block_b.items()
                for ka, ca in block_a.items():
                    for kb, cb in items_b:
                        key = tuple(map(add, ka, kb))
                        if key in into:
                            into[key] += ca * cb
                        else:
                            into[key] = ca * cb
        return self._result(out, self._den * other._den)

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------------

    def partial(self, var: Union[str, int]) -> MultiPoly:
        """Formal partial derivative; var is 't', 'z', or an x index."""
        if var == "t":
            pos = self.nvars
        elif var == "z":
            pos = self.nvars + 1
        elif isinstance(var, int) and 0 <= var < self.nvars:
            pos = var
        else:
            raise ValueError(f"unknown variable {var!r}")
        shift = int(pos < self.nvars)  # an x derivative lowers the x-degree by 1
        out: Blocks = {}
        for d, b in self._blocks.items():
            for key, c in b.items():
                e = key[pos]
                if e:  # distinct keys have distinct derivatives, so no sums
                    out.setdefault(d - shift, {})[key[:pos] + (e - 1,) + key[pos + 1 :]] = c * e
        return self._result(out, self._den)

    def _solve(
        self, factor: MultiPoly, acc: Blocks, den_of: Callable[[int], int], sign: int
    ) -> list[Part]:
        """The blocks Y_n, as parts (n, numerators, den) in lowest terms,
        n = 1..xdeg_max, of

            Y_n = (acc[n] + sign * sum_{k<n} (Y_k factor)_n) / den_of(n)

        for integer seed blocks acc[n].  Each solved Y_k is multiplied by
        factor in one ``__mul__`` and its share added to acc[m] for every
        later degree m.  The running sum acc[m] is kept over acc_den[m], the
        lcm of the denominators of the Y_k added to it so far, and rescaled
        only when a new one does not divide that, as ``cohomology._push``
        does."""
        parts: list[Part] = []
        acc_den: dict[int, int] = {}
        for n in range(1, self.xdeg_max + 1):
            block = {k: c for k, c in acc.pop(n, {}).items() if c}
            if not block:
                continue
            d = acc_den.pop(n, 1) * den_of(n)
            g = gcd(d, *block.values())
            block, d = {k: c // g for k, c in block.items()}, d // g
            parts.append((n, block, d))
            if n < self.xdeg_max:
                for m, b in (self._result({n: block}, 1) * factor)._blocks.items():
                    into, have = acc.setdefault(m, {}), acc_den.get(m, 1)
                    if have % d:
                        grow = d // gcd(have, d)
                        for k in into:
                            into[k] *= grow
                        acc_den[m] = have = have * grow
                    _accumulate(into, b, sign * have // d)
        return parts

    def log(self) -> MultiPoly:
        """log of a polynomial whose x-degree-0 part is exactly 1: theta L
        is Y_n = (n U_n - sum_{k<n} (Y_k U)_n) / D (module docstring), so
        L_n = Y_n / n."""
        den = self._den
        if self._blocks.get(0) != {(0,) * (self.nvars + 2): den}:
            raise ValueError("log requires constant term exactly 1")
        u = self._result({j: b for j, b in self._blocks.items() if j}, 1)
        if u.is_zero:  # log 1 = 0, with no loop over xdeg_max
            return u
        acc = {n: {k: n * c for k, c in b.items()} for n, b in u._blocks.items()}
        parts = self._solve(u, acc, lambda n: den, -1)
        return MultiPoly._over(self.nvars, self.xdeg_max, [(n, b, n * d) for n, b, d in parts])

    def exp(self) -> MultiPoly:
        """exp of a polynomial all of whose terms have positive x-degree:
        E_n = sum_{k<n} (E_k theta G)_n / (n D) (module docstring), from
        E_0 = 1."""
        if 0 in self._blocks:
            raise ValueError("exp requires every term to have positive x-degree")
        if self.is_zero:  # exp 0 = 1, with no loop over xdeg_max
            return MultiPoly.one(self.nvars, self.xdeg_max)
        den = self._den
        theta_g = self._result(
            {j: {k: j * c for k, c in b.items()} for j, b in self._blocks.items()}, 1
        )
        # the share of E_0 = 1, copied since _solve adds into it
        acc = {n: dict(b) for n, b in theta_g._blocks.items()}
        parts = self._solve(theta_g, acc, lambda n: n * den, 1)
        e_0 = (0, {(0,) * (self.nvars + 2): 1}, 1)
        return MultiPoly._over(self.nvars, self.xdeg_max, [e_0, *parts])

    # -- rendering --------------------------------------------------------------

    def term_str(self, key: Key) -> str:
        names = [f"x{i + 1}" for i in range(self.nvars)] + ["t", "z"]
        monos = []
        for name, e in zip(names, key):
            if e == 1:
                monos.append(name)
            elif e > 1:
                monos.append(f"{name}^{e}")
        body = "*".join(monos) if monos else "1"
        return f"{self.terms.get(tuple(key), Fraction(0))} * {body}"

    def leading_term_str(self) -> str:
        """Lexicographically-first stored term, for failure reports."""
        if self.is_zero:
            return "0"
        return self.term_str(min(self.terms))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(self.term_str(k) for k in sorted(self.terms))
