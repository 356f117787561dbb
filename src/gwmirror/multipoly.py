"""Sparse truncated polynomials in x_1..x_v, t, z over Q.

A polynomial is integer numerators over one common denominator, in blocks
by x-degree k_1+...+k_v: each block maps packed exponent keys (below) to
nonzero numerators.  Terms of x-degree above ``xdeg_max`` are dropped by
every operation; t and z are not truncated, since each x-degree is
polynomial in them.  ``terms``, the read-only view
as normalised Fractions, is built on first read: with two variables
3*x1^2*t - z/2 is ``{(2, 0, 1, 0): Fraction(3), (0, 0, 0, 1):
Fraction(-1, 2)}``.  The public constructor validates its input; the
constants and variables, the lemma builders and every operation build
numerator blocks without that check, make no Fraction and may leave the
common denominator unreduced, so ``==`` compares ``terms``.

A key packs the exponent vector (k_1, ..., k_v, t_exp, z_exp) into one
int, FIELD_BITS bits a field with k_1 most significant and z_exp least:

    key = sum_j e_j << (FIELD_BITS * (v + 1 - j)),    j = 0..v+1

so integer order is lexicographic order, the constant's key is 0, a
monomial product is the sum of the keys and d/dt subtracts 1 << FIELD_BITS.
Only ``terms``, ``term_str`` and the validating constructor see tuples.
A field holds 0..EXP_MAX; a sum that passed EXP_MAX would carry into the
next field and silently change the monomial.  So the constructor refuses
a larger exponent with a ValueError, and every polynomial carries
``_bounds``, for each x-degree an upper bound on every field of that
block's keys: a sum keeps the larger bound of each block, a derivative
its block's, and a product of two blocks adds theirs.  ``__mul__`` raises
OverflowError before it multiplies two blocks whose bounds add up past
EXP_MAX: one addition and comparison a pair of blocks, no scan of the
keys.  A block bound is exact enough to compose: where every field is at
most the x-degree, as in the lemma's P and Q, log and exp keep that bound.

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

import struct
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .cohomology import Rational, as_fraction

FIELD_BITS = 32  # the width of the struct format "I" that packs a field
EXP_MAX = (1 << FIELD_BITS) - 1  # the largest exponent a field holds

Key = tuple[int, ...]  # (k_1..k_v, t_exp, z_exp)
Blocks = dict[int, dict[int, int]]  # x-degree -> {packed key: numerator}
Part = tuple[int, dict[int, int], int]  # (x-degree, {packed key: numerator}, den)
Bounds = dict[int, int]  # x-degree -> bound on every field of the block's keys


def _pack(key: Key) -> int:
    """The packed key of an exponent vector whose entries are 0..EXP_MAX.
    Each field is one big-endian unsigned 32-bit word ("I") of the key's
    bytes, so that packing and unpacking take time linear in the number of
    fields."""
    return int.from_bytes(struct.pack(f">{len(key)}I", *key), "big")


def _unpack(packed: int, nfields: int) -> Key:
    return struct.unpack(f">{nfields}I", packed.to_bytes(FIELD_BITS // 8 * nfields, "big"))


def _accumulate(into: dict[int, int], block: dict[int, int], scale: int) -> None:
    """into += scale * block."""
    for k, c in block.items():
        into[k] = into.get(k, 0) + c * scale


class MultiPoly:
    __hash__ = None  # equality compares the dict of terms

    def __init__(self, nvars: int, xdeg_max: int, terms: Mapping[Key, Rational] | None = None):
        parts: list[Part] = []
        bounds: Bounds = {}
        for key, c in (terms or {}).items():
            key = tuple(key)
            if len(key) != nvars + 2:
                raise ValueError(f"exponent vector {key} has wrong length for {nvars} variables")
            if min(key) < 0:
                raise ValueError("negative exponent")
            top = max(key)
            if top > EXP_MAX:
                raise ValueError(f"exponent {top} is above the limit {EXP_MAX}")
            deg = sum(key[:-2])
            if deg > xdeg_max:
                continue
            c = as_fraction(c)
            parts.append((deg, {_pack(key): c.numerator}, c.denominator))
            bounds[deg] = max(bounds.get(deg, 0), top)
        self.__dict__.update(MultiPoly._over(nvars, xdeg_max, parts, bounds).__dict__)

    @classmethod
    def _from_blocks(
        cls, nvars: int, xdeg_max: int, blocks: Blocks, den: int, bounds: Bounds
    ) -> MultiPoly:
        """The polynomial with numerator blocks over den, unvalidated; zeros
        and blocks above xdeg_max are dropped.  bounds must bound the fields
        of every block and may hold degrees without one.  A block without
        zeros and the bounds are kept, not copied, so the caller must not
        change them afterwards."""
        kept = {}
        for d, b in blocks.items():
            if 0 in b.values():
                b = {k: c for k, c in b.items() if c}
            if b and d <= xdeg_max:
                kept[d] = b
        poly = object.__new__(cls)
        poly.__dict__.update(
            nvars=nvars, xdeg_max=xdeg_max, _blocks=kept, _den=den, _bounds=bounds
        )
        return poly

    def _result(self, blocks: Blocks, den: int, bounds: Bounds | None = None) -> MultiPoly:
        """A polynomial in this ring from numerator blocks over den, with
        the given field bounds or, by default, this polynomial's."""
        bounds = self._bounds if bounds is None else bounds
        return MultiPoly._from_blocks(self.nvars, self.xdeg_max, blocks, den, bounds)

    @classmethod
    def _over(cls, nvars: int, xdeg_max: int, parts: list[Part], bounds: Bounds) -> MultiPoly:
        """The sum of the parts (x-degree, numerators, den), no key in two
        parts, as numerator blocks over the lcm of their dens, with the
        field bounds of those blocks."""
        den = lcm(*(d for _, _, d in parts))
        blocks: Blocks = {}
        for n, b, d in parts:
            scale = den // d
            into = blocks.setdefault(n, {})
            for k, c in b.items():
                into[k] = c * scale
        return cls._from_blocks(nvars, xdeg_max, blocks, den, bounds)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    __delattr__ = __setattr__

    @cached_property
    def terms(self) -> dict[Key, Fraction]:
        """{exponent vector: nonzero normalised Fraction}; do not mutate."""
        den, nfields = self._den, self.nvars + 2
        return {
            _unpack(k, nfields): Fraction(c, den)
            for b in self._blocks.values()
            for k, c in b.items()
        }

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
        return cls._from_blocks(nvars, xdeg_max, {}, 1, {})

    @classmethod
    def const(cls, value: Rational, nvars: int, xdeg_max: int) -> MultiPoly:
        f = as_fraction(value)
        return cls._from_blocks(nvars, xdeg_max, {0: {0: f.numerator}}, f.denominator, {0: 0})

    @classmethod
    def one(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        return cls.const(1, nvars, xdeg_max)

    @classmethod
    def _variable(cls, pos: int, nvars: int, xdeg_max: int) -> MultiPoly:
        key, deg = 1 << FIELD_BITS * (nvars + 1 - pos), int(pos < nvars)
        return cls._from_blocks(nvars, xdeg_max, {deg: {key: 1}}, 1, {deg: 1})

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

    def __add__(self, other: MultiPoly | Rational) -> MultiPoly:
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
        bounds = dict(self._bounds)
        for d, b in other._bounds.items():
            if b > bounds.get(d, -1):
                bounds[d] = b
        return self._result(out, den, bounds)

    __radd__ = __add__

    def __sub__(self, other: MultiPoly | Rational) -> MultiPoly:
        return self + (-other if isinstance(other, MultiPoly) else -as_fraction(other))

    def __neg__(self) -> MultiPoly:
        return self._result(
            {d: {k: -c for k, c in b.items()} for d, b in self._blocks.items()}, self._den
        )

    def __mul__(self, other: MultiPoly | Rational) -> MultiPoly:
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
        bounds: Bounds = {}
        for da, block_a in self._blocks.items():
            for db, block_b in other._blocks.items():
                d = da + db
                if d > self.xdeg_max:
                    continue
                bound = self._bounds[da] + other._bounds[db]
                if bound > EXP_MAX:
                    raise OverflowError(
                        f"a product could reach exponent {bound}, above the limit {EXP_MAX}"
                    )
                if bound > bounds.get(d, -1):
                    bounds[d] = bound
                into = out.setdefault(d, {})
                get, items_b = into.get, block_b.items()
                for ka, ca in block_a.items():
                    for kb, cb in items_b:
                        key = ka + kb
                        into[key] = get(key, 0) + ca * cb
        return self._result(out, self._den * other._den, bounds)

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------------

    def partial(self, var: str | int) -> MultiPoly:
        """Formal partial derivative; var is 't', 'z', or an x index."""
        if var == "t":
            pos = self.nvars
        elif var == "z":
            pos = self.nvars + 1
        elif isinstance(var, int) and 0 <= var < self.nvars:
            pos = var
        else:
            raise ValueError(f"unknown variable {var!r}")
        lower = int(pos < self.nvars)  # an x derivative lowers the x-degree by 1
        shift = FIELD_BITS * (self.nvars + 1 - pos)
        one = 1 << shift
        out: Blocks = {}
        for d, b in self._blocks.items():
            for key, c in b.items():
                e = key >> shift & EXP_MAX
                if e:  # distinct keys have distinct derivatives, so no sums
                    out.setdefault(d - lower, {})[key - one] = c * e
        if lower:
            return self._result(out, self._den, {d - 1: b for d, b in self._bounds.items()})
        return self._result(out, self._den)

    def _solve(
        self, factor: MultiPoly, acc: Blocks, den_of: Callable[[int], int], sign: int
    ) -> tuple[list[Part], Bounds]:
        """The blocks Y_n, as parts (n, numerators, den) in lowest terms,
        n = 1..xdeg_max, of

            Y_n = (acc[n] + sign * sum_{k<n} (Y_k factor)_n) / den_of(n)

        for integer seed blocks acc[n], whose keys are those of factor's
        block n.  Each solved Y_k is multiplied by
        factor in one ``__mul__`` and its share added to acc[m] for every
        later degree m.  The running sum acc[m] is kept over acc_den[m], the
        lcm of the denominators of the Y_k added to it so far, and rescaled
        only when a new one does not divide that, as ``cohomology._push``
        does.  The field bounds of the Y_n, the largest of their seed's and
        of the products added to them, are returned with the parts."""
        parts: list[Part] = []
        acc_den: dict[int, int] = {}
        acc_bounds = dict(factor._bounds)
        for n in range(1, self.xdeg_max + 1):
            block = {k: c for k, c in acc.pop(n, {}).items() if c}
            if not block:
                continue
            d = acc_den.pop(n, 1) * den_of(n)
            g = gcd(d, *block.values())
            block, d = {k: c // g for k, c in block.items()}, d // g
            parts.append((n, block, d))
            if n < self.xdeg_max:
                product = self._result({n: block}, 1, {n: acc_bounds[n]}) * factor
                for m, b in product._blocks.items():
                    acc_bounds[m] = max(acc_bounds.get(m, 0), product._bounds[m])
                    into, have = acc.setdefault(m, {}), acc_den.get(m, 1)
                    if have % d:
                        grow = d // gcd(have, d)
                        for k in into:
                            into[k] *= grow
                        acc_den[m] = have = have * grow
                    _accumulate(into, b, sign * have // d)
        return parts, acc_bounds

    def log(self) -> MultiPoly:
        """log of a polynomial whose x-degree-0 part is exactly 1: theta L
        is Y_n = (n U_n - sum_{k<n} (Y_k U)_n) / D (module docstring), so
        L_n = Y_n / n."""
        den = self._den
        if self._blocks.get(0) != {0: den}:
            raise ValueError("log requires constant term exactly 1")
        u = self._result({j: b for j, b in self._blocks.items() if j}, 1)
        if u.is_zero:  # log 1 = 0, with no loop over xdeg_max
            return u
        acc = {n: {k: n * c for k, c in b.items()} for n, b in u._blocks.items()}
        parts, bounds = self._solve(u, acc, lambda n: den, -1)
        parts = [(n, b, n * d) for n, b, d in parts]
        return MultiPoly._over(self.nvars, self.xdeg_max, parts, bounds)

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
        parts, bounds = self._solve(theta_g, acc, lambda n: n * den, 1)
        bounds[0] = 0
        return MultiPoly._over(self.nvars, self.xdeg_max, [(0, {0: 1}, 1), *parts], bounds)

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
