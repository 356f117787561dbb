"""Sparse truncated polynomials in x_1..x_v, t, z over Q.

Terms are stored in a dict keyed by the full exponent vector
(k_1, ..., k_v, t_exp, z_exp); only nonzero coefficients are kept, and any
term whose total x-degree k_1+...+k_v exceeds ``xdeg_max`` is discarded by
every operation.  t and z are NOT truncated: series in this ring are
polynomial in t, z within each x-degree, so no bound is needed.

E.g. with two variables, 3*x1^2*t - z/2 is
``{(2, 0, 1, 0): Fraction(3), (0, 0, 0, 1): Fraction(-1, 2)}``.

``__mul__`` multiplies integer numerators over one common denominator per
operand (``cohomology._ints``) and makes one Fraction per output term.

Instances are treated as immutable; do not mutate ``terms`` after
construction.  The public constructor validates keys and coefficients;
the results of operations on valid polynomials go through the private
``_from_terms``, which only drops zero coefficients.

``log`` and ``exp`` solve the Euler-operator recurrences degree by degree
on the x-degree-homogeneous blocks, with theta = sum_i x_i d/dx_i, which
multiplies a block of x-degree n by n (Brent & Kung, J. ACM 1978):

    log: theta L = theta P / P  gives  n L_n = n P_n - sum_{k<n} (k L_k) P_{n-k}
    exp: theta E = E theta g    gives  n E_n = sum_{k=1..n} (k g_k) E_{n-k}

Once block k is known it is multiplied by the fixed factor (P - 1, resp.
theta g) in one ``__mul__``, which adds its share to every later degree,
so a log or exp costs xdeg_max - 1 products of one block by one
polynomial, not xdeg_max products of full powers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Mapping, Union

from .cohomology import Rational, _ints, as_fraction

Key = tuple[int, ...]  # (k_1..k_v, t_exp, z_exp)


def _xdeg(key: Key) -> int:
    return sum(key[:-2])


@dataclass(frozen=True, eq=True)
class MultiPoly:
    nvars: int
    xdeg_max: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[Key, Fraction] = {}
        for key, c in self.terms.items():
            key = tuple(key)
            if len(key) != self.nvars + 2:
                raise ValueError(
                    f"exponent vector {key} has wrong length for {self.nvars} variables"
                )
            if any(e < 0 for e in key):
                raise ValueError("negative exponent")
            if _xdeg(key) > self.xdeg_max:
                continue
            c = as_fraction(c)
            if c != 0:
                clean[key] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_terms(cls, nvars: int, xdeg_max: int, terms: Mapping[Key, Fraction]) -> MultiPoly:
        """Result of an operation on valid polynomials: keys are already
        in range and coefficients are Fractions, so only zeros are dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "xdeg_max", xdeg_max)
        object.__setattr__(poly, "terms", {k: c for k, c in terms.items() if c})
        return poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        return cls(nvars, xdeg_max, {})

    @classmethod
    def const(cls, value: Rational, nvars: int, xdeg_max: int) -> MultiPoly:
        return cls(nvars, xdeg_max, {(0,) * (nvars + 2): as_fraction(value)})

    @classmethod
    def one(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        return cls.const(1, nvars, xdeg_max)

    @classmethod
    def x(cls, i: int, nvars: int, xdeg_max: int) -> MultiPoly:
        """The variable x_{i+1} (0-based index i)."""
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        key = [0] * (nvars + 2)
        key[i] = 1
        return cls(nvars, xdeg_max, {tuple(key): Fraction(1)})

    @classmethod
    def t(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        key = [0] * (nvars + 2)
        key[-2] = 1
        return cls(nvars, xdeg_max, {tuple(key): Fraction(1)})

    @classmethod
    def z(cls, nvars: int, xdeg_max: int) -> MultiPoly:
        key = [0] * (nvars + 2)
        key[-1] = 1
        return cls(nvars, xdeg_max, {tuple(key): Fraction(1)})

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

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
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return MultiPoly._from_terms(self.nvars, self.xdeg_max, out)

    __radd__ = __add__

    def __sub__(self, other: Union[MultiPoly, Rational]) -> MultiPoly:
        return self + (-other if isinstance(other, MultiPoly) else -as_fraction(other))

    def __neg__(self) -> MultiPoly:
        return MultiPoly._from_terms(
            self.nvars, self.xdeg_max, {k: -c for k, c in self.terms.items()}
        )

    def __mul__(self, other: Union[MultiPoly, Rational]) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return MultiPoly._from_terms(
                self.nvars, self.xdeg_max, {k: c * f for k, c in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        # Bucket by x-degree so pairs beyond the truncation are never formed;
        # the pairs multiply integer numerators over one denominator per operand.
        an, ad = _ints(self.terms.values())
        bn, bd = _ints(other.terms.values())
        by_deg_a: dict[int, list] = defaultdict(list)
        for key, c in zip(self.terms, an):
            by_deg_a[_xdeg(key)].append((key, c))
        by_deg_b: dict[int, list] = defaultdict(list)
        for key, c in zip(other.terms, bn):
            by_deg_b[_xdeg(key)].append((key, c))
        out: dict[Key, int] = {}
        for da, items_a in by_deg_a.items():
            for db, items_b in by_deg_b.items():
                if da + db > self.xdeg_max:
                    continue
                for ka, ca in items_a:
                    for kb, cb in items_b:
                        key = tuple(map(add, ka, kb))
                        if key in out:
                            out[key] += ca * cb
                        else:
                            out[key] = ca * cb
        den = ad * bd
        return MultiPoly._from_terms(
            self.nvars, self.xdeg_max, {k: Fraction(c, den) for k, c in out.items() if c}
        )

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
        out: dict[Key, Fraction] = {}
        for key, c in self.terms.items():
            e = key[pos]
            if e == 0:
                continue
            nk = key[:pos] + (e - 1,) + key[pos + 1 :]
            out[nk] = out.get(nk, Fraction(0)) + c * e
        return MultiPoly._from_terms(self.nvars, self.xdeg_max, out)

    def _blocks(self) -> list[dict[Key, Fraction]]:
        """The terms split by x-degree: entry n holds the block of degree n."""
        blocks: list[dict[Key, Fraction]] = [{} for _ in range(self.xdeg_max + 1)]
        for key, c in self.terms.items():
            blocks[_xdeg(key)][key] = c
        return blocks

    def _add_product(self, block: dict[Key, Fraction], acc: list[dict[Key, Fraction]]) -> None:
        """acc[n] += the degree-n part of block * self, for every n."""
        product = MultiPoly._from_terms(self.nvars, self.xdeg_max, block) * self
        for key, c in product.terms.items():
            into = acc[_xdeg(key)]
            if key in into:
                into[key] += c
            else:
                into[key] = c

    def log(self) -> MultiPoly:
        """log of a polynomial whose x-degree-0 part is exactly 1.

        Solves n L_n = n P_n - sum_{k<n} (k L_k) P_{n-k} for the blocks
        L_n; acc[n] collects the sum as each k L_k is multiplied by P - 1.
        """
        one_key = (0,) * (self.nvars + 2)
        if self.terms.get(one_key) != 1 or any(
            _xdeg(k) == 0 for k in self.terms if k != one_key
        ):
            raise ValueError("log requires constant term exactly 1")
        u = MultiPoly._from_terms(
            self.nvars, self.xdeg_max, {k: c for k, c in self.terms.items() if k != one_key}
        )
        if u.is_zero:  # log 1 = 0, with no loop over xdeg_max
            return u
        blocks = u._blocks()
        acc: list[dict[Key, Fraction]] = [{} for _ in blocks]
        out: dict[Key, Fraction] = {}
        for n in range(1, self.xdeg_max + 1):
            theta_l = {k: n * c for k, c in blocks[n].items()}
            for k, c in acc[n].items():
                theta_l[k] = theta_l[k] - c if k in theta_l else -c
            for k, c in theta_l.items():
                out[k] = c / n
            if n < self.xdeg_max:
                u._add_product(theta_l, acc)
        return MultiPoly._from_terms(self.nvars, self.xdeg_max, out)

    def exp(self) -> MultiPoly:
        """exp of a polynomial all of whose terms have positive x-degree.

        Solves n E_n = sum_{k=1..n} (k g_k) E_{n-k} for the blocks E_n;
        acc[n] collects the sum, starting from E_0 theta g = theta g, as
        each later E_k is multiplied by theta g.
        """
        if any(_xdeg(k) == 0 for k in self.terms):
            raise ValueError("exp requires every term to have positive x-degree")
        if self.is_zero:  # exp 0 = 1, with no loop over xdeg_max
            return MultiPoly.one(self.nvars, self.xdeg_max)
        theta_g = MultiPoly._from_terms(
            self.nvars, self.xdeg_max, {k: _xdeg(k) * c for k, c in self.terms.items()}
        )
        acc = theta_g._blocks()
        out = {(0,) * (self.nvars + 2): Fraction(1)}
        for n in range(1, self.xdeg_max + 1):
            block = {k: c / n for k, c in acc[n].items()}
            out.update(block)
            if n < self.xdeg_max:
                theta_g._add_product(block, acc)
        return MultiPoly._from_terms(self.nvars, self.xdeg_max, out)

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
