"""Log-linearity checks for the correction generating series.

The correction series that drive the mirror pipelines are, with their
geometric coefficients replaced by formal variables x_i, of the shape

    P(t, z) = sum_k x^k/k! * t^{a.k} * prod_{i=0}^{b.k-1} (c.k + z + t - i)
    Q(t)    = sum_k x^k/k! * t * prod_{i=1}^{sum(k)-1} (c.k + t - i)

(multi-index k; a.k = sum a_i k_i etc.; the sum(k) = 0 term of Q is 1 by
the falling-factorial convention).  Provided every (a_i, b_i) is (0,0),
(1,0) or (0,1), ln P is affine-linear in t and z and ln Q is linear in t:

    d2/dt2 ln P = d2/dz2 ln P = d/dt d/dz ln P = 0        (check_a1)
    (t d/dt - 1) ln Q = 0                                  (check_a2)

These are theorems, so the checks double as a test oracle: any surviving
term signals an implementation bug.  At c = 0 both series collapse to
closed forms (check_closed_forms), which pins the expansions themselves
and not just their logs.

The c_i are sampled as exact rationals rather than carried as formal
variables; many sampled instances give the same assurance at a fraction
of the cost, and the checks stay exact for every sample.

P lives in the coordinates (t, s) with s = t + z.  There term k of
P'(t, s) = P(t, s - t) is t^{a.k} times a polynomial in s of degree b.k,
b.k + 1 terms where P has (b.k + 1)(b.k + 2)/2.  The substitution
z -> s - t is a ring automorphism that keeps the x-degree, so it
commutes with the truncated log; it keeps each term's degree in (t, z),
so ln P is affine exactly when no key of ln P' has t and s exponents
adding up to more than 1.  ``build_p`` returns P' (a b.k = 0 term as
1/k!, with no product), and P(t, z) is ``build_p(cfg).shear(1)``
(``MultiPoly.shear``).  ``check_a1`` passes log P' by its keys and
shears it back for the three residuals only on a failure, so every FAIL
line is that of ln P.  ``check_a2`` likewise forms (t d/dt - 1) ln Q,
which multiplies t^e by e - 1, only when a key of ln Q has a t exponent
other than 1.  The closed form of P at c = 0 is formed in s as well, and
a mismatch is named in (t, z).

The builders make no Fraction, and what depends only on the shape
(nvars, xdeg_max), the multi-indices with their packed keys and
factorials, is one table (``_shape``) built on a shape's first trial.
A first pass takes c.k as an integer over the common denominator of the
c_i, expands each product over i on integer numerators
(``cohomology._linear_product``) and reduces it by one gcd; a second
writes each numerator, scaled to the lcm of those denominators, straight
into its x-degree block.  ``p_term_bound`` gives the worst-case term
count of P for a shape without building it.  ``LemmaConfig`` and
``CheckReport`` are immutable records (``cohomology._Record``); a config
keeps its pairs as tuples and its c_i as Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import mul

from .cohomology import _ints, _linear_product, _lowest, _Record, as_fraction
from .multipoly import EXP_MAX, FIELD_BITS, MultiPoly, _pack

ALLOWED_PAIRS = ((0, 0), (1, 0), (0, 1))


class LemmaConfig(_Record):
    """One sampled instance: per-variable (a_i, b_i) pairs and rational c_i."""

    __slots__ = ("pairs", "cs", "xdeg_max", "seed")

    def __init__(
        self,
        pairs: tuple[tuple[int, int], ...],
        cs: tuple[Fraction, ...],
        xdeg_max: int,
        seed: int | None = None,
    ) -> None:
        pairs = tuple(tuple(p) for p in pairs)
        cs = tuple(as_fraction(c) for c in cs)
        if len(pairs) != len(cs):
            raise ValueError("need one c_i per variable")
        for p in pairs:
            if p not in ALLOWED_PAIRS:
                raise ValueError(f"(a_i, b_i) = {p} not in {ALLOWED_PAIRS}")
        if xdeg_max < 0:
            raise ValueError("xdeg_max must be non-negative")
        self.pairs, self.cs, self.xdeg_max, self.seed = pairs, cs, xdeg_max, seed

    @property
    def nvars(self) -> int:
        return len(self.pairs)

    def summary(self) -> str:
        pairs = ",".join(f"({a},{b})" for a, b in self.pairs) or "-"
        cs = ",".join(str(c) for c in self.cs) or "-"
        return f"xdeg={self.xdeg_max} pairs={pairs} c={cs}"


class CheckReport(_Record):
    """Outcome of one identity check on one configuration."""

    __slots__ = ("check", "config", "passed", "offending")

    def __init__(
        self, check: str, config: LemmaConfig, passed: bool, offending: str | None = None
    ) -> None:
        self.check, self.config, self.passed, self.offending = check, config, passed, offending

    def line(self, trial: int | None = None) -> str:
        head = f"trial={trial} " if trial is not None else ""
        seed = "-" if self.config.seed is None else self.config.seed
        tail = "PASS" if self.passed else f"FAIL {self.offending}"
        return f"{head}seed={seed} {self.config.summary()} {self.check} {tail}"


def sample_config(
    rng: random.Random, nvars: int, xdeg_max: int, seed: int | None = None
) -> LemmaConfig:
    """Draw (a_i, b_i) uniformly from the allowed pairs and c_i with
    numerator in [-9, 9], denominator in [1, 9]."""
    pairs = tuple(ALLOWED_PAIRS[rng.randrange(3)] for _ in range(nvars))
    cs = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nvars)
    )
    return LemmaConfig(pairs, cs, xdeg_max, seed)


def p_term_bound(nvars: int, xdeg_max: int) -> int:
    """Worst-case term count of P, computed without building anything.

    A multi-index k with sum(k) = s has a.k + b.k <= s, so its factor is a
    polynomial in t, z of total degree at most s: at most (s+1)(s+2)/2
    terms, over the C(s+nvars-1, nvars-1) multi-indices of that total.
    """
    if nvars == 0:
        return 1
    return sum(
        comb(s + nvars - 1, nvars - 1) * (s + 1) * (s + 2) // 2 for s in range(xdeg_max + 1)
    )


# -- series builders -----------------------------------------------------------


def _multi_indices(nvars: int, total_max: int):
    """Multi-indices k of length nvars with sum(k) <= total_max, in
    lexicographic order.  The successor of k raises its last entry while
    the sum allows; at the sum limit it zeroes the last nonzero entry and
    raises the one before it, or stops when that entry is the first."""
    k = [0] * nvars
    total = 0
    while True:
        yield tuple(k)
        if total < total_max and nvars:
            k[-1] += 1
            total += 1
            continue
        j = nvars - 1
        while j >= 0 and k[j] == 0:
            j -= 1
        if j <= 0:
            return
        total -= k[j] - 1
        k[j] = 0
        k[j - 1] += 1


@lru_cache(maxsize=8)
def _shape(nvars: int, xdeg_max: int):
    """What every trial of a shape shares: (k, sum(k), the packed key of
    x^k, prod_i k_i!) for each multi-index k in lexicographic order."""
    return tuple(
        (k, sum(k), _pack(k + (0, 0)), prod(map(factorial, k)))
        for k in _multi_indices(nvars, xdeg_max)
    )


def _assemble(cfg: LemmaConfig, reduced, shift: int) -> MultiPoly:
    """The sum over entries (sum(k), base key, w, den) of ``reduced`` of
    w[m]/den times the base monomial times s^m, s the variable whose field
    is ``shift`` bits up (z's for P's s = t + z, t's for Q), each numerator
    written once, scaled to the lcm of the dens, into its block.  A field
    is at most the x-degree: k's factor has degree <= sum(k)."""
    den = lcm(*(d for *_, d in reduced))
    blocks: dict[int, dict[int, int]] = {}
    for s, base, w, d in reduced:
        scale, block = den // d, blocks.setdefault(s, {})
        for m, wm in enumerate(w):
            if wm:
                block[base + (m << shift)] = wm * scale
    return MultiPoly._from_blocks(cfg.nvars, cfg.xdeg_max, blocks, den, {s: s for s in blocks})


def build_p(cfg: LemmaConfig) -> MultiPoly:
    """Exact truncated expansion of P over all k with sum(k) <= xdeg_max,
    in (t, s = t + z): P'(t, s) = P(t, s - t), the power of s in z's field.
    P(t, z) itself is ``build_p(cfg).shear(1)``.

    The product over i is collected in s on integer numerators.  The terms
    of k share the product's reduced denominator, which is the lcm of their
    own in P as in P': the coefficient of t^{a.k} z^m in P is that of
    t^{a.k} s^m in P', since C(m, 0) = 1.
    """
    cnum, cden = _ints(cfg.cs)
    pairs = cfg.pairs
    reduced = []
    for k, s, xkey, kfact in _shape(cfg.nvars, cfg.xdeg_max):
        ak = bk = ck = 0
        for ki, (a, b), c in zip(k, pairs, cnum):
            if ki:
                ak += a * ki
                bk += b * ki
                ck += c * ki
        if bk:
            w = _linear_product(bk + 1, cden, [ck - i * cden for i in range(bk)])
            w, den = _lowest(w, cden**bk * kfact)
        else:  # the empty product: 1/k!
            w, den = (1,), kfact
        reduced.append((s, xkey + (ak << FIELD_BITS), w, den))
    return _assemble(cfg, reduced, 0)


def build_q(cfg: LemmaConfig) -> MultiPoly:
    """Exact truncated expansion of Q(t); the sum(k) = 0 term is 1."""
    cnum, cden = _ints(cfg.cs)
    reduced = [(0, 0, (1,), 1)]
    for k, s, xkey, kfact in _shape(cfg.nvars, cfg.xdeg_max)[1:]:
        ck = sum(map(mul, cnum, k))
        w = _linear_product(s, cden, [ck - i * cden for i in range(1, s)])
        w, den = _lowest(w, cden ** (s - 1) * kfact)
        reduced.append((s, xkey + (1 << FIELD_BITS), w, den))  # overall factor t
    return _assemble(cfg, reduced, FIELD_BITS)


# -- identity checks -----------------------------------------------------------


def check_a1(cfg: LemmaConfig, p: MultiPoly | None = None) -> CheckReport:
    """All three second derivatives of ln P vanish identically; p is
    build_p(cfg), P in (t, s = t + z), when the caller has built it
    already.  The log is taken in (t, s), and sheared back to (t, z) only
    to name a failure (module docstring)."""
    ln_p = (build_p(cfg) if p is None else p).log()
    keys = (k for b in ln_p._blocks.values() for k in b)
    if all((k >> FIELD_BITS & EXP_MAX) + (k & EXP_MAX) <= 1 for k in keys):
        return CheckReport("a1", cfg, True)
    ln_p = ln_p.shear(1)
    d_t = ln_p.partial("t")
    for name, residual in (
        ("d2t(lnP)", d_t.partial("t")),
        ("d2z(lnP)", ln_p.partial("z").partial("z")),
        ("dtdz(lnP)", d_t.partial("z")),
    ):
        if not residual.is_zero:
            return CheckReport("a1", cfg, False, f"{name} = {residual.leading_term_str()}")
    return CheckReport("a1", cfg, True)


def check_a2(cfg: LemmaConfig, q: MultiPoly | None = None) -> CheckReport:
    """(t d/dt - 1) ln Q vanishes identically, i.e. ln Q is linear in t; q
    is build_q(cfg) when the caller has built it already."""
    ln_q = (build_q(cfg) if q is None else q).log()
    keys = (k for b in ln_q._blocks.values() for k in b)
    if all(k >> FIELD_BITS & EXP_MAX == 1 for k in keys):
        return CheckReport("a2", cfg, True)
    t = MultiPoly.t(cfg.nvars, cfg.xdeg_max)
    residual = t * ln_q.partial("t") - ln_q
    return CheckReport("a2", cfg, False, f"(t*dt-1)lnQ = {residual.leading_term_str()}")


@lru_cache(maxsize=16)
def _closed_forms(pairs: tuple[tuple[int, int], ...], xdeg_max: int) -> tuple[MultiPoly, MultiPoly]:
    """P in (t, s = t + z) and Q at c = 0 (check_closed_forms), built
    once for every trial with these pairs and this x-degree; a MultiPoly
    is never changed, so the trials share them."""
    v, xd = len(pairs), xdeg_max
    exp_arg = MultiPoly.zero(v, xd)
    binom_sum = MultiPoly.zero(v, xd)
    all_sum = MultiPoly.zero(v, xd)
    t = MultiPoly.t(v, xd)
    for i, (a, b) in enumerate(pairs):
        xi = MultiPoly.x(i, v, xd)
        all_sum = all_sum + xi
        if (a, b) == (0, 1):
            binom_sum = binom_sum + xi
        else:
            exp_arg = exp_arg + (xi * t if a == 1 else xi)
    # (1 + sum_j x_j)^(z+t) = exp(s log(1 + sum_j x_j)), s in z's field
    s = MultiPoly.z(v, xd)
    p_expected = exp_arg.exp() * (s * (binom_sum + 1).log()).exp()
    q_expected = (t * (all_sum + 1).log()).exp()
    return p_expected, q_expected


def check_closed_forms(
    cfg: LemmaConfig, p: MultiPoly | None = None, q: MultiPoly | None = None
) -> CheckReport:
    """At c = 0 the series factor into elementary closed forms:

        P = exp(sum_i x_i t^{a_i}) * (1 + sum_j x_j)^{z+t}
    (the first factor over the b_i = 0 variables, the second over the
    (0,1) variables), and Q = (1 + sum_i x_i)^t.  p and q are build_p(cfg)
    and build_q(cfg) when the caller has built them already; P is compared
    in (t, s = t + z), where the second factor is (1 + sum_j x_j)^s, and a
    mismatch is named in (t, z).
    """
    if any(c != 0 for c in cfg.cs):
        raise ValueError("closed forms require all c_i = 0")
    p_expected, q_expected = _closed_forms(cfg.pairs, cfg.xdeg_max)
    for name, got, want, back in (
        ("P", build_p(cfg) if p is None else p, p_expected, 1),
        ("Q", build_q(cfg) if q is None else q, q_expected, 0),
    ):
        if got != want:
            where = (got - want).shear(back).leading_term_str()
            return CheckReport("closed-form", cfg, False, f"{name} mismatch at {where}")
    return CheckReport("closed-form", cfg, True)
