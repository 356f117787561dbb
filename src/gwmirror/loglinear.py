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

The builders make no Fraction.  What depends only on the shape
(nvars, xdeg_max) is one table (``_shape``), built on a shape's first
trial: the multi-indices k as a tree, each a row one step from its
parent k - e_j, with its packed key and L // k! for L the lcm of all
k!.  A trial takes each k's a.k, b.k and c.k, an integer over the common
denominator cden of the c_i, as its parent's plus one variable's, and
``_write`` expands each product over i on integers over D = cden^B L,
B the most factors, straight into its x-degree block of a ``MultiPoly``,
which keeps the lowest common form.  ``p_term_bound`` bounds the term
count of P(t, z) for a shape without building it.
``LemmaConfig`` is an immutable record (``cohomology._Record``) that
keeps its pairs as tuples and its c_i as Fractions.  A check returns
its finding, the text of the first offending term or None on a pass;
``cli`` writes the trial lines.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .cohomology import _ints, _Record, as_fraction
from .multipoly import EXP_MAX, FIELD_BITS, MultiPoly, _check_shape

ALLOWED_PAIRS = ((0, 0), (1, 0), (0, 1))


class LemmaConfig(_Record):
    """One sampled instance: per-variable (a_i, b_i) pairs and rational c_i."""

    __slots__ = ("pairs", "cs", "xdeg_max")

    def __init__(
        self, pairs: tuple[tuple[int, int], ...], cs: tuple[Fraction, ...], xdeg_max: int
    ) -> None:
        pairs = tuple(tuple(p) for p in pairs)
        cs = tuple(as_fraction(c) for c in cs)
        if len(pairs) != len(cs):
            raise ValueError("need one c_i per variable")
        for p in pairs:
            if p not in ALLOWED_PAIRS:
                raise ValueError(f"(a_i, b_i) = {p} not in {ALLOWED_PAIRS}")
        _check_shape(len(pairs), xdeg_max)
        self.pairs, self.cs, self.xdeg_max = pairs, cs, xdeg_max

    @property
    def nvars(self) -> int:
        return len(self.pairs)


def sample_config(rng: random.Random, nvars: int, xdeg_max: int) -> LemmaConfig:
    """Draw (a_i, b_i) uniformly from the allowed pairs and c_i with
    numerator in [-9, 9], denominator in [1, 9]."""
    pairs = tuple(ALLOWED_PAIRS[rng.randrange(3)] for _ in range(nvars))
    cs = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nvars)
    )
    return LemmaConfig(pairs, cs, xdeg_max)


def p_term_bound(nvars: int, xdeg_max: int) -> int:
    """Worst-case term count of P(t, z), computed without building anything.

    A multi-index k with sum(k) = s has a.k + b.k <= s, so its factor is a
    polynomial in t, z of total degree at most s: at most (s+1)(s+2)/2
    terms, over the C(s+nvars-1, nvars-1) multi-indices of that total.
    A passing a1 trial never forms P(t, z), only P'(t, s): at nvars 1,
    xdeg_max 37 the bound is 9,880, and P' has 727 terms at c = 1/3.
    """
    if nvars == 0:
        return 1
    return sum(
        comb(s + nvars - 1, nvars - 1) * (s + 1) * (s + 2) // 2 for s in range(xdeg_max + 1)
    )


# -- series builders -----------------------------------------------------------


@lru_cache(maxsize=8)
def _shape(nvars: int, xdeg_max: int):
    """What every trial of a shape shares: (rows, L), a row (sum(k), the
    packed key of x^k, L // k!, parent, j) for each multi-index k with
    sum(k) <= xdeg_max, and L the lcm of all k! = prod_i k_i!; j is
    the last nonzero entry of k and parent the row of k - e_j (both None
    for k = 0).  The rows walk down the tree of parents, k's children
    k + e_i for i >= j in decreasing i, so they come in lexicographic
    order, each one step from its parent; at nvars = 0 only k = 0."""
    units = [1 << FIELD_BITS * (nvars + 1 - i) for i in range(nvars)]  # x_i's keys
    rows, todo = [], [(0, 0, 1, 0, None, None)]  # (sum(k), key, k!, k_j, parent, j)
    while todo:
        s, xkey, kfact, kj, parent, j = todo.pop()
        rows.append((s, xkey, kfact, parent, j))
        if s < xdeg_max:
            for i in range(j or 0, nvars):
                ki = kj + 1 if i == j else 1
                todo.append((s + 1, xkey + units[i], kfact * ki, ki, len(rows) - 1, i))
    big_l = lcm(*(f for _, _, f, _, _ in rows))
    return tuple((s, x, big_l // f, p, j) for s, x, f, p, j in rows), big_l


def _write(cfg: LemmaConfig, shape, cden: int, heads, shift: int) -> MultiPoly:
    """The sum over the rows k of ``shape``, cfg's ``_shape`` table, with
    heads[k] = (off, n, u), of x^k/k! times the monomial of key off times
    prod_{i<n} (u - i cden + cden v) / cden^n, v the variable ``shift``
    bits up (z's for P's s, t's for Q), each product expanded over
    D = cden^B L, B the largest n, straight into its block, which
    ``MultiPoly._from_blocks`` reduces (module docstring).  The keys need
    no check against ``EXP_MAX``: a field of row k is at most sum(k)."""
    rows, big_l = shape
    top = max([n for _, n, _ in heads])
    pows = [1]  # cden^0 .. cden^B
    for _ in range(top):
        pows.append(pows[-1] * cden)
    den = pows[top] * big_l
    blocks: dict[int, dict[int, int]] = {}
    for (s, xkey, lk, _, _), (off, n, u) in zip(rows, heads):
        w = [pows[top - n] * lk]
        for _ in range(n):  # w times (u + cden v), then the next factor
            w.append(cden * w[-1])
            for m in range(len(w) - 2, 0, -1):
                w[m] = u * w[m] + cden * w[m - 1]
            w[0] *= u
            u -= cden
        key, block = xkey + off, blocks.setdefault(s, {})
        for wm in w:
            if wm:
                block[key] = wm
            key += 1 << shift
    return MultiPoly._from_blocks(cfg.nvars, cfg.xdeg_max, blocks, den)


def build_p(cfg: LemmaConfig) -> MultiPoly:
    """Exact truncated expansion of P over all k with sum(k) <= xdeg_max,
    in (t, s = t + z): P'(t, s) = P(t, s - t), the power of s in z's field.
    P(t, z) itself is ``build_p(cfg).shear(1)``.  The a.k, b.k and c.k of
    each k are its parent's plus those of one variable.

    >>> p = build_p(LemmaConfig(((0, 1),), (Fraction(1, 2),), 2))
    >>> print(p)  # s in z's place: 1 + x (1/2 + s) + x^2 (1 + s) s / 2
    1 * 1 + 1/2 * x1 + 1 * x1*z + 1/2 * x1^2*z + 1/2 * x1^2*z^2
    """
    cnum, cden = _ints(cfg.cs)
    pairs = cfg.pairs
    heads = [(0, 0, 0)]  # (t^{a.k}'s key, b.k, c.k over cden)
    shape = _shape(cfg.nvars, cfg.xdeg_max)
    for _, _, _, parent, j in shape[0][1:]:
        ak, bk, ck = heads[parent]
        a, b = pairs[j]
        heads.append((ak + (a << FIELD_BITS), bk + b, ck + cnum[j]))
    return _write(cfg, shape, cden, heads, 0)


def build_q(cfg: LemmaConfig) -> MultiPoly:
    """Exact truncated expansion of Q(t); the sum(k) = 0 term is 1."""
    cnum, cden = _ints(cfg.cs)
    t = 1 << FIELD_BITS  # the overall factor t of every k but 0
    heads = [(0, 0, -cden)]  # (t, sum(k) - 1, c.k - 1 over cden)
    shape = _shape(cfg.nvars, cfg.xdeg_max)
    for s, _, _, parent, j in shape[0][1:]:
        heads.append((t, s - 1, heads[parent][2] + cnum[j]))
    return _write(cfg, shape, cden, heads, FIELD_BITS)


# -- identity checks -----------------------------------------------------------


def check_a1(p: MultiPoly) -> str | None:
    """All three second derivatives of ln P vanish identically, for p =
    build_p(cfg), P in (t, s = t + z): None, or the first residual's
    leading term.  The log is taken in (t, s), and sheared back to (t, z)
    only to name a failure (module docstring)."""
    ln_p = p.log()
    keys = (k for b in ln_p._blocks.values() for k in b)
    if all((k >> FIELD_BITS & EXP_MAX) + (k & EXP_MAX) <= 1 for k in keys):
        return None
    ln_p = ln_p.shear(1)
    d_t = ln_p.partial("t")
    for name, residual in (
        ("d2t(lnP)", d_t.partial("t")),
        ("d2z(lnP)", ln_p.partial("z").partial("z")),
        ("dtdz(lnP)", d_t.partial("z")),
    ):
        if not residual.is_zero:
            return f"{name} = {residual.leading_term_str()}"
    return None


def check_a2(q: MultiPoly) -> str | None:
    """(t d/dt - 1) ln Q vanishes identically, i.e. ln Q is linear in t,
    for q = build_q(cfg): None, or the residual's leading term."""
    ln_q = q.log()
    keys = (k for b in ln_q._blocks.values() for k in b)
    if all(k >> FIELD_BITS & EXP_MAX == 1 for k in keys):
        return None
    residual = MultiPoly.t(q.nvars, q.xdeg_max) * ln_q.partial("t") - ln_q
    return f"(t*dt-1)lnQ = {residual.leading_term_str()}"


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


def check_closed_forms(cfg: LemmaConfig, p: MultiPoly, q: MultiPoly) -> str | None:
    """At c = 0 the series factor into elementary closed forms:

        P = exp(sum_i x_i t^{a_i}) * (1 + sum_j x_j)^{z+t}
    (the first factor over the b_i = 0 variables, the second over the
    (0,1) variables), and Q = (1 + sum_i x_i)^t.  p and q are build_p(cfg)
    and build_q(cfg): None, or the first mismatch.  P is compared in
    (t, s = t + z), where the second factor is (1 + sum_j x_j)^s, and a
    mismatch is named in (t, z).
    """
    if any(c != 0 for c in cfg.cs):
        raise ValueError("closed forms require all c_i = 0")
    p_expected, q_expected = _closed_forms(cfg.pairs, cfg.xdeg_max)
    for name, got, want, back in (
        ("P", p, p_expected, 1),
        ("Q", q, q_expected, 0),
    ):
        if got != want:
            return f"{name} mismatch at {(got - want).shear(back).leading_term_str()}"
    return None
