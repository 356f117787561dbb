import hashlib
import itertools
import math
import random
import re
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwmirror import (
    LemmaConfig,
    MultiPoly,
    build_p,
    build_q,
    check_a1,
    check_a2,
    check_closed_forms,
    loglinear,
    sample_config,
)
from gwmirror.cli import _trial_line
from gwmirror.loglinear import ALLOWED_PAIRS
from gwmirror.multipoly import _unpack

from oracles import (
    check_record,
    mp_add,
    mp_exp_by_powers,
    mp_log_by_powers,
    mp_mul,
    mp_partial,
    mp_shear,
    multi_indices_recursive,
)
from strategies import million
from test_multipoly import fields_within, in_lowest_common_form


def expand_tz(factors, nvars, xdeg, with_z=True):
    """Independent expansion of prod (const + t [+ z]) by repeated distribution."""
    acc = MultiPoly.one(nvars, xdeg)
    s = MultiPoly.t(nvars, xdeg)
    if with_z:
        s = s + MultiPoly.z(nvars, xdeg)
    for c in factors:
        acc = acc * (s + MultiPoly.const(c, nvars, xdeg))
    return acc


def multi_indices(nvars, total_max):
    return [
        k for k in itertools.product(range(total_max + 1), repeat=nvars) if sum(k) <= total_max
    ]


def brute_force_p(cfg):
    """sum_k x^k/k! t^{a.k} prod_{i<b.k} (c.k + z + t - i), one MultiPoly
    linear factor at a time."""
    v, xd = cfg.nvars, cfg.xdeg_max
    total = MultiPoly.zero(v, xd)
    for k in multi_indices(v, xd):
        ak = sum(a * ki for (a, _), ki in zip(cfg.pairs, k))
        bk = sum(b * ki for (_, b), ki in zip(cfg.pairs, k))
        ck = sum((c * ki for c, ki in zip(cfg.cs, k)), Fraction(0))
        kfact = math.prod(factorial(ki) for ki in k)
        head = MultiPoly(v, xd, {k + (ak, 0): Fraction(1, kfact)})
        total = total + head * expand_tz([ck - i for i in range(bk)], v, xd)
    return total


def brute_force_p_ts(cfg):
    """P'(t, s) = P(t, s - t), the brute-force P sheared term by term."""
    return MultiPoly(cfg.nvars, cfg.xdeg_max, mp_shear(brute_force_p(cfg).terms, -1))


def brute_force_q(cfg):
    """sum_k x^k/k! t prod_{i=1}^{sum(k)-1} (c.k + t - i), with 1 at k = 0."""
    v, xd = cfg.nvars, cfg.xdeg_max
    total = MultiPoly.one(v, xd)
    for k in multi_indices(v, xd):
        s = sum(k)
        if s == 0:
            continue
        ck = sum((c * ki for c, ki in zip(cfg.cs, k)), Fraction(0))
        kfact = math.prod(factorial(ki) for ki in k)
        head = MultiPoly(v, xd, {k + (1, 0): Fraction(1, kfact)})
        total = total + head * expand_tz([ck - i for i in range(1, s)], v, xd, with_z=False)
    return total


lemma_configs = st.integers(0, 3).flatmap(
    lambda v: st.builds(
        LemmaConfig,
        st.lists(st.sampled_from(ALLOWED_PAIRS), min_size=v, max_size=v).map(tuple),
        st.lists(st.fractions(-9, 9, max_denominator=9), min_size=v, max_size=v).map(tuple),
        st.integers(0, 4),
    )
)


@settings(max_examples=60, deadline=None)
@given(lemma_configs)
@example(LemmaConfig(((0, 1), (0, 1)), (Fraction(-7, 9), Fraction(5, 6)), 4))  # non-integer c
@example(LemmaConfig(((0, 1), (0, 0)), (Fraction(-3), Fraction(8, 9)), 3))  # negative c
@example(LemmaConfig(((1, 0), (0, 0)), (Fraction(4, 7), Fraction(-2, 3)), 4))  # b.k = 0
@example(LemmaConfig(((0, 1), (1, 0), (0, 0)), (Fraction(0),) * 3, 4))  # c = 0
def test_builders_match_brute_force_expansion(cfg):
    assert build_p(cfg).shear(1).terms == brute_force_p(cfg).terms
    assert build_q(cfg).terms == brute_force_q(cfg).terms


wide_lemma_configs = st.integers(0, 4).flatmap(
    lambda v: st.builds(
        LemmaConfig,
        st.lists(st.sampled_from(ALLOWED_PAIRS), min_size=v, max_size=v).map(tuple),
        st.lists(million, min_size=v, max_size=v).map(tuple),
        st.integers(0, 6),
    )
)


@settings(max_examples=40, deadline=None)
@given(wide_lemma_configs)
def test_build_p_is_p_in_t_and_s(cfg):
    # build_p returns P'(t, s) = P(t, s - t); its shear by 1 is P itself
    p, brute = build_p(cfg), brute_force_p(cfg).terms
    assert p.shear(1).terms == brute
    assert p.terms == mp_shear(brute, -1)


@settings(max_examples=40, deadline=None)
@given(wide_lemma_configs)
# The builders write every numerator over D = cden^B L (cden the common
# denominator of the c_i, B the most factors, L the lcm of the k!) and
# reduce by one gcd at the end:
# integer c_i, so cden = 1 and D = L = 5! must come out unreduced;
@example(LemmaConfig(((0, 1),) * 3, (Fraction(2), Fraction(-3), Fraction(5)), 5))
# c_i over one denominator, where the gcd is 12 for P and for Q;
@example(
    LemmaConfig(((0, 1), (0, 1), (1, 0)), (Fraction(1, 6), Fraction(5, 6), Fraction(-7, 6)), 6)
)
# no (0, 1) variable, so B = 0 and P is over L alone, while Q's gcd is 6.
@example(LemmaConfig(((1, 0), (0, 0)), (Fraction(1, 6), Fraction(5, 4)), 6))
def test_builders_hand_log_the_validated_integers(cfg):
    # The builders skip the validating constructor; the numerator blocks and
    # the common denominator they hand over, which log and exp read, must be
    # those the constructor makes from the same terms, and every field of
    # block n is at most n.
    for built, brute in ((build_p(cfg), brute_force_p_ts(cfg)), (build_q(cfg), brute_force_q(cfg))):
        want = MultiPoly(cfg.nvars, cfg.xdeg_max, brute.terms)
        assert (built._blocks, built._den) == (want._blocks, want._den)
        assert in_lowest_common_form(built)
        assert fields_within(built, lambda n: n)
    p = build_p(cfg)
    validated = MultiPoly(cfg.nvars, cfg.xdeg_max, p.terms)
    assert p.log() == validated.log()


def _built(cfg):
    return build_p(cfg), build_q(cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        LemmaConfig(((0, 1), (1, 0), (0, 0)), (Fraction(-7, 9), Fraction(5, 6), Fraction(2)), 4),
        LemmaConfig(((0, 1),), (Fraction(3, 4),), 9),
        LemmaConfig((), (), 10**9),
    ],
)
def test_builders_do_not_depend_on_the_shape_cache(cfg):
    # The per-shape table is built on a shape's first trial and shared by
    # the rest; what the builders hand over must be the same whether the
    # table is new, was evicted by another shape or is reused, and must be
    # what the validating constructor makes, with every field at most the
    # x-degree.  Without variables the table has one multi-index and
    # its binomial rows stop at 0, so even --xdeg 10^9 returns at once.
    other = LemmaConfig(((1, 0), (0, 1)), (Fraction(1, 2), Fraction(-3)), 3)
    start = time.perf_counter()
    fresh = _built(cfg)
    assert time.perf_counter() - start < 1
    _built(other)
    after_other = _built(cfg)
    reused = _built(cfg)
    assert after_other == fresh and reused == fresh
    for built, brute in zip(fresh, (brute_force_p_ts, brute_force_q)):
        terms = brute(cfg).terms if cfg.nvars else {(0, 0): 1}
        want = MultiPoly(cfg.nvars, cfg.xdeg_max, terms)
        assert (built._blocks, built._den) == (want._blocks, want._den)
        assert fields_within(built, lambda n: n)


def test_deep_one_variable_log_and_exp_match_power_sums():
    # One (0, 1) variable at x-degree 20: P and Q have denominators D of
    # about 125 bits here, so running sums kept over D^n would reach about
    # 2,500.  Q's log is checked against the power sums directly; P's
    # log is dense and its power sums take over a minute, so exp is checked
    # against them on ln P and then shown to invert log on P.
    cfg = LemmaConfig(((0, 1),), (Fraction(-7, 9),), 20)
    q = build_q(cfg)
    ln_q = q.log()
    assert ln_q.terms == mp_log_by_powers(q.terms, 1, 20)
    assert ln_q.exp() == q
    p = build_p(cfg).shear(1)
    ln_p = p.log()
    exp_ln_p = ln_p.exp()
    assert exp_ln_p.terms == mp_exp_by_powers(ln_p.terms, 1, 20)
    assert exp_ln_p == p


# -- build_p -----------------------------------------------------------------


def test_build_p_pure_t_variable():
    # (a,b) = (1,0): c is inert and P = exp(x t)
    cfg = LemmaConfig(((1, 0),), (Fraction(5, 7),), 3)
    x = MultiPoly.x(0, 1, 3)
    t = MultiPoly.t(1, 3)
    expected = (
        1
        + x * t
        + x * x * t * t * Fraction(1, 2)
        + x * x * x * t * t * t * Fraction(1, 6)
    )
    assert build_p(cfg).shear(1) == expected


def test_build_p_binomial_variable_c0():
    cfg = LemmaConfig(((0, 1),), (Fraction(0),), 2)
    x = MultiPoly.x(0, 1, 2)
    one = MultiPoly.one(1, 2)
    expected = (
        one
        + x * expand_tz([0], 1, 2)
        + x * x * expand_tz([0, -1], 1, 2) * Fraction(1, 2)
    )
    assert build_p(cfg).shear(1) == expected


def test_build_p_binomial_variable_c2():
    # hand-expanded oracle: 1 + x(2+z+t) + x^2 (4+z+t)(3+z+t)/2
    cfg = LemmaConfig(((0, 1),), (Fraction(2),), 2)
    x = MultiPoly.x(0, 1, 2)
    expected = (
        MultiPoly.one(1, 2)
        + x * expand_tz([2], 1, 2)
        + x * x * expand_tz([4, 3], 1, 2) * Fraction(1, 2)
    )
    assert build_p(cfg).shear(1) == expected


def test_build_p_term_degrees_bounded_by_x_degree():
    rng = random.Random(3)
    for _ in range(20):
        cfg = sample_config(rng, rng.randint(0, 4), rng.randint(1, 5))
        p = build_p(cfg)
        for key in [*p.terms, *p.shear(1).terms]:
            assert key[-2] + key[-1] <= sum(key[:-2])


# -- build_q -----------------------------------------------------------------


def test_build_q_c0_is_binomial_series():
    cfg = LemmaConfig(((0, 1),), (Fraction(0),), 3)
    x = MultiPoly.x(0, 1, 3)
    t = MultiPoly.t(1, 3)
    expected = (
        1
        + x * t
        + x * x * t * (t - 1) * Fraction(1, 2)
        + x * x * x * t * (t - 1) * (t - 2) * Fraction(1, 6)
    )
    assert build_q(cfg) == expected


def test_build_q_constant_term_is_one():
    rng = random.Random(9)
    for _ in range(10):
        cfg = sample_config(rng, rng.randint(0, 3), rng.randint(1, 4))
        q = build_q(cfg)
        assert q.terms.get((0,) * (cfg.nvars + 2), 0) == 1


def test_build_q_c1_degree_two():
    # 1 + x t + x^2 t(t+1)/2
    cfg = LemmaConfig(((0, 0),), (Fraction(1),), 2)
    x = MultiPoly.x(0, 1, 2)
    t = MultiPoly.t(1, 2)
    expected = 1 + x * t + x * x * t * (t + 1) * Fraction(1, 2)
    assert build_q(cfg) == expected


def test_build_q_term_degrees_bounded_by_x_degree():
    rng = random.Random(4)
    for _ in range(20):
        cfg = sample_config(rng, rng.randint(0, 4), rng.randint(1, 5))
        for key in build_q(cfg).terms:
            assert key[-2] + key[-1] <= sum(key[:-2])


# -- identity checks ------------------------------------------------------------


def test_a1_hand_checked_instance():
    cfg = LemmaConfig(((0, 1),), (Fraction(2),), 2)
    ln_p = build_p(cfg).shear(1).log()
    # x^2 coefficient of ln P is [(4+z+t)(3+z+t) - (2+z+t)^2]/2 = (3(z+t)+8)/2
    assert ln_p.terms.get((2, 0, 0), 0) == 4
    assert ln_p.terms.get((2, 1, 0), 0) == Fraction(3, 2)
    assert ln_p.terms.get((2, 0, 1), 0) == Fraction(3, 2)
    assert ln_p.terms.get((2, 2, 0), 0) == 0
    assert check_a1(build_p(cfg)) is None


def test_a1_trivial_when_no_binomial_variables():
    cfg = LemmaConfig(((1, 0), (0, 0)), (Fraction(3), Fraction(-1, 2)), 4)
    assert check_a1(build_p(cfg)) is None


def test_a1_sampled_configurations():
    rng = random.Random(7)
    for _ in range(20):
        cfg = sample_config(rng, rng.randint(0, 4), rng.randint(1, 5))
        finding = check_a1(build_p(cfg))
        assert finding is None, f"{cfg!r}: {finding}"


def test_a2_closed_form_instance():
    cfg = LemmaConfig(((0, 0),), (Fraction(0),), 3)
    ln_q = build_q(cfg).log()
    x = MultiPoly.x(0, 1, 3)
    t = MultiPoly.t(1, 3)
    assert ln_q == t * (x + 1).log()
    assert check_a2(build_q(cfg)) is None


def test_a2_hand_checked_instance():
    cfg = LemmaConfig(((0, 0),), (Fraction(1),), 2)
    ln_q = build_q(cfg).log()
    # x^2 coefficient is t(t+1)/2 - t^2/2 = t/2
    assert ln_q.terms.get((2, 1, 0), 0) == Fraction(1, 2)
    assert ln_q.terms.get((2, 2, 0), 0) == 0
    assert check_a2(build_q(cfg)) is None


def test_a2_sampled_configurations():
    rng = random.Random(7)
    for _ in range(20):
        cfg = sample_config(rng, rng.randint(0, 4), rng.randint(1, 5))
        finding = check_a2(build_q(cfg))
        assert finding is None, f"{cfg!r}: {finding}"


# -- closed forms at c = 0 ----------------------------------------------------------


def zero_c_config(pairs, xdeg):
    return LemmaConfig(tuple(pairs), (Fraction(0),) * len(pairs), xdeg)


def closed_forms(cfg, p=None):
    """check_closed_forms on cfg's own series, or on p in place of P."""
    return check_closed_forms(cfg, build_p(cfg) if p is None else p, build_q(cfg))


def test_closed_form_single_exponential_variable():
    assert closed_forms(zero_c_config([(1, 0)], 4)) is None


def test_closed_form_single_binomial_variable():
    cfg = zero_c_config([(0, 1)], 4)
    assert closed_forms(cfg) is None
    # cross-check the binomial series from first principles:
    # (1+x)^{z+t} = sum_s C(z+t, s) x^s
    p = build_p(cfg).shear(1)
    s = MultiPoly.t(1, 4) + MultiPoly.z(1, 4)
    binom3 = s * (s - 1) * (s - 2) * Fraction(1, factorial(3))
    got_x3 = {k[1:]: c for k, c in p.terms.items() if k[0] == 3}
    assert got_x3 == {k[1:]: c for k, c in binom3.terms.items()}



@pytest.mark.parametrize(
    "pairs,xdeg", [(((0, 1),), 6), (((0, 1), (1, 0)), 4), (((0, 0), (0, 1), (0, 1)), 3)]
)
def test_closed_form_p_matches_its_product_in_t_and_z(pairs, xdeg):
    # The expected P is formed in s = t + z; sheared back to (t, z), it
    # must be the product formed there, through z + t
    v = len(pairs)
    t, z = MultiPoly.t(v, xdeg), MultiPoly.z(v, xdeg)
    exp_arg = binom = MultiPoly.zero(v, xdeg)
    for i, (a, b) in enumerate(pairs):
        xi = MultiPoly.x(i, v, xdeg)
        if b:
            binom = binom + xi
        else:
            exp_arg = exp_arg + (xi * t if a else xi)
    want = exp_arg.exp() * ((z + t) * (binom + 1).log()).exp()
    memo = loglinear._closed_forms(pairs, xdeg)
    assert memo[0].shear(1).terms == want.terms
    assert all(in_lowest_common_form(e) for e in memo)

def test_closed_form_empty_variable_set():
    cfg = zero_c_config([], 3)
    assert closed_forms(cfg) is None
    assert build_p(cfg) == MultiPoly.one(0, 3)
    assert build_q(cfg) == MultiPoly.one(0, 3)


def test_closed_forms_survive_a_failing_check():
    # The expected P and Q are built once per (pairs, xdeg) and shared by
    # every trial: a check that fails on a tampered P must leave them as
    # they were, so the honest P still passes.
    cfg = zero_c_config([(0, 1), (1, 0)], 3)
    p = build_p(cfg)
    memo = loglinear._closed_forms(cfg.pairs, cfg.xdeg_max)
    before = [({d: dict(b) for d, b in e._blocks.items()}, e._den) for e in memo]
    tampered = (p.shear(1) + MultiPoly(2, 3, {(1, 0, 2, 0): Fraction(1, 3)})).shear(-1)
    assert closed_forms(cfg, tampered) == "P mismatch at 1/3 * x1*t^2"
    assert closed_forms(cfg, p) is None
    assert loglinear._closed_forms(cfg.pairs, cfg.xdeg_max) is memo
    assert [(e._blocks, e._den) for e in memo] == before


@pytest.mark.parametrize(
    "seed, pairs, bad, line",
    [
        (
            580,
            ((0, 1), (0, 1)),
            {(1, 1, 0, 2): Fraction(-2, 5), (0, 2, 1, 1): Fraction(3, 7)},
            "trial=1 seed=580 xdeg=3 pairs=(0,1),(0,1) c=0,0 closed-form FAIL"
            " P mismatch at 3/7 * x2^2*t*z",
        ),
        (
            17,
            ((0, 1), (1, 0)),
            {(1, 1, 0, 3): Fraction(-2, 5), (1, 1, 1, 1): Fraction(1, 2)},
            "trial=1 seed=17 xdeg=3 pairs=(0,1),(1,0) c=0,0 closed-form FAIL"
            " P mismatch at -2/5 * x1*x2*z^3",
        ),
    ],
)
def test_closed_form_mismatch_line_keeps_its_bytes(seed, pairs, bad, line):
    # P is compared in (t, s) and the mismatch named in (t, z); the
    # mismatches were taken from a comparison in (t, z).  Trial 1 of
    # `lemma --vars 2 --xdeg 3 --seed <seed>` draws the configuration.
    cfg = sample_config(random.Random(seed), 2, 3)
    assert cfg == zero_c_config(pairs, 3)
    tampered = (build_p(cfg).shear(1) + MultiPoly(2, 3, bad)).shear(-1)
    assert _trial_line(1, seed, cfg, "closed-form", closed_forms(cfg, tampered)) == line


def test_closed_form_requires_zero_c():
    cfg = LemmaConfig(((0, 1),), (Fraction(1),), 2)
    with pytest.raises(ValueError, match="c_i = 0"):
        closed_forms(cfg)


def test_mixed_variables_factor():
    # P splits as (pure a-part) * (pure b-part) when c = 0
    pairs = ((1, 0), (0, 1), (0, 0), (0, 1))
    cfg = zero_c_config(pairs, 4)
    assert closed_forms(cfg) is None
    p = build_p(cfg)
    part_a = build_p(zero_c_config([(1, 0), (0, 0)], 4))
    part_b = build_p(zero_c_config([(0, 1), (0, 1)], 4))
    lifted_a = MultiPoly(4, 4, {(k[0], 0, k[1], 0, k[2], k[3]): c for k, c in part_a.terms.items()})
    lifted_b = MultiPoly(4, 4, {(0, k[0], 0, k[1], k[2], k[3]): c for k, c in part_b.terms.items()})
    assert p == lifted_a * lifted_b


# -- records ---------------------------------------------------------------------


def test_lemma_config_is_a_record():
    pairs, cs = ((0, 1),), (Fraction(3, 4),)
    cfg = LemmaConfig(pairs, cs, 9)
    check_record(cfg, pairs=pairs, cs=cs, xdeg_max=9)
    # hypothesis prints this form in its failure reports
    assert repr(cfg) == "LemmaConfig(pairs=((0, 1),), cs=(Fraction(3, 4),), xdeg_max=9)"
    assert cfg != LemmaConfig(pairs, cs, 8)
    check_record(LemmaConfig((), (), 0), pairs=(), cs=(), xdeg_max=0)


def test_lemma_config_normalises_its_fields():
    cfg = LemmaConfig([[1, 0], (0, 0)], [2, Fraction(1, 2)], 3)
    assert type(cfg.pairs) is tuple and all(type(p) is tuple for p in cfg.pairs)
    assert type(cfg.cs) is tuple and all(type(c) is Fraction for c in cfg.cs)
    assert cfg == LemmaConfig(((1, 0), (0, 0)), (Fraction(2), Fraction(1, 2)), 3)
    assert hash(cfg) == hash((((1, 0), (0, 0)), (Fraction(2), Fraction(1, 2)), 3))


def test_lemma_config_validation_messages():
    with pytest.raises(TypeError, match="^exact rational expected, got float$"):
        LemmaConfig(((0, 1),), (0.5,), 3)
    with pytest.raises(ValueError, match="^need one c_i per variable$"):
        LemmaConfig(((0, 1),), (), 3)
    with pytest.raises(ValueError, match=f"^{re.escape(f'(a_i, b_i) = (1, 1) not in {ALLOWED_PAIRS}')}$"):
        LemmaConfig(((1, 1),), (Fraction(1),), 3)
    with pytest.raises(ValueError, match="^xdeg_max must be non-negative$"):
        LemmaConfig((), (), -1)


# -- trial lines -----------------------------------------------------------------


def test_report_line_format():
    # The checks return their finding, None on a pass; cli writes the line.
    cfg = LemmaConfig(((1, 0),), (Fraction(2, 3),), 3)
    line = _trial_line(2, 5, cfg, "a1", check_a1(build_p(cfg)))
    assert line == "trial=2 seed=5 xdeg=3 pairs=(1,0) c=2/3 a1 PASS"


def test_a1_fails_on_a_non_affine_term():
    # an x1^2 t^2 term in P puts 2/3 x1^2 into d2/dt2 ln P; a log that
    # assumed the affine shape of ln P would hide it
    cfg = LemmaConfig(((0, 1),), (Fraction(2),), 2)
    bad = MultiPoly(1, 2, {(2, 2, 0): Fraction(1, 3)})
    finding = check_a1((build_p(cfg).shear(1) + bad).shear(-1))
    assert finding == "d2t(lnP) = 2/3 * x1^2"
    assert _trial_line(1, 0, cfg, "a1", finding).endswith("a1 FAIL d2t(lnP) = 2/3 * x1^2")


@pytest.mark.parametrize(
    "tz, offending",
    [
        # x1 z (t + z) is x1 (s^2 - t s) in (t, s = t + z): no t exponent passes 1
        (((1, 1), (0, 2)), "d2z(lnP) = 2 * x1"),
        # x1 t (t + z) is x1 t s: no exponent passes 1, their sum does
        (((2, 0), (1, 1)), "d2t(lnP) = 2 * x1"),
    ],
)
def test_a1_fails_on_a_term_of_degree_two_in_t_and_s_together(tz, offending):
    # Trial 1 of `lemma a1 --vars 1 --xdeg 1 --seed 211` draws the configuration.
    cfg = sample_config(random.Random(211), 1, 1)
    assert cfg == LemmaConfig(((0, 1),), (Fraction(1, 2),), 1)
    p = _p_tz(cfg) + MultiPoly(1, 1, {(1, *e): 1 for e in tz})
    line = _trial_line(1, 211, cfg, "a1", _check_a1_tz(p))
    assert line == f"trial=1 seed=211 xdeg=1 pairs=(0,1) c=1/2 a1 FAIL {offending}"


# (t, z) exponents of the term added to P in the tampered trials below: t^2,
# z^2 and t z each break one residual, t^3 z several.
_TAMPER_TZ = ((2, 0), (0, 2), (1, 1), (3, 1))
# and to Q: t^0, t^2 and t^3 break (t d/dt - 1) at once, t z only through
# its products with Q's terms.
_TAMPER_A2_TZ = ((0, 0), (2, 0), (3, 0), (1, 1))


def _tampered_lines(name, check, build, tamper, nvars, xdeg, count):
    """The trial lines of check, named name, on count sampled series of the
    shape, each built and one term added, of random x-part, coefficient and
    x-degree and of (t, z) exponents from tamper in turn."""
    lines = []
    for i in range(count):
        seed = 100 * nvars + 10 * xdeg + i
        rng = random.Random(seed)
        cfg = sample_config(rng, nvars, xdeg)
        x = [0] * nvars
        for _ in range(rng.randint(1, xdeg)):
            x[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        bad = MultiPoly(nvars, xdeg, {(*x, *tamper[i % len(tamper)]): coeff})
        lines.append(_trial_line(i + 1, seed, cfg, name, check(build(cfg) + bad)))
    return lines


def _p_tz(cfg):
    """P(t, z), the shear of build_p's P(t, s - t)."""
    return build_p(cfg).shear(1)


def _check_a1_tz(p):
    """check_a1 on a P given in (t, z)."""
    return check_a1(p.shear(-1))


def _tampered_a1_lines(nvars, xdeg, count):
    return _tampered_lines("a1", _check_a1_tz, _p_tz, _TAMPER_TZ, nvars, xdeg, count)


def _tampered_a2_lines(nvars, xdeg, count):
    return _tampered_lines("a2", check_a2, build_q, _TAMPER_A2_TZ, nvars, xdeg, count)


def test_a1_fail_lines_of_tampered_p_keep_their_bytes():
    # check_a1 takes the log in other coordinates than P's own; a P it did
    # not build must come back to (t, z) with the same residuals, so every
    # FAIL line keeps its bytes.  The lines were taken from the (t, z) log.
    assert _tampered_a1_lines(1, 2, 4) + _tampered_a1_lines(2, 5, 4) + _tampered_a1_lines(
        3, 3, 4
    ) == [
        "trial=1 seed=120 xdeg=2 pairs=(0,1) c=-1/2 a1 FAIL d2t(lnP) = -8/5 * x1^2",
        "trial=2 seed=121 xdeg=2 pairs=(0,0) c=-3/7 a1 FAIL d2z(lnP) = 10/3 * x1",
        "trial=3 seed=122 xdeg=2 pairs=(0,1) c=-3/5 a1 FAIL d2t(lnP) = 16/3 * x1^2*z",
        "trial=4 seed=123 xdeg=2 pairs=(0,0) c=-1/2 a1 FAIL d2t(lnP) = -14/3 * x1^2*t*z",
        "trial=1 seed=250 xdeg=5 pairs=(1,0),(1,0) c=-4/9,-7 a1 FAIL d2t(lnP) = 16/9 * x1^2*x2^3",
        "trial=2 seed=251 xdeg=5 pairs=(1,0),(0,1) c=3/8,-2/7 a1 FAIL d2z(lnP) = 8/9 * x1^2*x2^2",
        "trial=3 seed=252 xdeg=5 pairs=(0,1),(0,0) c=0,-5/4 a1 FAIL d2t(lnP) = -1 * x1*x2^3*z",
        "trial=4 seed=253 xdeg=5 pairs=(0,1),(0,1) c=3/7,-5/4 a1 FAIL d2t(lnP) = -18/5 * x2*t*z",
        "trial=1 seed=330 xdeg=3 pairs=(0,1),(0,0),(0,0) c=1/3,-3/2,7/6 a1 FAIL"
        " d2t(lnP) = -3 * x1*x3^2",
        "trial=2 seed=331 xdeg=3 pairs=(0,1),(1,0),(0,0) c=-1,3/4,1/7 a1 FAIL"
        " d2z(lnP) = 2/7 * x2*x3^2",
        "trial=3 seed=332 xdeg=3 pairs=(0,0),(0,1),(0,1) c=9/7,9/7,-4 a1 FAIL"
        " d2t(lnP) = 1 * x3^2*z",
        "trial=4 seed=333 xdeg=3 pairs=(0,1),(1,0),(1,0) c=-3/7,-7/5,8/9 a1 FAIL"
        " d2t(lnP) = -4 * x2^2*t*z",
    ]
    # 20 a shape, every one a FAIL, pinned by the sha256 of their lines
    lines = [line for shape in ((1, 2), (2, 5), (3, 3)) for line in _tampered_a1_lines(*shape, 20)]
    assert all(" a1 FAIL d" in line for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0677631677ede3b76a836c1131f1c853dbf3d6828bba169c931cf38489981f7c"


def test_a2_fail_lines_of_tampered_q_keep_their_bytes():
    # check_a2 passes ln Q by its keys and forms the residual only on a
    # failure; every line must keep its bytes, PASS where the tamper term
    # has no room for a product that breaks linearity in t.  The lines were
    # taken from the residual (t d/dt - 1) ln Q formed on every trial.
    assert _tampered_a2_lines(1, 2, 4) + _tampered_a2_lines(2, 5, 4) + _tampered_a2_lines(
        3, 3, 4
    ) == [
        "trial=1 seed=120 xdeg=2 pairs=(0,1) c=-1/2 a2 FAIL (t*dt-1)lnQ = 4/5 * x1^2",
        "trial=2 seed=121 xdeg=2 pairs=(0,0) c=-3/7 a2 FAIL (t*dt-1)lnQ = 5/3 * x1*t^2",
        "trial=3 seed=122 xdeg=2 pairs=(0,1) c=-3/5 a2 FAIL (t*dt-1)lnQ = -16/3 * x1*t^3",
        "trial=4 seed=123 xdeg=2 pairs=(0,0) c=-1/2 a2 PASS",
        "trial=1 seed=250 xdeg=5 pairs=(1,0),(1,0) c=-4/9,-7 a2 FAIL"
        " (t*dt-1)lnQ = -8/9 * x1^2*x2^3",
        "trial=2 seed=251 xdeg=5 pairs=(1,0),(0,1) c=3/8,-2/7 a2 FAIL"
        " (t*dt-1)lnQ = 4/9 * x1^2*x2^2*t^2",
        "trial=3 seed=252 xdeg=5 pairs=(0,1),(0,0) c=0,-5/4 a2 FAIL (t*dt-1)lnQ = 1 * x2^3*t^3",
        "trial=4 seed=253 xdeg=5 pairs=(0,1),(0,1) c=3/7,-5/4 a2 FAIL"
        " (t*dt-1)lnQ = 3/5 * x2^2*t^2*z",
        "trial=1 seed=330 xdeg=3 pairs=(0,1),(0,0),(0,0) c=1/3,-3/2,7/6 a2 FAIL"
        " (t*dt-1)lnQ = 3/2 * x1*x3^2",
        "trial=2 seed=331 xdeg=3 pairs=(0,1),(1,0),(0,0) c=-1,3/4,1/7 a2 FAIL"
        " (t*dt-1)lnQ = 1/7 * x2*x3^2*t^2",
        "trial=3 seed=332 xdeg=3 pairs=(0,0),(0,1),(0,1) c=9/7,9/7,-4 a2 FAIL"
        " (t*dt-1)lnQ = -1 * x3*t^3",
        "trial=4 seed=333 xdeg=3 pairs=(0,1),(1,0),(1,0) c=-3/7,-7/5,8/9 a2 FAIL"
        " (t*dt-1)lnQ = 2/3 * x2^2*x3*t^2*z",
    ]
    # 20 a shape, 4 of them PASS, pinned by the sha256 of their lines
    lines = [line for shape in ((1, 2), (2, 5), (3, 3)) for line in _tampered_a2_lines(*shape, 20)]
    assert sum(line.endswith(" a2 PASS") for line in lines) == 4
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "948dba1fc558762c4aa12b63c72f8b34daa2c214880d8ca2e95356f41a096927"


@st.composite
def tampered(draw, build):
    """(cfg, build(cfg) plus 0-2 random terms of positive x-degree and t, z
    exponents up to 3), on shapes small enough for the power-sum log."""
    nvars, xdeg = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cfg = LemmaConfig(
        draw(st.lists(st.sampled_from(ALLOWED_PAIRS), min_size=nvars, max_size=nvars)),
        draw(st.lists(st.fractions(-9, 9, max_denominator=9), min_size=nvars, max_size=nvars)),
        xdeg,
    )
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        x = [0] * nvars
        for _ in range(draw(st.integers(1, xdeg))):
            x[draw(st.integers(0, nvars - 1))] += 1
        tz = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        terms[(*x, *tz)] = draw(st.fractions(-9, 9, max_denominator=9).filter(bool))
    return cfg, build(cfg) + MultiPoly(nvars, xdeg, terms)


@settings(max_examples=40, deadline=None)
@given(tampered(_p_tz))
def test_a1_passes_exactly_when_the_second_derivatives_vanish(case):
    # check_a1 may decide on the keys of the log in (t, s); the decision
    # must be that of the three (t, z) second derivatives of ln P
    cfg, p = case
    v = cfg.nvars
    ln_p = mp_log_by_powers(p.terms, v, cfg.xdeg_max)
    d_t, d_z = mp_partial(ln_p, v), mp_partial(ln_p, v + 1)
    affine = not (mp_partial(d_t, v) or mp_partial(d_z, v + 1) or mp_partial(d_t, v + 1))
    assert (_check_a1_tz(p) is None) == affine


@settings(max_examples=40, deadline=None)
@given(tampered(build_q))
def test_a2_passes_exactly_when_the_residual_vanishes(case):
    cfg, q = case
    v, xd = cfg.nvars, cfg.xdeg_max
    ln_q = mp_log_by_powers(q.terms, v, xd)
    t = {(0,) * v + (1, 0): Fraction(1)}
    residual = mp_add(mp_mul(t, mp_partial(ln_q, v), xd), ln_q, Fraction(-1))
    assert (check_a2(q) is None) == (not residual)


def test_failing_report_names_offending_term():
    # feed check_a2 a configuration-shaped lie: Q built with a tampered term
    cfg = LemmaConfig(((0, 0),), (Fraction(0),), 2)
    q = build_q(cfg)
    bad = q + MultiPoly(1, 2, {(2, 2, 0): Fraction(1, 3)})
    t = MultiPoly.t(1, 2)
    residual = t * bad.log().partial("t") - bad.log()
    assert not residual.is_zero
    assert "x1" in residual.leading_term_str()


# -- multi-indices -------------------------------------------------------------------


def _shape_indices(nvars, xdeg):
    """The multi-indices of the shape table's rows, unpacked from their keys."""
    rows, _ = loglinear._shape(nvars, xdeg)
    return [_unpack(xkey, nvars + 2)[:nvars] for _, xkey, *_ in rows]


def test_shape_rows_follow_the_recursive_order():
    for nvars in range(6):
        for total in range(7):
            assert _shape_indices(nvars, total) == list(multi_indices_recursive(nvars, total))


@pytest.mark.parametrize("nvars, xdeg", [(0, 10**9), (1, 37), (2, 15), (3, 4), (64, 1)])
def test_shape_rows_step_from_their_parents(nvars, xdeg):
    # Every row is one step from an earlier row, its parent k - e_j with j
    # the last nonzero entry of k, so a trial fills each k's a.k, b.k and
    # c.k by one addition; L // k! must be exact.  Without variables the
    # table has one row, and even --xdeg 10^9 returns at once.
    start = time.perf_counter()
    rows, big_l = loglinear._shape(nvars, xdeg)
    assert time.perf_counter() - start < 1
    ks = _shape_indices(nvars, xdeg)
    assert ks == list(multi_indices_recursive(nvars, xdeg))
    assert big_l == math.lcm(*(math.prod(map(factorial, k)) for k in ks))
    for r, ((s, _, lk, parent, j), k) in enumerate(zip(rows, ks)):
        kfact = math.prod(map(factorial, k))
        assert s == sum(k) and lk == big_l // kfact and lk * kfact == big_l
        if r == 0:
            assert not any(k) and parent is None and j is None
            continue
        assert j == max(i for i, e in enumerate(k) if e)
        assert parent < r and ks[parent] == k[:j] + (k[j] - 1,) + k[j + 1 :]


def test_each_series_looks_up_its_shape_once(monkeypatch):
    # build_p and build_q hand _write the table they fetched.
    calls = []
    shape = loglinear._shape
    monkeypatch.setattr(loglinear, "_shape", lambda *key: calls.append(key) or shape(*key))
    cfg = LemmaConfig(((1, 0), (0, 1)), (Fraction(1, 2), Fraction(-3)), 3)
    for build in (build_p, build_q):
        calls.clear()
        build(cfg)
        assert calls == [(2, 3)]


def test_build_p_at_a_thousand_variables():
    # A generator recursion one level per variable passes the default
    # recursion limit of 1,000 frames here.
    nvars = 1000
    cfg = sample_config(random.Random(1), nvars, 1)
    p = build_p(cfg)
    # At x-degree 1 each variable contributes its own one-variable series.
    expected = {(0,) * (nvars + 2): Fraction(1)}
    for i, (pair, c) in enumerate(zip(cfg.pairs, cfg.cs)):
        for (ki, te, ze), coeff in build_p(LemmaConfig((pair,), (c,), 1)).terms.items():
            if ki:
                expected[(0,) * i + (ki,) + (0,) * (nvars - 1 - i) + (te, ze)] = coeff
    assert p.terms == expected
