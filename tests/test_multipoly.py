import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwmirror import LemmaConfig, MultiPoly
from gwmirror.multipoly import EXP_MAX, FIELD_BITS

from oracles import mp_add, mp_exp_by_powers, mp_log_by_powers, mp_mul, mp_partial, mp_shear
from strategies import million, wide_fractions as wide


def test_truncation_drops_high_x_degree():
    x = MultiPoly.x(0, 1, 2)
    assert (x * x * x).is_zero
    assert not (x * x).is_zero


def test_t_z_exponents_are_not_truncated():
    t = MultiPoly.t(1, 2)
    p = t * t * t * t
    assert p.terms.get((0, 4, 0), 0) == 1


def test_partial_t():
    x = MultiPoly.x(0, 1, 3)
    t = MultiPoly.t(1, 3)
    assert (x * t * t).partial("t") == 2 * (x * t)


def test_partial_z_of_z_free():
    x = MultiPoly.x(0, 1, 3)
    t = MultiPoly.t(1, 3)
    assert (x * t + x * x).partial("z").is_zero


def test_partial_x():
    x = MultiPoly.x(0, 1, 3)
    assert (x * x * x).partial(0) == 3 * (x * x)


def test_log_of_one_plus_x():
    x = MultiPoly.x(0, 1, 3)
    expected = x - x * x * Fraction(1, 2) + x * x * x * Fraction(1, 3)
    assert (x + 1).log() == expected


def test_log_requires_unit_constant():
    x = MultiPoly.x(0, 1, 3)
    with pytest.raises(ValueError, match="constant term"):
        (x + 2).log()
    with pytest.raises(ValueError, match="constant term"):
        (x + 1 + MultiPoly.t(1, 3)).log()


def test_exp_log_round_trip():
    x = MultiPoly.x(0, 2, 4)
    y = MultiPoly.x(1, 2, 4)
    t = MultiPoly.t(2, 4)
    p = x * t - y * y * Fraction(3, 7) + x * y
    assert p.exp().log() == p


def _random_poly(rng: random.Random, nvars: int, xdeg: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 8)):
        key = [0] * (nvars + 2)
        budget = rng.randint(1, xdeg)
        for _ in range(budget):
            key[rng.randrange(nvars)] += 1
        key[-2] = rng.randint(0, 2)
        key[-1] = rng.randint(0, 2)
        terms[tuple(key)] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return MultiPoly(nvars, xdeg, terms)


def test_log_respects_products():
    rng = random.Random(5)
    for _ in range(40):
        nvars, xdeg = rng.randint(1, 3), rng.randint(2, 4)
        p = _random_poly(rng, nvars, xdeg) + 1
        q = _random_poly(rng, nvars, xdeg) + 1
        assert (p * q).log() == p.log() + q.log()


def test_leibniz_rule_t_and_z():
    # t and z derivatives never change the x-degree, so Leibniz is exact
    # even across the truncation boundary
    rng = random.Random(11)
    for _ in range(40):
        nvars, xdeg = rng.randint(1, 3), rng.randint(2, 4)
        p = _random_poly(rng, nvars, xdeg)
        q = _random_poly(rng, nvars, xdeg)
        for var in ("t", "z"):
            got = (p * q).partial(var)
            assert got == p.partial(var) * q + p * q.partial(var)


def test_leibniz_rule_x_below_truncation():
    # x derivatives obey Leibniz as long as the product stays inside the bound
    rng = random.Random(12)
    for _ in range(40):
        nvars, xdeg = rng.randint(1, 3), 6
        p = _random_poly(rng, nvars, 3)
        q = _random_poly(rng, nvars, 3)
        p = MultiPoly(nvars, xdeg, p.terms)
        q = MultiPoly(nvars, xdeg, q.terms)
        got = (p * q).partial(0)
        assert got == p.partial(0) * q + p * q.partial(0)


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError, match="different"):
        MultiPoly.one(1, 3) * MultiPoly.one(2, 3)


def test_term_rendering():
    x = MultiPoly.x(0, 2, 4)
    y = MultiPoly.x(1, 2, 4)
    t = MultiPoly.t(2, 4)
    z = MultiPoly.z(2, 4)
    p = x * x * y * t * t * z * Fraction(-3, 2)
    assert p.leading_term_str() == "-3/2 * x1^2*x2*t^2*z"


# -- log and exp against the power sums they replaced ----------------------------


@st.composite
def positive_degree_terms(draw):
    """(nvars, xdeg_max, terms) with every term of x-degree 1..xdeg_max."""
    nvars = draw(st.integers(0, 3))
    xdeg = draw(st.integers(0, 6))
    terms = {}
    if nvars and xdeg:
        for _ in range(draw(st.integers(0, 5))):
            degree = draw(st.integers(1, xdeg))
            x = [0] * nvars
            for _ in range(degree):
                x[draw(st.integers(0, nvars - 1))] += 1
            key = tuple(x) + (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            terms[key] = draw(st.fractions(-4, 4, max_denominator=6))
    return nvars, xdeg, {k: c for k, c in terms.items() if c != 0}


@settings(max_examples=120, deadline=None)
@given(positive_degree_terms())
def test_log_exp_match_power_sums(case):
    nvars, xdeg, g = case
    one = (0,) * (nvars + 2)
    assert MultiPoly(nvars, xdeg, g).exp().terms == mp_exp_by_powers(g, nvars, xdeg)
    p = {**g, one: Fraction(1)}
    assert MultiPoly(nvars, xdeg, p).log().terms == mp_log_by_powers(p, nvars, xdeg)


def test_log_exp_error_messages():
    t = MultiPoly.t(1, 3)
    for bad in (MultiPoly.x(0, 1, 3) + 2, t + 1, MultiPoly.zero(1, 3)):
        with pytest.raises(ValueError, match=r"^log requires constant term exactly 1$"):
            bad.log()
    for bad in (t, MultiPoly.one(1, 3), MultiPoly.x(0, 1, 3) + t):
        with pytest.raises(
            ValueError, match=r"^exp requires every term to have positive x-degree$"
        ):
            bad.exp()


def exponents(top):
    """Small exponents, or exponents up to top, so that a sum of
    EXP_MAX // top of them lands next to the limit of a field."""
    return st.integers(0, 2) | st.integers(top - 2, top)


def poly_terms(nvars):
    key = st.tuples(*(exponents(EXP_MAX // 2),) * (nvars + 2))
    return st.dictionaries(key, wide, max_size=8)


@settings(max_examples=100, deadline=None)
@given(
    # at x-degree EXP_MAX no x exponent that fits in a field is truncated
    st.tuples(st.integers(0, 3), st.integers(0, 4) | st.just(EXP_MAX)).flatmap(
        lambda shape: st.tuples(st.just(shape), poly_terms(shape[0]), poly_terms(shape[0]))
    )
)
def test_mul_matches_fraction_oracle(data):
    (nvars, xdeg), a, b = data
    pa, pb = MultiPoly(nvars, xdeg, a), MultiPoly(nvars, xdeg, b)
    got = pa * pb
    assert got.terms == mp_mul(pa.terms, pb.terms, xdeg)
    assert all(type(c) is Fraction for c in got.terms.values())


# -- the integer representation against the Fraction oracles ----------------------

@st.composite
def ring_terms(draw, nvars, xdeg, min_degree=0, max_terms=6, tz=st.integers(0, 2)):
    """Terms of x-degree min_degree..xdeg (none when that range is empty),
    with t and z exponents drawn from tz."""
    terms = {}
    if min_degree > xdeg or (nvars == 0 and min_degree > 0):
        return terms
    for _ in range(draw(st.integers(0, max_terms))):
        x = [0] * nvars
        for _ in range(draw(st.integers(min_degree, xdeg)) if nvars else 0):
            x[draw(st.integers(0, nvars - 1))] += 1
        terms[tuple(x) + (draw(tz), draw(tz))] = draw(million)
    return {k: c for k, c in terms.items() if c != 0}


ring_shapes = st.tuples(st.integers(0, 3), st.integers(0, 8))


def in_lowest_terms(p: MultiPoly) -> bool:
    return all(
        type(c) is Fraction and c != 0 and c.denominator > 0
        and math.gcd(c.numerator, c.denominator) == 1
        for c in p.terms.values()
    )


def in_lowest_common_form(p: MultiPoly) -> bool:
    """The stored form: nonzero numerators over one positive denominator,
    gcd(den, *numerators) = 1, and no empty block."""
    nums = [c for b in p._blocks.values() for c in b.values()]
    return (
        p._den > 0
        and math.gcd(p._den, *nums) == 1
        and 0 not in nums
        and all(p._blocks.values())
    )


def test_results_are_in_lowest_common_form():
    # p = x1/2: twice p, p - p and the x1 derivative of x1^2/2 all have
    # numerators that share the factor 2 with their denominator
    p = MultiPoly(1, 2, {(1, 0, 0): Fraction(1, 2)})
    square = MultiPoly(1, 2, {(2, 0, 0): Fraction(1, 2)})
    for got in (p * 2, 2 * p, p - p, square.partial(0)):
        assert in_lowest_common_form(got) and got._den == 1


def test_bad_shapes_and_exponents_are_refused():
    with pytest.raises(ValueError, match="^nvars must be non-negative$"):
        MultiPoly(-1, 2, {(0,): 1})
    with pytest.raises(TypeError, match="non-int entry"):
        MultiPoly(1, 2, {(1.0, 0, 0): 1})
    with pytest.raises(TypeError, match="^xdeg_max must be an int$"):
        MultiPoly(1, 2.5, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="^xdeg_max must be non-negative$"):
        MultiPoly.x(0, 1, -3)
    for make in (MultiPoly.zero, MultiPoly.one, MultiPoly.t, MultiPoly.z):
        with pytest.raises(TypeError, match="^nvars must be an int$"):
            make(1.0, 2)
        with pytest.raises(ValueError, match="^xdeg_max must be non-negative$"):
            make(1, -1)
    with pytest.raises(TypeError, match="^xdeg_max must be an int$"):
        MultiPoly.const(Fraction(1, 2), 1, 2.5)
    with pytest.raises(TypeError, match="^xdeg_max must be an int$"):
        LemmaConfig(((0, 1),), (Fraction(1, 2),), 2.5)


@settings(max_examples=100, deadline=None)
@given(
    ring_shapes.flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            ring_terms(*shape, tz=exponents(EXP_MAX // 2)),
            ring_terms(*shape, tz=exponents(EXP_MAX // 2)),
            million,
            st.integers(0, shape[0] + 1),
        )
    )
)
def test_ring_operations_match_fraction_oracles(data):
    (nvars, xdeg), a, b, f, pos = data
    pa, pb = MultiPoly(nvars, xdeg, a), MultiPoly(nvars, xdeg, b)
    var = "t" if pos == nvars else "z" if pos == nvars + 1 else pos
    for got, want in (
        (pa + pb, mp_add(a, b, Fraction(1))),
        (pa - pb, mp_add(a, b, Fraction(-1))),
        (-pa, mp_add({}, a, Fraction(-1))),
        (pa * f, mp_add({}, a, f)),
        (f * pa, mp_add({}, a, f)),
        (pa * pb, mp_mul(a, b, xdeg)),
        (pa.partial(var), mp_partial(a, pos)),
    ):
        assert got.terms == want
        assert in_lowest_terms(got) and in_lowest_common_form(got)


@settings(max_examples=60, deadline=None)
@given(
    ring_shapes.flatmap(
        # log and exp form sums of up to xdeg_max <= 8 exponents
        lambda shape: st.tuples(
            st.just(shape),
            ring_terms(*shape, min_degree=1, max_terms=4, tz=exponents(EXP_MAX // 8)),
        )
    )
)
def test_log_exp_match_power_sums_on_wide_denominators(data):
    (nvars, xdeg), g = data
    one = (0,) * (nvars + 2)
    got = MultiPoly(nvars, xdeg, g).exp()
    assert got.terms == mp_exp_by_powers(g, nvars, xdeg)
    assert in_lowest_terms(got) and in_lowest_common_form(got)
    p = {**g, one: Fraction(1)}
    got = MultiPoly(nvars, xdeg, p).log()
    assert got.terms == mp_log_by_powers(p, nvars, xdeg)
    assert in_lowest_terms(got) and in_lowest_common_form(got)


@settings(max_examples=100, deadline=None)
@given(
    ring_shapes.flatmap(
        lambda shape: st.tuples(st.just(shape), ring_terms(*shape), ring_terms(*shape))
    ),
    st.integers(2, 10**6),
)
def test_equality_is_equality_of_normalised_terms(data, n):
    # (p * n) * (1/n) and p - q + q are formed over other common
    # denominators than p and reduced to its stored form, so they compare
    # equal to it
    (nvars, xdeg), a, b = data
    p, q = MultiPoly(nvars, xdeg, a), MultiPoly(nvars, xdeg, b)
    for other in (p * n * Fraction(1, n), p - q + q, q, p * Fraction(n + 1, n)):
        assert (p == other) == (p.terms == other.terms)
        assert (other == p) == (p == other)
    assert p * n * Fraction(1, n) == p
    assert p - q + q == p
    with pytest.raises(TypeError):
        hash(p)


def _over(p: MultiPoly, m: int) -> MultiPoly:
    """p built from its numerators and common denominator multiplied by m;
    the constructor reduces it to p's own stored form."""
    blocks = {d: {k: c * m for k, c in b.items()} for d, b in p._blocks.items()}
    return MultiPoly._from_blocks(p.nvars, p.xdeg_max, blocks, p._den * m, p._bounds)


@settings(max_examples=100, deadline=None)
@given(
    ring_shapes.flatmap(
        lambda shape: st.tuples(st.just(shape), ring_terms(*shape), ring_terms(*shape))
    ),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.data(),
)
def test_equality_compares_the_stored_forms(data, m, n, draw):
    # numerators handed over a common denominator m times too large come
    # back in p's own stored form, and == on the stored forms must agree
    # with the normalised terms, also where one numerator, one key or one
    # block differs
    (nvars, xdeg), a, b = data
    p, q = MultiPoly(nvars, xdeg, a), MultiPoly(nvars, xdeg, b)
    for scaled in (_over(p, m), _over(p, n)):
        assert (scaled._den, scaled._blocks) == (p._den, p._blocks)
    variants = [q, p + q, p * 2, p - p]
    if a:
        key = draw.draw(st.sampled_from(sorted(a)))
        variants.append(MultiPoly(nvars, xdeg, {**a, key: a[key] + Fraction(1, m)}))
        rest = {k: c for k, c in a.items() if k != key}
        variants.append(MultiPoly(nvars, xdeg, rest))
        moved = key[:-1] + (key[-1] + 1,)
        if moved not in a:
            variants.append(MultiPoly(nvars, xdeg, {**rest, moved: a[key]}))
    for other in variants:
        for left, right in ((_over(p, m), _over(other, n)), (p, _over(other, n))):
            assert (left == right) == (p.terms == other.terms)
            assert (right == left) == (left == right)
    assert _over(p, m) == _over(p, n) == p
    # another ring, or another type, is never equal
    assert MultiPoly(nvars, xdeg + 1, a) != p
    assert p != p.terms and not (p == 1)


@pytest.mark.parametrize("xdeg", [0, 3])
def test_constant_and_variable_constructors_match_the_validating_one(xdeg):
    # They skip the validating constructor; at xdeg 0 an x variable is
    # beyond the truncation and must come out zero as it does there.
    v = 2
    for got, terms in (
        (MultiPoly.zero(v, xdeg), {}),
        (MultiPoly.one(v, xdeg), {(0, 0, 0, 0): 1}),
        (MultiPoly.const(Fraction(-6, 4), v, xdeg), {(0, 0, 0, 0): Fraction(-3, 2)}),
        (MultiPoly.const(0, v, xdeg), {}),
        (MultiPoly.x(1, v, xdeg), {(0, 1, 0, 0): 1}),
        (MultiPoly.t(v, xdeg), {(0, 0, 1, 0): 1}),
        (MultiPoly.z(v, xdeg), {(0, 0, 0, 1): 1}),
    ):
        want = MultiPoly(v, xdeg, terms)
        assert (got._blocks, got._den) == (want._blocks, want._den)
    with pytest.raises(TypeError):
        MultiPoly.const(0.5, v, xdeg)


# -- packed exponent keys ----------------------------------------------------------


def test_terms_round_trip_at_the_largest_exponent():
    top = EXP_MAX
    terms = {
        (top, 0, top, 0): Fraction(1, 3),
        (0, top, 0, top): Fraction(-2),
        (1, 2, 3, top): Fraction(5, 7),
        (0, 0, 0, 0): Fraction(1),
    }
    p = MultiPoly(2, 2 * top, terms)
    assert p.terms == terms
    again = MultiPoly(2, 2 * top, p.terms)
    assert (again._blocks, again._den) == (p._blocks, p._den)
    assert p.leading_term_str() == "1 * 1"
    assert str(p).endswith(f"1/3 * x1^{top}*t^{top}")
    # the derivative of the top field shifts, masks and subtracts
    assert p.partial("z").terms == mp_partial(terms, 3)
    assert p.partial(0).terms == mp_partial(terms, 0)


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_constructor_refuses_an_exponent_one_past_the_limit(pos):
    key = [0, 0, 0]
    key[pos] = EXP_MAX + 1
    with pytest.raises(ValueError, match=f"^exponent {EXP_MAX + 1} is above the limit {EXP_MAX}$"):
        MultiPoly(1, 2 * EXP_MAX, {tuple(key): 1})


def test_products_that_could_carry_raise():
    t = MultiPoly.t(0, 1)
    p = t
    for _ in range(FIELD_BITS - 1):
        p = p * p
    assert p.terms == {(2 ** (FIELD_BITS - 1), 0): 1}
    with pytest.raises(OverflowError, match=f"above the limit {EXP_MAX}$"):
        p * p
    # up to the limit itself a product is formed
    top = MultiPoly(0, 1, {(EXP_MAX - 1, 0): 1}) * t
    assert top.terms == {(EXP_MAX, 0): 1}
    with pytest.raises(OverflowError):
        top * t
    # log's products: block 2 of log(1 + x t^a) holds t^(2a)
    half = 2 ** (FIELD_BITS - 1)
    assert (MultiPoly(1, 1, {(1, half, 0): 1}) + 1).log().terms == {(1, half, 0): 1}
    with pytest.raises(OverflowError):
        (MultiPoly(1, 2, {(1, half, 0): 1}) + 1).log()



# -- the change of variables z -> z + c t ------------------------------------------

shears = st.integers(-3, 3)


@settings(max_examples=100, deadline=None)
@given(
    ring_shapes.flatmap(
        lambda shape: st.tuples(st.just(shape), ring_terms(*shape, tz=st.integers(0, 4)))
    ),
    shears,
)
def test_shear_matches_the_fraction_oracle_and_round_trips(data, c):
    (nvars, xdeg), a = data
    p = MultiPoly(nvars, xdeg, a)
    for d in (c, -c):
        q = p.shear(d)
        assert q.terms == mp_shear(a, d)
        assert in_lowest_terms(q) and in_lowest_common_form(q)
        back = q.shear(-d)
        assert back == p and back.terms == a
        assert (back._blocks, back._den) == (p._blocks, p._den)
        # every field of a sheared key is within its block's bound
        for deg, block in q._blocks.items():
            for key in block:
                assert max(_unpack_key(key, nvars)) <= q._bounds[deg]
    assert p.shear(0) is p
    with pytest.raises(TypeError):
        p.shear(Fraction(1, 2))


def _unpack_key(key: int, nvars: int) -> tuple:
    return tuple(key >> FIELD_BITS * (nvars + 1 - j) & EXP_MAX for j in range(nvars + 2))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 5)).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            ring_terms(*shape, min_degree=1, max_terms=4, tz=st.integers(0, 3)),
            st.lists(wide, min_size=4, max_size=4),
        )
    ),
    shears,
)
def test_shear_commutes_with_log_on_wide_denominators(data, c):
    # z -> z + c t is a ring automorphism that keeps the x-degree, so it
    # commutes with the truncated log; the lemma's check rests on this
    (nvars, xdeg), g, wides = data
    g = {k: v * w for (k, v), w in zip(g.items(), wides * len(g)) if v * w}
    p = MultiPoly(nvars, xdeg, {**g, (0,) * (nvars + 2): Fraction(1)})
    assert p.shear(c).log() == p.log().shear(c)
    assert p.shear(c).log().shear(-c) == p.log()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2).flatmap(
        lambda nvars: st.dictionaries(
            # t exponents next to the limit, and z exponents small enough
            # that (z + c t)^b has few terms
            st.tuples(*(st.integers(0, 2),) * nvars, exponents(EXP_MAX), st.integers(0, 3)),
            wide,
            max_size=4,
        )
    ),
    st.sampled_from((-1, 1, 2)),
)
def test_shear_near_the_limit_raises_or_is_exact(a, c):
    # A sheared key's t field is at most a + b; past EXP_MAX it would carry
    # into the field above, so the shear raises first and never returns one
    a = {k: v for k, v in a.items() if v}
    nvars = len(next(iter(a), (0, 0))) - 2
    p = MultiPoly(nvars, 2 * nvars, a)
    if any(k[-2] + k[-1] > EXP_MAX for k in a):
        with pytest.raises(OverflowError, match=f"above the limit {EXP_MAX}$"):
            p.shear(c)
    else:
        assert p.shear(c).terms == mp_shear(a, c)


def test_shear_at_the_limit():
    # t^a z^b with a + b = EXP_MAX goes through, one more raises
    p = MultiPoly(1, 1, {(1, EXP_MAX - 2, 2): 1})
    assert p.shear(1).terms == {(1, EXP_MAX - 2, 2): 1, (1, EXP_MAX - 1, 1): 2, (1, EXP_MAX, 0): 1}
    assert p.shear(1)._bounds == {1: EXP_MAX}
    with pytest.raises(OverflowError, match=f"above the limit {EXP_MAX}$"):
        MultiPoly(1, 1, {(1, EXP_MAX - 1, 2): 1}).shear(-1)


def test_log_exp_round_trips_keep_their_field_bounds():
    # Q's exponents are at most its x-degree, and so are those of ln Q and
    # exp ln Q; one bound for the whole polynomial, raised by every solved
    # block, would grow 144-fold a round trip and refuse the fourth here
    x = MultiPoly.x(0, 1, 12)
    t = MultiPoly.t(1, 12)
    q = (t * (x + 1).log()).exp()
    p = q
    for _ in range(4):
        p = p.log().exp()
    assert p == q


def test_trivial_log_exp_and_products_return_at_once_at_any_xdeg():
    # log 1, exp 0 and a product with 0 must not walk the x-degrees
    code = (
        "from gwmirror import MultiPoly\n"
        "n = 10**9\n"
        "assert MultiPoly.one(0, n).log().is_zero\n"
        "assert MultiPoly.zero(0, n).exp() == MultiPoly.one(0, n)\n"
        "assert (MultiPoly.zero(0, n) * MultiPoly.t(0, n)).is_zero\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=10)
