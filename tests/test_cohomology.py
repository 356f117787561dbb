import operator
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwmirror import CohClass, DSeries
from gwmirror.cohomology import _common, _int_product, _inverse, _linear_product, _push

from oracles import convolve_fractions, inverse_fractions, linear, pinv, pmul, ppow
from strategies import hpow, wide_fractions as wide


def coh(*coeffs):
    return CohClass(tuple(Fraction(c) for c in coeffs))


# -- spec examples -------------------------------------------------------------


def test_nilpotency():
    h = hpow(1, 3)
    assert h * (h * h) == coh(0, 0, 0)


def test_difference_of_squares():
    one, h = hpow(0, 3), hpow(1, 3)
    assert (one + h) * (one - h) == coh(1, 0, -1)


def test_one_is_identity():
    a = coh(1, 1, 0)
    assert a * hpow(0, 3) == a


def test_inv_geometric_series():
    one, h = hpow(0, 3), hpow(1, 3)
    assert (one + h).inv() == coh(1, -1, 1)


def test_inv_fifth_power():
    one, h = hpow(0, 5), hpow(1, 5)
    p = hpow(0, 5)
    for _ in range(5):
        p = p * (one + h)
    expected = coh(1, -5, 15, -35, 70)  # frozen from the long-division oracle
    assert p.inv() == expected
    assert pinv(ppow(linear(1, 1, 5), 5, 5), 5) == list(expected.coeffs)


def test_inv_scalar():
    assert coh(2, 0, 0, 0).inv() == coh(Fraction(1, 2), 0, 0, 0)


# -- error contracts -----------------------------------------------------------


def test_ring_len_mismatch_rejected():
    with pytest.raises(ValueError, match=re.escape("CohClass length mismatch: 3 vs 4")):
        hpow(0, 3) * hpow(0, 4)
    with pytest.raises(ValueError, match=re.escape("CohClass length mismatch: 3 vs 4")):
        hpow(0, 3) + hpow(0, 4)


def test_inv_of_nonunit_rejected():
    with pytest.raises(ZeroDivisionError):
        hpow(1, 3).inv()


# -- canonical string form -----------------------------------------------------


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(2875), "2875"),
        (Fraction(-45, 8), "-45/8"),
        (Fraction(4, -6), "-2/3"),
        (Fraction(0), "0"),
    ],
)
def test_rational_canonical_text(value, text):
    assert str(value) == text
    assert value.denominator > 0


# -- algebraic properties --------------------------------------------------------

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def coh_elems(ring_len):
    return st.lists(fracs, min_size=ring_len, max_size=ring_len).map(
        lambda cs: CohClass(tuple(cs))
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda r: st.tuples(*(coh_elems(r),) * 3)))
def test_ring_axioms(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(coh_elems), fracs.filter(lambda f: f != 0))
def test_unit_times_inverse(a, unit):
    one = hpow(0, a.ring_len)
    a = one * unit + (a - one * a.coeffs[0])
    assert a * a.inv() == one


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda r: st.tuples(coh_elems(r), coh_elems(r))))
def test_operations_keep_fractions_normalized(pair):
    a, b = pair
    for c in (a * b).coeffs + (a + b).coeffs:
        assert c.denominator > 0
        assert Fraction(c.numerator, c.denominator) == c


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(coh_elems), fracs.filter(lambda f: f != 0))
def test_inv_matches_long_division(a, unit):
    coeffs = (unit,) + a.coeffs[1:]
    assert list(CohClass(coeffs).inv().coeffs) == pinv(list(coeffs), a.ring_len)


@settings(max_examples=150, deadline=None)
@given(st.lists(fracs, max_size=8))
def test_linear_product_untruncated(shifts):
    # Rational shifts, l = 1, the unit vector and a ring long enough that
    # nothing is cut off.
    r = len(shifts) + 1
    expected = linear(1, 0, r)
    for c in shifts:
        expected = pmul(expected, linear(c, 1, r), r)
    assert _linear_product([1] + [0] * (r - 1), 1, shifts) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-99, 99), min_size=1, max_size=8),
    st.integers(-9, 9),
    st.lists(st.integers(-30, 30), max_size=12),
)
def test_linear_product_grows_any_vector(c, l, shifts):
    # The twist's use: shift-adding the factors into c in place equals one
    # truncated product of c with the factors grown from the unit vector.
    unit = [1] + [0] * (len(c) - 1)
    expected = _int_product(c, _linear_product(unit, l, shifts), len(c))
    assert _linear_product(c, l, shifts) == expected


# -- integer-numerator kernels on non-integral data ------------------------------


def common_form(values):
    """The stored form of the Fractions ``values``, by ``_common``."""
    return _common([v.numerator for v in values], [v.denominator for v in values])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(wide, st.integers(1, 6)), max_size=10),
    st.lists(st.tuples(wide, st.integers(-6, 6).filter(bool)), max_size=10),
)
def test_common_and_push_keep_the_least_common_denominator(head, tail):
    # _common takes each value as an unreduced numerator over a positive
    # denominator, _push as an unreduced numerator and a nonzero
    # denominator of either sign.
    nums, den = _common([v.numerator * k for v, k in head], [v.denominator * k for v, k in head])
    nums = list(nums)
    for v, k in tail:
        den = _push(nums, den, v.numerator * k, v.denominator * k)
    values = [v for v, _ in head + tail]
    assert den == lcm(*(v.denominator for v in values))
    assert [Fraction(x, den) for x in nums] == values


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda r: st.tuples(*(st.lists(wide, min_size=r, max_size=r),) * 2)
    ),
    st.integers(0, 9),
)
def test_convolve_and_inverse_match_fraction_oracles(pair, cut):
    a, b = pair
    (an, ad), (bn, bd) = common_form(a), common_form(b)
    for length in {len(a), min(cut, len(a))}:
        got = _int_product(an, bn, length)
        assert [Fraction(x, ad * bd) for x in got] == convolve_fractions(a, b, length)
    assert list((DSeries(a) * DSeries(b)).coeffs) == convolve_fractions(a, b, len(a))
    if a[0]:
        nums, den = _inverse(an, ad)
        assert [Fraction(x, den) for x in nums] == inverse_fractions(a)
        assert gcd(den, *nums) == 1
        assert list(CohClass(a).inv().coeffs) == inverse_fractions(a)
    else:
        with pytest.raises(ZeroDivisionError):
            _inverse(an, ad)


# -- the base CohClass and DSeries share ----------------------------------------


@pytest.mark.parametrize("kind", [CohClass, DSeries])
def test_shared_operations_keep_type(kind):
    a = [Fraction(3, 2), Fraction(-1), Fraction(2, 7), Fraction(5)]
    b = [Fraction(-4), Fraction(1, 3), Fraction(0), Fraction(-9, 4)]
    x, y = kind(tuple(a)), kind(tuple(b))
    s = Fraction(-2, 3)
    cases = [
        (x + y, [p + q for p, q in zip(a, b)]),
        (x - y, [p - q for p, q in zip(a, b)]),
        (-x, [-p for p in a]),
        (x * s, [p * s for p in a]),
        (s * x, [p * s for p in a]),
        (3 * x, [3 * p for p in a]),
        (x * 3, [3 * p for p in a]),
        (x * y, convolve_fractions(a, b, len(a))),
        (x.inv(), inverse_fractions(a)),
    ]
    for got, want in cases:
        assert type(got) is kind
        assert got.coeffs == tuple(want)
        assert all(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_classes_and_series_never_mix(op):
    c, q = CohClass((1, 2)), DSeries((1, 2))
    with pytest.raises(TypeError):
        op(c, q)
    with pytest.raises(TypeError):
        op(q, c)


def test_a_class_and_a_series_of_one_stored_form_are_unequal():
    c, q = CohClass((Fraction(1, 2), 3, 0)), DSeries((Fraction(1, 2), 3, 0))
    assert c._key() == q._key() == (2, (1, 6, 0))
    assert c != q and q != c
    assert not c == q and not q == c


def test_shape_and_empty_messages():
    with pytest.raises(ValueError, match=re.escape("CohClass length mismatch: 3 vs 4")):
        hpow(0, 3) - hpow(0, 4)
    with pytest.raises(ValueError, match=re.escape("DSeries length mismatch: 2 vs 3")):
        DSeries((1, 2)) - DSeries((1, 2, 3))
    for kind in (CohClass, DSeries):
        with pytest.raises(ValueError, match="at least the index-0 coefficient"):
            kind(())


# -- the stored form ------------------------------------------------------------


def stored(x):
    """The numerators and denominator a class or series keeps."""
    return x._nums, x._den


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([CohClass, DSeries]),
    st.integers(1, 6).flatmap(
        lambda r: st.tuples(*(st.lists(wide, min_size=r, max_size=r),) * 3)
    ),
    st.integers(2, 10**6),
)
def test_values_reached_by_different_routes_are_equal(kind, triple, k):
    # The stored form is canonical, so equal values compare and hash equal
    # whatever route built them, and every stored form is in lowest terms.
    a_, b_, x_ = triple
    x_[0] = x_[0] or Fraction(1)
    a, b, x = kind(a_), kind(b_), kind(x_)
    unreduced = kind(tuple(Fraction(c.numerator * k, c.denominator * k) for c in a_))
    scaled = kind(tuple(c * k for c in a_)) * Fraction(1, k)
    routes = [(a + b) - b, a * x * x.inv(), unreduced, scaled, -(-a)]
    for got in routes:
        assert got == a
        assert hash(got) == hash(a)
    for value in routes + [a, b, x, a + b, a * x, x.inv(), a * k]:
        nums, den = stored(value)
        assert den > 0
        assert gcd(den, *nums) == 1
        assert [Fraction(n, den) for n in nums] == list(value.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([CohClass, DSeries]), st.lists(wide, min_size=1, max_size=6))
def test_coeff_reads_one_coefficient_without_building_the_rest(kind, values):
    x = kind(values) * Fraction(3, 7)
    got = [x.coeff(k) for k in range(len(values))]
    assert x._coeffs is None
    assert got == list(x.coeffs) == [v * Fraction(3, 7) for v in values]
    assert all(type(c) is Fraction for c in got)
