import doctest
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwmirror import (
    CohClass,
    DSeries,
    ambient_I,
    hyper_factor,
    hypergeom,
    localp2_f,
    localp2_invariants,
    naive_invariants,
    naive_series,
    quintic_invariants,
)

from oracles import ambient_poly, hyper_poly, linear, naive_coeff, pinv, pmul
from strategies import hpow


def test_ambient_degree_zero():
    assert ambient_I(4, 0) == hpow(0, 5)


def test_ambient_degree_one():
    expected = CohClass((Fraction(1), Fraction(-5), Fraction(15), Fraction(-35), Fraction(70)))
    assert ambient_I(4, 1) == expected
    assert list(expected.coeffs) == ambient_poly(4, 1)


@pytest.mark.parametrize("d", range(7))
def test_ambient_constant_term(d):
    # evaluating the product at H = 0 gives 1/(d!)^5
    assert ambient_I(4, d).coeffs[0] == Fraction(1, factorial(d) ** 5)


@pytest.mark.parametrize(
    "n,d", [(2, 3), (3, 2), (4, 4), (2, 30), (4, 30), (8, 20), (16, 1), (16, 15), (16, 30)]
)
def test_ambient_matches_oracle(n, d):
    assert list(ambient_I(n, d).coeffs) == ambient_poly(n, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 60))
def test_ambient_power_recurrence_matches_power_and_inverse(n, d):
    # the step from the cached degree d-1 against d Fraction products,
    # their (n+1)-th power and a long division
    got = ambient_I(n, d).coeffs
    assert list(got) == ambient_poly(n, d)
    assert all(type(c) is Fraction for c in got)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 16), st.integers(0, 60)), min_size=1, max_size=6))
def test_ambient_in_any_call_order_matches_oracle(calls):
    # Each degree is built from the cached one below it: calls that go down,
    # repeat or jump ahead from a cold cache must give the same classes.
    hypergeom._ambient.cache_clear()
    for n, d in calls + calls[::-1]:
        assert list(ambient_I(n, d).coeffs) == ambient_poly(n, d)


def test_ambient_cold_at_large_degree_fills_without_recursing():
    # 1500 degrees from a cold cache, more than it holds, and far deeper
    # than the interpreter's recursion limit.
    assert ambient_I(2, 1500).coeffs[0] == Fraction(1, factorial(1500) ** 3)
    assert ambient_I(2, 3) == CohClass(ambient_poly(2, 3))


def test_ambient_errors():
    ambient_I(2, 2)  # a cached (2, 2) must not answer for (2.0, 2)
    with pytest.raises(TypeError):
        ambient_I(2, 2.5)
    with pytest.raises(TypeError):
        ambient_I(2.0, 2)
    with pytest.raises(ValueError, match="n >= 2"):
        ambient_I(1, 3)
    with pytest.raises(ValueError, match="non-negative"):
        ambient_I(2, -1)


def test_hyper_factor_quintic_degree_one():
    got = hyper_factor(5, 1, 5)
    # frozen from the oracle; 5H times 5! (1 + H)(1 + H/2)...(1 + H/5) mod H^5
    assert list(got.coeffs) == [0, 600, 6850, 28125, 53125]
    assert list(got.coeffs) == hyper_poly(5, 1, 0, 5)


def test_hyper_factor_empty_product():
    # At d = 0 the product over i = 1..0 is empty, leaving the factor 7H.
    assert hyper_factor(7, 0, 4) == hpow(1, 4) * 7


def test_hyper_factor_from_zero_cubic():
    got = hyper_factor(3, 1, 3)
    assert list(got.coeffs) == [0, 18, 99]  # frozen from the oracle
    assert list(got.coeffs) == hyper_poly(3, 1, 0, 3)


def lh_times(l: int, poly: list[Fraction]) -> list[Fraction]:
    """l*H times an oracle polynomial, in the oracle's own arithmetic."""
    return pmul(linear(0, l, len(poly)), poly, len(poly))


# The oracles keep both starts of the twist product: from 0 it is the
# package's product itself, from 1 the package's product is l*H times it.
@pytest.mark.parametrize("ring_len", [3, 5])
@pytest.mark.parametrize("oracle_from", [0, 1])
@pytest.mark.parametrize("l", range(1, 6))
def test_hyper_factor_matches_oracle(l, oracle_from, ring_len):
    for d in (0, 1, 2, 7, 30):
        want = hyper_poly(l, d, oracle_from, ring_len)
        if oracle_from:
            want = lh_times(l, want)
        assert list(hyper_factor(l, d, ring_len).coeffs) == want


@pytest.mark.parametrize("l,d", [(1, 1), (2, 3), (3, 2), (5, 1)])
def test_hyper_factor_zero_start_pulls_out_lh(l, d):
    ring_len = 5
    lh = hpow(1, ring_len) * l
    rest = hpow(0, ring_len)
    for i in range(1, l * d + 1):
        rest = rest * CohClass((i, l) + (0,) * (ring_len - 2))
    assert hyper_factor(l, d, ring_len) == lh * rest


def test_naive_series_quintic_degree_one():
    series = naive_series(4, 5, 2)
    got = [comp.coeffs[1] for comp in series]
    assert got[:4] == [0, 5 * 120, 5 * 770, 5 * 575]
    assert got == naive_coeff(4, 5, 1, 0)


def test_naive_series_degree_zero_is_lh():
    for n, l in [(4, 5), (3, 2), (2, 3)]:
        series = naive_series(n, l, 0)
        assert [comp.coeffs for comp in series] == [(0,), (l,)] + [(0,)] * (n - 1)


def test_naive_series_plane_conic_in_p4():
    got = [comp.coeffs[1] for comp in naive_series(4, 2, 1)]
    assert got == [0, 4, -8, 8, 0]
    assert got == naive_coeff(4, 2, 1, 0)


@pytest.mark.parametrize("n,l", [(4, 5), (4, 2), (3, 1), (2, 3)])
def test_naive_series_constant_terms(n, l):
    # The constant terms of the series with its factor l*H taken out.
    h1 = naive_series(n, l, 3)[1]
    for d in range(4):
        expected = Fraction(l * factorial(l * d), factorial(d) ** (n + 1))
        assert h1.coeffs[d] == expected


@pytest.mark.parametrize("n,l", [(4, 2), (4, 3), (3, 2), (5, 4)])
def test_naive_series_low_degree_kills_h0(n, l):
    h0 = naive_series(n, l, 3)[0]
    for d in range(1, 4):
        assert h0.coeffs[d] == 0


NAIVE_SHAPES = [(n, l) for n in range(2, 7) for l in range(1, n + 2)]


@pytest.mark.parametrize("oracle_from", [0, 1])
@pytest.mark.parametrize("n,l", NAIVE_SHAPES)
def test_naive_series_matches_oracle_at_every_degree(n, l, oracle_from):
    # Each degree extends the previous degree's twist product, so an error
    # in one degree's new factors shows in every later degree.
    dmax = 30
    series = naive_series(n, l, dmax)
    for d in range(dmax + 1):
        want = naive_coeff(n, l, d, oracle_from)
        if oracle_from:
            want = lh_times(l, want)
        assert [h.coeffs[d] for h in series] == want, d


def test_naive_series_rejects_non_nef():
    with pytest.raises(ValueError, match="nef"):
        naive_series(4, 6, 2)
    # the twist loop owns the dmax sign check, so a bad l is named first
    with pytest.raises(ValueError, match="nef"):
        naive_series(4, 6, -1)
    naive_series(4, 5, 2)  # l = n+1 is the boundary case and is allowed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_twist_classes_build_both_series_whole(n, monkeypatch):
    # short = 0 is the naive series from d = 0; short = 1 is the contact
    # series, the naive one without its last factor (l*H + l*d), which is
    # a unit for d >= 1, and with the unit class at degree 0, where the
    # loop asks ambient_I for nothing.
    asked = []
    real = hypergeom.ambient_I
    monkeypatch.setattr(hypergeom, "ambient_I", lambda n, d: asked.append(d) or real(n, d))
    l, dmax, r = n + 1, 4, n + 1
    naive = hypergeom._twist_classes(n, l, 0, dmax)
    assert asked == list(range(dmax + 1))
    contact = hypergeom._twist_classes(n, l, 1, dmax)
    assert asked[dmax + 1 :] == list(range(1, dmax + 1))
    assert len(naive) == len(contact) == dmax + 1
    assert [list(c.coeffs) for c in naive] == [naive_coeff(n, l, d, 0) for d in range(dmax + 1)]
    assert contact[0] == CohClass((1,) + (0,) * n)
    for d in range(1, dmax + 1):
        last = pinv(linear(l * d, l, r), r)
        assert list(contact[d].coeffs) == pmul(naive_coeff(n, l, d, 0), last, r)


@pytest.mark.parametrize("short", [0, 1])
def test_twist_classes_own_the_dmax_checks(short):
    assert len(hypergeom._twist_classes(2, 3, short, 0)) == 1
    with pytest.raises(ValueError, match="^dmax must be non-negative$"):
        hypergeom._twist_classes(2, 3, short, -1)
    with pytest.raises(TypeError, match="^dmax must be an int$"):
        hypergeom._twist_classes(2, 3, short, True)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: ambient_I(2, True), "d"),
        (lambda: ambient_I(2.0, 3), "n"),
        (lambda: hyper_factor(True, 1, 2), "l"),
        (lambda: naive_series(4, 5, True), "dmax"),
        (lambda: naive_series(4.0, 5, 2), "n"),
        (lambda: quintic_invariants(True), "dmax"),
        (lambda: localp2_invariants(True), "dmax"),
        (lambda: localp2_f(2.0), "dmax"),
        (lambda: naive_invariants(True, 1, 2), "n"),
        (lambda: DSeries.monomial(True, 3), "d"),
        (lambda: DSeries.monomial(1, 3.0), "dmax"),
    ],
    ids=[
        "ambient_I-bool-d", "ambient_I-float-n", "hyper_factor-bool-l", "naive_series-bool-dmax",
        "naive_series-float-n", "quintic-bool-dmax", "localp2-bool-dmax", "localp2_f-float-dmax",
        "naive_invariants-bool-n", "monomial-bool-d", "monomial-float-dmax",
    ],
)
def test_a_size_is_an_int_and_not_a_bool(call, name):
    # True == 1, so a bool taken for a size would run as 1; a float would
    # fail deep in the loops without naming the argument.
    with pytest.raises(TypeError, match=f"^{name} must be an int$"):
        call()


def test_naive_series_is_cached_by_typed_key():
    # Both quintic routes of a crosscheck read one series from the cache;
    # a float n keys apart from the int and still fails to build.
    first = naive_series(4, 5, 2)
    assert naive_series(4, 5, 2) is first
    with pytest.raises(TypeError):
        naive_series(4.0, 5, 2)
    assert naive_series(4, 5, 3) is not first


def test_naive_series_keeps_its_docstring_example():
    # The "Docstring examples" CI step runs what DocTestFinder finds; the
    # cache's wrapper must not hide the example from it.
    names = {t.name for t in doctest.DocTestFinder().find(hypergeom) if t.examples}
    assert "gwmirror.hypergeom.naive_series" in names
