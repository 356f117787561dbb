from fractions import Fraction
from math import factorial

import pytest

from gwmirror import CohClass, ambient_I, hyper_factor, naive_series

from oracles import ambient_poly, hyper_poly, naive_coeff
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


def test_hyper_factor_quintic_degree_one():
    got = hyper_factor(5, 1, 1, 5)
    # frozen from the oracle; H^0 = 5! and H^1 = 120*5*(1+1/2+1/3+1/4+1/5)
    assert list(got.coeffs) == [120, 1370, 5625, 10625, 9375]
    assert list(got.coeffs) == hyper_poly(5, 1, 1, 5)


def test_hyper_factor_empty_product():
    assert hyper_factor(7, 0, 1, 4) == hpow(0, 4)


def test_hyper_factor_from_zero_cubic():
    got = hyper_factor(3, 1, 0, 3)
    assert list(got.coeffs) == [0, 18, 99]  # frozen from the oracle
    assert list(got.coeffs) == hyper_poly(3, 1, 0, 3)


@pytest.mark.parametrize("ring_len", [3, 5])
@pytest.mark.parametrize("i_from", [0, 1])
@pytest.mark.parametrize("l", range(1, 6))
def test_hyper_factor_matches_oracle(l, i_from, ring_len):
    for d in (0, 1, 2, 7, 30):
        assert list(hyper_factor(l, d, i_from, ring_len).coeffs) == hyper_poly(
            l, d, i_from, ring_len
        )


@pytest.mark.parametrize("l,d", [(1, 1), (2, 3), (3, 2), (5, 1)])
def test_hyper_factor_zero_start_pulls_out_lh(l, d):
    ring_len = 5
    lh = hpow(1, ring_len) * l
    assert hyper_factor(l, d, 0, ring_len) == lh * hyper_factor(l, d, 1, ring_len)


def test_naive_series_quintic_degree_one():
    series = naive_series(4, 5, 2, i_from=1)
    got = [comp.coeffs[1] for comp in series]
    assert got[:3] == [120, 770, 575]
    assert got == naive_coeff(4, 5, 1, 1)


def test_naive_series_degree_zero_is_one():
    for n, l in [(4, 5), (3, 2), (2, 3)]:
        series = naive_series(n, l, 0, i_from=1)
        assert [comp.coeffs for comp in series] == [(1,)] + [(0,)] * n


def test_naive_series_plane_conic_in_p4():
    got = [comp.coeffs[1] for comp in naive_series(4, 2, 1, i_from=0)]
    assert got == [0, 4, -8, 8, 0]
    assert got == naive_coeff(4, 2, 1, 0)


@pytest.mark.parametrize("n,l", [(4, 5), (4, 2), (3, 1), (2, 3)])
def test_naive_series_constant_terms(n, l):
    h0 = naive_series(n, l, 3, i_from=1)[0]
    for d in range(4):
        expected = Fraction(factorial(l * d), factorial(d) ** (n + 1))
        assert h0.coeffs[d] == expected


@pytest.mark.parametrize("n,l", [(4, 2), (4, 3), (3, 2), (5, 4)])
def test_naive_series_low_degree_kills_h0(n, l):
    h0 = naive_series(n, l, 3, i_from=0)[0]
    for d in range(1, 4):
        assert h0.coeffs[d] == 0


NAIVE_SHAPES = [(n, l) for n in range(2, 7) for l in range(1, n + 2)]


@pytest.mark.parametrize("i_from", [0, 1])
@pytest.mark.parametrize("n,l", NAIVE_SHAPES)
def test_naive_series_matches_oracle_at_every_degree(n, l, i_from):
    # Each degree extends the previous degree's twist product, so an error
    # in one degree's new factors shows in every later degree.
    dmax = 30
    series = naive_series(n, l, dmax, i_from=i_from)
    for d in range(dmax + 1):
        assert [h.coeffs[d] for h in series] == naive_coeff(n, l, d, i_from), d


def test_naive_series_rejects_bad_start():
    with pytest.raises(ValueError, match="i_from"):
        naive_series(4, 5, 2, i_from=2)


def test_naive_series_rejects_non_nef():
    with pytest.raises(ValueError, match="nef"):
        naive_series(4, 6, 2)
    naive_series(4, 5, 2)  # l = n+1 is the boundary case and is allowed
