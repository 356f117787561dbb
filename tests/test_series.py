import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwmirror import DSeries, ambient_I, hyper_factor, naive_series
from gwmirror.series import _power_rows

from oracles import (
    exp_by_powers,
    exp_coeffs_fractions,
    fraction_rows,
    lambert_w,
    log_by_powers,
    log_fractions,
    naive_coeff,
    revert_by_fixed_point,
    revert_by_lagrange,
    substitute_fractions,
)
from strategies import hpow, wide_fractions as wide


def ser(*coeffs):
    return DSeries(tuple(Fraction(c) for c in coeffs))


def with_constant(a, c0):
    """``a`` with its index-0 coefficient replaced by c0."""
    return DSeries((Fraction(c0),) + a.coeffs[1:])


# -- multiplication ------------------------------------------------------------


def test_mul_difference_of_squares():
    assert ser(1, 1, 0, 0) * ser(1, -1, 0, 0) == ser(1, 0, -1, 0)


def test_mul_identity():
    a = ser(3, Fraction(1, 2), -7)
    assert a * DSeries.monomial(0, 2) == a


def test_geometric_telescope():
    geom = ser(1, 1, 1, 1, 1)
    assert geom * ser(1, -1, 0, 0, 0) == DSeries.monomial(0, 4)


# -- inversion -----------------------------------------------------------------


def test_inv_geometric():
    assert ser(1, -1, 0, 0).inv() == ser(1, 1, 1, 1)


def test_inv_quintic_f0_head():
    f0 = ser(1, 120, 0)
    expected = ser(1, -120, 14400)  # frozen; verified by multiplying back
    inv = f0.inv()
    assert inv == expected
    assert f0 * inv == DSeries.monomial(0, 2)


def test_inv_one():
    assert DSeries.monomial(0, 3).inv() == DSeries.monomial(0, 3)


def test_inv_nonunit_rejected():
    with pytest.raises(ZeroDivisionError):
        ser(0, 1, 0).inv()


# -- exp / log -----------------------------------------------------------------


def test_exp_q():
    assert ser(0, 1, 0, 0).exp() == ser(1, 1, Fraction(1, 2), Fraction(1, 6))


def test_log_one_plus_q():
    assert ser(1, 1, 0, 0).log() == ser(0, 1, Fraction(-1, 2), Fraction(1, 3))


def test_exp_log_round_trip():
    a = ser(1, 3, 5)
    assert a.log().exp() == a


def test_exp_needs_zero_constant():
    with pytest.raises(ValueError):
        ser(1, 1).exp()


def test_log_needs_unit_one_constant():
    with pytest.raises(ValueError):
        ser(2, 1).log()


# -- substitution and reversion ---------------------------------------------------


def test_substitute_zero_exponent_is_identity():
    a = ser(2, 3, 5, 7)
    assert a.substitute(ser(0, 0, 0, 0)) == a


def test_substitute_q_by_q_exp_q():
    q = DSeries.monomial(1, 3)
    assert q.substitute(q) == ser(0, 1, 1, Fraction(1, 2))


def test_substitute_fixes_constants():
    one = DSeries.monomial(0, 3)
    assert one.substitute(DSeries.monomial(1, 3)) == one


def test_substitute_needs_zero_constant_exponent():
    # revert_exp has no check of its own: its unsubstitute refuses g.
    message = "substitution exponent must have zero constant term"
    for g in (ser(1), ser(1, 2, 3)):
        c = DSeries.monomial(0, g.dmax)
        for call in (lambda: c.substitute(g), lambda: c.unsubstitute(g), g.revert_exp):
            with pytest.raises(ValueError, match=message):
                call()


def test_revert_zero():
    z = ser(0, 0, 0, 0, 0)
    assert z.revert_exp() == z


def test_revert_against_lambert_series():
    # Qt = Q e^Q is inverted by Q = W(Qt); the independent closed form for W
    # pins Qt * exp(h) coefficient by coefficient.
    dmax = 6
    g = DSeries.monomial(1, dmax)
    h = g.revert_exp()
    w = DSeries.monomial(1, dmax) * h.exp()
    assert w == DSeries(tuple(lambert_w(dmax)))


def test_revert_self_check_fires(monkeypatch):
    # Only the reversion's own step negates a series; the round trip's
    # substitutions do not.  Spoiling -g at index 2 makes h wrong from
    # index 2 on, and the round trip must say so.
    negate = DSeries.__neg__

    def spoiled(self):
        c = list(negate(self).coeffs)
        c[2] += 1
        return DSeries(c)

    monkeypatch.setattr(DSeries, "__neg__", spoiled)
    with pytest.raises(RuntimeError, match="round-trip"):
        ser(0, 1, 2, 3).revert_exp()


# -- H-components and shape ------------------------------------------------------


def test_extract_h_components():
    # naive_series hands back one scalar series per power of H, each
    # holding that H-part of every class coefficient.
    comps = naive_series(3, 2, 3)
    assert len(comps) == 4
    for d in range(4):
        cls = hyper_factor(2, d, 4) * ambient_I(3, d)
        assert [c.coeffs[d] for c in comps] == list(cls.coeffs)


def test_extract_h_quintic_spot_value():
    # The series carries the factor 5H, so its H^3 part is 5 times the
    # H^2 part of the reference product that starts at i = 1.
    series = naive_series(4, 5, 1)
    assert series[3].coeffs[1] == Fraction(2875)
    assert naive_coeff(4, 5, 1, 1)[2] == Fraction(575)
    assert naive_coeff(4, 5, 1, 0)[3] == Fraction(2875)


def test_cohomology_coefficients_rejected():
    with pytest.raises(TypeError, match="exact rational"):
        DSeries((hpow(0, 3),))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match=re.escape("DSeries length mismatch: 2 vs 3")):
        ser(1, 2) * ser(1, 2, 3)
    with pytest.raises(ValueError, match=re.escape("DSeries length mismatch: 3 vs 2")):
        ser(1, 2, 3) + ser(1, 2)


def test_str():
    assert str(DSeries((1, 0, Fraction(-1, 2)))) == "1 + -1/2*q^2"
    assert str(ser(0, 3, 0, Fraction(7, 3))) == "3*q^1 + 7/3*q^3"
    assert str(ser(0, 0)) == "0"


# -- kernels ----------------------------------------------------------------------


def test_exp_powers():
    # [exp(d*q)]_k = d^k / k!; row d of the kernels stops at index
    # dmax - d, the last one a term q^d times the kernel reaches.
    full = [ser(*(Fraction(d**k, factorial(k)) for k in range(4))) for d in range(4)]
    g = DSeries.monomial(1, 3)
    assert fraction_rows(g._kernels_of(g)) == [list(w.coeffs[: 4 - d]) for d, w in enumerate(full)]
    assert fraction_rows(DSeries((0,))._kernels_of(DSeries((0,)))) == [[1]]


def test_substitute_needs_the_exponents_shape():
    g = DSeries.monomial(1, 3)
    other = ser(1, 2)
    with pytest.raises(ValueError, match="substitution exponent must share dmax"):
        other.substitute(g)
    with pytest.raises(ValueError, match="substitution exponent must share dmax"):
        other.unsubstitute(g)


def test_exp_powers_are_built_once(monkeypatch):
    # The kernels of g are kept on g: substituting or unsubstituting by g
    # after the first build forms no second exp(g).
    g, c = ser(0, 1, 2, 3), ser(1, 2, 3, 4)
    kernels = g._kernels_of(g)
    calls = []
    exp = DSeries.exp
    monkeypatch.setattr(DSeries, "exp", lambda self: calls.append(self) or exp(self))
    assert g._kernels_of(g) is kernels
    assert c.substitute(g).unsubstitute(g) == c
    assert calls == []
    h = ser(0, 1, 2, 4)
    c.substitute(h)
    c.substitute(h)
    assert calls == [h]


def test_kernel_chain_is_shared_by_equal_exponents_only():
    # Equal exponents read one chain; a different dmax, or the same
    # numerators over another denominator, gets its own.
    g = ser(0, 1, 1)
    assert g._kernels_of(ser(0, 1, 1)) is g._kernels_of(g)
    for other in (ser(0, 1, 1, 0), ser(0, Fraction(1, 2), Fraction(1, 2))):
        r = len(other.coeffs)
        kernels = [exp_by_powers([d * c for c in other.coeffs], r)[: r - d] for d in range(r)]
        assert fraction_rows(other._kernels_of(other)) == kernels
    # exp(g) has constant coefficient 1, so its numerators fix its
    # denominator; the chain of any stored form still reads both.
    half = Fraction(1, 2)
    assert fraction_rows(_power_rows((1, 1, 1), 1)) == [[1, 0, 0], [1, 1], [1]]
    assert fraction_rows(_power_rows((1, 1, 1), 2)) == [[1, 0, 0], [half, half], [half * half]]


def test_unsubstitute_undoes_substitute():
    q = DSeries.monomial(1, 3)
    assert ser(0, 1, 1, Fraction(1, 2)).unsubstitute(q) == q
    assert ser(2, 3, 5, 7).unsubstitute(ser(0, 0, 0, 0)) == ser(2, 3, 5, 7)
    with pytest.raises(ValueError, match="constant"):
        ser(1, 2).unsubstitute(ser(1, 0))


# -- algebraic properties --------------------------------------------------------

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_of(dmax):
    return st.lists(fracs, min_size=dmax + 1, max_size=dmax + 1).map(
        lambda cs: DSeries(tuple(cs))
    )


any_series = st.integers(0, 10).flatmap(series_of)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 5).flatmap(lambda d: st.tuples(*(series_of(d),) * 3)))
def test_series_ring_axioms(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 5).flatmap(series_of), fracs.filter(lambda f: f != 0))
def test_series_mul_inv(a, c0):
    a = with_constant(a, c0)
    assert a * a.inv() == DSeries.monomial(0, a.dmax)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 5).flatmap(series_of))
# The pipeline never reads exp's top coefficient, and the draws stop at
# dmax 5: one case past dmax 40 holds exp to its last index there.
@example(DSeries.monomial(1, 45))
def test_series_exp_log_inverse(a):
    a = with_constant(a, 0)
    assert a.exp().log() == a
    one = DSeries.monomial(0, a.dmax)
    assert (a + one).log().exp() == a + one


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(series_of(d), series_of(d))))
def test_substitute_revert_round_trip(pair):
    a, g = pair
    g = with_constant(g, 0)
    h = g.revert_exp()
    assert a.substitute(g).substitute(h) == a


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 5).flatmap(lambda d: st.tuples(*(series_of(d),) * 3)))
def test_substitution_is_ring_homomorphism(triple):
    a, b, g = triple
    g = with_constant(g, 0)
    assert (a * b).substitute(g) == a.substitute(g) * b.substitute(g)


# -- kernels against the power-summing oracles -------------------------------------


@settings(max_examples=60, deadline=None)
@given(any_series)
def test_exp_log_match_power_sums(a):
    r = a.dmax + 1
    nil = with_constant(a, 0)
    assert nil.exp() == DSeries(tuple(exp_by_powers(list(nil.coeffs), r)))
    unit = with_constant(a, 1)
    assert unit.log() == DSeries(tuple(log_by_powers(list(unit.coeffs), r)))


@settings(max_examples=60, deadline=None)
@given(any_series)
def test_exp_powers_match_power_sums(a):
    r = a.dmax + 1
    g = with_constant(a, 0)
    kernels = fraction_rows(g._kernels_of(g))
    assert len(kernels) == r
    for d, kernel in enumerate(kernels):
        assert kernel == exp_by_powers([d * c for c in g.coeffs], r)[: r - d]


@settings(max_examples=40, deadline=None)
@given(any_series)
def test_revert_exp_matches_fixed_point(a):
    g = with_constant(a, 0)
    h = g.revert_exp()
    assert h == DSeries(tuple(revert_by_fixed_point(list(g.coeffs), g.dmax + 1)))


# -- integer-numerator kernels on non-integral data ------------------------------


def wide_lists(size):
    return st.lists(wide, min_size=size, max_size=size)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: wide_lists(n + 1)), st.integers(1, 10))
def test_exp_and_log_match_fraction_oracles(cs, m):
    r = len(cs)
    g = [Fraction(0)] + cs[1:]
    for scale in (1, -m):
        assert list((DSeries(g) * scale).exp().coeffs) == exp_coeffs_fractions(g, scale, r)
    f = [Fraction(1)] + cs[1:]
    assert list(DSeries(tuple(f)).log().coeffs) == log_fractions(f)


def wide_exponent(n):
    """A series of dmax n with zero constant term and wide coefficients."""
    return wide_lists(n).map(lambda cs: DSeries((0, *cs)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7).flatmap(wide_exponent))
def test_exp_powers_match_power_sums_on_wide_denominators(g):
    # exp(g) and the running kernels are far from integral here, unlike
    # the series the pipelines pass in.
    r = g.dmax + 1
    kernels = fraction_rows(g._kernels_of(g))
    assert len(kernels) == r
    for d, kernel in enumerate(kernels):
        assert kernel == exp_by_powers([d * c for c in g.coeffs], r)[: r - d]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7).flatmap(wide_exponent))
def test_revert_exp_matches_lagrange_on_wide_denominators(g):
    # The round trip cannot see h's top coefficient, which a term Q^dmax
    # of h sends to index dmax + 1; only an oracle pins it.
    h = g.revert_exp()
    assert list(h.coeffs) == revert_by_lagrange(list(g.coeffs), g.dmax + 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(wide_lists(n + 1), wide_exponent(n))))
def test_substitute_matches_fraction_oracle(data):
    c, m = data
    r = len(c)
    # the oracle's kernels exp(d*m), formed by summing powers
    kernels = [exp_by_powers([d * x for x in m.coeffs], r) for d in range(r)]
    got = DSeries(tuple(c)).substitute(m)
    assert list(got.coeffs) == substitute_fractions(c, kernels)
    assert all(type(x) is Fraction for x in got.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(wide_lists(n + 1), wide_exponent(n))))
def test_unsubstitute_inverts_substitute_on_wide_denominators(data):
    cs, g = data
    u = DSeries(tuple(cs))
    assert u.substitute(g).unsubstitute(g) == u
    # the reversion route: undoing Q -> Q exp(g) is substituting by the
    # exponent of the inverse change
    assert u.unsubstitute(g) == u.substitute(g.revert_exp())
