from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwmirror import DSeries, ambient_I, hyper_factor, naive_series, solve_correction_series
from gwmirror import series as series_mod

from oracles import (
    exp_by_powers,
    exp_coeffs_fractions,
    fraction_rows,
    int_rows,
    lambert_w,
    log_by_powers,
    log_fractions,
    naive_coeff,
    pmul,
    revert_by_fixed_point,
    substitute_fractions,
)
from strategies import hpow, wide_fractions as wide


def ser(*coeffs, step=1):
    return DSeries(tuple(Fraction(c) for c in coeffs), step)


def with_constant(a, c0):
    """``a`` with its index-0 coefficient replaced by c0."""
    return DSeries((Fraction(c0),) + a.coeffs[1:], a.step)


# -- multiplication ------------------------------------------------------------


def test_mul_difference_of_squares():
    assert ser(1, 1, 0, 0) * ser(1, -1, 0, 0) == ser(1, 0, -1, 0)


def test_mul_identity():
    a = ser(3, Fraction(1, 2), -7)
    assert a * DSeries.one(2) == a


def test_geometric_telescope():
    geom = ser(1, 1, 1, 1, 1)
    assert geom * ser(1, -1, 0, 0, 0) == DSeries.one(4)


# -- inversion -----------------------------------------------------------------


def test_inv_geometric():
    assert ser(1, -1, 0, 0).inv() == ser(1, 1, 1, 1)


def test_inv_quintic_f0_head():
    f0 = ser(1, 120, 0, step=5)
    expected = ser(1, -120, 14400, step=5)  # frozen; verified by multiplying back
    inv = f0.inv()
    assert inv == expected
    assert f0 * inv == DSeries.one(2, step=5)


def test_inv_one():
    assert DSeries.one(3).inv() == DSeries.one(3)


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
    assert DSeries.one(3).substitute(DSeries.monomial(1, 3)) == DSeries.one(3)


def test_substitute_needs_zero_constant_exponent():
    with pytest.raises(ValueError, match="constant"):
        ser(1, 2).substitute(ser(1, 0))


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
    assert w == DSeries(tuple(lambert_w(dmax)), 1)


def test_revert_self_check_fires(monkeypatch):
    # Only the Lagrange step calls the exp recurrence with a negative scale;
    # the check's own exp and substitution use scale 1.  Spoiling the last
    # coefficient there makes every h_m wrong, and the round trip must say so.
    original = series_mod._exp_coeffs

    def spoiled(gn, gd, scale, length):
        e, ed = original(gn, gd, scale, length)
        return (e, ed) if scale > 0 else (e[:-1] + [e[-1] + ed], ed)

    monkeypatch.setattr(series_mod, "_exp_coeffs", spoiled)
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
    assert {c.step for c in comps} == {2}


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
    with pytest.raises(ValueError, match="shape"):
        ser(1, 2) * ser(1, 2, 3)
    with pytest.raises(ValueError, match="shape"):
        ser(1, 2, step=5) + ser(1, 2, step=3)


def test_str():
    assert str(DSeries((1, 0, Fraction(-1, 2)), step=5)) == "1 + -1/2*q^10"
    assert str(ser(0, 3, 0, Fraction(7, 3))) == "3*q^1 + 7/3*q^3"
    assert str(ser(0, 0)) == "0"


# -- kernels ----------------------------------------------------------------------


def test_exp_powers():
    # [exp(d*q)]_k = d^k / k!; entry d stops at index dmax - d, the last
    # one a term q^d times the kernel reaches below the truncation.
    full = [ser(*(Fraction(d**k, factorial(k)) for k in range(4))) for d in range(4)]
    g = DSeries.monomial(1, 3)
    assert fraction_rows(g.exp_powers()) == [list(w.coeffs[: 4 - d]) for d, w in enumerate(full)]
    first = ser(1, 2, 3, 4)
    want = [list((first * w).coeffs[: 4 - d]) for d, w in enumerate(full)]
    assert fraction_rows(g.exp_powers(first)) == want
    with pytest.raises(ValueError, match="shape"):
        g.exp_powers(ser(1, 2))


def test_substitute_kernel_rows_must_reach_dmax_minus_d():
    c = ser(1, 2, 3)
    kernels = ([(1, 0, 0), (1, 5), (1,)], 1)
    assert str(c.substitute(kernels)) == "1 + 2*q^1 + 13*q^2"
    assert str(c.substitute(([(2, 0, 0), (2, 10), (2,)], 2))) == "1 + 2*q^1 + 13*q^2"
    with pytest.raises(ValueError, match="kernel row 1 must reach index 1"):
        c.substitute(([(1, 0, 0), (1,), (1,)], 1))
    with pytest.raises(ValueError, match="kernel row 2 must reach index 0"):
        c.substitute(([(1, 0, 0), (1, 5), ()], 1))
    with pytest.raises(ValueError, match="kernel denominator must be positive"):
        c.substitute(([(1, 0, 0), (1, 5), (1,)], 0))
    # entries past index dmax - d are ignored
    assert c.substitute(([(1, 0, 0, 7), (1, 5, 9), (1, 4, 4)], 1)) == c.substitute(kernels)


def test_exp_powers_are_built_once(monkeypatch):
    # The kernels of g alone are kept on g: substituting g, or passing its
    # kernels, after the first build forms no second exp(g).
    g, c = ser(0, 1, 2, 3), ser(1, 2, 3, 4)
    kernels = g.exp_powers()
    calls = []
    exp = DSeries.exp
    monkeypatch.setattr(DSeries, "exp", lambda self: calls.append(self) or exp(self))
    assert g.exp_powers() is kernels
    assert c.substitute(g) == c.substitute(kernels)
    assert calls == []
    g.exp_powers(c)  # a first factor builds its own rows
    assert calls == [g]


# One contract for kernel rows, whichever consumer reads them: row d must
# reach index dmax - d, and rows past dmax are ignored.
KERNEL_ROW_CASES = {
    "missing": ([(1, 0, 0), (1, 5)], "kernel row 2 must reach index 0"),
    "short": ([(1, 0, 0), (1,), (1,)], "kernel row 1 must reach index 1"),
    "extra": ([(1, 0, 0), (1, 5), (1,), (7, 7, 7)], None),
}
KERNEL_ROW_CONSUMERS = {
    "substitute": (lambda rows: list(ser(0, 1, 0).substitute((rows, 1)).coeffs), [0, 1, 5]),
    "solver": (lambda rows: solve_correction_series(ser(0, 1, 0), (rows, 1), [1, 1, 1]), [1, -5]),
}


@pytest.mark.parametrize("consumer", KERNEL_ROW_CONSUMERS)
@pytest.mark.parametrize("case", KERNEL_ROW_CASES)
def test_kernel_row_contract(case, consumer):
    rows, error = KERNEL_ROW_CASES[case]
    read, want = KERNEL_ROW_CONSUMERS[consumer]
    if error is None:
        assert read(rows) == want
    else:
        with pytest.raises(ValueError, match=error):
            read(rows)


# -- algebraic properties --------------------------------------------------------

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_of(dmax, step=1):
    return st.lists(fracs, min_size=dmax + 1, max_size=dmax + 1).map(
        lambda cs: DSeries(tuple(cs), step)
    )


# dmax 0..10 and step 1..5: the kernels must not depend on the step.
any_series = st.tuples(st.integers(0, 10), st.integers(1, 5)).flatmap(
    lambda shape: series_of(*shape)
)


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
    assert a * a.inv() == DSeries.one(a.dmax)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 5).flatmap(series_of))
def test_series_exp_log_inverse(a):
    a = with_constant(a, 0)
    assert a.exp().log() == a
    assert (a + DSeries.one(a.dmax)).log().exp() == a + DSeries.one(a.dmax)


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
    assert nil.exp() == DSeries(tuple(exp_by_powers(list(nil.coeffs), r)), a.step)
    unit = with_constant(a, 1)
    assert unit.log() == DSeries(tuple(log_by_powers(list(unit.coeffs), r)), a.step)


@settings(max_examples=60, deadline=None)
@given(any_series, fracs)
def test_exp_powers_match_power_sums(a, c0):
    r = a.dmax + 1
    g = with_constant(a, 0)
    first = with_constant(a, c0)
    kernels = fraction_rows(g.exp_powers(first))
    assert len(kernels) == r
    for d, kernel in enumerate(kernels):
        full = exp_by_powers([d * c for c in g.coeffs], r)
        assert kernel == pmul(list(first.coeffs), full, r)[: r - d]


@settings(max_examples=40, deadline=None)
@given(any_series)
def test_revert_exp_matches_fixed_point(a):
    g = with_constant(a, 0)
    h = g.revert_exp()
    assert h == DSeries(tuple(revert_by_fixed_point(list(g.coeffs), g.dmax + 1)), g.step)


# -- integer-numerator kernels on non-integral data ------------------------------


def wide_lists(size):
    return st.lists(wide, min_size=size, max_size=size)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: wide_lists(n + 1)), st.integers(1, 10))
def test_exp_and_log_match_fraction_oracles(cs, m):
    r = len(cs)
    g = [Fraction(0)] + cs[1:]
    gn, gd = int_rows([g])
    for scale in (1, -m):
        nums, den = series_mod._exp_coeffs(gn[0], gd, scale, r)
        assert [Fraction(x, den) for x in nums] == exp_coeffs_fractions(g, scale, r)
    f = [Fraction(1)] + cs[1:]
    assert list(DSeries(tuple(f)).log().coeffs) == log_fractions(f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(wide_lists(n + 1), wide_lists(n + 1))))
def test_exp_powers_match_power_sums_on_wide_denominators(pair):
    # exp(g) and the running kernels are far from integral here, unlike
    # the series the pipelines pass in.
    first, g = pair
    g = [Fraction(0)] + g[1:]
    r = len(g)
    kernels = fraction_rows(DSeries(tuple(g)).exp_powers(DSeries(tuple(first))))
    assert len(kernels) == r
    for d, kernel in enumerate(kernels):
        full = exp_by_powers([d * c for c in g], r)
        assert kernel == pmul(first, full, r)[: r - d]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(wide_lists(n + 1), st.lists(wide_lists(n + 1), min_size=n + 1, max_size=n + 1))
    )
)
def test_substitute_matches_fraction_oracle(data):
    c, rows = data
    # non-integral kernels, entry d cut at index dmax - d as exp_powers cuts them
    kernels = [tuple(row[: len(c) - d]) for d, row in enumerate(rows)]
    got = DSeries(tuple(c)).substitute(int_rows(kernels))
    assert list(got.coeffs) == substitute_fractions(c, kernels)
