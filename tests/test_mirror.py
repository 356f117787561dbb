import copy
import pickle
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwmirror import (
    DSeries,
    MirrorData,
    localp2_f,
    localp2_invariants,
    localp2_kd,
    naive_invariants,
    naive_series,
    quintic_crosscheck,
    quintic_f,
    quintic_invariants,
    reconstruct_p_quintic,
    solve_correction_series,
)
from gwmirror.mirror import _solve

from oracles import (
    bps_numbers,
    check_record,
    direct_sum,
    exp_by_powers,
    localization,
    localp2_coeff,
    naive_coeff,
    obstructions,
    recursion_rhs,
    sections,
    solve_fractions,
)
from strategies import wide_fractions as wide

QUINTIC_COUNTS = {
    1: Fraction(2875),
    2: Fraction(4876875, 8),  # 609250 + 2875/8
}

CUBIC_CONTACT_COUNTS = [
    Fraction(9),
    Fraction(135, 4),
    Fraction(244),
    Fraction(36999, 16),
    Fraction(635634, 25),
    Fraction(307095),
    Fraction(193919175, 49),
    Fraction(3422490759, 64),
]


# -- quintic -------------------------------------------------------------------


def test_quintic_f_degree_one():
    md = quintic_f(2)
    assert md.f0.coeffs[1] == 120
    assert md.f1.coeffs[1] == 770
    assert md.f2.coeffs[1] == 575


def test_quintic_f_is_the_series_from_i_equals_1():
    # quintic_f divides the factor 5H out of naive_series; the reference
    # product that starts at i = 1 has no such factor to begin with.
    md = quintic_f(30)
    for d in range(31):
        got = [md.f0.coeffs[d], md.f1.coeffs[d], md.f2.coeffs[d]]
        assert got == naive_coeff(4, 5, d, 1)[:3], d


def test_reconstruct_p_h_expansion():
    md = quintic_f(4)
    p = reconstruct_p_quintic(md)
    assert len(p) == 5
    assert p[0] == md.f0
    assert p[1] == md.f1
    assert p[2] == md.f1 * md.f1 * md.f0.inv() * Fraction(1, 2)
    # P_0 = F_0 exp(H m): the H^k part is F_0 m^k / k!
    m = md.f1 * md.f0.inv()
    assert p[4] == md.f0 * m * m * m * m * Fraction(1, 24)


@pytest.mark.parametrize("dmax", [0, 1, 6])
def test_localp2_f0_is_the_series_one(dmax):
    assert localp2_f(dmax).f0 == DSeries.monomial(0, dmax)


def test_reconstruct_p_of_the_plane_cubic_is_exp_of_h_f1():
    # F_0 = 1, so P_0 = exp(H F_1), whose H^k part is F_1^k / k!
    md = localp2_f(8)
    power = DSeries.monomial(0, 8)
    for k, part in enumerate(reconstruct_p_quintic(md)):
        assert part == power * Fraction(1, factorial(k)), k
        power = power * md.f1


def test_quintic_counts():
    assert dict(enumerate(quintic_invariants(2), start=1)) == QUINTIC_COUNTS


def test_quintic_empty_table():
    assert quintic_invariants(0) == ()


def test_quintic_crosscheck_agrees():
    for dmax in (1, 2, 4, 12, 30):
        assert quintic_crosscheck(dmax) == quintic_invariants(dmax)


def test_reversion_route_h4_part_is_minus_two_n_d():
    # The reversion route's H-division, run on through H^4, where the
    # crosscheck stops at H^3: for d >= 1 the corrected class has H^3 part
    # <H>_d = d n_d and H^4 part <tau_1(1)>_d = -2 n_d, the dilaton equation.
    dmax = 20
    md = quintic_f(dmax)
    p0 = reconstruct_p_quintic(md)
    quotient: list[DSeries] = []
    for k, acc in enumerate(naive_series(4, 5, dmax)):
        for j in range(1, k + 1):
            acc = acc - p0[j] * quotient[k - j]
        quotient.append(acc * md.inv0)
    h = md.m.revert_exp()
    h3, h4 = (quotient[k].substitute(h) for k in (3, 4))
    for d, n in enumerate(quintic_invariants(dmax), start=1):
        assert h3.coeff(d) == d * n
        assert h4.coeff(d) == -2 * n


def test_quintic_crosscheck_empty():
    assert quintic_crosscheck(0) == quintic_invariants(0) == ()


def test_crosscheck_request_twists_once_and_inverts_f0_twice(monkeypatch, capsys):
    # Both routes of one request read one cached naive series, and each
    # quintic_f forms the single 1/F_0 that its MirrorData hands to every
    # reader: _solve, reconstruct_p_quintic and the reversion route.
    from gwmirror import cli, hypergeom

    calls = {"_twist_classes": 0, "inv": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(
        hypergeom, "_twist_classes", counted("_twist_classes", hypergeom._twist_classes)
    )
    monkeypatch.setattr(DSeries, "inv", counted("inv", DSeries.inv))
    assert cli.main(["quintic", "--dmax", "12", "--crosscheck"]) == 0
    assert "crosscheck: ok" in capsys.readouterr().out
    assert calls == {"_twist_classes": 1, "inv": 2}


@pytest.mark.parametrize(
    "argv,exps,chains",
    [
        # localp2_invariants and localp2_kd each solve on their own m of
        # one value: two exp(m), one chain
        (["local-p2", "--dmax", "30", "--emit-kd"], 2, 1),
        # the two routes' equal m share a chain; the reversion's h builds one
        (["quintic", "--dmax", "12", "--crosscheck"], 3, 2),
    ],
    ids=["local-p2-emit-kd", "quintic-crosscheck"],
)
def test_request_builds_one_kernel_chain_per_exponent_value(
    argv, exps, chains, monkeypatch, capsys
):
    from gwmirror import cli
    from gwmirror.series import _power_rows

    calls = []
    exp = DSeries.exp
    monkeypatch.setattr(DSeries, "exp", lambda self: calls.append(self) or exp(self))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == exps
    assert _power_rows.cache_info().misses == chains


def test_quintic_resubstitution_reproduces_f2():
    md = quintic_f(6)
    table = quintic_invariants(6)
    assert recursion_rhs(md, table, lambda d: Fraction(d, 5)) == md.f2


def test_quintic_bps_numbers_are_integers():
    # Moebius-inverting the multiple-cover formula must give integers.
    bps = bps_numbers(list(quintic_invariants(60)))
    assert all(n.denominator == 1 for n in bps)
    assert bps[:5] == [2875, 609250, 317206375, 242467530000, 229305888887625]


# -- plane cubic ---------------------------------------------------------------


def test_localp2_f_degree_one():
    md = localp2_f(2)
    assert md.f1.coeffs[1] == 6
    assert md.f2.coeffs[1] == 9
    assert localp2_coeff(1) == [0, 6, 9]


def test_localp2_series_has_no_h0_part():
    md = localp2_f(30)
    # rebuild the series coefficients and compare with the oracle: past
    # degree 0, where F_0 is 1, the H^0 part is zero
    for d in range(1, 31):
        assert [md.f0.coeffs[d], md.f1.coeffs[d], md.f2.coeffs[d]] == localp2_coeff(d)


def test_localp2_table_matches_reference():
    assert list(localp2_invariants(8)) == CUBIC_CONTACT_COUNTS


def test_localp2_kd():
    table = localp2_invariants(3)
    kd = localp2_kd(3)
    # relation applied independently of the pipeline's own arithmetic
    assert len(kd) == len(table) == 3
    for d, (v, k) in enumerate(zip(table, kd), start=1):
        assert k == Fraction((-1) ** d) * v / (3 * d)
    assert kd == (Fraction(-3), Fraction(45, 8), Fraction(-244, 9))


def test_localp2_bps_numbers_are_integers():
    bps = bps_numbers(list(localp2_kd(120)))
    assert all(n.denominator == 1 for n in bps)
    assert bps[:8] == [-3, 6, -27, 192, -1695, 17064, -188454, 2228160]


def test_localp2_resubstitution_reproduces_f2():
    md = localp2_f(8)
    table = localp2_invariants(8)
    assert recursion_rhs(md, table, lambda d: 1) == md.f2


# -- the Yukawa coupling -----------------------------------------------------------
#
# The 3-point function <H, H, H> read from a table, kappa + sum_d d^3 N_d Q^d,
# equals kappa / (Delta F_0^2 (1 + theta m)^3) with theta = z d/dz and
# m = F_1/F_0, under Q = z exp(m) (Candelas, de la Ossa, Green and Parkes,
# Nucl. Phys. B 359, 1991); local P^2 has d^2 in place of d^3 and F_0 = 1
# (CKYZ 1999).  The right-hand side reads F_0 and F_1 only, not the solve.

YUKAWA_DMAX = 60


def _theta(s: DSeries) -> DSeries:
    return DSeries([d * c for d, c in enumerate(s.coeffs)])


def _yukawa_holds(values, power, kappa, delta, f0, m):
    one = DSeries.monomial(0, m.dmax)
    table = DSeries([kappa] + [d**power * v for d, v in enumerate(values, start=1)])
    w = one + _theta(m)
    denominator = (one - DSeries.monomial(1, m.dmax) * delta) * w * w * w * f0 * f0
    return table.substitute(m) == denominator.inv() * kappa


def test_quintic_table_satisfies_the_yukawa_identity():
    md = quintic_f(YUKAWA_DMAX)
    m = md.f1 * md.f0.inv()
    values = list(quintic_invariants(YUKAWA_DMAX))
    assert _yukawa_holds(values, 3, 5, 3125, md.f0, m)
    values[6] += 1
    assert not _yukawa_holds(values, 3, 5, 3125, md.f0, m)


def test_localp2_table_satisfies_the_yukawa_identity():
    md = localp2_f(YUKAWA_DMAX)
    values = list(localp2_invariants(YUKAWA_DMAX))
    assert _yukawa_holds(values, 2, 1, 27, md.f0, md.f1)
    values[6] += 1
    assert not _yukawa_holds(values, 2, 1, 27, md.f0, md.f1)


# -- torus localization -------------------------------------------------------------
#
# oracles.localization sums over the torus-fixed loci of the moduli space of
# stable maps and shares no code with the mirror route.  Each table is
# checked at two weight vectors, since the sum must not depend on them.


@pytest.mark.parametrize("weights", [(1, 4, 9, 23, 50), (5, -2, 13, -29, 71)])
def test_quintic_table_matches_localization(weights):
    oracle = tuple(localization(4, sections(5), d, weights) for d in (1, 2, 3))
    assert quintic_invariants(3) == oracle


def test_quintic_degree_four_matches_localization():
    # d = 4 takes about 0.7 s a weight vector, so one vector is checked
    weights = (1, 4, 9, 23, 50)
    assert quintic_invariants(4)[3] == localization(4, sections(5), 4, weights)


# The oracle against published values for complete intersections, which the
# package does not compute yet: the 27 lines on a cubic surface, and N_1, N_2
# of the four Calabi-Yau threefolds of Libgober and Teitelbaum (IMRN 1993),
# where N_2 = n_2 + n_1/8.  Each ambient P^n takes the first n + 1 weights.
@pytest.mark.parametrize(
    "weights", [(1, 4, 9, 23, 50, 97, 131, 199), (5, -2, 13, -29, 71, -101, 157, -211)]
)
@pytest.mark.parametrize(
    "n,degrees,values",
    [
        (3, (3,), [27]),
        (5, (3, 3), [1053, Fraction(423549, 8)]),
        (5, (2, 4), [1280, 92448]),
        (6, (2, 2, 3), [720, 22518]),
        (7, (2, 2, 2, 2), [512, 9792]),
    ],
    ids=["cubic-surface", "3,3", "2,4", "2,2,3", "2,2,2,2"],
)
def test_localization_gives_the_published_complete_intersection_values(
    n, degrees, values, weights
):
    bundle = direct_sum(*(sections(l) for l in degrees))
    got = [localization(n, bundle, d, weights[: n + 1]) for d in range(1, len(values) + 1)]
    assert got == values


@pytest.mark.parametrize("weights", [(1, 4, 9), (5, -2, 13)])
def test_localp2_kd_matches_localization_with_the_opposite_sign(weights):
    # The oracle integrates e(H^1(C, f^*O(-3))), which gives K_1 = 3;
    # localp2_kd reads K_d off v_d with the opposite sign.
    oracle = tuple(localization(2, obstructions(3), d, weights) for d in range(1, 6))
    assert oracle[0] == 3
    assert localp2_kd(5) == tuple(-k for k in oracle)


# -- structural identities ---------------------------------------------------------


def test_quartic_k3_has_no_corrections():
    # K3 surfaces have vanishing Gromov-Witten invariants: Clausen's identity
    # F_0 F_2 = F_1^2 / 2 makes every U_d = (d/4) u_d of the quartic's
    # recursion zero, whatever the weight.
    dmax = 100
    f0, f1, f2 = (h * Fraction(1, 4) for h in naive_series(3, 4, dmax)[1:4])
    assert _solve(MirrorData(f0, f1, f2)) == (0,) * dmax


def _integral_with_head(series, head):
    """Whether every coefficient is an integer and the first ones are head:
    a mirror map exp(F_1/F_0) is integral to every degree (Lian-Yau 1995;
    Krattenthaler-Rivoal, Duke 2010)."""
    coeffs = series.coeffs
    return all(c.denominator == 1 for c in coeffs) and list(coeffs[: len(head)]) == head


def test_quintic_mirror_map_is_integral():
    md = quintic_f(150)
    assert _integral_with_head((md.f1 * md.f0.inv()).exp(), [1, 770, 1014275, 1703916750])


def test_localp2_mirror_map_is_integral():
    # F_0 = 1 here
    assert _integral_with_head(localp2_f(250).f1.exp(), [1, 6, 63, 866])


@pytest.mark.parametrize(
    "n,head",
    [(3, [1, 104, 15188]), (5, [1, 6264, 87103188]), (6, [1, 56196, 9646450758])],
    ids=["n=3", "n=5", "n=6"],
)
def test_hypersurface_mirror_map_is_integral(n, head):
    # the degree-(n+1) hypersurface in P^n: its H^1 and H^2 parts are
    # (n+1) F_0 and (n+1) F_1, so their quotient is m = F_1/F_0
    _, h1, h2 = naive_series(n, n + 1, 60)[:3]
    assert _integral_with_head((h2 * h1.inv()).exp(), head)


# -- correction-free low degrees ---------------------------------------------------


def test_naive_invariants_plane_conic():
    (entry,) = naive_invariants(4, 2, 1)
    assert list(entry.coeffs) == [0, 4, -8, 8, 0]
    assert list(entry.coeffs) == naive_coeff(4, 2, 1, 0)


@pytest.mark.parametrize("n,l", [(3, 1), (3, 2), (4, 3), (5, 2), (6, 5)])
def test_naive_invariants_match_oracle(n, l):
    entries = naive_invariants(n, l, 20)
    assert len(entries) == 20
    for d, entry in enumerate(entries, start=1):
        assert list(entry.coeffs) == naive_coeff(n, l, d, 0), d


@pytest.mark.parametrize("n,l", [(4, 2), (4, 3), (3, 1), (5, 4)])
def test_naive_invariants_divisible_by_h(n, l):
    for entry in naive_invariants(n, l, 3):
        assert entry.coeffs[0] == 0


@pytest.mark.parametrize(
    "pipeline",
    [
        quintic_invariants,
        quintic_crosscheck,
        localp2_invariants,
        localp2_kd,
        lambda dmax: naive_invariants(4, 3, dmax),
    ],
    ids=["quintic", "crosscheck", "localp2", "localp2_kd", "naive"],
)
def test_negative_dmax_rejected(pipeline):
    with pytest.raises(ValueError, match="dmax must be non-negative"):
        pipeline(-1)


def test_naive_invariants_rejects_high_degree():
    with pytest.raises(ValueError, match="at most n-1"):
        naive_invariants(4, 4, 2)  # l = n has no worked recursion here
    with pytest.raises(ValueError, match="at most n-1"):
        naive_invariants(4, 5, 2)


def test_hyperplane_in_p3_case():
    from gwmirror import ambient_I, hyper_factor

    entries = naive_invariants(3, 1, 3)
    for d, entry in enumerate(entries, start=1):
        assert entry == hyper_factor(1, d, 4) * ambient_I(3, d)


# -- results -------------------------------------------------------------------


@pytest.mark.parametrize(
    "table", [quintic_invariants, quintic_crosscheck, localp2_invariants, localp2_kd]
)
def test_tables_are_tuples_of_fractions(table):
    # Entry i belongs to degree i + 1; an empty request gives ().
    assert table(0) == ()
    values = table(3)
    assert type(values) is tuple and len(values) == 3
    assert all(type(v) is Fraction for v in values)


# -- records --------------------------------------------------------------------


def test_mirror_data_is_a_record():
    f0, f1, f2 = DSeries((1, 2)), DSeries((0, 1)), DSeries((0, 3))
    md = MirrorData(f0, f1, f2)
    check_record(md, f0=f0, f1=f1, f2=f2)
    assert repr(md) == (
        "MirrorData(f0=DSeries(coeffs=(Fraction(1, 1), Fraction(2, 1))), "
        "f1=DSeries(coeffs=(Fraction(0, 1), Fraction(1, 1))), "
        "f2=DSeries(coeffs=(Fraction(0, 1), Fraction(3, 1))))"
    )
    # field by field: equal series, not the same objects
    assert md == MirrorData(DSeries((1, 2)), DSeries((0, 1)), f2)
    assert md != MirrorData(f0, f1, f1)
    assert md != MirrorData(DSeries.monomial(0, 1), f1, f2)
    # 1/F_0 and m = F_1/F_0 are formed from the fields, and copies keep them
    assert md.inv0 == DSeries((1, -2)) and md.m == f1 * DSeries((1, -2))
    assert pickle.loads(pickle.dumps(md)).m == copy.copy(md).m == md.m
    with pytest.raises(AttributeError):
        md.m = f1
    assert quintic_f(3) == quintic_f(3) and hash(quintic_f(3)) == hash(quintic_f(3))


def test_mirror_data_needs_f0():
    # every case has an F_0, the plane cubic's the series 1, so None is not
    # a series: it has no inv
    f1, f2 = DSeries((0, 1)), DSeries((0, 3))
    with pytest.raises(AttributeError):
        MirrorData(None, f1, f2)


# -- solver property -------------------------------------------------------------

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(fracs, min_size=d, max_size=d),
            st.lists(fracs, min_size=d, max_size=d),
        )
    )
)
def test_solver_round_trips_on_random_data(data):
    """Solving the recursion divided by F_0 and putting the solution back
    through the kernels F_0 exp(d m), built here by repeated products,
    reproduces F_2, for arbitrary quintic-shaped F data.  The solver
    returns U_d = w_d u_d, so the quintic's weight d/5 is applied here."""
    dmax, f1_tail, f2_tail = data
    f0 = DSeries((Fraction(1),) + tuple(f1_tail))
    f1 = DSeries((Fraction(0),) + tuple(f1_tail))
    f2 = DSeries((Fraction(0),) + tuple(f2_tail))
    m = f1 * f0.inv()
    e1 = m.exp()
    kernels = [f0]
    for _ in range(dmax):
        kernels.append(kernels[-1] * e1)
    base = (f2 - f1 * m * Fraction(1, 2)) * f0.inv()
    counts = [5 * u / d for d, u in enumerate(solve_correction_series(base, m), start=1)]
    acc = f1 * f1 * f0.inv() * Fraction(1, 2)
    for d, n in enumerate(counts, start=1):
        acc = acc + DSeries.monomial(d, dmax) * kernels[d] * (Fraction(d, 5) * n)
    assert acc == f2


def test_solver_rejects_kernel_without_unit_constant():
    # u_1 = 1/2 would solve this system with the kernel exp(1 + q), whose
    # constant coefficient e is outside the triangular form: the exponent
    # must have zero constant term.
    base = DSeries((0, 1, 0))
    with pytest.raises(ValueError, match="zero constant term"):
        solve_correction_series(base, DSeries((1, 1, 0)))
    assert solve_correction_series(base, DSeries((0, 0, 0))) == (1, 0)
    assert solve_correction_series(base, DSeries((0, 1, 0))) == (1, -1)


def test_solver_refuses_a_base_with_a_constant_term(monkeypatch):
    # sum_{d>=1} U_d Q^d exp(d m) has no constant term, so no U_d
    # solve this; checked before any work.
    monkeypatch.setattr(DSeries, "unsubstitute", lambda *args: pytest.fail("solve started"))
    with pytest.raises(ValueError, match="base must have zero constant term"):
        solve_correction_series(DSeries((7, 1, 2)), DSeries((0, 1, 1)))


def test_solver_reads_only_the_constant_term_of_base():
    # The refusal above reads base's index-0 coefficient alone: a solve
    # builds no Fraction for the other coefficients of base.
    base = DSeries((0, 1, 2))
    assert solve_correction_series(base, DSeries((0, 1, 1))) == (1, 1)
    assert base._coeffs is None


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(wide, min_size=n, max_size=n),
            st.lists(wide, min_size=n, max_size=n),
        )
    )
)
def test_solver_matches_fraction_oracle(data):
    base_tail, m_tail = data
    # base and m both have zero constant term; the solver refuses any other
    base, m = [Fraction(0)] + base_tail, [Fraction(0)] + m_tail
    r = len(base)
    # the oracle's kernels exp(d*m), formed by summing powers
    kernels = [exp_by_powers([d * x for x in m], r) for d in range(r)]
    got = solve_correction_series(DSeries(tuple(base)), DSeries(tuple(m)))
    assert list(got) == solve_fractions(base, kernels)
    assert all(type(u) is Fraction for u in got)
