"""Acceptance suite: one test per shipping criterion.

Every numeric comparison is exact rational equality (tolerance zero); the
stated runtime budgets are asserted with wall-clock checks.  Each test
prints one PASS line (visible with pytest -s; a failed assert marks FAIL).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from gwmirror import (
    CohClass,
    DSeries,
    LemmaConfig,
    build_p,
    build_q,
    check_a1,
    check_a2,
    check_closed_forms,
    localp2_f,
    localp2_invariants,
    naive_series,
    quintic_crosscheck,
    quintic_f,
    quintic_invariants,
    sample_config,
    solve_correction_series,
)
from gwmirror.multipoly import MultiPoly

from oracles import localp2_coeff, naive_coeff, recursion_rhs


def report(n: int, name: str) -> None:
    print(f"criterion {n} ({name}): PASS")


def test_criterion_1_quintic_reproduction():
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "gwmirror", "quintic", "--dmax", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    assert r.returncode == 0
    assert r.stdout == "d,value\n1,2875\n2,4876875/8\n"
    assert quintic_invariants(2) == (
        Fraction(2875),
        Fraction(609250) + Fraction(2875, 8),
    )
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, "quintic reproduction")


def test_criterion_2_quintic_crosscheck():
    t0 = time.perf_counter()
    recursion = quintic_invariants(6)
    reversion = quintic_crosscheck(6)
    elapsed = time.perf_counter() - t0
    assert recursion == reversion
    assert len(recursion) == 6
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(2, "quintic cross-check dmax=6")


def test_criterion_3_local_p2_table():
    expected = [
        "9",
        "135/4",
        "244",
        "36999/16",
        "635634/25",
        "307095",
        "193919175/49",
        "3422490759/64",
    ]
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "gwmirror", "local-p2", "--dmax", "8", "--format", "json"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    assert r.returncode == 0
    record = json.loads(r.stdout)
    assert [e["value"] for e in record["entries"]] == expected
    assert [str(v) for v in localp2_invariants(8)] == expected
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(3, "local-P2 table dmax=8")


def _sampled_configs(seed: int, count: int = 20):
    rng = random.Random(seed)
    return [
        sample_config(rng, rng.randint(0, 4), rng.randint(1, 5)) for _ in range(count)
    ]


def test_criterion_4_a1_suite():
    t0 = time.perf_counter()
    for cfg in _sampled_configs(seed=20260201):
        finding = check_a1(build_p(cfg))
        assert finding is None, f"{cfg!r}: {finding}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(4, "second log-derivatives of P vanish, 20 seeded configs")


def test_criterion_5_a2_suite_and_q_closed_form():
    for cfg in _sampled_configs(seed=20260202):
        finding = check_a2(build_q(cfg))
        assert finding is None, f"{cfg!r}: {finding}"
        zero_c = LemmaConfig(cfg.pairs, (Fraction(0),) * cfg.nvars, cfg.xdeg_max)
        t = MultiPoly.t(zero_c.nvars, zero_c.xdeg_max)
        ones = MultiPoly.one(zero_c.nvars, zero_c.xdeg_max)
        total = ones
        for i in range(zero_c.nvars):
            total = total + MultiPoly.x(i, zero_c.nvars, zero_c.xdeg_max)
        assert build_q(zero_c) == (t * total.log()).exp()
    report(5, "t*d/dt-1 annihilates ln Q, plus Q closed form at c=0")


def test_criterion_6_closed_form_factorization():
    rng = random.Random(20260203)
    done = 0
    while done < 10:
        nvars = rng.randint(2, 4)
        pairs = tuple(((0, 0), (1, 0), (0, 1))[rng.randrange(3)] for _ in range(nvars))
        if not any(p == (0, 1) for p in pairs) or all(p == (0, 1) for p in pairs):
            continue  # require a genuinely mixed configuration
        cfg = LemmaConfig(pairs, (Fraction(0),) * nvars, rng.randint(2, 5))
        finding = check_closed_forms(cfg, build_p(cfg), build_q(cfg))
        assert finding is None, f"{cfg!r}: {finding}"
        assert build_p(cfg).shear(1) == _p_closed_form(cfg)
        done += 1
    report(6, "P factors as exp(sum x_i t^a_i) * (1+sum x_j)^(z+t) at c=0")


def _p_closed_form(cfg: LemmaConfig) -> MultiPoly:
    v, xd = cfg.nvars, cfg.xdeg_max
    t = MultiPoly.t(v, xd)
    exp_arg = MultiPoly.zero(v, xd)
    binom = MultiPoly.zero(v, xd)
    for i, (a, b) in enumerate(cfg.pairs):
        xi = MultiPoly.x(i, v, xd)
        if b == 1:
            binom = binom + xi
        else:
            exp_arg = exp_arg + (xi * t if a == 1 else xi)
    zt = MultiPoly.z(v, xd) + t
    return exp_arg.exp() * (zt * (binom + 1).log()).exp()


def test_criterion_7_hypergeometric_spot_values():
    # The series carries the quintic's factor 5H.
    quintic = [comp.coeffs[1] for comp in naive_series(4, 5, 1)]
    assert [c / 5 for c in quintic[1:4]] == [120, 770, 575]
    assert quintic == naive_coeff(4, 5, 1, 0)
    local = localp2_f(1)
    assert local.f1.coeffs[1] == 6
    assert local.f2.coeffs[1] == 9
    assert localp2_coeff(1) == [0, 6, 9]
    report(7, "hypergeometric spot values vs brute-force oracle")


def test_criterion_8_property_suites():
    rng = random.Random(20260204)

    def rand_frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    def rand_coh(r):
        return CohClass(tuple(rand_frac() for _ in range(r)))

    def rand_series(dmax, constant=None):
        cs = [rand_frac() for _ in range(dmax + 1)]
        if constant is not None:
            cs[0] = constant
        return DSeries(tuple(cs))

    # ring axioms, 120 cases
    for _ in range(120):
        r = rng.randint(2, 5)
        a, b, c = rand_coh(r), rand_coh(r), rand_coh(r)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        d = rng.randint(0, 5)
        sa, sb, sc = rand_series(d), rand_series(d), rand_series(d)
        assert sa * sb == sb * sa
        assert (sa * sb) * sc == sa * (sb * sc)
        assert sa * (sb + sc) == sa * sb + sa * sc

    # inverse and exp/log round trips, 120 cases
    for _ in range(120):
        d = rng.randint(0, 6)
        unit = rand_series(d, constant=Fraction(rng.choice([1, 2, -1, 3]), 1))
        assert unit * unit.inv() == DSeries.monomial(0, d)
        nil = rand_series(d, constant=Fraction(0))
        assert nil.exp().log() == nil
        one_head = rand_series(d, constant=Fraction(1))
        assert one_head.log().exp() == one_head

    # substitution-reversion round trips, 120 cases
    for _ in range(120):
        d = rng.randint(1, 6)
        a = rand_series(d)
        g = rand_series(d, constant=Fraction(0))
        assert a.substitute(g).substitute(g.revert_exp()) == a

    # re-substitution: solved tables reproduce F_2 exactly
    md_q = quintic_f(8)
    assert recursion_rhs(md_q, quintic_invariants(8), lambda k: Fraction(k, 5)) == md_q.f2
    md_l = localp2_f(10)
    assert recursion_rhs(md_l, localp2_invariants(10), lambda k: 1) == md_l.f2
    for _ in range(120):
        d = rng.randint(1, 5)
        f0 = rand_series(d, constant=Fraction(1))
        f1 = rand_series(d, constant=Fraction(0))
        f2 = rand_series(d, constant=Fraction(0))
        m = f1 * f0.inv()
        e1 = m.exp()
        kernels = [f0]
        for _ in range(d):
            kernels.append(kernels[-1] * e1)
        base = (f2 - f1 * m * Fraction(1, 2)) * f0.inv()
        # the solver returns U_k = w_k u_k; the quintic's weight is k/5
        counts = [5 * u / k for k, u in enumerate(solve_correction_series(base, m), start=1)]
        rebuilt = f1 * f1 * f0.inv() * Fraction(1, 2)
        for k, n in enumerate(counts, start=1):
            rebuilt = rebuilt + DSeries.monomial(k, d, Fraction(k, 5) * n) * kernels[k]
        assert rebuilt == f2
    report(8, "property suites, >=100 cases each")


def test_criterion_9_crosscheck_dmax_40():
    # The reversion route costs O(dmax^3) coefficient products; the
    # fixed-point reversion it replaced was O(dmax^4) and took minutes here.
    t0 = time.perf_counter()
    reversion = quintic_crosscheck(40)
    recursion = quintic_invariants(40)
    elapsed = time.perf_counter() - t0
    assert reversion == recursion
    assert len(recursion) == 40
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(9, "quintic cross-check dmax=40 within 5 s")
