"""The benchmark workloads: per-request inputs, the correctness gate
and the span counts a traced request must show.

Every request is one ``gwmirror`` CLI invocation.  The workload seed only
picks per-request inputs (the ``--format`` of a table request, the
``--seed`` of a lemma request); the program never sees it.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

FORMATS = ("pretty", "json", "csv")

# sha256 of the CLI's stdout bytes, pinned from the seed commit.
DIGESTS = {
    "quintic-table": {
        "pretty": "e0d392a663c9b90b01e58ace7ebe597bc020f77b078253ea90fa6e3873ecc072",
        "json": "489bf68e511de4b9714578fde124fba91fa4487e19c78fe78a34c3446c2c7cd1",
        "csv": "123062c514d50a881672bb428e6aa405d9d302f548b10f1d654e583e15d0e8ca",
    },
    "quintic-crosscheck": {
        "pretty": "057abc4da9dc6dd0dd1fa161189c6d8889cbd3ac8327d68f1b8a57097893418c",
        "json": "2ff89d83d31814c99d9255311177561caa945ea25b0ff25f8f1011f6b5df2320",
        "csv": "7fd5fd6cf1987d724fdd64e7581614edf5766bfda2b9d69bd43e469cae1ff225",
    },
    "localp2-kd": {
        "pretty": "db0ff093f04e7684b2589c744a1cc16f40bdc24e77fec7525497fe5fa824c0cf",
        "json": "a6e1cc403f19dc0bd5f64467f43d6adbac1c03a336ddf9eec1bc29c165214979",
        "csv": "21a818a1c862fd330fb06f4ea7a4202763568a41041e7a3bc385c9be21b0cf21",
    },
}

# Heads of the integer BPS numbers the Moebius oracle must reproduce.
QUINTIC_BPS_HEAD = (2875, 609250, 317206375, 242467530000)
LOCALP2_BPS_HEAD = (-3, 6, -27, 192, -1695)

LEMMA_XDEG = 4
LEMMA_TRIALS = 24


class GateError(Exception):
    """A request's output failed the correctness gate."""


# -- oracles -------------------------------------------------------------------


def mobius(n: int) -> int:
    """The Moebius function mu(n)."""
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def bps_numbers(values: list[Fraction]) -> list[Fraction]:
    """Invert the multiple-cover formula T_d = sum_{k|d} N_{d/k} / k^3.

    ``values[d-1]`` is T_d; returns [N_1, ..., N_dmax].  The geometry
    makes every N_d an integer, which is the integrality oracle.
    """
    out = []
    for d in range(1, len(values) + 1):
        out.append(
            sum(
                (Fraction(mobius(k), k**3) * values[d // k - 1]
                 for k in range(1, d + 1) if d % k == 0),
                Fraction(0),
            )
        )
    return out


def check_integral(values: list[Fraction], head: tuple[int, ...], what: str) -> None:
    bps = bps_numbers(values)
    for d, n in enumerate(bps, start=1):
        if n.denominator != 1:
            raise GateError(f"{what}: BPS number at d={d} is not an integer: {n}")
    if tuple(bps[: len(head)]) != head[: len(bps)]:
        raise GateError(f"{what}: BPS head {bps[:len(head)]} != {list(head)}")


def parse_table(text: str, fmt: str) -> list[dict[str, str]]:
    """Rows of a rendered CLI table as {column: cell} dicts."""
    if fmt == "json":
        return [{k: str(v) for k, v in row.items()} for row in json.loads(text)["entries"]]
    if fmt == "csv":
        lines = text.splitlines()
        cols = lines[0].split(",")
        return [dict(zip(cols, line.split(","))) for line in lines[1:]]
    lines = [ln for ln in text.splitlines() if not re.match(r"\w[\w-]*: ", ln)]
    cols = lines[0].split()
    return [dict(zip(cols, line.split())) for line in lines[1:]]


# -- workloads -----------------------------------------------------------------


class TableWorkload:
    def __init__(self, name, argv, dmax, expect):
        self.name = name
        self.base_argv = argv
        self.dmax = dmax
        self.expect = expect

    def argv(self, rng) -> list[str]:
        return self.base_argv + ["--format", rng.choice(FORMATS)]

    def check(self, argv: list[str], code: int, stdout: bytes, stderr: bytes) -> None:
        fmt = argv[-1]
        if code != 0:
            raise GateError(f"exit code {code}")
        if hashlib.sha256(stdout).hexdigest() != DIGESTS[self.name][fmt]:
            raise GateError(f"stdout digest differs from the pinned {fmt} output")
        text = stdout.decode("utf-8")
        rows = parse_table(text, fmt)
        if [int(r["d"]) for r in rows] != list(range(1, self.dmax + 1)):
            raise GateError("table degrees are not 1..dmax")
        values = [Fraction(r["value"]) for r in rows]
        if "kd" in rows[0]:
            kd = [Fraction(r["kd"]) for r in rows]
            for d, (v, k) in enumerate(zip(values, kd), start=1):
                if v != (-1) ** d * 3 * d * k:
                    raise GateError(f"v_d != (-1)^d 3d K_d at d={d}")
            check_integral(kd, LOCALP2_BPS_HEAD, "K_d")
        else:
            check_integral(values, QUINTIC_BPS_HEAD, "n_d")


class LemmaWorkload:
    name = "lemma-a1"
    # A trial line, e.g. "trial=1 seed=5 xdeg=4 pairs=(0,1),(1,0),(0,1) c=2/9,0,-2 a1 PASS".
    LINE = re.compile(
        rf"trial=(\d+) seed=(-?\d+) xdeg={LEMMA_XDEG} pairs=((?:\([01],[01]\),?){{3}})"
        r" c=(\S+) (a1|closed-form) PASS"
    )

    def __init__(self, expect):
        self.expect = expect

    def argv(self, rng) -> list[str]:
        return ["lemma", "a1", "--vars", "3", "--xdeg", str(LEMMA_XDEG),
                "--trials", str(LEMMA_TRIALS), "--seed", str(rng.randrange(10**6))]

    def check(self, argv: list[str], code: int, stdout: bytes, stderr: bytes) -> None:
        if code != 0:
            raise GateError(f"exit code {code}")
        seed = argv[-1]
        trial, closed_form_due = 0, False
        for line in stdout.decode("utf-8").splitlines():
            m = self.LINE.fullmatch(line)
            if m is None:
                raise GateError(f"unexpected lemma line: {line!r}")
            if m.group(2) != seed:
                raise GateError(f"line carries seed {m.group(2)}, request used {seed}")
            # Each trial prints its a1 line, then a closed-form line when all c_i are 0.
            want = (trial, "closed-form") if closed_form_due else (trial + 1, "a1")
            if (int(m.group(1)), m.group(5)) != want:
                raise GateError(f"expected trial={want[0]} {want[1]}, got {line!r}")
            trial = want[0]
            closed_form_due = want[1] == "a1" and all(
                Fraction(c) == 0 for c in m.group(4).split(",")
            )
        if trial != LEMMA_TRIALS or closed_form_due:
            raise GateError(f"output stops after trial {trial} of {LEMMA_TRIALS}")
        if stderr.decode("utf-8").strip() != f"{LEMMA_TRIALS} trials, all passed":
            raise GateError("lemma summary line missing or not 'all passed'")


# Exact span counts every traced request must show; ">0" asks for at least
# one call.  A wrapper that failed to patch a name reads zero and trips these.
_NO_SERIES = {
    f"series.{op}.calls": 0 for op in ("mul", "inv", "exp", "log", "substitute", "revert_exp")
}
_NO_LEMMA = {"multipoly.mul.calls": 0, "loglinear.build_p.calls": 0}

WORKLOADS = {
    w.name: w
    for w in (
        TableWorkload(
            "quintic-table", ["quintic", "--dmax", "30"], 30,
            {"cli.main.calls": 1, "mirror.quintic_invariants.calls": 1,
             "mirror.quintic_f.calls": 1, "hypergeom.naive_series.calls": 1,
             "hypergeom.ambient_I.calls": 31, "mirror.solve_correction_series.calls": 1,
             "series.exp.calls": 1, "series.mul.calls": ">0", "cohomology.mul.calls": ">0",
             "series.substitute.calls": 0, "series.revert_exp.calls": 0, **_NO_LEMMA},
        ),
        TableWorkload(
            "quintic-crosscheck", ["quintic", "--dmax", "12", "--crosscheck"], 12,
            {"cli.main.calls": 1, "mirror.quintic_invariants.calls": 1,
             "mirror.quintic_crosscheck.calls": 1, "mirror.quintic_f.calls": 2,
             "mirror.reconstruct_p_quintic.calls": 1, "hypergeom.naive_series.calls": 3,
             "series.revert_exp.calls": 1, "series.substitute.calls": ">0", **_NO_LEMMA},
        ),
        TableWorkload(
            "localp2-kd", ["local-p2", "--dmax", "30", "--emit-kd"], 30,
            {"cli.main.calls": 1, "mirror.localp2_invariants.calls": 2,
             "mirror.localp2_kd.calls": 1, "mirror.localp2_f.calls": 2,
             "mirror.solve_correction_series.calls": 2, "hypergeom.ambient_I.calls": 60,
             "hypergeom.naive_series.calls": 0, "mirror.quintic_f.calls": 0,
             "series.exp.calls": 2, "series.substitute.calls": 0, **_NO_LEMMA},
        ),
        LemmaWorkload(
            {"cli.main.calls": 1, "loglinear.sample_config.calls": LEMMA_TRIALS,
             "loglinear.check_a1.calls": LEMMA_TRIALS, "loglinear.build_p.calls": ">0",
             "multipoly.mul.calls": ">0", "multipoly.log.calls": ">0",
             "cohomology.mul.calls": 0, "hypergeom.ambient_I.calls": 0, **_NO_SERIES},
        ),
    )
}


def check_expected_spans(expect: dict, metrics: dict) -> None:
    """Raise GateError unless the traced counts match ``expect``."""
    for name, want in expect.items():
        got = metrics.get(name, 0)
        if (got <= 0) if want == ">0" else (got != want):
            raise GateError(f"traced {name} = {got}, expected {want}")
