import ast
import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

CMD = [sys.executable, "-m", "gwmirror"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run(*args, **kwargs):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, **kwargs
    )


# -- quintic ---------------------------------------------------------------------


def test_quintic_default_output_has_exact_values():
    r = run("quintic", "--dmax", "2")
    assert r.returncode == 0
    assert "2875" in r.stdout
    assert "4876875/8" in r.stdout


def test_quintic_csv_bytes():
    r = run("quintic", "--dmax", "1", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout == "d,value\n1,2875\n"


def test_quintic_json_schema():
    r = run("quintic", "--dmax", "2", "--format", "json")
    record = json.loads(r.stdout)
    assert record["case"] == "quintic"
    assert record["params"] == {"dmax": 2}
    assert record["entries"] == [
        {"d": 1, "value": "2875"},
        {"d": 2, "value": "4876875/8"},
    ]
    assert record["crosscheck"] == "absent"


def test_quintic_crosscheck_flag():
    r = run("quintic", "--dmax", "3", "--crosscheck", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["crosscheck"] == "ok"


def _crosscheck_in_process(capsys):
    from gwmirror import cli

    code = cli.main(["quintic", "--dmax", "3", "--crosscheck"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quintic_crosscheck_warm_repeat_is_byte_identical(capsys):
    # The second request reads the naive series the first one cached.
    from gwmirror import cli

    outputs = []
    for _ in range(2):
        assert cli.main(["quintic", "--dmax", "12", "--crosscheck"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == "" and outputs[0].out.endswith("crosscheck: ok\n")


def _off_by_one_at_2(method):
    """``method`` with 1 added to index 2 of the series it returns."""
    from gwmirror import DSeries

    def spoiled(self, *args):
        c = list(method(self, *args).coeffs)
        c[2] += 1
        return DSeries(c)

    return spoiled


ROUND_TRIP_FAILURE = (
    1,
    "",
    "consistency failure: series reversion failed its round-trip check (internal bug)\n",
)


def test_quintic_crosscheck_self_check_failure_is_exit_1_with_one_line(monkeypatch, capsys):
    from gwmirror import DSeries

    # Off by one at index 2 of -g, which only the reversion forms: the
    # recursion route is untouched, and revert_exp fails its round-trip check.
    monkeypatch.setattr(DSeries, "__neg__", _off_by_one_at_2(DSeries.__neg__))
    assert _crosscheck_in_process(capsys) == ROUND_TRIP_FAILURE


def test_quintic_crosscheck_unsubstitute_fault_is_exit_1_with_one_line(monkeypatch, capsys):
    from gwmirror import DSeries

    # The recursion route and the reversion both run unsubstitute, so a
    # fault there can spoil both tables; the round trip, which runs only
    # substitute, must still refuse it.
    monkeypatch.setattr(DSeries, "unsubstitute", _off_by_one_at_2(DSeries.unsubstitute))
    assert _crosscheck_in_process(capsys) == ROUND_TRIP_FAILURE


def test_quintic_crosscheck_residue_check_fires(monkeypatch, capsys):
    from gwmirror import DSeries, cli, mirror

    # Only the reversion route reads P_0: off by one at index 2 of its H^1
    # part leaves a residue there that the route itself must refuse.
    reconstruct = mirror.reconstruct_p_quintic

    def spoiled(md):
        p0 = list(reconstruct(md))
        c = list(p0[1].coeffs)
        c[2] += 1
        p0[1] = DSeries(c)
        return tuple(p0)

    monkeypatch.setattr(mirror, "reconstruct_p_quintic", spoiled)
    code = cli.main(["quintic", "--dmax", "5", "--crosscheck"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1,
        "",
        "consistency failure: reversion route left a low H-power residue at degree 2: "
        "H^0..H^2 parts 0, 0, -5\n",
    )


def test_quintic_crosscheck_disagreement_is_exit_1(monkeypatch, capsys):
    from fractions import Fraction

    from gwmirror import cli

    def wrong(dmax):
        return tuple(Fraction(d) for d in range(1, dmax + 1))

    monkeypatch.setattr(cli, "quintic_crosscheck", wrong)
    assert _crosscheck_in_process(capsys) == (
        1,
        "",
        "consistency failure: recursion and reversion tables disagree\n",
    )


def test_quintic_dmax_zero_is_usage_error():
    r = run("quintic", "--dmax", "0")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


# -- local-p2 ---------------------------------------------------------------------


def test_local_p2_table():
    r = run("local-p2", "--dmax", "3", "--format", "csv")
    assert r.stdout == "d,value\n1,9\n2,135/4\n3,244\n"


def test_local_p2_default_dmax_is_eight():
    r = run("local-p2", "--format", "json")
    record = json.loads(r.stdout)
    assert record["params"] == {"dmax": 8}
    assert record["entries"][-1] == {"d": 8, "value": "3422490759/64"}


def test_local_p2_emit_kd():
    r = run("local-p2", "--dmax", "2", "--emit-kd", "--format", "csv")
    assert r.stdout == "d,value,kd\n1,9,-3\n2,135/4,45/8\n"


def test_local_p2_consistency_failure_is_exit_1_with_one_line(monkeypatch, capsys):
    # Every table subcommand shares the quintic's failure path.
    from gwmirror import cli

    def failing(dmax):
        raise RuntimeError("cubic recursion left a residue")

    monkeypatch.setattr(cli, "localp2_invariants", failing)
    code = cli.main(["local-p2", "--dmax", "3", "--emit-kd"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1,
        "",
        "consistency failure: cubic recursion left a residue\n",
    )


# -- naive ------------------------------------------------------------------------


def test_naive_json_lists_h_coefficients():
    r = run("naive", "--ambient", "4", "--degree", "2", "--dmax", "1", "--format", "json")
    record = json.loads(r.stdout)
    assert record["entries"] == [{"d": 1, "value": ["0", "4", "-8", "8", "0"]}]


def test_naive_csv_columns():
    r = run("naive", "--ambient", "4", "--degree", "2", "--dmax", "1", "--format", "csv")
    assert r.stdout == "d,h0,h1,h2,h3,h4\n1,0,4,-8,8,0\n"


def test_naive_rejects_degree_at_least_n():
    for degree in ("4", "5"):
        r = run("naive", "--ambient", "4", "--degree", degree, "--dmax", "1")
        assert r.returncode == 2
        assert "at most" in r.stderr


def test_naive_leading_coefficient_vanishes():
    r = run("naive", "--ambient", "5", "--degree", "3", "--dmax", "3", "--format", "json")
    for entry in json.loads(r.stdout)["entries"]:
        assert entry["value"][0] == "0"


# -- lemma ------------------------------------------------------------------------


def test_lemma_a1_passes():
    r = run("lemma", "a1", "--vars", "2", "--xdeg", "4", "--trials", "20", "--seed", "7")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) >= 20
    assert all(line.endswith("PASS") for line in lines)


def test_lemma_a2_passes():
    r = run("lemma", "a2", "--vars", "3", "--xdeg", "4", "--trials", "20", "--seed", "7")
    assert r.returncode == 0
    assert all(line.endswith("PASS") for line in r.stdout.strip().splitlines())


def test_lemma_no_variables():
    r = run("lemma", "a1", "--vars", "0", "--trials", "2", "--seed", "1")
    assert r.returncode == 0
    # with no variables every c vector is trivially zero: closed forms run
    # too, and an empty pair and c list is written as "-"
    assert r.stdout == (
        "trial=1 seed=1 xdeg=4 pairs=- c=- a1 PASS\n"
        "trial=1 seed=1 xdeg=4 pairs=- c=- closed-form PASS\n"
        "trial=2 seed=1 xdeg=4 pairs=- c=- a1 PASS\n"
        "trial=2 seed=1 xdeg=4 pairs=- c=- closed-form PASS\n"
    )
    # P = Q = 1 has one term at any --xdeg, so the shape bound admits it
    # and the run must not loop over the x-degrees
    r = run("lemma", "a2", "--vars", "0", "--xdeg", "1000000000", "--trials", "1", timeout=10)
    assert r.returncode == 0
    assert r.stdout.endswith("closed-form PASS\n")


@pytest.mark.parametrize("which", ["a1", "a2"])
def test_lemma_builds_each_series_once_a_closed_form_trial(which, monkeypatch, capsys):
    # with no variables every trial also runs the closed forms, which must
    # reuse the series the identity check built
    from gwmirror import cli, loglinear

    calls = {"build_p": 0, "build_q": 0}
    for name in calls:
        def counted(cfg, real=getattr(loglinear, name), name=name):
            calls[name] += 1
            return real(cfg)

        monkeypatch.setattr(loglinear, name, counted)
        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["lemma", which, "--vars", "0", "--trials", "3"]) == 0
    assert calls == {"build_p": 3, "build_q": 3}
    assert capsys.readouterr().out.count("closed-form PASS\n") == 3


@pytest.mark.parametrize("which", ["a1", "a2"])
def test_passing_lemma_requests_never_shear(which, monkeypatch, capsys):
    # P is built, logged and compared with its closed form in (t, s = t + z);
    # only a failure is sheared back to (t, z) to be named.  Trial 1 has
    # pairs (0,1),(1,0) and c = 0,0, so it runs the closed forms too.
    from gwmirror import MultiPoly, cli

    shears = []
    real = MultiPoly.shear
    monkeypatch.setattr(MultiPoly, "shear", lambda p, c: shears.append(c) or real(p, c))
    argv = ["lemma", which, "--vars", "2", "--xdeg", "5", "--trials", "4", "--seed", "17"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count(" PASS\n") == 5
    assert "trial=1 seed=17 xdeg=5 pairs=(0,1),(1,0) c=0,0 closed-form PASS\n" in out
    assert shears == []


def test_lemma_rejects_bad_flags():
    assert run("lemma", "a1", "--vars", "-1").returncode == 2
    assert run("lemma", "a1", "--trials", "0").returncode == 2
    assert run("lemma", "a3").returncode == 2


def test_lemma_refuses_oversized_shapes_before_any_work(tmp_path):
    out = tmp_path / "lemma.txt"
    r = run("lemma", "a1", "--vars", "40", "--xdeg", "40", "--out", str(out), timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "more than 10000 terms" in r.stderr
    assert not out.exists()
    assert run("lemma", "a2", "--vars", "65", "--xdeg", "1", timeout=10).returncode == 2
    # the largest --xdeg costs nothing to refuse
    assert run("lemma", "a1", "--xdeg", "10" + "0" * 30, timeout=10).returncode == 2


def test_lemma_refuses_trials_times_terms_above_the_ceiling_before_any_work(tmp_path):
    out = tmp_path / "lemma.txt"
    r = run("lemma", "a1", "--trials", "1000000000", "--out", str(out), timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "140 terms per series is more than 40000" in r.stderr
    assert not out.exists()
    assert run("lemma", "a2", "--vars", "0", "--trials", "40001", timeout=10).returncode == 2
    # 371 terms per series at --vars 3 --xdeg 4: 107 trials is the last admitted
    shape = ("--vars", "3", "--xdeg", "4", "--seed", "5")
    assert run("lemma", "a1", *shape, "--trials", "108", timeout=10).returncode == 2
    r = run("lemma", "a1", *shape, "--trials", "107", timeout=60)
    assert r.returncode == 0
    assert r.stderr == "107 trials, all passed\n"


_ALL_PASSED_20 = "6ae20054a61efbadc956a535a6022f0729601ba6fb60f84b3bdfcb66f51e8b52"
_ALL_PASSED_24 = "22f6af5320de28c80667c88c7068d99aeeefa9dd650ff2902792f70174f3e72d"
_ALL_PASSED_8 = "ae37c1a34f652781f4bd35a932cc560505fbbf35321e446da695188b4dab9319"
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_REFUSED_2_12 = "5df98015c28bd3e36319eb1a5e475842a5a3bc1f449bfb061a31621d41389c89"
_ALL_PASSED_3 = "c0f7f10cd64f4ea2ae31f00d31f1ebba8f94f5b9d9e2d12bec1200809f936405"


@pytest.mark.parametrize(
    "args,code,out_digest,err_digest",
    [
        (["a1", "--vars", "0"], 0,
         "68841990a7c2affe59aa5907bf3cddb2552277c85c8d1f4821d3280b84f6e8be", _ALL_PASSED_20),
        (["a2", "--vars", "0"], 0,
         "427651c2469160d105de5ff7d7f6b3f741e2da474748a2a22d2952f67e5e1793", _ALL_PASSED_20),
        # seeds 0 and 99991 each sample one c = 0 trial, so exp runs too
        (["a1", "--vars", "1", "--xdeg", "6", "--seed", "0"], 0,
         "62b3ebee083ec88ed113808b0eeabc09881bd8aa98a805ccda6cf5da29e623b5", _ALL_PASSED_20),
        (["a2", "--vars", "1", "--xdeg", "6", "--seed", "0"], 0,
         "78e761de8434374347477fdecfc96bd72d89bee2079de01fe1d89deb9a95699a", _ALL_PASSED_20),
        (["a1", "--vars", "1", "--xdeg", "6", "--seed", "99991"], 0,
         "a9126532f161ff7eabd6b78dc2d933a46bf28be9ae554926f202eb01c16f6616", _ALL_PASSED_20),
        (["a2", "--vars", "1", "--xdeg", "6", "--seed", "99991"], 0,
         "b3a8803cdffa64382ea25364897a5c9badcc7d2bd921534cc37e339ea3e11bc0", _ALL_PASSED_20),
        (["a1", "--vars", "3", "--xdeg", "4", "--trials", "24"], 0,
         "c47defe33ae264c5bb98b0bd5a55a47cac0b9013204ca20c30be1acebc65f121", _ALL_PASSED_24),
        (["a2", "--vars", "3", "--xdeg", "4", "--trials", "24"], 0,
         "d0762706f21d84065ea730142d994bb53b62adc6b109f2c48b76ad2c4cf297b9", _ALL_PASSED_24),
        # 20 trials of 4,550 terms is over the ceiling; 8 is admitted
        (["a1", "--vars", "2", "--xdeg", "12"], 2, _EMPTY, _REFUSED_2_12),
        (["a2", "--vars", "2", "--xdeg", "12"], 2, _EMPTY, _REFUSED_2_12),
        (["a1", "--vars", "2", "--xdeg", "12", "--trials", "8"], 0,
         "491e6ca94049d9d27b3236a6ae2c53de6e971e24d9d9aa362271dc99799c1a9e", _ALL_PASSED_8),
        (["a2", "--vars", "2", "--xdeg", "12", "--trials", "8"], 0,
         "068454a9343e4df287ddbfcdf9501f969697f8cadd3ee5c41d7e9dd5b514d602", _ALL_PASSED_8),
        # the widest admitted shape: keys of 66 fields
        (["a1", "--vars", "64", "--xdeg", "1", "--trials", "3", "--seed", "5"], 0,
         "8576f00571b116335b66f8e7d51af0029039b3973a97b9ad01eb43cfb9823d76", _ALL_PASSED_3),
        (["a2", "--vars", "64", "--xdeg", "1", "--trials", "3", "--seed", "5"], 0,
         "cb0840164c89beae6781ef135d7d1187d678adbc3b683bcd04d7599701daf6fa", _ALL_PASSED_3),
    ],
)
def test_lemma_keeps_its_bytes(args, code, out_digest, err_digest):
    # sha256 of stdout and stderr, taken from the MultiPoly that kept its
    # terms as Fractions and solved log and exp on Fraction blocks
    r = subprocess.run(CMD + ["lemma"] + args, capture_output=True, timeout=60)
    assert r.returncode == code
    assert hashlib.sha256(r.stdout).hexdigest() == out_digest
    assert hashlib.sha256(r.stderr).hexdigest() == err_digest


# -- table bounds and pinned large tables ---------------------------------------------


def test_tables_refuse_dmax_above_the_ceiling_before_any_work(tmp_path):
    out = tmp_path / "table.txt"
    for args, ceiling in (
        (["quintic", "--crosscheck", "--dmax", "151"], 150),
        (["local-p2", "--emit-kd", "--dmax", "251"], 250),
        (["naive", "--ambient", "4", "--degree", "2", "--dmax", "101"], 100),
    ):
        r = run(*args, "--out", str(out), timeout=10)
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"--dmax must be at most {ceiling} for {args[0]}" in r.stderr
        assert not out.exists()
    r = run("naive", "--ambient", "17", "--degree", "2", "--dmax", "1", timeout=10)
    assert (r.returncode, r.stdout) == (2, "")
    assert "--ambient must be at most 16" in r.stderr
    # the largest --dmax costs nothing to refuse
    assert run("quintic", "--dmax", "10" + "0" * 30, timeout=10).returncode == 2


@pytest.mark.parametrize(
    "args,digest",
    [
        (
            ["quintic", "--dmax", "100"],
            "639799b8afee42844e8f03f42dd774c16817939b8be54c3f1abacaec438cbe0f",
        ),
        (
            ["local-p2", "--dmax", "120", "--emit-kd"],
            "f98e7ef528e2d3d3906bd6f87d6fa962362866b244a47f1fbb111e93006741e3",
        ),
        (
            ["quintic", "--dmax", "60", "--crosscheck"],
            "d6f4b7eed518666279a30bac08fc2be217e5f270603bd283d720cc770aa7ff19",
        ),
        (
            ["naive", "--ambient", "8", "--degree", "5", "--dmax", "60", "--format", "csv"],
            "6442dbe8b6c06b908e975ee102137b210a38db6af39c339489e57b50aa1415ec",
        ),
        (
            ["local-p2", "--dmax", "120", "--emit-kd", "--format", "json"],
            "09915f9d0f3df6a58cdb62a1350cc965d53708572bcdcc077bda644766b7eb92",
        ),
        (
            ["local-p2", "--dmax", "120", "--emit-kd", "--format", "csv"],
            "5e1522721ba5b3d43ad93c20947a6bca40fc88c49ca39f2875b8d85cf3758f32",
        ),
        (
            ["quintic", "--dmax", "60", "--crosscheck", "--format", "json"],
            "dff25c1701d9d7320e8318f1c92664e37206ecd777eb610a0063c89cd6ee37d5",
        ),
        (
            ["quintic", "--dmax", "60", "--crosscheck", "--format", "csv"],
            "41435a790265d61eb81809afa6d5fc9488c0d35b1996094568add065a82a1120",
        ),
        (
            ["naive", "--ambient", "8", "--degree", "5", "--dmax", "60", "--format", "json"],
            "45f88fa7425e7e27b00e7c82f418159cdd22331e07381dd0e91ce053b3362a5e",
        ),
        (
            ["naive", "--ambient", "8", "--degree", "5", "--dmax", "60", "--format", "pretty"],
            "6a322e19aaa57dd1bc02b2a1cafaa4cb71621788f8070775d3c037ff6811e1ef",
        ),
    ],
)
def test_large_tables_keep_their_bytes(args, digest):
    # sha256 of stdout: the first two taken from the Fraction-kernel
    # implementation, the next two from the one that rebuilt every degree's
    # twist and ambient products from scratch, the rest (every format of
    # the three table subcommands) from the one that rendered each
    # subcommand's table in its own runner
    r = subprocess.run(CMD + args, capture_output=True)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout).hexdigest() == digest


# -- shared output contracts ---------------------------------------------------------


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "table.json"
    r = run("quintic", "--dmax", "2", "--format", "json", "--out", str(out))
    assert out.read_text(encoding="utf-8") == r.stdout


def test_unwritable_out_path_is_exit_2(tmp_path):
    path = tmp_path / "missing" / "x.txt"
    r = run("quintic", "--dmax", "1", "--out", str(path))
    assert r.returncode == 2
    assert r.stderr == f"error: cannot write {path}: No such file or directory\n"
    assert r.stdout == ""  # the path is opened before any work or output


def test_closed_stdout_pipe_is_exit_2_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            CMD + ["quintic", "--dmax", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert r.returncode == 2
    assert r.stderr == ""  # no traceback, no "Exception ignored" at exit


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args",
    [("quintic", "--dmax", "3"), ("lemma", "a1", "--vars", "1", "--xdeg", "2", "--trials", "2")],
)
def test_full_stdout_is_exit_2_with_one_line(args):
    with open("/dev/full", "w") as full:
        r = subprocess.run(CMD + list(args), stdout=full, stderr=subprocess.PIPE, text=True)
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot write stdout: ")
    assert len(r.stderr.splitlines()) == 1
    assert "Traceback" not in r.stderr and "Exception ignored" not in r.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_out_file_is_exit_2_with_one_line():
    r = run("quintic", "--dmax", "3", "--out", "/dev/full")
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot write /dev/full: ")
    assert len(r.stderr.splitlines()) == 1
    assert "Traceback" not in r.stderr


def test_output_is_deterministic():
    a = run("lemma", "a1", "--vars", "2", "--xdeg", "3", "--trials", "5", "--seed", "3")
    b = run("lemma", "a1", "--vars", "2", "--xdeg", "3", "--trials", "5", "--seed", "3")
    assert a.stdout == b.stdout


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_formats_carry_identical_value_strings(fmt):
    r = run("local-p2", "--dmax", "4", "--format", fmt)
    for value in ("9", "135/4", "244", "36999/16"):
        assert value in r.stdout


# -- benchmark tracer entry points ---------------------------------------------------


def test_tracer_installs_on_a_fresh_cli_import():
    # perfbench/spans.py wraps every entry point its LAYERS table names and
    # raises if one is gone.  A fresh interpreter that has imported only
    # gwmirror.cli is the state a traced benchmark request starts from.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        "import sys; import gwmirror.cli; "
        f"sys.path.insert(0, {str(perfbench)!r}); "
        "import spans; spans.Tracer().install()"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


# -- help and usage errors ---------------------------------------------------------------


@pytest.mark.parametrize(
    "args,code,out_digest,err_digest",
    [
        (["--help"], 0,
         "92d7a0c5b6021a134ac83af8890af22e3392fd27fa60d3784f15deef74c4b13b", _EMPTY),
        (["quintic", "--help"], 0,
         "8f201ad2cbb8dbfa1845bebce5e498703153b3ecc45f0507463ff82d22f26563", _EMPTY),
        (["local-p2", "--help"], 0,
         "6fc7f17e5347c9be44facd206fa018c06fbe499ca73dc5feb5ed381442cb31fb", _EMPTY),
        (["naive", "--help"], 0,
         "1aecd62b61469fa0bf97f64f7d1f60d200089c0f6bf3b904c841e57d825faf91", _EMPTY),
        (["lemma", "--help"], 0,
         "f4868110f4cbdc8524b738c586951f9b91a9a1bd14561eee5325637e5a082b39", _EMPTY),
        # forms argparse accepts that are not the plain `--option value`
        (["quintic", "--dm", "3"], 0,
         "9207e9da80eb51dcc8e3f78a32d064892b2582ab177c544a6f036857d87fa861", _EMPTY),
        (["quintic", "--dmax=3"], 0,
         "9207e9da80eb51dcc8e3f78a32d064892b2582ab177c544a6f036857d87fa861", _EMPTY),
        (["quintic", "--dmax", "3", "--dmax", "4"], 0,
         "4e4ca57734e3c86cc1ce78a7ecc871a6b46f629fef48f7fac74bae3363b352dc", _EMPTY),
        (["lemma", "a1", "--seed", "-5", "--trials", "2"], 0,
         "3a03422b162580daef7f18772fad3c3b7db186b4de91a3df3e4b54e5eb7c96cb",
         "a81cb6cef7468fd39b9dc4dfe5728d625cf48a8a374e1b87b3fb2c4b11d8c99b"),
        # usage errors, from argparse and from the checks it cannot make
        (["quintic", "--dmax", "0"], 2, _EMPTY,
         "293cd7e3e0b58433a4199a8f7f3d3a689a1b43107bcbdd7700ef346fee2ebcee"),
        (["quintic", "--dmax", "x"], 2, _EMPTY,
         "1eb635bcf48fb6dbf018cc7e4a2521c8a4a5cef57e18b8637fcd26305104f1f6"),
        ([], 2, _EMPTY,
         "8fcb4884f1f54eaaa197fd7494d6e7fd7a437f9afcc742b559047103d83aa49b"),
        (["bogus"], 2, _EMPTY,
         "ae7f7e05dac8f734841bf0ccd185aa7964319a75e3ab6027c96fb05ee0c74159"),
        (["naive", "--ambient", "4"], 2, _EMPTY,
         "136830c8d32f647524c022d866e022c676aa483c4aa0bdf8bca70968f858d23a"),
        (["naive", "--ambient", "17", "--degree", "2"], 2, _EMPTY,
         "cfffaff08dbc9290140fbb6dc68ab16bb5e6bfbe2afe38b8553dc1e470ee6efb"),
        (["lemma"], 2, _EMPTY,
         "a9c9fbba995071ac8a504117b8d97a595d105dc6d518dafff93cb4e45e1031c9"),
        (["lemma", "a1", "a2"], 2, _EMPTY,
         "7fc77aba2c78feb36f465751bf53d6af311e1c7ec6f5800a42e1ce489ec12b24"),
        (["lemma", "a1", "--vars", "65"], 2, _EMPTY,
         "6b5ab727f72907c8f9860ceb046ab7b9856c1ad9c052deb219ea706608273ea6"),
        (["quintic", "--dmax", "151"], 2, _EMPTY,
         "1cb3a02726b09ff3ab7d6f338305b96131d4b70e74d2cd45c6f6e1d01d540288"),
        (["local-p2", "--out"], 2, _EMPTY,
         "9d700fa1ca8dd05c979d01f5bafe6c54c2473a6ea9fb522d9f6847753185c809"),
    ],
)
def test_help_and_usage_errors_keep_their_bytes(args, code, out_digest, err_digest):
    # sha256 of stdout and stderr with help wrapped at 80 columns, taken
    # from the command line that built argparse for every request; Python
    # 3.10.13, 3.11.7, 3.12.1 and 3.13.0 print the same bytes
    env = dict(os.environ, COLUMNS="80")
    r = subprocess.run(CMD + args, capture_output=True, env=env, timeout=60)
    assert r.returncode == code
    assert hashlib.sha256(r.stdout).hexdigest() == out_digest
    assert hashlib.sha256(r.stderr).hexdigest() == err_digest


# -- the command line's own parse -----------------------------------------------------

# Each command's options that take a value, its flags and its positionals.
_ARGUMENTS = {
    "quintic": (("--dmax", "--format", "--out"), ("--crosscheck",), ()),
    "local-p2": (("--dmax", "--format", "--out"), ("--emit-kd",), ()),
    "naive": (("--ambient", "--degree", "--dmax", "--format", "--out"), (), ()),
    "lemma": (("--vars", "--xdeg", "--trials", "--seed", "--out"), (), ("a1", "a2")),
}
_OPTIONS = sorted({o for valued, flags, _ in _ARGUMENTS.values() for o in valued + flags})
_VALUES = ("0", "1", "30", "-5", "+3", " 3", "3_0", "٣", "json", "bogus", "a1", "a2", "")
_TOKENS = st.sampled_from(
    [*_ARGUMENTS, *_VALUES, "-h", "--"]
    + [o[:k] for o in _OPTIONS for k in range(1, len(o) + 1)]
    + [f"{o}={v}" for o in _OPTIONS for v in _VALUES]
)


@st.composite
def _argv(draw):
    """A command and a subset of its own arguments in any order, an option
    with a value; a third of them with one more item put in, any tokens or
    one of its arguments again, with or without a value.  Or any tokens."""
    command = draw(st.sampled_from([*_ARGUMENTS, None]))
    if command is None:
        return draw(st.lists(_TOKENS, max_size=8))
    valued, flags, positionals = _ARGUMENTS[command]
    value = st.sampled_from(_VALUES + ("-h", "--"))
    chosen = draw(st.lists(st.sampled_from(valued + flags), unique=True))
    items = [[o, draw(value)] if o in valued else [o] for o in chosen]
    if positionals and draw(st.integers(0, 3)):
        items.append([draw(st.sampled_from(positionals))])
    items = draw(st.permutations(items))
    if not draw(st.integers(0, 2)):
        own = st.sampled_from(valued + flags + positionals)
        extra = st.one_of(st.lists(_TOKENS, max_size=2), st.tuples(own), st.tuples(own, value))
        items.insert(draw(st.integers(0, len(items))), draw(extra))
    return [command] + [token for item in items for token in item]


@given(_argv())
@settings(max_examples=1000, deadline=None)
def test_direct_parse_agrees_with_argparse(argv):
    # Where the command line parses argv itself it must give argparse's
    # fields; any other argv goes to argparse.
    from gwmirror import cli

    args = cli._parse(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))


def _plain_requests():
    """The benchmark's requests in every format, CI's ceiling requests and
    the README's examples: argv that must not need argparse."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for w in workloads.WORKLOADS.values():
        if isinstance(w, workloads.TableWorkload):
            yield from (w.base_argv + ["--format", fmt] for fmt in workloads.FORMATS)
        else:
            yield from (w.argv(random.Random(seed)) for seed in range(3))
    ci = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    ceilings = re.findall(r"^ +ceiling [0-9a-f]{64} (.+)$", ci, flags=re.M)
    assert len(ceilings) == 12
    yield from (line.split() for line in ceilings)
    examples = re.findall(r"^\$ gwmirror (.+)$", _readme_block("text", "Examples:"), flags=re.M)
    assert len(examples) == 2
    yield from (line.split() for line in examples)


def test_plain_requests_need_no_argparse():
    from gwmirror import cli

    requests = list(_plain_requests())
    assert len(requests) == 3 * 3 + 3 + 12 + 2
    for argv in requests:
        args = cli._parse(argv)
        assert args is not None, argv
        assert vars(args) == vars(cli._build_parser().parse_args(argv))
        assert cli._check_usage(args) is None, argv


# -- start-up --------------------------------------------------------------------------


def test_cli_import_loads_no_introspection_modules():
    # Every request starts a fresh interpreter, so the import is part of its
    # cost: dataclasses and what it pulls in (inspect, ast, dis, tokenize)
    # took about half of it, and typing, which annotations do not need, is
    # the largest module left.  -S keeps site from loading any of them
    # first (a .pth file may import typing), where they would not count.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules); "
        "import gwmirror.cli; print(*sorted(set(sys.modules) - before))"
    )
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert "gwmirror.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def test_package_imports_only_the_pinned_modules_at_start_up():
    # What a module imports outside its functions loads on every request.
    # Adding a module here must be a deliberate edit, justified by setup_s
    # measured before and after.
    pinned = {
        "__future__", "collections.abc", "contextlib", "fractions", "functools", "math",
        "operator", "os", "random", "struct", "sys", "types",
    }
    found = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "gwmirror").glob("*.py"):
        todo = list(ast.parse(path.read_text(encoding="utf-8")).body)
        while todo:
            node = todo.pop()
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:  # not one of the package's own modules
                    found.add(node.module)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.extend(ast.iter_child_nodes(node))  # class bodies, if and try blocks
    assert found == pinned


def _modules_after_main(args: list[str]) -> set[str]:
    """The modules loaded once cli.main(args) has run in a fresh
    interpreter under -S (as above)."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import gwmirror.cli\n"
        "try:\n    gwmirror.cli.main(sys.argv[1:])\n"
        "finally:\n    print(*sorted(sys.modules), file=sys.stderr)"
    )
    r = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = set(r.stderr.splitlines()[-1].split())
    assert "gwmirror.cli" in loaded
    return loaded


@pytest.mark.parametrize(
    "args,parser_built",
    [(["quintic", "--dmax", "3"], False), (["lemma", "a1", "--trials", "2"], False),
     (["--help"], True)],
)
def test_a_plain_request_loads_no_argparse_and_help_does(args, parser_built):
    # Importing and building argparse, whose first use imports gettext and
    # locale, took 2-3 ms of each request, about as long as computing a
    # benchmark table.
    loaded = _modules_after_main(args)
    assert ("argparse" in loaded) == parser_built
    if not parser_built:
        assert not loaded & {"gettext", "locale"}


@pytest.mark.parametrize(
    "args,loads_json",
    [(["quintic", "--dmax", "3"], False), (["quintic", "--dmax", "3", "--format", "csv"], False),
     (["lemma", "a1", "--trials", "2"], False), (["lemma", "a2", "--trials", "2"], False),
     (["quintic", "--dmax", "3", "--format", "json"], True)],
)
def test_only_a_json_table_loads_json(args, loads_json):
    # json was the largest stdlib module of the import after fractions, and
    # only --format json uses it.
    assert ("json" in _modules_after_main(args)) == loads_json


# -- README examples -----------------------------------------------------------------


def _readme_block(lang: str, after: str) -> str:
    """The first ```lang block of README.md that follows the text ``after``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"```{lang}\n", text.index(after)) + len(lang) + 4
    return text[start : text.index("```", start)]


def test_readme_cli_examples_match_the_program():
    examples = re.split(r"^\$ gwmirror ", _readme_block("text", "Examples:"), flags=re.M)[1:]
    assert len(examples) == 2
    for example in examples:
        command, _, shown = example.partition("\n")
        r = run(*command.split())
        assert r.returncode == 0, r.stderr
        # a blank line separates one example from the next
        assert r.stdout == shown.rstrip("\n") + "\n"


def test_readme_library_example_matches_the_program():
    lines = _readme_block("python", "## Library").splitlines()
    namespace: dict = {}
    exec("\n".join(l for l in lines if l.startswith(("from ", "import "))), namespace)
    shown = [(expr, out[2:]) for expr, out in zip(lines, lines[1:]) if out.startswith("# ")]
    assert [expr for expr, _ in shown] == ["quintic_invariants(3)", "localp2_invariants(3)"]
    for expr, text in shown:
        assert repr(eval(expr, namespace)) == text
