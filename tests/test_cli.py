import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_quintic_crosscheck_self_check_failure_is_exit_1_with_one_line(monkeypatch, capsys):
    from gwmirror import series

    # Off by one in the last coefficient of exp(-m*g) only: the recursion
    # route is untouched, and revert_exp fails its round-trip check.
    exp_coeffs = series._exp_coeffs

    def broken(gn, gd, scale, length):
        e, ed = exp_coeffs(gn, gd, scale, length)
        return (e, ed) if scale > 0 else (e[:-1] + [e[-1] + ed], ed)

    monkeypatch.setattr(series, "_exp_coeffs", broken)
    assert _crosscheck_in_process(capsys) == (
        1,
        "",
        "consistency failure: series reversion failed its round-trip check (internal bug)\n",
    )


def test_quintic_crosscheck_residue_failure_is_exit_1(monkeypatch, capsys):
    from gwmirror import cli

    def residue(dmax):
        raise RuntimeError("reversion route left a low H-power residue at degree 2")

    monkeypatch.setattr(cli, "quintic_crosscheck", residue)
    assert _crosscheck_in_process(capsys) == (
        1,
        "",
        "consistency failure: reversion route left a low H-power residue at degree 2\n",
    )


def test_quintic_crosscheck_disagreement_is_exit_1(monkeypatch, capsys):
    from fractions import Fraction

    from gwmirror import InvariantTable, cli

    def wrong(dmax):
        return InvariantTable(tuple((d, Fraction(d)) for d in range(1, dmax + 1)))

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
    # with no variables every c vector is trivially zero: closed forms run too
    assert "closed-form PASS" in r.stdout
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
    assert [expr for expr, _ in shown] == ["quintic_invariants(3).entries"]
    for expr, text in shown:
        assert repr(eval(expr, namespace)) == text
