"""Command-line front end.

Subcommands: quintic, local-p2, naive, lemma.  Tables are emitted with
exact rational values in canonical "a/b" form; JSON, CSV and the default
pretty rendering carry identical value strings.  A table subcommand only
computes its table; ``main`` renders and emits it, and reports its
``RuntimeError`` (a failed self-check or crosscheck) as the one line
``consistency failure: ...``.  Exit codes: 0 success, 1
mathematical-consistency failure or failed lemma trial, 2 usage or
output error (an --out path or a stdout that cannot be written, or a
closed stdout pipe).  ``main`` parses a plain request itself (``_parse``);
argparse is built only for help, usage errors and any other argv.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
from types import SimpleNamespace

from .loglinear import (
    build_p,
    build_q,
    check_a1,
    check_a2,
    check_closed_forms,
    p_term_bound,
    sample_config,
)
from .mirror import (
    localp2_invariants,
    localp2_kd,
    naive_invariants,
    quintic_crosscheck,
    quintic_invariants,
)

FORMATS = ("pretty", "json", "csv")

# Lemma requests above these are refused before any work.  The term ceiling
# counts P(t, z) (p_term_bound), which a passing a1 trial never forms: it
# builds P'(t, s = t + z), 727 terms at --vars 1 --xdeg 37 and c = 1/3
# against a bound of 9,880.  The slowest admitted shapes, --vars 1 --xdeg 37
# and --vars 2 --xdeg 15 with every pair (0, 1), take 7-25 ms a trial for
# a1 and 6-16 ms for a2; --vars 3 --xdeg 4 takes 0.07-0.9 ms (in process,
# shared 2-CPU x86, Python 3.11; the ranges include load phases up to 1.7x).
# Above LEMMA_MAX_VARS only --xdeg 1 stays under the term ceiling, where
# the packed exponent keys ((vars + 2) * 32 bits a term) set the cost instead.
# Trials times terms is bounded too: the slowest admitted requests, a1 and
# a2 --vars 0 --trials 40000, take 1.4-2.2 s, and a1 and a2 --vars 1 --xdeg
# 37 --trials 4 --seed 481 and --vars 2 --xdeg 15 --trials 4 --seed 37
# (trial 1 every pair (0, 1)) 0.12-0.24 s (fresh process, best of 3, six
# rounds each, same machine).
LEMMA_MAX_TERMS = 10_000
LEMMA_MAX_VARS = 64
LEMMA_MAX_TERM_TRIALS = 40_000


def _positive(name: str):
    def parse(text: str) -> int:
        try:
            if (value := int(text)) >= 1:
                return value
            message = f"{name} must be >= 1"
        except ValueError:
            message = f"{name} must be an integer"
        import argparse

        raise argparse.ArgumentTypeError(message)

    return parse


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="gwmirror",
        description=(
            "Exact genus-zero Gromov-Witten invariants of hypersurfaces "
            "via the mirror transformation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, arguments, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, spec in arguments:
            p.add_argument(name, **spec)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The fields argparse parses from ``argv`` if argv is a command and then
    its arguments, each at most once and by exact name, an option's value in
    its own token, not led by '-' and valid.  None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = dict(_COMMANDS[argv[0]][1])
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name = token if token.startswith("-") else "which"  # lemma's positional
        spec = arguments.get(name)
        if spec is None or name in given:
            return None
        if spec.get("action"):  # store_true
            given[name] = True
            continue
        text = token if name == "which" else next(tokens, "-")
        try:
            value = None if text.startswith("-") else spec.get("type", str)(text)
        except Exception:  # int's ValueError or _positive's ArgumentTypeError
            return None
        if value is None or value not in spec.get("choices", (value,)):
            return None
        given[name] = value
    fields = {"command": argv[0]}
    for name, spec in arguments.items():
        if name not in given and spec.get("required", name == "which"):
            return None
        fields[name.lstrip("-").replace("-", "_")] = given.get(name, spec.get("default"))
    return SimpleNamespace(**fields)


# -- rendering ------------------------------------------------------------------


def _render_table(
    case: str,
    params: dict,
    rows: list[dict],
    columns: list[str],
    fmt: str,
    crosscheck: str,
) -> str:
    if fmt == "json":
        import json  # only a json table loads it

        record = {
            "case": case,
            "params": params,
            "entries": rows,
            "crosscheck": crosscheck,
        }
        return json.dumps(record, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    # pretty
    header = [f"case: {case}"]
    if params:
        header.append("params: " + " ".join(f"{k}={v}" for k, v in params.items()))
    table = [columns] + [[_pretty_cell(row[c]) for c in columns] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    body = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    tail = [] if crosscheck == "absent" else [f"crosscheck: {crosscheck}"]
    return "\n".join(header + body + tail) + "\n"


def _pretty_cell(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


class _OutputError(Exception):
    """The output could not be written; reported as a usage-class failure."""


def _cannot_write(path: str, exc: OSError) -> _OutputError:
    return _OutputError(f"cannot write {path}: {exc.strerror or exc}")


def _open_out(path: str | None):
    """The --out file, opened before any work so that a path that cannot
    be written fails at once; a null context when there is no --out."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def _emit(text: str, out) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # Point stdout at devnull so that the flush at interpreter exit finds
        # somewhere to put the unwritten rest; a gone reader ends quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise
        raise _cannot_write("stdout", exc) from exc
    if out is not None:
        try:
            out.write(text)
            out.flush()
        except OSError as exc:
            # Close now, so that the close on the way out does not flush again.
            with contextlib.suppress(OSError):
                out.close()
            raise _cannot_write(out.name, exc) from exc


# -- subcommands -----------------------------------------------------------------

# What a table subcommand gives ``main`` to render: (params, rows, columns, crosscheck).
_Table = tuple[dict, list[dict], list[str], str]


def _quintic_table(args) -> _Table:
    table = quintic_invariants(args.dmax)
    crosscheck = "absent"
    if args.crosscheck:
        # The reversion route raises RuntimeError when one of its own
        # self-checks (round trip, low-H residue) fails; a table that
        # disagrees is the same consistency failure.
        if quintic_crosscheck(args.dmax) != table:
            raise RuntimeError("recursion and reversion tables disagree")
        crosscheck = "ok"
    rows = [{"d": d, "value": str(v)} for d, v in enumerate(table, start=1)]
    return {"dmax": args.dmax}, rows, ["d", "value"], crosscheck


def _local_p2_table(args) -> _Table:
    table = localp2_invariants(args.dmax)
    rows = [{"d": d, "value": str(v)} for d, v in enumerate(table, start=1)]
    columns = ["d", "value"]
    if args.emit_kd:
        for row, kd in zip(rows, localp2_kd(args.dmax)):
            row["kd"] = str(kd)
        columns.append("kd")
    return {"dmax": args.dmax}, rows, columns, "absent"


def _naive_table(args) -> _Table:
    n, l = args.ambient, args.degree
    values = [[str(c) for c in cls.coeffs] for cls in naive_invariants(n, l, args.dmax)]
    if args.format == "csv":  # one column per H-power
        columns = ["d"] + [f"h{k}" for k in range(n + 1)]
        rows = [dict(zip(columns, [d] + v)) for d, v in enumerate(values, start=1)]
    else:
        columns = ["d", "value"]
        rows = [{"d": d, "value": v} for d, v in enumerate(values, start=1)]
    return {"ambient": n, "degree": l, "dmax": args.dmax}, rows, columns, "absent"


def _trial_line(trial: int, seed: int, cfg, check: str, finding: str | None) -> str:
    """One lemma line: the trial, its request's seed, the sampled
    configuration, the check and PASS, or FAIL and the check's finding."""
    pairs = ",".join(f"({a},{b})" for a, b in cfg.pairs) or "-"
    cs = ",".join(map(str, cfg.cs)) or "-"
    tail = "PASS" if finding is None else f"FAIL {finding}"
    return f"trial={trial} seed={seed} xdeg={cfg.xdeg_max} pairs={pairs} c={cs} {check} {tail}"


def _run_lemma(args, out) -> int:
    rng = random.Random(args.seed)
    a1 = args.which == "a1"
    build, check = (build_p, check_a1) if a1 else (build_q, check_a2)
    lines = []
    all_passed = True
    for trial in range(1, args.trials + 1):
        cfg = sample_config(rng, args.vars, args.xdeg)
        # Each series is built once: the checked one, and on a closed-form
        # trial the other one too.
        series = build(cfg)
        findings = [(args.which, check(series))]
        if not any(cfg.cs):
            p, q = (series, build_q(cfg)) if a1 else (build_p(cfg), series)
            findings.append(("closed-form", check_closed_forms(cfg, p, q)))
        for name, finding in findings:
            lines.append(_trial_line(trial, args.seed, cfg, name, finding))
            all_passed = all_passed and finding is None
    text = "\n".join(lines) + "\n"
    _emit(text, out)
    print(
        f"{args.trials} trials, {'all passed' if all_passed else 'FAILURES above'}",
        file=sys.stderr,
    )
    return 0 if all_passed else 1


def _table_arguments(dmax: int) -> list:
    return [
        ("--dmax", dict(type=_positive("--dmax"), default=dmax,
                        help=f"maximum curve degree (default {dmax})")),
        ("--format", dict(choices=FORMATS, default="pretty")),
        _OUT,
    ]


# Each subcommand's help, its arguments in the order its help lists them (as
# the name and the keyword arguments of ``add_argument``; a flag states its
# default too), the function that computes its table and its --dmax ceiling,
# both None for lemma.  ``_build_parser``, ``_parse``, ``_check_usage`` and
# ``main`` read this table.  A table request above its ceiling is refused
# before any work.  At each ceiling the slowest admitted request takes
# 0.37-1.1 s (best of 3 in a fresh process, shared 2-CPU x86, Python 3.11;
# the machine's load phases have moved such times up to 2.4x): quintic
# --dmax 150 --crosscheck 0.56-0.85 s and local-p2 --dmax 250 --emit-kd
# 0.72-1.08 s (five runs each, Xeon, Python 3.11.7), naive --ambient 16
# --degree 15 --dmax 100 0.37-0.59 s (eleven runs).  A naive request's cost
# grows with the ring length as well, hence its --ambient ceiling.
NAIVE_MAX_AMBIENT = 16
_OUT = ("--out", dict(metavar="PATH", help="also write the output to PATH"))
_COMMANDS = {
    "quintic": ("rational-curve counts on the quintic threefold", [
        *_table_arguments(5),
        ("--crosscheck", dict(action="store_true", default=False,
                              help="also run the independent reversion route and compare")),
    ], _quintic_table, 150),
    "local-p2": ("maximal-contact counts for a plane cubic / local P^2", [
        *_table_arguments(8),
        ("--emit-kd", dict(action="store_true", default=False,
                           help="also emit the local invariants K_d")),
    ], _local_p2_table, 250),
    "naive": ("correction-free 1-point classes for low-degree hypersurfaces", [
        ("--ambient", dict(type=_positive("--ambient"), required=True, metavar="N")),
        ("--degree", dict(type=_positive("--degree"), required=True, metavar="L")),
        *_table_arguments(4),
    ], _naive_table, 100),
    "lemma": ("sampled log-linearity identity checks", [
        ("which", dict(choices=("a1", "a2"))),
        ("--vars", dict(type=int, default=2, help="number of x variables (>= 0)")),
        ("--xdeg", dict(type=_positive("--xdeg"), default=4)),
        ("--trials", dict(type=_positive("--trials"), default=20)),
        ("--seed", dict(type=int, default=0)),
        _OUT,
    ], None, None),
}


def _check_usage(args) -> str | None:
    """The message of a usage error argparse cannot see, which ``main``
    reports through argparse before the --out file is touched."""
    if args.command == "naive":
        n, l = args.ambient, args.degree
        if n < 2:
            return "--ambient must be at least 2"
        if n > NAIVE_MAX_AMBIENT:
            return f"--ambient must be at most {NAIVE_MAX_AMBIENT}"
        if not 1 <= l <= n - 1:
            return (
                f"--degree must be at most ambient-1={n - 1}: only degrees up to "
                "n-1 are correction-free"
            )
    if args.command == "lemma":
        if args.vars < 0:
            return "--vars must be >= 0"
        if args.vars > LEMMA_MAX_VARS:
            return f"--vars must be at most {LEMMA_MAX_VARS}"
        # Every x-degree adds at least one term, so the sum may stop at the
        # ceiling; a huge --xdeg costs nothing to refuse.
        terms = p_term_bound(args.vars, min(args.xdeg, LEMMA_MAX_TERMS))
        if terms > LEMMA_MAX_TERMS:
            return (
                f"--vars {args.vars} --xdeg {args.xdeg} allows more than "
                f"{LEMMA_MAX_TERMS} terms per series"
            )
        if args.trials * terms > LEMMA_MAX_TERM_TRIALS:
            return (
                f"--trials {args.trials} times {terms} terms per series is more "
                f"than {LEMMA_MAX_TERM_TRIALS}"
            )
    ceiling = _COMMANDS[args.command][3]
    if ceiling is not None and args.dmax > ceiling:
        return f"--dmax must be at most {ceiling} for {args.command}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or _build_parser().parse_args(argv)
    if message := _check_usage(args):
        _build_parser().error(message)
    try:
        with _open_out(args.out) as out:
            if args.command == "lemma":
                return _run_lemma(args, out)
            try:
                params, rows, columns, crosscheck = _COMMANDS[args.command][2](args)
            except RuntimeError as exc:
                print(f"consistency failure: {exc}", file=sys.stderr)
                return 1
            text = _render_table(args.command, params, rows, columns, args.format, crosscheck)
            _emit(text, out)
            return 0
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader is gone: end quietly
        return 2


if __name__ == "__main__":
    sys.exit(main())
