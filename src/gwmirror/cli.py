"""Command-line front end.

Subcommands: quintic, local-p2, naive, lemma.  Tables are emitted with
exact rational values in canonical "a/b" form; JSON, CSV and the default
pretty rendering carry identical value strings.  A table subcommand only
computes its table; ``main`` renders and emits it, and reports its
``RuntimeError`` (a failed self-check or crosscheck) as the one line
``consistency failure: ...``.  Exit codes: 0 success, 1
mathematical-consistency failure or failed lemma trial, 2 usage or
output error (an --out path or a stdout that cannot be written, or a
closed stdout pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys

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

# Lemma requests above these are refused before any work.  A trial's cost
# grows with the term count of P: at the term ceiling the slowest admitted
# shape, --vars 1 --xdeg 37 with (a_1, b_1) = (0, 1), takes 0.13-0.20 s a
# trial, and --vars 3 --xdeg 4 0.6-1.1 ms (shared 2-CPU x86, Python 3.11;
# the ranges are the machine's load phases, up to 1.7x apart).
# Above LEMMA_MAX_VARS only --xdeg 1 stays under the term ceiling, where
# the packed exponent keys ((vars + 2) * 32 bits a term) set the cost instead.
# Trials times terms is bounded too: the slowest admitted requests,
# a1 and a2 --vars 0 --trials 40000 (50-75 us a trial) and a1 --vars 1
# --xdeg 37 --trials 4 --seed 481 (every trial (0, 1)), take 2.2-3.1 s and
# 0.8 s (fresh process, best of 3, two or three runs).
LEMMA_MAX_TERMS = 10_000
LEMMA_MAX_VARS = 64
LEMMA_MAX_TERM_TRIALS = 40_000

# Table requests above these are refused before any work.  At each ceiling
# the slowest admitted request takes 0.4-1.9 s (best of 3 in a fresh
# process, five runs, shared 2-CPU x86, Python 3.11; the machine's load
# phases have moved such times up to 2.4x): quintic --dmax 150 --crosscheck
# 1.0-1.3 s, local-p2 --dmax 250 --emit-kd 1.4-1.9 s and naive --ambient
# 16 --degree 15 --dmax 100 0.43-0.55 s.  A naive request's cost grows with
# the ring length as well, hence its --ambient ceiling.
DMAX_CEILING = {"quintic": 150, "local-p2": 250, "naive": 100}
NAIVE_MAX_AMBIENT = 16


def _positive(name: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer")
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwmirror",
        description=(
            "Exact genus-zero Gromov-Witten invariants of hypersurfaces "
            "via the mirror transformation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_dmax: int) -> None:
        p.add_argument(
            "--dmax",
            type=_positive("--dmax"),
            default=default_dmax,
            help=f"maximum curve degree (default {default_dmax})",
        )
        p.add_argument("--format", choices=FORMATS, default="pretty")
        p.add_argument("--out", metavar="PATH", help="also write the output to PATH")

    p = sub.add_parser("quintic", help="rational-curve counts on the quintic threefold")
    add_common(p, 5)
    p.add_argument(
        "--crosscheck",
        action="store_true",
        help="also run the independent reversion route and compare",
    )

    p = sub.add_parser(
        "local-p2", help="maximal-contact counts for a plane cubic / local P^2"
    )
    add_common(p, 8)
    p.add_argument(
        "--emit-kd",
        action="store_true",
        help="also emit the local invariants K_d",
    )

    p = sub.add_parser(
        "naive", help="correction-free 1-point classes for low-degree hypersurfaces"
    )
    p.add_argument("--ambient", type=_positive("--ambient"), required=True, metavar="N")
    p.add_argument("--degree", type=_positive("--degree"), required=True, metavar="L")
    add_common(p, 4)

    p = sub.add_parser("lemma", help="sampled log-linearity identity checks")
    p.add_argument("which", choices=("a1", "a2"))
    p.add_argument("--vars", type=int, default=2, help="number of x variables (>= 0)")
    p.add_argument("--xdeg", type=_positive("--xdeg"), default=4)
    p.add_argument("--trials", type=_positive("--trials"), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="also write the output to PATH")
    return parser


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
        if quintic_crosscheck(args.dmax).entries != table.entries:
            raise RuntimeError("recursion and reversion tables disagree")
        crosscheck = "ok"
    rows = [{"d": d, "value": str(v)} for d, v in table.entries]
    return {"dmax": args.dmax}, rows, ["d", "value"], crosscheck


def _local_p2_table(args) -> _Table:
    table = localp2_invariants(args.dmax)
    rows = [{"d": d, "value": str(v)} for d, v in table.entries]
    columns = ["d", "value"]
    if args.emit_kd:
        for row, (_, kd) in zip(rows, localp2_kd(args.dmax).entries):
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


def _run_lemma(args, out) -> int:
    rng = random.Random(args.seed)
    a1 = args.which == "a1"
    build, check = (build_p, check_a1) if a1 else (build_q, check_a2)
    lines = []
    all_passed = True
    for trial in range(1, args.trials + 1):
        cfg = sample_config(rng, args.vars, args.xdeg, seed=args.seed)
        # The checked series is built once and handed to the closed forms too.
        series = build(cfg)
        reports = [check(cfg, series)]
        if all(c == 0 for c in cfg.cs):
            p, q = (series, None) if a1 else (None, series)
            reports.append(check_closed_forms(cfg, p, q))
        for report in reports:
            lines.append(report.line(trial))
            all_passed = all_passed and report.passed
    text = "\n".join(lines) + "\n"
    _emit(text, out)
    print(
        f"{args.trials} trials, {'all passed' if all_passed else 'FAILURES above'}",
        file=sys.stderr,
    )
    return 0 if all_passed else 1


def _check_usage(args, parser) -> None:
    """Usage errors argparse cannot see; parser.error exits 2 before the
    --out file is touched."""
    if args.command == "naive":
        n, l = args.ambient, args.degree
        if n < 2:
            parser.error("--ambient must be at least 2")
        if n > NAIVE_MAX_AMBIENT:
            parser.error(f"--ambient must be at most {NAIVE_MAX_AMBIENT}")
        if not 1 <= l <= n - 1:
            parser.error(
                f"--degree must be at most ambient-1={n - 1}: only degrees up to "
                "n-1 are correction-free"
            )
    if args.command == "lemma":
        if args.vars < 0:
            parser.error("--vars must be >= 0")
        if args.vars > LEMMA_MAX_VARS:
            parser.error(f"--vars must be at most {LEMMA_MAX_VARS}")
        # Every x-degree adds at least one term, so the sum may stop at the
        # ceiling; a huge --xdeg costs nothing to refuse.
        terms = p_term_bound(args.vars, min(args.xdeg, LEMMA_MAX_TERMS))
        if terms > LEMMA_MAX_TERMS:
            parser.error(
                f"--vars {args.vars} --xdeg {args.xdeg} allows more than "
                f"{LEMMA_MAX_TERMS} terms per series"
            )
        if args.trials * terms > LEMMA_MAX_TERM_TRIALS:
            parser.error(
                f"--trials {args.trials} times {terms} terms per series is more "
                f"than {LEMMA_MAX_TERM_TRIALS}"
            )
    ceiling = DMAX_CEILING.get(args.command)
    if ceiling is not None and args.dmax > ceiling:
        parser.error(f"--dmax must be at most {ceiling} for {args.command}")


_TABLES = {
    "quintic": _quintic_table,
    "local-p2": _local_p2_table,
    "naive": _naive_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_usage(args, parser)
    try:
        with _open_out(args.out) as out:
            if args.command == "lemma":
                return _run_lemma(args, out)
            try:
                params, rows, columns, crosscheck = _TABLES[args.command](args)
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
