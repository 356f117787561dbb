"""gwmirror benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload quintic-crosscheck --seed 1 --seconds 28 --trace 0

Runs one workload as a closed loop with a single client: each request is
one ``gwmirror`` CLI call in a fresh interpreter (``child.py``), started
only after the previous one exited.  After the loop every request's output
goes through the correctness gate in ``workloads.py``.  The last line of
stdout is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits 1 if any request failed and
2 if the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from workloads import GateError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

TAIL_BEYOND = 10  # samples the tail percentile must leave above it
MIN_SAMPLES = 2 * TAIL_BEYOND  # so that the tail is never below the middle sample
REQUEST_TIMEOUT_S = 120

# Request and cycle times are reported in units of the reference loop each
# child times around its request (child.reference_s), which cancels the
# machine's speed at that moment; the plain seconds are printed next to them.
END_TO_END_UNITS = {
    "request_ref_p50": "ref",
    "request_ref_tail": "ref",
    "setup_s": "s",
    "throughput_per_ref": "1/ref",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}

# Which span aggregates each layer reports; the op names come from spans.LAYERS.
LAYER_FIELDS = {
    "series": ("calls", "self_s", "total_s"),
    "hypergeom": ("calls", "self_s", "total_s"),
    "cohomology": ("calls", "self_s"),
    "mirror": ("calls", "self_s"),
    "multipoly": ("calls", "self_s", "total_s"),
    "loglinear": ("calls", "self_s"),
    "cli": ("self_s",),
}
COUNTS = (
    "series.mul.coeff_products",
    "cohomology.mul.coeff_products",
    "multipoly.mul.term_pairs",
    "multipoly.mul.terms_out",
)
PER_LAYER = [
    f"{layer}.{op}.{field}"
    for layer, fields in LAYER_FIELDS.items()
    for op in spans.LAYERS[layer][1]
    for field in fields
] + list(COUNTS) + ["trace.overhead_s"]


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def tail(values: list[float]) -> tuple[float, int, int]:
    """The value at the highest whole percentile that still leaves at
    least TAIL_BEYOND samples above it (nearest-rank), with that
    percentile and the sample count."""
    n = len(values)
    if n < MIN_SAMPLES:
        raise ValueError(f"a tail needs at least {MIN_SAMPLES} samples, got {n}")
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)
    return sorted(values)[rank - 1], pct, n


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` prints them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def run_request(argv: list[str], traced: bool, request_id: int, env: dict) -> dict:
    """Run one request in a fresh interpreter and return its sample.

    ``failure`` is None unless the child crashed, timed out or sent no
    report; the output itself is checked later by the gate.
    """
    payload = json.dumps({"argv": argv, "trace": traced, "request_id": request_id})
    sample = {"argv": argv, "traced": traced, "failure": None}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), payload],
            capture_output=True, env=env, cwd=ROOT, timeout=REQUEST_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sample["failure"] = f"timed out after {REQUEST_TIMEOUT_S} s"
        return sample
    # Spawn to exit: the whole cost of one CLI call to a looping script.
    sample["cycle_s"] = time.perf_counter() - start
    sample["stderr"] = proc.stderr
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        tail_lines = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        sample["failure"] = f"child exited {proc.returncode} without a report {tail_lines}"
        return sample
    sample.update(report)
    if report["error"]:
        sample["failure"] = report["error"].strip().splitlines()[-1]
    return sample


def gate(workload, sample: dict) -> None:
    """Set ``failure`` on a sample whose output or trace is wrong."""
    if sample["failure"]:
        return
    try:
        workload.check(
            sample["argv"], sample["exit"], sample["stdout"].encode("utf-8"), sample["stderr"]
        )
        if sample["traced"]:
            workloads.check_expected_spans(workload.expect, sample["layers"])
    except GateError as exc:
        sample["failure"] = str(exc)


def end_to_end(ok: list[dict], attempted: int, loop_s: float) -> tuple[dict, dict, list[str]]:
    """The end-to-end metrics, notes to print next to them, and lines
    giving the request times and throughput in plain seconds."""
    ratios = [s["request_s"] / s["ref_s"] for s in ok]
    ref_tail, pct, n = tail(ratios)
    raw_tail = tail([s["request_s"] for s in ok])[0]
    values = {
        "request_ref_p50": statistics.median(ratios),
        "request_ref_tail": ref_tail,
        "setup_s": statistics.median(s["setup_s"] for s in ok),
        "throughput_per_ref": len(ok) / sum(s["cycle_s"] / s["ref_s"] for s in ok),
        "peak_rss_mib": max(s["maxrss_kib"] for s in ok) / 1024,
        "success_ratio": len(ok) / attempted,
    }
    notes = {"request_ref_tail": f"(p{pct} of {n} samples)"}
    raw = [
        f"request_s_p50 {statistics.median(s['request_s'] for s in ok):.6g} s",
        f"request_s_tail {raw_tail:.6g} s (p{pct} of {n} samples)",
        f"throughput_rps {len(ok) / loop_s:.6g} 1/s",
        f"ref_s_p50 {statistics.median(s['ref_s'] for s in ok):.6g} s",
    ]
    return values, notes, raw


def per_layer(ok: list[dict]) -> tuple[dict, dict]:
    traced = [s for s in ok if s["traced"]]
    plain = [s for s in ok if not s["traced"]]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = statistics.median(s["request_s"] for s in traced) - statistics.median(
                s["request_s"] for s in plain
            )
        elif name.endswith("_s"):
            out[name] = statistics.median(s["layers"].get(name, 0.0) for s in traced)
        else:
            # Counts are exact: take them from the first traced request, whose
            # inputs the seed fixes, so that they repeat from run to run.
            out[name] = int(traced[0]["layers"].get(name, 0))
    return out, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gwmirror" / "cli.py").is_file():
        print(f"error: no gwmirror sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # Children use bytecode caches, as an installed CLI does.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    rng = random.Random(args.seed)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"python {platform.python_version()} nproc {nproc()} commit {git_commit()}")
    # Warm-up: compiles bytecode caches so that set-up times are comparable.
    warm = run_request(workload.argv(random.Random(args.seed)), False, -1, env)
    gate(workload, warm)
    if warm["failure"]:
        print(f"error: warm-up request failed: {warm['failure']}", file=sys.stderr)
        return 2

    print(f"loadavg before {loadavg()}")
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        i = len(samples)
        # A traced run repeats each untraced request's inputs traced, so that
        # both halves see the same inputs and their difference is the overhead.
        traced = bool(args.trace) and i % 2 == 1
        argv = samples[-1]["argv"] if traced else workload.argv(rng)
        samples.append(run_request(argv, traced, i, env))
    loop_s = time.perf_counter() - start
    print(f"loadavg after {loadavg()}")

    for i, s in enumerate(samples):
        gate(workload, s)
        line = f"sample {i} traced={int(s['traced'])} argv={' '.join(s['argv'])}"
        if "request_s" in s:
            line += (
                f" request_s={s['request_s']:.4f} cpu_s={s['cpu_s']:.4f}"
                f" setup_s={s['setup_s']:.4f} ref_s={s['ref_s']:.5f}"
                f" rss_mib={s['maxrss_kib'] / 1024:.1f}"
            )
        print(line + (f" FAILED: {s['failure']}" if s["failure"] else " ok"))

    ok = [s for s in samples if not s["failure"]]
    failed = len(samples) - len(ok)
    print(f"failure_ratio {failed}/{len(samples)} = {failed / len(samples):g}")
    traced_ok = sum(s["traced"] for s in ok)
    if len(ok) < MIN_SAMPLES or (args.trace and not 0 < traced_ok < len(ok)):
        print("error: too few successful requests to report metrics", file=sys.stderr)
        return 1
    raw = []
    if args.trace:
        values, notes = per_layer(ok)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values, notes, raw = end_to_end(ok, len(samples), loop_s)
        units = END_TO_END_UNITS
    for line in raw:
        print(line)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]} {notes.get(name, '')}".rstrip())
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
