"""One benchmark request in a fresh interpreter.

Usage: python3 child.py '{"argv": [...], "trace": false, "request_id": 0}'

Times its own ``import gwmirror.cli`` (set-up) and its own
``gwmirror.cli.main(argv)`` call (the request, until the CLI's stdout is
fully written).  A fixed pure-Python loop, the reference, is timed before
the import and again after the request.  The child then prints one JSON
report on its real stdout holding those times, the CPU time,
``ru_maxrss``, the exit code and the CLI's stdout text.  With ``trace``
set, the layer entry points are wrapped after set-up and the report also
carries the per-layer aggregates.
"""

import io
import json
import resource
import sys
import time
import traceback

REFERENCE_REPEATS = 2
REFERENCE_STEPS = 30000


def reference_s() -> float:
    """Wall time of a fixed loop of big-integer arithmetic and dict stores,
    the shortest of a few repeats (about 11 ms each on a 2-CPU x86 machine).

    Apart from one dict, the loop makes no object the garbage collector
    tracks, so what the program left in memory does not change its time.
    """
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        acc, table = 1, {}
        for i in range(REFERENCE_STEPS):
            acc = (acc * 1000003 + i) % (1 << 127)
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    request = json.loads(sys.argv[1])
    ref_before = reference_s()
    t0 = time.perf_counter()
    import gwmirror.cli

    setup_s = time.perf_counter() - t0
    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer(request["request_id"])
        tracer.install()

    real_stdout = sys.stdout
    captured = io.BytesIO()
    # Kept referenced: dropping the wrapper would close ``captured``.
    text_out = io.TextIOWrapper(captured, encoding="utf-8", newline="\n")
    sys.stdout = text_out
    error = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        code = gwmirror.cli.main(request["argv"])
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported to run.py as a failed request
        code, error = None, traceback.format_exc()
    text_out.flush()
    request_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    sys.stdout = real_stdout
    # The machine's speed changes in phases of seconds.  The reference
    # timed on both sides of the request sees the phases the request ran
    # in, so dividing by it cancels the machine's speed.
    ref_s = (ref_before + reference_s()) / 2

    report = {
        "ref_s": ref_s,
        "setup_s": setup_s,
        "request_s": request_s,
        "cpu_s": cpu_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "exit": code,
        "error": error,
        "stdout": captured.getvalue().decode("utf-8"),
    }
    if tracer is not None:
        layers = spans.aggregate(tracer.spans)
        layers.update(tracer.counts)
        report["layers"] = layers
    json.dump(report, real_stdout)


if __name__ == "__main__":
    main()
