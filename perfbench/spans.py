"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the layer entry points listed in ``LAYERS``.  A
module-level function is replaced in every ``gwmirror`` namespace that
holds it, because ``cli``, ``mirror`` and the package ``__init__`` bind
names with ``from ... import``; a method, dunders included, is replaced on
its class.  Each call records a span (name, start, end, parent) in memory;
``aggregate`` turns them into calls, self time and total time per name
once the request is over.  A few names also count the coefficient
products they form; the time those counts take is kept out of every
span's self and total time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> (class name or None for module functions, {metric op: attribute names})
LAYERS = {
    "series": ("DSeries", {
        "mul": ("__mul__",), "inv": ("inv",), "exp": ("exp",), "log": ("log",),
        "substitute": ("substitute",), "revert_exp": ("revert_exp",),
    }),
    "hypergeom": (None, {n: (n,) for n in ("naive_series", "hyper_factor", "ambient_I")}),
    "cohomology": ("CohClass", {"mul": ("__mul__",), "add": ("__add__",), "inv": ("inv",)}),
    "mirror": (None, {n: (n,) for n in (
        "quintic_f", "quintic_invariants", "quintic_crosscheck", "reconstruct_p_quintic",
        "localp2_f", "localp2_invariants", "localp2_kd", "solve_correction_series",
    )}),
    "multipoly": ("MultiPoly", {
        # __rmul__ and __radd__ are aliases of __mul__ and __add__ on MultiPoly.
        "mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__"),
        "log": ("log",), "exp": ("exp",), "partial": ("partial",),
    }),
    "loglinear": (None, {n: (n,) for n in (
        "build_p", "build_q", "check_a1", "check_closed_forms", "sample_config",
    )}),
    "cli": (None, {"main": ("main",)}),
}


# -- counters: work a call formed, from its arguments and result ----------------


def series_products(args, result) -> dict:
    """Coefficient products formed by DSeries.__mul__: the (d, e) pairs with
    d + e <= dmax for a series operand, one per coefficient for a scalar."""
    self, other = args
    n = len(self.coeffs)
    return {"coeff_products": n * (n + 1) // 2 if hasattr(other, "coeffs") else n}


def cohomology_products(args, result) -> dict:
    """Coefficient products formed by CohClass.__mul__: nonzero pairs below
    the truncation for a class operand, one per coefficient for a scalar."""
    self, other = args
    a = self.coeffs
    if not hasattr(other, "coeffs"):
        return {"coeff_products": len(a)}
    b = other.coeffs
    n = len(a)
    return {"coeff_products": sum(1 for i in range(n) if a[i] for j in range(n - i) if b[j])}


def multipoly_pairs(args, result) -> dict:
    """Term pairs MultiPoly.__mul__ forms inside the x-degree truncation, and
    the terms that survive; their ratio is the useful share."""
    self, other = args
    if not hasattr(other, "terms"):
        return {"term_pairs": len(self.terms), "terms_out": len(result.terms)}
    da = defaultdict(int)
    for key in self.terms:
        da[sum(key[:-2])] += 1
    db = defaultdict(int)
    for key in other.terms:
        db[sum(key[:-2])] += 1
    pairs = sum(na * nb for a, na in da.items() for b, nb in db.items()
                if a + b <= self.xdeg_max)
    return {"term_pairs": pairs, "terms_out": len(result.terms)}


COUNTERS = {
    "series.mul": series_products,
    "cohomology.mul": cohomology_products,
    "multipoly.mul": multipoly_pairs,
}


class Tracer:
    """Records spans of one request.  ``spans`` holds (name, start, end,
    parent index or -1, request id, counter seconds) tuples; the last field
    is the time the span's counter took after ``end``."""

    def __init__(self, request_id: int = 0):
        self.request_id = request_id
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        rid = self.request_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, rid, 0.0)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[f"{name}.{key}"] += value
                # The count ran inside the caller's span; record its time so
                # that aggregate() can charge it to tracing, not the caller.
                spans[index] = (name, start, end, parent, rid, clock() - end)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in LAYERS; raise if one is missing."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "gwmirror" or n.startswith("gwmirror."))]
        for layer, (cls_name, ops) in LAYERS.items():
            module = importlib.import_module(f"gwmirror.{layer}")
            for op, attrs in ops.items():
                name = f"{layer}.{op}"
                if cls_name is not None:
                    cls = getattr(module, cls_name)
                    originals = {}
                    for attr in attrs:
                        fn = cls.__dict__[attr]
                        if fn not in originals:
                            originals[fn] = self.wrap(name, fn)
                        setattr(cls, attr, originals[fn])
                    continue
                fn = getattr(module, attrs[0])
                wrapped = self.wrap(name, fn)
                patched = 0
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
                            patched += 1
                if patched == 0:
                    raise RuntimeError(f"no namespace holds {name}")


def aggregate(spans) -> dict[str, float]:
    """Per-name ``calls``, ``self_s`` and ``total_s`` from a span list.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap because calls nest, and minus the time
    their counters took.  Total time sums only the outermost span of each
    name, so a name that recurses is not counted twice, and leaves out the
    counter time of every span inside it.  Counters are the tracer's own
    work, so neither figure includes them.
    """
    n = len(spans)
    child_time = [0.0] * n  # direct children and their counters
    counter_time = [0.0] * n  # counters of all descendants
    # A child's index is larger than its parent's, so walking backwards
    # finishes every span's subtree before the span itself.
    for i in range(n - 1, -1, -1):
        _, start, end, parent, _, counter_s = spans[i]
        if parent >= 0:
            child_time[parent] += end - start + counter_s
            counter_time[parent] += counter_time[i] + counter_s
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.total_s"] += end - start - counter_time[i]
    return dict(out)
