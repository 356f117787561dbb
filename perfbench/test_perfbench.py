"""Tests of the benchmark's own logic.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import random
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import run
import spans
import workloads
from workloads import GateError

HERE = Path(__file__).resolve().parent


def multiple_cover(bps: list[int]) -> list[Fraction]:
    """T_d = sum_{k|d} N_{d/k} / k^3, the forward formula the oracle inverts."""
    return [
        sum((Fraction(bps[d // k - 1], k**3) for k in range(1, d + 1) if d % k == 0), Fraction(0))
        for d in range(1, len(bps) + 1)
    ]


class MoebiusOracleTest(unittest.TestCase):
    def test_mobius_values(self):
        self.assertEqual([workloads.mobius(n) for n in range(1, 13)],
                         [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0])

    def test_quintic_table_inverts_to_known_heads(self):
        # The first entries of `gwmirror quintic --dmax 3`.
        table = [Fraction(2875), Fraction(4876875, 8), Fraction(8564575000, 27)]
        self.assertEqual(workloads.bps_numbers(table), [2875, 609250, 317206375])
        workloads.check_integral(table, workloads.QUINTIC_BPS_HEAD, "n_d")

    def test_localp2_kd_inverts_to_known_heads(self):
        # K_d column of `gwmirror local-p2 --dmax 6 --emit-kd`.
        kd = [Fraction(-3), Fraction(45, 8), Fraction(-244, 9), Fraction(12333, 64),
              Fraction(-211878, 125), Fraction(102365, 6)]
        self.assertEqual(workloads.bps_numbers(kd)[:5], list(workloads.LOCALP2_BPS_HEAD))
        workloads.check_integral(kd, workloads.LOCALP2_BPS_HEAD, "K_d")

    def test_round_trip_through_multiple_cover_formula(self):
        bps = [5, -7, 11, 0, 3, -2, 9, 1, 4, 6, -1, 8]
        self.assertEqual(workloads.bps_numbers(multiple_cover(bps)), bps)

    def test_non_integral_or_wrong_head_is_rejected(self):
        table = [Fraction(2875), Fraction(4876875, 8) + Fraction(1, 3)]
        with self.assertRaisesRegex(GateError, "not an integer"):
            workloads.check_integral(table, workloads.QUINTIC_BPS_HEAD, "n_d")
        with self.assertRaisesRegex(GateError, "head"):
            workloads.check_integral([Fraction(2876)], workloads.QUINTIC_BPS_HEAD, "n_d")


class TailTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond_at_the_highest_percentile(self):
        for n in range(run.MIN_SAMPLES, 400):
            values = [float(i) for i in range(n)]
            value, pct, count = run.tail(values)
            self.assertEqual(count, n)
            beyond = sum(v > value for v in values)
            self.assertGreaterEqual(beyond, 10, n)
            # One percentile higher would leave fewer than ten beyond it.
            rank = -(-(pct + 1) * n // 100)
            self.assertLess(n - rank, 10, n)

    def test_known_points(self):
        self.assertEqual(run.tail([float(i) for i in range(30)]), (19.0, 66, 30))
        self.assertEqual(run.tail([float(i) for i in range(100)]), (89.0, 90, 100))
        self.assertEqual(run.tail([float(i) for i in range(20)]), (9.0, 50, 20))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * (run.MIN_SAMPLES - 1))


class EndToEndTest(unittest.TestCase):
    def test_times_are_in_reference_units(self):
        # The machine runs at two speeds; each request costs 40 references.
        ok = [{"ref_s": ref, "request_s": 40 * ref, "cycle_s": 50 * ref, "setup_s": 0.02,
               "maxrss_kib": 20480}
              for ref in [0.01] * 15 + [0.02] * 15]
        values, notes, raw = run.end_to_end(ok, attempted=32, loop_s=10.0)
        self.assertAlmostEqual(values["request_ref_p50"], 40)
        self.assertAlmostEqual(values["request_ref_tail"], 40)
        self.assertAlmostEqual(values["throughput_per_ref"], 1 / 50)
        self.assertAlmostEqual(values["peak_rss_mib"], 20)
        self.assertAlmostEqual(values["success_ratio"], 30 / 32)
        self.assertEqual(notes["request_ref_tail"], "(p66 of 30 samples)")
        self.assertIn("request_s_p50 0.6 s", raw)
        self.assertIn("throughput_rps 3 1/s", raw)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 10]
        #   a [1, 4]        b [2, 3] inside it
        #   a [5, 9]        a [6, 8] inside it (a recursing)
        tree = [
            ("root", 0.0, 10.0, -1, 7, 0.0),
            ("a", 1.0, 4.0, 0, 7, 0.0),
            ("b", 2.0, 3.0, 1, 7, 0.0),
            ("a", 5.0, 9.0, 0, 7, 0.0),
            ("a", 6.0, 8.0, 3, 7, 0.0),
        ]
        agg = spans.aggregate(tree)
        self.assertEqual(agg["root.calls"], 1)
        self.assertEqual(agg["a.calls"], 3)
        self.assertAlmostEqual(agg["root.self_s"], 10 - 3 - 4)
        self.assertAlmostEqual(agg["a.self_s"], (3 - 1) + (4 - 2) + 2)
        self.assertAlmostEqual(agg["b.self_s"], 1)
        # The nested a [6, 8] lies inside a [5, 9] and is not counted again.
        self.assertAlmostEqual(agg["a.total_s"], 3 + 4)
        self.assertAlmostEqual(agg["root.total_s"], 10)

    def test_counter_time_is_left_out(self):
        # root [0, 10]
        #   mid [1, 6], its counter then runs for 1.5
        #     leaf [2, 3], its counter then runs for 0.5
        tree = [
            ("root", 0.0, 10.0, -1, 0, 0.0),
            ("mid", 1.0, 6.0, 0, 0, 1.5),
            ("leaf", 2.0, 3.0, 1, 0, 0.5),
        ]
        agg = spans.aggregate(tree)
        self.assertAlmostEqual(agg["leaf.self_s"], 1)
        self.assertAlmostEqual(agg["mid.self_s"], 5 - 1 - 0.5)
        self.assertAlmostEqual(agg["mid.total_s"], 5 - 0.5)
        self.assertAlmostEqual(agg["root.self_s"], 10 - 5 - 1.5)
        self.assertAlmostEqual(agg["root.total_s"], 10 - 1.5 - 0.5)

    def test_tracer_records_parents(self):
        tracer = spans.Tracer(request_id=3)
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        (n0, _, _, p0, r0, _), (n1, _, _, p1, _, _) = tracer.spans
        self.assertEqual((n0, p0, r0, n1, p1), ("outer", -1, 3, "inner", 0))

    def test_tracer_times_counters(self):
        tracer = spans.Tracer()
        mul = tracer.wrap("series.mul", lambda a, b: a)
        a = SimpleNamespace(coeffs=(1, 2, 3))
        mul(a, a)
        self.assertEqual(tracer.counts["series.mul.coeff_products"], 6)
        ((*_, counter_s),) = tracer.spans
        self.assertGreater(counter_s, 0)


class CounterTest(unittest.TestCase):
    def test_series_products(self):
        a = SimpleNamespace(coeffs=(1, 2, 3, 4))
        self.assertEqual(spans.series_products((a, a), None), {"coeff_products": 10})
        self.assertEqual(spans.series_products((a, Fraction(2)), None), {"coeff_products": 4})

    def test_cohomology_products_skip_zeros_and_truncation(self):
        a = SimpleNamespace(coeffs=(1, 0, 2))
        b = SimpleNamespace(coeffs=(0, 3, 5))
        # pairs (i, j) with i + j < 3 and both nonzero: (0, 1), (0, 2)
        self.assertEqual(spans.cohomology_products((a, b), None), {"coeff_products": 2})
        self.assertEqual(spans.cohomology_products((b, a), None), {"coeff_products": 2})
        self.assertEqual(spans.cohomology_products((a, 3), None), {"coeff_products": 3})

    def test_multipoly_pairs_inside_truncation(self):
        # Keys are (x1, x2, t, z); x-degree is x1 + x2, truncated at 2.
        a = SimpleNamespace(xdeg_max=2, terms={(0, 0, 1, 0): 1, (1, 0, 0, 0): 1, (1, 1, 0, 0): 1})
        b = SimpleNamespace(terms={(0, 0, 0, 1): 1, (0, 1, 0, 0): 1, (2, 0, 0, 0): 1})
        result = SimpleNamespace(terms={k: 1 for k in range(4)})
        # x-degrees a: 0, 1, 2 and b: 0, 1, 2; pairs with sum <= 2: 0+0 0+1 0+2 1+0 1+1 2+0
        self.assertEqual(spans.multipoly_pairs((a, b), result),
                         {"term_pairs": 6, "terms_out": 4})
        self.assertEqual(spans.multipoly_pairs((a, 2), result),
                         {"term_pairs": 3, "terms_out": 4})


def lemma_lines(seed: int) -> list[str]:
    """A passing lemma-a1 output; trial 2 samples all c_i = 0, so a
    closed-form line follows it."""
    head = f"seed={seed} xdeg={workloads.LEMMA_XDEG} pairs=(0,1),(1,0),(0,1)"
    lines = [
        f"trial={t} {head} c={'0,0,0' if t == 2 else '2/9,-9/8,-2'} a1 PASS"
        for t in range(1, workloads.LEMMA_TRIALS + 1)
    ]
    lines.insert(2, f"trial=2 {head} c=0,0,0 closed-form PASS")
    return lines


class GateTest(unittest.TestCase):
    lemma = workloads.WORKLOADS["lemma-a1"]
    argv = lemma.argv(random.Random(0))[:-1] + ["5"]
    lines = lemma_lines(5)
    stderr = f"{workloads.LEMMA_TRIALS} trials, all passed\n".encode()

    def check_lemma(self, lines, code=0, stderr=None):
        text = "".join(line + "\n" for line in lines).encode()
        self.lemma.check(self.argv, code, text, self.stderr if stderr is None else stderr)

    def test_lemma_output_passes(self):
        self.check_lemma(self.lines)

    def test_lemma_failures(self):
        bad = {
            "missing closed-form line": self.lines[:2] + self.lines[3:],
            "missing trial": self.lines[:-1],
            "FAIL line": self.lines[:-1] + [self.lines[-1].replace("PASS", "FAIL x")],
            "wrong seed": [self.lines[0].replace("seed=5", "seed=6")] + self.lines[1:],
        }
        for why, lines in bad.items():
            with self.subTest(why), self.assertRaises(GateError):
                self.check_lemma(lines)
        with self.assertRaises(GateError):
            self.check_lemma(self.lines, code=1)
        with self.assertRaises(GateError):
            self.check_lemma(self.lines, stderr=self.stderr.replace(b"all passed", b"FAILURES above"))

    def test_table_digest_mismatch_is_rejected(self):
        table = workloads.WORKLOADS["quintic-crosscheck"]
        with self.assertRaisesRegex(GateError, "digest"):
            table.check(["quintic", "--dmax", "12", "--crosscheck", "--format", "csv"], 0,
                        b"d,value\n1,2875\n", b"")

    def test_parse_table_formats(self):
        want = [{"d": "1", "value": "9", "kd": "-3"}, {"d": "2", "value": "135/4", "kd": "45/8"}]
        pretty = "case: local-p2\nparams: dmax=2\nd  value  kd\n1  9      -3\n2  135/4  45/8\n"
        csv = "d,value,kd\n1,9,-3\n2,135/4,45/8\n"
        js = json.dumps({"case": "local-p2", "params": {"dmax": 2}, "entries": [
            {"d": 1, "value": "9", "kd": "-3"}, {"d": 2, "value": "135/4", "kd": "45/8"}],
            "crosscheck": "absent"})
        for fmt, text in (("pretty", pretty), ("csv", csv), ("json", js)):
            self.assertEqual(workloads.parse_table(text, fmt), want, fmt)

    def test_expected_spans(self):
        workloads.check_expected_spans({"a.calls": 2, "b.calls": ">0"}, {"a.calls": 2, "b.calls": 1})
        with self.assertRaises(GateError):
            workloads.check_expected_spans({"a.calls": 2}, {"a.calls": 1})
        with self.assertRaises(GateError):
            workloads.check_expected_spans({"b.calls": ">0"}, {})


class TracedChildTest(unittest.TestCase):
    def test_patches_every_namespace(self):
        """localp2_kd reaches localp2_invariants through mirror's globals and
        cli calls it through its own import: both calls must be seen."""
        payload = json.dumps({"argv": ["local-p2", "--dmax", "3", "--emit-kd", "--format", "csv"],
                              "trace": True, "request_id": 0})
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), payload],
                              capture_output=True, env=env, timeout=60, check=True)
        report = json.loads(proc.stdout)
        self.assertEqual(report["stdout"], "d,value,kd\n1,9,-3\n2,135/4,45/8\n3,244,-244/9\n")
        layers = report["layers"]
        self.assertEqual(layers["mirror.localp2_invariants.calls"], 2)
        self.assertEqual(layers["hypergeom.ambient_I.calls"], 6)
        self.assertEqual(layers["cli.main.calls"], 1)
        self.assertGreater(layers["cohomology.mul.coeff_products"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.PER_LAYER)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.per_layer_unit(m["name"]))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
