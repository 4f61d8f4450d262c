"""Tests of the benchmark itself (stdlib unittest).

Run from the root of a checkout::

    python3 -m unittest discover -s perfbench/tests -v
"""

import hashlib
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

COUNT_UNITS = {"count", "B", "ratio"}


def _tmpdir():
    """A scratch directory inside the checkout, like the benchmark's own."""
    run.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


class _Fake:
    """A workload whose items are plain callables."""

    name = "fake"
    fixed_items = 0

    def run_item(self, ik, item, ctx):
        return item()


def _first_items(name, count, ik, tmp):
    return WORKLOADS[name].make_inputs(ik, run.DEFAULT_SEED, Path(tmp))[:count]


def _traced_pass(name, count):
    """Fresh import, cold caches, one traced pass over the first ``count`` items."""
    with _tmpdir() as tmp:
        ik = run.fresh_import()
        items = _first_items(name, count, ik, tmp)
        cached = run.cached_functions(ik)
        run.clear_caches(cached)
        t = tracer.Tracer(ik)
        with t:
            res = run.run_items(WORKLOADS[name], ik, items, run.Context(Path(tmp)),
                                count=count, digest_items=count, tracer=t)
        return res, t.metrics(cached)


class TracerTests(unittest.TestCase):
    def test_untraced_run_leaves_library_unwrapped(self):
        with _tmpdir() as tmp:
            ik = run.fresh_import()
            items = _first_items("cli", 9, ik, tmp)
            res = run.run_items(WORKLOADS["cli"], ik, items, run.Context(Path(tmp)), count=9)
            self.assertEqual(res.failures, [])
            self.assertEqual(tracer.wrapped_bindings(), [])
            self.assertIs(ik.notation.evaluate, ik.objlang.evaluate)
            self.assertFalse(hasattr(ik.objlang.evaluate, tracer.WRAPPER_MARK))

    def test_tracer_wraps_every_binding_and_restores_them(self):
        ik = run.fresh_import()
        original = ik.objlang.evaluate
        with tracer.Tracer(ik):
            wrapped = set(tracer.wrapped_bindings())
            for binding in ("ionkit.objlang.evaluate", "ionkit.notation.evaluate",
                            "ionkit.cli.evaluate", "ionkit.evaluate", "ionkit.cli.main",
                            "ionkit.lineage.fundamental_sequence"):
                self.assertIn(binding, wrapped)
            self.assertIsNot(ik.notation.evaluate, original)
        self.assertEqual(tracer.wrapped_bindings(), [])
        self.assertIs(ik.notation.evaluate, original)

    def test_self_time_excludes_child_spans(self):
        ik = run.fresh_import()
        t = tracer.Tracer(ik)
        with t:
            program = ik.notation.compile_ordinal(ik.ordinals.parse_ordinal("w^w"))
            ik.notation.verify(program, ik.objlang.Fuel(3000, 3), 3)
        ver = t.stats["notation.verify"]
        self.assertEqual(ver.calls, 1)
        self.assertLess(ver.self_ns, ver.total_ns)
        self.assertGreater(t.stats["objlang.evaluate"].calls, 1)
        children = [s for s in t.spans if s[3] >= 0 and t.names[t.spans[s[3]][0]] == "notation.verify"]
        self.assertEqual(ver.total_ns - ver.self_ns, sum(s[2] - s[1] for s in children))

    def test_count_metrics_repeat_across_traced_runs(self):
        for name, count in (("sweep", 3), ("verify", 27), ("descent", 12), ("cli", 18)):
            with self.subTest(workload=name):
                first, m1 = _traced_pass(name, count)
                second, m2 = _traced_pass(name, count)
                self.assertEqual(first.failures, [])
                counts1 = {k: v for k, (v, u) in m1.items() if u in COUNT_UNITS}
                counts2 = {k: v for k, (v, u) in m2.items() if u in COUNT_UNITS}
                self.assertEqual(counts1, counts2)
                self.assertEqual(first.digests, second.digests)


class DigestTests(unittest.TestCase):
    def test_one_byte_changes_the_digest(self):
        parts = ["src", ("Print('End');End", "End"), "FuelExhausted", 1234]
        changed = ["src", ("Print('End');End", "Emd"), "FuelExhausted", 1234]
        self.assertNotEqual(run.run_digest([run.item_digest(parts, None)]),
                            run.run_digest([run.item_digest(changed, None)]))

    def test_fold_separates_values(self):
        def digest(obj):
            h = hashlib.sha256()
            run.fold(h, obj)
            return h.hexdigest()

        self.assertNotEqual(digest(["ab", "c"]), digest(["a", "bc"]))
        self.assertNotEqual(digest([1]), digest(["1"]))
        self.assertNotEqual(digest([b"x"]), digest(["x"]))

    def _sweep_digest(self, patch=None):
        with _tmpdir() as tmp:
            ik = run.fresh_import()
            items = _first_items("sweep", 1, ik, tmp)
            if patch:
                patch(ik)
            res = run.run_items(WORKLOADS["sweep"], ik, items, run.Context(Path(tmp)),
                                count=1, digest_items=1)
            return res, run.run_digest(res.digests)

    def test_changed_output_byte_trips_the_run(self):
        clean, digest = self._sweep_digest()
        self.assertEqual(clean.failures, [])

        def flip_byte(ik):
            evaluate = ik.objlang.evaluate

            def patched(p, fuel):
                tr = evaluate(p, fuel)
                first = tr.outputs[0]
                out = (first[:-1] + chr(ord(first[-1]) ^ 1),) + tr.outputs[1:]
                return ik.objlang.Trace(out, tr.status, tr.steps_used)

            ik.objlang.evaluate = patched

        broken, broken_digest = self._sweep_digest(flip_byte)
        self.assertNotEqual(broken_digest, digest)
        self.assertEqual(len(broken.failures), 1)

    def test_default_seed_matches_the_pin(self):
        with _tmpdir() as tmp:
            ik = run.fresh_import()
            wl = WORKLOADS["cli"]
            items = _first_items("cli", wl.fixed_items, ik, tmp)
            run.clear_caches(run.cached_functions(ik))
            res = run.run_items(wl, ik, items, run.Context(Path(tmp)), count=wl.fixed_items,
                                digest_items=wl.fixed_items)
        self.assertEqual(run.run_digest(res.digests), run.load_pin("cli", run.DEFAULT_SEED))

    def test_changed_step_count_trips_the_digest(self):
        # Steps are not checked item by item; only the digest guards them.
        clean, digest = self._sweep_digest()

        def add_step(ik):
            evaluate = ik.objlang.evaluate

            def patched(p, fuel):
                tr = evaluate(p, fuel)
                return ik.objlang.Trace(tr.outputs, tr.status, tr.steps_used + 1)

            ik.objlang.evaluate = patched

        skewed, skewed_digest = self._sweep_digest(add_step)
        self.assertEqual(skewed.failures, [])
        self.assertNotEqual(skewed_digest, digest)


class LoopTests(unittest.TestCase):
    def test_tail_percentile_has_ten_samples_beyond(self):
        rng = random.Random(7)
        for n in range(run.MIN_ITEMS, run.MIN_ITEMS + 400):
            samples = [rng.choice((1.0, 2.0, rng.random())) for _ in range(n)]
            value, beyond = run.percentile(samples, run.TAIL_PERCENTILE)
            self.assertGreaterEqual(beyond, 10, n)
            self.assertEqual(value, sorted(samples)[n - beyond - 1])

    def test_timed_loop_runs_at_least_min_items(self):
        items = [lambda: []]
        res = run.run_items(_Fake(), None, items, run.Context(Path(".")), seconds=0.0,
                            min_items=run.MIN_ITEMS)
        self.assertGreaterEqual(len(res.latencies), run.MIN_ITEMS)
        self.assertGreaterEqual(run.percentile(res.latencies, run.TAIL_PERCENTILE)[1], 10)

    def test_scaling_cancels_a_slower_machine(self):
        rng = random.Random(3)
        lat = [rng.uniform(0.001, 0.1) for _ in range(300)]
        refs = [run.REF_NOMINAL_S * rng.uniform(0.8, 1.2) for _ in lat]
        base = run.scaled(lat, refs)
        # The whole machine slows down by 1.7x from item 100 on.
        slow = [x * (1.7 if i >= 100 else 1.0) for i, x in enumerate(lat)]
        slow_refs = [r * (1.7 if i >= 100 else 1.0) for i, r in enumerate(refs)]
        for a, b in list(zip(base, run.scaled(slow, slow_refs)))[100 + run.REF_WINDOW:]:
            self.assertAlmostEqual(a, b, places=12)
        # A slower program on the same machine is not scaled away.
        self.assertAlmostEqual(sum(run.scaled([x * 1.3 for x in lat], refs)), 1.3 * sum(base))

    def test_every_exception_is_isolated_per_item(self):
        def recurse():
            return recurse()

        def no_memory():
            raise MemoryError

        def bad_check():
            raise CheckFailed("output differs")

        items = [lambda: ["ok"], recurse, no_memory, bad_check, lambda: ["ok"]]
        res = run.run_items(_Fake(), None, items, run.Context(Path(".")), count=5,
                            digest_items=5)
        self.assertEqual(len(res.latencies), 5)
        self.assertEqual([(f["item"], f["type"]) for f in res.failures],
                         [(1, "RecursionError"), (2, "MemoryError"), (3, "CheckFailed")])
        self.assertEqual(len(res.digests), 5)


class DocumentTests(unittest.TestCase):
    def test_documents_name_every_metric(self):
        bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
        ik = run.fresh_import()
        t = tracer.Tracer(ik)
        with t:
            pass
        traced = dict(t.metrics(run.cached_functions(ik)))
        traced["trace.overhead_ratio"] = (1.0, "ratio")
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: u for k, (v, u) in traced.items()})
        documented = [m for group in layers["layers"] for m in group["metrics"]]
        self.assertEqual(sorted(documented), sorted(traced))
        self.assertEqual(set(layers["workloads"]), set(WORKLOADS))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertLessEqual({m["name"] for m in bench["end_to_end"]}, set(layers["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
