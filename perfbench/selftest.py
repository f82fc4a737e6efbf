"""Self-tests of the census benchmark (about two minutes on two cores).

    python3 perfbench/selftest.py

They check that the seeded census is reproducible, that the correctness
gate catches each kind of failure it names, that the traced counts repeat
exactly, and that every traced function is reached by the workload meant to
reach it, so a rename in ``src/`` cannot silently zero a metric.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import unittest

import gate
import run
import tracer

# reached only through the euler check, which census-exact leaves out
EULER_ONLY = {
    "numfield.embed",
    "numfield.is_algebraic_integer",
    "eulerclass.euler_tuple",
    "eulerclass.euler_number",
    "eulerclass.lift_representation",
    "eulerclass.ucover_mul",
    "eulerclass.closed_surface_obstruction",
}


def rows_of(seed):
    return json.loads(run.census_bytes(seed))["knots"]


class CensusTests(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(run.census_bytes(5), run.census_bytes(5))

    def test_seeds_give_the_same_knots_in_other_orders(self):
        orders = [[r["name"] for r in rows_of(seed)] for seed in range(8)]
        self.assertEqual(len({tuple(sorted(o)) for o in orders}), 1)
        self.assertGreater(len({tuple(o) for o in orders}), 1)
        rows = rows_of(0)
        self.assertEqual(len(rows), 28)
        self.assertEqual(sum(gate.is_stub(r) for r in rows), 6)


class GateTests(unittest.TestCase):
    """Mutations of one real report, each of which must fail the gate."""

    NAMES = ("7_3", "7_4", "P(3,3,3)", "9_16")  # 9_16 is a stub row

    @classmethod
    def setUpClass(cls):
        work = run.WORK / "selftest-gate"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        census = work / "census.json"
        census.write_bytes(run.census_bytes(1))
        cmd = run.report_cmd(census, run.ALL_CHECKS, 1, work / "report.json")
        for name in cls.NAMES:
            cmd += ["--knot", name]
        run.Runner(time.monotonic() + 120)(cmd)
        cls.report = json.loads((work / "report.json").read_bytes())
        cls.rows = [r for r in rows_of(1) if r["name"] in cls.NAMES]
        cls.checks = run.ALL_CHECKS.split(",")

    def failures(self, payload, reference=None):
        data = json.dumps(payload).encode()
        return {k: v for k, v in gate.check_report(data, self.rows, self.checks, reference).items() if v}

    def mutated(self, name, edit):
        payload = copy.deepcopy(self.report)
        edit(next(e for e in payload["knots"] if e["name"] == name))
        return payload

    def test_real_report_passes(self):
        self.assertEqual(self.failures(self.report), {})

    def test_wrong_euler_tuple_fails_even_with_flags_true(self):
        bad = self.mutated("7_3", lambda e: e["euler"].update(euler=[1, 3]))
        self.assertEqual(set(self.failures(bad)), {"7_3"})

    def test_false_match_flag_fails(self):
        bad = self.mutated("7_4", lambda e: e["slopes"].update(slopes_match=False))
        self.assertEqual(set(self.failures(bad)), {"7_4"})

    def test_wrong_uniqueness_verdict_fails(self):
        bad = self.mutated("P(3,3,3)", lambda e: e["uniqueness"]["cases"][0].update(verdict="x"))
        self.assertEqual(set(self.failures(bad)), {"P(3,3,3)"})

    def test_error_status_and_missing_entry_fail(self):
        bad = self.mutated("7_3", lambda e: e.update(status="error"))
        self.assertEqual(set(self.failures(bad)), {"7_3"})
        bad = copy.deepcopy(self.report)
        bad["knots"] = [e for e in bad["knots"] if e["name"] != "7_4"]
        self.assertEqual(set(self.failures(bad)), {"7_4"})

    def test_lost_stub_fails_every_knot(self):
        bad = self.mutated("9_16", lambda e: e.update(status="ok"))
        self.assertEqual(set(self.failures(bad)), {"7_3", "7_4", "P(3,3,3)"})

    def test_difference_from_reference_fails(self):
        reference = {e["name"]: copy.deepcopy(e) for e in self.report["knots"]}
        reference["7_4"]["render"]["svg_sha256"] = "0" * 64
        self.assertEqual(set(self.failures(self.report, reference)), {"7_4"})

    def test_unreadable_report_fails_every_knot(self):
        got = gate.check_report(b"{", self.rows, self.checks)
        self.assertTrue(all(got.values()))

    def test_nonzero_exit_is_a_gate_failure(self):
        with self.assertRaises(run.GateFailure):
            run.Runner(time.monotonic() + 120)([sys.executable, "-c", "raise SystemExit(3)"])


class TracerTests(unittest.TestCase):
    SPEC = json.loads(run.SPEC.read_text())

    @classmethod
    def traced(cls, workload, seed):
        res = run.measure(workload, seed, 1, True, cls.SPEC)
        assert res["correct"], res["failures"]
        return res["all_values"]

    def test_counts_repeat_and_every_function_is_reached(self):
        first = self.traced("census-full", 2)
        second = self.traced("census-full", 3)
        exact = self.traced("census-exact", 2)
        counts = [k for k in first if k.endswith((".calls", ".failed"))
                  or k in ("eulerclass.real_places", "eulerclass.ladder_rungs",
                           "eulerclass.rungs_failed")]
        self.assertEqual({k: first[k] for k in counts}, {k: second[k] for k in counts})
        self.assertEqual(first["eulerclass.real_places"], 34)
        self.assertEqual(first["eulerclass.ladder_rungs"], 41)
        self.assertEqual(first["eulerclass.rungs_failed"], 7)
        self.assertEqual(first["eulerclass.ucover_mul.calls"], 8626)
        for name, _, _ in tracer.TRACED:
            self.assertGreater(first[f"{name}.calls"], 0, name)
            if name in EULER_ONLY:
                self.assertEqual(exact[f"{name}.calls"], 0, name)
            else:
                self.assertGreater(exact[f"{name}.calls"], 0, name)

    def test_ladder_counts(self):
        dumps = [{"ladders": [(128, 128), (128, 256)]}, {"ladders": [(128, 512)]}]
        self.assertEqual(tracer.ladder_counts(dumps),
                         {"real_places": 3, "ladder_rungs": 6, "rungs_failed": 3})

    def test_self_time_excludes_children(self):
        dump = {"names": ["a", "b"], "name_id": [0, 1, 1], "parent": [-1, 0, 0],
                "start_ns": [0, 10, 40], "end_ns": [100, 30, 60], "failed": [0, 0, 1]}
        got = tracer.aggregate([dump])
        self.assertAlmostEqual(got["a"]["self_s"], 60e-9)
        self.assertEqual((got["b"]["calls"], got["b"]["failed"]), (2, 1))

    def test_missing_traced_function_is_an_error(self):
        code = ("import sys, tracer; sys.path.insert(0, sys.argv[1]);"
                "tracer.TRACED = (('numfield.gone', 'numfield', 'no_such_function'),);"
                "tracer.install()")
        proc = subprocess.run([sys.executable, "-c", code, str(run.SRC)], cwd=run.BENCH,
                              capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("LookupError", proc.stderr)


class ContractTests(unittest.TestCase):
    def test_refuses_a_directory_without_the_program(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census-exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
