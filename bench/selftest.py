"""Self-test of the benchmark at a tiny size (a few items per workload).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit, in the
human-readable lines and in the final JSON line, for each workload and both
trace modes; and that a deliberately wrong expected answer is caught as a
failed item with a non-zero exit code.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = 6  # items per workload


def tiny_run(name, trace=0, corrupt=None):
    """Run one workload on its first TINY items; `corrupt(items)` may spoil an
    expected answer.  Returns (exit code, stdout lines, final JSON)."""
    cls = workloads.WORKLOADS[name]
    make_items = cls.make_items

    def few(self, rng):
        items = make_items(self, rng)[:TINY]
        if corrupt:
            corrupt(items)
        return items

    out = io.StringIO()
    cls.make_items = few
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                             "--trace", str(trace)])
    finally:
        cls.make_items = make_items
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


class SelfTest(unittest.TestCase):
    def check_metrics(self, lines, result, declared):
        names = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, unit in names.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float))
            self.assertTrue(any(ln.startswith(name + " ") and f" {unit}" in ln for ln in lines),
                            f"{name} is not printed with its unit {unit}")

    def test_every_metric_prints_with_its_unit(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                code, lines, result = tiny_run(name)
                self.assertEqual(code, 0, lines)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"], 2 * TINY)
                self.check_metrics(lines, result, SPEC["end_to_end"])

    def test_traced_run_prints_every_layer(self):
        for name in ("sweep", "analyze"):
            with self.subTest(workload=name):
                code, lines, result = tiny_run(name, trace=1)
                self.assertEqual(code, 0, lines)
                self.check_metrics(lines, result, SPEC["per_layer"])
                self.assertTrue(any(ln.startswith("tracing overhead:") for ln in lines))

    def test_wrong_expected_answer_is_a_failure(self):
        def wrong_sphere(items):
            items[0].expect = [x + 1 for x in items[0].expect]

        def wrong_verdict(items):
            for item in items:
                if item.args[0] != "tower":
                    item.expect = "no such answer"
                    return
            items[0].args = ("coxeter", ["a", "b"], [])  # Z/2 * Z/2: two ends, not "x"
            items[0].expect = "x"

        for name, corrupt in (("cayley_cli", wrong_sphere), ("deciders", wrong_verdict)):
            with self.subTest(workload=name):
                code, lines, result = tiny_run(name, corrupt=corrupt)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
