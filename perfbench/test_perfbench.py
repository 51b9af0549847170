"""Tests of the benchmark itself: generators, checks, references and tracing.

    PYTHONPATH=src python3 -m unittest discover -s perfbench -p 'test_*.py'

They run every workload's operations at a seed other than the default, and
show that each check rejects a perturbed output.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from unittest import mock
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _bump_first(d: dict) -> dict:
    if not d:
        return {"": 1}
    key = next(iter(d))
    return {**d, key: d[key] + 1}


def _bump_cli_output(got):
    code, out, err = got
    for pattern in (r'"coeff": "(-?\d+)/', r'"(?:count|multiplicity|trace|value)": "?(-?\d+)'):
        match = re.search(pattern, out)
        if match:
            a, b = match.span(1)
            return code, out[:a] + str(int(out[a:b]) + 1) + out[b:], err
    raise AssertionError(f"nothing to perturb in {out!r}")


PERTURB = {
    "word_mul": _bump_first,
    "object_mul": _bump_first,
    "antipode": _bump_first,
    "binomial": _bump_first,
    "adams": _bump_first,
    "schur": _bump_first,
    "chain": lambda g: (g[0], g[1], _bump_first(g[2])),
    "epsilon": lambda g: (g[0] + 1,) + g[1:],
    "projector_product": lambda g: (g[0], g[1], _bump_first(g[2])),
    "enumerate": lambda g: g[:-1],
    "oracle": lambda g: (g[0], g[1], _bump_first(g[2])),
    "multiplicity": lambda g: g + 1,
    "apply_kernel": lambda g: (g[0], g[1], _bump_first(g[2])),
    "refine": lambda g: (g[0], g[1], _bump_first(g[2])),
    "pair": lambda g: g + 1,
    "pushforward": lambda g: g + 1,
    "cli": _bump_cli_output,
    "cli_usage_error": lambda g: (0,) + g[1:],
}


class OutputsAtSecondSeed(unittest.TestCase):
    """Every operation of every workload at another seed: right outputs pass
    their checks, and a perturbed output fails them."""

    @classmethod
    def setUpClass(cls):
        cls.outputs = {}
        for name in workloads.WORKLOADS:
            ops = workloads.make_ops(name, SEED)
            cls.outputs[name] = [(op, workloads.plain(workloads.run(op))) for op in ops]

    def test_every_output_passes(self):
        for name, outputs in self.outputs.items():
            for op, got in outputs:
                with self.subTest(workload=name, op=op[0]):
                    self.assertEqual(workloads.check(op, got), [], op)

    def test_a_wrong_trace_is_rejected(self):
        op = ("projector_product", ("bwwb", "bwwb"))
        got = workloads.plain(workloads.run(op))
        with mock.patch.object(workloads.category, "trace", lambda f: Fraction(0)):
            self.assertNotEqual(workloads.check(op, got), [])

    def test_every_check_rejects_a_perturbed_output(self):
        seen = set()
        for name, outputs in self.outputs.items():
            for op, got in outputs:
                with self.subTest(workload=name, op=op[0], args=str(op[1])[:80]):
                    self.assertNotEqual(workloads.check(op, PERTURB[op[0]](got)), [])
                seen.add(op[0])
        self.assertEqual(seen, set(workloads.CHECKS))


class Generators(unittest.TestCase):
    def test_seeded_and_large_enough(self):
        for name in workloads.WORKLOADS:
            ops = workloads.make_ops(name, SEED)
            self.assertEqual(ops, workloads.make_ops(name, SEED))
            self.assertNotEqual(ops, workloads.make_ops(name, SEED + 1))
            self.assertNotEqual(ops, workloads.make_ops(name, SEED, 1))
            self.assertEqual([k for k, _ in ops], [k for k, _ in workloads.make_ops(name, SEED, 1)])
            self.assertGreaterEqual(len(ops), 100, name)


class References(unittest.TestCase):
    def test_path_counts(self):
        self.assertEqual([ref.delannoy_2d(n, n) for n in range(5)], [1, 3, 13, 63, 321])
        self.assertEqual(ref.delannoy_3d(1, 1, 1), 13)
        self.assertEqual(ref.delannoy_3d(2, 1, 0), ref.delannoy_2d(2, 1))

    def test_ring(self):
        self.assertEqual(ref.quasi_shuffle("b", "w"), {"bw": 1, "wb": 1, "b": 1, "w": 1, "": 1})
        self.assertEqual(ref.quasi_shuffle("b", "b"), {"bb": 2, "b": 1})
        self.assertEqual([ref.object_product_coeff(1, 1, j) for j in range(3)], [3, 5, 2])
        self.assertEqual(ref.antipode({"b": 1}), {"b": -1, "": -2})
        self.assertEqual(ref.hook_content((2, 1), 3), 8)
        self.assertEqual(ref.hook_content((1, 1), -1), 1)
        self.assertEqual(ref.generalized_binomial(-2, 3), -4)

    def test_category_and_euler(self):
        diagonal = ((1, 1),)
        self.assertEqual(ref.compose_basis(diagonal, diagonal), {diagonal: 1})
        self.assertEqual(ref.compose({p: 1 for p in ref.projector("bw")},
                                     {p: 1 for p in ref.projector("bw")}),
                         ref.projector("bw"))
        self.assertEqual(ref.integral({(1,): 1, (0,): 1}), 0)
        one = (1, (), {(0,): 1})
        self.assertEqual(ref.pair(one, (1, (Fraction(0),), {(1,): 2})), 2)


class Tracing(unittest.TestCase):
    def traced(self) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "cli-session", str(SEED), "0", "traced"],
            cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_counts_repeat_exactly(self):
        first, second = self.traced(), self.traced()
        self.assertEqual(first["failures"], [])
        counts = {k: v for k, v in first["layer"].items() if isinstance(v, int)}
        self.assertEqual(counts, {k: second["layer"][k] for k in counts})
        self.assertGreater(counts["cli.main.calls"], 0)
        self.assertGreater(counts["category.compose.calls"], 0)
        names = set(first["layer"]) | {"cli.import_s", "trace.overhead_s"}
        self.assertLessEqual(set(run.metric_units("per_layer")), names)


if __name__ == "__main__":
    unittest.main()
