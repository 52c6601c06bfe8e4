"""Self-tests of the benchmark, at a tiny input size (about a minute in all).

Run from the root of a graphred checkout::

    python3 perfbench/selftest.py

For each workload, an untraced and a traced run must succeed with no failed
command, print every metric by name with its unit, and report exactly the
metrics that ``BENCHMARK.json`` lists.  A traced run only succeeds when the
traced outputs equal the untraced ones byte for byte and the self times of
the spans under each command span sum to that span.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="ascii") as _fh:
    SPEC = json.load(_fh)

# The end-to-end figures each workload prints on its detail lines.
DETAIL = {
    "tune_grid": ["tune_candidates_per_s"],
    "train_unrolled": ["train_lr_epochs_per_s", "train_pnp_epochs_per_s"],
    "cloud_denoise": ["denoise_shared_records_per_s", "denoise_rebuild_records_per_s"],
}
COMMON_DETAIL = ["setup_s", "wall_s", "peak_rss_mb", "rmse_ratio", "error_rate"]


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def detail_lines(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] not in ("provenance", "artifacts", "pass_walls_s"):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


class WorkloadRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int, spec_key: str) -> dict:
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        return detail_lines(proc.stdout)

    def test_untraced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail = self.check_run(workload, 0, "end_to_end")
                for name in COMMON_DETAIL + DETAIL[workload]:
                    self.assertIn(name, detail)
                    self.assertTrue(detail[name][1])
                self.assertEqual(detail["error_rate"][0], 0.0)
                for name in ("setup_s", "wall_s", "peak_rss_mb", "rmse_ratio"):
                    self.assertGreater(detail[name][0], 0.0)

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail = self.check_run(workload, 1, "per_layer")
                self.assertEqual(detail["error_rate"][0], 0.0)
                self.assertEqual(detail["trace.errors"][0], 0.0)
                self.assertEqual(detail["trace.probe_failures"][0], 0.0)
                self.assertGreater(detail["trace.spans"][0], 0.0)

    def test_without_the_package_it_fails_without_a_result(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"), prefix="bare-")
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("tune_grid", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class Spans(unittest.TestCase):
    NAMES = ["cli.main", "cli.cmd_tune", "red.red_cg_solve", "denoisers.pnp_gains"]

    def spans(self, rows):
        return layers.SpanSet({"names": self.NAMES, "spans": rows})

    def test_self_times_sum_to_the_command_span(self):
        ss = self.spans([
            [0, 0, 0, 100, -1, 0, None],
            [1, 1, 5, 95, 0, 0, None],
            [2, 2, 10, 50, 1, 0, {"layers": 3}],
            [3, 3, 20, 30, 2, 0, {"key": 0}],
            [4, 3, 31, 35, 2, 0, {"key": 0}],
        ])
        self.assertEqual(ss.nesting_failures(), [])
        self.assertEqual(ss.self_ns, [10, 50, 26, 10, 4])
        metrics = layers.aggregate({"tune": ss}, {})
        self.assertEqual(metrics["denoisers.pnp_gains.calls_per_distinct"], 2.0)
        self.assertEqual(metrics["red.red_cg_solve.layers"], 3)

    def test_a_child_outside_its_parent_is_reported(self):
        ss = self.spans([
            [0, 0, 0, 100, -1, 0, None],
            [1, 1, 5, 95, 0, 0, None],
            [2, 2, 90, 120, 1, 0, {"layers": 1}],
        ])
        self.assertTrue(ss.nesting_failures())


class Catalogue(unittest.TestCase):
    def test_benchmark_json_lists_the_catalogue(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in SPEC["per_layer"]], layers.catalogue()
        )
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)


if __name__ == "__main__":
    unittest.main()
