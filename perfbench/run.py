"""Benchmark of the graphred command line, run as users run it.

Usage (from the root of a graphred checkout)::

    python3 perfbench/run.py --workload {tune_grid,train_unrolled,cloud_denoise} \
        --seed N --seconds S --trace {0,1}

Every CLI command is its own process, started with ``src/`` on the path,
``--threads 1`` and one BLAS/OpenMP thread, and commands run one at a time
(a closed loop with a single client).  Inputs are made from ``--seed``.

``--trace 0`` runs the workload's ``generate`` command several times (their
median wall time is ``setup_s``), then repeats the workload's pass of timed
commands until ``--seconds`` would be exceeded, and reports the end-to-end
metrics as medians over passes.  ``--trace 1`` runs one untraced pass and
then traced passes (``tracer.py`` wraps the package's functions from the
outside) and reports the per-layer metrics of ``layers.py``.

Every pass checks its outputs (see ``workloads.py``) and that they are byte
for byte the outputs of the first pass; traced outputs must equal untraced
ones.  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

SETUP_REPS = 5
# Speed on a shared machine drifts over tens of seconds; two passes at least
# keep one slow stretch from deciding a run's figure.
MIN_PASSES = 2
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def load_spans(path) -> layers.SpanSet:
    with open(path, "r", encoding="ascii") as fh:
        return layers.SpanSet(json.load(fh))


class BenchError(Exception):
    """A command failed or an output check did not hold."""


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int


class Bench:
    def __init__(self, root: str, workload, work_dir: str):
        self.workload = workload
        self.work = work_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_ENV)
        self.env.pop("PYTHONHOME", None)
        self.runs: list[Run] = []
        self.failures: list[str] = []
        self.failed = 0  # commands that exited non-zero, passes that failed a check
        self.rmse_ratios: list[float] = []
        self.digests: dict[str, str] = {}  # output label -> digest, identical in every pass
        self.pass_walls: list[float] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.failed += 1

    # -- running commands ----------------------------------------------------

    def run(self, cmd: Command, spans: str | None = None) -> Run:
        cfg_path = os.path.join(self.work, cmd.out + ".json")
        os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
        with open(cfg_path, "w", encoding="ascii") as fh:
            json.dump(cmd.config, fh, indent=2)
        if spans is None:
            argv = [sys.executable, "-m", "graphred.cli"]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans]
        argv += [cmd.subcommand, "--config", cfg_path, "--out", cmd.out, "--threads", "1"]
        with open(os.path.join(self.work, cmd.out + ".log"), "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        run = Run(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, code)
        self.runs.append(run)
        if code != 0:
            with open(os.path.join(self.work, cmd.out + ".log"), "r", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.fail(f"{cmd.label} exited with {code}: {tail.strip()}")
        return run

    def digest(self, rel: str) -> str:
        """Hash of every file under ``rel`` (names and bytes)."""
        h = hashlib.sha256()
        top = os.path.join(self.work, rel)
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    def same(self, what: str, got: str, want: str | None) -> str:
        if want is not None and got != want:
            self.fail(f"{what}: outputs differ from the first run's")
        return got if want is None else want

    # -- one pass --------------------------------------------------------------

    def run_pass(self, bundle: str, pass_dir: str, traced: bool):
        """Run the workload's commands once; check outputs, and that they equal the first pass's.

        Returns per-command runs and, for a traced pass, each command's spans.
        """
        runs, spans = {}, {}
        failed_before = len(self.failures)
        for cmd in self.workload.commands(bundle, pass_dir):
            spans_path = None
            if traced:
                spans_path = os.path.join(self.work, pass_dir, cmd.label + ".spans.json")
            runs[cmd.label] = (cmd, self.run(cmd, spans_path))
            if traced and runs[cmd.label][1].code == 0:
                try:
                    spans[cmd.label] = load_spans(spans_path)
                except (OSError, ValueError) as exc:
                    self.fail(f"{pass_dir}/{cmd.label}: unreadable spans: {exc}")
        if len(self.failures) == failed_before:
            try:
                failures, ratios = self.workload.check(self.work, bundle, pass_dir)
            except (OSError, KeyError, ValueError) as exc:
                failures, ratios = [f"reading outputs: {exc!r}"], []
            if failures:
                self.fail(f"{pass_dir}: " + "; ".join(failures))
            self.rmse_ratios += ratios
            for label, (cmd, _) in runs.items():
                self.digests[label] = self.same(
                    f"{pass_dir}/{label}", self.digest(cmd.out), self.digests.get(label)
                )
        return runs, spans

    def prepare(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        self.workload.make_inputs(self.work)
        # Untimed: compiles the package's bytecode and warms the file cache.
        subprocess.run([sys.executable, "-c", "import graphred.cli"], env=self.env,
                       cwd=self.work, check=True)

    # -- the two modes -----------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        setup, bundle_digest = [], None
        for i in range(SETUP_REPS):
            run = self.run(self.workload.generate(f"setup_{i}"))
            setup.append(run.wall_s)
            if run.code == 0:
                bundle_digest = self.same(f"setup_{i}", self.digest(f"setup_{i}"), bundle_digest)
        if self.failures:
            raise BenchError("set-up failed")
        self.digests["generate"] = bundle_digest
        passes = []
        start = time.perf_counter()
        while True:
            pass_dir = f"pass_{len(passes)}"
            runs, _ = self.run_pass("setup_0", pass_dir, traced=False)
            passes.append(runs)
            shutil.rmtree(os.path.join(self.work, pass_dir), ignore_errors=True)
            walls = [sum(r.wall_s for _, r in p.values()) for p in passes]
            if self.failures:
                break
            expected_end = time.perf_counter() - start + statistics.median(walls)
            if len(passes) >= MIN_PASSES and expected_end > seconds:
                break
        self.pass_walls = walls
        detail = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "passes": (len(passes), "count"),
        }
        for label, (cmd, _) in passes[0].items():
            wall = statistics.median(p[label][1].wall_s for p in passes)
            detail[f"{label}.wall_s"] = (wall, "s")
            detail[f"{label}.cpu_s"] = (statistics.median(p[label][1].cpu_s for p in passes), "s")
            if cmd.rate:
                detail[cmd.rate] = (cmd.units / wall, "1/s")
        return detail

    def trace(self, seconds: float) -> dict:
        base = self.run(self.workload.generate("setup_0"))
        gen_spans = os.path.join(self.work, "generate.spans.json")
        traced_gen = self.run(self.workload.generate("setup_t"), gen_spans)
        if self.failures:
            raise BenchError("set-up failed")
        self.digests["generate"] = self.digest("setup_0")
        self.same("traced generate", self.digest("setup_t"), self.digests["generate"])
        try:
            generate = load_spans(gen_spans)
        except (OSError, ValueError) as exc:
            raise BenchError(f"unreadable spans of the traced generate: {exc}") from exc
        start = time.perf_counter()
        plain, _ = self.run_pass("setup_0", "pass_0", traced=False)
        plain_wall = sum(r.wall_s for _, r in plain.values())
        per_pass, overhead = [], []
        while not self.failures:
            pass_dir = f"tpass_{len(per_pass)}"
            runs, spans = self.run_pass("setup_0", pass_dir, traced=True)
            if self.failures:
                break
            for label, ss in [("generate", generate), *spans.items()]:
                nesting = ss.nesting_failures()
                if nesting:
                    self.fail(f"{label}: " + "; ".join(nesting[:5]))
            metrics = layers.aggregate({"generate": generate, **spans}, {
                label: self.workload.records(label) for label in spans
            })
            wall = sum(r.wall_s for _, r in runs.values())
            overhead.append(wall / plain_wall)
            per_pass.append(metrics)
            shutil.rmtree(os.path.join(self.work, pass_dir), ignore_errors=True)
            if time.perf_counter() - start + wall > seconds:
                break
        if not per_pass:
            raise BenchError("traced run failed")
        detail = {}
        for name, unit in layers.catalogue():
            values = [m.get(name, 0.0) for m in per_pass]
            if unit != "s" and len(set(values)) > 1:
                self.fail(f"per-layer count {name} differs between traced passes: {values}")
            detail[name] = (statistics.median(values), unit)
        detail["trace.overhead_ratio"] = (statistics.median(overhead), "1")
        detail["trace.probe_failures"] = (per_pass[0].get("trace.probe_failures", 0.0), "count")
        detail["trace.generate_overhead_ratio"] = (traced_gen.wall_s / base.wall_s, "1")
        return detail

    def common_detail(self) -> dict:
        attempted = len(self.runs)
        return {
            "peak_rss_mb": (max(r.rss_mb for r in self.runs), "MB"),
            "rmse_ratio": (max(self.rmse_ratios) if self.rmse_ratios else 0.0, "1"),
            "error_rate": (min(self.failed, attempted) / attempted, "1"),
        }


def provenance(workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "workload": workload.name, **workload.provenance(), "nproc": cpus,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "cli_threads": 1, **THREAD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphred", "cli.py")):
        print(f"no graphred sources under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.size)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    bench = Bench(root, workload, work)
    try:
        bench.prepare()
        detail = bench.trace(args.seconds) if args.trace else bench.measure(args.seconds)
    except (BenchError, subprocess.CalledProcessError) as exc:
        for failure in bench.failures:
            print(failure, file=sys.stderr)
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if not bench.failures:
            shutil.rmtree(work, ignore_errors=True)
    detail.update(bench.common_detail())

    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in detail.items():
        print(f"{name:<58} {value:>18.10g} {unit}")
    print("provenance " + json.dumps(provenance(workload), sort_keys=True))
    print("artifacts " + json.dumps(bench.digests, sort_keys=True))
    print("pass_walls_s " + json.dumps([round(w, 4) for w in bench.pass_walls]))
    wanted = layers.catalogue() if args.trace else END_TO_END
    result = {
        "correct": not bench.failures,
        "attempted": len(bench.runs),
        "failed": min(bench.failed, len(bench.runs)),
        "metrics": {name: {"value": detail[name][0], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
