"""Per-layer metrics from the spans that ``tracer.py`` records.

A layer is a graphred module.  For a function, ``calls`` counts its spans,
``self_s`` is span time minus the time of its child spans, summed.  The
derived ratios use the arguments and results the tracer recorded, and are
exact counts: they repeat from run to run and only change when the code
does.
"""

from __future__ import annotations

from collections import defaultdict

MODULES = ("construct", "graphs", "denoisers", "red", "unroll", "datasets", "cli")

# Functions reported with calls and self time.
TIMED = (
    "red.red_cg_solve",
    "denoisers.pnp_gains", "denoisers.lr_gains", "denoisers.denoiser_gains",
    "denoisers.lr_denoise_spectral", "denoisers.pnp_admm_denoise", "denoisers.lr_denoise",
    "graphs.gft", "graphs.igft", "graphs.eigendecompose", "graphs.build_laplacian",
    "graphs.load_edge_list", "graphs.save_edge_list",
    "construct.knn_graph", "construct.normalize_weights",
    "datasets.fps", "datasets.load_point_cloud", "datasets.generate_pointcloud_dataset",
    "datasets.generate_synthetic_dataset", "datasets.save_dataset", "datasets.load_dataset",
    "unroll.train", "unroll.unrolled_forward", "unroll.adam_step",
    "cli.tune_method", "cli.apply_method", "cli.solve_with_report",
)
CLI_COMMANDS = ("generate", "tune", "denoise", "train", "eval")
SHARED, REBUILD = "denoise_shared", "denoise_rebuild"
# Argument-derived facts the tracer records, summed into these metrics.
_EXTRA_METRIC = {
    ("red.red_cg_solve", "layers"): "red.red_cg_solve.layers",
    ("graphs.load_edge_list", "bytes"): "graphs.load_edge_list.bytes",
    ("graphs.save_edge_list", "bytes"): "graphs.save_edge_list.bytes",
    ("datasets.save_dataset", "bytes"): "datasets.save_dataset.bytes",
    ("construct.knn_graph", "dist_bytes"): "construct.knn_graph.dist_bytes_computed",
}


def catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for fn in TIMED:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    out += [
        ("red.red_cg_solve.layers", "count"),
        ("denoisers.pnp_gains.calls_per_distinct", "calls/solve"),
        ("denoisers.pnp_gains.calls_per_distinct_global", "calls/args"),
        (f"graphs.eigendecompose.calls_per_graph.{SHARED}", "calls/graph"),
        (f"graphs.eigendecompose.calls_per_graph.{REBUILD}", "calls/graph"),
        ("graphs.load_edge_list.calls_per_graph", "calls/graph"),
        ("graphs.load_edge_list.bytes", "B"),
        ("graphs.save_edge_list.bytes", "B"),
        ("datasets.save_dataset.bytes", "B"),
        ("construct.knn_graph.dist_bytes_computed", "B"),
        ("unroll.unrolled_forward.calls_per_epoch.train_lr", "calls/epoch"),
        ("unroll.unrolled_forward.calls_per_epoch.train_pnp", "calls/epoch"),
        (f"cli.red_solves_per_record.{SHARED}", "solves/record"),
        (f"cli.red_solves_per_record.{REBUILD}", "solves/record"),
    ]
    for cmd in CLI_COMMANDS:
        out += [(f"cli.cmd_{cmd}.total_s", "s"), (f"cli.cmd_{cmd}.self_s", "s")]
    out += [(f"{m}.self_s", "s") for m in MODULES]
    out += [("trace.overhead_ratio", "1"), ("trace.errors", "count"), ("trace.spans", "count")]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class SpanSet:
    """The spans of one traced process, with parent links and self times."""

    def __init__(self, payload: dict):
        names = payload["names"]
        rows = payload["spans"]
        self.count = len(rows)
        if [r[0] for r in rows] != list(range(self.count)):
            raise ValueError("span ids are not contiguous: a span was left open")
        self.name = [names[r[1]] for r in rows]
        self.start = [r[2] for r in rows]
        self.end = [r[3] for r in rows]
        self.parent = [r[4] for r in rows]
        self.error = [r[5] for r in rows]
        self.extra = [r[6] or {} for r in rows]
        child = [0] * self.count
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self.self_ns = [self.end[i] - self.start[i] - child[i] for i in range(self.count)]

    def keys(self, target: str) -> list:
        """The argument key the tracer recorded for each span named ``target``."""
        return [self.extra[i].get("key") for i in range(self.count) if self.name[i] == target]

    def nearest(self, target: str) -> list[int]:
        """For each span, the id of its nearest ancestor-or-self named ``target``, or -1."""
        out = [-1] * self.count
        for i in range(self.count):
            if self.name[i] == target:
                out[i] = i
            elif self.parent[i] >= 0:
                out[i] = out[self.parent[i]]
        return out

    def nesting_failures(self) -> list[str]:
        """Children must lie inside their parents, and each command span's time
        must equal the self times of the spans under it, summed."""
        failures = []
        subtree = list(self.self_ns)
        for i in range(self.count - 1, -1, -1):
            p = self.parent[i]
            if p < 0:
                continue
            if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                failures.append(f"span {self.name[i]} lies outside its parent {self.name[p]}")
            subtree[p] += subtree[i]
        for i in range(self.count):
            if self.name[i].startswith("cli.cmd_") and subtree[i] != self.end[i] - self.start[i]:
                failures.append(f"{self.name[i]}: self times under it do not sum to its span")
        return failures


def aggregate(traced: dict[str, SpanSet], records: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics over the traced commands of one workload run.

    ``traced`` maps each command label (``generate``, ``tune``,
    ``denoise_shared`` ...) to its spans; ``records`` gives the records each
    denoise command processes.
    """
    m: dict[str, float] = defaultdict(float)
    pnp_per_solve = pnp_global = 0
    load_calls = load_distinct = 0
    for label, ss in traced.items():
        per_fn = defaultdict(int)
        for i in range(ss.count):
            per_fn[ss.name[i]] += 1
            m[f"{ss.name[i]}.self_s"] += ss.self_ns[i] * 1e-9
            m[f"{ss.name[i].split('.')[0]}.self_s"] += ss.self_ns[i] * 1e-9
            m["trace.errors"] += ss.error[i]
            m["trace.probe_failures"] += ss.extra[i].get("probe_failed", 0)
            for key in ("layers", "bytes", "dist_bytes"):
                if key in ss.extra[i]:
                    m[_EXTRA_METRIC[ss.name[i], key]] += ss.extra[i][key]
            if ss.name[i].startswith("cli.cmd_"):
                m[f"{ss.name[i]}.total_s"] += (ss.end[i] - ss.start[i]) * 1e-9
        for fn, n in per_fn.items():
            m[f"{fn}.calls"] += n
        m["trace.spans"] += ss.count

        solve = ss.nearest("red.red_cg_solve")
        pnp = [i for i in range(ss.count) if ss.name[i] == "denoisers.pnp_gains"]
        pnp_per_solve += len({(solve[i], ss.extra[i].get("key")) for i in pnp})
        pnp_global += len(set(ss.keys("denoisers.pnp_gains")))

        loads = ss.keys("graphs.load_edge_list")
        load_calls += len(loads)
        load_distinct += len(set(loads))

        if label in (SHARED, REBUILD):
            eig = ss.keys("graphs.eigendecompose")
            m[f"graphs.eigendecompose.calls_per_graph.{label}"] = _ratio(len(eig), len(set(eig)))
            m[f"cli.red_solves_per_record.{label}"] = _ratio(
                per_fn["red.red_cg_solve"], records.get(label, 0)
            )
        if label in ("train_lr", "train_pnp"):
            in_train = ss.nearest("unroll.train")
            forwards = sum(
                1 for i in range(ss.count)
                if ss.name[i] == "unroll.unrolled_forward" and in_train[i] >= 0
            )
            epochs = sum(e.get("epochs", 0) for e in ss.extra)
            m[f"unroll.unrolled_forward.calls_per_epoch.{label}"] = _ratio(forwards, epochs)

    calls = m.get("denoisers.pnp_gains.calls", 0)
    m["denoisers.pnp_gains.calls_per_distinct"] = _ratio(calls, pnp_per_solve)
    m["denoisers.pnp_gains.calls_per_distinct_global"] = _ratio(calls, pnp_global)
    m["graphs.load_edge_list.calls_per_graph"] = _ratio(load_calls, load_distinct)
    return dict(m)
