"""Run one graphred CLI command with every layer function wrapped in a span.

Usage::

    python3 perfbench/tracer.py SPANS_JSON graphred-subcommand [CLI args...]

The package itself is not modified.  Before ``graphred.cli.main`` runs, every
public function defined in the layer modules is replaced by a wrapper that
records a span (name, start, end, parent, whether an exception escaped, and a
few argument-derived facts).  Modules bind each other's functions with
``from .x import y``, so every module attribute that refers to a wrapped
function is rebound, as are the ``cli.COMMANDS`` entries.  Spans are kept in
memory and written to SPANS_JSON when the command returns.  The exit code is
the CLI's own.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("construct", "graphs", "denoisers", "red", "unroll", "datasets", "cli")


def _digest(array) -> str:
    import numpy as np

    return hashlib.blake2b(np.ascontiguousarray(array).data, digest_size=12).hexdigest()


def _tree_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span store plus the argument probes behind the derived per-layer ratios."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: dict[int, tuple] = {}
        self.counter = itertools.count()
        self.local = threading.local()
        self.main_stack: list[int] = []
        self.keys: dict = {}
        self.eig_digests: dict = {}  # id(array) -> (array, digest); arrays are kept alive
        self.origin = time.perf_counter_ns()

    # -- argument probes: each returns a small JSON-able dict or None --------

    def _key_id(self, key) -> int:
        return self.keys.setdefault(key, len(self.keys))

    def _lambdas_digest(self, lambdas) -> str:
        hit = self.eig_digests.get(id(lambdas))
        if hit is None or hit[0] is not lambdas:
            hit = (lambdas, _digest(lambdas))
            self.eig_digests[id(lambdas)] = hit
        return hit[1]

    def probe(self, name, args, kwargs, result):
        if name == "denoisers.pnp_gains":
            key = (
                float(_arg(args, kwargs, 1, "alpha")),
                float(_arg(args, kwargs, 2, "rho")),
                int(_arg(args, kwargs, 3, "iters")),
                self._lambdas_digest(_arg(args, kwargs, 0, "lambdas")),
            )
            return {"key": self._key_id(key)}
        if name == "graphs.eigendecompose":
            return {"key": self._key_id(_digest(_arg(args, kwargs, 0, "lap").matrix))}
        if name == "graphs.load_edge_list":
            return {
                "key": self._key_id(_digest(result.adjacency)),
                "bytes": os.path.getsize(_arg(args, kwargs, 0, "path")),
            }
        if name == "graphs.save_edge_list":
            return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}
        if name == "datasets.save_dataset":
            return {"bytes": _tree_bytes(_arg(args, kwargs, 1, "out_dir"))}
        if name == "construct.knn_graph":
            n, d = _arg(args, kwargs, 0, "points").shape
            return {"dist_bytes": n * n * (d + 1) * 8}
        if name == "red.red_cg_solve":
            return {"layers": int(result.iterations)}
        if name == "unroll.train":
            return {"epochs": len(result[1])}
        return None

    def safe_probe(self, name, args, kwargs, result):
        # A probe that no longer fits the code it watches (a renamed argument,
        # a new return type) must not break the traced command.
        try:
            return self.probe(name, args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
            return {"probe_failed": 1}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.main_stack if threading.current_thread() is threading.main_thread() else []
            self.local.stack = stack
        return stack

    def wrap(self, name, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans = self.spans
        main_stack = self.main_stack
        counter = self.counter
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's outermost span belongs to whatever the main
            # thread is blocked in (the command that submitted the work).
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            idx = next(counter)
            stack.append(idx)
            error = 0
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = 1
                raise
            finally:
                end = clock()
                stack.pop()
                extra = None if error else self.safe_probe(name, args, kwargs, result)
                origin = self.origin
                spans[idx] = (idx, name_id, start - origin, end - origin, parent, error, extra)

        return traced

    def install(self) -> None:
        import graphred  # noqa: F401  (loads every submodule)

        modules = {name: importlib.import_module(f"graphred.{name}") for name in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                wrapped[value] = self.wrap(f"{layer}.{attr}", value)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("graphred"):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        commands = modules["cli"].COMMANDS
        for key, value in commands.items():
            commands[key] = wrapped.get(value, value)

    def dump(self, path) -> None:
        payload = {"names": self.names, "spans": [self.spans[i] for i in sorted(self.spans)]}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_JSON COMMAND [ARGS...]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from graphred import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
