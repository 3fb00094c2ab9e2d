"""In-memory span recorder for the traced run, wrapped around lsqcond's layers.

The layers are the package's modules. A call from one layer into a public
function of another is a layer boundary: `installed` replaces each such
function in the namespace of the module that calls it with a recorder, so
calls inside one module stay unrecorded and no file of the package
changes. Each span keeps its layer, function name, start, end, parent and
whether it raised. A layer's self time is its spans' durations minus the
time covered by their direct children.

Per-layer counters are taken at the same boundaries by the hooks in
`HOOKS`: a hook sees the call's arguments before it runs and returns a
function that receives the result (None if the call raised).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
import types
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "lsqcond"
LAYERS = ("cli", "mmio", "core", "conditioning", "jacobian", "prior_bounds", "report", "generators")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Spans and counters of one op. Single-threaded, like the program."""

    def __init__(self, track_memory: bool = False):
        self.spans: list[tuple | None] = []  # (parent, layer, name, start, end, raised)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.track_memory = track_memory
        self._stack: list[int] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def wrap(self, layer: str, fn):
        hook = HOOKS.get(f"{layer}.{fn.__name__}")

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            post = result = None
            raised = True
            start = time.perf_counter()
            try:
                post = hook(self, args, kwargs) if hook else None
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (parent, layer, fn.__name__, start, end, raised)
                if post:
                    post(result)

        return recorded

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors of every layer over this op."""
        covered = [0.0] * len(self.spans)
        for parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for sid, (_, layer, _, start, end, raised) in enumerate(self.spans):
            totals[layer]["calls"] += 1
            totals[layer]["self_s"] += end - start - covered[sid]
            totals[layer]["errors"] += int(raised)
        return totals

    def records(self, op: int):
        """Spans as JSON-ready dicts; spans of one op share its index."""
        for sid, (parent, layer, name, start, end, raised) in enumerate(self.spans):
            yield {"op": op, "id": sid, "parent": parent, "layer": layer, "name": name,
                   "start": start, "end": end, "raised": raised}  # fmt: skip


def _layer_of(module_name: str) -> str | None:
    prefix, _, layer = module_name.partition(".")
    return layer if prefix == PACKAGE and layer in LAYERS else None


def _proxy(tracer: Tracer, layer: str, module: types.ModuleType) -> types.SimpleNamespace:
    """Stand-in for a layer module referenced as a whole (`from . import mmio`)."""
    attrs = {}
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and not attr.startswith("_") and _layer_of(obj.__module__) == layer:
            obj = tracer.wrap(layer, obj)
        attrs[attr] = obj
    return types.SimpleNamespace(**attrs)


@contextmanager
def installed(tracer: Tracer):
    """Route every cross-layer call through `tracer` for the duration."""
    saved = []
    for caller_name in LAYERS:
        caller = importlib.import_module(f"{PACKAGE}.{caller_name}")
        for attr, obj in list(vars(caller).items()):
            replacement = None
            if inspect.isfunction(obj) and not attr.startswith("_"):
                layer = _layer_of(obj.__module__)
                if layer is not None and layer != caller_name:
                    replacement = tracer.wrap(layer, obj)
            elif inspect.ismodule(obj):
                layer = _layer_of(obj.__name__)
                if layer is not None and layer != caller_name:
                    replacement = _proxy(tracer, layer, obj)
            if replacement is not None:
                saved.append((caller, attr, obj))
                setattr(caller, attr, replacement)
    # the sampler's direction block is counted where it is evaluated, a
    # private call inside jacobian; the count is 0 if that function goes
    jacobian = importlib.import_module(f"{PACKAGE}.jacobian")
    batch = getattr(jacobian, "_batch_objective", None)
    if batch is not None:

        @functools.wraps(batch)
        def counted(cache, D, *args, **kwargs):
            tracer.add("jacobian.directions", D.shape[1])
            return batch(cache, D, *args, **kwargs)

        saved.append((jacobian, "_batch_objective", batch))
        jacobian._batch_objective = counted
    try:
        yield tracer
    finally:
        for caller, attr, obj in reversed(saved):
            setattr(caller, attr, obj)


# --- counter hooks, keyed by "<layer>.<function>" -------------------------


def _file_bytes(tracer, args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    tracer.add("mmio.bytes_read", os.path.getsize(path))


def _svd_elems(index: int, name: str, factor: int = 1):
    def hook(tracer, args, kwargs):
        obj = _arg(args, kwargs, index, name)
        size = obj.A.size if hasattr(obj, "A") else getattr(obj, "size", 0)
        tracer.add("core.svd_elems", factor * size)

    return hook


def _empirical(tracer, args, kwargs):
    if tracer.track_memory:
        tracemalloc.start()

    def post(result):
        if tracer.track_memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.counters["jacobian.peak_alloc_mb"] = max(tracer.counters["jacobian.peak_alloc_mb"], peak / 1e6)
        tracer.add("jacobian.empirical_calls", 1)
        if result is not None and result.best_direction.origin == "sampled":
            tracer.add("jacobian.sampled_wins", 1)

    return post


def _dump_json(tracer, args, kwargs):
    return lambda text: tracer.add("report.bytes_out", len(text or ""))


def _write_csv(tracer, args, kwargs):
    fh = _arg(args, kwargs, 0, "fh")
    start = fh.tell()
    return lambda _: tracer.add("report.bytes_out", fh.tell() - start)


HOOKS = {
    "mmio.read_matrix": _file_bytes,
    "mmio.read_vector": _file_bytes,
    "core.solve_least_squares": _svd_elems(0, "problem"),
    "core.spectral_data": _svd_elems(0, "A"),
    "core.nuclear_norm": _svd_elems(0, "M"),
    "core.projector_difference_norm": _svd_elems(0, "A", factor=2),
    "jacobian.empirical_condition_wrt_A": _empirical,
    "report.dump_json": _dump_json,
    "report.write_csv": _write_csv,
}
