"""Span recording and layer wrappers for the traced benchmark run.

The benchmark measures layers from the outside: it wraps the public
entry points of each layer (``LAYER_TARGETS``) with a function that
records a span — name, start, end, parent span, run id — into an
in-memory :class:`SpanRecorder`, plus counts read at the same boundary
(edges sampled, rows loaded, ops priced, events processed...).  Nothing
under ``src/`` is edited: :func:`install` replaces each target in every
module or class namespace where callers look it up, and
:func:`uninstall` puts the originals back.  :func:`assert_clean`
proves no wrapper is left before an untraced timing starts.

A span's *self time* is its duration minus the part of it covered by
its child spans (:func:`self_times`), so nested calls — the sampler
inside the serving event loop, the forward pass inside validation —
are charged to exactly one layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
from time import perf_counter

import numpy as np

#: marker attribute every wrapper carries (its value is the original)
WRAPPED = "__e2ebench_original__"


class SpanRecorder:
    """In-memory span store: ``[name, start, end, parent, run_id]``.

    ``parent`` is the index of the enclosing open span (-1 at top
    level).  ``counts`` accumulates per-layer counters read at the same
    boundaries; ``run_id`` tags every span opened while it is set (one
    benchmark operation — an epoch, a sweep point, a matrix cell).
    """

    def __init__(self, run_id: str = ""):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.run_id = run_id
        self._stack: list[int] = []
        #: exact op signatures priced so far (``cost.repeat_share``)
        self.priced: set[bytes] = set()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped})")

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open (nested same-layer
        calls are counted once, at the outermost boundary)."""
        return any(self.spans[i][0] == name for i in self._stack)

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus the duration of
    its direct children (which already exclude theirs)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


# -- counters read at the layer boundaries ----------------------------------
def _op_signature(op) -> bytes:
    """Digest of an op's exact pricing inputs: type, label, arrays."""
    h = hashlib.blake2b(digest_size=16)
    h.update(type(op).__name__.encode())
    for key, value in sorted(vars(op).items()):
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode() + str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, tuple):  # ParallelGroup branches
            for branch in value:
                for inner in branch:
                    h.update(_op_signature(inner))
        else:
            h.update(repr(value).encode())
    return h.digest()


def _count_sampling(rec, args, out) -> None:
    rec.add("sampling.calls")
    rec.add("sampling.edges", out[2].sampled_total)


def _count_cache(rec, args, out) -> None:
    stats = out[2]
    rec.add("cache.load_calls")
    for path in ("local", "remote", "cold"):
        rec.add(f"cache.{path}", stats[path])
    rec.add("cache.requested", sum(len(r) for r in args[1]))


def _count_plan(rec, args, out) -> None:
    rec.add("cache.plan_lookups")
    if out is not None:
        rec.add("cache.plan_hits")


def _count_dynamic(rec, args, out) -> None:
    policy = args[0]
    rec.add("cache.dynamic.promotions", policy.last_promoted)
    rec.add("cache.dynamic.demotions", policy.last_demoted)


def _count_cost(rec, args, out) -> None:
    rec.add("cost.calls")
    trace = args[1]
    for op in trace.ops:
        sig = _op_signature(op)
        rec.add("cost.ops")
        if sig in rec.priced:
            rec.add("cost.repeat_ops")
        else:
            rec.priced.add(sig)
    for cost in out:
        rec.add("sim.nvlink_bytes", cost.nvlink_bytes)
        rec.add("sim.pcie_bytes", cost.pcie_bytes)


def _count_serve(rec, args, out) -> None:
    rec.add("serve.batches", out.num_batches)
    rec.add("serve.requests", out.completed)


def _count_invariants(rec, args, out) -> None:
    rec.add("chaos.violations", len(args[0].violations))


def _count_events(rec, args, out, before: int) -> None:
    rec.add("engine.events", args[0].events_processed - before)


#: (span name, module, attribute path, counter) of every wrapped entry
#: point.  Module-level functions are replaced wherever a module binds
#: them; methods are replaced on the class that defines them.  A
#: counter runs after the call returns, inside a ``bench.count`` span
#: so its cost is charged to the tracer, not to the layer.
LAYER_TARGETS = (
    ("graph.generate", "repro.graph.datasets", "load_dataset", None),
    ("graph.partition", "repro.graph.datasets", "load_partition", None),
    ("core.build", "repro.core.system", "build_system", None),
    ("sampling", "repro.sampling.csp", "CollectiveSampler.sample",
     _count_sampling),
    ("sampling", "repro.sampling.pulldata", "PullDataSampler.sample",
     _count_sampling),
    ("sampling", "repro.sampling.uva", "UVASampler.sample", _count_sampling),
    ("sampling", "repro.sampling.cpu", "CPUSampler.sample", _count_sampling),
    ("cache", "repro.cache.loader", "FeatureLoader.load", _count_cache),
    ("cache", "repro.cache.loader", "HostGatherLoader.load", _count_cache),
    ("cache.plan", "repro.cache.plan", "PlanCache.lookup", _count_plan),
    ("cache.dynamic", "repro.cache.dynamic", "DynamicCachePolicy.observe",
     _count_dynamic),
    ("cache.dynamic", "repro.cache.dynamic", "DynamicCachePolicy.warm", None),
    ("cache.dynamic", "repro.cache.dynamic", "DynamicCachePolicy.reset", None),
    ("cost", "repro.core.cost", "CostEngine.trace_cost", _count_cost),
    ("engine", "repro.core.pipeline", "PipelineRunner.run", None),
    ("engine", "repro.engine.simulator", "Simulator.run", _count_events),
    ("nn.forward", "repro.nn.gnn", "_BlockModel.__call__", None),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward", None),
    ("nn.optim", "repro.nn.optim", "Adam.step", None),
    ("nn.eval", "repro.core.system", "TrainingSystem.evaluate", None),
    ("serve", "repro.serve.service", "GNNServer.run", _count_serve),
    ("control", "repro.control.controller", "ServeController._tick", None),
    ("control", "repro.control.controller", "ServeController.summary", None),
    *(("chaos", "repro.chaos.invariants", f"InvariantChecker.{hook}", None)
      for hook in ("on_event_time", "on_queue_push", "on_launch",
                   "on_bytes", "on_stage_done")),
    ("chaos", "repro.chaos.invariants", "InvariantChecker.finalize",
     _count_invariants),
    *(("chaos", "repro.chaos.injector", f"FaultInjector.{query}", None)
      for query in ("install", "compute_scale", "comm_scale", "lost_peers")),
    *(("metrics", "repro.metrics.registry", path, None)
      for path in ("Counter.inc", "Gauge.set", "Gauge.set_many",
                   "Histogram.observe", "MetricsRegistry.flush",
                   "MetricsRegistry.finalize")),
    ("metrics", "repro.metrics.slo", "SLOMonitor.summary", None),
    ("metrics", "repro.metrics.slo", "serve_summary", None),
)

#: spans that only count (``PlanCache.lookup`` runs once per GPU per
#: load; a span there would cost more than the lookup it measures)
COUNT_ONLY = frozenset({"cache.plan"})


# -- wrapping ----------------------------------------------------------------
def _wrap(orig, name: str, rec: SpanRecorder, counter):
    if name in COUNT_ONLY:
        @functools.wraps(orig)
        def count_only(*args, **kwargs):
            out = orig(*args, **kwargs)
            counter(rec, args, out)
            return out

        setattr(count_only, WRAPPED, orig)
        return count_only

    events = counter is _count_events

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        before = args[0].events_processed if events else 0
        idx = rec.open(name)
        try:
            out = orig(*args, **kwargs)
        finally:
            rec.close(idx)
        # an outer same-layer call counts the work of nested ones
        if counter is not None and (events or not rec.inside(name)):
            c = rec.open("bench.count")
            if events:
                counter(rec, args, out, before)
            else:
                counter(rec, args, out)
            rec.close(c)
        return out

    setattr(wrapper, WRAPPED, orig)
    return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _repro_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


def _binding_modules():
    """Every loaded module: callers outside ``repro`` (this benchmark's
    own workload code included) bind module functions by name too."""
    return [m for m in list(sys.modules.values()) if m is not None]


def install(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap every layer target; returns the undo list for
    :func:`uninstall`.  Module functions are rebound in every loaded
    module that holds them, so ``from x import f`` callers see the
    wrapper too."""
    import_all()
    undo: list[tuple[object, str, object]] = []
    for name, module, path, counter in LAYER_TARGETS:
        owner, attr = _resolve(module, path)
        orig = owner.__dict__[attr]
        if hasattr(orig, WRAPPED):
            raise RuntimeError(f"{module}.{path} is already wrapped")
        wrapper = _wrap(orig, name, rec, counter)
        if isinstance(owner, type):
            undo.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            continue
        for mod in _binding_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def assert_clean() -> None:
    """Raise if any wrapper is still bound in a loaded module or on a
    ``repro`` class."""
    left = [f"{mod.__name__}.{key}" for mod in _binding_modules()
            for key, value in list(vars(mod).items())
            if not isinstance(value, type(sys)) and hasattr(value, WRAPPED)]
    for mod in _repro_modules():
        for key, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                left.extend(
                    f"{mod.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, WRAPPED)
                )
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


def import_all() -> None:
    """Import every module a layer target lives in, plus the modules
    that re-export module-level targets, so one pass rebinds them all."""
    for module in sorted({t[1] for t in LAYER_TARGETS}):
        importlib.import_module(module)
    for module in ("repro", "repro.core", "repro.graph", "repro.serve",
                   "repro.control", "repro.chaos", "repro.metrics",
                   "repro.bench.harness", "repro.parallel",
                   "repro.chaos.scenarios", "repro.control.evaluate"):
        importlib.import_module(module)


__all__ = ["LAYER_TARGETS", "SpanRecorder", "assert_clean", "install",
           "self_times", "uninstall"]
