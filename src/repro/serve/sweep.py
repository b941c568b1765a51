"""QPS sweep driver: offered load vs latency, and the saturation knee.

Replays one :class:`~repro.serve.workload.Workload` at a ladder of
offered loads (the same arrival pattern, time-compressed — common
random numbers) and reports, per point, the full SLO accounting.  The
*knee* is the largest offered QPS the server sustains: p99 latency
within the SLO and (at most) a token shed rate.  Comparing knees across
systems is the serving analogue of Table 4 — DSP's partitioned cache +
CSP sampling buy it a strictly higher sustainable QPS than Pull-Data
or UVA data movement at the same SLO.

This is the one serving driver for every replica layout:
``replicas`` (see :func:`serve_once`) splits the stream across a fixed
router's replicas or the autoscaler's, each replica's sub-stream runs
on a fresh :class:`GNNServer` over the same built system, and the
records merge back in arrival order.  Replicas are independent servers,
so serving them one after another and overlaying their timelines is
exact, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.service import GNNServer, ServeConfig
from repro.serve.stats import ServeReport, build_report
from repro.serve.workload import Workload
from repro.utils.errors import ConfigError
from repro.utils.rng import make_rng, spawn_rngs


@dataclass(frozen=True)
class SweepPoint:
    """One offered load and the report the server produced under it."""

    qps: float
    report: ServeReport


def _reset(system) -> None:
    """Return the system to the state every serving pass starts from.

    Sweep points, replicas and the passes of a chaos or controller cell
    share one built system, so each pass first re-seeds the sampler's
    RNG streams (every pass samples the same neighbourhoods), returns
    the dynamic cache policy — and the shared store it mutates — to its
    post-warmup baseline, and empties the feature-path plan cache
    (loader outputs are cache-transparent, but the hit/miss counts the
    metrics layer surfaces are not).  A pass is then a pure function of its inputs,
    byte-identical whichever worker executes it.
    """
    sampler = getattr(system, "sampler", None)
    rngs = getattr(sampler, "rngs", None)
    if rngs is not None:
        sampler.rngs = spawn_rngs(make_rng(system.config.seed), len(rngs))
    loader = getattr(system, "loader", None)
    dyn = getattr(loader, "dynamic", None)
    if dyn is not None:
        dyn.reset()
    pc = getattr(loader, "plan_cache", None)
    if pc is not None:
        pc.reset()


def warm_once(system, warm_nodes) -> int | None:
    """Seed the dynamic cache policy from workload history, once.

    The warmed placement becomes the baseline every serving pass resets
    to.  Later calls on the same system are no-ops, so the caller's
    process and each sweep worker warm their own copy exactly once.
    Returns the number of rows promoted, or ``None`` when nothing was
    warmed (no history, no dynamic policy, or already warm).
    """
    dyn = getattr(getattr(system, "loader", None), "dynamic", None)
    if warm_nodes is None or dyn is None or dyn.warmed:
        return None
    return dyn.warm(warm_nodes)


def _splits(replicas) -> bool:
    """Whether ``replicas`` splits the stream over more than one server."""
    if replicas is None:
        return False
    from repro.cluster.router import RouterConfig
    from repro.control.autoscale import AutoscaleConfig

    if isinstance(replicas, RouterConfig):
        return replicas.num_replicas > 1
    if isinstance(replicas, AutoscaleConfig):
        return True
    raise ConfigError(
        f"replicas must be a RouterConfig, an AutoscaleConfig or None, "
        f"not {type(replicas).__name__}"
    )


def _check_untraced(replicas, tracing: bool) -> None:
    if tracing and _splits(replicas):
        raise ConfigError(
            "tracing a replicated run is ambiguous — trace one replica "
            "by serving without replicas instead"
        )


def _checker(cfg: ServeConfig, metrics=None):
    """A strict invariant checker when the config asks for auditing;
    a violation lands on ``metrics`` (a registry) before it raises."""
    if not cfg.check_invariants:
        return None
    from repro.chaos.invariants import InvariantChecker

    return InvariantChecker(metrics=metrics)


def serve_pass(system, requests, qps: float, cfg: ServeConfig, *,
               tracer=None, metrics: bool = False,
               metrics_window_s: float | None = None, faults=None):
    """One fresh server over ``requests``: reset, serve, audit.

    The only code that builds a :class:`GNNServer`: sweep points,
    replicas, chaos cells and controller cells all serve through here.
    ``faults`` (a :class:`~repro.chaos.FaultPlan`) perturbs the pass
    through a :class:`~repro.chaos.FaultInjector`.  Returns ``(server,
    report)``; ``report.metrics`` holds the windowed summary when
    ``metrics`` is set.
    """
    _reset(system)
    registry = None
    if metrics:
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry(
            window_s=(metrics_window_s if metrics_window_s is not None
                      else cfg.slo_s)
        )
    invariants = _checker(cfg, registry)
    injector = None
    if faults is not None and not faults.fault_free:
        from repro.chaos.injector import FaultInjector

        injector = FaultInjector(faults)
    server = GNNServer(system, cfg, tracer=tracer, metrics=registry,
                       injector=injector, invariants=invariants)
    report = server.run(requests, offered_qps=qps)
    if invariants is not None:
        invariants.finalize()
    if registry is not None:
        from repro.metrics import serve_summary

        report.metrics = serve_summary(registry, report.slo_s)
    return server, report


def _split(system, requests, qps: float, replicas, cfg: ServeConfig):
    """Assign each request to a replica.

    Returns ``(replica ids to serve, assignment, autoscale summary)``.
    A fixed router serves ``range(R)`` (an empty replica still takes a
    slot in the per-replica lists); the autoscaler serves the replica
    ids it actually used.
    """
    from repro.control.autoscale import AutoscaleConfig, assign_replicas

    if isinstance(replicas, AutoscaleConfig):
        assign, state = assign_replicas(requests, replicas, qps,
                                        invariants=_checker(cfg))
        return sorted(set(assign)), assign, state.summary()
    from repro.cluster.router import ClusterRouter
    from repro.cluster.serve import affinity_map

    amap = (affinity_map(system, replicas.num_replicas)
            if replicas.policy == "affinity" else None)
    assign = ClusterRouter(replicas, affinity_map=amap).assign(requests)
    return range(replicas.num_replicas), assign, None


def _serve_replicas(system, workload: Workload, qps: float, replicas,
                    cfg: ServeConfig, metrics: bool,
                    metrics_window_s: float | None) -> ServeReport:
    """Split the stream, serve each replica, merge in arrival order.

    ``report.metrics`` holds the summed SLO accounting plus each
    replica's summary under ``"replicas"``; with a controller each
    replica ran its own tuner and ``report.control["replicas"]`` lists
    their logs; the autoscaler's action log and replica timeline ride
    under ``report.control["autoscale"]``.
    """
    requests = workload.requests(qps)
    replica_ids, assign, autoscale = _split(system, requests, qps,
                                            replicas, cfg)
    merged = {}
    num_batches = 0
    hits = done = 0
    summaries = []
    controls = []
    for rep in replica_ids:
        sub = [r for r, a in zip(requests, assign) if a == rep]
        if not sub:
            summaries.append(None)
            controls.append(None)
            continue
        server, rep_report = serve_pass(
            system, sub, qps, cfg, metrics=metrics,
            metrics_window_s=metrics_window_s,
        )
        summaries.append(rep_report.metrics)
        controls.append(rep_report.control)
        for rec in server.last_records:
            merged[rec.rid] = rec
        num_batches += server.last_num_batches
        acc = server.last_accuracy
        n_done = sum(1 for r in server.last_records
                     if not r.shed and r.prediction is not None)
        if n_done and not np.isnan(acc):
            hits += acc * n_done
            done += n_done

    ordered = [merged[r.rid] for r in requests]
    accuracy = hits / done if done else float("nan")
    report = build_report(system.name, qps, cfg.slo_s, ordered, num_batches,
                          accuracy=accuracy)
    if metrics:
        present = [s for s in summaries if s is not None]
        report.metrics = {
            "window_ms": present[0]["window_ms"] if present else None,
            "slo": {
                "slo_minutes_violated": sum(
                    s["slo"]["slo_minutes_violated"] for s in present
                ),
                "windows": [],
            },
            "replicas": summaries,
        }
    control = {} if autoscale is None else {"autoscale": autoscale}
    if cfg.controller is not None:
        control["replicas"] = controls
    if control:
        report.control = control
    if cfg.tenancy is not None:
        from repro.control.tenancy import tenant_summary

        report.tenants = tenant_summary(ordered, cfg.slo_s)
    return report


def serve_once(
    system,
    workload: Workload,
    qps: float,
    config: ServeConfig | None = None,
    *,
    tracer=None,
    metrics: bool = False,
    metrics_window_s: float | None = None,
    replicas=None,
) -> ServeReport:
    """Serve ``workload`` at one offered QPS; sampler RNGs are reset
    first so points of a sweep are independent and reproducible.

    ``replicas`` (a :class:`~repro.cluster.RouterConfig`, an
    :class:`~repro.control.AutoscaleConfig` or ``None``) picks the
    replica layout, see the module docstring.  Without a split the
    report is the single server's, bit-identical to a one-replica
    router; a split run cannot be traced.

    With ``config.check_invariants`` the run is audited by an
    :class:`~repro.chaos.InvariantChecker` (strict: a broken simulation
    raises instead of producing a subtly wrong report); the report
    itself is bit-identical with the checker on or off.

    ``metrics=True`` attaches a
    :class:`~repro.metrics.MetricsRegistry` (window =
    ``metrics_window_s``, defaulting to the SLO) and fills
    ``report.metrics`` with the windowed SLO/stage/queue/cache summary
    (:func:`repro.metrics.serve_summary`).  Window boundaries are pure
    functions of simulated time, so the summary is byte-identical
    whichever worker runs the point.  With ``metrics=False`` the report
    is bit-identical to one produced before the metrics layer existed.
    """
    _check_untraced(replicas, tracer is not None)
    cfg = config if config is not None else ServeConfig()
    if _splits(replicas):
        return _serve_replicas(system, workload, qps, replicas, cfg,
                               metrics, metrics_window_s)
    _, report = serve_pass(system, workload.requests(qps), qps, cfg,
                           tracer=tracer, metrics=metrics,
                           metrics_window_s=metrics_window_s)
    return report


def qps_sweep(
    system,
    workload: Workload,
    qps_values,
    config: ServeConfig | None = None,
    workers: int = 1,
    trace_base=None,
    metrics: bool = False,
    metrics_window_s: float | None = None,
    warm_nodes=None,
    replicas=None,
) -> list[SweepPoint]:
    """Serve the workload at each offered load, in increasing order.

    Every point is an independent run (``serve_once`` re-seeds the
    sampler), so with ``workers > 1`` the points fan out across CPU
    cores via :mod:`repro.parallel`; results are bit-identical to the
    serial sweep because both paths run the same ``serve_point``
    handler — the worker count only decides which process executes it.
    With ``workers <= 1`` the caller's already-built system is reused
    (adopted into the executor's per-process memo); workers build their
    own copy from the run spec's config.

    ``replicas`` serves every point under that replica layout (see
    :func:`serve_once`).

    ``trace_base`` (a path like ``"sweep.json"``) makes each point
    record a :class:`~repro.obs.Tracer` and write its own Chrome trace
    named per run (``sweep-qps2000.json``, ...).

    ``metrics=True`` attaches a windowed metrics registry per point
    (see :func:`serve_once`); the summaries ride on each report and are
    byte-identical across ``workers`` settings.

    ``warm_nodes`` (renumbered node ids) seeds the dynamic cache policy
    from workload history *inside each executing process*, exactly once
    (:func:`warm_once`) — worker processes rebuild the system from its
    config, so warmup applied only to the caller's system would make
    results depend on which process served a point.  Ignored when the
    system has no dynamic policy.
    """
    from repro.obs.export import run_trace_path
    from repro.parallel import RunSpec, adopt_system, run_tasks

    values = sorted(float(q) for q in qps_values)
    if not values:
        raise ConfigError("need at least one QPS value")
    _check_untraced(replicas, bool(trace_base))
    specs = [
        RunSpec(
            kind="serve_point",
            label=f"qps{q:g}",
            seed=system.config.seed,
            payload={
                "system": system.name,
                "config": system.config,
                "workload": workload,
                "qps": q,
                "serve_config": config,
                "metrics": metrics,
                "metrics_window_s": metrics_window_s,
                "warm_nodes": warm_nodes,
                "replicas": replicas,
            },
            trace_path=(
                run_trace_path(trace_base, f"qps{q:g}") if trace_base else None
            ),
        )
        for q in values
    ]
    if workers <= 1:
        adopt_system(system)
    reports = run_tasks(specs, workers=workers)
    return [
        SweepPoint(qps=q, report=r) for q, r in zip(values, reports)
    ]


def max_sustainable_qps(
    points: list[SweepPoint],
    slo_s: float | None = None,
    shed_tol: float = 0.01,
) -> float:
    """The knee: largest offered QPS with p99 <= SLO and shed rate <=
    ``shed_tol`` (0.0 when no point qualifies)."""
    best = 0.0
    for p in points:
        slo = p.report.slo_s if slo_s is None else slo_s
        if p.report.completed == 0:
            continue
        if p.report.p99 <= slo and p.report.shed_rate <= shed_tol:
            best = max(best, p.qps)
    return best
