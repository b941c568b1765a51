"""Dynamic cache under popularity drift: static placement vs the dynamic
policy with fp16 cold-path compression (docs/caching.md).

The same drifting Zipf stream (the hot set permutes once halfway) is
served by a static-cache DSP system and by the same system with
:class:`~repro.cache.dynamic.DynamicCachePolicy` and the fp16 codec.
Every figure is simulated — throughput at a drain-mode probe load,
hit rate, cold (UVA) bytes per request, and the knee under an SLO
placed in the latency gap the dynamic policy opens — so the test is
deterministic.  The config puts serving in the regime where the
feature path is the bottleneck: wide rows and one sampled layer whose
fanout is large enough that the cold gather, not per-batch sampling
launch latency, dominates.
"""

import numpy as np

from repro.bench import fmt_table, quick_mode
from repro.core import RunConfig, build_system
from repro.graph import DATASET_SPECS
from repro.serve import (
    ServeConfig,
    WorkloadConfig,
    make_workload,
    max_sustainable_qps,
    qps_sweep,
    serve_once,
)

DRIFT_PHASES = 2
PROBE_QPS = 8e6


def _probe(system, workload, serve_cfg):
    """One drain-mode serve -> (report, hit rate, cold bytes/request)."""
    totals = system.loader.totals
    t0 = dict(totals)
    report = serve_once(system, workload, PROBE_QPS, serve_cfg)
    hits = (totals["local"] - t0["local"]) + (totals["remote"]
                                              - t0["remote"])
    cold = totals["cold"] - t0["cold"]
    cold_bytes = totals["cold_bytes"] - t0["cold_bytes"]
    rate = hits / (hits + cold) if hits + cold else 0.0
    return report, rate, cold_bytes / len(workload.nodes)


def test_cache_drift(emit):
    if quick_mode():
        dataset, requests, fanout, batch_max = "products", 1024, (16,), 128
        slo_s, ladder, knees = 175e-6, (2e6, 4e6, 8e6), (0.0, 8e6)
    else:
        dataset, requests, fanout, batch_max = "friendster", 4096, (32,), 256
        slo_s, ladder, knees = 310e-6, (4e6, 8e6, 12e6, 16e6), (0.0, 16e6)
    # workload-history warm-up: the first half of phase one
    warmup = requests // (2 * DRIFT_PHASES)
    spec = DATASET_SPECS[dataset]
    # cache ~2% of the features per GPU: small enough that the Zipf
    # tail misses and placement decides the cold-path volume
    base = dict(dataset=dataset, num_gpus=4, batch_size=8, hidden_dim=16,
                fanout=fanout,
                feature_cache_bytes=0.02 * spec.num_nodes
                * spec.feature_dim * 4)
    static_sys = build_system("DSP", RunConfig(**base))
    dyn_sys = build_system(
        "DSP",
        RunConfig(**base, dynamic_cache=True, cache_window=2,
                  cache_ewma=0.3, cache_prefetch=16, compress="fp16"),
    )
    workload = make_workload(
        WorkloadConfig(num_requests=requests, skew=1.5,
                       drift_phases=DRIFT_PHASES, seed=0),
        np.arange(static_sys.base_dataset.num_nodes),
    )
    # seed the dynamic scores from request history (mapped into the
    # system's renumbered id space)
    dyn_sys.loader.dynamic.warm(
        dyn_sys.numbering.old_to_new[workload.nodes[:warmup]]
    )
    # deep queue: drain mode measures pipeline throughput, not the
    # admission controller
    serve_cfg = ServeConfig(functional=False, batch_max=batch_max,
                            queue_capacity=requests)

    rep_s, hit_s, cold_s = _probe(static_sys, workload, serve_cfg)
    rep_d, hit_d, cold_d = _probe(dyn_sys, workload, serve_cfg)
    knee_s = max_sustainable_qps(
        qps_sweep(static_sys, workload, ladder, serve_cfg), slo_s=slo_s
    )
    knee_d = max_sustainable_qps(
        qps_sweep(dyn_sys, workload, ladder, serve_cfg), slo_s=slo_s
    )
    ratio = (rep_d.throughput_qps / rep_s.throughput_qps
             if rep_s.throughput_qps else 1.0)
    emit(fmt_table(
        f"Dynamic cache under drift: {dataset}, fanout {fanout[0]}, "
        f"4 GPUs (knee = max QPS with p99 <= {slo_s * 1e6:.0f}us)",
        ["static", "dynamic"],
        [
            ("throughput", [f"{rep_s.throughput_qps / 1e6:.2f}M/s",
                            f"{rep_d.throughput_qps / 1e6:.2f}M/s"]),
            ("p99", [f"{rep_s.p99 * 1e6:.0f}us", f"{rep_d.p99 * 1e6:.0f}us"]),
            ("hit rate", [f"{hit_s:.3f}", f"{hit_d:.3f}"]),
            ("UVA B/req", [f"{cold_s:.0f}", f"{cold_d:.0f}"]),
            ("knee", [f"{knee_s / 1e6:g}M", f"{knee_d / 1e6:g}M"]),
        ],
    ))

    # the direction of every headline claim
    assert hit_d >= hit_s
    assert cold_d < cold_s
    assert knee_d >= knee_s
    assert ratio >= 1.0
    assert dyn_sys.loader.dynamic.stats()["promotions"] > 0
    # the knee column of the docs/caching.md table
    assert (knee_s, knee_d) == knees
