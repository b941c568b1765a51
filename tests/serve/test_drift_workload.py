"""Popularity-drift workload generation and its serving contracts.

Satellite contracts: ``drift_phases == 1`` is the exact pre-drift
generator (bit-identical streams); drifting streams are deterministic
and move their hot set between phases; sweeps over drift workloads are
byte-identical across ``--workers`` settings, including the dynamic
cache policy's warmup and placement churn; and under drift the dynamic
policy matches or beats the static cache's hit rate.
"""

import json

import numpy as np
import pytest

from repro.cluster import RouterConfig
from repro.control import AutoscaleConfig
from repro.core import RunConfig, build_system
from repro.serve import (
    ServeConfig,
    WorkloadConfig,
    make_workload,
    qps_sweep,
    serve_once,
)
from repro.utils import ConfigError

CANDIDATES = np.arange(500)


def workload(**kw):
    return make_workload(WorkloadConfig(**kw), CANDIDATES)


def hot_set(nodes: np.ndarray, top: int = 20) -> set:
    ids, counts = np.unique(nodes, return_counts=True)
    return set(ids[np.argsort(-counts)][:top].tolist())


class TestGenerator:
    def test_one_phase_is_the_pre_drift_stream(self):
        """drift_phases=1 (the default) must not perturb the RNG
        consumption of the original generator."""
        a = workload(num_requests=200, skew=1.2, seed=5)
        b = workload(num_requests=200, skew=1.2, seed=5, drift_phases=1)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.times, b.times)

    def test_drift_deterministic(self):
        a = workload(num_requests=300, skew=1.3, seed=2, drift_phases=3)
        b = workload(num_requests=300, skew=1.3, seed=2, drift_phases=3)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.times, b.times)

    def test_phases_move_the_hot_set(self):
        w = workload(num_requests=2000, skew=1.5, seed=0, drift_phases=2)
        first, second = w.nodes[:1000], w.nodes[1000:]
        overlap = hot_set(first) & hot_set(second)
        assert len(overlap) < 10  # re-permuted ranking: mostly disjoint

    def test_phase_sizes_cover_every_request(self):
        w = workload(num_requests=101, skew=1.0, seed=1, drift_phases=3)
        assert len(w.nodes) == 101
        assert np.isin(w.nodes, CANDIDATES).all()

    def test_uniform_drift(self):
        w = workload(num_requests=120, skew=0.0, seed=4, drift_phases=4)
        assert len(w.nodes) == 120

    def test_invalid_phases_rejected(self):
        with pytest.raises(ConfigError):
            workload(num_requests=10, drift_phases=0)


CACHE_BYTES = 50 * 16 * 4.0  # 50 rows/GPU on tiny (dim 16, fp32)
BASE = dict(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
            fanout=(12,), feature_cache_bytes=CACHE_BYTES, seed=3)
DYNAMIC = dict(dynamic_cache=True, cache_window=2, cache_ewma=0.3,
               cache_prefetch=16)


def _drift_workload(system, requests=192):
    return make_workload(
        WorkloadConfig(num_requests=requests, skew=1.5, drift_phases=2,
                       seed=7),
        np.arange(system.base_dataset.num_nodes),
    )


def _hit_rate(system, wl, qps=2e6):
    before = dict(system.loader.totals)
    serve_once(system, wl, qps, ServeConfig(functional=False))
    d = {k: system.loader.totals[k] - before[k] for k in before}
    served = d["local"] + d["remote"] + d["cold"]
    return (d["local"] + d["remote"]) / max(served, 1)


class TestServingUnderDrift:
    def test_dynamic_hit_rate_at_least_static(self):
        static = build_system("DSP", RunConfig(**BASE))
        dynamic = build_system("DSP", RunConfig(**BASE, **DYNAMIC))
        wl = _drift_workload(static)
        warm = dynamic.numbering.old_to_new[wl.nodes[:48]]
        dynamic.loader.dynamic.warm(warm)
        assert _hit_rate(dynamic, wl) >= _hit_rate(static, wl)

    def test_sweep_byte_identical_across_workers(self):
        """Dynamic policy + drift workload + warmup: every sweep point
        is a pure function of the point, not of process placement."""
        system = build_system("DSP", RunConfig(**BASE, **DYNAMIC))
        wl = _drift_workload(system)
        warm = system.numbering.old_to_new[wl.nodes[:48]]
        blobs = {}
        for workers in (1, 2):
            fresh = build_system("DSP", RunConfig(**BASE, **DYNAMIC))
            points = qps_sweep(fresh, wl, [1000.0, 4000.0],
                               ServeConfig(functional=False),
                               workers=workers, metrics=True,
                               warm_nodes=warm)
            blobs[workers] = json.dumps(
                [p.report.to_dict() for p in points], sort_keys=True
            )
        assert blobs[1] == blobs[2]

    @pytest.mark.parametrize("replicas", [
        RouterConfig(num_replicas=2, policy="affinity", seed=3),
        AutoscaleConfig(min_replicas=1, max_replicas=3),
    ], ids=["router", "autoscale"])
    def test_warmed_replicated_sweep_byte_identical_across_workers(
            self, replicas):
        """The warmup reaches every replica layout: a warmed replicated
        or autoscaled sweep is the same whichever process serves it —
        and the warmup really changes what it serves."""
        blobs = {}
        for workers, warmed in ((1, True), (2, True), (1, False)):
            fresh = build_system("DSP", RunConfig(**BASE, **DYNAMIC))
            wl = _drift_workload(fresh)
            warm = fresh.numbering.old_to_new[wl.nodes[:48]]
            points = qps_sweep(fresh, wl, [1000.0, 4000.0],
                               ServeConfig(functional=False),
                               workers=workers, metrics=True,
                               warm_nodes=warm if warmed else None,
                               replicas=replicas)
            blobs[workers, warmed] = json.dumps(
                [p.report.to_dict() for p in points], sort_keys=True
            )
        assert blobs[1, True] == blobs[2, True]
        assert blobs[1, True] != blobs[1, False]

    def test_defaults_off_matches_plain_config(self):
        """dynamic_cache=False + compress="none" (the defaults) serve
        byte-identically to a config that never mentions them."""
        plain = build_system("DSP", RunConfig(**BASE))
        explicit = build_system(
            "DSP", RunConfig(**BASE, dynamic_cache=False, compress="none")
        )
        wl = _drift_workload(plain)
        a = serve_once(plain, wl, 2000.0, ServeConfig())
        b = serve_once(explicit, wl, 2000.0, ServeConfig())
        assert a.to_dict() == b.to_dict()
