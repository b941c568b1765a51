"""Tests for the feature loaders."""

import numpy as np
import pytest

from repro.cache import (
    FeatureLoader,
    HostGatherLoader,
    NoCache,
    PartitionedCache,
    ReplicatedCache,
)
from repro.cache.loader import ID_BYTES
from repro.cache.store import Placement
from repro.sampling.ops import (
    AllToAll,
    HostWork,
    LocalKernel,
    OpTrace,
    ParallelGroup,
    PCIeCopy,
    UVAGather,
)
from repro.utils import ConfigError


@pytest.fixture
def setting():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(12, 8)).astype(np.float32)
    part_offsets = np.array([0, 4, 8, 12])
    hot_order = np.arange(12)
    store = PartitionedCache(part_offsets, hot_order, budget_nodes=2)
    return features, store


class TestFeatureLoader:
    def test_functional_values_exact(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        reqs = [np.array([0, 4, 11]), np.array([5]), np.array([9, 9, 2])]
        out, _, _ = loader.load(reqs)
        assert np.array_equal(out[0], features[[0, 4, 11]])
        assert np.array_equal(out[2], features[[2, 9]])  # deduped + sorted

    def test_stats_classification(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        # gpu0 asks: 0 local-hot, 4 remote-hot, 11 cold
        _, _, stats = loader.load([np.array([0, 4, 11]),
                                   np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64)])
        assert {k: stats[k] for k in ("local", "remote", "cold")} == \
            {"local": 1, "remote": 1, "cold": 1}
        row = 8 * 4  # dim 8 x fp32
        assert stats["local_bytes"] == row
        assert stats["remote_bytes"] == row
        assert stats["cold_bytes"] == row

    def test_trace_parallel_hot_cold(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        _, trace, _ = loader.load([np.array([0, 4, 11]),
                                   np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64)])
        assert len(trace) == 1
        group = trace.ops[0]
        assert isinstance(group, ParallelGroup)
        assert len(group.branches) == 2

    def test_hot_bytes_exact(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        # gpu0 requests node 4 and 5, both cached on gpu1
        _, trace, _ = loader.load([np.array([4, 5]),
                                   np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64)])
        hot = [op for op in trace.flat_ops()
               if isinstance(op, AllToAll) and op.label == "feat-hot"]
        assert hot[0].matrix[1, 0] == 2 * 8 * 4  # 2 rows x dim 8 x fp32
        assert trace.nvlink_payload_bytes() == 2 * 8 * 4 + 2 * 8  # + id requests

    def test_cold_items_exact(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        _, trace, _ = loader.load([np.array([2, 3]),  # cold (budget=2/part)
                                   np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64)])
        cold = [op for op in trace.flat_ops() if isinstance(op, UVAGather)]
        assert cold[0].items[0] == 2
        assert trace.uva_payload_bytes() == 2 * 8 * 4

    def test_replicated_cache_no_nvlink(self, setting):
        features, _ = setting
        store = ReplicatedCache(12, 3, np.arange(12), budget_nodes=6)
        loader = FeatureLoader(features, store)
        _, trace, stats = loader.load([np.array([0, 5, 11])] * 3)
        assert trace.nvlink_payload_bytes() == 0
        assert stats["remote"] == 0
        assert stats["local"] == 3 * 2

    def test_nocache_all_uva(self, setting):
        features, _ = setting
        loader = FeatureLoader(features, NoCache(12, 3))
        _, trace, stats = loader.load([np.arange(12)] * 3)
        assert {k: stats[k] for k in ("local", "remote", "cold")} == \
            {"local": 0, "remote": 0, "cold": 36}
        assert trace.uva_payload_bytes() == 36 * 8 * 4

    def test_wrong_request_count(self, setting):
        features, store = setting
        with pytest.raises(ConfigError):
            FeatureLoader(features, store).load([np.array([0])])

    def test_bad_feature_shape(self, setting):
        _, store = setting
        with pytest.raises(ConfigError):
            FeatureLoader(np.zeros(5, dtype=np.float32), store)


class TestHostGatherLoader:
    def test_functional_and_trace(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(10, 4)).astype(np.float32)
        loader = HostGatherLoader(features, num_gpus=2)
        out, trace, stats = loader.load([np.array([1, 3]), np.array([5])])
        assert np.array_equal(out[0], features[[1, 3]])
        kinds = [type(op) for op in trace]
        assert kinds == [HostWork, PCIeCopy]
        copy = trace.ops[1]
        assert copy.nbytes.tolist() == [2 * 16, 1 * 16]
        assert stats["cold"] == 3

    def test_gather_kind(self):
        features = np.zeros((4, 2), dtype=np.float32)
        loader = HostGatherLoader(features, num_gpus=1)
        _, trace, _ = loader.load([np.array([0])])
        assert trace.ops[0].kind == "gather"


def _reference_load(
    loader: FeatureLoader, requests_per_gpu: list[np.ndarray]
) -> tuple[list[np.ndarray], OpTrace, dict]:
    """The seed implementation of :meth:`FeatureLoader.load`, verbatim.

    Kept as the equivalence oracle for the vectorized loader:
    duplicated ``loc.count`` calls and a per-holder Python loop.
    """
    k = loader.store.num_gpus
    out: list[np.ndarray] = []
    pos_req = np.zeros((k, k), dtype=np.float64)
    feat_resp = np.zeros((k, k), dtype=np.float64)
    local_bytes = np.zeros(k, dtype=np.float64)
    cold_items = np.zeros(k, dtype=np.float64)
    stats = {"local": 0, "remote": 0, "cold": 0}

    for g, req in enumerate(requests_per_gpu):
        nodes = np.unique(np.asarray(req, dtype=np.int64))
        out.append(loader.features[nodes])
        loc = loader.store.locate(nodes, g)
        stats["local"] += loc.count(Placement.LOCAL)
        stats["remote"] += loc.count(Placement.REMOTE)
        stats["cold"] += loc.count(Placement.COLD)

        local_bytes[g] = loc.count(Placement.LOCAL) * loader.row_bytes
        cold_items[g] = loc.count(Placement.COLD)
        remote = loc.placement == Placement.REMOTE
        if remote.any():
            holders, counts = np.unique(loc.holder[remote], return_counts=True)
            for o, c in zip(holders, counts):
                pos_req[g, o] += c * ID_BYTES
                feat_resp[o, g] += c * loader.row_bytes

    hot_branch = [
        AllToAll(pos_req, label="feat-pos-req"),
        AllToAll(feat_resp, label="feat-hot"),
        LocalKernel("gather", local_bytes, label="feat-local"),
    ]
    cold_branch = [
        UVAGather(cold_items, item_bytes=loader.row_bytes, label="feat-cold")
    ]
    trace = OpTrace()
    trace.add(
        ParallelGroup(branches=(tuple(hot_branch), tuple(cold_branch)),
                      label="feature-load")
    )
    stats["local_bytes"] = stats["local"] * loader.row_bytes
    stats["remote_bytes"] = stats["remote"] * loader.row_bytes
    stats["cold_bytes"] = stats["cold"] * loader.row_bytes
    return out, trace, stats


def test_vectorized_loader_matches_seed_implementation():
    rng = np.random.default_rng(0)
    n, k = 4_000, 4
    offsets = np.linspace(0, n, k + 1).astype(np.int64)
    store = PartitionedCache(offsets, rng.permutation(n), budget_nodes=n // 8)
    features = rng.random((n, 16)).astype(np.float32)
    loader = FeatureLoader(features, store)
    requests = [rng.integers(0, n, size=600) for _ in range(k)]

    out_a, trace_a, stats_a = loader.load(requests)
    out_b, trace_b, stats_b = _reference_load(loader, requests)
    assert stats_a == stats_b
    for a, b in zip(out_a, out_b):
        assert np.array_equal(a, b)
    (group_a,), (group_b,) = trace_a.ops, trace_b.ops
    for branch_a, branch_b in zip(group_a.branches, group_b.branches):
        for op_a, op_b in zip(branch_a, branch_b):
            assert type(op_a) is type(op_b) and op_a.label == op_b.label
            for attr in ("matrix", "work", "items"):
                if hasattr(op_a, attr):
                    assert np.array_equal(
                        getattr(op_a, attr), getattr(op_b, attr)
                    )
