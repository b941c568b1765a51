"""Tests for the multi-core run executor (:mod:`repro.parallel`)."""

import numpy as np
import pytest

from repro.parallel import (
    RunSpec,
    adopt_system,
    default_workers,
    derive_seed,
    register_handler,
    run_tasks,
)
from repro.parallel import _SYSTEM_CACHE, _execute, _reset_worker_state
from repro.utils import ConfigError, WorkerError


def _echo(spec):
    return ("echo", spec.label, spec.seed, spec.payload.get("x"))


def _boom(spec):
    raise ValueError(f"boom in {spec.label}")


register_handler("t-echo", _echo)
register_handler("t-boom", _boom)


class TestDeriveSeed:
    def test_pure_function_of_root_and_index(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_across_indices_and_roots(self):
        seeds = {derive_seed(0, i) for i in range(64)}
        assert len(seeds) == 64
        assert derive_seed(0, 1) != derive_seed(1, 1)

    def test_matches_seedsequence_spawn_key(self):
        seq = np.random.SeedSequence(entropy=5, spawn_key=(2,))
        assert derive_seed(5, 2) == int(seq.generate_state(1, np.uint64)[0])

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            derive_seed(0, -1)


class TestDefaultWorkers:
    def test_at_least_one_and_capped(self):
        assert default_workers() >= 1
        assert default_workers(cap=2) <= 2
        assert default_workers(cap=1) == 1


class TestRunTasks:
    def specs(self, n=5):
        return [
            RunSpec(kind="t-echo", label=f"run{i}",
                    seed=derive_seed(0, i), payload={"x": i})
            for i in range(n)
        ]

    def test_empty(self):
        assert run_tasks([], workers=4) == []

    def test_inline_results_in_spec_order(self):
        out = run_tasks(self.specs(), workers=1)
        assert [r[3] for r in out] == [0, 1, 2, 3, 4]

    def test_pool_results_in_spec_order(self):
        out = run_tasks(self.specs(), workers=2)
        assert out == run_tasks(self.specs(), workers=1)

    def test_single_spec_runs_inline_even_with_workers(self):
        out = run_tasks(self.specs(1), workers=4)
        assert out == [("echo", "run0", derive_seed(0, 0), 0)]

    def test_unknown_kind_raises_config_error_inline(self):
        with pytest.raises(WorkerError, match="no-such-kind"):
            run_tasks([RunSpec(kind="no-such-kind", label="x")], workers=1)

    def test_cluster_point_kind_is_gone(self):
        """Every replica layout serves through ``serve_point``."""
        with pytest.raises(ConfigError, match="unknown run kind"):
            _execute(RunSpec(kind="cluster_point", label="x"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_surfaces_child_traceback(self, workers):
        specs = self.specs(2) + [RunSpec(kind="t-boom", label="bad")]
        with pytest.raises(WorkerError) as err:
            run_tasks(specs, workers=workers)
        assert err.value.label == "bad"
        assert "ValueError: boom in bad" in err.value.child_traceback
        assert "Traceback" in err.value.child_traceback

    def test_worker_state_reset_drops_adopted_systems(self):
        class FakeSystem:
            name = "fake"
            config = ("cfg",)

        adopt_system(FakeSystem())
        assert _SYSTEM_CACHE
        _reset_worker_state()
        assert not _SYSTEM_CACHE


class TestRunSpecPickling:
    def test_spec_round_trips_through_pickle(self):
        import pickle

        from repro.core import RunConfig

        spec = RunSpec(
            kind="serve_point", label="qps500", seed=derive_seed(3, 0),
            payload={"system": "DSP", "config": RunConfig(dataset="tiny"),
                     "qps": 500.0},
            trace_path="/tmp/t-qps500.json",
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestServePoint:
    def test_replicas_payload_matches_direct_serve_once(self):
        import json

        from repro.cluster import RouterConfig
        from repro.core import RunConfig, build_system
        from repro.serve import (
            ServeConfig,
            WorkloadConfig,
            make_workload,
            serve_once,
        )

        system = build_system("DSP", RunConfig(
            dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
            fanout=(5, 3)))
        workload = make_workload(WorkloadConfig(num_requests=64, seed=1),
                                 system.data.train_nodes)
        cfg = ServeConfig(check_invariants=True)
        router = RouterConfig(num_replicas=2, policy="affinity", seed=3)
        adopt_system(system)
        [via_handler] = run_tasks([RunSpec(
            kind="serve_point", label="qps2000",
            payload={"system": system.name, "config": system.config,
                     "workload": workload, "qps": 2000.0,
                     "serve_config": cfg, "replicas": router},
        )])
        direct = serve_once(system, workload, 2000.0, cfg, replicas=router)
        assert (json.dumps(via_handler.to_dict(), sort_keys=True)
                == json.dumps(direct.to_dict(), sort_keys=True))
