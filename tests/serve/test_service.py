"""Tests for the serving pipeline (GNNServer) on the tiny dataset."""

import numpy as np
import pytest

import repro.obs.tracer as tracer_mod
from repro.core import RunConfig, build_system
from repro.obs import Tracer
from repro.serve import (
    GNNServer,
    ServeConfig,
    WorkloadConfig,
    make_workload,
    serve_once,
)
from repro.serve.stats import STAGE_NAMES, build_report
from repro.utils import ConfigError

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=3)


@pytest.fixture(scope="module")
def dsp():
    return build_system("DSP", CFG)


@pytest.fixture(scope="module")
def workload(dsp):
    return make_workload(
        WorkloadConfig(num_requests=48, seed=7),
        np.arange(dsp.base_dataset.num_nodes),
    )


class TestServeRun:
    def test_accounting_adds_up(self, dsp, workload):
        rep = serve_once(dsp, workload, 2000.0, ServeConfig())
        assert rep.offered == len(workload)
        assert rep.completed + rep.shed == rep.offered
        assert rep.completed > 0
        assert rep.p50 <= rep.p95 <= rep.p99 <= rep.max_latency
        assert 0.0 < rep.throughput_qps
        assert rep.goodput_qps <= rep.throughput_qps
        assert set(rep.stage_means) == set(STAGE_NAMES)
        assert all(v >= 0 for v in rep.stage_means.values())

    def test_latency_dominates_stage_sum(self, dsp, workload):
        """Stage decomposition never exceeds the end-to-end latency
        (inter-stage queue waits are the only unattributed time)."""
        rep = serve_once(dsp, workload, 2000.0, ServeConfig())
        stage_sum = sum(rep.stage_means.values())
        assert stage_sum <= rep.mean_latency * (1 + 1e-9)
        assert stage_sum >= 0.5 * rep.mean_latency

    def test_deterministic_under_fixed_seed(self, dsp, workload):
        """Same system, workload and QPS => bit-identical reports."""
        a = serve_once(dsp, workload, 3000.0, ServeConfig())
        b = serve_once(dsp, workload, 3000.0, ServeConfig())
        assert a.to_dict() == b.to_dict()

    def test_functional_reports_accuracy(self, dsp, workload):
        rep = serve_once(dsp, workload, 2000.0,
                         ServeConfig(functional=True))
        assert 0.0 <= rep.accuracy <= 1.0

    def test_cost_only_skips_accuracy(self, dsp, workload):
        rep = serve_once(dsp, workload, 2000.0, ServeConfig())
        assert np.isnan(rep.accuracy)

    def test_routes_to_patch_owner(self, dsp):
        server = GNNServer(dsp)
        nodes = np.arange(dsp.base_dataset.num_nodes)
        for node in nodes[:: len(nodes) // 16]:
            seed = server.map_seed(int(node))
            gpu = server.route(None, seed)
            assert gpu == int(dsp.sampler.owner_of(np.array([seed]))[0])

    def test_sheds_under_overload(self, dsp, workload):
        """A tiny admission bound under a compressed arrival burst
        must shed, and shed requests never complete."""
        rep = serve_once(
            dsp, workload, 2e6,
            ServeConfig(batch_max=2, queue_capacity=2, pipeline_depth=1),
        )
        assert rep.shed > 0
        assert rep.shed_rate == pytest.approx(rep.shed / rep.offered)
        assert rep.completed + rep.shed == rep.offered

    def test_empty_request_list_rejected(self, dsp):
        with pytest.raises(ConfigError):
            GNNServer(dsp).run([])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServeConfig(slo_s=0.0)
        with pytest.raises(ConfigError):
            ServeConfig(pipeline_depth=0)
        with pytest.raises(ConfigError):
            ServeConfig(comm_channels=0)

    @pytest.mark.parametrize("knob", [{"batch_max": 0},
                                      {"queue_capacity": 0},
                                      {"batch_timeout_s": -1e-3}])
    def test_batcher_knobs_validated_at_construction(self, knob):
        with pytest.raises(ConfigError):
            ServeConfig(**knob)


class TestBaselinesServe:
    @pytest.mark.parametrize("name", ["DSP-Pull", "DGL-UVA"])
    def test_other_systems_complete(self, name, workload):
        system = build_system(name, CFG)
        rep = serve_once(system, workload, 2000.0, ServeConfig())
        assert rep.completed + rep.shed == rep.offered
        assert rep.completed > 0

    def test_same_workload_comparable(self, dsp, workload):
        """The same request stream is served by every system: offered
        counts and arrival spans agree across systems."""
        other = build_system("DGL-UVA", CFG)
        a = serve_once(dsp, workload, 1500.0, ServeConfig())
        b = serve_once(other, workload, 1500.0, ServeConfig())
        assert a.offered == b.offered


class TestServeTracing:
    def test_spans_and_counters_emitted(self, dsp, workload):
        tr = Tracer()
        serve_once(dsp, workload, 2000.0, ServeConfig(), tracer=tr)
        cats = {ev.cat for ev in tr.spans()}
        assert {"sample", "load", "compute"} <= cats
        closes = [ev for ev in tr.events
                  if isinstance(ev, tracer_mod.InstantEvent)
                  and ev.name == "batch-close"]
        assert closes
        depths = [p for p in tr.counters() if "depth" in p.values]
        assert depths
        # op spans carry gpu/stage/batch tags
        op = next(ev for ev in tr.spans(cat="sample"))
        assert set(op.args) >= {"gpu", "stage", "batch"}

    def test_tracing_does_not_change_the_simulation(self, dsp, workload):
        plain = serve_once(dsp, workload, 2000.0, ServeConfig())
        traced = serve_once(dsp, workload, 2000.0, ServeConfig(),
                            tracer=Tracer())
        assert traced.to_dict() == plain.to_dict()

    def test_untraced_run_allocates_no_events(self, dsp, workload,
                                              monkeypatch):
        """Zero-cost-off: with no tracer attached, not one event object
        (nor a Tracer) is constructed during a serving run."""
        def boom(*a, **kw):
            raise AssertionError("trace event allocated without a tracer")

        for cls in ("SpanEvent", "InstantEvent", "CounterEvent", "Tracer"):
            monkeypatch.setattr(tracer_mod, cls, boom)
        monkeypatch.setattr(Tracer, "span", boom)
        monkeypatch.setattr(Tracer, "instant", boom)
        monkeypatch.setattr(Tracer, "counter", boom)
        rep = serve_once(dsp, workload, 2000.0, ServeConfig())
        assert rep.completed > 0


class TestReportMath:
    def _records(self):
        from repro.serve.stats import RequestRecord

        recs = []
        for i in range(10):
            r = RequestRecord(rid=i, node=i, arrival=i * 0.01)
            r.done = r.arrival + (0.005 if i < 9 else 0.5)
            r.stages = {s: 0.001 for s in STAGE_NAMES}
            recs.append(r)
        recs[3].shed = True
        recs[3].done = float("nan")
        return recs

    def test_build_report_counts(self):
        rep = build_report("X", 100.0, 0.01, self._records(), num_batches=4)
        assert rep.offered == 10
        assert rep.shed == 1
        assert rep.completed == 9
        assert rep.shed_rate == pytest.approx(0.1)
        # 8 of 9 completions are within the 10ms SLO
        assert rep.slo_attainment == pytest.approx(8 / 10)
        assert rep.goodput_qps < rep.throughput_qps
        assert rep.mean_batch_size == pytest.approx(9 / 4)

    def test_to_dict_units(self):
        rep = build_report("X", 100.0, 0.01, self._records(), num_batches=4)
        d = rep.to_dict()
        assert d["slo_ms"] == pytest.approx(10.0)
        assert d["latency_ms"]["p50"] == pytest.approx(rep.p50 * 1e3)
        assert d["accuracy"] is None  # NaN scrubbed for JSON
