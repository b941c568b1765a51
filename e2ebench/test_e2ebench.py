"""Self-tests of the benchmark: ``python3 -m pytest e2ebench -q``.

They check the benchmark's own arithmetic and checks without running a
workload: self time on a synthetic span tree, the metric-name grammar,
every output check against a doctored report, and that the layer
wrappers install, record and leave nothing behind.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

W = workloads.WORKLOADS


# -- self time ----------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > serve [1, 9] > sampling [2, 5] and cost [6, 8];
    # cost has a metrics child [6.5, 7]; a second op [10, 12] stands alone
    tree = [
        ["bench.op", 0.0, 10.0, -1, "a"],
        ["serve", 1.0, 9.0, 0, "a"],
        ["sampling", 2.0, 5.0, 1, "a"],
        ["cost", 6.0, 8.0, 1, "a"],
        ["metrics", 6.5, 7.0, 3, "a"],
        ["bench.op", 10.0, 12.0, -1, "b"],
    ]
    st = spans.self_times(tree)
    assert st == pytest.approx({"bench.op": 2.0 + 2.0, "serve": 3.0,
                                "sampling": 3.0, "cost": 1.5,
                                "metrics": 0.5})
    # the self times partition the top-level wall time exactly
    assert sum(st.values()) == pytest.approx(12.0)


def test_nested_same_layer_spans_charge_time_once():
    tree = [["engine", 0.0, 4.0, -1, ""], ["engine", 1.0, 3.0, 0, ""]]
    assert spans.self_times(tree) == pytest.approx({"engine": 4.0})


def test_recorder_tracks_parents_and_run_ids():
    rec = spans.SpanRecorder(run_id="qps50000")
    outer = rec.open("serve")
    inner = rec.open("sampling")
    assert rec.inside("serve") and rec.inside("sampling")
    rec.close(inner)
    rec.close(outer)
    assert [s[3] for s in rec.spans] == [-1, 0]
    assert {s[4] for s in rec.spans} == {"qps50000"}
    assert all(s[2] >= s[1] for s in rec.spans)
    with pytest.raises(RuntimeError):
        a = rec.open("x")
        rec.open("y")
        rec.close(a)


# -- metric-name grammar ------------------------------------------------------
def _bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["setup_s", "cache.dynamic.self_s",
                                  "sim.cache_local_share", "import.s",
                                  "trace.overhead-share", "A9"])
def test_metric_grammar_accepts(name):
    assert run.METRIC_NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", "sim ms", "cost/ops", "p99(ms)",
                                  "setup_s\n"])
def test_metric_grammar_rejects(name):
    assert not run.METRIC_NAME.fullmatch(name)


def test_benchmark_json_names_match_the_runner():
    doc = _bench_json()
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    for name in [*e2e, *layer, *(w["name"] for w in doc["workloads"])]:
        assert run.METRIC_NAME.fullmatch(name), name
    assert [w["name"] for w in doc["workloads"]] == list(W)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# -- output checks trip on doctored reports -----------------------------------
def _train_report():
    cache = {"local": 10, "remote": 20, "cold": 5}
    epochs = [{"loss": loss, "epoch_time": 1e-3, "cache": dict(cache)}
              for loss in (1.2, 0.1, 0.01)]
    evidence = {"epochs": [{"rows_requested": 35, "cache": dict(cache)}
                           for _ in epochs]}
    return {"epochs": epochs}, evidence


def _compare_report():
    ms = {"PyG": 220.0, "DGL-CPU": 110.0, "Quiver": 43.0, "DGL-UVA": 32.0,
          "DSP": 5.0}
    return {"systems": {n: {"epoch_time": v * 1e-3} for n, v in ms.items()}}


def _serve_report():
    wl = W["serve-products"]
    n = wl.REQUESTS
    points = [{"offered_qps": q, "offered": n, "completed": n - shed,
               "shed": shed, "latency_ms": {"p50": 0.5, "p99": 1.1}}
              for q, shed in zip(wl.LADDER, (0, 0, 0, 0, 800, 1400, 1536))]
    return {"points": points, "knee_qps": 800_000.0}


def _control_report():
    cells = {sc: {"improved": True, "static_slo_minutes": 0.003,
                  "controller_slo_minutes": 0.001, "actions": 20}
             for sc in W["control-drift"].SCENARIOS}
    return {"cells": cells}


def test_untouched_reports_pass():
    out, ev = _train_report()
    assert W["train-products"].check(out, ev) == {}
    assert W["compare-papers"].check(_compare_report(), {}) == {}
    assert W["serve-products"].check(_serve_report(), {}) == {}
    assert W["control-drift"].check(_control_report(), {}) == {}


@pytest.mark.parametrize("doctor", [
    lambda o, e: o["epochs"][1].update(loss=None),           # NaN loss
    lambda o, e: o["epochs"][2].update(loss=float("inf")),
    lambda o, e: o["epochs"][2].update(loss=1.5),            # no progress
    lambda o, e: o["epochs"][0]["cache"].update(cold=6),     # rows leak
    lambda o, e: e["epochs"][1].update(rows_requested=34),
    lambda o, e: e["epochs"][2]["cache"].update(local=11, remote=19),
    lambda o, e: e["epochs"].pop(),                          # no replay
])
def test_train_check_trips(doctor):
    out, ev = _train_report()
    doctor(out, ev)
    assert W["train-products"].check(out, ev)


@pytest.mark.parametrize("doctor", [
    lambda r: r["systems"]["DSP"].update(epoch_time=50e-3),   # DSP slowest GPU
    lambda r: r["systems"]["Quiver"].update(epoch_time=120e-3),
    lambda r: r["systems"]["DGL-CPU"].update(epoch_time=300e-3),
    lambda r: r["systems"].pop("PyG"),
    lambda r: r["systems"]["DGL-UVA"].update(epoch_time=math.nan),
])
def test_compare_check_trips(doctor):
    report = _compare_report()
    doctor(report)
    assert W["compare-papers"].check(report, {})


@pytest.mark.parametrize("doctor", [
    lambda r: r["points"][3].update(completed=100),           # lost requests
    lambda r: r["points"][5].update(shed=0),
    lambda r: r["points"][0]["latency_ms"].update(p50=2.0),   # p50 > p99
    lambda r: r.update(knee_qps=0.0),
    lambda r: r["points"].pop(2),                              # missing point
])
def test_serve_check_trips(doctor):
    report = _serve_report()
    doctor(report)
    assert W["serve-products"].check(report, {})


@pytest.mark.parametrize("doctor", [
    lambda r: r["cells"]["link-flap"].update(improved=False),
    lambda r: r["cells"].pop("sampler-crash"),   # raised: invariant broken
])
def test_control_check_trips(doctor):
    report = _control_report()
    doctor(report)
    assert W["control-drift"].check(report, {})


def test_failures_count_operations_not_messages():
    out, ev = _train_report()
    out["epochs"][2].update(loss=2.0)   # final loss above the first
    out["epochs"][0]["cache"].update(cold=6)
    ops = [workloads.Op(f"epoch{i}", 1.0, 7) for i in range(3)]
    good = run.Round(ops, copy.deepcopy(out), 3.0)
    drift = run.Round(ops, {"epochs": out["epochs"][:2]}, 3.0)
    attempted, failed, msgs = run.count_failures(
        W["train-products"], [good, good, drift], ev)
    assert attempted == 9
    # epoch0 and epoch2 fail in every round; epoch1 fails only in the
    # round whose outputs differ from the first
    assert failed == 2 + 2 + 3
    assert any("outputs differ" in m for m in msgs)


def test_host_rate_times_each_kind_by_its_median():
    def op(label, host_s, kind=None):
        return workloads.Op(label, host_s, 7, None, kind or label)

    # three epochs of one kind, one hit by a slow burst
    train = run.Round([op("epoch0", 2.0, "epoch"), op("epoch1", 9.0, "epoch"),
                       op("epoch2", 2.2, "epoch")], {}, 13.2)
    assert run.host_rate([train]) == pytest.approx(21 / (3 * 2.2))
    # distinct kinds take their median across rounds; failed ops drop out
    a = run.Round([op("qps1", 1.0), op("qps2", 3.0)], {}, 4.0)
    b = run.Round([op("qps1", 5.0), op("qps2", 3.0)], {}, 8.0)
    c = run.Round([op("qps1", 1.2), workloads.Op("qps2", 0.1, 0, "boom",
                                                 "qps2")], {}, 1.3)
    assert run.host_rate([a, b, c]) == pytest.approx(14 / (1.2 + 3.0))


# -- wrappers -----------------------------------------------------------------
def test_install_rebinds_every_caller_and_uninstall_restores():
    import repro
    import repro.core
    import repro.graph.datasets as datasets

    spans.assert_clean()
    rec = spans.SpanRecorder()
    undo = spans.install(rec)
    try:
        for fn in (repro.build_system, repro.core.build_system,
                   workloads.build_system, datasets.load_partition,
                   repro.load_dataset):
            assert hasattr(fn, spans.WRAPPED)
        with pytest.raises(RuntimeError):
            spans.assert_clean()
    finally:
        spans.uninstall(undo)
    spans.assert_clean()
    assert not hasattr(workloads.build_system, spans.WRAPPED)


def test_traced_round_records_layers_and_keeps_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
    import repro

    cfg = repro.RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16,
                          batch_size=8, fanout=(5, 3), seed=3)

    def epoch():
        # looked up at call time, as the workloads' callers do
        m = repro.build_system("DSP", cfg).run_epoch(max_batches=2,
                                                     functional=False)
        return workloads._epoch_dict(m)

    plain = epoch()
    rec = spans.SpanRecorder()
    undo = spans.install(rec)
    try:
        traced = epoch()
    finally:
        spans.uninstall(undo)
    spans.assert_clean()
    assert traced == plain
    st = spans.self_times(rec.spans)
    for layer in ("core.build", "sampling", "cache", "cost", "engine"):
        assert st.get(layer, 0.0) > 0.0, layer
    assert rec.counts["sampling.calls"] == 2
    assert rec.counts["cache.requested"] == sum(
        rec.counts[f"cache.{p}"] for p in ("local", "remote", "cold"))
    assert rec.counts["engine.events"] > 0
    assert 0.0 <= rec.counts.get("cost.repeat_ops", 0.0) < rec.counts[
        "cost.ops"]
