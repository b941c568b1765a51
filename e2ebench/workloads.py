"""The benchmark's four workloads, each one user path of ``repro``.

Every workload is driven as a closed loop of one caller: the next
operation (an epoch, a sweep point, a matrix cell) starts when the
previous one returned.  A *round* is a fixed, seed-determined list of
operations on freshly built systems, so every simulated output of a
round repeats bit-for-bit for a given seed; the benchmark repeats
rounds to fill its measuring time and checks that they agree.

Inside the two serving workloads the simulated traffic is open-loop
at fixed offered rates: requests arrive on their own schedule and each
latency is timed from the request's scheduled arrival.  The simulated
generator cannot fall behind its schedule, so there is no generator
lag to report.

Why each workload exists, and which layers it should and should not
move, is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import RunConfig, build_system
from repro.bench.harness import TABLE_SYSTEMS
from repro.core.metrics import metrics_dict
from repro.graph import DATASET_SPECS


@dataclass
class Op:
    """One timed operation of a round."""

    label: str
    host_s: float
    items: int
    error: str | None = None
    #: operations of one kind do the same work and are timed as samples
    #: of one duration (default: the label)
    kind: str = ""


class OpTimer:
    """Times operations; with a recorder, also opens one ``bench.op``
    root span per operation and tags spans with the operation label."""

    def __init__(self, recorder=None):
        self.ops: list[Op] = []
        self.recorder = recorder

    def run(self, label: str, fn, items, kind: str | None = None):
        """``fn()`` timed as one operation; ``items(result)`` counts its
        work.  An exception fails the operation (recorded, not raised):
        the benchmark keeps going and reports it as failed."""
        rec = self.recorder
        idx = None
        if rec is not None:
            rec.run_id = label
            idx = rec.open("bench.op")
        error = None
        out = None
        t0 = perf_counter()
        try:
            out = fn()
        except Exception:  # a failed operation is a result, not a crash
            error = traceback.format_exc()
        host_s = perf_counter() - t0
        if idx is not None:
            rec.close(idx)
        self.ops.append(Op(label, host_s, 0 if error else items(out), error,
                           kind or label))
        return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _epoch_dict(m) -> dict:
    d = metrics_dict(m)
    d["cache"] = {k: int(m.cache_stats.get(k, 0))
                  for k in ("local", "remote", "cold")}
    return d


def _epoch_sim_layers(epoch: dict) -> dict[str, float]:
    return {"sim.sample_ms": epoch["sample_time"] * 1e3,
            "sim.load_ms": epoch["load_time"] * 1e3,
            "sim.train_ms": epoch["train_time"] * 1e3,
            "sim.utilization": epoch["utilization"]}


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    #: what ``host_items_per_s`` counts on this workload
    item = ""
    #: cold set-ups per timed run; ``setup_s`` is their median
    setup_reps = 2

    def params(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """Build every system the workload serves from (systems ready)."""
        raise NotImplementedError

    def run_round(self, seed: int, timer: OpTimer) -> dict:
        """One round; returns its simulated outputs (JSON-safe)."""
        raise NotImplementedError

    def verify(self, seed: int, outputs: dict) -> dict:
        """Untimed evidence for :meth:`check` (default: none)."""
        return {}

    def check(self, outputs: dict, evidence: dict) -> dict[str, list[str]]:
        """Failed checks, keyed by the label of the operation they fail."""
        raise NotImplementedError

    def named(self, outputs: dict) -> dict[str, tuple[float, str]]:
        """The workload's own simulated end-to-end figures."""
        raise NotImplementedError

    def sim_ms(self, outputs: dict) -> float:
        """The headline simulated time gated as ``sim_ms``."""
        raise NotImplementedError

    def sim_layers(self, outputs: dict) -> dict[str, float]:
        """``sim.*`` per-layer figures read from the round's outputs."""
        return {}


class TrainProducts(Workload):
    name = "train-products"
    item = "global mini-batches"
    EPOCHS = 5

    def config(self, seed: int) -> RunConfig:
        return RunConfig(dataset="products", num_gpus=8, model="sage",
                         hidden_dim=256, fanout=(15, 10, 5), batch_size=32,
                         seed=seed)

    def params(self, seed):
        return {"system": "DSP", "dataset": "products", "gpus": 8,
                "model": "sage", "hidden": 256, "fanout": [15, 10, 5],
                "batch_size": 32, "epochs_per_round": self.EPOCHS,
                "functional": True, "seed": seed}

    def setup(self, seed):
        build_system("DSP", self.config(seed))

    def run_round(self, seed, timer):
        system = build_system("DSP", self.config(seed))
        epochs = []
        for e in range(self.EPOCHS):
            m = timer.run(f"epoch{e}", system.run_epoch,
                          lambda m: m.num_batches, kind="epoch")
            if m is None:
                break  # later epochs continue from this one's state
            epochs.append(_epoch_dict(m))
        return {"epochs": epochs}

    def verify(self, seed, outputs):
        """Replay the round cost-only on a fresh system, counting the
        rows the trainer asks the loader for.  Validation runs after
        each epoch as in the functional round, so the sampler draws the
        same neighbourhoods and the cache split must match exactly."""
        system = build_system("DSP", self.config(seed))
        loader_load = system.loader.load
        requested = []

        def counting_load(requests):
            requested[-1] += sum(len(r) for r in requests)
            return loader_load(requests)

        system.loader.load = counting_load  # this instance only
        replay = []
        try:
            for _ in outputs["epochs"]:
                requested.append(0)
                m = system.run_epoch(functional=False)
                system.evaluate(system.data.val_nodes)
                replay.append({"rows_requested": requested[-1],
                               "cache": _epoch_dict(m)["cache"]})
        finally:
            del system.loader.load
        return {"epochs": replay}

    def check(self, outputs, evidence):
        fails: dict[str, list[str]] = {}
        epochs = outputs["epochs"]
        for i, ep in enumerate(epochs):
            msgs = []
            if not _finite(ep["loss"]):
                msgs.append(f"loss {ep['loss']} is not finite")
            replay = evidence["epochs"][i] if i < len(
                evidence.get("epochs", ())) else None
            if replay is None:
                msgs.append("no cost-only replay to check the cache split")
            else:
                rows = sum(ep["cache"].values())
                if rows != replay["rows_requested"]:
                    msgs.append(f"cache local+remote+cold {rows} != rows "
                                f"requested {replay['rows_requested']}")
                if ep["cache"] != replay["cache"]:
                    msgs.append(f"functional cache split {ep['cache']} != "
                                f"cost-only {replay['cache']}")
            if msgs:
                fails[f"epoch{i}"] = msgs
        if len(epochs) < 2 or not (
                _finite(epochs[-1]["loss"]) and _finite(epochs[0]["loss"])
                and epochs[-1]["loss"] < epochs[0]["loss"]):
            label = f"epoch{max(len(epochs) - 1, 0)}"
            fails.setdefault(label, []).append(
                "final epoch loss is not below the first")
        return fails

    def named(self, outputs):
        last = outputs["epochs"][-1]
        return {"train_loss": (last["loss"], "nats"),
                "sim_epoch_ms": (last["epoch_time"] * 1e3, "ms")}

    def sim_ms(self, outputs):
        return outputs["epochs"][-1]["epoch_time"] * 1e3

    def sim_layers(self, outputs):
        return _epoch_sim_layers(outputs["epochs"][-1])


class ComparePapers(Workload):
    name = "compare-papers"
    item = "global mini-batches"
    #: one papers set-up costs ~15 s on an idle 2-vCPU host and twice
    #: that under load; a second one per run would not fit the budget
    setup_reps = 1
    BATCHES = 6

    def config(self, seed: int) -> RunConfig:
        return RunConfig(dataset="papers", num_gpus=8, seed=seed)

    def params(self, seed):
        return {"systems": list(TABLE_SYSTEMS), "dataset": "papers",
                "gpus": 8, "model": "sage", "hidden": 256,
                "fanout": [15, 10, 5], "batch_size": 32,
                "batches_per_epoch": self.BATCHES, "functional": False,
                "seed": seed}

    def setup(self, seed):
        cfg = self.config(seed)
        for name in TABLE_SYSTEMS:
            build_system(name, cfg)

    def run_round(self, seed, timer):
        cfg = self.config(seed)
        systems = {}
        for name in TABLE_SYSTEMS:
            system = build_system(name, cfg)
            m = timer.run(
                name,
                lambda: system.run_epoch(max_batches=self.BATCHES,
                                         functional=False),
                lambda m: min(self.BATCHES, m.num_batches),
            )
            if m is not None:
                systems[name] = _epoch_dict(m)
        return {"systems": systems}

    def check(self, outputs, evidence):
        fails: dict[str, list[str]] = {}
        ms = {}
        for name in TABLE_SYSTEMS:
            ep = outputs["systems"].get(name)
            if ep is None or not _finite(ep["epoch_time"]) \
                    or ep["epoch_time"] <= 0:
                fails[name] = [f"no positive simulated epoch for {name}"]
            else:
                ms[name] = ep["epoch_time"]
        if len(ms) == len(TABLE_SYSTEMS):
            gpu_baselines = max(ms["Quiver"], ms["DGL-UVA"])
            ordered = (ms["DSP"] < min(ms["Quiver"], ms["DGL-UVA"])
                       and gpu_baselines < ms["DGL-CPU"] < ms["PyG"])
            if not ordered:
                msg = ("Table 4 ordering DSP < {Quiver, DGL-UVA} < DGL-CPU "
                       f"< PyG broken: {ms}")
                for name in TABLE_SYSTEMS:
                    fails.setdefault(name, []).append(msg)
        return fails

    def named(self, outputs):
        ms = {n: e["epoch_time"] * 1e3 for n, e in outputs["systems"].items()}
        fastest = min(v for n, v in ms.items() if n != "DSP")
        return {"sim_epoch_ms": (ms["DSP"], "ms"),
                "sim_dsp_speedup": (fastest / ms["DSP"], "x")}

    def sim_ms(self, outputs):
        return outputs["systems"]["DSP"]["epoch_time"] * 1e3

    def sim_layers(self, outputs):
        return _epoch_sim_layers(outputs["systems"]["DSP"])


class ServeProducts(Workload):
    name = "serve-products"
    item = "simulated requests (completed + shed)"
    #: geometric offered-QPS ladder: ~3-request batches at the bottom,
    #: the knee in the middle, >50% shed at the top
    LADDER = (12_500.0, 50_000.0, 200_000.0, 800_000.0, 3_200_000.0,
              12_800_000.0, 51_200_000.0)
    #: sub-knee point whose p99 is reported as ``sim_p99_ms``
    FIXED_QPS = 50_000.0
    REQUESTS = 2560

    def config(self, seed):
        return RunConfig(dataset="products", num_gpus=8, seed=seed)

    def serve_config(self):
        from repro.serve import ServeConfig

        return ServeConfig(batch_max=16, batch_timeout_s=1e-3,
                           queue_capacity=64, slo_s=5e-3)

    def workload_config(self, seed):
        from repro.serve import WorkloadConfig

        return WorkloadConfig(num_requests=self.REQUESTS, arrival="poisson",
                              skew=0.8, seed=seed)

    def params(self, seed):
        return {"system": "DSP", "dataset": "products", "gpus": 8,
                "cache": "static", "arrival": "poisson", "zipf": 0.8,
                "requests_per_point": self.REQUESTS, "slo_ms": 5.0,
                "batch_max": 16, "batch_timeout_ms": 1.0,
                "queue_capacity": 64, "qps": list(self.LADDER),
                "fixed_qps": self.FIXED_QPS, "seed": seed}

    def setup(self, seed):
        build_system("DSP", self.config(seed))

    def run_round(self, seed, timer):
        from repro.serve import make_workload, max_sustainable_qps, serve_once
        from repro.serve.sweep import SweepPoint

        system = build_system("DSP", self.config(seed))
        workload = make_workload(self.workload_config(seed),
                                 np.arange(system.base_dataset.num_nodes))
        cfg = self.serve_config()
        points = []
        for qps in self.LADDER:
            r = timer.run(f"qps{qps:g}",
                          lambda: serve_once(system, workload, qps, cfg),
                          lambda r: r.completed + r.shed)
            if r is not None:
                points.append(SweepPoint(qps, r))
        return {"points": [p.report.to_dict() for p in points],
                "knee_qps": max_sustainable_qps(points)}

    def check(self, outputs, evidence):
        fails: dict[str, list[str]] = {}
        seen = set()
        for p in outputs["points"]:
            label = f"qps{p['offered_qps']:g}"
            seen.add(label)
            msgs = []
            if p["completed"] + p["shed"] != p["offered"] \
                    or p["offered"] != self.REQUESTS:
                msgs.append(f"completed {p['completed']} + shed {p['shed']}"
                            f" != offered {p['offered']}")
            lat = p["latency_ms"]
            if not (_finite(lat["p50"]) and _finite(lat["p99"])
                    and lat["p50"] <= lat["p99"]):
                msgs.append(f"p50 {lat['p50']} > p99 {lat['p99']}")
            if msgs:
                fails[label] = msgs
        for qps in self.LADDER:
            if f"qps{qps:g}" not in seen:
                fails.setdefault(f"qps{qps:g}", []).append("no report")
        if not outputs["knee_qps"] > 0:
            fails.setdefault(f"qps{self.LADDER[-1]:g}", []).append(
                "no offered load meets the SLO (knee is 0)")
        return fails

    def _fixed(self, outputs) -> dict:
        return next(p for p in outputs["points"]
                    if p["offered_qps"] == self.FIXED_QPS)

    def named(self, outputs):
        return {"sim_p99_ms": (self._fixed(outputs)["latency_ms"]["p99"],
                               "ms"),
                "sim_knee_qps": (outputs["knee_qps"], "1/s")}

    def sim_ms(self, outputs):
        return self._fixed(outputs)["latency_ms"]["p99"]

    def sim_layers(self, outputs):
        stages = self._fixed(outputs)["stage_means_ms"]
        return {"sim.sample_ms": stages["sample"],
                "sim.load_ms": stages["load"],
                "sim.train_ms": stages["compute"],
                "sim.queue_wait_ms": stages["queue"]}


class ControlDrift(Workload):
    name = "control-drift"
    item = "simulated requests (completed + shed)"
    SCENARIOS = ("link-flap", "cache-peer-loss", "sampler-crash")
    REQUESTS = 512
    QPS = 3000.0
    #: aggregate dynamic-cache budget as a share of the feature bytes
    CACHE_SHARE = 0.02
    GPUS = 4
    LABEL = "diurnal+drift4"

    def config(self, seed):
        budget = (self.CACHE_SHARE * DATASET_SPECS["products"].feature_nbytes
                  / self.GPUS)
        return RunConfig(dataset="products", num_gpus=self.GPUS,
                         dynamic_cache=True, feature_cache_bytes=budget,
                         seed=seed)

    def serve_config(self):
        from repro.serve import ServeConfig

        return ServeConfig(batch_max=16, batch_timeout_s=2e-3,
                           queue_capacity=64, slo_s=2e-3)

    def workload_config(self, seed):
        from repro.serve import WorkloadConfig

        return WorkloadConfig(num_requests=self.REQUESTS, arrival="diurnal",
                              skew=1.5, drift_phases=4, seed=seed)

    def params(self, seed):
        return {"system": "DSP", "dataset": "products", "gpus": self.GPUS,
                "cache": "dynamic", "cache_share": self.CACHE_SHARE,
                "arrival": "diurnal", "zipf": 1.5, "drift_phases": 4,
                "requests_per_pass": self.REQUESTS, "qps": self.QPS,
                "slo_ms": 2.0, "batch_max": 16, "batch_timeout_ms": 2.0,
                "queue_capacity": 64, "scenarios": list(self.SCENARIOS),
                "seed": seed}

    def setup(self, seed):
        build_system("DSP", self.config(seed))

    def run_round(self, seed, timer):
        from repro.control import ControllerConfig, control_matrix

        cfg = self.config(seed)
        wl = {self.LABEL: self.workload_config(seed)}
        serve_cfg = self.serve_config()
        cells = {}
        for scenario in self.SCENARIOS:
            # static + controller passes under the plan, plus the
            # fault-free pass that sizes the plan: three streams
            payload = timer.run(
                scenario,
                lambda: control_matrix(
                    "DSP", cfg, ControllerConfig(), scenarios=[scenario],
                    workload_configs=wl, qps=self.QPS,
                    serve_config=serve_cfg),
                lambda p: 3 * self.REQUESTS,
            )
            if payload is not None:
                cells[scenario] = payload["cells"][f"{scenario}/{self.LABEL}"]
        return {"cells": cells}

    def check(self, outputs, evidence):
        fails: dict[str, list[str]] = {}
        for scenario in self.SCENARIOS:
            cell = outputs["cells"].get(scenario)
            if cell is None:
                fails[scenario] = ["cell failed (an invariant violation "
                                   "raises under the strict checker)"]
            elif not cell["improved"]:
                fails[scenario] = [
                    f"regressed: controller {cell['controller_slo_minutes']}"
                    f" > static {cell['static_slo_minutes']} SLO minutes"]
        return fails

    def _minutes(self, outputs) -> float:
        return sum(c["controller_slo_minutes"]
                   for c in outputs["cells"].values())

    def named(self, outputs):
        return {"sim_slo_minutes": (self._minutes(outputs), "min")}

    def sim_ms(self, outputs):
        cells = outputs["cells"].values()
        return sum(c["controller_p99_ms"] for c in cells) / len(cells)

    def sim_layers(self, outputs):
        return {"control.actions": float(sum(
            c["actions"] for c in outputs["cells"].values()))}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TrainProducts(), ComparePapers(), ServeProducts(),
                        ControlDrift())
}
