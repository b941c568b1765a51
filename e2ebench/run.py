"""End-to-end benchmark of the ``repro`` user paths.

    python3 e2ebench/run.py --workload serve-products --seed 0 --seconds 5 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) in this
process with one worker and BLAS pinned to one thread, checks its
outputs, and prints a provenance header, one line per metric (value,
unit, sample count), a digest of every simulated output, and — as the
last line — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
cold set-ups, each a fresh process from start to systems ready),
``peak_rss_mb``, ``host_items_per_s`` (per-kind median operation
times over the rounds measured for ``--seconds``) and ``sim_ms``.
``--trace 1`` does a traced cold set-up, then runs one round untraced,
one traced (spans around every layer's public calls, see ``spans.py``)
and one untraced again, and reports the per-layer metrics plus the
tracing overhead.  Both modes exit 0 even when a check fails:
``correct`` is false and ``failed`` counts the failed operations.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported anywhere
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
from collections import defaultdict  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for private dataset caches, removed at exit
WORK = ROOT / ".e2ebench-work"
#: span dumps of traced runs, kept for inspection
OUT = ROOT / ".e2ebench-out"

SETUP_TIMEOUT_S = 150

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB",
              "host_items_per_s": "1/s", "sim_ms": "ms"}

#: per-layer metrics (``--trace 1``): name -> unit.  A workload that
#: does not exercise a layer reports 0 for it.
PER_LAYER = {
    "import.s": "s", "graph.generate_s": "s", "graph.partition_s": "s",
    "core.build_s": "s",
    "sampling.calls": "count", "sampling.self_s": "s",
    "sampling.edges": "count", "sampling.edges_per_s": "1/s",
    "cache.load_calls": "count", "cache.load_self_s": "s",
    "cache.rows": "count", "cache.plan_hit_ratio": "ratio",
    "cache.dynamic.self_s": "s", "cache.dynamic.promotions": "count",
    "cache.dynamic.demotions": "count",
    "cost.calls": "count", "cost.ops": "count", "cost.self_s": "s",
    "cost.repeat_share": "ratio",
    "engine.replay_self_s": "s", "engine.events": "count",
    "engine.ns_per_event": "ns",
    "nn.forward_s": "s", "nn.backward_s": "s", "nn.optim_s": "s",
    "nn.eval_s": "s",
    "serve.self_s": "s", "serve.batches": "count",
    "serve.mean_batch": "count",
    "control.self_s": "s", "control.actions": "count",
    "chaos.self_s": "s", "chaos.violations": "count",
    "metrics.self_s": "s",
    "bench.self_s": "s",
    "sim.sample_ms": "ms", "sim.load_ms": "ms", "sim.train_ms": "ms",
    "sim.nvlink_mb": "MB", "sim.pcie_mb": "MB", "sim.utilization": "ratio",
    "sim.cache_local_share": "ratio", "sim.cache_remote_share": "ratio",
    "sim.cache_cold_share": "ratio", "sim.queue_wait_ms": "ms",
    "trace.untraced_s": "s", "trace.traced_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def digest(outputs) -> str:
    """SHA-256 of a round's simulated outputs (canonical JSON)."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def provenance(wl, seed: int) -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, env=env,
                                 timeout=30)
            st = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain", "--", "src"],
                                capture_output=True, text=True, env=env,
                                timeout=30)
            if sha.returncode == 0:
                git = {"sha": sha.stdout.strip(), "dirty": bool(st.stdout)}
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": wl.name,
        "seed": seed,
        "params": wl.params(seed),
        "git": git,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_PIN,
        "workers": 1,
    }


def cold_setup(wl, seed: int, data_dir: Path, trace: bool) -> dict:
    """One cold set-up in a fresh process into an empty data dir."""
    data_dir.mkdir(parents=True)
    env = dict(os.environ, REPRO_DATA_DIR=str(data_dir),
               PYTHONPATH=str(SRC), **BLAS_PIN)
    cmd = [sys.executable, str(HERE / "coldstart.py"), "--workload",
           wl.name, "--seed", str(seed), "--trace", str(int(trace))]
    t0 = monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t0
    return out


class Round:
    def __init__(self, ops, outputs, wall_s):
        self.ops = ops
        self.outputs = outputs
        self.wall_s = wall_s
        self.digest = digest(outputs)


def host_rate(rounds: list[Round]) -> float:
    """Items per host second of one round, each operation kind timed by
    its median over every run of that kind (across rounds, and across
    the epochs of a training round), so one slow burst on the shared
    host moves one sample, not the figure."""
    times: dict[str, list[float]] = {}
    for r in rounds:
        for op in r.ops:
            if op.error is None:
                times.setdefault(op.kind, []).append(op.host_s)
    ops = [op for op in rounds[0].ops if op.error is None]
    busy = sum(statistics.median(times[op.kind]) for op in ops)
    return sum(op.items for op in ops) / busy if busy > 0 else 0.0


def run_round(wl, seed: int, recorder=None) -> Round:
    from workloads import OpTimer

    timer = OpTimer(recorder)
    t0 = perf_counter()
    outputs = wl.run_round(seed, timer)
    return Round(timer.ops, outputs, perf_counter() - t0)


def count_failures(wl, rounds: list[Round], evidence: dict):
    """(attempted, failed, messages): a failed operation raised, failed
    an output check, or belongs to a round whose simulated outputs
    differ from the first round's."""
    first = rounds[0]
    try:
        fails = wl.check(first.outputs, evidence)
    except (KeyError, IndexError, TypeError, StopIteration) as err:
        fails = {op.label: [f"check could not read outputs: {err!r}"]
                 for op in first.ops}
    attempted = failed = 0
    messages = []
    for i, r in enumerate(rounds):
        same = r.digest == first.digest
        for op in r.ops:
            attempted += 1
            why = []
            if op.error is not None:
                why.append(op.error.strip().splitlines()[-1])
            if not same:
                why.append(f"outputs differ from round 0 ({r.digest[:12]} "
                           f"vs {first.digest[:12]})")
            why.extend(fails.get(op.label, ()))
            if why:
                failed += 1
                messages.append(f"round {i} {op.label}: " + "; ".join(why))
    return attempted, failed, messages


def timed_run(wl, seed: int, seconds: float, work: Path):
    import spans

    setups = []
    for i in range(wl.setup_reps):
        data = work / f"data{i}"
        setups.append(cold_setup(wl, seed, data, trace=False))
        if i < wl.setup_reps - 1:
            shutil.rmtree(data)
    os.environ["REPRO_DATA_DIR"] = str(data)
    wl.setup(seed)  # warm: load the cached dataset and partition
    spans.assert_clean()

    rounds: list[Round] = []
    t0 = perf_counter()
    while True:
        rounds.append(run_round(wl, seed))
        elapsed = perf_counter() - t0
        if elapsed + rounds[-1].wall_s > seconds:
            break
    measured_s = perf_counter() - t0
    evidence = wl.verify(seed, rounds[0].outputs)
    attempted, failed, messages = count_failures(wl, rounds, evidence)

    n_ops = sum(len(r.ops) for r in rounds)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups),
                    len(setups), "cold set-ups, median"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1, "this process"),
        "host_items_per_s": (host_rate(rounds), n_ops,
                             f"ops in {len(rounds)} round(s), median per "
                             f"kind; {wl.item} per host second, "
                             f"{measured_s:.1f} s measured"),
        "sim_ms": (wl.sim_ms(rounds[0].outputs), 1, "simulated, exact"),
    }
    return metrics, rounds, attempted, failed, messages


def layer_metrics(wl, setup: dict, rec, outputs: dict,
                  untraced_s: float, traced_s: float) -> dict:
    from spans import self_times

    boot = defaultdict(float, self_times(setup["spans"]))
    st = defaultdict(float, self_times(rec.spans))
    c = defaultdict(float, rec.counts)

    def ratio(a, b):
        return a / b if b else 0.0

    rows = sum(c[f"cache.{p}"] for p in ("local", "remote", "cold"))
    events = c["engine.events"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({
        "import.s": setup["import_s"],
        "graph.generate_s": boot["graph.generate"],
        "graph.partition_s": boot["graph.partition"],
        "core.build_s": boot["core.build"],
        "sampling.calls": c["sampling.calls"],
        "sampling.self_s": st["sampling"],
        "sampling.edges": c["sampling.edges"],
        "sampling.edges_per_s": ratio(c["sampling.edges"],
                                      st["sampling"]),
        "cache.load_calls": c["cache.load_calls"],
        "cache.load_self_s": st["cache"],
        "cache.rows": rows,
        "cache.plan_hit_ratio": ratio(c["cache.plan_hits"],
                                      c["cache.plan_lookups"]),
        "cache.dynamic.self_s": st["cache.dynamic"],
        "cache.dynamic.promotions": c["cache.dynamic.promotions"],
        "cache.dynamic.demotions": c["cache.dynamic.demotions"],
        "cost.calls": c["cost.calls"],
        "cost.ops": c["cost.ops"],
        "cost.self_s": st["cost"],
        "cost.repeat_share": ratio(c["cost.repeat_ops"],
                                   c["cost.ops"]),
        "engine.replay_self_s": st["engine"],
        "engine.events": events,
        "engine.ns_per_event": ratio(st["engine"] * 1e9, events),
        "nn.forward_s": st["nn.forward"],
        "nn.backward_s": st["nn.backward"],
        "nn.optim_s": st["nn.optim"],
        "nn.eval_s": st["nn.eval"],
        "serve.self_s": st["serve"],
        "serve.batches": c["serve.batches"],
        "serve.mean_batch": ratio(c["serve.requests"],
                                  c["serve.batches"]),
        "control.self_s": st["control"],
        "chaos.self_s": st["chaos"],
        "chaos.violations": c["chaos.violations"],
        "metrics.self_s": st["metrics"],
        "bench.self_s": st["bench.op"],
        "sim.nvlink_mb": c["sim.nvlink_bytes"] / 1e6,
        "sim.pcie_mb": c["sim.pcie_bytes"] / 1e6,
        "sim.cache_local_share": ratio(c["cache.local"], rows),
        "sim.cache_remote_share": ratio(c["cache.remote"], rows),
        "sim.cache_cold_share": ratio(c["cache.cold"], rows),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": ratio(traced_s - untraced_s, untraced_s),
    })
    out.update(wl.sim_layers(outputs))
    return {k: (float(v), 1, "traced round") for k, v in out.items()}


def traced_run(wl, seed: int, work: Path):
    import spans

    setup = cold_setup(wl, seed, work / "data0", trace=True)
    os.environ["REPRO_DATA_DIR"] = str(work / "data0")
    wl.setup(seed)

    # untraced, traced, untraced: the first round also warms lazy
    # state, so the overhead compares the traced round with the second
    spans.assert_clean()
    plain = run_round(wl, seed)
    rec = spans.SpanRecorder()
    undo = spans.install(rec)
    try:
        traced = run_round(wl, seed, rec)
    finally:
        spans.uninstall(undo)
    spans.assert_clean()
    again = run_round(wl, seed)

    evidence = wl.verify(seed, plain.outputs)
    attempted, failed, messages = count_failures(
        wl, [plain, traced, again], evidence)
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{wl.name}-seed{seed}.json"
    dump.write_text(json.dumps({"setup": setup["spans"], "round": rec.spans,
                                "counts": rec.counts}))
    untraced_s = sum(op.host_s for op in again.ops)
    traced_s = sum(op.host_s for op in traced.ops)
    metrics = layer_metrics(wl, setup, rec, plain.outputs, untraced_s,
                            traced_s)
    return metrics, [plain, traced, again], attempted, failed, messages


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    work = WORK / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, rounds, attempted, failed, messages = traced_run(
                wl, args.seed, work)
        else:
            metrics, rounds, attempted, failed, messages = timed_run(
                wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("provenance " + json.dumps(provenance(wl, args.seed),
                                     sort_keys=True))
    for name, (value, n, note) in metrics.items():
        unit = (PER_LAYER if args.trace else END_TO_END)[name]
        print(f"metric {name} {value:.6g} {unit} n={n} ({note})")
    first = rounds[0].outputs
    for name, (value, unit) in wl.named(first).items():
        print(f"metric {name} {value:.9g} {unit} n=1 (simulated, exact)")
    print(f"sim_digest {rounds[0].digest}")
    for msg in messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"checks {attempted} attempted, {failed} failed")

    names = PER_LAYER if args.trace else END_TO_END
    bad = sorted(set(metrics) ^ set(names)) + [
        k for k in names if not METRIC_NAME.fullmatch(k)]
    if bad:
        raise RuntimeError(f"metric names differ from the declared set: {bad}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": names[k]}
                    for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
