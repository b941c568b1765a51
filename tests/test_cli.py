"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


ARGS = ["--dataset", "tiny", "--gpus", "2", "--hidden", "16",
        "--batch-size", "8", "--fanout", "5,3"]


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "products" in out and "NVLink" in out

    def test_train(self, capsys):
        assert main(["train", *ARGS, "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "epoch time" in out

    def test_train_cost_only_json(self, capsys):
        assert main(["train", *ARGS, "--epochs", "1",
                     "--cost-only", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("["):])
        assert payload[0]["epoch_time"] > 0
        assert payload[0]["loss"] is None  # cost-only: no training

    def test_compare_subset(self, capsys):
        assert main(["compare", *ARGS, "--systems", "DSP,DGL-UVA",
                     "--batches", "2", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert set(payload) == {"DSP", "DGL-UVA"}

    def test_train_out_writes_file_not_stdout(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["train", *ARGS, "--epochs", "1", "--cost-only",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "epoch_time" not in out  # the JSON went to the file
        payload = json.loads(path.read_text())
        assert payload[0]["epoch_time"] > 0

    def test_compare_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        assert main(["compare", *ARGS, "--systems", "DSP", "--batches", "2",
                     "--out", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert set(json.loads(path.read_text())) == {"DSP"}

    def test_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        text = tmp_path / "trace.txt"
        assert main(["trace", *ARGS, "--system", "DSP", "--batches", "2",
                     "--out", str(path), "--text", str(text)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "busy" in out and "critical path" in out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases
        assert "==" in text.read_text()

    def test_infer(self, capsys):
        assert main(["infer", *ARGS, "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "full-graph inference" in out

    def test_infer_json(self, capsys):
        assert main(["infer", *ARGS, "--epochs", "1", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert len(payload["epochs"]) == 1
        assert 0.0 <= payload["inference"]["test_accuracy"] <= 1.0
        assert payload["inference"]["simulated_time_s"] > 0

    def test_infer_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "infer.json"
        assert main(["infer", *ARGS, "--epochs", "1",
                     "--out", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert "inference" in json.loads(path.read_text())

    def test_serve(self, capsys):
        assert main(["serve", *ARGS, "--requests", "32",
                     "--qps", "2000,500", "--json"]) == 0
        out = capsys.readouterr().out
        assert "max sustainable QPS" in out
        payload = json.loads(out[out.index("{"):])
        points = payload["systems"]["DSP"]["points"]
        assert [p["offered_qps"] for p in points] == [500.0, 2000.0]
        assert "max_sustainable_qps" in payload["systems"]["DSP"]

    def test_serve_multi_system_out(self, capsys, tmp_path):
        path = tmp_path / "serve.json"
        assert main(["serve", *ARGS, "--systems", "DSP,DGL-UVA",
                     "--requests", "32", "--qps", "1000",
                     "--functional", "--out", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert set(payload["systems"]) == {"DSP", "DGL-UVA"}
        acc = payload["systems"]["DSP"]["points"][0]["accuracy"]
        assert 0.0 <= acc <= 1.0

    def test_serve_autoscaled_multi_system(self, capsys):
        """Every system in the sweep is served under the same layout."""
        assert main(["serve", *ARGS, "--systems", "DSP,DSP-Pull",
                     "--requests", "32", "--qps", "2000",
                     "--scale-max", "2", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        for entry in payload["systems"].values():
            assert "autoscale" in entry["points"][0]["control"]

    @pytest.mark.parametrize("flags", [
        ["--num-replicas", "2", "--trace-base", "sweep.json"],
        ["--scale-max", "3", "--trace-base", "sweep.json"],
        ["--scale-max", "3", "--num-replicas", "2"],
    ], ids=["trace-replicas", "trace-autoscale", "scale-and-replicas"])
    def test_serve_replica_conflicts_exit_nonzero(self, flags, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", *ARGS,
             "--requests", "16", "--qps", "1000", *flags],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert not list(tmp_path.glob("*.json"))  # no trace written
        expected = ("tracing a replicated run is ambiguous"
                    if "--trace-base" in flags else "--scale-max replaces")
        assert expected in proc.stderr

    def test_serve_bad_arrival_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "uniform"])

    @pytest.mark.parametrize("argv", [
        ["serve", *ARGS, "--qps", "0"],
        ["serve", *ARGS, "--gpus", "0", "--requests", "16", "--qps", "1000"],
        ["serve", *ARGS, "--requests", "0", "--qps", "1000"],
        ["chaos", *ARGS, "--systems", "NOPE", "--scenarios", "straggler"],
        ["serve", *ARGS, "--qps", "abc"],
        ["control", *ARGS, "--qps", "0", "--scenarios", "none"],
        ["chaos", *ARGS, "--qps", "-5", "--scenarios", "cache-peer-loss"],
        ["chaos", *ARGS, "--requests", "0", "--scenarios", "cache-peer-loss"],
        ["serve", *ARGS, "--batch-max", "0", "--qps", "1000"],
        ["serve", *ARGS, "--queue-capacity", "0", "--qps", "1000"],
        ["serve", *ARGS, "--batch-timeout-ms", "-1", "--qps", "1000"],
        ["compare", *ARGS, "--batches", "0", "--systems", "DSP"],
        ["chaos", *ARGS, "--batches", "0", "--scenarios", "straggler"],
        ["serve", *ARGS, "--metrics", "--metrics-window-ms", "0"],
        ["serve", *ARGS, "--tenants", "-1", "--qps", "1000"],
        ["control", *ARGS, "--scenarios", "meteor-strike"],
        ["chaos", *ARGS, "--scenarios", "meteor-strike"],
    ], ids=["qps-zero", "gpus-zero", "requests-zero", "unknown-system",
            "qps-not-a-number", "control-qps-zero", "chaos-qps-negative",
            "chaos-requests-zero", "batch-max-zero", "queue-capacity-zero",
            "batch-timeout-negative", "compare-batches-zero",
            "chaos-batches-zero", "metrics-window-zero", "tenants-negative",
            "control-unknown-scenario", "chaos-unknown-scenario"])
    def test_bad_input_exits_without_traceback(self, argv, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("flags", [
        ["--num-replicas", "0"],
        ["--cache-warmup", "-3"],
    ], ids=["zero-replicas", "negative-warmup"])
    def test_serve_rejects_impossible_counts(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", *flags])

    def test_list_flags_parse_to_lists(self):
        args = build_parser().parse_args(
            ["serve", "--fanout", "5,3", "--qps", "500,2e3",
             "--systems", "DSP,DGL-UVA"])
        assert args.fanout == [5, 3]
        assert args.qps == [500.0, 2000.0]
        assert args.systems == ["DSP", "DGL-UVA"]

    def test_parser_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--system", "magic"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
