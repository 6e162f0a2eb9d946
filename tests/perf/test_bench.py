"""Tests for the pinned benchmark suite: workload pinning, the
regression gate, and the CLI contract (without timing anything slow)."""

import json
import os

import numpy as np
import pytest

import repro.perf.bench as bench
from repro.perf.bench import (
    DEFAULT_GATE_PCT,
    _bench_cells,
    _domain_batch,
    gate_against_baseline,
)


def payload(seconds, quick=True, **extra):
    return {
        "schema": "parm-bench",
        "version": 1,
        "rev": "test",
        "quick": quick,
        "workers": 4,
        "benchmarks": {
            name: {"seconds": value, "meta": {}}
            for name, value in seconds.items()
        },
        "derived": {},
        **extra,
    }


class TestPinnedWorkloads:
    def test_domain_batch_is_pinned(self):
        a = _domain_batch(64)
        b = _domain_batch(64)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_bench_cells_sizes(self):
        quick = _bench_cells(True)
        full = _bench_cells(False)
        assert len(quick) == 4
        assert len(full) == 8
        assert len({c.key for c in quick + full}) == len(quick) + len(full)

    def test_kernel_bench_smoke(self):
        result = bench.bench_kernel(quick=True)
        assert set(result) == {"kernel_eval_scalar", "kernel_eval_batch"}
        for entry in result.values():
            assert entry["seconds"] > 0

    def test_transient_bench_smoke(self):
        result = bench.bench_transient(quick=True)
        assert set(result) == {
            "transient_solve_cold",
            "transient_solve_warm",
            "transient_lanes_loop",
            "transient_lanes_batched",
            "transient_nodes_loop",
            "transient_nodes_union",
        }
        for entry in result.values():
            assert entry["seconds"] > 0
        # The lanes and node-union benchmarks check every report against
        # its one-lane solve before timing.
        assert result["transient_lanes_batched"]["meta"]["lanes"] == 10
        assert len(result["transient_nodes_union"]["meta"]["nodes"]) == 6

    def test_noc_engine_bench_smoke(self):
        result = bench.bench_noc_engine(quick=True)
        assert set(result) == {
            "noc_engine_array",
            "noc_engine_array_adaptive",
            "noc_engine_batch_loop",
            "noc_engine_batched",
        }
        for entry in result.values():
            assert entry["seconds"] > 0
            assert entry["meta"]["mesh"] == "8x8"
        # bench_noc_engine verifies every xy and panr batch lane against
        # a one-lane run before timing, so reaching here also certifies
        # the lane-identity contract on the quick workload.
        assert result["noc_engine_batched"]["meta"]["lanes"] == 8

    def test_noc_analytical_bench_smoke(self):
        result = bench.bench_noc_analytical(quick=True)
        assert set(result) == {"noc_analytical_evaluate"}
        entry = result["noc_analytical_evaluate"]
        assert entry["seconds"] > 0
        assert entry["meta"]["mesh"] == "10x6"
        meta = entry["meta"]
        assert meta["routing"] == ["xy", "panr", "icon"]
        assert meta["xy_ms"] > 0 and meta["panr_ms"] > 0 and meta["icon_ms"] > 0
        # The gated figure stays XY + PANR; ICON is reported only.
        assert entry["seconds"] == pytest.approx(
            (meta["xy_ms"] + meta["panr_ms"]) / 1e3
        )
        assert set(meta["us_per_flow"]) == {"xy", "panr", "icon"}
        assert meta["us_per_flow"]["panr"] == pytest.approx(
            meta["panr_ms"] * 1e3 / meta["flows"]
        )

    def test_lint_bench_smoke(self):
        result = bench.bench_lint(quick=True)
        assert set(result) == {"lint_deep"}
        assert result["lint_deep"]["seconds"] > 0
        assert result["lint_deep"]["meta"]["cache"] == "cold"

    def test_routing_sweep_bench_asserts_identity(self):
        result = bench.bench_routing_sweep(quick=True, workers=1)
        assert set(result) == {
            "routing_sweep_serial",
            "routing_sweep_parallel",
        }
        assert result["routing_sweep_serial"]["meta"]["points"] == 4


class TestGate:
    def test_regression_detected(self):
        result = payload({"kernel_eval_batch": 1.0})
        baseline = payload({"kernel_eval_batch": 0.5})
        failures = gate_against_baseline(result, baseline)
        assert len(failures) == 1
        assert "kernel_eval_batch" in failures[0]

    def test_within_gate_passes(self):
        result = payload({"kernel_eval_batch": 0.55})
        baseline = payload({"kernel_eval_batch": 0.5})
        assert gate_against_baseline(result, baseline) == []

    def test_tighter_gate_pct(self):
        result = payload({"kernel_eval_batch": 0.55})
        baseline = payload({"kernel_eval_batch": 0.5})
        assert gate_against_baseline(result, baseline, gate_pct=5.0)

    def test_new_benchmark_skipped(self):
        result = payload({"brand_new": 9.0, "kernel_eval_batch": 0.5})
        baseline = payload({"kernel_eval_batch": 0.5})
        assert gate_against_baseline(result, baseline) == []

    def test_quick_mismatch_skips_gate(self):
        result = payload({"kernel_eval_batch": 9.0}, quick=True)
        baseline = payload({"kernel_eval_batch": 0.5}, quick=False)
        assert gate_against_baseline(result, baseline) == []

    def test_zero_baseline_skipped(self):
        result = payload({"kernel_eval_batch": 1.0})
        baseline = payload({"kernel_eval_batch": 0.0})
        assert gate_against_baseline(result, baseline) == []


class TestCli:
    def test_workers_must_be_positive(self, capsys):
        assert bench.main(["--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cpus,expected", [(None, 1), (1, 1), (2, 2), (4, 4), (16, 4)]
    )
    def test_default_workers_fit_the_host(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        parser = bench.build_parser()
        assert parser.parse_args([]).workers == expected
        assert parser.parse_args(["--workers", "4"]).workers == 4

    def test_main_writes_output_and_gates(self, tmp_path, monkeypatch,
                                          capsys):
        fake = payload(
            {"kernel_eval_batch": 0.5, "kernel_eval_scalar": 1.0}
        )
        monkeypatch.setattr(bench, "run_suite", lambda **kw: fake)

        out = tmp_path / "bench.json"
        base = tmp_path / "baseline.json"
        with open(base, "w", encoding="utf-8") as handle:
            json.dump(payload({"kernel_eval_batch": 0.5}), handle)

        code = bench.main(
            ["--quick", "--output", str(out), "--baseline", str(base)]
        )
        assert code == 0
        written = json.loads(out.read_text())
        assert written["benchmarks"]["kernel_eval_batch"]["seconds"] == 0.5
        assert "gate passed" in capsys.readouterr().out

    def test_main_fails_on_regression(self, tmp_path, monkeypatch, capsys):
        fake = payload({"kernel_eval_batch": 2.0})
        monkeypatch.setattr(bench, "run_suite", lambda **kw: fake)

        out = tmp_path / "bench.json"
        base = tmp_path / "baseline.json"
        with open(base, "w", encoding="utf-8") as handle:
            json.dump(payload({"kernel_eval_batch": 0.5}), handle)

        code = bench.main(
            ["--output", str(out), "--baseline", str(base)]
        )
        assert code == 1
        assert "regressions" in capsys.readouterr().err

    def test_run_suite_records_cpu_count(self, monkeypatch):
        for name in ("bench_kernel", "bench_transient", "bench_noc_engine",
                     "bench_lint"):
            monkeypatch.setattr(bench, name, lambda quick: {})
        result = bench.run_suite(
            quick=True,
            skip=("pool", "campaign", "e2e", "routing", "verify", "service"),
        )
        assert result["cpu_count"] == os.cpu_count()

    def test_default_gate_is_generous(self):
        assert DEFAULT_GATE_PCT == 25.0
