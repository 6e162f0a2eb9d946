"""Tests for the routing-policy sweep and the generic parallel map."""

import numpy as np
import pytest

from repro.exp.routing_sweep import (
    DEFAULT_POLICIES,
    SweepPoint,
    hotspot_psn,
    main,
    print_routing_sweep,
    routing_sweep,
    run_batch,
    uniform_random_flows,
)
from repro.chip.mesh import MeshGeometry
from repro.harness.errors import ConfigError
from repro.perf.parallel import map_tasks

SMALL = dict(
    rates=(0.1, 0.3),
    policies=("xy", "panr"),
    seeds=(1,),
    mesh_width=4,
    mesh_height=4,
    cycles=200,
)


class TestSweep:
    def test_rows_cover_grid_in_order(self):
        rows = routing_sweep(**SMALL)
        assert [(r.policy, r.injection_rate_flits) for r in rows] == [
            ("xy", 0.1), ("xy", 0.3), ("panr", 0.1), ("panr", 0.3),
        ]
        for row in rows:
            assert row.avg_latency_cycles > 0
            assert row.throughput_flits_per_cycle > 0
            assert 0 < row.delivered_pct <= 100.0

    def test_parallel_identical_to_serial(self):
        serial = routing_sweep(**SMALL, workers=1)
        parallel = routing_sweep(**SMALL, workers=2)
        assert serial == parallel

    def test_deterministic_across_calls(self):
        assert routing_sweep(**SMALL) == routing_sweep(**SMALL)

    def test_latency_rises_with_load(self):
        rows = routing_sweep(
            rates=(0.05, 0.4), policies=("xy",), seeds=(1,), cycles=600,
        )
        assert rows[1].avg_latency_cycles > rows[0].avg_latency_cycles

    def test_point_is_pure(self):
        point = SweepPoint(policy="icon", injection_rate_flits=0.2, seed=3,
                           mesh_width=4, mesh_height=4, cycles=150)
        assert run_batch([point]) == run_batch([point])

    def test_traffic_same_pattern_for_all_policies(self):
        mesh = MeshGeometry(8, 8)
        a = uniform_random_flows(mesh, 0.1, seed=4, packet_size_flits=4)
        b = uniform_random_flows(mesh, 0.3, seed=4, packet_size_flits=4)
        assert [(f.src, f.dst) for f in a] == [(f.src, f.dst) for f in b]

    def test_hotspot_band(self):
        mesh = MeshGeometry(8, 8)
        psn = hotspot_psn(mesh)
        hot = {t for t in range(mesh.tile_count) if psn[t] > 5.0}
        assert hot == {t for t in range(mesh.tile_count)
                       if mesh.coord_of(t)[1] in (3, 4)}

    def test_print_and_cli(self, capsys):
        print_routing_sweep(routing_sweep(**SMALL))
        table = capsys.readouterr().out
        assert "panr" in table and "avg_lat[cyc]" in table
        assert main([
            "--rates", "0.1", "--policies", "xy", "--seeds", "1",
            "--cycles", "100", "--mesh", "4", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "xy" in out

    def test_default_policies_cover_paper_baselines(self):
        assert set(DEFAULT_POLICIES) == {"xy", "odd-even", "icon", "panr"}


def _double(x):
    return 2 * x


class TestMapTasks:
    def test_serial_matches_parallel_in_order(self):
        tasks = list(range(7))
        assert map_tasks(_double, tasks, workers=1) == [
            2 * t for t in tasks
        ]
        assert map_tasks(_double, tasks, workers=3) == [
            2 * t for t in tasks
        ]

    def test_workers_validated(self):
        with pytest.raises(ConfigError):
            map_tasks(_double, [1], workers=0)

    def test_unpicklable_fn_rejected(self):
        with pytest.raises(ConfigError):
            map_tasks(lambda x: x, [1, 2], workers=2)

    def test_lambda_ok_in_process(self):
        # workers=1 never pickles, so local callables are fine there.
        assert map_tasks(lambda x: x + 1, [1, 2], workers=1) == [2, 3]


class TestRunBatch:
    # Parity of run_batch against the reference simulator lives next to
    # that oracle, in tests/noc/test_sweep_oracle.py.

    def points(self, policy="xy", n=4):
        return [
            SweepPoint(policy=policy, injection_rate_flits=rate, seed=seed,
                       mesh_width=4, mesh_height=4, cycles=200)
            for rate in (0.1, 0.3)
            for seed in (1, 2)
        ][:n]

    def test_batch_matches_scalar_points(self):
        # Packing points as lanes of one batch is invisible: each row
        # equals that point run as a one-point batch.
        for policy in ("xy", "panr"):
            points = self.points(policy)
            assert run_batch(points) == [run_batch([p])[0] for p in points]

    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_mixed_policy_batch_rejected(self):
        bad = self.points("xy", 2) + self.points("odd-even", 2)
        with pytest.raises(ConfigError, match="policy"):
            run_batch(bad)

    def test_mixed_geometry_batch_rejected(self):
        a = self.points(n=1)[0]
        b = SweepPoint(policy="xy", injection_rate_flits=0.3, seed=1,
                       mesh_width=8, mesh_height=8, cycles=200)
        with pytest.raises(ConfigError):
            run_batch([a, b])
