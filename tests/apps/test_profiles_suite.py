"""Tests for profile building and the benchmark suite."""

import pytest

from repro.apps.performance import PerformanceModel
from repro.apps.profiles import (
    FLIT_PAYLOAD_BYTES,
    SUPPORTED_DOPS,
    AppKind,
    BenchmarkSpec,
    OperatingPoint,
    build_profile,
)
from repro.apps.suite import (
    BENCHMARKS,
    COMMUNICATION_BENCHMARKS,
    COMPUTE_BENCHMARKS,
    ProfileLibrary,
    benchmark,
)
from repro.chip.power import PowerModel
from repro.chip.technology import TECHNOLOGY_ORDER, technology
from repro.sched.edf import edf_schedule


@pytest.fixture(scope="module")
def library():
    return ProfileLibrary()


@pytest.fixture(scope="module")
def fft(library):
    return library.get("fft")


class TestSuite:
    def test_thirteen_benchmarks(self):
        assert len(BENCHMARKS) == 13

    def test_paper_group_membership(self):
        assert set(COMMUNICATION_BENCHMARKS) == {
            "cholesky", "fft", "radix", "raytrace", "dedup", "canneal", "vips",
        }
        assert set(COMPUTE_BENCHMARKS) == {
            "swaptions", "fluidanimate", "streamcluster", "blackscholes",
            "radix", "bodytrack", "radiosity",
        }

    def test_radix_in_both_groups(self):
        assert "radix" in COMMUNICATION_BENCHMARKS
        assert "radix" in COMPUTE_BENCHMARKS

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="nginx"):
            benchmark("nginx")

    def test_comm_benchmarks_have_larger_volumes(self):
        comm_lo = min(BENCHMARKS[n].total_comm_mb for n in COMMUNICATION_BENCHMARKS)
        comp_hi = max(
            BENCHMARKS[n].total_comm_mb
            for n in COMPUTE_BENCHMARKS
            if n != "radix"
        )
        assert comm_lo > 10 * comp_hi

    def test_library_caches(self, library):
        assert library.get("fft") is library.get("fft")
        assert "fft" in library
        assert "nginx" not in library


class TestSpecValidation:
    def _kwargs(self, **over):
        base = dict(
            name="x",
            kind=AppKind.COMPUTE,
            work_gcycles=1.0,
            serial_fraction=0.05,
            high_fraction=0.5,
            total_comm_mb=100.0,
            seed=1,
        )
        base.update(over)
        return base

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(**self._kwargs(work_gcycles=0.0))
        with pytest.raises(ValueError):
            BenchmarkSpec(**self._kwargs(serial_fraction=1.0))
        with pytest.raises(ValueError):
            BenchmarkSpec(**self._kwargs(high_fraction=-0.1))
        with pytest.raises(ValueError):
            BenchmarkSpec(**self._kwargs(total_comm_mb=0.0))


class TestProfile:
    def test_operating_point_grid(self, fft):
        assert fft.supported_dops == SUPPORTED_DOPS
        assert fft.supported_vdds == (0.4, 0.5, 0.6, 0.7, 0.8)

    def test_graph_size_equals_dop(self, fft):
        for dop in (4, 16, 32):
            assert fft.graph(dop).task_count == dop

    def test_graph_respects_high_fraction(self, fft):
        g = fft.graph(32)
        expected = round(BENCHMARKS["fft"].high_fraction * 32)
        assert len(g.high_tasks()) == expected

    def test_wcet_monotone_in_vdd(self, fft):
        for dop in (8, 32):
            wcets = [fft.wcet_s(v, dop) for v in (0.4, 0.6, 0.8)]
            assert wcets == sorted(wcets, reverse=True)

    def test_wcet_improves_with_dop(self, fft):
        assert fft.wcet_s(0.6, 32) < fft.wcet_s(0.6, 8)

    def test_power_grows_with_vdd_and_dop(self, fft):
        assert fft.power_w(0.8, 16) > fft.power_w(0.4, 16)
        assert fft.power_w(0.6, 32) > fft.power_w(0.6, 8)

    def test_unknown_points_raise(self, fft):
        with pytest.raises(KeyError):
            fft.graph(6)
        with pytest.raises(KeyError):
            fft.point(0.45, 8)

    @pytest.mark.parametrize("node", TECHNOLOGY_ORDER)
    def test_best_wcet_is_fastest_dop_at_top_vdd(self, node):
        library = ProfileLibrary(tech=technology(node))
        for name in BENCHMARKS:
            profile = library.get(name)
            top = max(profile.supported_vdds)
            assert profile.best_wcet_s == min(
                profile.wcet_s(top, dop) for dop in profile.supported_dops
            ), (node, name)

    def test_deterministic_rebuild(self):
        a = build_profile(benchmark("fft"), dops=(8,), vdds=(0.6,))
        b = build_profile(benchmark("fft"), dops=(8,), vdds=(0.6,))
        assert a.wcet_s(0.6, 8) == b.wcet_s(0.6, 8)
        assert a.power_w(0.6, 8) == b.power_w(0.6, 8)

    def test_invalid_dops_rejected(self):
        with pytest.raises(ValueError, match="multiples of 4"):
            build_profile(benchmark("fft"), dops=(6,))

    def test_serial_work_on_source(self, fft):
        g = fft.graph(16)
        source = g.sources()[0]
        others = [t.work_cycles for t in g.tasks() if t.task_id != source]
        assert g.task(source).work_cycles > max(others)

    def test_dark_silicon_infeasible_at_max_everything(self, library):
        """A single 32-thread app at 0.8 V must break the 65 W budget -
        otherwise the paper's premise (HM cannot fit everything at high
        Vdd) would not bind."""
        p = library.get("swaptions")
        assert p.power_w(0.8, 32) > 65.0
        assert p.power_w(0.4, 32) < 65.0


def former_point(graph, vdd, dop, performance):
    """One operating point by the former per-call formulas: every task
    and edge time through the model's per-call methods, and each task's
    bytes summed by rescanning every edge."""
    power_model = performance.power_model
    wcet = edf_schedule(
        graph,
        core_count=max(1, graph.task_count),
        task_time=lambda t: performance.task_time_s(graph, t, vdd),
        comm_delay=lambda s, d: performance.comm_delay_s(graph, s, d, vdd),
    ).makespan
    cycles = wcet * power_model.frequency(vdd)
    total_power = 0.0
    total_flits = 0.0
    for task in graph.tasks():
        bytes_at_task = sum(
            v for s, d, v in graph.edges() if s == task.task_id or d == task.task_id
        )
        flits = (
            (bytes_at_task / FLIT_PAYLOAD_BYTES) * performance.default_hops / cycles
            if cycles > 0
            else 0.0
        )
        tile = power_model.tile_power(task.activity_factor, flits, vdd)
        total_power += tile.total
        total_flits += flits
    return OperatingPoint(
        vdd=vdd,
        dop=dop,
        wcet_s=wcet,
        power_w=total_power,
        avg_router_flits_per_cycle=total_flits / dop,
    )


def test_points_equal_former_formulas(library):
    performance = PerformanceModel(PowerModel(technology("7nm")))
    checked = 0
    for name in BENCHMARKS:
        profile = library.get(name)
        for dop in profile.supported_dops:
            graph = profile.graph(dop)
            for vdd in profile.supported_vdds:
                expected = former_point(graph, vdd, dop, performance)
                assert profile.point(vdd, dop) == expected, (name, vdd, dop)
                checked += 1
    assert checked == 13 * 40
