"""Fig. 1's technology-node PDNs solved as blocks of one netlist.

:func:`repro.pdn.transient.analyze_nodes` solves analyses of different
analysers as one lane of the disjoint union of their domain circuits.
That is bit-identical to each analyser's own solve only because
SuperLU factorises the union as the blocks side by side; these checks
pin that, the reports it yields, and the fallback to each analyser's
own solve.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.pdn.circuit as circuit_mod
from repro.chip.technology import TECHNOLOGY_ORDER, technology
from repro.exp import figures
from repro.harness.errors import SolverError, SolverInputError
from repro.pdn.builder import TILE_NODES, DomainPdnBuilder
from repro.pdn.circuit import Circuit, union_node
from repro.pdn.transient import PsnTransientAnalysis, analyze_nodes
from repro.pdn.waveforms import ActivityBin, TileLoad

WINDOW_S = 20e-9
DT_S = 50e-12


def report_bytes(report):
    return (
        report.peak_psn_pct.tobytes(),
        report.avg_psn_pct.tobytes(),
        report.solver_method,
        float(report.solver_dt_s).hex(),
    )


def domain_blocks():
    return [
        DomainPdnBuilder(technology(name)).build(1.0, [0.0] * len(TILE_NODES))
        for name in TECHNOLOGY_ORDER
    ]


def outcome(call, *args):
    """A call's report bytes, or its error's type, message and context."""
    try:
        return report_bytes(call(*args))
    except SolverError as exc:
        return type(exc), exc.message, exc.context


class TestUnionFactorisation:
    @pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
    def test_factors_are_the_blocks_side_by_side(self, method):
        blocks = domain_blocks()
        union = Circuit.union(blocks)
        factors = [
            (
                union._transient_plan(method, DT_S).lu,
                [b._transient_plan(method, DT_S).lu for b in blocks],
            ),
            (union._dc_factor(), [b._dc_factor() for b in blocks]),
        ]
        names = union.node_names
        n, n_l = len(names), sum(len(b._inductors) for b in blocks)
        for whole, parts in factors:
            offset = ind_at = 0
            for k, (block, part) in enumerate(zip(blocks, parts)):
                b_l = len(block._inductors)
                where = np.array(
                    [names.index(union_node(k, node)) for node in block.node_names]
                    + [n + ind_at + i for i in range(b_l)]
                    + [n + n_l + k]
                )
                size = len(where)
                assert (whole.perm_r[where] == part.perm_r + offset).all()
                assert (whole.perm_c[where] == part.perm_c + offset).all()
                for factor in ("L", "U"):
                    mine = sp.csc_matrix(getattr(whole, factor))[
                        offset:offset + size, offset:offset + size
                    ]
                    theirs = sp.csc_matrix(getattr(part, factor))
                    assert mine.nnz == theirs.nnz
                    assert mine.toarray().tobytes() == theirs.toarray().tobytes()
                offset += size
                ind_at += b_l
            for factor in ("L", "U"):
                assert getattr(whole, factor).nnz == sum(
                    getattr(part, factor).nnz for part in parts
                )
        assert union.solves_as_blocks(blocks, method, DT_S)

    def test_union_keeps_names_order_and_sources(self):
        blocks = domain_blocks()[:2]
        union = Circuit.union(blocks)
        assert union.node_names == [
            union_node(k, node)
            for k, block in enumerate(blocks)
            for node in block.node_names
        ]
        assert len(union._vsources) == len(blocks)
        assert len(union._isources) == sum(len(b._isources) for b in blocks)

    def test_an_ill_conditioned_block_refuses_the_union(self, monkeypatch):
        blocks = domain_blocks()
        union = Circuit.union(blocks)
        monkeypatch.setattr(circuit_mod, "DEFAULT_MAX_CONDITION", 1.0)
        assert not union.solves_as_blocks(blocks, "trapezoidal", DT_S)


class TestAnalyzeNodes:
    def test_reports_equal_lone_analyses(self):
        union_reports = analyze_nodes(figures.fig1_requests(WINDOW_S, DT_S))
        for (analysis, vdd, loads), report in zip(
            figures.fig1_requests(WINDOW_S, DT_S), union_reports
        ):
            assert report_bytes(report) == report_bytes(analysis.analyze(vdd, loads))

    def test_one_union_lane_for_all_nodes(self, monkeypatch):
        batches = []
        real = Circuit.transient_lanes

        def counting(self, duration, dt, lanes, **kwargs):
            batches.append((len(self.node_names), len(lanes)))
            return real(self, duration, dt, lanes, **kwargs)

        monkeypatch.setattr(Circuit, "transient_lanes", counting)
        requests = figures.fig1_requests(WINDOW_S, DT_S)
        analyze_nodes(requests)
        block_nodes = len(requests[0][0]._domain_circuit().node_names)
        assert batches == [(block_nodes * len(requests), 1)]
        assert all(analysis._announced == [] for analysis, _, _ in requests)

    @pytest.mark.parametrize(
        "bad_load, error",
        [
            (TileLoad(float("nan"), 0.01, ActivityBin.HIGH), SolverInputError),
            (TileLoad(1e12, 0.01, ActivityBin.LOW), SolverError),
        ],
    )
    def test_failing_block_raises_from_its_own_call(
        self, monkeypatch, bad_load, error
    ):
        requests = figures.fig1_requests(WINDOW_S, DT_S)
        analysis, vdd, loads = requests[2]
        loads = list(loads)
        loads[1] = bad_load
        requests[2] = (analysis, vdd, loads)
        lone = [
            outcome(PsnTransientAnalysis(a.tech, WINDOW_S, DT_S).analyze, v, l)
            for a, v, l in requests
        ]
        assert [o[0] for o in lone if len(o) == 3] == [error]

        # Record each call's own outcome instead of stopping at the
        # first raise, so every block's result can be compared.
        seen = []
        real = PsnTransientAnalysis.analyze

        def recording(self, vdd, loads, apply_convention=True):
            seen.append(outcome(real, self, vdd, loads))

        monkeypatch.setattr(PsnTransientAnalysis, "analyze", recording)
        analyze_nodes(requests)
        assert seen == lone
        # The error names the block's own node, not its union name.
        assert "/" not in seen[2][2]["node"]

    def test_failed_factorisation_check_falls_back(self, monkeypatch):
        want = figures.fig1()
        monkeypatch.setattr(
            Circuit, "solves_as_blocks", lambda self, *args, **kwargs: False
        )
        assert figures.fig1() == want

    def test_mixed_windows_solve_per_analyser(self):
        requests = figures.fig1_requests(WINDOW_S, DT_S)[:2]
        analysis, vdd, loads = requests[1]
        longer = PsnTransientAnalysis(analysis.tech, 2 * WINDOW_S, DT_S)
        requests[1] = (longer, vdd, loads)
        reports = analyze_nodes(requests)
        for (a, v, l), report in zip(requests, reports):
            lone = PsnTransientAnalysis(a.tech, a._window_s, a._dt_s)
            assert report_bytes(report) == report_bytes(lone.analyze(v, l))

    def test_invalid_request_announces_nothing(self):
        requests = figures.fig1_requests(WINDOW_S, DT_S)[:3]
        analysis, vdd, _ = requests[2]
        requests[2] = (analysis, vdd, [TileLoad.idle()] * 3)
        with pytest.raises(ValueError):
            analyze_nodes(requests)
        assert all(a._announced == [] for a, _, _ in requests)

    def test_fig1_makes_six_analyze_calls(self, monkeypatch):
        # perfbench pins 107 traced analyze calls for the psn workload.
        calls = []
        real = PsnTransientAnalysis.analyze

        def counting(self, *args, **kwargs):
            calls.append(self.tech.name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PsnTransientAnalysis, "analyze", counting)
        rows = figures.fig1(window_s=WINDOW_S)
        assert calls == list(TECHNOLOGY_ORDER)
        assert [row.node for row in rows] == list(TECHNOLOGY_ORDER)

