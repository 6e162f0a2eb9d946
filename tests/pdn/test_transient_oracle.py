"""The lane-batched transient against the per-step LU loop it replaced.

:func:`lu_step_transient` is the single-analysis step loop that
``Circuit.transient`` ran before the step loop advanced lanes: a 1-D
state, one single-RHS ``lu.solve`` per step, the whole window's
right-hand sides and states held at once, and one trajectory guard at
the end.  It is kept here as the independent oracle.  Every check is
bit-for-bit: lanes must reproduce it exactly, whatever the batch size,
the block size, the integration method or the timestep.
"""

import numpy as np
import pytest

import repro.pdn.circuit as circuit_mod
from repro.chip.power import PowerModel
from repro.chip.technology import TECHNOLOGY_ORDER, technology
from repro.harness.errors import SolverError, SolverInputError
from repro.pdn.builder import TILE_NODES, DomainPdnBuilder
from repro.pdn.circuit import (
    DEFAULT_MAX_ABS_V,
    DEFAULT_MAX_CONDITION,
    GROUND,
    Circuit,
)
from repro.pdn.transient import (
    MIN_DT_SCALE,
    PsnTransientAnalysis,
    apply_phase_convention,
    clock_burst_scale,
)
from repro.pdn.waveforms import ActivityBin, CurrentWaveform, TileLoad


def lu_step_transient(
    circuit,
    duration,
    dt,
    method="trapezoidal",
    isource_waveforms=None,
    vsource_values=None,
    max_condition=DEFAULT_MAX_CONDITION,
    max_abs_v=DEFAULT_MAX_ABS_V,
):
    """One transient analysis by the per-step LU loop; voltages of all
    nodes, shape ``(n_steps + 1, n_nodes)``.  Raises what the solver
    raised for the same input."""
    if isource_waveforms is None:
        waveforms = [s.waveform for s in circuit._isources]
    else:
        waveforms = list(isource_waveforms)
    if vsource_values is None:
        vsrc_vals = np.array([v.volts for v in circuit._vsources])
    else:
        vsrc_vals = np.asarray(vsource_values, dtype=float)
    trap = method == "trapezoidal"

    plan = circuit._transient_plan(method, dt)
    if not np.isfinite(plan.condition_ratio) or (
        plan.condition_ratio > max_condition
    ):
        raise SolverError(
            "ill-conditioned MNA system matrix",
            condition_estimate=float(plan.condition_ratio),
            max_condition=max_condition,
            method=method,
            dt_s=dt,
        )
    n, n_l, size = plan.n, plan.n_l, plan.size
    n_steps = int(round(duration / dt))
    times = np.arange(n_steps + 1) * dt

    i_wave = np.empty((len(waveforms), n_steps + 1))
    for k, w in enumerate(waveforms):
        if callable(w):
            i_wave[k] = np.asarray(w(times), dtype=float)
        else:
            i_wave[k] = float(w)
    bad_wave = ~np.isfinite(i_wave)
    if bad_wave.any():
        k, step = (int(v) for v in np.argwhere(bad_wave)[0])
        raise SolverInputError(
            "non-finite source current waveform",
            node=circuit._isources[k].frm,
            step=step,
            time_s=float(times[step]),
            method=method,
        )

    # DC operating point at t=0, one single-RHS solve.
    rhs = np.zeros(size)
    for k, s in enumerate(circuit._isources):
        f, t = circuit._idx(s.frm), circuit._idx(s.to)
        if f is not None:
            rhs[f] -= i_wave[k, 0]
        if t is not None:
            rhs[t] += i_wave[k, 0]
    rhs[n + n_l:] = vsrc_vals
    x = circuit._dc_factor().solve(rhs)
    error = circuit._dc_error(x, n)
    if error is not None:
        raise error
    out = np.empty((n_steps + 1, n))
    out[0] = x[:n]

    cap_g, ind_r = plan.cap_g, plan.ind_r
    cap_mat, cap_diff = plan.cap_mat, plan.cap_diff
    ind_diff = plan.ind_diff
    lu = plan.lu
    n_cap = len(circuit._capacitors)

    rhs_steps = np.ascontiguousarray((plan.src_mat @ i_wave).T)
    rhs_steps[:, n + n_l:] = vsrc_vals
    cap_i = np.zeros(n_cap)
    cap_v = cap_diff @ x
    states = np.empty((n_steps + 1, size))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            rhs = rhs_steps[step]
            if n_cap:
                rhs += cap_mat @ (cap_g * cap_v + (cap_i if trap else 0.0))
            if n_l:
                rhs[n:n + n_l] = -ind_r * x[n:n + n_l] - (
                    (ind_diff @ x) if trap else 0.0
                )
            x = lu.solve(rhs)
            states[step] = x
            if n_cap:
                new_cap_v = cap_diff @ x
                if trap:
                    cap_i = cap_g * (new_cap_v - cap_v) - cap_i
                cap_v = new_cap_v

    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(states).all(axis=1)
        if n:
            bad |= (np.abs(states[:, :n]) > max_abs_v).any(axis=1)
    bad[0] = False
    if bad.any():
        step = int(np.argmax(bad))
        raise circuit._state_error(
            states[step], n, step, float(times[step]), method, max_abs_v
        )
    out[1:] = states[1:, :n]
    return out


def assert_bits_equal(actual, expected):
    """Same shape and the same IEEE bits in every element."""
    actual = np.ascontiguousarray(actual, dtype=float)
    expected = np.ascontiguousarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_same_error(actual, expected):
    assert type(actual) is type(expected)
    assert actual.message == expected.message
    assert actual.context == expected.context


def report_hex(report):
    """Every field of a DomainPsnReport, floats as ``float.hex``."""
    return (
        float(report.vdd).hex(),
        tuple(float(v).hex() for v in report.peak_psn_pct),
        tuple(float(v).hex() for v in report.avg_psn_pct),
        report.solver_method,
        float(report.solver_dt_s).hex(),
    )


def ladder_rungs(dt):
    """Both methods at every timestep of the fallback ladder."""
    dts = []
    step = dt
    while step >= dt * MIN_DT_SCALE:
        dts.append(step)
        step /= 2.0
    return [(method, d) for d in dts for method in ("trapezoidal", "backward-euler")]


def seeded_domain_lanes(tech, m, seed):
    """``m`` domain lanes with seeded tile loads and supply voltages."""
    rng = np.random.default_rng(seed)
    power = PowerModel(tech)
    lanes = []
    for _ in range(m):
        vdd = float(rng.uniform(0.4, 0.8))
        loads = []
        for _pos in TILE_NODES:
            if rng.uniform() < 0.2:
                loads.append(TileLoad.idle())
                continue
            bin_ = ActivityBin.HIGH if rng.uniform() < 0.5 else ActivityBin.LOW
            core = power.core_dynamic(rng.uniform(0.1, 0.9), vdd)
            router = power.router_dynamic(rng.uniform(0.0, 3.0), vdd)
            loads.append(
                TileLoad(
                    core + power.core_leakage(vdd),
                    router + power.router_leakage(vdd),
                    bin_,
                )
            )
        loads = apply_phase_convention(
            loads, burst_scale=clock_burst_scale(vdd, tech)
        )
        lanes.append(([CurrentWaveform(l, vdd) for l in loads], (vdd,)))
    return lanes


class TestDomainLanes:
    WINDOW_S = 4e-9
    DT_S = 50e-12

    @pytest.mark.parametrize("node", TECHNOLOGY_ORDER)
    def test_every_rung_and_batch_size_matches_oracle(self, node, monkeypatch):
        # A block size prime to the window's step counts puts block
        # boundaries mid-window on every rung.
        monkeypatch.setattr(circuit_mod, "LANE_BLOCK_STEPS", 37)
        tech = technology(node)
        circuit = DomainPdnBuilder(tech).build(1.0, [0.0] * len(TILE_NODES))
        lanes = seeded_domain_lanes(tech, 18, seed=TECHNOLOGY_ORDER.index(node))
        for method, dt in ladder_rungs(self.DT_S):
            expected = [
                lu_step_transient(
                    circuit, self.WINDOW_S, dt, method, waves, vsrc
                )
                for waves, vsrc in lanes
            ]
            for m in (1, 2, 18):
                outcomes = circuit.transient_lanes(
                    self.WINDOW_S, dt, lanes[:m], method=method
                )
                for outcome, want in zip(outcomes, expected):
                    assert_bits_equal(outcome.voltages, want)

    def test_default_blocks_with_kept_tile_nodes(self):
        tech = technology("7nm")
        circuit = DomainPdnBuilder(tech).build(1.0, [0.0] * len(TILE_NODES))
        lanes = seeded_domain_lanes(tech, 18, seed=99)
        window = 3.1 * circuit_mod.LANE_BLOCK_STEPS * self.DT_S
        assert circuit._transient_plan("trapezoidal", self.DT_S).lane_exact
        outcomes = circuit.transient_lanes(
            window, self.DT_S, lanes, nodes=TILE_NODES
        )
        columns = [circuit.node_names.index(node) for node in TILE_NODES]
        for outcome, (waves, vsrc) in zip(outcomes, lanes):
            assert list(outcome.node_order) == list(TILE_NODES)
            want = lu_step_transient(
                circuit, window, self.DT_S, "trapezoidal", waves, vsrc
            )
            assert_bits_equal(outcome.voltages, want[:, columns])


def rc_charge():
    c = Circuit()
    c.vsource("in", GROUND, 1.0)
    c.resistor("in", "out", 100.0)
    c.capacitor("out", GROUND, 1e-6)
    c.isource("out", GROUND, lambda t: np.where(t >= 0, 0.0, 0.0))
    return c, 1e-3, 1e-6


def rc_from_source():
    c = Circuit()
    c.resistor("n", GROUND, 50.0)
    c.capacitor("n", GROUND, 2e-9)
    c.isource(GROUND, "n", lambda t: np.where(t > 0, 0.01, 0.0))
    return c, 1e-6, 1e-9


def rl_rise():
    c = Circuit()
    c.vsource("in", GROUND, 1.0)
    c.resistor("in", "mid", 2.0)
    c.inductor("mid", GROUND, 1e-6)
    c.isource("mid", GROUND, lambda t: np.where(t > 0, 0.05, 0.0))
    return c, 6e-6, 5e-9


def rlc_ring():
    c = Circuit()
    c.vsource("in", GROUND, 0.8)
    c.resistor("in", "m", 0.003)
    c.inductor("m", "out", 1e-10)
    c.capacitor("out", GROUND, 1e-9)
    c.isource("out", GROUND, lambda t: np.where(t > 1e-9, 2.0, 0.0))
    return c, 80e-9, 50e-12


def divider_with_ground_alias():
    c = Circuit()
    c.vsource("a", "0", 10.0)
    c.resistor("a", "mid", 1000.0)
    c.resistor("mid", "gnd", 1000.0)
    c.capacitor("mid", "a", 1e-9)
    return c, 1e-5, 1e-7


def crowded_node():
    # Five capacitors and three current sources on node "b": their rows
    # sum more than two terms, so this netlist solves lanes one at a time.
    c = Circuit()
    c.vsource("in", GROUND, 1.0)
    c.resistor("in", "a", 0.1)
    c.inductor("a", "b", 1e-9)
    for k in range(4):
        c.capacitor("b", GROUND if k % 2 else "in", (k + 1) * 1e-9)
    c.capacitor("b", "c", 3e-9)
    c.resistor("c", GROUND, 5.0)
    for k in range(3):
        c.isource(
            "b", GROUND,
            lambda t, k=k: 0.1 * (k + 1) * (1.0 + np.sin(t * (k + 2) * 1e8)),
        )
    return c, 50e-9, 50e-12


GENERIC_NETLISTS = {
    "crowded_node": crowded_node,
    "rc_charge": rc_charge,
    "rc_from_source": rc_from_source,
    "rl_rise": rl_rise,
    "rlc_ring": rlc_ring,
    "divider_with_ground_alias": divider_with_ground_alias,
}


class TestGenericNetlists:
    @pytest.mark.parametrize("name", sorted(GENERIC_NETLISTS))
    @pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
    def test_single_solve_matches_oracle(self, name, method):
        circuit, duration, dt = GENERIC_NETLISTS[name]()
        result = circuit.transient(duration, dt, method=method)
        assert_bits_equal(
            result.voltages, lu_step_transient(circuit, duration, dt, method)
        )

    @pytest.mark.parametrize("name", sorted(GENERIC_NETLISTS))
    def test_lanes_with_overrides_match_oracle(self, name, monkeypatch):
        monkeypatch.setattr(circuit_mod, "LANE_BLOCK_STEPS", 29)
        circuit, duration, dt = GENERIC_NETLISTS[name]()
        n_src = len(circuit._isources)
        n_v = len(circuit._vsources)
        lanes = [(None, None)]
        for scale in (0.5, 1.5, 3.0):
            waves = [
                (lambda t, s=scale: s * 1e-3 * (1.0 + np.sin(t * 1e8)))
                for _ in range(n_src)
            ]
            lanes.append((waves, [scale] * n_v))
        outcomes = circuit.transient_lanes(duration, dt, lanes)
        plan = circuit._transient_plan("trapezoidal", dt)
        assert plan.lane_exact == (name != "crowded_node")
        for outcome, (waves, vsrc) in zip(outcomes, lanes):
            want = lu_step_transient(circuit, duration, dt, "trapezoidal", waves, vsrc)
            assert_bits_equal(outcome.voltages, want)


def poisoned_rc():
    c = Circuit()
    c.vsource("in", GROUND, 1.0)
    c.resistor("in", "out", 100.0)
    c.capacitor("out", GROUND, 1e-6)
    c.isource("out", GROUND, 1e-3)
    return c


class TestFailingLanes:
    def test_failures_stay_in_their_lanes(self, monkeypatch):
        monkeypatch.setattr(circuit_mod, "LANE_BLOCK_STEPS", 16)
        c = poisoned_rc()
        healthy = [lambda t: 1e-3 * (1.0 + np.cos(t * 3e4))]
        nan_late = [lambda t: np.where(t >= 0.5e-3, np.nan, 1e-3)]
        # Crosses the divergence bound about a third into the window.
        diverging = [lambda t: np.exp(t * 3.0e4)]
        lanes = [(healthy, None), (nan_late, None), (diverging, (0.5,)), (None, (2.0,))]
        outcomes = c.transient_lanes(1e-3, 1e-5, lanes)
        for outcome, (waves, vsrc) in zip(outcomes, lanes):
            try:
                want = lu_step_transient(c, 1e-3, 1e-5, "trapezoidal", waves, vsrc)
            except SolverError as exc:
                assert isinstance(outcome, SolverError)
                assert_same_error(outcome, exc)
                with pytest.raises(SolverError) as single:
                    c.transient(
                        1e-3, 1e-5, isource_waveforms=waves, vsource_values=vsrc
                    )
                assert_same_error(single.value, exc)
                continue
            assert_bits_equal(outcome.voltages, want)
        assert isinstance(outcomes[1], SolverInputError)
        assert outcomes[1].context["step"] == 50
        assert "diverged" in outcomes[2].message
        assert outcomes[2].context["step"] > 1

    def test_plan_errors_reach_every_lane(self):
        outcomes = poisoned_rc().transient_lanes(
            1e-3, 1e-5, [(None, None), (None, (3.0,))], max_condition=1.0
        )
        assert all(isinstance(o, SolverError) for o in outcomes)
        assert all("ill-conditioned" in o.message for o in outcomes)


def fig_requests(tech, count, seed):
    rng = np.random.default_rng(seed)
    power = PowerModel(tech)
    requests = []
    for _ in range(count):
        vdd = float(rng.choice([0.4, 0.5, 0.6, 0.7, 0.8]))
        loads = [
            TileLoad(
                power.core_dynamic(rng.uniform(0.1, 0.9), vdd)
                + power.core_leakage(vdd),
                power.router_dynamic(rng.uniform(0.0, 2.5), vdd)
                + power.router_leakage(vdd),
                ActivityBin.HIGH if rng.uniform() < 0.5 else ActivityBin.LOW,
            )
            for _pos in TILE_NODES
        ]
        requests.append((vdd, loads))
    return requests


class TestAnalyzeMany:
    WINDOW_S = 20e-9

    @pytest.fixture(scope="class")
    def tech(self):
        return technology("7nm")

    def test_reports_match_single_solves_and_oracle(self, tech):
        requests = fig_requests(tech, 6, seed=5)
        requests.append(requests[2])  # duplicates stay separate lanes
        batched = PsnTransientAnalysis(
            tech, window_s=self.WINDOW_S
        ).analyze_many(requests)
        single = PsnTransientAnalysis(tech, window_s=self.WINDOW_S)
        for (vdd, loads), report in zip(requests, batched):
            assert report_hex(report) == report_hex(single.analyze(vdd, loads))
        # The one-lane path against the old loop, through the reduction.
        vdd, loads = requests[0]
        circuit = DomainPdnBuilder(tech).build(1.0, [0.0] * len(TILE_NODES))
        loads = apply_phase_convention(loads, burst_scale=clock_burst_scale(vdd, tech))
        volts = lu_step_transient(
            circuit, self.WINDOW_S, 50e-12, "trapezoidal",
            [CurrentWaveform(l, vdd) for l in loads], (vdd,),
        )
        for i, node in enumerate(TILE_NODES):
            v = volts[:, circuit.node_names.index(node)]
            psn = np.clip((vdd - v) / vdd * 100.0, 0.0, None)
            assert float(np.max(psn)).hex() == float(batched[0].peak_psn_pct[i]).hex()
            assert float(np.mean(psn)).hex() == float(batched[0].avg_psn_pct[i]).hex()

    def test_one_batch_per_announcement(self, tech, monkeypatch):
        batches = []
        real = Circuit.transient_lanes

        def counting(self, duration, dt, lanes, **kwargs):
            batches.append(len(lanes))
            return real(self, duration, dt, lanes, **kwargs)

        monkeypatch.setattr(Circuit, "transient_lanes", counting)
        analysis = PsnTransientAnalysis(tech, window_s=2e-9)
        requests = fig_requests(tech, 5, seed=8)
        requests.append(requests[0])
        analysis.analyze_many(requests)
        assert batches == [6]
        analysis.analyze(*requests[1])  # unannounced: a batch of one
        assert batches == [6, 1]

    def test_failing_lanes_raise_from_their_own_call(self, tech):
        requests = fig_requests(tech, 4, seed=11)
        nan_loads = list(requests[0][1])
        nan_loads[2] = TileLoad(float("nan"), 0.01, ActivityBin.HIGH)
        huge_loads = list(requests[1][1])
        huge_loads[1] = TileLoad(1e12, 0.01, ActivityBin.LOW)
        requests.insert(1, (0.6, nan_loads))
        requests.insert(3, (0.7, huge_loads))
        analysis = PsnTransientAnalysis(tech, window_s=2e-9)
        analysis._announce(requests)
        single = PsnTransientAnalysis(tech, window_s=2e-9)
        raised = []
        for index, (vdd, loads) in enumerate(requests):
            try:
                want = single.analyze(vdd, loads)
            except SolverError as exc:
                with pytest.raises(SolverError) as got:
                    analysis.analyze(vdd, loads)
                assert_same_error(got.value, exc)
                raised.append((index, type(exc)))
                continue
            assert report_hex(analysis.analyze(vdd, loads)) == report_hex(want)
        assert raised == [(1, SolverInputError), (3, SolverError)]

    def test_failed_batch_withdraws_its_lanes(self, tech):
        requests = fig_requests(tech, 3, seed=4)
        nan_loads = [TileLoad(float("nan"), 0.0, ActivityBin.LOW)] * 4
        analysis = PsnTransientAnalysis(tech, window_s=2e-9)
        with pytest.raises(SolverInputError):
            analysis.analyze_many([requests[0], (0.5, nan_loads), requests[1]])
        assert analysis._announced == []

    def test_invalid_request_rejected_when_announced(self, tech):
        analysis = PsnTransientAnalysis(tech, window_s=2e-9)
        with pytest.raises(ValueError):
            analysis.analyze_many([(0.5, [TileLoad.idle()] * 3)])
        assert analysis._announced == []
