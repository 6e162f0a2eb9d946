"""Tests for the numerical guards of the PDN solvers.

Covers the acceptance criterion of the robustness PR: a singular or
NaN-poisoned solve surfaces as a :class:`SolverError` naming the
offending node and step (instead of a raw ``LinAlgError`` or silent
garbage), the guarded transient walks its method/timestep fallback
ladder, and the fast kernel path fails the same way as the circuit path
on the same class of poisoned input.
"""

import numpy as np
import pytest

from ac_impedance import ac_impedance
from repro.harness.errors import SolverError, SolverInputError
from repro.pdn.circuit import GROUND, Circuit
from repro.pdn.fast import FastPsnModel, _DEFAULT_PEAK
from repro.pdn.transient import MIN_DT_SCALE, guarded_transient
from repro.pdn.waveforms import ActivityBin, TileLoad


def rc_circuit():
    c = Circuit()
    c.vsource("in", GROUND, 1.0)
    c.resistor("in", "out", 100.0)
    c.capacitor("out", GROUND, 1e-6)
    return c


class TestTransientGuards:
    def test_nan_waveform_names_node_and_step(self):
        c = rc_circuit()
        # NaN appears from 0.5 ms onward on the source at node "out".
        c.isource(
            "out", GROUND,
            lambda t: np.where(t >= 0.5e-3, np.nan, 1e-3),
        )
        with pytest.raises(SolverError) as excinfo:
            c.transient(1e-3, 1e-5)
        ctx = excinfo.value.context
        assert ctx["node"] == "out"
        assert ctx["step"] == 50
        assert ctx["time_s"] == pytest.approx(0.5e-3)

    def test_inf_waveform_rejected(self):
        c = rc_circuit()
        c.isource("out", GROUND, lambda t: np.full_like(t, np.inf))
        with pytest.raises(SolverError, match="non-finite source current"):
            c.transient(1e-3, 1e-5)

    def test_singular_system_matrix(self):
        # Two parallel voltage sources forcing conflicting voltages make
        # the MNA matrix singular (duplicate source rows).
        c = Circuit()
        c.vsource("a", GROUND, 1.0)
        c.vsource("a", GROUND, 2.0)
        c.resistor("a", GROUND, 1.0)
        with pytest.raises(SolverError, match="singular MNA system"):
            c.transient(1e-6, 1e-7)

    def test_singular_dc_network(self):
        # A current source into a capacitor-only node floats at DC
        # (capacitors open), so the operating-point solve is singular.
        c = Circuit()
        c.isource(GROUND, "n", 1e-3)
        c.capacitor("n", GROUND, 1e-9)
        with pytest.raises(SolverError) as excinfo:
            c.transient(1e-6, 1e-7)
        assert excinfo.value.context.get("stage") == "dc"

    def test_condition_number_gate(self):
        with pytest.raises(SolverError, match="ill-conditioned") as excinfo:
            rc_circuit().transient(1e-3, 1e-5, max_condition=1.0)
        assert excinfo.value.context["condition_estimate"] > 1.0

    def test_divergence_gate_names_node(self):
        with pytest.raises(SolverError) as excinfo:
            rc_circuit().transient(1e-3, 1e-5, max_abs_v=1e-3)
        ctx = excinfo.value.context
        assert "diverged" in excinfo.value.message
        assert ctx["node"] in ("in", "out")
        assert ctx["step"] >= 1

    def test_healthy_solve_unaffected_by_guards(self):
        res = rc_circuit().transient(1e-3, 1e-5)
        assert np.all(np.isfinite(res.voltages))
        assert res.voltage("out")[-1] == pytest.approx(1.0, abs=1e-3)

    def test_ac_singular_matrix_classified(self):
        c = Circuit()
        c.vsource("a", GROUND, 1.0)
        c.vsource("a", GROUND, 2.0)
        c.resistor("a", GROUND, 1.0)
        with pytest.raises(SolverError) as excinfo:
            ac_impedance(c, "a", [1e6])
        assert excinfo.value.context.get("stage") == "ac"


class FakeCircuit:
    """Records (method, dt) attempts; fails until a configured rung."""

    def __init__(self, succeed_at=None):
        self.succeed_at = succeed_at
        self.attempts = []

    def transient(self, duration, dt, method="trapezoidal"):
        self.attempts.append((method, dt))
        if self.succeed_at is not None and (
            len(self.attempts) >= self.succeed_at
        ):
            return f"result-{method}-{dt:g}"
        raise SolverError(
            "fake failure", node="t03", step=len(self.attempts), time_s=1e-9
        )


class TestGuardedTransient:
    DT = 50e-12

    def test_first_rung_is_trapezoidal_at_requested_dt(self):
        fake = FakeCircuit(succeed_at=1)
        result, method, dt = guarded_transient(fake, 1e-9, self.DT)
        assert (method, dt) == ("trapezoidal", self.DT)
        assert fake.attempts == [("trapezoidal", self.DT)]
        assert result == f"result-trapezoidal-{self.DT:g}"

    def test_falls_back_to_backward_euler(self):
        fake = FakeCircuit(succeed_at=2)
        _, method, dt = guarded_transient(fake, 1e-9, self.DT)
        assert (method, dt) == ("backward-euler", self.DT)

    def test_timestep_halving_converges(self):
        fake = FakeCircuit(succeed_at=4)
        _, method, dt = guarded_transient(fake, 1e-9, self.DT)
        assert method == "backward-euler"
        assert dt == pytest.approx(self.DT / 4)
        assert [a[1] for a in fake.attempts] == [
            self.DT, self.DT, self.DT / 2, self.DT / 4
        ]

    def test_halving_respects_floor(self):
        fake = FakeCircuit(succeed_at=None)
        with pytest.raises(SolverError) as excinfo:
            guarded_transient(fake, 1e-9, self.DT, min_dt_scale=MIN_DT_SCALE)
        # Ladder: trap@dt, BE@dt, BE@dt/2, BE@dt/4, BE@dt/8 (= floor).
        assert len(fake.attempts) == 5
        assert min(a[1] for a in fake.attempts) == pytest.approx(
            self.DT * MIN_DT_SCALE
        )
        ctx = excinfo.value.context
        assert len(ctx["attempts"]) == 5
        assert ctx["node"] == "t03"

    def test_invalid_floor_rejected(self):
        with pytest.raises(ValueError):
            guarded_transient(FakeCircuit(1), 1e-9, self.DT, min_dt_scale=0.0)

    def test_input_error_short_circuits_the_ladder(self):
        # Bad input data cannot be fixed by a method or timestep
        # change: the ladder must stop after the first rung instead of
        # burning four more full transient solves.
        class PoisonedCircuit(FakeCircuit):
            def transient(self, duration, dt, method="trapezoidal"):
                self.attempts.append((method, dt))
                raise SolverInputError(
                    "non-finite source current waveform", node="t00", step=0
                )

        poisoned = PoisonedCircuit()
        with pytest.raises(SolverInputError) as excinfo:
            guarded_transient(poisoned, 1e-9, self.DT)
        assert poisoned.attempts == [("trapezoidal", self.DT)]
        # The original error propagates as-is, node context intact.
        assert excinfo.value.context["node"] == "t00"

    def test_input_error_short_circuits_on_real_circuit(self):
        c = rc_circuit()
        c.isource("out", GROUND, lambda t: np.full_like(t, np.inf))
        with pytest.raises(SolverInputError):
            guarded_transient(c, 1e-3, 1e-5)


class TestFastCircuitParity:
    """The fast kernel path and the circuit path fail alike on poison."""

    def test_kernel_rejects_nan_vdd(self):
        kernel = _DEFAULT_PEAK.kernel_for(0.5)
        # Classified as an input error (same class as the circuit
        # path's waveform pre-check) so retry ladders skip it.
        with pytest.raises(
            SolverInputError, match="non-finite supply voltage"
        ):
            kernel.evaluate(float("nan"), [None] * 4)

    def test_kernel_rejects_nan_tile_power(self):
        kernel = _DEFAULT_PEAK.kernel_for(0.5)
        loads = [TileLoad(float("nan"), 0.05, ActivityBin.HIGH)] + [None] * 3
        with pytest.raises(SolverInputError) as excinfo:
            kernel.evaluate(0.5, loads)
        assert excinfo.value.context["tile"] == 0

    def test_model_propagates_kernel_guard(self):
        with pytest.raises(SolverError):
            FastPsnModel().domain_psn(float("nan"), [None] * 4)

    def test_circuit_path_rejects_nan_current_too(self):
        # Same poison class on the SPICE-level path: a NaN current
        # waveform raises SolverError instead of silently producing
        # NaN voltages.
        c = rc_circuit()
        c.isource("out", GROUND, lambda t: np.full_like(t, np.nan))
        with pytest.raises(SolverError):
            c.transient(1e-3, 1e-5)

    def test_both_paths_healthy_on_valid_input(self):
        loads = [TileLoad(0.4, 0.05, ActivityBin.HIGH)] + [None] * 3
        peak, avg = FastPsnModel().domain_psn(0.5, loads)
        assert np.all(np.isfinite(peak)) and np.all(np.isfinite(avg))
