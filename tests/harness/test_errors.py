"""Tests for the structured exception taxonomy."""

import json

import pytest

from repro.harness.errors import (
    CheckpointCorrupt,
    ConfigError,
    ReproError,
    SimTimeout,
    SolverError,
    SolverInputError,
    jsonable_context,
)


class TestTaxonomy:
    def test_subclasses_share_one_root(self):
        for cls in (ConfigError, SolverError, SimTimeout, CheckpointCorrupt):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, Exception)

    def test_input_error_is_a_solver_error(self):
        # Handlers that catch SolverError keep catching input errors;
        # only the fallback ladder distinguishes the two.
        assert issubclass(SolverInputError, SolverError)
        with pytest.raises(SolverError):
            raise SolverInputError("poisoned waveform", node="t00")

    def test_message_without_context(self):
        err = ReproError("it broke")
        assert str(err) == "it broke"
        assert err.context == {}

    def test_context_is_sorted_by_key(self):
        err = SolverError("bad node", step=7, node="t00", dt_s=5e-11)
        assert list(err.context) == ["dt_s", "node", "step"]
        assert "node='t00'" in str(err)
        assert "step=7" in str(err)

    def test_catchable_as_root(self):
        with pytest.raises(ReproError):
            raise SimTimeout("too slow", deadline_s=1.0)

    def test_to_json_is_serialisable(self):
        err = ConfigError("bad seeds", framework="PARM+PANR", seeds=(1, 2))
        record = err.to_json()
        assert record["type"] == "ConfigError"
        assert record["message"] == "bad seeds"
        # Tuples are repr()-ed into strings so the record always dumps.
        text = json.dumps(record)
        assert "PARM+PANR" in text


class TestJsonableContext:
    def test_scalars_pass_through(self):
        ctx = jsonable_context(
            {"a": 1, "b": 2.5, "c": "x", "d": True, "e": None}
        )
        assert ctx == {"a": 1, "b": 2.5, "c": "x", "d": True, "e": None}

    def test_non_scalars_become_repr(self):
        ctx = jsonable_context({"seeds": (1, 2, 3)})
        assert ctx["seeds"] == repr((1, 2, 3))

    def test_keys_sorted(self):
        ctx = jsonable_context({"z": 1, "a": 2})
        assert list(ctx) == ["a", "z"]

    def test_non_finite_floats_become_repr(self):
        # The solver guards put NaN/inf into context by construction
        # (non-finite currents, vdd, condition estimates); checkpoints
        # are digested with allow_nan=False, so raw NaN/inf here would
        # crash the checkpoint commit and lose the salvage table.
        ctx = jsonable_context(
            {
                "core_current_a": float("nan"),
                "vdd": float("inf"),
                "headroom": float("-inf"),
                "fine": 1.5,
            }
        )
        assert ctx["core_current_a"] == "nan"
        assert ctx["vdd"] == "inf"
        assert ctx["headroom"] == "-inf"
        assert ctx["fine"] == 1.5
        # Must survive strict serialisation end to end.
        json.dumps(ctx, allow_nan=False)

    def test_non_finite_error_record_is_strictly_serialisable(self):
        err = SolverError(
            "non-finite tile current",
            core_current_a=float("nan"),
            vdd=float("inf"),
            tile=2,
        )
        json.dumps(err.to_json(), allow_nan=False)
