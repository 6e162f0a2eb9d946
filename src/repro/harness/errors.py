"""The structured exception taxonomy of the reproduction stack.

Long multi-seed campaigns die ugly deaths when a near-singular MNA
matrix surfaces as a raw ``LinAlgError`` three layers up, or a hung
transient solve blocks a sweep forever.  Every failure mode the stack
can produce is therefore classified under one root:

* :class:`ReproError`       - base class; carries a message plus a
  sorted ``context`` mapping (framework, workload, seed, node, step...)
  so a failure record is machine-readable provenance, not prose;
* :class:`ConfigError`      - invalid experiment inputs (empty seed
  list, non-positive ``n_apps``...), raised before any work starts;
* :class:`SolverError`      - a numerical failure inside a PDN solve:
  singular or ill-conditioned MNA system, NaN/inf currents or node
  voltages, divergence; context names the offending node and step;
* :class:`SolverInputError` - a :class:`SolverError` subclass for bad
  *input data* (non-finite source waveform, supply voltage, tile
  current); no integration-method or timestep change can fix these, so
  retry ladders re-raise them immediately;
* :class:`SimTimeout`       - a supervised cell exceeded its deadline
  watchdog;
* :class:`WorkerCrash`      - a parallel-map task failed: either the
  task callable raised inside its worker, or the worker process died
  outright (OOM kill, segfault -> ``BrokenProcessPool``); context names
  the task index and repr so the failing input is identifiable;
* :class:`CheckpointCorrupt` - a campaign checkpoint failed its schema,
  version, or content-digest validation on load.

The parmlint ``broad-except`` rule (see ``docs/lint.md``) enforces that
``except Exception`` handlers in this repository re-raise one of these
types, so the taxonomy stays load-bearing rather than decorative.
"""

from __future__ import annotations

import math
from typing import Any, Dict


def jsonable_context(context: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce a context mapping into JSON-serialisable values.

    Ints, finite floats, bools, strings and ``None`` pass through;
    everything else (enum members, tuples, numpy scalars...) is
    ``repr()``-ed so a failure record can always be checkpointed.
    Non-finite floats become their repr (``'nan'``, ``'inf'``,
    ``'-inf'``): checkpoints are digested with ``allow_nan=False``, and
    the solver guards put NaN/inf into context by construction - the
    one failure mode a failure record must survive.
    """
    out: Dict[str, Any] = {}
    for key in sorted(context):
        value = context[key]
        if isinstance(value, bool) or value is None:
            out[key] = value
        elif isinstance(value, float) and not math.isfinite(value):
            out[key] = repr(value)
        elif isinstance(value, (int, float, str)):
            out[key] = value
        else:
            out[key] = repr(value)
    return out


class ReproError(Exception):
    """Base class of every classified failure in the stack.

    Args:
        message: Human-readable description (no context baked in).
        **context: Structured provenance - framework, workload, seed,
            node, step, path... - kept sorted by key so renderings and
            serialisations are deterministic.
    """

    def __init__(self, message: str, **context: Any) -> None:
        super().__init__(message)
        self.message = message
        self.context: Dict[str, Any] = {
            key: context[key] for key in sorted(context)
        }

    def __str__(self) -> str:
        if not self.context:
            return self.message
        detail = ", ".join(
            f"{key}={value!r}" for key, value in self.context.items()
        )
        return f"{self.message} [{detail}]"

    def to_json(self) -> Dict[str, Any]:
        """Serialisable failure record (used in checkpoints/reports)."""
        return {
            "type": type(self).__name__,
            "message": self.message,
            "context": jsonable_context(self.context),
        }


class ConfigError(ReproError):
    """Invalid experiment configuration, detected before any work runs."""


class SolverError(ReproError):
    """A numerical failure inside a PDN solve.

    Context conventionally carries ``node`` (offending circuit node, or
    ``branch[k]`` for an MNA branch unknown), ``step`` (timestep index),
    ``method`` and ``dt_s`` so the failure is actionable without a
    debugger.
    """


class SolverInputError(SolverError):
    """A solver failure caused by bad input data, not numerics.

    A non-finite source waveform, supply voltage or tile current cannot
    be fixed by switching integration method or halving the timestep,
    so :func:`repro.pdn.transient.guarded_transient` re-raises this
    type immediately instead of walking its escalation ladder.
    """


class SimTimeout(ReproError):
    """A supervised cell exceeded its wall-clock deadline watchdog."""


class WorkerCrash(ReproError):
    """A parallel-map task failed in (or took down) its worker process.

    Raised by :func:`repro.perf.parallel.map_tasks` (and so by
    ``run_cells``) once a task has used up its attempts, for both
    failure modes: the task callable raising any non-taxonomy
    exception, and the worker process dying before returning a result
    (an OOM kill or hard crash surfaces as ``BrokenProcessPool``).
    Context carries ``task_index`` and ``task`` (repr) so the offending
    input can be replayed, ``attempts`` (how many it used), and
    ``error_type``/``error`` with the last underlying cause.  Taxonomy
    errors (:class:`ReproError` subclasses) raised by the task itself
    propagate unchanged - they already carry provenance.
    """


class CheckpointCorrupt(ReproError):
    """A checkpoint payload failed schema/version/digest validation."""
