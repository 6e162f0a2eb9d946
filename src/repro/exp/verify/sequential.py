"""Stop-when-confident sequential estimation over supervised replicas.

The :class:`SequentialEstimator` draws seeded replicas of an estimand
in batches, recomputes the confidence interval after each batch, and
stops as soon as the interval half-width reaches the target at the
requested confidence - or when a hard replica budget runs out.  The
loop is deterministic end to end:

* replica ``i`` always gets the seed
  ``derive_seed(root, "verify/<name>/replica", i)`` - batch-size
  invariant, so resuming with any batch size re-derives exactly the
  seeds already run;
* each replica is a :class:`ReplicaCell` - a
  :class:`~repro.harness.supervisor.SupervisedCell` - so batches ride
  the existing :class:`~repro.harness.supervisor.CampaignSupervisor`
  machinery verbatim: content-hashed identity, checksummed atomic
  checkpoints, retry/watchdog taxonomy, process-pool fan-out.  All
  batches share one in-memory cell map of one checkpoint file (read
  once, on resume; each commit rewrites the whole map), so a SIGKILL at
  any instant loses at most the replicas in flight and a resumed
  invocation emits byte-identical JSON;
* the result serialisation carries no wall-clock data.

A note on the stopping rule: stopping when a *random* interval first
becomes narrow is not the same guarantee as a fixed-``n`` interval
(optional stopping inflates error slightly).  The rule here is the
standard SMC practice - the half-width criterion plus a
``min_replicas`` floor so a lucky early batch cannot stop the run -
and the empirical-coverage test in ``tests/exp/test_verify_intervals.py``
checks the realised coverage stays near nominal.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exp.verify.estimands import (
    KIND_MEAN,
    KIND_PROBABILITY,
    KIND_QUANTILE,
    estimand_from_spec,
)
from repro.exp.verify.intervals import (
    Interval,
    clopper_pearson,
    dkw_quantile,
    hoeffding,
    wilson,
)
from repro.harness.errors import ConfigError, ReproError
from repro.harness.seeding import derive_seeds
from repro.harness.supervisor import (
    CampaignSupervisor,
    CellExecutor,
    CellOutcome,
    SupervisorPolicy,
    campaign_checkpoint,
)
from repro.runtime.checkpoint import CellCheckpoint

#: Schema tag hashed into replica-cell keys (distinct from campaign
#: cells so the two can never collide in a shared checkpoint).
REPLICA_SCHEMA = "parm-verify-replica"

#: Schema/version of the verification result JSON.
VERIFY_SCHEMA = "parm-verify"
VERIFY_VERSION = 1

#: Interval methods per estimand kind (first entry is the default).
_METHODS = {
    KIND_PROBABILITY: ("wilson", "clopper-pearson"),
    KIND_MEAN: ("hoeffding",),
    KIND_QUANTILE: ("dkw",),
}


def canonical_spec_json(spec: Dict[str, Any]) -> str:
    """Canonical encoding of an estimand spec (cell identity input)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ReplicaCell:
    """One replica draw as a supervised campaign cell.

    Attributes:
        estimand_json: Canonical JSON spec of the estimand (a string so
            the cell stays hashable and byte-stable).
        index: Replica index within the estimand's seed stream.
        seed: The derived 64-bit replica seed (recorded explicitly so a
            checkpoint is self-describing).
    """

    estimand_json: str
    index: int
    seed: int

    def validate(self) -> None:
        """Raise :class:`ConfigError` unless the replica can run."""
        estimand_from_spec(json.loads(self.estimand_json))
        if self.index < 0:
            raise ConfigError(
                "replica index must be non-negative", index=self.index
            )

    def spec(self) -> Dict[str, Any]:
        """Canonical JSON spec (the input to the content hash)."""
        return {
            "estimand": json.loads(self.estimand_json),
            "index": int(self.index),
            "seed": int(self.seed),
        }

    @property
    def key(self) -> str:
        """Content-hashed replica identity (stable across processes)."""
        canonical = json.dumps(
            {"schema": REPLICA_SCHEMA, "spec": self.spec()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @property
    def label(self) -> str:
        name = json.loads(self.estimand_json).get("estimand", "?")
        return f"verify/{name}#{self.index}"


#: Per-process estimand cache: spawned workers rebuild the estimand
#: once from its spec and reuse it (and its cached model state) for
#: every replica they receive.
_ESTIMAND_CACHE: Dict[str, Any] = {}

#: In-process batch-sample cache, keyed by ``(estimand_json, seed)``.
#: Filled only by :meth:`SequentialEstimator._prime_batch` in the
#: serial no-checkpoint path, where every cell is guaranteed to run in
#: this process: estimands with a ``sample_batch`` fast path (e.g. the
#: batched NoC engine behind :class:`PacketLatencyEstimand`) compute a
#: whole batch's values in one pass and the per-cell runner just looks
#: them up.  The cached values are pinned byte-identical to
#: ``sample(seed)``, so cells hitting or missing the cache cannot
#: diverge.  Never written from worker processes.
_BATCH_VALUE_CACHE: Dict[Tuple[str, int], float] = {}


def run_replica_cell(cell: ReplicaCell) -> Dict[str, Any]:
    """Module-level cell runner: one ``estimand.sample(seed)`` call."""
    primed = _BATCH_VALUE_CACHE.get((cell.estimand_json, cell.seed))
    if primed is not None:
        return {
            "index": int(cell.index),
            "seed": int(cell.seed),
            "value": float(primed),
        }
    estimand = _ESTIMAND_CACHE.get(cell.estimand_json)
    if estimand is None:
        estimand = estimand_from_spec(json.loads(cell.estimand_json))
        # Deterministic per-process memo: the cached value is a pure
        # function of the cell's spec JSON (content-hashed into the
        # cell key), so every worker computes the identical entry and
        # results cannot depend on which worker ran which replica.
        # parmlint: ok[worker-safety] - deterministic per-process memo
        _ESTIMAND_CACHE[cell.estimand_json] = estimand
    return {
        "index": int(cell.index),
        "seed": int(cell.seed),
        "value": float(estimand.sample(cell.seed)),
    }


@dataclass(frozen=True)
class StopRule:
    """When the sequential loop may stop.

    Attributes:
        confidence: Two-sided confidence level of the interval.
        half_width: Target interval half-width (probability/mean units,
            or latency cycles for quantile estimands).
        budget: Hard replica cap; the loop never draws more.
        batch_size: Replicas per supervised batch.
        min_replicas: Floor before the half-width criterion may fire,
            so a lucky first batch cannot end the run.
    """

    confidence: float = 0.95
    half_width: float = 0.02
    budget: int = 4096
    batch_size: int = 64
    min_replicas: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(
                "confidence must lie strictly inside (0, 1)",
                confidence=self.confidence,
            )
        if self.half_width <= 0:
            raise ConfigError(
                "half_width must be positive", half_width=self.half_width
            )
        if self.budget < 1 or self.batch_size < 1 or self.min_replicas < 1:
            raise ConfigError(
                "budget, batch_size and min_replicas must be positive",
                budget=self.budget,
                batch_size=self.batch_size,
                min_replicas=self.min_replicas,
            )

    def to_json(self) -> Dict[str, Any]:
        return {
            "confidence": float(self.confidence),
            "half_width": float(self.half_width),
            "budget": int(self.budget),
            "batch_size": int(self.batch_size),
            "min_replicas": int(self.min_replicas),
        }


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one sequential estimation run.

    ``to_json`` is deterministic (sorted keys, no wall clock), so an
    interrupted-and-resumed run serialises byte-identically to an
    uninterrupted one.
    """

    estimand_spec: Dict[str, Any]
    method: str
    rule: StopRule
    root_seed: int
    interval: Interval
    n_replicas: int
    batches: int
    stopped_early: bool
    values_mean: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": VERIFY_SCHEMA,
            "version": VERIFY_VERSION,
            "estimand": self.estimand_spec,
            "method": self.method,
            "rule": self.rule.to_json(),
            "root_seed": int(self.root_seed),
            "interval": self.interval.to_json(),
            "n_replicas": int(self.n_replicas),
            "batches": int(self.batches),
            "stopped_early": bool(self.stopped_early),
            "values_mean": float(self.values_mean),
        }

    def json_str(self) -> str:
        """Canonical serialisation (byte-stable across resumes)."""
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


class SequentialEstimator:
    """Draws replicas in supervised batches until confident.

    Args:
        estimand: Any estimand adapter (see
            :mod:`repro.exp.verify.estimands`) - must expose ``name``,
            ``kind``, ``spec()`` and ``sample(seed)``.
        rule: Stop rule (confidence, target half-width, budget).
        root_seed: Root of the replica seed stream.
        method: Interval estimator; ``None`` picks the kind's default
            (Wilson for probabilities, Hoeffding for bounded means, DKW
            for quantiles).
        checkpoint_path: Optional crash-safe checkpoint shared by all
            batches.  ``None`` runs without persistence.
        workers: Process-pool width for each batch (``1`` = serial).
        policy: Retry/watchdog policy for replica cells.
    """

    def __init__(
        self,
        estimand: Any,
        rule: Optional[StopRule] = None,
        root_seed: int = 0,
        method: Optional[str] = None,
        checkpoint_path: Optional[str] = None,
        workers: int = 1,
        policy: Optional[SupervisorPolicy] = None,
    ) -> None:
        self._estimand = estimand
        self._rule = rule or StopRule()
        self._root_seed = int(root_seed)
        kind = estimand.kind
        allowed = _METHODS.get(kind)
        if allowed is None:
            raise ConfigError("unknown estimand kind", kind=kind)
        self._method = method or allowed[0]
        if self._method not in allowed:
            raise ConfigError(
                "interval method incompatible with estimand kind",
                method=self._method,
                kind=kind,
                allowed=allowed,
            )
        self._checkpoint_path = checkpoint_path
        self._workers = int(workers)
        self._policy = policy or SupervisorPolicy()
        self._spec = estimand.spec()
        self._spec_json = canonical_spec_json(self._spec)
        self._label = f"verify/{estimand.name}/replica"

    # ------------------------------------------------------------------

    def run(self, resume: bool = False) -> VerifyResult:
        """Run (or resume) the sequential loop to a stop decision.

        Raises:
            ReproError: when a replica exhausts its retry budget - a
                silent gap in the seed stream would bias the estimate,
                so the run aborts with the failure's provenance instead.
        """
        rule = self._rule
        # One cell map serves every batch: the file is read once (on
        # resume) and each commit encodes only its own replica.
        checkpoint: Optional[CellCheckpoint] = None
        if self._checkpoint_path is not None:
            checkpoint = campaign_checkpoint(self._checkpoint_path)
            if resume and os.path.exists(self._checkpoint_path):
                checkpoint.load()
        values: List[float] = []
        batches = 0
        interval: Optional[Interval] = None
        stopped_early = False
        while len(values) < rule.budget:
            start = len(values)
            size = min(rule.batch_size, rule.budget - start)
            seeds = derive_seeds(
                self._root_seed, self._label, size, start=start
            )
            cells = [
                ReplicaCell(self._spec_json, start + i, seeds[i])
                for i in range(size)
            ]
            values.extend(self._run_batch(cells, checkpoint))
            batches += 1
            interval = self._interval(values)
            if (
                len(values) >= rule.min_replicas
                and interval.half_width <= rule.half_width
            ):
                stopped_early = len(values) < rule.budget
                break
        assert interval is not None  # budget >= 1 guarantees one batch
        mean = sum(values) / len(values)
        return VerifyResult(
            estimand_spec=self._spec,
            method=self._method,
            rule=rule,
            root_seed=self._root_seed,
            interval=interval,
            n_replicas=len(values),
            batches=batches,
            stopped_early=stopped_early,
            values_mean=mean,
        )

    # ------------------------------------------------------------------

    def _run_batch(
        self,
        cells: Sequence[ReplicaCell],
        checkpoint: Optional[CellCheckpoint],
    ) -> List[float]:
        outcomes = self._execute(cells, checkpoint)
        failed = [o for o in outcomes if not o.completed]
        if failed:
            first = failed[0]
            last_attempt = first.attempts[-1] if first.attempts else None
            raise ReproError(
                "replica failed; a gap in the seed stream would bias "
                "the estimate",
                cell=first.cell.label,
                key=first.cell.key,
                failed=len(failed),
                error_type=(
                    last_attempt.error_type if last_attempt else "unknown"
                ),
                error=(
                    last_attempt.error_message if last_attempt else ""
                ),
            )
        return [float(o.result["value"]) for o in outcomes]

    def _prime_batch(self, cells: Sequence[ReplicaCell]) -> None:
        """Precompute a batch's replica values in one ``sample_batch``.

        Only used on the serial in-process path without a checkpoint,
        where every cell is certain to execute here (a checkpointed or
        pooled run may skip or ship cells, and priming them would waste
        the batched pass).  Failures fall back silently to the scalar
        per-cell path, which re-raises with full cell provenance.
        """
        sample_batch = getattr(self._estimand, "sample_batch", None)
        if sample_batch is None:
            return
        _BATCH_VALUE_CACHE.clear()
        try:
            values = sample_batch([cell.seed for cell in cells])
        except ReproError:
            return
        for cell, value in zip(cells, values):
            _BATCH_VALUE_CACHE[(cell.estimand_json, cell.seed)] = float(
                value
            )

    def _execute(
        self,
        cells: Sequence[ReplicaCell],
        checkpoint: Optional[CellCheckpoint],
    ) -> Tuple[CellOutcome, ...]:
        if checkpoint is None and self._workers == 1:
            self._prime_batch(cells)
        if checkpoint is not None:
            supervisor = CampaignSupervisor(
                cells,
                checkpoint.path,
                policy=self._policy,
                cell_runner=run_replica_cell,
                workers=self._workers,
            )
            # retry_failed: a replica that failed before the crash gets
            # a fresh budget on resume instead of poisoning the run.
            return supervisor.run(
                retry_failed=True, checkpoint=checkpoint
            ).outcomes
        if self._workers > 1 and len(cells) > 1:
            from repro.perf.parallel import run_cells

            return tuple(
                run_cells(
                    cells,
                    self._policy,
                    workers=self._workers,
                    cell_runner=run_replica_cell,
                )
            )
        executor = CellExecutor(self._policy, cell_runner=run_replica_cell)
        return tuple(executor.run_cell(cell) for cell in cells)

    def _interval(self, values: Sequence[float]) -> Interval:
        rule = self._rule
        n = len(values)
        if self._method == "wilson" or self._method == "clopper-pearson":
            successes = int(round(sum(values)))
            fn = wilson if self._method == "wilson" else clopper_pearson
            return fn(successes, n, confidence=rule.confidence)
        if self._method == "hoeffding":
            return hoeffding(
                sum(values) / n, n, confidence=rule.confidence
            )
        q = float(getattr(self._estimand, "quantile", 0.5))
        return dkw_quantile(values, q, confidence=rule.confidence)
