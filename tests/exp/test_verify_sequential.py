"""Tests for the stop-when-confident sequential estimator.

Covers the PR's tentpole guarantees in-process: early stopping under
the half-width rule, hard budgets, batch-size-invariant determinism,
checkpoint resume equivalence, and the failed-replica abort (a silent
seed-stream gap would bias the estimate).
"""

import json

import pytest

from repro.exp.verify.estimands import (
    PdnEmergencyEstimand,
    _REGISTRY,
    register_estimand,
)
from repro.exp.verify.sequential import (
    ReplicaCell,
    SequentialEstimator,
    StopRule,
    canonical_spec_json,
)
from repro.harness.errors import ConfigError, ReproError
from repro.harness.seeding import derive_seed


@pytest.fixture()
def failing_estimand():
    """A registered estimand whose sample() always raises."""

    class _Failing:
        name = "always-fails"
        kind = "probability"

        def spec(self):
            return {"estimand": "always-fails"}

        def sample(self, seed):
            raise ValueError("synthetic replica failure")

    register_estimand("always-fails", lambda spec: _Failing())
    yield _Failing()
    _REGISTRY.pop("always-fails", None)


class TestStopRule:
    def test_defaults_are_valid(self):
        rule = StopRule()
        assert rule.confidence == 0.95
        assert rule.min_replicas <= rule.budget

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"confidence": 1.0},
            {"confidence": 0.0},
            {"half_width": 0.0},
            {"budget": 0},
            {"batch_size": 0},
            {"min_replicas": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            StopRule(**kwargs)


class TestReplicaCell:
    def _cell(self, index=0):
        spec_json = canonical_spec_json(PdnEmergencyEstimand().spec())
        seed = derive_seed(0, "verify/ve/replica", index)
        return ReplicaCell(spec_json, index, seed)

    def test_key_is_content_hashed_and_stable(self):
        assert self._cell().key == self._cell().key
        assert self._cell(0).key != self._cell(1).key

    def test_label_names_estimand_and_index(self):
        assert self._cell(3).label == "verify/ve#3"

    def test_validate_rejects_unknown_estimand(self):
        cell = ReplicaCell(json.dumps({"estimand": "nope"}), 0, 1)
        with pytest.raises(ConfigError):
            cell.validate()


class TestSequentialEstimator:
    def test_stops_before_budget_when_confident(self):
        rule = StopRule(half_width=0.05, budget=4096, batch_size=64)
        result = SequentialEstimator(
            PdnEmergencyEstimand(), rule=rule, root_seed=0
        ).run()
        assert result.stopped_early
        assert result.n_replicas < rule.budget
        assert result.interval.half_width <= rule.half_width
        assert result.interval.contains(result.values_mean)

    def test_budget_exhaustion_is_reported(self):
        rule = StopRule(
            half_width=1e-6, budget=64, batch_size=32, min_replicas=8
        )
        result = SequentialEstimator(
            PdnEmergencyEstimand(), rule=rule, root_seed=0
        ).run()
        assert not result.stopped_early
        assert result.n_replicas == rule.budget
        assert result.batches == 2

    def test_interval_contains_exhaustive_point_estimate(self):
        import numpy as np

        estimand = PdnEmergencyEstimand()
        rule = StopRule(half_width=0.02, budget=4096)
        result = SequentialEstimator(estimand, rule=rule, root_seed=0).run()
        # Exhaustive reference over a disjoint, much larger stream.
        levels = estimand.direct_levels(
            np.random.default_rng(987654321), 200_000
        )
        reference = float((levels > estimand.threshold_pct).mean())
        assert result.interval.contains(reference)

    def test_batch_size_invariant_result(self):
        estimand = PdnEmergencyEstimand()

        def run(batch_size):
            rule = StopRule(
                half_width=1e-6,
                budget=96,
                batch_size=batch_size,
                min_replicas=8,
            )
            return SequentialEstimator(
                estimand, rule=rule, root_seed=5
            ).run()

        a, b = run(16), run(96)
        assert a.values_mean == b.values_mean
        assert a.interval.to_json() == b.interval.to_json()

    def test_method_must_match_kind(self):
        with pytest.raises(ConfigError):
            SequentialEstimator(PdnEmergencyEstimand(), method="dkw")

    def test_failed_replica_aborts_with_provenance(self, failing_estimand):
        rule = StopRule(budget=8, batch_size=4, min_replicas=2)
        estimator = SequentialEstimator(
            failing_estimand, rule=rule, root_seed=0
        )
        with pytest.raises(ReproError, match="gap in the seed stream"):
            estimator.run()


class TestCheckpointResume:
    def _run(self, checkpoint, resume=False):
        rule = StopRule(
            half_width=0.08, budget=256, batch_size=32, min_replicas=16
        )
        return SequentialEstimator(
            PdnEmergencyEstimand(),
            rule=rule,
            root_seed=3,
            checkpoint_path=checkpoint,
        ).run(resume=resume)

    def test_resume_from_partial_checkpoint_is_byte_identical(
        self, tmp_path
    ):
        reference = self._run(str(tmp_path / "ref.json"))

        # Simulate a crash: run only the first batch into a checkpoint,
        # then resume the full loop against it.
        partial_cp = str(tmp_path / "partial.json")
        rule = StopRule(
            half_width=1e-9, budget=32, batch_size=32, min_replicas=32
        )
        SequentialEstimator(
            PdnEmergencyEstimand(),
            rule=rule,
            root_seed=3,
            checkpoint_path=partial_cp,
        ).run()

        resumed = self._run(partial_cp, resume=True)
        assert resumed.json_str() == reference.json_str()

    def test_batches_share_one_cell_map(self, tmp_path, monkeypatch):
        """The checkpoint is read once on resume, never on a fresh run,
        and after every batch the file holds every replica so far."""
        from repro.exp.verify import sequential
        from repro.harness.supervisor import (
            CAMPAIGN_SCHEMA,
            CAMPAIGN_VERSION,
        )
        from repro.runtime import checkpoint

        loads = []
        real_load = checkpoint.load_payload
        monkeypatch.setattr(
            checkpoint,
            "load_payload",
            lambda *a: loads.append(a) or real_load(*a),
        )
        cp = tmp_path / "cp.json"
        seen = {}
        real_batch = sequential.SequentialEstimator._run_batch

        def run_batch(self, cells, cell_map):
            values = real_batch(self, cells, cell_map)
            seen.update(
                (cell.key, {"status": "completed"}) for cell in cells
            )
            payload = json.loads(cp.read_text())["payload"]["cells"]
            assert sorted(payload) == sorted(seen)
            assert cp.read_text() == checkpoint.dump_payload(
                {"cells": payload}, CAMPAIGN_SCHEMA, CAMPAIGN_VERSION
            )
            return values

        monkeypatch.setattr(
            sequential.SequentialEstimator, "_run_batch", run_batch
        )
        fresh = self._run(str(cp))
        assert fresh.batches > 1
        assert loads == []
        resumed = self._run(str(cp), resume=True)
        assert len(loads) == 1
        assert resumed.json_str() == fresh.json_str()

    def test_rerun_same_checkpoint_without_resume_matches(self, tmp_path):
        cp = str(tmp_path / "cp.json")
        first = self._run(cp)
        second = self._run(str(tmp_path / "cp2.json"))
        assert first.json_str() == second.json_str()


class TestBatchedSampling:
    """The batched lane path must be invisible in every result byte."""

    def _estimand(self, policy="xy"):
        from repro.exp.verify.estimands import PacketLatencyEstimand

        return PacketLatencyEstimand(
            policy=policy, mesh_width=4, mesh_height=4, cycles=300
        )

    def test_sample_batch_matches_scalar_samples(self):
        seeds = [derive_seed(0, "verify/latency/replica", i)
                 for i in range(5)]
        for policy in ("xy", "panr"):
            estimand = self._estimand(policy)
            assert estimand.sample_batch(seeds) == [
                estimand.sample(seed) for seed in seeds
            ]

    def test_sample_batch_empty(self):
        assert self._estimand().sample_batch([]) == []

    def test_primed_run_is_byte_identical_to_scalar_run(self, monkeypatch):
        from repro.exp.verify import sequential

        rule = StopRule(half_width=1e-6, budget=24, batch_size=8,
                        min_replicas=8)
        for policy in ("xy", "panr"):
            estimand = self._estimand(policy)
            primed = SequentialEstimator(
                estimand, rule=rule, method="dkw", root_seed=3
            ).run()
            with monkeypatch.context() as patch:
                patch.setattr(
                    sequential.SequentialEstimator,
                    "_prime_batch",
                    lambda self, cells: None,
                )
                scalar = SequentialEstimator(
                    estimand, rule=rule, method="dkw", root_seed=3
                ).run()
            assert primed.values_mean == scalar.values_mean
            assert primed.interval.to_json() == scalar.interval.to_json()
            assert primed.n_replicas == scalar.n_replicas
