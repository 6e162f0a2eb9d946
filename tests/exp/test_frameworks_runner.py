"""Tests for the experiment harness plumbing."""

import pytest

from repro.apps.suite import ProfileLibrary
from repro.apps.workload import WorkloadType
from repro.core import HarmonicManager, ParmManager
from repro.exp.faults import fault_sweep
from repro.exp.frameworks import FRAMEWORKS, Framework, framework
from repro.exp.runner import run_framework
from repro.harness.errors import ConfigError
from repro.noc.routing import IconRouting, PanrRouting, XYRouting


class TestFramework:
    def test_six_combinations(self):
        names = [f.name for f in FRAMEWORKS]
        assert names == [
            "HM+XY", "HM+ICON", "HM+PANR",
            "PARM+XY", "PARM+ICON", "PARM+PANR",
        ]

    def test_lookup_case_insensitive(self):
        assert framework("parm+panr").name == "PARM+PANR"
        with pytest.raises(KeyError):
            framework("PARM+WORMY")

    def test_factories(self):
        fw = framework("PARM+PANR")
        assert isinstance(fw.make_manager(), ParmManager)
        assert isinstance(fw.make_routing(), PanrRouting)
        fw = framework("HM+ICON")
        assert isinstance(fw.make_manager(), HarmonicManager)
        assert isinstance(fw.make_routing(), IconRouting)
        assert isinstance(framework("HM+XY").make_routing(), XYRouting)

    def test_invalid_parts_rejected(self):
        with pytest.raises(ValueError):
            Framework("XXX", "xy")
        with pytest.raises(KeyError):
            Framework("PARM", "bogus")


class TestRunner:
    @pytest.fixture(scope="class")
    def library(self):
        return ProfileLibrary()

    def test_run_framework_aggregates_seeds(self, library):
        result = run_framework(
            framework("PARM+XY"),
            WorkloadType.COMPUTE,
            arrival_interval_s=0.2,
            n_apps=4,
            seeds=(1, 2),
            library=library,
        )
        assert result.framework == "PARM+XY"
        assert result.workload == "compute"
        assert len(result.runs) == 2
        assert 0 <= result.completed <= 4
        assert result.completed + result.dropped == pytest.approx(4.0)
        assert result.total_time_s > 0
        assert result.total_time_std_s >= 0
        assert result.completed_std >= 0

    def test_loose_slack_override(self, library):
        result = run_framework(
            framework("HM+XY"),
            WorkloadType.COMPUTE,
            arrival_interval_s=0.2,
            n_apps=4,
            seeds=(1,),
            library=library,
            deadline_slack_range=(30.0, 30.0),
        )
        assert result.completed == pytest.approx(4.0)
        assert result.dropped == 0.0


class TestRunnerValidation:
    """Invalid inputs fail fast with a classified ConfigError."""

    def _run(self, **overrides):
        kwargs = dict(
            fw=framework("HM+XY"),
            workload_type=WorkloadType.MIXED,
            arrival_interval_s=0.2,
            n_apps=4,
            seeds=(1,),
        )
        kwargs.update(overrides)
        return run_framework(**kwargs)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds") as excinfo:
            self._run(seeds=())
        assert excinfo.value.context["framework"] == "HM+XY"
        assert excinfo.value.context["workload"] == "mixed"

    def test_generator_seeds_accepted(self):
        # tuple() coercion means one-shot iterables work too.
        result = self._run(seeds=iter([1]), n_apps=2)
        assert len(result.runs) == 1

    @pytest.mark.parametrize("n_apps", [0, -3])
    def test_nonpositive_n_apps_rejected(self, n_apps):
        with pytest.raises(ConfigError, match="n_apps"):
            self._run(n_apps=n_apps)

    @pytest.mark.parametrize(
        "interval", [0.0, -0.1, float("nan"), float("inf")]
    )
    def test_bad_arrival_interval_rejected(self, interval):
        with pytest.raises(ConfigError, match="arrival_interval_s"):
            self._run(arrival_interval_s=interval)

    def test_config_error_is_repro_error(self):
        from repro.harness.errors import ReproError

        with pytest.raises(ReproError):
            self._run(seeds=())


class TestFaultSweepValidation:
    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            fault_sweep(seeds=())
        with pytest.raises(ConfigError, match="intensities"):
            fault_sweep(intensities=())

    def test_out_of_range_intensity_rejected(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            fault_sweep(intensities=(0.5, 1.5))

    def test_bad_sizing_rejected(self):
        with pytest.raises(ConfigError, match="n_apps"):
            fault_sweep(n_apps=0)
        with pytest.raises(ConfigError, match="arrival_interval_s"):
            fault_sweep(arrival_interval_s=float("nan"))
