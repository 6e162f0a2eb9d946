"""Integration tests for the discrete-event runtime simulator."""

import pytest

from repro.apps.suite import ProfileLibrary
from repro.apps.workload import ApplicationArrival, WorkloadType, generate_workload
from repro.chip import default_chip
from repro.core import HarmonicManager, ParmManager
from repro.noc.routing import make_routing
from repro.pdn.emergencies import VoltageEmergencyPolicy
from repro.runtime import RuntimeSimulator


@pytest.fixture(scope="module")
def library():
    return ProfileLibrary()


@pytest.fixture(scope="module")
def chip():
    return default_chip()


def simulate(chip, manager, routing, workload, seed=7, **kw):
    sim = RuntimeSimulator(chip, manager, make_routing(routing), seed=seed, **kw)
    return sim.run(workload)


class TestSingleApp:
    def test_one_app_completes(self, library, chip):
        w = [
            ApplicationArrival(
                0, library.get("fft"), arrival_s=0.0, deadline_s=100.0
            )
        ]
        m = simulate(chip, ParmManager(), "panr", w)
        assert m.completed_count == 1
        assert m.dropped_count == 0
        rec = m.apps[0]
        assert rec.mapped_s == 0.0
        assert rec.vdd == pytest.approx(0.4)  # loose deadline -> NTC
        assert rec.dop == 32
        assert 0.05 < m.total_time_s < 2.0

    def test_impossible_deadline_dropped(self, library, chip):
        profile = library.get("fft")
        w = [ApplicationArrival(0, profile, 0.0, deadline_s=1e-4)]
        m = simulate(chip, ParmManager(), "xy", w)
        assert m.dropped_count == 1
        assert m.completed_count == 0

    def test_tight_deadline_forces_high_vdd(self, library, chip):
        profile = library.get("fft")
        best_low = min(profile.wcet_s(0.4, d) for d in profile.supported_dops)
        w = [ApplicationArrival(0, profile, 0.0, deadline_s=best_low * 0.8)]
        m = simulate(chip, ParmManager(), "xy", w)
        assert m.completed_count == 1
        assert m.apps[0].vdd > 0.4


class TestQueueBehaviour:
    def test_fcfs_blocks_until_resources_free(self, library, chip):
        """Two 32-thread apps cannot both hold 8 domains; the second maps
        only after the first frees resources or a smaller DoP fits."""
        profile = library.get("swaptions")
        w = [
            ApplicationArrival(0, profile, 0.0, 100.0),
            ApplicationArrival(1, profile, 0.0, 100.0),
        ]
        m = simulate(chip, ParmManager(), "xy", w)
        assert m.completed_count == 2
        a, b = m.apps[0], m.apps[1]
        # The second app either got fewer domains or waited.
        assert b.dop < 32 or b.mapped_s > a.mapped_s

    def test_oversubscription_drops_some(self, library, chip):
        w = generate_workload(
            WorkloadType.MIXED, 0.05, n_apps=12, seed=3, library=library
        )
        m = simulate(chip, ParmManager(), "panr", w)
        assert m.completed_count + m.dropped_count == 12
        assert m.dropped_count > 0

    def test_all_apps_accounted(self, library, chip):
        w = generate_workload(
            WorkloadType.COMPUTE, 0.1, n_apps=8, seed=4, library=library
        )
        for manager in (ParmManager(), HarmonicManager()):
            m = simulate(chip, manager, "xy", w)
            assert m.completed_count + m.dropped_count == 8


class TestPsnAndEmergencies:
    def test_hm_noisier_than_parm(self, library, chip):
        """The core Fig. 7 contrast, end to end."""
        w = generate_workload(
            WorkloadType.MIXED,
            0.1,
            n_apps=8,
            seed=5,
            library=library,
            deadline_slack_range=(20.0, 20.0),
        )
        parm = simulate(chip, ParmManager(), "panr", w)
        hm = simulate(chip, HarmonicManager(), "xy", w)
        assert hm.peak_psn_pct > 1.5 * parm.peak_psn_pct
        assert hm.avg_psn_pct > parm.avg_psn_pct
        assert hm.total_ve_count > parm.total_ve_count

    def test_disabling_emergencies_speeds_up_hm(self, library, chip):
        w = generate_workload(
            WorkloadType.COMPUTE,
            0.1,
            n_apps=6,
            seed=6,
            library=library,
            deadline_slack_range=(20.0, 20.0),
        )
        normal = simulate(chip, HarmonicManager(), "xy", w)
        no_ve = simulate(
            chip,
            HarmonicManager(),
            "xy",
            w,
            ve_policy=VoltageEmergencyPolicy(rate_per_pct_s=0.0),
        )
        assert no_ve.total_ve_count == 0
        assert no_ve.total_time_s < normal.total_time_s

    def test_deterministic_given_seed(self, library, chip):
        w = generate_workload(
            WorkloadType.MIXED, 0.1, n_apps=6, seed=8, library=library
        )
        a = simulate(chip, ParmManager(), "panr", w, seed=9)
        b = simulate(chip, ParmManager(), "panr", w, seed=9)
        assert a.total_time_s == b.total_time_s
        assert a.total_ve_count == b.total_ve_count
        assert a.peak_psn_pct == b.peak_psn_pct

    def test_ve_records_attached_to_apps(self, library, chip):
        w = generate_workload(
            WorkloadType.COMMUNICATION,
            0.1,
            n_apps=6,
            seed=10,
            library=library,
            deadline_slack_range=(20.0, 20.0),
        )
        m = simulate(chip, HarmonicManager(), "xy", w)
        assert m.total_ve_count == sum(r.ve_count for r in m.apps.values())
