"""Unit tests for the cluster manager."""

from __future__ import annotations

import pytest

from repro.cluster.contention import ContentionModel
from repro.cluster.failures import WorkerFault
from repro.cluster.manager import Manager
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.errors import ClusterError
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job


def _submission(label: str, t: float, work: float = 20.0) -> JobSubmission:
    return JobSubmission(label=label, job=make_linear_job(label, work),
                         submit_time=t)


class TestSubmission:
    def test_job_arrives_at_submit_time(self, sim, ideal_worker):
        manager = Manager(sim, [ideal_worker])
        manager.submit(_submission("Job-1", 15.0))
        assert manager.pending == 1
        sim.run(until=15.0)
        assert manager.pending == 0
        assert manager.placement_of("Job-1").cid > 0

    def test_duplicate_label_rejected(self, sim, ideal_worker):
        manager = Manager(sim, [ideal_worker])
        manager.submit(_submission("Job-1", 0.0))
        with pytest.raises(ClusterError):
            manager.submit(_submission("Job-1", 5.0))

    def test_submit_all(self, sim, ideal_worker):
        manager = Manager(sim, [ideal_worker])
        manager.submit_all([_submission("Job-1", 0.0), _submission("Job-2", 3.0)])
        sim.run_until_empty()
        assert set(manager.placements) == {"Job-1", "Job-2"}

    def test_placement_before_arrival_raises(self, sim, ideal_worker):
        manager = Manager(sim, [ideal_worker])
        manager.submit(_submission("Job-1", 50.0))
        with pytest.raises(ClusterError):
            manager.placement_of("Job-1")

    def test_negative_submit_time_rejected(self):
        with pytest.raises(ValueError):
            _submission("Job-1", -1.0)


class TestPlacement:
    def test_spread_across_workers(self):
        sim = Simulator(seed=0)
        workers = [
            Worker(sim, name=f"w{i}", contention=ContentionModel.ideal())
            for i in range(2)
        ]
        manager = Manager(sim, workers)
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=100.0) for i in range(1, 5)]
        )
        sim.run(until=1.0)
        placed = [manager.placement_of(f"Job-{i}").worker_name for i in range(1, 5)]
        assert placed.count("w0") == 2 and placed.count("w1") == 2

    def test_requires_workers(self, sim):
        with pytest.raises(ClusterError):
            Manager(sim, [])

    def test_duplicate_worker_names_rejected(self, sim):
        workers = [
            Worker(sim, name="same", contention=ContentionModel.ideal()),
            Worker(sim, name="same", contention=ContentionModel.ideal()),
        ]
        with pytest.raises(ClusterError):
            Manager(sim, workers)


def _slotted_fleet(n: int = 3) -> tuple[Simulator, Manager]:
    sim = Simulator(seed=0, trace=False)
    workers = [
        Worker(
            sim,
            name=f"w{i}",
            contention=ContentionModel.ideal(),
            max_containers=1,
        )
        for i in range(n)
    ]
    return sim, Manager(sim, workers)


def _eligible_names(manager: Manager) -> list[str]:
    eligible = manager._eligible_workers()
    # The index must equal the linear scan it replaces, object for
    # object and in fleet order.
    assert eligible == [w for w in manager.workers if w.has_headroom()]
    return [w.name for w in eligible]


class TestHeadroomIndex:
    """Every slot transition reports to the manager's eligible index."""

    def test_launch_and_exit(self):
        sim, manager = _slotted_fleet()
        manager.workers[1].launch(make_linear_job("j", 10.0))
        assert _eligible_names(manager) == ["w0", "w2"]
        sim.run(until=20.0)
        assert _eligible_names(manager) == ["w0", "w1", "w2"]

    def test_detach_and_attach(self):
        _, manager = _slotted_fleet()
        w0, w1, _ = manager.workers
        container = w0.launch(make_linear_job("j", 100.0))
        assert _eligible_names(manager) == ["w1", "w2"]
        w0.detach(container.cid)
        assert _eligible_names(manager) == ["w0", "w1", "w2"]
        w1.attach(container)
        assert _eligible_names(manager) == ["w0", "w2"]

    def test_reserve_and_release(self):
        _, manager = _slotted_fleet()
        w2 = manager.workers[2]
        w2.reserve_slot()
        assert _eligible_names(manager) == ["w0", "w1"]
        w2.release_reservation()
        assert _eligible_names(manager) == ["w0", "w1", "w2"]

    def test_draining_assigned_directly(self):
        _, manager = _slotted_fleet()
        w0 = manager.workers[0]
        w0.draining = True
        assert w0.has_free_slot() and not w0.has_headroom()
        assert _eligible_names(manager) == ["w1", "w2"]
        w0.draining = False
        assert _eligible_names(manager) == ["w0", "w1", "w2"]

    def test_crash_frees_slots_and_clears_draining(self):
        _, manager = _slotted_fleet()
        w0, w1, _ = manager.workers
        w0.launch(make_linear_job("j", 100.0))
        w1.draining = True
        assert _eligible_names(manager) == ["w2"]
        w0.crash()
        w1.crash()
        assert _eligible_names(manager) == ["w0", "w1", "w2"]

    def test_batched_reports_keep_fleet_order(self):
        _, manager = _slotted_fleet(5)
        w = manager.workers
        for worker in (w[3], w[1], w[4]):
            worker.reserve_slot()
        assert _eligible_names(manager) == ["w0", "w2"]
        # Several reports, out of fleet order, resolved by one call.
        w[4].release_reservation()
        w[1].release_reservation()
        w[0].reserve_slot()
        assert _eligible_names(manager) == ["w1", "w2", "w4"]

    def test_membership_changes_rebuild(self):
        sim, manager = _slotted_fleet()
        manager.schedule_fault(WorkerFault("w0", 1.0, recover_after=4.0))
        sim.run(until=2.0)
        assert _eligible_names(manager) == ["w1", "w2"]
        sim.run(until=10.0)
        # A recovered worker rejoins at the end of the fleet.
        assert _eligible_names(manager) == ["w1", "w2", "w0"]

    def test_returns_a_fresh_list(self):
        _, manager = _slotted_fleet()
        manager._eligible_workers().clear()
        assert _eligible_names(manager) == ["w0", "w1", "w2"]
