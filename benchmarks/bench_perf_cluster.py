"""Macro-benchmark — placement + admission-queue throughput at cluster scale.

The acceptance workload of the scheduling layer: the 200-job Poisson
open-arrival stream (:func:`repro.experiments.scenarios.two_hundred_job`)
on an 8-worker cluster with 4 admission slots per worker, so the
manager's FIFO queue absorbs every burst the Poisson process produces.
Reports end-to-end events/s and jobs/s per placement policy plus the
admission-queue profile (peak depth, mean/max delay), and asserts the
determinism contract: repeated runs and ``workers=N`` batch execution
produce identical results.  A count-based check also pins placement cost
flat in fleet size: ``Worker.has_headroom`` calls per placement may not
grow from a 64- to a 1 024-worker fleet.
"""

from __future__ import annotations

import time
from unittest import mock

from _render import run_once

from repro.baselines.na import NAPolicy
from repro.cluster.contention import ContentionModel
from repro.cluster.manager import Manager
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.config import SimulationConfig
from repro.experiments.batch import run_many
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import two_hundred_job, two_thousand_job
from repro.simcore.engine import Simulator

_N_WORKERS = 8
_SLOTS = 4
_CFG = SimulationConfig(seed=0, trace=False)


def _specs():
    return two_hundred_job(seed=0)


def _run(placement="spread"):
    return run_cluster(
        _specs(),
        NAPolicy,
        _CFG,
        n_workers=_N_WORKERS,
        max_containers=_SLOTS,
        placement=placement,
    )


def _report(result, wall):
    summary = result.summary
    delays = [d for d in summary.queue_delays.values() if d > 0]
    return [
        round(result.sim.events_processed / wall),
        round(len(summary.completions) / wall, 1),
        summary.peak_queue_len,
        len(delays),
        round(sum(delays) / len(delays), 1) if delays else 0.0,
        round(summary.max_queue_delay(), 1),
        round(summary.makespan, 1),
    ]


def test_perf_cluster_throughput(benchmark):
    rows = []
    for placement in ("spread", "binpack", "random", "affinity"):
        t0 = time.perf_counter()
        if placement == "spread":
            result = run_once(benchmark, _run)
        else:
            result = _run(placement)
        wall = time.perf_counter() - t0
        assert len(result.summary.completions) == 200
        assert result.summary.peak_queue_len > 0  # queueing really occurred
        assert result.manager.queue_len == 0      # ... and fully drained
        rows.append([placement] + _report(result, wall))
    print("\n" + render_header(
        f"200 Poisson jobs on {_N_WORKERS} workers × {_SLOTS} slots"
    ))
    print(render_table(
        ["placement", "events/s", "jobs/s", "peak queue",
         "n queued", "mean delay", "max delay", "makespan"],
        rows,
    ))


def test_perf_cluster_deterministic():
    """Repeated runs of the open-arrival cluster are bit-identical."""
    a, b = _run(), _run()
    assert a.completion_times() == b.completion_times()
    assert a.summary.queue_delays == b.summary.queue_delays
    assert a.summary.peak_queue_len == b.summary.peak_queue_len


def test_perf_cluster_batch_parity():
    """Serial vs process-pool batch execution never changes results."""
    direct = _run()
    [serial] = run_many(
        [_specs()], NAPolicy, _CFG, workers=1, seeds=[0],
        n_workers=_N_WORKERS, max_containers=_SLOTS,
    )
    [pooled] = run_many(
        [_specs()], NAPolicy, _CFG, workers=2, seeds=[0],
        n_workers=_N_WORKERS, max_containers=_SLOTS,
    )
    assert serial.completion_times() == pooled.completion_times()
    assert serial.completion_times() == direct.completion_times()
    assert serial.peak_queue_len == pooled.peak_queue_len
    assert serial.peak_queue_len == direct.summary.peak_queue_len


_SCALING_JOBS = 256


def _headroom_calls_per_placement(n_workers: int) -> float:
    """``has_headroom`` calls per placement on a one-slot fleet.

    The manager alone (no recorders or policies) places the first
    :data:`_SCALING_JOBS` arrivals of :func:`two_thousand_job`; the
    count starts after the fleet is built.
    """
    sim = Simulator(seed=0, trace=False)
    workers = [
        Worker(
            sim,
            name=f"worker-{i}",
            contention=ContentionModel.ideal(),
            max_containers=1,
        )
        for i in range(n_workers)
    ]
    manager = Manager(sim, workers)
    manager.submit_all(
        [
            JobSubmission(
                label=spec.label,
                job=spec.build_job(),
                submit_time=spec.submit_time,
            )
            for spec in two_thousand_job(seed=0, n_jobs=_SCALING_JOBS).specs
        ]
    )
    calls = 0
    has_headroom = Worker.has_headroom

    def counted(worker: Worker) -> bool:
        nonlocal calls
        calls += 1
        return has_headroom(worker)

    with mock.patch.object(Worker, "has_headroom", counted):
        sim.run_until_empty()
    assert len(manager.placements) == _SCALING_JOBS
    return calls / _SCALING_JOBS


def test_perf_cluster_headroom_scaling():
    """Placement cost stays flat from 64 to 1 024 one-slot workers.

    A deterministic count, not a timing, so it holds under
    ``--benchmark-disable``; a linear eligible-worker scan grows it ~16×.
    """
    small = _headroom_calls_per_placement(64)
    large = _headroom_calls_per_placement(1024)
    print(
        f"\nhas_headroom calls per placement: {small:.2f} on 64 workers, "
        f"{large:.2f} on 1024"
    )
    assert large <= 1.5 * small
