"""Macro-benchmark — the fused fleet-tick engine.

The fleet engine (``repro.cluster.fleet``) coalesces same-instant
sampling ticks across workers into one packed settle + segmented
reallocate + packed sampling pass.  Every run arms it; the *unbatched*
side of each comparison below leaves it unarmed (``FleetTicker.arm``
patched to a no-op), so every tick runs the same passes over one worker
at a time.  This bench drives it at the scale it exists for —
``two_thousand_job``: 2 000 Poisson arrivals against 64 one-slot
workers — and asserts the acceptance floors:

* fused events/s ≥ 3× the pre-fleet serial throughput (11 599 events/s
  on the reference container), with a machine-grace factor;
* fused ≥ 1.5× the *same-run* unbatched throughput on any machine (the
  machine-independent form of the speedup claim);
* no regression (≥ 95% of same-run unbatched) on the workloads the
  engine barely engages on — ``two_hundred_job`` (8 workers, real
  colocation depth) and ten-job FlowCon (single worker, where the
  armed batcher must be pure pass-through);
* fused completion times bit-identical to unbatched, at every scale
  timed.

Timing uses ``time.process_time`` (CPU time) with interleaved
unbatched/fused best-of-N: the reference container is a single core
with background load, so wall-clock swings ±20% while CPU time holds
within a few percent.  Timing-sensitive assertions are skipped under
``--benchmark-disable`` (CI's execute-only mode) and on machines slower
than the reference container; the bit-identity assertions always run.
"""

from __future__ import annotations

import hashlib
import json
import time
from unittest import mock

from _render import run_once

from repro.baselines.na import NAPolicy
from repro.cluster.contention import ContentionModel
from repro.cluster.fleet import FleetTicker
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster, run_scenario
from repro.experiments.scenarios import (
    random_ten_job,
    two_hundred_job,
    two_thousand_job,
)

#: Serial two_thousand_job throughput before the fleet engine landed
#: (seed commit, reference single-core container, CPU-time best-of-3).
_PRE_FLEET_EVENTS_PER_S = 11_599
#: Acceptance floor: ≥ 3× the pre-fleet throughput.
_TARGET_EVENTS_PER_S = 34_800
#: Near-reference machines must clear the target with this grace factor
#: — absorbs turbo/thermal noise without letting a real regression
#: (which lands back near the serial figure) slip through.
_MACHINE_GRACE = 0.90
#: Machine-independent floor on the same-run fused/unbatched ratio.
_SAME_RUN_SPEEDUP = 1.5
#: Workloads the fleet engine barely engages on must keep ≥ 95% of
#: same-run unbatched throughput.
_NO_REGRESSION = 0.95


def _digest(completion_times: dict[str, float]) -> str:
    times = {k: repr(v) for k, v in completion_times.items()}
    return hashlib.sha256(
        json.dumps(times, sort_keys=True).encode()
    ).hexdigest()


def _batched(fused: bool, run):
    """``run()`` with the fleet ticker armed, or left unarmed."""
    if fused:
        return run()
    with mock.patch.object(FleetTicker, "arm", lambda self: None):
        return run()


def _fleet_run(fused: bool, n_jobs: int = 2000):
    """two_thousand_job under the bench config: ideal contention (no
    jitter draws ⇒ deterministic engine-throughput isolation) and a 2 s
    sampling cadence, the regime where every tick finds the whole fleet
    busy."""
    sc = two_thousand_job(seed=42, n_jobs=n_jobs)
    return _batched(fused, lambda: run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(
            seed=42,
            trace=False,
            contention=ContentionModel.ideal(),
            sample_interval=2.0,
        ),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
        placement="spread",
    ))


def _best_of(fn, rounds: int = 3):
    """Best CPU-time events/s over *rounds* runs, plus the last result."""
    best = 0.0
    result = None
    for _ in range(rounds):
        t0 = time.process_time()
        result = fn()
        cpu = time.process_time() - t0
        best = max(best, result.sim.events_processed / cpu)
    return best, result


def test_perf_fleet_two_thousand_job_throughput(benchmark):
    """2000 jobs / 64 workers: fused ≥ 3× pre-fleet serial, bit-identical."""
    if getattr(benchmark, "disabled", False):
        # CI's --benchmark-disable execute-only mode: prove the fused
        # path runs to completion and matches unbatched at reduced scale;
        # skip the timing-sensitive floors (CI runners are not the
        # reference container).
        result = run_once(benchmark, lambda: _fleet_run(True, n_jobs=200))
        unbatched = _fleet_run(False, n_jobs=200)
        assert len(result.completion_times()) == 200
        assert _digest(result.completion_times()) == _digest(
            unbatched.completion_times()
        )
        return
    _fleet_run(True, n_jobs=200)  # warm-up (imports, numpy caches)
    # Interleaved unbatched/fused rounds so drift hits both equally.
    unbatched_best, fused_best = 0.0, 0.0
    unbatched_result = fused_result = None
    for _ in range(4):
        s, unbatched_result = _best_of(lambda: _fleet_run(False), rounds=1)
        f, fused_result = _best_of(lambda: _fleet_run(True), rounds=1)
        unbatched_best, fused_best = max(unbatched_best, s), max(fused_best, f)
    run_once(benchmark, lambda: _fleet_run(True))
    assert len(fused_result.completion_times()) == 2000
    assert _digest(fused_result.completion_times()) == _digest(
        unbatched_result.completion_times()
    )
    assert fused_result.sim.events_processed == (
        unbatched_result.sim.events_processed
    )
    print("\n" + render_header("fused fleet-tick engine, 64 workers"))
    print(render_table(
        ["run", "events/s", "pre-fleet", "target", "vs seed", "vs unbatched"],
        [[
            "two_thousand_job fused",
            round(fused_best),
            _PRE_FLEET_EVENTS_PER_S,
            _TARGET_EVENTS_PER_S,
            f"{fused_best / _PRE_FLEET_EVENTS_PER_S:.2f}x",
            f"{fused_best / unbatched_best:.2f}x",
        ]],
    ))
    # The same-run ratio is machine-independent: both paths ran on this
    # hardware moments apart.
    assert fused_best >= unbatched_best * _SAME_RUN_SPEEDUP, (
        f"fused path only {fused_best / unbatched_best:.2f}x same-run "
        f"unbatched "
        f"(want ≥ {_SAME_RUN_SPEEDUP}x)"
    )
    # The ≥3× floor is asserted only where timing is meaningful: a
    # machine whose *unbatched* path cannot reach the pre-fleet reference
    # figure is slower hardware, not a regression.  The full 34 800
    # events/s figure is the reference-container acceptance number
    # (recorded in ROADMAP and the BENCH_*.json trajectory).
    if unbatched_best >= _PRE_FLEET_EVENTS_PER_S:
        assert fused_best >= _TARGET_EVENTS_PER_S * _MACHINE_GRACE, (
            f"fleet engine regressed: {fused_best:.0f} events/s < "
            f"{_TARGET_EVENTS_PER_S} × {_MACHINE_GRACE} floor"
        )


def _two_hundred_run(fused: bool):
    return _batched(fused, lambda: run_cluster(
        two_hundred_job(seed=0),
        NAPolicy,
        SimulationConfig(seed=0, trace=False),
        n_workers=8,
        max_containers=4,
        placement="spread",
    ))


def test_perf_fleet_no_regression_two_hundred_job(benchmark):
    """8 workers × 4 slots: fused keeps ≥95% unbatched throughput."""
    if getattr(benchmark, "disabled", False):
        result = run_once(benchmark, lambda: _two_hundred_run(True))
        assert _digest(result.completion_times()) == _digest(
            _two_hundred_run(False).completion_times()
        )
        return
    _two_hundred_run(True)  # warm-up
    unbatched_best, fused_best = 0.0, 0.0
    unbatched_result = fused_result = None
    for _ in range(3):
        s, unbatched_result = _best_of(
            lambda: _two_hundred_run(False), rounds=1
        )
        f, fused_result = _best_of(lambda: _two_hundred_run(True), rounds=1)
        unbatched_best, fused_best = max(unbatched_best, s), max(fused_best, f)
    run_once(benchmark, lambda: _two_hundred_run(True))
    assert _digest(fused_result.completion_times()) == _digest(
        unbatched_result.completion_times()
    )
    print("\n" + render_header("fleet tick on the 200-job Poisson stream"))
    print(render_table(
        ["run", "unbatched ev/s", "fused ev/s", "ratio"],
        [[
            "two_hundred_job",
            round(unbatched_best),
            round(fused_best),
            f"{fused_best / unbatched_best:.2f}x",
        ]],
    ))
    assert fused_best >= unbatched_best * _NO_REGRESSION, (
        f"fleet tick regressed two_hundred_job: "
        f"{fused_best / unbatched_best:.2f}x unbatched "
        f"(want ≥ {_NO_REGRESSION})"
    )


def _ten_job_run(fused: bool):
    return _batched(fused, lambda: run_scenario(
        random_ten_job(seed=42),
        FlowConPolicy(FlowConConfig(alpha=0.10, itval=20.0)),
        SimulationConfig(seed=42, trace=False),
    ))


def test_perf_fleet_no_regression_ten_job_flowcon(benchmark):
    """Single worker: the armed batcher is pure pass-through (≥95%)."""
    if getattr(benchmark, "disabled", False):
        result = run_once(benchmark, lambda: _ten_job_run(True))
        unbatched = _ten_job_run(False)
        assert (
            result.completion_times() == unbatched.completion_times()
        )
        return
    _ten_job_run(True)  # warm-up
    unbatched_best, fused_best = 0.0, 0.0
    unbatched_result = fused_result = None
    for _ in range(5):
        s, unbatched_result = _best_of(lambda: _ten_job_run(False), rounds=1)
        f, fused_result = _best_of(lambda: _ten_job_run(True), rounds=1)
        unbatched_best, fused_best = max(unbatched_best, s), max(fused_best, f)
    run_once(benchmark, lambda: _ten_job_run(True))
    assert (
        fused_result.completion_times() == unbatched_result.completion_times()
    )
    print("\n" + render_header("fleet tick on the single-worker ten-job run"))
    print(render_table(
        ["run", "unbatched ev/s", "fused ev/s", "ratio"],
        [[
            "ten-job FlowCon",
            round(unbatched_best),
            round(fused_best),
            f"{fused_best / unbatched_best:.2f}x",
        ]],
    ))
    assert fused_best >= unbatched_best * _NO_REGRESSION, (
        f"fleet tick regressed ten-job FlowCon: "
        f"{fused_best / unbatched_best:.2f}x unbatched "
        f"(want ≥ {_NO_REGRESSION})"
    )
