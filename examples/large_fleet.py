#!/usr/bin/env python3
"""Large fleet: the fused fleet-tick engine on a 64-worker cluster.

Per-worker elastic control (the paper's §3.1 worker-side loop) costs one
settle + reallocate + observation pass per worker per sampling tick.  On
a fleet the sampling grid is shared — every recorder ticks at the same
instants — so the runner coalesces all those same-instant ticks into one
vectorized pass over a packed ``(worker, container)`` arena.

This example runs the ``two_thousand_job`` Poisson stream (trimmed to
600 arrivals so the demo stays quick) against 64 one-slot workers and
reports its throughput.

Run:
    python examples/large_fleet.py
"""

import time

from repro.baselines.na import NAPolicy
from repro.cluster.contention import ContentionModel
from repro.config import SimulationConfig
from repro.experiments.report import render_header, render_table
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import two_thousand_job


def main() -> None:
    scenario = two_thousand_job(seed=42, n_jobs=600)
    config = SimulationConfig(
        seed=42,
        trace=False,
        contention=ContentionModel.ideal(),
        sample_interval=2.0,
    )
    t0 = time.perf_counter()
    result = run_cluster(
        list(scenario.specs),
        NAPolicy,
        config,
        capacities=scenario.capacities,
        max_containers=scenario.max_containers,
        placement="spread",
    )
    elapsed = time.perf_counter() - t0

    events = result.sim.events_processed
    print(render_header("600-job Poisson stream on 64 one-slot workers"))
    print(render_table(
        ["run", "events", "wall (s)", "events/s"],
        [["fused", events, f"{elapsed:.2f}", round(events / elapsed)]],
    ))
    times = result.completion_times()
    print(
        f"\n{len(times)} jobs completed, makespan "
        f"{max(times.values()):.1f} simulated seconds."
    )


if __name__ == "__main__":
    main()
