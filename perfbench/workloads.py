"""The benchmark's three workloads, each a fixed-size scenario.

A workload is a builder ``seed -> Workload``: the seed is the only input
the caller chooses, and the same seed always builds the same specs or
stream, cluster shape and simulation config.  Why each workload exists
and which layers it stresses is documented in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.baselines.na import NAPolicy
from repro.cluster.contention import ContentionModel
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.experiments.scenarios import (
    fifty_job,
    million_job_day,
    two_thousand_job,
)

__all__ = [
    "Workload",
    "WORKLOADS",
    "DEFAULT_SEEDS",
    "SCENARIOS",
    "build",
    "scenario_seeds",
]

#: Arrivals kept from each scenario's stream (the "trimmed" sizes).
#: Each run takes ~1.5 s, so a 36 s measurement holds ~17 runs and its
#: median damps the run-to-run noise of fresh processes on a drifting
#: host; at 1 200 and 8 000 arrivals (~6 s a run) only four fitted, and
#: ``stream_lossy``'s ``run_s`` spread 25-30 % across seeds.
FLEET_FUSED_JOBS = 300
STREAM_LOSSY_JOBS = 2000

#: The fabric fault plan of ``stream_lossy``: 2 % drops, exponential
#: delivery delay, up to six resends with backoff.
LOSSY_FABRIC = "drop(0.02)+delay(exp,0.05):retry(max=6,base=0.5)"


@dataclass
class Workload:
    """Everything ``run_cluster`` needs for one run of a workload."""

    name: str
    seed: int
    specs: Any  # list[WorkloadSpec] or a lazy WorkloadStream
    policy: Callable[[], Any]
    config: SimulationConfig
    kwargs: dict = field(default_factory=dict)

    @property
    def submitted(self) -> int:
        """Number of jobs the run submits."""
        return len(self.specs)


def fleet_fused(seed: int) -> Workload:
    """64 one-slot workers on the fused fleet engine, NA policy."""
    sc = two_thousand_job(seed=seed, n_jobs=FLEET_FUSED_JOBS)
    return Workload(
        name="fleet_fused",
        seed=seed,
        specs=list(sc.specs),
        policy=NAPolicy,
        config=SimulationConfig(
            seed=seed,
            trace=False,
            fleet_mode=True,
            contention=ContentionModel.ideal(),
            sample_interval=2.0,
        ),
        kwargs=dict(
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            placement="spread",
        ),
    )


def node_flowcon(seed: int) -> Workload:
    """The paper's system: FlowCon on one node, serial engine."""
    return Workload(
        name="node_flowcon",
        seed=seed,
        specs=fifty_job(seed=seed),
        policy=partial(FlowConPolicy, FlowConConfig()),
        config=SimulationConfig(seed=seed, trace=False, sample_interval=5.0),
    )


def stream_lossy(seed: int) -> Workload:
    """Short streamed jobs on 256 workers over a lossy control plane."""
    sc = million_job_day(seed=seed, n_jobs=STREAM_LOSSY_JOBS)
    return Workload(
        name="stream_lossy",
        seed=seed,
        specs=sc.workload,
        policy=NAPolicy,
        config=SimulationConfig(
            seed=seed,
            trace=False,
            fleet_mode=True,
            streaming_metrics=True,
            admission="wfq",
            fabric=LOSSY_FABRIC,
            contention=ContentionModel.ideal(),
            sample_interval=5.0,
        ),
        kwargs=dict(
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            placement="spread",
        ),
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "fleet_fused": fleet_fused,
    "node_flowcon": node_flowcon,
    "stream_lossy": stream_lossy,
}

#: The scenarios' own default seeds, used when no seed is given.
DEFAULT_SEEDS = {"fleet_fused": 42, "node_flowcon": 42, "stream_lossy": 0}

#: Scenarios simulated per run set.  One 50-job ``fifty_job`` draw is
#: small: its makespan and mean JCT spread ~16 % (interquartile range
#: over median) across seeds, so ``node_flowcon`` sums four independent
#: draws.  The fleet scenarios spread 3-5 % with one.
SCENARIOS = {"fleet_fused": 1, "node_flowcon": 4, "stream_lossy": 1}

#: Offset between the scenario seeds of one run set; benchmark seeds
#: below it never share a scenario.
SEED_STRIDE = 1_000_000


def scenario_seeds(name: str, seed: int | None = None) -> list[int]:
    """The scenario seeds one run set of workload *name* simulates."""
    base = DEFAULT_SEEDS[name] if seed is None else seed
    return [base + i * SEED_STRIDE for i in range(SCENARIOS[name])]


def build(name: str, seed: int | None = None) -> Workload:
    """Build workload *name* for *seed* (its default seed when ``None``)."""
    return WORKLOADS[name](DEFAULT_SEEDS[name] if seed is None else seed)
