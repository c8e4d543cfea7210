"""Self-tests of the benchmark harness; each test checks one thing.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import os
import sys
import unittest
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import one_run  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, build, scenario_seeds  # noqa: E402

from repro.baselines.na import NAPolicy  # noqa: E402
from repro.cluster.contention import ContentionModel  # noqa: E402
from repro.config import SimulationConfig  # noqa: E402
from repro.experiments.runner import run_cluster  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    fifty_job,
    million_job_day,
    two_thousand_job,
)


def registry_attributes() -> dict:
    """``(owner, attribute) -> current value`` for every registry entry."""
    found = {}
    for entries in tracing.REGISTRY.values():
        for module, owner, attr, _, _ in entries:
            mod = importlib.import_module(module)
            owners = (
                [mod] if owner is None
                else tracing._owners(getattr(mod, owner), attr)
            )
            for target in owners:
                found[(target, attr)] = (
                    target.__dict__[attr] if isinstance(target, type)
                    else getattr(target, attr)
                )
    return found


def small_fleet_run():
    """A sub-second fused-fleet run: 40 jobs on the 64-worker fleet."""
    sc = two_thousand_job(seed=3, n_jobs=40)
    result = run_cluster(
        list(sc.specs),
        NAPolicy,
        SimulationConfig(seed=3, trace=False, fleet_mode=True,
                         contention=ContentionModel.ideal(),
                         sample_interval=2.0),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
    )
    return one_run.digest(result.summary), result.sim.events_processed


class TestTracer(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        before = registry_attributes()
        tr = tracing.Tracer().install()
        wrapped = registry_attributes()
        tr.uninstall()
        after = registry_attributes()
        self.assertTrue(all(wrapped[k] is not v for k, v in before.items()))
        self.assertTrue(all(after[k] is v for k, v in before.items()))

    def test_run_after_tracing_is_bit_identical(self):
        plain = small_fleet_run()
        tr = tracing.Tracer().install()
        try:
            traced = small_fleet_run()
        finally:
            tr.uninstall()
        self.assertGreater(sum(tr.counts), 0)
        self.assertEqual(small_fleet_run(), plain)
        self.assertEqual(traced, plain)

    def test_self_times_sum_to_root(self):
        tr = tracing.Tracer()

        def leaf():
            return sum(range(2000))

        def mid():
            return [tr.span("leaf", leaf)() for _ in range(3)]

        def root():
            t_end = perf_counter() + 0.002
            while perf_counter() < t_end:
                pass
            return tr.span("mid", mid)(), tr.span("leaf", leaf)()

        tr.span("root", root)()
        cols = tr.arrays()
        own = tracing.self_times(
            cols["start"], cols["end"], cols["name"], cols["parent"],
            len(tr.names),
        )
        wall = cols["end"][0] - cols["start"][0]
        self.assertEqual(tr.counts, [1, 1, 4])
        self.assertTrue(np.all(own > 0))
        self.assertAlmostEqual(float(own.sum()), wall, delta=1e-9)


class TestWorkloads(unittest.TestCase):
    def test_builders_are_deterministic_per_seed(self):
        for name in WORKLOADS:
            a, b = build(name, 11), build(name, 11)
            self.assertEqual(list(a.specs), list(b.specs), name)
            self.assertEqual(a.config, b.config, name)
            self.assertEqual(a.kwargs, b.kwargs, name)

    def test_seed_argument_reaches_the_scenario(self):
        expected = {
            "fleet_fused": lambda s: list(two_thousand_job(
                seed=s, n_jobs=300).specs),
            "node_flowcon": lambda s: fifty_job(seed=s),
            "stream_lossy": lambda s: list(million_job_day(
                seed=s, n_jobs=2000).workload),
        }
        for name, scenario in expected.items():
            seed = scenario_seeds(name, 5)[0]
            args = one_run.parse_args(run.child_cmd(name, seed)[2:])
            workload = build(args.workload, args.seed)
            self.assertEqual(args.seed, 5, name)
            self.assertEqual(workload.config.seed, 5, name)
            self.assertEqual(list(workload.specs), scenario(5), name)
            self.assertNotEqual(list(workload.specs), scenario(6), name)


if __name__ == "__main__":
    unittest.main()
