"""One simulation run of one benchmark scenario, in its own process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/one_run.py --workload fleet_fused --seed 42 [--trace]

Prints one JSON object: host timings, the time of a fixed calibration
loop run just before and after the simulation (``calib_s``, their mean),
the run's simulated results, its completion digest and the outcome of
the correctness checks; with ``--trace`` also the per-layer table of the
outside-in traced run.
``perfbench/run.py`` starts one such process per run.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

from repro.experiments import runner  # noqa: E402
from repro.simcore.engine import Simulator  # noqa: E402
from repro.simcore.events import EventKind  # noqa: E402


class FirstStep:
    """One-shot stamp of the first ``Simulator.step`` call.

    Installs itself over the class attribute, records the host time of
    the first call, and puts the previous attribute back before
    stepping, so every later step pays nothing.
    """

    def __init__(self) -> None:
        self.time: float | None = None
        self._original = Simulator.__dict__["step"]

        def step(sim):
            self.time = perf_counter()
            self.restore()
            return self._original(sim)

        Simulator.step = step

    def restore(self) -> None:
        Simulator.step = self._original


class _Item:
    __slots__ = ("t", "k", "v")

    def __init__(self, t: float, k: int, v: int) -> None:
        self.t, self.k, self.v = t, k, v


def calibrate(n: int = 50_000) -> float:
    """Host seconds a fixed pure-Python loop takes: the CPU's speed now.

    The loop is frozen here, outside ``src/``, so a change to the
    simulator never changes it.  Like the simulator it pushes and pops
    a heap of tuples, builds small objects and updates a dict.
    """
    t0 = perf_counter()
    heap, acc = [], {}
    for i in range(n):
        item = _Item(i * 0.1, i % 61, i)
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i, item))
        if len(heap) > 128:
            item = heapq.heappop(heap)[2]
            acc[item.k] = acc.get(item.k, 0.0) + item.v * item.t
    return perf_counter() - t0


def digest(summary) -> str:
    """sha256 of the run's completion record.

    Dense runs hash ``repr`` of the label-ordered completion times.
    Streaming runs keep no per-job record, so they hash ``repr`` of the
    sink's exact aggregates (counts, sums, extremes, sketch contents).
    """
    if summary.streaming:
        s = summary.stream
        record = (
            s.n_placed,
            s.n_completed,
            s.first_submit,
            s.last_finish,
            s.total_completion_time,
            s.max_completion_time,
            s.total_queue_delay,
            s.max_queue_delay,
            s.completion_sketch.quantile(0.5),
            s.queue_sketch.quantile(0.95),
        )
    else:
        record = summary.completion_times()
    return hashlib.sha256(repr(record).encode()).hexdigest()


def check(result, workload) -> list[str]:
    """Exactly-once accounting: every submitted job completed xor failed."""
    summary = result.summary
    failed = set(summary.failed_jobs)
    submitted = workload.submitted
    errors = []
    if summary.streaming:
        done = summary.stream.n_completed
        if done + len(failed) != submitted:
            errors.append(
                f"{done} completed + {len(failed)} failed != "
                f"{submitted} submitted"
            )
        return errors
    labels = [c.label for c in summary.completions]
    done = set(labels)
    expected = {spec.label for spec in workload.specs}
    if len(done) != len(labels):
        errors.append("a label completed more than once")
    if done & failed:
        errors.append(f"{len(done & failed)} labels completed and failed")
    if len(labels) + len(failed) != submitted:
        errors.append(
            f"{len(labels)} completed + {len(failed)} failed != "
            f"{submitted} submitted"
        )
    if done | failed != expected:
        errors.append("completed/failed labels differ from the submitted set")
    return errors


def sim_metrics(result) -> dict[str, float]:
    """The exact simulated results of one run.

    JCT is completion minus submission to the manager: the admission
    queue delay plus the container's run time.
    """
    summary = result.summary
    if summary.streaming:
        s = summary.stream
        jct = (s.total_completion_time + s.total_queue_delay) / s.n_completed
        p95 = s.quantile_queue_delay(0.95)
    else:
        delays = summary.queue_delays
        jct = float(np.mean([
            c.completion_time + delays.get(c.label, 0.0)
            for c in summary.completions
        ]))
        p95 = summary.quantile_queue_delay(0.95)
    return {
        "sim_makespan_s": float(summary.makespan),
        "sim_mean_jct_s": jct,
        "sim_p95_queue_delay_s": float(p95),
    }


def layer_table(tr: tracing.Tracer, result, t_first: float):
    """Per-layer metrics of a traced run, from its spans and counts.

    Returns the metric table and each layer's summed self time; the
    latter add up to the ``run_cluster`` span, since every span's time
    is its self time plus its children's.
    """
    cols = tr.arrays()
    names = tr.names
    ids = {n: i for i, n in enumerate(names)}
    self_s = tracing.self_times(
        cols["start"], cols["end"], cols["name"], cols["parent"], len(names)
    )

    def calls(stem):
        return tr.counts[ids[stem]] if stem in ids else 0

    def own(stem):
        return float(self_s[ids[stem]]) if stem in ids else 0.0

    # The root span's self time splits at the first step: before it is
    # assembly and submission, after it the runner's drive loop.
    root = ids[tracing.ROOT]
    is_root = cols["name"] == root
    r0 = float(cols["start"][is_root][0])
    r1 = float(cols["end"][is_root][0])
    idx = np.flatnonzero(is_root)[0]
    kids = cols["parent"] == idx
    dur = cols["end"] - cols["start"]
    early = kids & (cols["start"] < t_first)
    setup_self = (t_first - r0) - float(dur[early].sum())
    drive_self = own(tracing.ROOT) - setup_self

    fabric = result.summary.fabric_stats
    sent = fabric.get("messages_sent", 0.0)
    resends = fabric.get("message_retries", 0.0)
    delivered = fabric.get("messages_delivered", 0.0)
    pushes = calls("equeue.push")
    selects = calls("placement.select")
    batches = tr.fleet_batches
    m = {
        "engine.step.calls": calls("engine.step"),
        "engine.step.self_s": own("engine.step"),
    }
    for kind in EventKind:
        m[f"engine.events.{kind.value}"] = tr.event_kinds.get(kind.value, 0)
    m.update({
        "equeue.push.calls": pushes,
        "equeue.pop.calls": calls("equeue.pop"),
        "equeue.cancel.calls": calls("equeue.cancel"),
        "equeue.self_s": own("equeue.push") + own("equeue.pop")
        + own("equeue.cancel"),
        "equeue.cancel_ratio":
            calls("equeue.cancel") / pushes if pushes else 0.0,
        "fleet.settle.self_s": own("fleet.settle"),
        "fleet.reallocate.self_s": own("fleet.reallocate"),
        "fleet.sample.self_s": own("fleet.sample"),
        "fleet.batches": batches,
        "fleet.rows_per_batch": tr.fleet_rows / batches if batches else 0.0,
        "worker.settle.calls": calls("worker.settle"),
        "worker.settle.self_s": own("worker.settle"),
        "worker.poke.self_s": own("worker.poke"),
        "worker.launch.calls": calls("worker.launch"),
        "worker.launch.self_s": own("worker.launch"),
        "worker.has_headroom.calls": calls("worker.has_headroom"),
        "allocator.allocate.calls": calls("allocator.allocate"),
        "allocator.allocate.self_s": own("allocator.allocate"),
        "allocator.allocate_segmented.calls":
            calls("allocator.allocate_segmented"),
        "allocator.allocate_segmented.self_s":
            own("allocator.allocate_segmented"),
        "obsbus.observe.calls": calls("obsbus.observe"),
        "obsbus.observe.self_s": own("obsbus.observe"),
        "obsbus.sample.calls": calls("obsbus.sample"),
        "cgroup.window_mean_cached.calls": calls("cgroup.window_mean_cached"),
        "curves.value.calls": calls("curves.value"),
        "core.run_algorithm.calls": calls("core.run_algorithm"),
        "core.run_algorithm.self_s": own("core.run_algorithm"),
        "core.measure.self_s": own("core.measure"),
        "core.listener_step.calls": calls("core.listener_step"),
        "recorder.sample_now.calls": calls("recorder.sample_now"),
        "recorder.sample_now.self_s": own("recorder.sample_now"),
        "placement.select.calls": selects,
        "placement.select.self_s": own("placement.select"),
        "admission.push.calls": calls("admission.push"),
        "admission.pop.calls": calls("admission.pop"),
        "manager.eligible_workers.self_s": own("manager.eligible_workers"),
        "manager.headroom_per_placement":
            calls("worker.has_headroom") / selects if selects else 0.0,
        "fabric.send.calls": calls("fabric.send"),
        "fabric.send.self_s": own("fabric.send"),
        "fabric.sent": sent,
        "fabric.delivered": delivered,
        "fabric.dropped": fabric.get("messages_dropped", 0.0),
        "fabric.resends": resends,
        "fabric.duplicates_suppressed":
            fabric.get("duplicates_suppressed", 0.0),
        "fabric.delivered_ratio":
            delivered / (sent + resends) if sent + resends else 0.0,
        "runner.setup.self_s": setup_self,
        "runner.drive.self_s": drive_self,
        "trace.run_cluster_s": r1 - r0,
    })
    # Count-only layers have no spans, so no self time of their own.
    layers = {
        layer: sum(own(stem) for stem in {e[4] for e in entries})
        for layer, entries in tracing.REGISTRY.items()
        if any(e[3] == tracing.SPAN for e in entries)
    }
    layers["experiments.runner"] = setup_self + drive_self
    for layer, seconds in layers.items():
        m[f"share.{layer}"] = seconds / (r1 - r0)
    return m, layers


def run_once(name: str, seed: int, traced: bool, spans_out: str | None):
    """Build, run and check one scenario; return the result record."""
    calib_before = calibrate()
    tr = tracing.Tracer().install() if traced else None
    stamp = None
    try:
        t0 = perf_counter()
        stamp = FirstStep()
        workload = build(name, seed)
        call = (
            runner.run_cluster
            if tr is None
            else tr.span(tracing.ROOT, runner.run_cluster)
        )
        result = call(
            workload.specs, workload.policy, workload.config,
            **workload.kwargs,
        )
        t_end = perf_counter()
    finally:
        if stamp is not None:
            stamp.restore()
        if tr is not None:
            tr.uninstall()
    calib_s = (calib_before + calibrate()) / 2
    errors = check(result, workload)
    events = result.sim.events_processed
    rec = {
        "workload": name,
        "seed": seed,
        "setup_s": stamp.time - t0,
        "run_s": t_end - stamp.time,
        "calib_s": calib_s,
        "events": events,
        "submitted": workload.submitted,
        "failed": len(result.summary.failed_jobs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": digest(result.summary),
        "errors": errors,
        **sim_metrics(result),
    }
    if tr is not None:
        rec["layers"], rec["layer_self_s"] = layer_table(
            tr, result, stamp.time
        )
        wall = rec["layers"]["trace.run_cluster_s"]
        total = sum(rec["layer_self_s"].values())
        if abs(total - wall) > 1e-6 * wall:
            errors.append(
                f"layer self times sum to {total!r}s, run_cluster took "
                f"{wall!r}s"
            )
        if spans_out:
            tr.save(spans_out)
    return rec


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rec = run_once(args.workload, args.seed, args.trace, args.spans_out)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
