"""Worker-pass arena: settle, reallocate and sample, one or many workers.

FlowCon's controller runs one settle → reallocate → observe pass per
worker per tick (§3.1).  This module holds the one implementation of
each phase, written over a packed ``(worker, container)`` arena with
per-worker segment offsets:

* **Settle** — :func:`fleet_settle` packs the stale workers'
  active-container arrays (the runtime-version-keyed footprint caches)
  into contiguous arrays, computes work and cgroup-contribution rows in
  one numpy pass, and applies them per container.
  :meth:`Worker.settle <repro.cluster.worker.Worker.settle>` is the
  one-worker case.
* **Reallocate** — :func:`fleet_reallocate` runs each worker's
  ``_realloc_begin`` (version bump + per-worker jitter draws, preserving
  every RNG stream's draw order), hands all allocator inputs to
  :meth:`repro.containers.allocator.CpuAllocator.allocate_segmented`
  grouped by allocation mode, and finishes each worker with its own
  ``_realloc_finish``.
* **Sample** — :func:`fleet_sample` (dense recorders) and
  :func:`fleet_sample_streaming` compute every ``(recorder, container)``
  window mean in one broadcast and advance the recorders' windows,
  series and growth histories.  They do the observation bus's pass
  bookkeeping themselves (:func:`_observe_bypassed`) instead of building
  observation records nobody reads;
  :meth:`MetricsRecorder.sample_now
  <repro.metrics.recorder.MetricsRecorder.sample_now>` is the
  one-recorder case.

On a fleet the sampling grid is *shared* — all recorders start together
and tick at the same cadence — so nearly all ``METRIC_SAMPLE`` events
land on the same instants.  The :class:`FleetTicker` registers an
engine-level batcher
(:meth:`repro.simcore.engine.Simulator.register_batcher`) for them and,
whenever several workers sample at one instant, runs the three phases
once for all of them.  Batched events whose recorder was handled by the
fused pass do **not** fire — the pass *is* their firing
(``events_processed`` still counts them; the engine counted each pop).
Any other batched event — a stopped recorder's, or a foreign payload's —
fires normally, in pop order.

Bit-identity invariants
-----------------------
* Sampling events carry the highest priority number (fire last at any
  instant), and workers are state-independent at sampling instants with
  per-worker RNG streams, so reordering the *cross-worker* interleaving
  of settle/reallocate/sample cannot change any per-worker state.
* The packed phases perform the same element-wise IEEE operations in the
  same per-element order as a one-worker pass, and run the same
  per-worker code (``_realloc_begin``/``_realloc_finish``, the
  per-segment water-fill) on identical inputs — equal inputs ⇒ equal
  bits.  The golden fixtures pin this.
* Workers already settled or poked at this instant are skipped exactly
  as their own ``settle()``/``poke()`` would no-op; recorders that were
  stopped (their event still fires and returns early) contribute no
  worker to the pre-pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.containers.cgroup import CgroupAccount
from repro.simcore.engine import Simulator
from repro.simcore.events import Event, EventKind
from repro.workloads.job import TrainingJob

if TYPE_CHECKING:  # pragma: no cover - worker and recorder import fleet
    from repro.cluster.worker import Worker
    from repro.metrics.recorder import MetricsRecorder

__all__ = [
    "FleetTicker",
    "fleet_reallocate",
    "fleet_sample",
    "fleet_sample_streaming",
    "fleet_settle",
]


def fleet_settle(workers: list[Worker]) -> None:
    """Integrate every worker's progress from its last settle to now.

    The one settlement implementation: :meth:`Worker.settle` is
    ``fleet_settle([worker])``.  Each worker delivers ``alloc · eff ·
    dt`` CPU-seconds to every running job and adds ``usage · dt`` to its
    cgroup counters.  Workers whose footprints are all plain
    ``ResourceSpec`` objects are packed into one arena (a lone worker
    uses its own arrays with a scalar ``eff``/``dt``, the same per-element
    IEEE ops without the concatenation); workers with dynamic footprints,
    which may override ``usage_at``, are settled container at a time.
    """
    if not workers:
        return
    now = workers[0].sim.now
    segments: list[tuple[Worker, list, tuple, float, float]] = []
    for w in workers:
        dt = now - w._last_settle
        if dt <= 0:
            continue
        w._last_settle = now
        active = w._active
        if not active:
            continue
        arrays, mem = w._footprint_state()
        if arrays is not None:
            segments.append((w, active, arrays, mem, dt))
            continue
        # Dynamic footprints: re-read every footprint on every settle.
        eff = w.contention.efficiency(len(active), w.memory_used())
        for container, alloc in zip(active, w._allocs):
            container.job.advance(alloc * eff * dt)
            container.cgroup.accumulate(dt, container.usage_at(alloc))
            container.cgroup.checkpoint()
    if not segments:
        return
    if len(segments) == 1:
        w, active, (demands, mems, blkios, netios), mem, dts = segments[0]
        allocs = w._allocs
        effs = w.contention.efficiency(len(active), mem)
        lens = [len(active)]
    else:
        lens = [len(active) for _, active, _, _, _ in segments]
        allocs = np.concatenate([w._allocs for w, _, _, _, _ in segments])
        demands = np.concatenate([a[0] for _, _, a, _, _ in segments])
        mems = np.concatenate([a[1] for _, _, a, _, _ in segments])
        blkios = np.concatenate([a[2] for _, _, a, _, _ in segments])
        netios = np.concatenate([a[3] for _, _, a, _, _ in segments])
        effs = np.repeat(
            np.array(
                [
                    w.contention.efficiency(len(active), mem)
                    for w, active, _, mem, _ in segments
                ],
                dtype=np.float64,
            ),
            lens,
        )
        dts = np.repeat(
            np.array([dt for _, _, _, _, dt in segments], dtype=np.float64),
            lens,
        )
    # Per element: work = (alloc * eff) * dt, and the usage row
    # (min(alloc, demand), mem, blkio·scale, netio·scale) times dt.
    work = allocs * effs * dts
    rates = np.minimum(allocs, demands)
    scales = rates / demands
    contrib = np.empty((sum(lens), 4), dtype=np.float64)
    contrib[:, 0] = rates * dts
    contrib[:, 1] = mems * dts
    contrib[:, 2] = blkios * scales * dts
    contrib[:, 3] = netios * scales * dts
    work_list = work.tolist()
    off = 0
    for (w, active, _, _, dt), n in zip(segments, lens):
        end = off + n
        for container, delivered, row in zip(
            active, work_list[off:end], contrib[off:end]
        ):
            # Inlined Job.advance / CgroupAccount.settle_add hot paths
            # (same guards, same arithmetic); subclasses that override
            # either method keep their own implementation.
            job = container.job
            if type(job) is TrainingJob and delivered >= 0:
                job.work_done = min(job.total_work, job.work_done + delivered)
            else:
                job.advance(delivered)
            acct = container.cgroup
            if type(acct) is CgroupAccount:
                acct._integral += row
                acct.last_update += dt
                cp = acct._n
                if cp == acct._cp_t.shape[0]:
                    acct._grow()
                    cp = acct._n
                acct._cp_t[cp] = acct.last_update
                acct._cp_v[cp] = acct._integral
                acct._n = cp + 1
            else:
                acct.settle_add(dt, row)
        off = end


def fleet_reallocate(workers: list[Worker]) -> None:
    """Reallocate every worker's pool via one segmented allocation.

    Equivalent to ``for w in workers: w.poke()``'s reallocation half:
    same-instant already-poked workers are skipped (poke coalescing),
    each participating worker runs its own ``_realloc_begin`` (so jitter
    draws stay on the per-worker streams in the per-worker order), the
    allocator inputs go through one
    :meth:`~repro.containers.allocator.CpuAllocator.allocate_segmented`
    call per allocation mode, and each worker's ``_realloc_finish``
    applies its shares and reschedules its exits, in worker order.
    """
    if not workers:
        return
    now = workers[0].sim.now
    pending: list[tuple[Worker, tuple]] = []
    for w in workers:
        if (now, w.version) == w._last_poke:
            continue
        inputs = w._realloc_begin()
        if inputs is None:
            w._last_poke = (now, w.version)
            continue
        pending.append((w, inputs))
    if not pending:
        return
    by_mode: dict = {}
    for idx, (w, _) in enumerate(pending):
        by_mode.setdefault(w.allocator.mode, []).append(idx)
    allocs: list = [None] * len(pending)
    for idxs in by_mode.values():
        if len(idxs) == 1:
            i = idxs[0]
            w, (limits, demands, weights, _) = pending[i]
            allocs[i] = w.allocator.allocate(
                w.capacity, limits, demands, weights
            )
        else:
            entries = [pending[i] for i in idxs]
            segmented = entries[0][0].allocator.allocate_segmented(
                [w.capacity for w, _ in entries],
                [inp[0] for _, inp in entries],
                [inp[1] for _, inp in entries],
                [inp[2] for _, inp in entries],
            )
            for i, alloc in zip(idxs, segmented):
                allocs[i] = alloc
    # Exits are pushed in worker order, so queue sequence numbers — the
    # heap tie-break — match a per-worker poke loop exactly.
    for (w, inputs), alloc in zip(pending, allocs):
        w._realloc_finish(alloc, inputs[3])
        w._last_poke = (now, w.version)


def _observe_bypassed(worker: Worker, now: float, containers: list) -> None:
    """The bookkeeping of an ``ObservationBus.observe()`` pass, unbuilt.

    Advance the ``(now, version)`` pass cache key, bump the pass counter
    and run the bus's amortized prune on its cadence (every 16th pass)
    over *containers* — the set ``observe()`` would have observed.
    Pass-count fidelity matters because a post-migration window clamp
    reads ``history_floor``, whose value depends on when pruning ran.  An
    observer that fired earlier this instant already advanced the key,
    and then there is nothing to do.  The observation list is left
    unbuilt: a later same-key ``observe()`` builds it without counting a
    second pass.
    """
    bus = worker.obsbus
    key = (now, worker.version)
    if bus._cache_key == key:
        return
    bus._cache_key = key
    bus._cache = None
    bus.passes += 1
    if bus.prune and bus._samplers and bus.passes % 16 == 0:
        bus._prune(now, containers)


def fleet_sample(recorders: list[MetricsRecorder]) -> int:
    """One packed sampling pass over dense recorders.

    The only sampling code of a dense :class:`MetricsRecorder`: its
    ``sample_now()`` pokes its worker and calls ``fleet_sample([self])``,
    and the :class:`FleetTicker` calls it once for a whole same-instant
    batch after settling and reallocating the batch's workers.  Every
    recorder's worker must already be settled and poked at this instant.

    * The observation-bus bookkeeping runs first, per worker
      (:func:`_observe_bypassed`), before any window is read.
    * Window ends are the accounts' live counters, which the settle just
      advanced to *now*.  Window starts reuse the recorder's own snapshot
      of its previous window end (``_win_cache``) and otherwise fall back
      to :meth:`CgroupAccount._integral_at` — first samples,
      post-migration windows and pruned-floor clamps.  Starts are
      clamped up to ``history_floor`` exactly as
      :meth:`BusSampler.sample <repro.cluster.obsbus.BusSampler.sample>`
      clamps them.
    * The mean ``(end − start) / Δt`` is one broadcast over the packed
      ``(N, 4)`` rows, the same per-element subtract and divide as
      :meth:`CgroupAccount.window_mean_cached`.
    * Each container then advances its sampler window and appends to its
      step series and growth history.  Zero-length windows skip the
      container; the first evaluation reading only seeds the history.

    Returns the number of window means computed.
    """
    recs = []
    total = 0
    now = recorders[0].worker.sim.now
    for r in recorders:
        # Per-container lookups — trace series, account, growth history —
        # only change with the runtime table, so they ride a cache keyed
        # on its version; a launch, attach, detach or crash rebuilds it
        # (creating traces for new containers).
        worker = r.worker
        rv = worker.runtime.version
        cached = r._statics
        if cached is not None and cached[0] == rv:
            _, statics, containers, res_idx = cached
        else:
            containers = worker.running_containers()
            traces = r.traces
            histories = r._tracker._histories
            res_idx = r._tracker.resource.index
            statics = []
            for container in containers:
                cid = container.cid
                trace = traces.get(cid)
                if trace is None:
                    trace = r._trace_for(container)
                statics.append(
                    [
                        trace.cpu_usage,
                        trace.cpu_limit,
                        trace.eval_value,
                        trace.growth,
                        container,
                        container.cgroup,
                        cid,
                        histories.get(cid),
                    ]
                )
            r._statics = (rv, statics, containers, res_idx)
        _observe_bypassed(worker, now, containers)
        last = r._sampler._last_sample
        entries = []
        for st in statics:
            t_prev = last.get(st[6])
            if t_prev is None or t_prev < st[5].history_floor:
                # A first sample's window starts at the account floor
                # (creation, or the pruned floor after a migration).  A
                # held-over window falls below the floor when the
                # container migrated away, the other node's bus pruned
                # past this recorder's last window, and the container
                # migrated back.
                t_prev = st[5].history_floor
            if now <= t_prev:
                continue  # zero-length window: duplicate poll, skip
            entries.append((st, t_prev))
        recs.append((r, last, entries, res_idx))
        total += len(entries)
    if not total:
        return 0
    ends = np.empty((total, 4), dtype=np.float64)
    starts = np.empty((total, 4), dtype=np.float64)
    dts = np.empty((total, 1), dtype=np.float64)
    i = 0
    for r, _, entries, _ in recs:
        win_cache = r._win_cache
        for st, t_prev in entries:
            acct = st[5]
            ends[i] = acct._integral
            cached = win_cache.get(st[6])
            if cached is not None and cached[0] == t_prev:
                starts[i] = cached[1]
            else:
                starts[i] = acct._integral_at(t_prev)
            dts[i, 0] = now - t_prev
            i += 1
    means_l = ((ends - starts) / dts).tolist()
    ends_l = ends.tolist()
    i = 0
    t = now
    for r, last, entries, res_idx in recs:
        tracker = r._tracker
        win_cache = r._win_cache
        for st, t_prev in entries:
            row = means_l[i]
            end_row = ends_l[i]
            i += 1
            container = st[4]
            cid = st[6]
            last[cid] = t
            win_cache[cid] = (t, end_row)
            st[0].append(t, row[0])
            st[1].append(t, container.limits.cpu)
            try:
                ev_val = container.job.eval_value()
            except Exception:  # job may not expose E(t)
                continue
            if ev_val is None:
                continue
            st[2].append(t, ev_val)
            hist = st[7]
            if hist is None:
                hist = st[7] = tracker.history(cid)
            sample = hist.observe_usage(t, ev_val, row[res_idx])
            if sample is not None:
                st[3].append(t, sample.growth)
        # Exited containers leave stale snapshots behind; a reset is safe
        # (every snapshot is recomputable via _integral_at).
        if len(win_cache) > 4 * len(entries) + 1024:
            win_cache.clear()
    return total


def fleet_sample_streaming(recorders: list[MetricsRecorder]) -> int:
    """Packed sampling pass for *streaming* recorders.

    A streaming recorder keeps no series: sampling only does the bus
    bookkeeping (cache key, pass counter, amortized prune) and advances
    the sampler windows (``_last_sample[cid] = now``), under the same
    guards as :func:`fleet_sample` — the history-floor clamp and the
    zero-length-window skip of :meth:`BusSampler.sample`, which advances
    a window precisely when the clamped window has positive length.  The
    window mean itself is a pure read and is never computed.  Returns
    the number of windows advanced.
    """
    total = 0
    now = recorders[0].worker.sim.now
    for r in recorders:
        containers = r.worker.running_containers()
        _observe_bypassed(r.worker, now, containers)
        last = r._sampler._last_sample
        for container in containers:
            cid = container.cid
            t_prev = last.get(cid)
            if t_prev is None or t_prev < container.cgroup.history_floor:
                t_prev = container.cgroup.history_floor
            if now <= t_prev:
                continue  # zero-length window: duplicate poll, skip
            last[cid] = now
            total += 1
    return total


class FleetTicker:
    """Coalesces same-instant sampling ticks into one fused fleet pass.

    The runner arms one on every run.  :meth:`arm` registers the engine
    batcher for ``METRIC_SAMPLE`` events; nothing else needs wiring — the
    batch handler discovers the recorders (and through them the workers)
    from each event's payload, so provisioned, recovered and stopped
    recorders are handled without any lifecycle bookkeeping here.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Fused pre-passes executed (observability/testing).
        self.fused_batches = 0
        #: Events that arrived through the batcher, fused or not.
        self.batched_events = 0
        #: Window means computed by the packed sampling pass.
        self.fused_samples = 0

    def arm(self) -> None:
        """Register the METRIC_SAMPLE batcher on the simulator."""
        self.sim.register_batcher(EventKind.METRIC_SAMPLE, self._on_batch)

    def disarm(self) -> None:
        """Unregister the batcher (events fire one by one again)."""
        self.sim.unregister_batcher(EventKind.METRIC_SAMPLE)

    def _on_batch(self, events: list[Event]) -> None:
        # The engine only routes genuine same-instant batches (size ≥ 2)
        # here; lone ticks fire directly.
        self.batched_events += len(events)
        fused: set[int] = set()
        recorders: list[MetricsRecorder] = []
        workers: list[Worker] = []
        seen: set[int] = set()
        for ev in events:
            # A recorder tick is an event firing its payload's own
            # ``_on_sample``; any other payload is foreign.
            recorder = ev.payload
            if (
                ev.callback == getattr(recorder, "_on_sample", None)
                and recorder._started
            ):
                recorders.append(recorder)
                worker = recorder.worker
                if id(worker) not in seen:
                    seen.add(id(worker))
                    workers.append(worker)
        if len(workers) > 1:
            self.fused_batches += 1
            fleet_settle(workers)
            fleet_reallocate(workers)
            dense = [r for r in recorders if not r.streaming]
            streaming = [r for r in recorders if r.streaming]
            if dense:
                self.fused_samples += fleet_sample(dense)
            if streaming:
                self.fused_samples += fleet_sample_streaming(streaming)
            # The next ticks are pushed as each ``_on_sample`` would push
            # them, dense recorders first, so queue sequence numbers stay
            # in that order.
            for r in dense:
                r._schedule_sample()
            for r in streaming:
                r._schedule_sample()
            fused = {id(r) for r in recorders}
        # Fire the remaining events in pop order.  Recorders handled by
        # the fused pass are done — their sampling and rescheduling
        # already happened exactly as ``_on_sample`` would have done them
        # — so their events must not fire again.  Stopped recorders' and
        # foreign payloads' events fire normally.
        for ev in events:
            if fused and id(ev.payload) in fused:
                continue
            ev.fire()
