"""Outside-in per-layer tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
replaces the public entry points of each layer — listed in
:data:`REGISTRY` as ``(module, owner, attribute)`` — with wrappers, at
the place their callers look them up: class attributes for methods
(every class in the hierarchy that defines the attribute itself), module
globals for functions (``FleetTicker`` calls ``fleet_settle`` through the
``repro.cluster.fleet`` module global, so that global is what gets
wrapped).  :meth:`Tracer.uninstall` puts every original back.

Two wrapper kinds:

* a **span** records ``(name, start, end, parent)`` into flat in-memory
  arrays; self time (a span minus its child spans) is computed once at
  the end by :func:`self_times`;
* a **count** only increments a counter.  Functions called once per
  container row (``has_headroom``, ``ConvergenceCurve.value``,
  ``window_mean_cached``, ``BusSampler.sample``) are counted, not
  spanned, so tracing stays cheap; their time lands in the enclosing
  span's self time.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

__all__ = ["REGISTRY", "Tracer", "self_times"]

SPAN = "span"
COUNT = "count"

#: layer → ``(module, owner class or None, attribute, kind, metric stem)``.
#: Several entries may share a stem (both fused sampling passes feed
#: ``fleet.sample``).
REGISTRY: dict[str, list[tuple[str, str | None, str, str, str]]] = {
    "simcore.engine": [
        ("repro.simcore.engine", "Simulator", "step", SPAN, "engine.step"),
    ],
    "simcore.equeue": [
        ("repro.simcore.equeue", "EventQueue", "push", SPAN, "equeue.push"),
        ("repro.simcore.equeue", "EventQueue", "pop", SPAN, "equeue.pop"),
        ("repro.simcore.equeue", "EventQueue", "cancel", SPAN,
         "equeue.cancel"),
    ],
    "cluster.fleet": [
        ("repro.cluster.fleet", None, "fleet_settle", SPAN, "fleet.settle"),
        ("repro.cluster.fleet", None, "fleet_reallocate", SPAN,
         "fleet.reallocate"),
        ("repro.cluster.fleet", None, "fleet_sample", SPAN, "fleet.sample"),
        ("repro.cluster.fleet", None, "fleet_sample_streaming", SPAN,
         "fleet.sample"),
    ],
    "cluster.worker": [
        ("repro.cluster.worker", "Worker", "settle", SPAN, "worker.settle"),
        ("repro.cluster.worker", "Worker", "poke", SPAN, "worker.poke"),
        ("repro.cluster.worker", "Worker", "launch", SPAN, "worker.launch"),
        ("repro.cluster.worker", "Worker", "has_headroom", COUNT,
         "worker.has_headroom"),
    ],
    "containers.allocator": [
        ("repro.containers.allocator", "CpuAllocator", "allocate", SPAN,
         "allocator.allocate"),
        ("repro.containers.allocator", "CpuAllocator", "allocate_segmented",
         SPAN, "allocator.allocate_segmented"),
    ],
    "cluster.obsbus": [
        ("repro.cluster.obsbus", "ObservationBus", "observe", SPAN,
         "obsbus.observe"),
        ("repro.cluster.obsbus", "BusSampler", "sample", COUNT,
         "obsbus.sample"),
    ],
    "containers.cgroup": [
        ("repro.containers.cgroup", "CgroupAccount", "window_mean_cached",
         COUNT, "cgroup.window_mean_cached"),
    ],
    "workloads.curves": [
        ("repro.workloads.curves", "ConvergenceCurve", "value", COUNT,
         "curves.value"),
    ],
    "core": [
        ("repro.core.executor", "Executor", "run_algorithm", SPAN,
         "core.run_algorithm"),
        ("repro.core.monitor", "ContainerMonitor", "measure", SPAN,
         "core.measure"),
        ("repro.core.executor", "Executor", "_listener_step", SPAN,
         "core.listener_step"),
    ],
    "metrics": [
        ("repro.metrics.recorder", "MetricsRecorder", "sample_now", SPAN,
         "recorder.sample_now"),
    ],
    "cluster.placement": [
        ("repro.cluster.placement", "PlacementPolicy", "select", SPAN,
         "placement.select"),
    ],
    "cluster.admission": [
        ("repro.cluster.admission", "AdmissionPolicy", "push", COUNT,
         "admission.push"),
        ("repro.cluster.admission", "AdmissionPolicy", "pop", COUNT,
         "admission.pop"),
    ],
    "cluster.manager": [
        ("repro.cluster.manager", "Manager", "_eligible_workers", SPAN,
         "manager.eligible_workers"),
    ],
    "cluster.fabric": [
        ("repro.cluster.fabric", "FabricPolicy", "send", SPAN, "fabric.send"),
    ],
}

#: Root span around the whole ``run_cluster`` call (opened by the caller).
ROOT = "runner.run_cluster"


def _owners(cls: type, attr: str) -> list[type]:
    """*cls* and every subclass that defines *attr* in its own body."""
    found, todo, seen = [], [cls], set()
    while todo:
        c = todo.pop()
        if c in seen:
            continue
        seen.add(c)
        if attr in c.__dict__:
            found.append(c)
        todo.extend(c.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


class Tracer:
    """Installs the registry's wrappers and keeps spans and counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: list[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        #: ``EventKind`` value → events dispatched (batched pops included).
        self.event_kinds: dict[str, int] = {}
        #: Fused batches and the running containers they covered.
        self.fleet_batches = 0
        self.fleet_rows = 0

    # -- registry -------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return nid

    def install(self) -> "Tracer":
        """Wrap every registry entry (idempotent per tracer)."""
        if self._saved:
            return self
        for entries in REGISTRY.values():
            for module, owner, attr, kind, stem in entries:
                mod = importlib.import_module(module)
                if owner is None:
                    self._wrap(mod, attr, kind, stem)
                else:
                    for cls in _owners(getattr(mod, owner), attr):
                        self._wrap(cls, attr, kind, stem)
        return self

    def uninstall(self) -> None:
        """Put back every original attribute, in reverse order."""
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _wrap(self, target, attr: str, kind: str, stem: str) -> None:
        original = target.__dict__[attr] if isinstance(target, type) else (
            getattr(target, attr)
        )
        if kind == COUNT:
            wrapper = self.counter(stem, original)
        elif stem == "engine.step":
            wrapper = self._step_span(original)
        elif stem == "fleet.settle":
            wrapper = self._settle_span(original)
        else:
            wrapper = self.span(stem, original)
        self._saved.append((target, attr, original))
        setattr(target, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def counter(self, name: str, fn):
        """Wrap *fn* to count its calls."""
        counts, nid = self.counts, self._id(name)

        def counted(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def span(self, name: str, fn):
        """Wrap *fn* to record one span per call."""
        nid = self._id(name)
        counts, stack = self.counts, self._stack
        starts, ends = self.starts, self.ends
        name_ids, parents = self.name_ids, self.parents

        def spanned(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            counts[nid] += 1
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        spanned.__wrapped__ = fn
        return spanned

    def _step_span(self, fn):
        """``Simulator.step`` span that also counts events per kind."""
        inner = self.span("engine.step", fn)
        kinds = self.event_kinds

        def step(sim):
            before = sim.events_processed
            event = inner(sim)
            if event is not None:
                key = event.kind.value
                kinds[key] = kinds.get(key, 0) + sim.events_processed - before
            return event

        step.__wrapped__ = fn
        return step

    def _settle_span(self, fn):
        """``fleet_settle`` span that also counts batches and rows."""
        inner = self.span("fleet.settle", fn)

        def settle(workers):
            self.fleet_batches += 1
            self.fleet_rows += sum(
                len(w.running_containers()) for w in workers
            )
            return inner(workers)

        settle.__wrapped__ = fn
        return settle

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns."""
        return {
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "name": np.frombuffer(self.name_ids, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write the spans and the name table to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, name, parent, n_names: int) -> np.ndarray:
    """Summed self time per name id: each span minus its child spans."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return np.bincount(name, weights=dur - child, minlength=n_names)
