"""The metrics recorder: policy-independent observation of a run.

The recorder plays the role of the paper's measurement harness: it samples
every running container at a fixed cadence and keeps per-container step
series of CPU usage, limit, evaluation value and growth efficiency, plus
completion records captured from worker exit hooks.  It is attached to
*every* run — including NA — which is how the paper obtains growth-
efficiency traces for the baseline (Figs. 13–14 plot ``G`` "in both
FlowCon and NA").

The recorder's sampling deliberately calls :meth:`Worker.poke`, which also
re-samples contention jitter; the sampling grid therefore doubles as the
OS-noise granularity (see DESIGN.md §2).  The sample itself is the packed
sampling pass of :mod:`repro.cluster.fleet` over this one recorder — the
same code the fleet ticker runs over every recorder ticking at an
instant.

Streaming mode
--------------
``MetricsRecorder(..., streaming=True)`` trades per-container series for
O(1) memory per container: sampling still pokes the worker, does the
bus pass bookkeeping and advances the sampler windows (so run *dynamics*
— settle points, jitter draws, pruning cadence — are bit-identical to
dense mode), but no step series or growth histories are kept, and
completions fold into a shared
:class:`~repro.metrics.sketch.StreamMetrics` sink instead of a list.
Exited containers are forgotten from the sampler windows, so a
million-job run holds recorder state only for *live* containers.  The
default dense mode is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.fleet import fleet_sample, fleet_sample_streaming
from repro.containers.container import Container
from repro.containers.spec import ResourceType
from repro.core.efficiency import GrowthTracker
from repro.errors import MetricsError
from repro.metrics.summary import CompletionRecord, RunSummary
from repro.metrics.timeseries import StepSeries
from repro.simcore.events import PRIORITY_SAMPLE, Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (worker → fleet)
    from repro.cluster.worker import Worker

__all__ = ["ContainerTrace", "MetricsRecorder"]


@dataclass
class ContainerTrace:
    """All step series recorded for one container."""

    cid: int
    label: str
    image: str
    cpu_usage: StepSeries = field(default_factory=lambda: StepSeries("cpu"))
    cpu_limit: StepSeries = field(default_factory=lambda: StepSeries("limit"))
    eval_value: StepSeries = field(default_factory=lambda: StepSeries("eval"))
    growth: StepSeries = field(default_factory=lambda: StepSeries("growth"))


class MetricsRecorder:
    """Samples one worker for the duration of a run.

    Parameters
    ----------
    worker:
        The worker to observe.
    sample_interval:
        Sampling cadence in seconds.
    resource:
        Resource dimension for the recorded growth efficiency.
    streaming:
        When ``True``, keep no per-container series or completion list —
        O(1) memory per container; completions fold into *sink* (when
        given) and exited containers are forgotten.  Dense-mode
        dynamics are preserved exactly (same poke/observe cadence).
    sink:
        Optional :class:`~repro.metrics.sketch.StreamMetrics` shared by
        every recorder of a streaming run; receives one
        ``observe_completion`` per exit.
    """

    def __init__(
        self,
        worker: Worker,
        sample_interval: float = 5.0,
        resource: ResourceType = ResourceType.CPU,
        *,
        streaming: bool = False,
        sink=None,
    ) -> None:
        if sample_interval <= 0:
            raise MetricsError("sample_interval must be positive")
        self.worker = worker
        self.sample_interval = float(sample_interval)
        self.streaming = bool(streaming)
        self.sink = sink
        self.traces: dict[int, ContainerTrace] = {}
        self.completions: list[CompletionRecord] = []
        self._n_completed = 0
        self._tracker = GrowthTracker(resource)
        self._sampler = worker.obsbus.sampler()
        self._labels: dict[str, int] = {}
        self._handle = None
        self._started = False
        self._hooks_installed = False
        # Sampling caches of the packed pass: per-container lookups keyed
        # on the runtime-table version, and cid → (time, integral row)
        # snapshots of each container's last window end.
        self._statics: tuple | None = None
        self._win_cache: dict[int, tuple[float, list[float]]] = {}

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Install hooks and begin sampling (restartable after stop).

        Hooks are installed exactly once across start/stop/start cycles:
        a recorder restarted on a crash-recovered worker must not record
        each completion twice.
        """
        if self._started:
            return
        self._started = True
        if not self._hooks_installed:
            self._hooks_installed = True
            self.worker.exit_hooks.append(self._on_exit)
            self.worker.launch_hooks.append(self._on_launch)
        self._schedule_sample()

    def stop(self) -> None:
        """Stop sampling (hooks remain; they only record)."""
        self._started = False
        if self._handle is not None:
            self.worker.sim.cancel(self._handle)
            self._handle = None

    # -- sampling -------------------------------------------------------------------

    def _schedule_sample(self) -> None:
        # ``payload=self`` identifies the owning recorder to the fleet
        # ticker's batched sampling pass.  Pushed straight onto the
        # queue: a positive interval from now can never lie in the past,
        # so Simulator.schedule's guard would be pure overhead on this
        # once-per-recorder-per-tick path.
        sim = self.worker.sim
        self._handle = sim.queue.push(
            Event(
                sim.now + self.sample_interval,
                EventKind.METRIC_SAMPLE,
                self._on_sample,
                PRIORITY_SAMPLE,
                self,
            )
        )

    def _on_sample(self, _event: Event) -> None:
        if not self._started:
            return
        self.sample_now()
        self._schedule_sample()

    def sample_now(self) -> None:
        """Take one sample of every running container immediately.

        Pokes the worker (settle + reallocate, coalesced per instant),
        then runs the packed sampling pass over this recorder alone:
        :func:`~repro.cluster.fleet.fleet_sample`, or
        :func:`~repro.cluster.fleet.fleet_sample_streaming` in streaming
        mode, which advances the sampling windows but appends nothing.
        """
        self.worker.poke()
        if self.streaming:
            fleet_sample_streaming([self])
        else:
            fleet_sample([self])

    # -- hooks ------------------------------------------------------------------------

    def _on_launch(self, container: Container) -> None:
        if self.streaming:
            return
        self._trace_for(container)

    def _on_exit(self, container: Container) -> None:
        self._n_completed += 1
        if self.streaming:
            if self.sink is not None:
                self.sink.observe_completion(
                    submitted=container.created_at,
                    finished=container.finished_at,
                    completion_time=container.completion_time(),
                )
            # Exited containers leave no recorder state behind — the
            # bounded-memory guarantee is exactly this pair of forgets.
            self._sampler.forget(container.cid)
            self._tracker.forget(container.cid)
            return
        trace = self.traces.get(container.cid)
        if trace is not None:
            trace.cpu_usage.append(self.worker.sim.now, 0.0)
        self.completions.append(
            CompletionRecord(
                label=container.name,
                image=container.image,
                cid=container.cid,
                submitted=container.created_at,
                finished=container.finished_at,
                completion_time=container.completion_time(),
            )
        )

    def _trace_for(self, container: Container) -> ContainerTrace:
        trace = self.traces.get(container.cid)
        if trace is None:
            trace = ContainerTrace(
                cid=container.cid, label=container.name, image=container.image
            )
            self.traces[container.cid] = trace
            # First trace wins the label (labels are unique per run; the
            # index replaces the historical O(n) scan of trace_by_label).
            self._labels.setdefault(container.name, container.cid)
        return trace

    # -- results -----------------------------------------------------------------------

    @property
    def n_completions(self) -> int:
        """Completions observed by this recorder (both modes)."""
        return self._n_completed

    def trace_by_label(self, label: str) -> ContainerTrace:
        """Trace for a job label (container name), via the label index."""
        cid = self._labels.get(label)
        if cid is None:
            raise MetricsError(f"no trace recorded for label {label!r}")
        return self.traces[cid]

    def summary(self) -> RunSummary:
        """Completion-time summary for the whole run (dense mode only)."""
        if self.streaming:
            raise MetricsError(
                "per-worker summaries are dense-mode only; streaming runs "
                "aggregate into the shared StreamMetrics sink"
            )
        if not self.completions:
            raise MetricsError("no completions recorded yet")
        return RunSummary(completions=list(self.completions))
