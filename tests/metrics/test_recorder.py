"""Unit tests for the metrics recorder."""

from __future__ import annotations

from functools import partial

import pytest

from repro.baselines.na import NAPolicy
from repro.cluster.fleet import FleetTicker
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import MetricsError
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import random_ten_job, two_hundred_job
from repro.metrics.recorder import MetricsRecorder
from tests.conftest import make_linear_job


class TestRecorder:
    def test_records_completion_on_exit(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=20.0))
        sim.run(until=25.0)
        summary = recorder.summary()
        assert summary.completion_time("Job-1") == pytest.approx(20.0)

    def test_usage_trace_sampled(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=50.0))
        sim.run(until=50.0)
        trace = recorder.trace_by_label("Job-1")
        assert not trace.cpu_usage.empty
        assert trace.cpu_usage.value_at(10.0) == pytest.approx(1.0)

    def test_usage_drops_to_zero_on_exit(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=12.0))
        sim.run(until=20.0)
        trace = recorder.trace_by_label("Job-1")
        assert trace.cpu_usage.value_at(15.0) == 0.0

    def test_growth_trace_recorded(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=100.0))
        sim.run(until=50.0)
        trace = recorder.trace_by_label("Job-1")
        assert len(trace.growth) >= 2
        # Linear curve at full usage: G = 0.01 throughout.
        _, values = trace.growth.arrays()
        assert values[-1] == pytest.approx(0.01, rel=1e-6)

    def test_unknown_label_raises(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker)
        with pytest.raises(MetricsError):
            recorder.trace_by_label("nope")

    def test_summary_requires_completions(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker)
        with pytest.raises(MetricsError):
            recorder.summary()

    def test_stop_halts_sampling(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=1000.0))
        sim.run(until=10.0)
        recorder.stop()
        n = len(recorder.trace_by_label("Job-1").cpu_usage)
        sim.run(until=50.0)
        assert len(recorder.trace_by_label("Job-1").cpu_usage) == n

    def test_invalid_interval_rejected(self, sim, ideal_worker):
        with pytest.raises(MetricsError):
            MetricsRecorder(ideal_worker, sample_interval=0.0)

    def test_multiple_containers_tracked_separately(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("a", total_work=40.0))
        ideal_worker.launch(make_linear_job("b", total_work=40.0))
        sim.run(until=40.0)
        ta = recorder.trace_by_label("a")
        tb = recorder.trace_by_label("b")
        assert ta.cpu_usage.value_at(10.0) == pytest.approx(0.5)
        assert tb.cpu_usage.value_at(10.0) == pytest.approx(0.5)


def _reference_sample_now(recorder):
    """One sample the long way, the specification of the packed pass:
    a bus pass, the subscriber window, the growth tracker and one
    ``StepSeries.append`` per reading."""
    recorder.worker.poke()
    for obs in recorder.worker.obsbus.observe():
        trace = recorder.traces.get(obs.cid)
        if trace is None:
            trace = recorder._trace_for(obs.container)
        stats = recorder._sampler.sample(obs)
        if stats is None:
            continue
        trace.cpu_usage.append(obs.time, stats.mean_usage.cpu)
        trace.cpu_limit.append(obs.time, stats.cpu_limit)
        if stats.eval_value is not None:
            trace.eval_value.append(obs.time, stats.eval_value)
            grown = recorder._tracker.observe(
                obs.cid, obs.time, stats.eval_value, stats.mean_usage
            )
            if grown is not None:
                trace.growth.append(obs.time, grown.growth)


def _flowcon_one_worker():
    return run_cluster(
        random_ten_job(3),
        partial(FlowConPolicy, FlowConConfig(alpha=0.10, itval=20.0)),
        SimulationConfig(seed=3, trace=False),
    )


def _na_four_workers():
    return run_cluster(
        two_hundred_job(seed=1)[:60],
        NAPolicy,
        SimulationConfig(seed=1, trace=False),
        n_workers=4,
        max_containers=3,
    )


def _recorded(result):
    """Exact bytes of every recorded series, completions and event count."""
    series = {
        (name, trace.label, field): tuple(
            a.tobytes() for a in getattr(trace, field).arrays()
        )
        for name, recorder in result.recorders.items()
        for trace in recorder.traces.values()
        for field in ("cpu_usage", "cpu_limit", "eval_value", "growth")
    }
    done = {k: repr(v) for k, v in result.completion_times().items()}
    return series, done, result.sim.events_processed


class TestReferenceSampling:
    @pytest.mark.parametrize("run", [_flowcon_one_worker, _na_four_workers])
    def test_packed_pass_matches_reference_bitwise(self, run, monkeypatch):
        packed = _recorded(run())
        monkeypatch.setattr(
            MetricsRecorder, "sample_now", _reference_sample_now
        )
        monkeypatch.setattr(FleetTicker, "arm", lambda self: None)
        reference = _recorded(run())
        assert sum(len(t[0]) for t in packed[0].values()) > 0
        assert packed == reference
