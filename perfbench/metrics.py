"""The benchmark's metrics: end-to-end ones from an untraced run, per-layer
ones from a traced run.  Names and units here are the ones
``BENCHMARK.json`` lists."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable

from repro.service.keys import content_digest

from .layers import is_layer_span
from .stats import percentile
from .tracing import Tracer, self_time_by_name
from .workloads import JobRecord

#: (name, unit) of every bounded end-to-end metric, printed with
#: ``--trace 0``.  Both time metrics are slow-side percentiles of the
#: run's jobs.  On a 2-vCPU KVM guest the host runs a job either at a
#: steady slow speed or at a faster one whose level and share of the
#: run vary (one fixed fig4_sweep job: 0.64 s, repeatedly, or 0.33-0.55
#: s), so statistics over all jobs move with that share: over ten seeds
#: the mean throughput spread 0.27 of its median on fig4_sweep and the
#: median turnaround 0.32, against 0.12 for the p90 turnaround (28 s
#: runs).  Both are printed beside the bounded metrics, without a bound.
END_TO_END = (
    ("points_per_s_p10", "1/s"),
    ("job_turnaround_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Reported with the end-to-end metrics, without a bound.
UNBOUNDED = (
    ("points_per_s", "1/s"),
    ("job_turnaround_p50_ms", "ms"),
    ("point_fail_ratio", "ratio"),
)


@dataclass
class Phase:
    """The jobs one closed-loop phase ran, and its phase-level errors."""

    jobs: list[JobRecord]
    min_jobs: int
    errors: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def points(self) -> int:
        return sum(job.points for job in self.jobs)

    @property
    def failed(self) -> int:
        return sum(job.failed for job in self.jobs)

    @property
    def timed_s(self) -> float:
        """Sum of job turnarounds: the time the client waited on the program."""
        return sum(job.turnaround_s for job in self.jobs)

    @property
    def points_per_s(self) -> float:
        """Completed points per second of turnaround over the phase."""
        return (self.points - self.failed) / self.timed_s

    @property
    def job_points_per_s(self) -> list[float]:
        """Completed points per second of each job's turnaround."""
        return [(job.points - job.failed) / job.turnaround_s for job in self.jobs]

    @property
    def turnarounds_ms(self) -> list[float]:
        return [job.turnaround_s * 1e3 for job in self.jobs]

    @property
    def all_errors(self) -> list[str]:
        return [error for job in self.jobs for error in job.errors] + self.errors

    @property
    def digest(self) -> str:
        """Digest of the first ``min_jobs`` jobs' outputs."""
        return content_digest([job.digest for job in self.jobs[: self.min_jobs]])


def end_to_end(phase: Phase, setup_samples: list[float], peak_rss_mb: float) -> dict:
    return {
        # The throughput that nine jobs in ten meet or beat.
        "points_per_s_p10": percentile(phase.job_points_per_s, 0.1),
        "job_turnaround_p90_ms": percentile(phase.turnarounds_ms, 0.9),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def unbounded(phase: Phase) -> dict:
    return {
        "points_per_s": phase.points_per_s,
        "job_turnaround_p50_ms": percentile(phase.turnarounds_ms, 0.5),
        "point_fail_ratio": phase.failed / phase.points,
    }


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    #: ``value(self_time_by_span_name, counters, context) -> float``
    value: Callable[[dict, dict, dict], float]


def _self(span: str) -> Callable[[dict, dict, dict], float]:
    return lambda own, counters, context: own.get(span, 0.0)


def _count(counter: str) -> Callable[[dict, dict, dict], float]:
    return lambda own, counters, context: counters.get(counter, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _context(key: str) -> Callable[[dict, dict, dict], float]:
    return lambda own, counters, context: context[key]


#: Every per-layer metric, printed with ``--trace 1``.  ``.s`` and
#: ``self_s`` metrics are self time summed over the traced phase, which
#: runs a fixed number of jobs, so they compare across commits.
PER_LAYER = (
    LayerMetric("dna.assay.s", "s", _self("dna.assay")),
    LayerMetric("dna.assay.sites", "count", _count("dna.assay.sites")),
    LayerMetric("experiments.provision.s", "s", _self("experiments.provision")),
    LayerMetric(
        "experiments.provision.chips_built", "count", _count("experiments.provision.chips_built")
    ),
    LayerMetric("experiments.run.self_s", "s", _self("experiments.run")),
    LayerMetric("campaigns.plan.compile_s", "s", _self("campaigns.plan.compile")),
    LayerMetric("campaigns.executor.self_s", "s", _self("campaigns.executor")),
    LayerMetric("campaigns.batched.self_s", "s", _self("campaigns.batched")),
    LayerMetric(
        "campaigns.batched.batched_share",
        "ratio",
        lambda own, counters, context: _ratio(
            counters.get("campaigns.batched.points", 0.0), context["points"]
        ),
    ),
    LayerMetric("campaigns.store.add_s", "s", _self("campaigns.store.add")),
    LayerMetric("campaigns.store.finalize_s", "s", _self("campaigns.store.finalize")),
    LayerMetric("campaigns.store.bytes", "B", _count("campaigns.store.bytes")),
    LayerMetric("chip.calibrate.s", "s", _self("chip.calibrate")),
    LayerMetric("chip.measure.s", "s", _self("chip.measure")),
    LayerMetric("chip.readout.s", "s", _self("chip.readout")),
    LayerMetric("chip.readout.retries", "count", _count("chip.readout.retries")),
    LayerMetric(
        "chip.readout.frames_corrupted", "count", _count("chip.readout.frames_corrupted")
    ),
    LayerMetric("engine.hh.s", "s", _self("engine.hh")),
    LayerMetric("engine.hh.neuron_steps", "count", _count("engine.hh.neuron_steps")),
    LayerMetric("engine.frames.s", "s", _self("engine.frames")),
    LayerMetric("neuro.detect.s", "s", _self("neuro.detect")),
    LayerMetric("engine.adc.s", "s", _self("engine.adc")),
    LayerMetric("engine.adc.sites", "count", _count("engine.adc.sites")),
    LayerMetric("wafer.evaluate.s", "s", _self("wafer.evaluate")),
    LayerMetric("wafer.tiles", "count", _count("wafer.tiles")),
    LayerMetric("service.keys.s", "s", _self("service.keys")),
    LayerMetric("service.cache.get_s", "s", _self("service.cache.get")),
    LayerMetric("service.cache.put_s", "s", _self("service.cache.put")),
    LayerMetric(
        "service.cache.hit_ratio",
        "ratio",
        lambda own, counters, context: _ratio(
            counters.get("service.cache.hits", 0.0),
            counters.get("service.cache.hits", 0.0) + counters.get("service.cache.misses", 0.0),
        ),
    ),
    LayerMetric("service.cache.bytes_written", "B", _count("service.cache.bytes_written")),
    LayerMetric(
        "service.cache.verify_failures", "count", _count("service.cache.verify_failures")
    ),
    LayerMetric("service.jobs.execute.self_s", "s", _self("service.jobs.execute")),
    LayerMetric("service.jobs.queue_wait_ms", "ms", _context("queue_wait_ms")),
    LayerMetric("inference.analyze.s", "s", _self("inference.analyze")),
    LayerMetric("setup.import_s", "s", _context("import_s")),
    LayerMetric("trace.timed_s", "s", _context("timed_s")),
    LayerMetric("trace.unattributed_share", "ratio", _context("unattributed_share")),
    LayerMetric("trace.points_per_s", "1/s", _context("points_per_s")),
    LayerMetric("trace.overhead_ratio", "ratio", _context("overhead_ratio")),
    LayerMetric("trace.spans", "count", _context("spans")),
)


def per_layer(
    tracer: Tracer, traced: Phase, untraced: Phase, import_s: float
) -> tuple[dict, dict]:
    """Per-layer metric values plus the full self-time table by span."""
    own = self_time_by_name(tracer.spans)
    attributed = sum(seconds for name, seconds in own.items() if is_layer_span(name))
    waits = [job.queue_wait_s * 1e3 for job in traced.jobs if job.queue_wait_s is not None]
    # The traced phase reruns the untraced phase's first jobs; compare
    # with those same jobs, not the whole (longer) untraced phase.
    same_jobs = Phase(untraced.jobs[: traced.min_jobs], traced.min_jobs)
    context = {
        "points": traced.points,
        "queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "import_s": import_s,
        "timed_s": traced.timed_s,
        "unattributed_share": (traced.timed_s - attributed) / traced.timed_s,
        "points_per_s": traced.points_per_s,
        # How much slower the traced jobs ran than the same jobs untraced.
        "overhead_ratio": same_jobs.points_per_s / traced.points_per_s - 1.0,
        "spans": len(tracer.spans),
    }
    counters = dict(tracer.counters)
    values = {metric.name: metric.value(own, counters, context) for metric in PER_LAYER}
    return values, own
