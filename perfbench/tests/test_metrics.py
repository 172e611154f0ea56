import pytest

from perfbench.metrics import Phase, end_to_end, per_layer, unbounded
from perfbench.tracing import Span, Tracer
from perfbench.workloads import JobRecord


def traced_job():
    """One 10 s job: the benchmark's job span with one 7 s layer call."""
    tracer = Tracer()
    tracer.spans = [
        Span(id=1, name="job.campaign", start=0.0, end=10.0, parent=None, run=0),
        Span(id=2, name="dna.assay", start=1.0, end=8.0, parent=1, run=0),
    ]
    return tracer, Phase([JobRecord(points=4, failed=0, turnaround_s=10.0)], min_jobs=1)


def test_job_span_self_time_is_unattributed():
    tracer, traced = traced_job()
    untraced = Phase([JobRecord(4, 0, 8.0)], min_jobs=1)
    values, own = per_layer(tracer, traced, untraced, import_s=0.5)
    assert values["dna.assay.s"] == pytest.approx(7.0)
    assert own["job.campaign"] == pytest.approx(3.0)
    assert values["trace.unattributed_share"] == pytest.approx(0.3)


def test_overhead_compares_the_same_jobs_untraced():
    tracer, traced = traced_job()
    # The untraced phase ran the traced job (8 s) and then a faster one;
    # only the first counts: 0.5 points/s untraced against 0.4 traced.
    untraced = Phase([JobRecord(4, 0, 8.0), JobRecord(4, 0, 1.0)], min_jobs=1)
    values, _ = per_layer(tracer, traced, untraced, import_s=0.5)
    assert values["trace.overhead_ratio"] == pytest.approx(0.25)


def test_bounded_throughput_is_the_one_nine_jobs_in_ten_meet():
    # Nine 4-point jobs of 1 s and one of 4 s: the slow job sets the
    # bounded throughput; the mean counts it by its share of the time.
    phase = Phase([JobRecord(4, 0, 1.0)] * 9 + [JobRecord(4, 0, 4.0)], min_jobs=1)
    values = end_to_end(phase, setup_samples=[1.0], peak_rss_mb=50.0)
    assert values["points_per_s_p10"] == pytest.approx(1.0)
    assert unbounded(phase)["points_per_s"] == pytest.approx(40 / 13)
