import dataclasses
import itertools

import pytest

from perfbench.layers import Instrumentation, is_layer_span
from perfbench.tracing import Tracer
from perfbench.workloads import (
    SERVICE_RATE_LEVELS,
    Fig4Sweep,
    NeuralBatched,
    ServiceReplay,
    WaferMap,
    service_job_stream,
)


def first_jobs(seed, n):
    return list(itertools.islice(service_job_stream(seed), n))


def test_job_stream_is_deterministic_per_seed():
    assert first_jobs(3, 200) == first_jobs(3, 200)
    assert first_jobs(3, 50) != first_jobs(4, 50)


def test_job_stream_hits_the_designed_repeat_share():
    n = 300
    swept = set()
    repeated_rates = 0
    for index, job in enumerate(first_jobs(11, n)):
        assert len(job.rates) == 2 and len(set(job.rates)) == 2
        seen = sum(rate in swept for rate in job.rates)
        # The declared share is the real one: the rates an earlier job swept.
        assert seen == job.repeated == (0 if index == 0 else 1)
        repeated_rates += seen
        swept.update(job.rates)
    assert repeated_rates / (2 * n) == pytest.approx((n - 1) / (2 * n))
    assert len(swept) == n + 1


def test_job_stream_rates_stay_in_the_seeded_window():
    rates = [rate for job in first_jobs(5, 500) for rate in job.rates]
    assert 0.05 <= min(rates) and max(rates) <= 0.15 + 0.1
    assert max(rates) - min(rates) <= 0.1
    assert SERVICE_RATE_LEVELS > 500


def small(workload):
    """Shrink a campaign workload's jobs so a test runs in seconds."""
    campaign = workload.campaign
    grid = {axis: values[:2] for axis, values in campaign.grid.items()}
    base = campaign.base
    if isinstance(workload, NeuralBatched):
        base = dataclasses.replace(base, rows=16, cols=16, n_neurons=2, duration_s=0.02)
    if isinstance(workload, WaferMap):
        base = dataclasses.replace(base, wafer_diameter_mm=60.0, rows=8, cols=8)
    workload.campaign = dataclasses.replace(campaign, base=base, grid=grid, replicates=2)
    return workload


def run_jobs(workload, n):
    workload.open()
    try:
        return [workload.run_job(index, digest=True) for index in range(n)]
    finally:
        workload.close()


@pytest.mark.parametrize("cls", [Fig4Sweep, NeuralBatched, WaferMap])
def test_campaign_digest_is_identical_with_tracing_on_and_off(cls, tmp_path):
    plain = run_jobs(small(cls(5, tmp_path, Tracer(enabled=False))), 2)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        traced = run_jobs(small(cls(5, tmp_path, tracer)), 2)
    finally:
        instrumentation.remove()
    assert [job.digest for job in traced] == [job.digest for job in plain]
    assert plain[0].digest != plain[1].digest  # jobs differ by campaign seed
    assert tracer.spans, "the traced run recorded no spans"
    # Removing the instrumentation restores the untraced program exactly.
    again = run_jobs(small(cls(5, tmp_path, Tracer(enabled=False))), 1)
    assert again[0].digest == plain[0].digest


def test_service_replay_checks_and_traced_digest(tmp_path):
    plain = run_jobs(ServiceReplay(9, tmp_path, Tracer(enabled=False)), 4)
    assert all(not job.errors and job.failed == 0 for job in plain), [j.errors for j in plain]
    assert [job.repeated_points for job in plain] == [0, 4, 4, 4]

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        traced = run_jobs(ServiceReplay(9, tmp_path, tracer), 4)
    finally:
        instrumentation.remove()
    assert [job.digest for job in traced] == [job.digest for job in plain]
    names = {span.name for span in tracer.spans}
    assert {"job.client", "service.jobs.execute", "service.cache.get",
            "service.cache.put", "service.keys", "chip.readout"} <= names
    assert tracer.counters["service.cache.hits"] == 12
    assert tracer.counters["service.cache.verify_failures"] == 0
    # Worker-thread spans hang under the client span that waited for them.
    by_id = {span.id: span for span in tracer.spans}
    execute = [span for span in tracer.spans if span.name == "service.jobs.execute"]
    assert all(by_id[span.parent].name == "job.client" for span in execute)
    # The benchmark's own job spans are not a layer of the program.
    assert not is_layer_span("job.client") and not is_layer_span("job.campaign")
    assert not list(tmp_path.iterdir()), "close() left temp files behind"


def test_neural_detection_is_checked_over_the_phase(tmp_path):
    workload = NeuralBatched(5, tmp_path, Tracer(enabled=False))
    workload.recall, workload.precision = [0.9, 0.6], [0.8, 0.8]
    assert workload.finish() == []  # one weak recording: the phase mean holds
    workload.recall = [0.7, 0.6]
    assert [error.split()[1] for error in workload.finish()] == ["sensitivity"]
