import pytest

from perfbench.stats import MIN_BEYOND, percentile, samples_beyond, supported
from perfbench.workloads import ServiceReplay


def test_nearest_rank_returns_a_measured_sample():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 0.5) == 3.0
    assert percentile(samples, 0.9) == 5.0
    assert percentile(samples, 0.2) == 1.0
    assert percentile([7.5], 0.9) == 7.5


def test_p90_of_100_samples_is_the_90th_with_ten_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 0.9) == 90
    assert samples_beyond(100, 0.9) == 10
    assert supported(100, 0.9)


def test_p90_needs_at_least_100_samples():
    assert MIN_BEYOND == 10
    assert not supported(99, 0.9)
    assert samples_beyond(99, 0.9) == 9
    # The median needs 20: ranks 11..20 lie beyond rank 10.
    assert supported(20, 0.5) and not supported(19, 0.5)


def test_service_replay_runs_enough_jobs_for_its_p90():
    assert supported(ServiceReplay.min_jobs, 0.9)
    assert not supported(ServiceReplay.min_jobs - 1, 0.9)


def test_bad_input_is_rejected():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        samples_beyond(10, 1.5)
