import threading

import pytest

from perfbench.tracing import Span, Tracer, covered_length, self_time_by_name, self_times


def span(id, name, start, end, parent=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, run=0)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    # Clipped to the parent's interval; intervals outside it count 0.
    assert covered_length([(-2.0, 1.0), (9.0, 12.0), (20.0, 30.0)], 0.0, 10.0) == pytest.approx(2.0)
    # A child contained in another counts once.
    assert covered_length([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(8.0)


def test_self_time_of_nested_spans():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "a.inner", 2.0, 3.0, parent=2),
        span(4, "b", 5.0, 9.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)
    # Self times of a tree sum to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_with_overlapping_children():
    # Two children running concurrently (different threads) overlap in
    # [3, 5]: the parent's covered time is the union, 2..7 = 5 s.
    spans = [
        span(1, "client", 0.0, 10.0),
        span(2, "worker", 2.0, 5.0, parent=1),
        span(3, "worker", 3.0, 7.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    by_name = self_time_by_name(spans)
    assert by_name == pytest.approx({"client": 5.0, "worker": 7.0})


def test_child_outliving_its_parent_is_clipped():
    spans = [span(1, "p", 0.0, 4.0), span(2, "c", 3.0, 6.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_tracer_records_parents_and_runs():
    tracer = Tracer()
    tracer.run = 7
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    spans = {s.id: s for s in tracer.spans}
    assert spans[inner].parent == outer
    assert spans[outer].parent is None
    assert {s.run for s in tracer.spans} == {7}
    assert spans[outer].start <= spans[inner].start <= spans[inner].end <= spans[outer].end


def test_other_threads_attach_to_the_ambient_span():
    tracer = Tracer()
    started = threading.Event()

    def worker():
        with tracer.span("worker"):
            started.set()

    with tracer.span("client", ambient=True) as client:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive() and started.is_set()
    worker_span = next(s for s in tracer.spans if s.name == "worker")
    assert worker_span.parent == client
    assert tracer.ambient is None


def test_disabled_and_paused_tracers_record_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        tracer.count("n")
    assert tracer.spans == [] and not tracer.counters
    tracer = Tracer()
    with tracer.paused():
        with tracer.span("x"):
            tracer.count("n")
    with tracer.span("y"):
        tracer.count("m", 2)
    assert [s.name for s in tracer.spans] == ["y"]
    assert dict(tracer.counters) == {"m": 2}
