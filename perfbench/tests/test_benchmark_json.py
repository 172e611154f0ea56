"""``BENCHMARK.json`` matches the code that prints the metrics."""

import json
import re
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_keys_and_command():
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_workloads_match_the_code():
    workloads = load()["workloads"]
    assert [w["name"] for w in workloads] == list(WORKLOADS)
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_match_the_code():
    bench = load()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (metric.name, metric.unit) for metric in PER_LAYER
    ]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
