"""WaferSpec through the front doors: Runner, campaigns, CLI, service keys.

The wafer kind must behave like every other registered experiment —
runnable, sweepable axis by axis, serializable, and stable under the
service layer's content addressing (same spec => same cache key in any
process).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.campaigns import CampaignSpec, run_campaign
from repro.cli import main
from repro.experiments import Runner, experiment_kinds, spec_from_dict
from repro.service import point_key, spec_key
from repro.wafer import WaferSpec, wafer_records_and_metrics

SPEC = WaferSpec(
    wafer_diameter_mm=60.0, die_width_mm=12.0, die_height_mm=12.0, rows=8, cols=8
)


# ---------------------------------------------------------------------------
# Runner front door
# ---------------------------------------------------------------------------
def test_runner_runs_a_wafer():
    result = Runner(seed=5).run(SPEC)
    assert result.kind == "wafer"
    assert result.seeds["root"] == 5
    assert "field" in result.seeds["streams"]
    assert result.metrics["n_dies"] == 12
    assert result.metrics["sites_total"] == 12 * 64
    assert len(result.records["die"]) == 12
    assert result.artifacts["layout"].n_dies == 12


def test_runner_result_matches_direct_evaluation():
    result = Runner(seed=5).run(SPEC)
    records, metrics = wafer_records_and_metrics(SPEC, 5)
    for name in records:
        assert np.array_equal(result.records[name], records[name])
    assert result.metrics == metrics


def test_committed_wafer_example_spec_is_loadable():
    # The wafer example and CI assets must stay valid.
    import json

    path = Path(__file__).resolve().parent.parent / "examples" / "specs" / "wafer_small.json"
    spec = spec_from_dict(json.loads(path.read_text()))
    assert spec.kind == "wafer"
    assert spec.layout().n_dies == 12
    assert not spec.white_only


def test_wafer_is_a_registered_kind():
    assert "wafer" in experiment_kinds()
    rebuilt = spec_from_dict(SPEC.to_dict())
    assert rebuilt == SPEC


def test_object_backend_is_rejected():
    with pytest.raises(ValueError, match="vectorized-only"):
        SPEC.replace(backend="object")


@pytest.mark.parametrize(
    "overrides, message",
    [
        (((1, 1, "rows", 4),), "not in"),
        (((0, 0, "frame_s", 0.2),), r"no die at grid \(0, 0\)"),
        (((1, 1, "frame_s"),), r"\(grid_x, grid_y, field, value\)"),
    ],
)
def test_invalid_die_overrides_raise(overrides, message):
    with pytest.raises(ValueError, match=message):
        SPEC.replace(die_overrides=overrides)


def test_die_overrides_survive_json_round_trip():
    spec = SPEC.replace(die_overrides=((1, 1, "frame_s", 0.25),))
    rebuilt = spec_from_dict(spec.to_dict())
    # JSON turns tuples into lists; construction re-normalises.
    assert rebuilt.die_overrides == ((1, 1, "frame_s", 0.25),)
    assert rebuilt == spec
    assert rebuilt.spec_hash() == spec.spec_hash()


# ---------------------------------------------------------------------------
# Campaign sweeps
# ---------------------------------------------------------------------------
def test_wafer_axes_sweep_with_grid():
    campaign = CampaignSpec(
        base=SPEC, grid={"reticle_sigma": (0.0, 0.3)}, replicates=2
    )
    result = run_campaign(campaign, seed=3)
    assert len(result.plan) == 4
    sigmas = set()
    for point in result.results():
        assert point.kind == "wafer"
        assert point.metrics["n_dies"] == 12
        sigmas.add(point.spec["reticle_sigma"])
    assert sigmas == {0.0, 0.3}


def test_kinds_cli_lists_wafer_axes(capsys):
    assert main(["kinds"]) == 0
    lines = {
        line.split()[0]: line.split()[1]
        for line in capsys.readouterr().out.splitlines()
        if line.strip()
    }
    assert "wafer" in lines
    fields = lines["wafer"].split(",")
    # Every sweepable axis is discoverable, wafer-specific ones included.
    for axis in ("reticle_sigma", "radial_gradient", "wafer_diameter_mm", "rows"):
        assert axis in fields


# ---------------------------------------------------------------------------
# Service-layer content addressing (cache keys)
# ---------------------------------------------------------------------------
def test_spec_hash_matches_spec_key_of_to_dict():
    assert SPEC.spec_hash() == spec_key(SPEC.to_dict())
    assert SPEC.spec_hash() != SPEC.replace(reticle_sigma=0.1).spec_hash()


def test_wafer_point_key_changes_with_spec_and_seed():
    base = point_key(SPEC.to_dict(), 1, "vectorized", "1.0")
    assert point_key(SPEC.replace(rows=4).to_dict(), 1, "vectorized", "1.0") != base
    assert point_key(SPEC.to_dict(), 2, "vectorized", "1.0") != base


def test_wafer_spec_hash_is_stable_across_processes():
    code = (
        "from repro.wafer import WaferSpec\n"
        "spec = WaferSpec(wafer_diameter_mm=60.0, die_width_mm=12.0, "
        "die_height_mm=12.0, rows=8, cols=8)\n"
        "print(spec.spec_hash())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert out == SPEC.spec_hash()
