"""The neural workload's one scorer vs a per-neuron reference.

Both backends fold their recordings through the same array-wide scorer
(one peak plane, one matrix detector pass).  The reference here scores
each neuron on its own with the object-model tools — ``best_pixel_for``,
``pixel_trace``, ``detect_spikes``, ``score_detection``, ``spike_snr``,
``peak_abs`` — and every record column must match it exactly.
"""

import math

import numpy as np
import pytest

from repro.experiments import NeuralRecordingSpec, Runner
from repro.neuro import (
    ArrayGeometry,
    CellChipJunction,
    Culture,
    PlacedNeuron,
    detect_spikes,
    score_detection,
    spike_snr,
)

SPEC = NeuralRecordingSpec(
    rows=16, cols=16, n_neurons=3, diameter_range_m=(30e-6, 60e-6),
    duration_s=0.05, use_hh=False,
)
GEOMETRY = ArrayGeometry(SPEC.rows, SPEC.cols, SPEC.pitch_m)


def reference_records(spec, recording, culture):
    """Per-neuron scoring, one trace and one detector call at a time."""
    columns = {name: [] for name in (
        "neuron", "diameter_m", "best_row", "best_col", "peak_v", "true_spikes",
        "detected_spikes", "precision", "recall", "snr",
    )}
    for neuron in culture.neurons:
        truth = recording.ground_truth[neuron.index]
        if culture.pixels_for_neuron(neuron):
            row, col = recording.best_pixel_for(neuron.index)
            trace = recording.electrode_movie.pixel_trace(row, col)
            detected = detect_spikes(trace, threshold_sigma=spec.threshold_sigma)
            score = score_detection(detected, truth, tolerance_s=spec.tolerance_s)
            values = (
                row, col, trace.peak_abs(), len(detected), score.precision, score.recall,
                spike_snr(trace, truth) if len(truth) else math.nan,
            )
        else:
            values = (-1, -1, 0.0, 0, 0.0, 0.0, math.nan)
        row, col, peak, n_detected, precision, recall, snr = values
        columns["neuron"].append(neuron.index)
        columns["diameter_m"].append(neuron.diameter)
        columns["best_row"].append(row)
        columns["best_col"].append(col)
        columns["peak_v"].append(peak)
        columns["true_spikes"].append(len(truth))
        columns["detected_spikes"].append(n_detected)
        columns["precision"].append(precision)
        columns["recall"].append(recall)
        columns["snr"].append(snr)
    return columns


def assert_matches_reference(spec, result):
    recording = result.artifacts["recording"]
    culture = result.artifacts["culture"]
    reference = reference_records(spec, recording, culture)
    assert set(result.records) == set(reference)
    for name, expected in reference.items():
        # Exact equality; assert_array_equal only adds NaN == NaN.
        np.testing.assert_array_equal(result.records[name], np.asarray(expected), err_msg=name)


def neuron_at(index, x, y, diameter=40e-6):
    return PlacedNeuron(
        index=index, x=x, y=y, diameter=diameter,
        junction=CellChipJunction(cell_diameter=diameter),
    )


@pytest.mark.parametrize("backend", ["object", "vectorized"])
@pytest.mark.parametrize(
    "spec",
    [
        SPEC,
        SPEC.replace(threshold_sigma=3.0),
        SPEC.replace(rows=32, cols=32, n_neurons=5, use_hh=True, duration_s=0.03),
    ],
    ids=["template", "low-threshold", "hh"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_records_match_per_neuron_reference(backend, spec, seed):
    result = Runner(seed=seed).run(spec, backend=backend)
    assert result.metrics["n_neurons"] == spec.n_neurons
    assert_matches_reference(spec, result)


@pytest.mark.parametrize("backend", ["object", "vectorized"])
def test_zero_neuron_culture(backend):
    result = Runner(seed=2).run(SPEC, backend=backend, inputs={"culture": Culture(GEOMETRY)})
    assert result.n_records == 0
    assert result.metrics["total_true_spikes"] == 0
    assert_matches_reference(SPEC, result)


@pytest.mark.parametrize("backend", ["object", "vectorized"])
def test_off_grid_soma_scores_as_blank_row(backend):
    centre_y = 0.5 * GEOMETRY.height
    culture = Culture(
        GEOMETRY,
        neurons=[
            neuron_at(0, 0.5 * GEOMETRY.width, centre_y),
            neuron_at(1, -10 * GEOMETRY.width, centre_y),
        ],
    )
    assert not culture.pixels_for_neuron(culture.neurons[1])
    result = Runner(seed=3).run(SPEC, backend=backend, inputs={"culture": culture})
    assert result.column("best_row")[0] >= 0
    assert result.column("best_row")[1] == -1
    assert_matches_reference(SPEC, result)


@pytest.mark.parametrize("backend", ["object", "vectorized"])
def test_neuron_that_never_fires(backend):
    spec = SPEC.replace(n_neurons=4, firing_rate_hz=2.0)
    result = Runner(seed=4).run(spec, backend=backend)
    silent = result.column("true_spikes") == 0
    assert silent.any() and not silent.all()
    assert np.isnan(result.column("snr")[silent]).all()
    assert_matches_reference(spec, result)
