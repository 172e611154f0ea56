"""Runner wiring ≡ the hand-driven chip models.

Each test drives the imperative model flow by hand, feeding every step
the generator the Runner itself derives for that stream
(``runner.seed_tree.generator(*workload_for(kind).streams(spec)[name])``),
and asserts ``Runner.run`` produces the same counts, frames and ground
truth bit for bit — plus the seed provenance that names those streams.
"""

import numpy as np

from repro import DnaMicroarrayChip, MicroarrayAssay, ProbeLayout, Sample
from repro.chip import NeuralRecordingChip
from repro.chip.dna_chip import ChipSpecs
from repro.dna.assay import AssayProtocol
from repro.experiments import DnaAssaySpec, NeuralRecordingSpec, Runner, workload_for
from repro.neuro import ArrayGeometry, Culture


def runner_streams(runner, spec):
    """The named generators ``runner.run(spec)`` hands its workload."""
    paths = workload_for(spec.kind).streams(spec)
    return {name: runner.seed_tree.generator(*path) for name, path in paths.items()}, paths


def assert_provenance(result, runner, paths):
    assert result.seeds == {
        "root": runner.seed,
        "streams": {name: [str(part) for part in path] for name, path in paths.items()},
    }


def test_dna_assay_matches_hand_driven_chip_flow():
    spec = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
    runner = Runner(seed=3)
    rngs, paths = runner_streams(runner, spec)

    chip = DnaMicroarrayChip(ChipSpecs(rows=spec.rows, cols=spec.cols), rng=rngs["chip"])
    assert chip.configure_bias(spec.v_generator, spec.v_collector)
    chip.auto_calibrate(frame_s=spec.calibration_frame_s, rng=rngs["calibration"])
    layout = ProbeLayout.random_panel(
        spec.probe_count,
        probe_length=spec.probe_length,
        rows=spec.rows,
        cols=spec.cols,
        rng=rngs["layout"],
        replicates=spec.replicates,
        control_every=spec.control_every,
    )
    sample = Sample.for_probes(
        layout.probes(),
        spec.concentration,
        target_length=spec.target_length,
        subset=list(spec.target_subset),
    )
    protocol = AssayProtocol(hybridization_s=spec.hybridization_s, wash_s=spec.wash_s)
    assay = MicroarrayAssay(layout).run(sample, protocol)
    counts = chip.measure_assay(assay, frame_s=spec.frame_s, rng=rngs["measure"])

    result = runner.run(spec)
    np.testing.assert_array_equal(result.artifacts["counts"], counts)
    np.testing.assert_array_equal(result.column("count"), counts.reshape(-1))
    np.testing.assert_array_equal(result.column("sensor_current_a"), assay.sensor_current)
    np.testing.assert_array_equal(
        result.column("current_estimate_a"),
        np.asarray(chip.current_estimates(counts, frame_s=spec.frame_s)).reshape(-1),
    )
    assert_provenance(result, runner, paths)


def test_neural_recording_matches_hand_driven_chip_flow():
    spec = NeuralRecordingSpec(
        rows=16, cols=16, n_neurons=2, diameter_range_m=(40e-6, 70e-6),
        duration_s=0.05, use_hh=False,
    )
    runner = Runner(seed=3)
    rngs, paths = runner_streams(runner, spec)

    chip = NeuralRecordingChip(
        geometry=ArrayGeometry(spec.rows, spec.cols, spec.pitch_m), rng=rngs["chip"]
    )
    chip.calibrate()
    culture = Culture.random(
        spec.n_neurons, chip.geometry, diameter_range=spec.diameter_range_m, rng=rngs["culture"]
    )
    recording = chip.record_culture(
        culture,
        duration_s=spec.duration_s,
        firing_rate_hz=spec.firing_rate_hz,
        rng=rngs["record"],
        use_hh=spec.use_hh,
    )

    result = runner.run(spec)
    ran = result.artifacts["recording"]
    np.testing.assert_array_equal(ran.electrode_movie.frames, recording.electrode_movie.frames)
    np.testing.assert_array_equal(ran.output_movie.frames, recording.output_movie.frames)
    assert ran.ground_truth.keys() == recording.ground_truth.keys()
    for index, truth in recording.ground_truth.items():
        np.testing.assert_array_equal(ran.ground_truth[index], truth)
    assert_provenance(result, runner, paths)
