"""The paper's headline quantitative claims, each as one test.

These are the acceptance tests of the reproduction: every numeric
statement in the DATE 2005 text is checked against the behavioural
models end to end.
"""

import numpy as np
import pytest

from repro import (
    CompoundLibrary,
    DnaMicroarrayChip,
    MicroarrayAssay,
    NeuralRecordingChip,
    ProbeLayout,
    Sample,
    SawtoothAdc,
    ScreeningFunnel,
)
from repro.analysis import characterize_adc
from repro.chip.sequencer import NEURO_SCAN
from repro.neuro import (
    ArrayGeometry,
    CellChipJunction,
    Culture,
)
from repro.neuro.array import NeuralArrayModel


class TestSection2DnaChip:
    def test_claim_current_range_1pa_to_100na(self):
        """'CMOS chips ... detect currents between 1 pA and 100 nA per
        sensor' — the ADC fires and counts across the full range."""
        adc = SawtoothAdc()
        for current in (1e-12, 100e-9):
            assert adc.count_in_frame(current, 4.0, rng=1) > 0

    def test_claim_frequency_approximately_proportional(self):
        """'The measured frequency is approximately proportional to the
        sensor current' — slope ~1 with >= 4 usable decades."""
        analysis = characterize_adc(SawtoothAdc(), frame_s=4.0, rng=2)
        assert analysis.loglog_slope == pytest.approx(1.0, abs=0.02)
        assert analysis.usable_decades >= 4.0

    def test_claim_16x8_array_with_periphery(self):
        """'8x16 sensor array including peripheral circuitry ... and 6
        pin interface' — the full chip assembles and runs E2E."""
        chip = DnaMicroarrayChip(rng=3)
        assert len(chip.pixels) == 128
        assert chip.specs.pin_count == 6
        assert chip.configure_bias(0.45, -0.25)
        chip.auto_calibrate(frame_s=0.05, rng=4)
        layout = ProbeLayout.random_panel(8, replicates=16, rng=5)
        sample = Sample.for_probes(layout.probes(), 1e-5, subset=[0, 1])
        result = MicroarrayAssay(layout).run(sample)
        counts = chip.measure_assay(result, frame_s=1.0, rng=6)
        assert chip.read_counters_serial() == [int(c) for c in counts.reshape(-1)]

    def test_claim_hybridization_match_vs_mismatch(self):
        """Fig. 2: 'double-stranded DNA ... at the match positions, and
        single-stranded DNA at the mismatch sites' after washing."""
        layout = ProbeLayout.random_panel(8, replicates=16, rng=7)
        sample = Sample.for_probes(layout.probes(), 1e-5, subset=[0, 1])
        result = MicroarrayAssay(layout).run(sample)
        assert result.discrimination_ratio() > 10

    def test_claim_process_is_half_micron_5v(self):
        """Fig. 4 caption: Lmin = 0.5 um, tox = 15 nm, VDD = 5 V."""
        chip = DnaMicroarrayChip(rng=8)
        assert chip.specs.process.l_min == pytest.approx(0.5e-6)
        assert chip.specs.process.t_ox == pytest.approx(15e-9)
        assert chip.specs.process.vdd == 5.0


class TestSection3NeuroChip:
    def test_claim_junction_amplitudes_100uv_to_5mv(self, hh_run):
        """'the maximum signal amplitudes are between 100 uV and 5 mV'
        across the stated 10-100 um neuron diameters."""
        peaks = []
        for diameter in (10e-6, 20e-6, 50e-6, 100e-6):
            junction = CellChipJunction(cell_diameter=diameter)
            peaks.append(junction.junction_voltage(hh_run).peak_abs())
        assert min(peaks) > 20e-6  # small cells near/below the 100 uV edge
        assert max(peaks) < 5.5e-3
        assert any(100e-6 <= p <= 5e-3 for p in peaks)

    def test_claim_128x128_at_7p8um_in_1mm2(self):
        """'128x128 positions within a total sensor area of 1mm x 1mm
        ... pitch of 7.8 um'."""
        chip = NeuralRecordingChip(rng=9)
        assert chip.geometry.rows == chip.geometry.cols == 128
        assert chip.geometry.width == pytest.approx(1e-3, rel=0.01)
        assert chip.geometry.height == pytest.approx(1e-3, rel=0.01)

    def test_claim_every_cell_monitored(self):
        """'the chosen pitch of 7.8 um guarantees that each cell is
        monitored independent of its individual position'."""
        culture = Culture.random(150, ArrayGeometry(128, 128, 7.8e-6),
                                 diameter_range=(10e-6, 100e-6), rng=10)
        assert culture.coverage_fraction() == 1.0

    def test_claim_2k_frames_per_second_timing(self):
        """'Full frame rate is 2k samples/s' with 128 rows, 16 channels
        and the 8-to-1 multiplexer; 4 MHz / 32 MHz bandwidths support it."""
        assert NEURO_SCAN.frame_rate_hz == 2000.0
        assert NEURO_SCAN.mux_depth == 8
        assert NEURO_SCAN.channel_pixel_rate_hz == pytest.approx(2.048e6)
        assert NEURO_SCAN.settling_ok(4e6)
        assert NEURO_SCAN.settling_ok(32e6)

    def test_claim_calibration_equalises_currents(self):
        """'all sensor transistors M1 within a row provide the same
        current when selected independent of their individual device
        parameters' — spread collapses after calibration."""
        array = NeuralArrayModel(ArrayGeometry(32, 32, 7.8e-6), rng=11)
        unc = array.uncalibrated_offset_currents()
        array.calibrate()
        cal = array.offset_currents()
        assert np.std(cal) < 0.2 * np.std(unc)

    def test_claim_total_gain_5600(self):
        """Fig. 6 annotations: x100, x7 on-chip, x4, x2 off-chip."""
        from repro.neuro.readout_chain import build_readout_chain

        assert build_readout_chain(rng=12).nominal_gain == pytest.approx(5600.0)

    def test_claim_end_to_end_recording(self):
        """The whole Section 3 pipeline: neurons -> cleft -> pixels ->
        chain -> recorded spikes at 2 kframe/s."""
        chip = NeuralRecordingChip(geometry=ArrayGeometry(32, 32, 7.8e-6), rng=13)
        chip.calibrate()
        culture = Culture.random(2, chip.geometry, diameter_range=(50e-6, 70e-6), rng=14)
        result = chip.record_culture(culture, duration_s=0.05, firing_rate_hz=60.0, rng=15)
        assert result.electrode_movie.frame_rate_hz == 2000.0
        row, col = result.best_pixel_for(0)
        peak = result.electrode_movie.pixel_trace(row, col).peak_abs()
        assert 50e-6 < peak < 5e-3


class TestSection1Funnel:
    def test_claim_fig1_monotone_economics(self):
        """Fig. 1 axes: costs/datapoint rises, datapoints/day falls
        through the four stages."""
        library = CompoundLibrary.generate(size=20_000, viable_rate=3e-4, rng=16)
        result = ScreeningFunnel().run(library, rng=17)
        assert result.monotone_cost_increase()
        assert result.monotone_throughput_decrease()

    def test_claim_funnel_attrition(self):
        """'identify one (combination of) compound(s) out of millions'
        — the funnel reduces the library by orders of magnitude."""
        library = CompoundLibrary.generate(size=50_000, viable_rate=2e-4, rng=18)
        result = ScreeningFunnel().run(library, rng=19)
        assert result.survivors <= 100
        assert result.surviving_viable >= 1
