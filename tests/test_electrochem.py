"""Electrochemical substrate: species, electrodes, redox cycling, loop."""

import pytest

from repro.electrochem import (
    ALKALINE_PHOSPHATASE,
    FERROCENE,
    InterdigitatedElectrode,
    LabelledSurface,
    P_AMINOPHENOL,
    Potentiostat,
    RedoxCyclingSensor,
    RedoxSpecies,
)


class TestSpecies:
    def test_pap_parameters(self):
        assert P_AMINOPHENOL.electrons_transferred == 2
        assert P_AMINOPHENOL.diffusion_coefficient == pytest.approx(6e-10)

    def test_invalid_diffusion(self):
        with pytest.raises(ValueError):
            RedoxSpecies("x", -1.0, 1, 0.0)

    def test_invalid_electrons(self):
        with pytest.raises(ValueError):
            RedoxSpecies("x", 1e-9, 0, 0.0)

    def test_enzyme_turnover_michaelis_menten(self):
        enzyme = ALKALINE_PHOSPHATASE
        # At S = Km, rate = kcat/2.
        assert enzyme.turnover_rate(enzyme.k_m) == pytest.approx(enzyme.k_cat / 2)

    def test_enzyme_saturates(self):
        enzyme = ALKALINE_PHOSPHATASE
        assert enzyme.turnover_rate(100.0) == pytest.approx(enzyme.k_cat, rel=0.01)

    def test_enzyme_zero_substrate(self):
        assert ALKALINE_PHOSPHATASE.turnover_rate(0.0) == 0.0

    def test_enzyme_rejects_negative(self):
        with pytest.raises(ValueError):
            ALKALINE_PHOSPHATASE.turnover_rate(-1.0)


class TestElectrode:
    def test_areas(self):
        el = InterdigitatedElectrode(finger_width=1e-6, gap=1e-6,
                                     finger_length=100e-6, finger_pairs=25)
        assert el.metal_area == pytest.approx(2 * 25 * 1e-6 * 100e-6)
        assert el.footprint_area > el.metal_area

    def test_gap_count(self):
        el = InterdigitatedElectrode(finger_pairs=25)
        assert el.gap_count == 49

    def test_collection_efficiency_improves_with_tighter_gap(self):
        tight = InterdigitatedElectrode(finger_width=1e-6, gap=0.5e-6)
        loose = InterdigitatedElectrode(finger_width=1e-6, gap=3e-6)
        assert tight.collection_efficiency() > loose.collection_efficiency()

    def test_collection_efficiency_below_unity(self):
        assert InterdigitatedElectrode().collection_efficiency() < 1.0

    def test_cycling_gain_exceeds_one(self):
        assert InterdigitatedElectrode().cycling_gain() > 1.0

    def test_cycling_gain_grows_with_boundary_layer(self):
        el = InterdigitatedElectrode()
        assert el.cycling_gain(100e-6) > el.cycling_gain(20e-6)

    def test_double_layer_capacitance_positive(self):
        assert InterdigitatedElectrode().double_layer_capacitance > 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            InterdigitatedElectrode(finger_width=0.0)
        with pytest.raises(ValueError):
            InterdigitatedElectrode(finger_pairs=0)


class TestRedoxCyclingSensor:
    def test_current_linear_in_concentration(self):
        sensor = RedoxCyclingSensor()
        i1 = sensor.current(0.01) - sensor.background_current
        i2 = sensor.current(0.02) - sensor.background_current
        assert i2 == pytest.approx(2 * i1, rel=1e-9)

    def test_zero_concentration_gives_background(self):
        sensor = RedoxCyclingSensor(background_current=0.7e-12)
        assert sensor.current(0.0) == pytest.approx(0.7e-12)

    def test_paper_current_range_reachable(self):
        sensor = RedoxCyclingSensor()
        # Concentrations that bound the assay chemistry map into 1 pA-100 nA.
        assert sensor.current(1e-6) < 10e-12
        assert 10e-9 < sensor.current(0.2) < 500e-9

    def test_concentration_inverse(self):
        sensor = RedoxCyclingSensor()
        c = sensor.concentration_for_current(sensor.current(0.05))
        assert c == pytest.approx(0.05, rel=1e-9)

    def test_concentration_inverse_below_background(self):
        sensor = RedoxCyclingSensor()
        assert sensor.concentration_for_current(0.1e-12) == 0.0

    def test_bias_check_good(self):
        sensor = RedoxCyclingSensor()
        e0 = sensor.species.standard_potential_v
        assert sensor.check_bias(e0 + 0.3, e0 - 0.3)
        assert sensor.bias_ok

    def test_bias_check_bad_disables_cycling(self):
        sensor = RedoxCyclingSensor()
        e0 = sensor.species.standard_potential_v
        assert not sensor.check_bias(e0 + 0.3, e0 + 0.2)  # collector too high
        assert sensor.current(0.1) == sensor.background_current

    def test_amplification_factor_significant(self):
        # Redox cycling is the whole point: >10x over a single electrode.
        assert RedoxCyclingSensor().amplification_factor() > 10

    def test_single_electrode_current_smaller(self):
        sensor = RedoxCyclingSensor()
        assert sensor.single_electrode_current(0.1) < sensor.current(0.1)

    def test_shot_noise_scales(self):
        sensor = RedoxCyclingSensor()
        assert sensor.shot_noise_rms(1e-9, 1e3) > sensor.shot_noise_rms(1e-12, 1e3)

    def test_ferrocene_species_works(self):
        sensor = RedoxCyclingSensor(species=FERROCENE)
        assert sensor.current(0.1) > sensor.background_current


class TestLabelledSurface:
    def test_flux_linear_in_density(self):
        surface = LabelledSurface()
        assert surface.product_flux(2e16) == pytest.approx(2 * surface.product_flux(1e16))

    def test_flux_zero_for_bare_surface(self):
        assert LabelledSurface().product_flux(0.0) == 0.0

    def test_flux_magnitude(self):
        # Full occupancy at 3e16 /m^2 with AP labels: umol/(m^2 s) scale.
        flux = LabelledSurface().product_flux(3e16)
        assert 1e-7 < flux < 1e-4

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            LabelledSurface().product_flux(-1.0)

    def test_more_labels_more_flux(self):
        single = LabelledSurface(labels_per_target=1.0)
        double = LabelledSurface(labels_per_target=2.0)
        assert double.product_flux(1e16) == pytest.approx(2 * single.product_flux(1e16))


class TestPotentiostat:
    def test_static_error_small(self):
        loop = Potentiostat()
        assert abs(loop.static_error(0.5)) < 1e-3

    def test_electrode_voltage_close_to_target(self):
        loop = Potentiostat()
        assert loop.electrode_voltage(0.45) == pytest.approx(0.45, abs=1e-3)

    def test_recovery_time_positive(self):
        loop = Potentiostat()
        assert loop.recovery_time(1.0) > 0

    def test_recovery_faster_for_smaller_disturbance(self):
        loop = Potentiostat()
        assert loop.recovery_time(0.01) < loop.recovery_time(1.0)

    def test_recovery_zero_for_no_disturbance(self):
        assert Potentiostat().recovery_time(0.0) == 0.0

    def test_charging_current_peak(self):
        loop = Potentiostat()
        assert loop.charging_current_peak(1.0) > 0
