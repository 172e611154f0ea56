"""Redox-cycling current model (the paper's Section 2 detection principle).

"Using a redox-cycling based technique, CMOS chips have recently been
published which detect currents between 1 pA and 100 nA per sensor."

The generator electrode oxidises pAP, the collector re-reduces it; the
quasi-steady cycling current is diffusion-limited across the finger gaps:

    I = n * F * D * c_surface * G(geometry)

plus a background (capacitive + trace-impurity) current that sets the
~pA floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from ..core.units import FARADAY
from .electrode import InterdigitatedElectrode
from .species import RedoxSpecies, P_AMINOPHENOL


@dataclass
class RedoxCyclingSensor:
    """One sensor site's electrochemical transducer.

    Parameters
    ----------
    electrode:
        IDA geometry.
    species:
        The shuttling redox couple.
    background_current:
        Residual current with no analyte (electrode leakage, trace
        impurities); the paper-level floor is ~1 pA.
    bias_ok:
        Set by :meth:`check_bias`; cycling only runs when the generator /
        collector potentials straddle the species' standard potential.
    """

    electrode: InterdigitatedElectrode = field(default_factory=InterdigitatedElectrode)
    species: RedoxSpecies = P_AMINOPHENOL
    background_current: float = 0.5e-12
    bias_ok: bool = True

    def __post_init__(self) -> None:
        if self.background_current < 0:
            raise ValueError("background current must be non-negative")

    def check_bias(self, v_generator: float, v_collector: float, margin_v: float = 0.05) -> bool:
        """Validate the DAC-provided electrode potentials.

        Cycling requires the generator above and the collector below the
        standard potential by at least ``margin_v`` (activation margin).
        Stores and returns the result; a mis-biased sensor produces only
        background current — a realistic chip-configuration failure mode.
        """
        e0 = self.species.standard_potential_v
        self.bias_ok = (v_generator >= e0 + margin_v) and (v_collector <= e0 - margin_v)
        return self.bias_ok

    def current(self, surface_concentration):
        """Cycling current (A) for a given product concentration at the
        surface (mol/m^3); a scalar or an array of per-site
        concentrations (a mis-biased sensor returns the scalar
        background either way)."""
        if np.any(np.asarray(surface_concentration) < 0):
            raise ValueError("concentration must be non-negative")
        if not self.bias_ok:
            return self.background_current
        diffusive = (
            self.species.electrons_transferred
            * FARADAY
            * self.species.diffusion_coefficient
            * surface_concentration
            * self.electrode.geometry_factor()
        )
        return self.background_current + diffusive

    def concentration_for_current(self, current: float) -> float:
        """Invert :meth:`current` (background subtracted); used for
        chip-side calibration of concentration read-outs."""
        if current < self.background_current:
            return 0.0
        denom = (
            self.species.electrons_transferred
            * FARADAY
            * self.species.diffusion_coefficient
            * self.electrode.geometry_factor()
        )
        return (current - self.background_current) / denom

    def single_electrode_current(self, surface_concentration: float, boundary_layer: float = 50e-6) -> float:
        """Current without cycling (collector disconnected) — the
        ablation baseline.  Diffusion-limited through the boundary layer
        instead of across the finger gaps."""
        if surface_concentration < 0:
            raise ValueError("concentration must be non-negative")
        if boundary_layer <= 0:
            raise ValueError("boundary layer must be positive")
        area = 0.5 * self.electrode.metal_area
        diffusive = (
            self.species.electrons_transferred
            * FARADAY
            * self.species.diffusion_coefficient
            * surface_concentration
            * area
            / boundary_layer
        )
        return self.background_current + diffusive

    def amplification_factor(self, surface_concentration: float = 1e-3) -> float:
        """Cycling current over single-electrode current at the same
        concentration — the redox-cycling gain the technique exists for."""
        single = self.single_electrode_current(surface_concentration) - self.background_current
        cycled = self.current(surface_concentration) - self.background_current
        if single <= 0:
            raise ValueError("single-electrode current vanished; cannot form ratio")
        return cycled / single

    def shot_noise_rms(self, current: float, bandwidth_hz: float) -> float:
        """Shot-noise RMS of the sensor current in a given bandwidth."""
        if bandwidth_hz < 0:
            raise ValueError("bandwidth must be non-negative")
        from ..core.noise import shot_noise_density

        return math.sqrt(shot_noise_density(current) * bandwidth_hz)
