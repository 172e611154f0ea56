"""The calibrated sensor pixel of Fig. 6 (M1, M2, S1..S3).

"Since the maximum signal amplitudes are between 100 uV and 5 mV, the
sensor MOSFETs (M1) must be calibrated to compensate for the effect of
their parameter variations.  This is done by closing switch S1 and
forcing a current through M1 by current source M2.  After opening S1
again, a voltage related to the calibration current is stored on the
gate of M1. ... all sensor transistors M1 within a row provide the same
current when selected independent of their individual device parameters."

The model keeps the physics explicit: Pelgrom-distributed M1/M2, the
feedback solve for the stored gate voltage, charge injection of S1,
kT/C noise of the storage node, and leakage droop between calibration
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.mismatch import MismatchSampler
from ..core.noise import kt_over_c_noise
from ..core.process import ProcessSpec, default_process
from ..core.rng import RngLike, ensure_rng
from ..core.units import fF, um
from ..devices.mosfet import Mosfet
from ..devices.switches import MosSwitch


@dataclass
class NeuralPixelDesign:
    """Shared (design-level) parameters of every pixel in the array."""

    process: ProcessSpec = field(default_factory=default_process)
    m1_width: float = 2.0 * um
    m1_length: float = 1.0 * um
    calibration_current: float = 5e-6
    coupling_factor: float = 0.55  # electrode-to-gate capacitive divider
    # Storage node = M1 gate + the large sensor-electrode plate behind
    # the thin sensing dielectric (the Fig. 5 stack); the plate dominates.
    storage_capacitance: float = 500 * fF
    s1_width: float = 0.8 * um
    s1_length: float = 0.5 * um
    # A half-sized dummy switch clocked in antiphase cancels most of the
    # S1 channel charge; ``dummy_compensation`` is the cancelled
    # fraction, ``injection_residual_sigma`` the pixel-to-pixel spread
    # of the *net* step (relative to the gross step).  With these values
    # the residual input-referred offset lands near 100 uV — at the
    # bottom edge of the paper's signal window, as it must for the
    # recordings of [19-21] to work.
    dummy_compensation: float = 0.98
    injection_residual_sigma: float = 0.015

    def __post_init__(self) -> None:
        if self.calibration_current <= 0:
            raise ValueError("calibration current must be positive")
        if not 0.0 < self.coupling_factor <= 1.0:
            raise ValueError("coupling factor must lie in (0, 1]")
        if self.storage_capacitance <= 0:
            raise ValueError("storage capacitance must be positive")
        if not 0.0 <= self.dummy_compensation <= 1.0:
            raise ValueError("dummy compensation must lie in [0, 1]")
        if self.injection_residual_sigma < 0:
            raise ValueError("injection residual sigma must be non-negative")


class NeuralSensorPixel:
    """One pixel: sensor transistor M1, calibration source M2, switch S1.

    Parameters
    ----------
    design:
        Shared design values.
    rng:
        Per-pixel mismatch draw.
    """

    def __init__(self, design: NeuralPixelDesign | None = None, rng: RngLike = None) -> None:
        self.design = design or NeuralPixelDesign()
        generator = ensure_rng(rng)
        sampler = MismatchSampler(self.design.process, self.design.m1_width, self.design.m1_length)
        self.m1 = Mosfet(
            self.design.m1_width,
            self.design.m1_length,
            "n",
            self.design.process,
            sampler.draw(generator),
        )
        # M2's current differs pixel-to-pixel through its own mismatch.
        m2_sampler = MismatchSampler(self.design.process, 2 * self.design.m1_width, self.design.m1_length)
        m2_mismatch = m2_sampler.draw(generator)
        nominal = self.design.calibration_current
        self.i_m2 = nominal * (1.0 + m2_mismatch.delta_beta_rel) * (
            1.0 - 3.0 * m2_mismatch.delta_vth
        )
        self.s1 = MosSwitch(self.design.s1_width, self.design.s1_length, self.design.process)
        self.stored_gate_v: float | None = None
        self._kt_c_draw = float(generator.normal(0.0, 1.0))
        self._injection_draw = float(generator.normal(0.0, 1.0))

    # ------------------------------------------------------------------
    # Calibration (S1 closed -> opened)
    # ------------------------------------------------------------------
    def calibrate(self, include_imperfections: bool = True) -> float:
        """Run the calibration cycle; returns the stored gate voltage.

        The loop forces M1 to carry M2's actual current; opening S1 adds
        the dummy-compensated charge-injection residue, its pixel-to-
        pixel spread, and a kT/C sample.
        """
        v_exact = self.m1.vgs_for_current(self.i_m2)
        stored = v_exact
        if include_imperfections:
            node_c = self.design.storage_capacitance
            gross = self.s1.injection_step(v_exact, node_c) + self.s1.clock_feedthrough(node_c)
            stored += gross * (1.0 - self.design.dummy_compensation)
            stored += abs(gross) * self.design.injection_residual_sigma * self._injection_draw
            stored += kt_over_c_noise(node_c) * self._kt_c_draw
        self.stored_gate_v = stored
        return stored

    def droop(self, hold_time_s: float) -> None:
        """Leakage droop of the stored voltage between calibrations."""
        if self.stored_gate_v is None:
            raise RuntimeError("pixel has not been calibrated")
        if hold_time_s < 0:
            raise ValueError("hold time must be non-negative")
        self.stored_gate_v -= self.s1.droop_rate(self.design.storage_capacitance) * hold_time_s

    # ------------------------------------------------------------------
    # Currents
    # ------------------------------------------------------------------
    def uncalibrated_current(self) -> float:
        """M1's current if biased at the *nominal* gate voltage — what the
        array would deliver without the calibration scheme."""
        nominal_pixel = Mosfet(
            self.design.m1_width, self.design.m1_length, "n", self.design.process
        )
        v_nominal = nominal_pixel.vgs_for_current(self.design.calibration_current)
        return self.m1.ids_saturation(v_nominal)

    def readout_current(self, sensor_voltage: float = 0.0) -> float:
        """M1 current in readout mode with an electrode excursion.

        ``sensor_voltage`` is the cleft voltage V_J; the coupling factor
        attenuates it onto the stored gate.
        """
        if self.stored_gate_v is None:
            raise RuntimeError("pixel has not been calibrated")
        v_gate = self.stored_gate_v + self.design.coupling_factor * sensor_voltage
        return self.m1.ids_saturation(v_gate)

    def difference_current(self, sensor_voltage: float = 0.0) -> float:
        """The readout signal: I(M1) - I(M2), ideally gm*k*V_J."""
        return self.readout_current(sensor_voltage) - self.i_m2

    def offset_current(self) -> float:
        """Residual difference current with no signal — the calibration
        figure of merit."""
        return self.difference_current(0.0)

    def transconductance(self) -> float:
        """Small-signal gain dI/dV_J at the operating point, A/V."""
        if self.stored_gate_v is None:
            raise RuntimeError("pixel has not been calibrated")
        gm = self.m1.gm(self.stored_gate_v, self.design.process.vdd / 2.0)
        return gm * self.design.coupling_factor

    def input_referred_offset(self) -> float:
        """Offset current divided by transconductance: the equivalent
        sensor-voltage error, directly comparable to the 100 uV signals."""
        gm_eff = self.transconductance()
        if gm_eff <= 0:
            raise RuntimeError("pixel transconductance vanished")
        return self.offset_current() / gm_eff


# ---------------------------------------------------------------------------
# Vectorised array-scale equivalents (16384 pixels without 16384 objects)
# ---------------------------------------------------------------------------
def ekv_vgs_for_current_array(
    currents: np.ndarray,
    vth: np.ndarray,
    beta: np.ndarray,
    process: ProcessSpec,
    temperature_k: float = 300.0,
) -> np.ndarray:
    """Closed-form EKV inverse: gate voltage for a saturation current.

    Matches :meth:`repro.devices.mosfet.Mosfet.vgs_for_current` to the
    accuracy of the channel-length-modulation term it ignores.
    """
    from ..core.units import thermal_voltage

    vt = thermal_voltage(temperature_k)
    n = process.subthreshold_slope_n
    i_spec = 2.0 * n * beta * vt * vt
    u = np.sqrt(np.asarray(currents) / i_spec)
    # ln(e^u - 1) computed stably for small and large u.
    x = np.where(u > 30.0, u, np.log(np.expm1(np.maximum(u, 1e-12))))
    return vth + n * (2.0 * vt * x)


def ekv_ids_array(
    vgs: np.ndarray,
    vth: np.ndarray,
    beta: np.ndarray,
    process: ProcessSpec,
    temperature_k: float = 300.0,
) -> np.ndarray:
    """Vectorised saturation current of the EKV interpolation."""
    from ..core.units import thermal_voltage

    vt = thermal_voltage(temperature_k)
    n = process.subthreshold_slope_n
    i_spec = 2.0 * n * beta * vt * vt
    x = (np.asarray(vgs) - vth) / (2.0 * n * vt)
    log_term = np.where(x > 40.0, x, np.log1p(np.exp(np.minimum(x, 40.0))))
    return i_spec * log_term**2
