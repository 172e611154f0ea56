"""Shared infrastructure: units, traces, noise, mismatch, sweeps, tables."""

from .fitting import (
    LinearFit,
    linear_fit,
    loglog_slope,
    proportionality_error,
    snr_db,
    usable_dynamic_range,
)
from .mismatch import MismatchSample, MismatchSampler, spread_report
from .noise import (
    NoiseBudget,
    flicker_noise_trace,
    integrate_white_noise,
    kt_over_c_noise,
    shot_noise_density,
    shot_noise_trace,
    single_pole_enbw,
    thermal_current_noise_density,
    thermal_voltage_noise_density,
    white_noise_trace,
)
from .process import C5_PROCESS, NEURO_PROCESS, ProcessSpec, default_process
from .rng import ensure_rng, spawn_child, spawn_children
from .signals import Trace, concatenate, time_axis
from .sweep import SweepResult, lin_space, log_space, run_sweep
from .tables import render_kv, render_table
from . import units

__all__ = [
    "C5_PROCESS",
    "LinearFit",
    "MismatchSample",
    "MismatchSampler",
    "NEURO_PROCESS",
    "NoiseBudget",
    "ProcessSpec",
    "SweepResult",
    "Trace",
    "concatenate",
    "default_process",
    "ensure_rng",
    "flicker_noise_trace",
    "integrate_white_noise",
    "kt_over_c_noise",
    "lin_space",
    "linear_fit",
    "log_space",
    "loglog_slope",
    "proportionality_error",
    "render_kv",
    "render_table",
    "run_sweep",
    "shot_noise_density",
    "shot_noise_trace",
    "single_pole_enbw",
    "snr_db",
    "spawn_child",
    "spawn_children",
    "spread_report",
    "thermal_current_noise_density",
    "thermal_voltage_noise_density",
    "time_axis",
    "units",
    "usable_dynamic_range",
    "white_noise_trace",
]
