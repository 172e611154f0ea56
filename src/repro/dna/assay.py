"""End-to-end DNA microarray assay (the Fig. 2 protocol).

Phases, exactly as the figure:

  a)-c)  immobilization — probes at known positions (``ProbeLayout``);
  d)-e)  hybridization — sample applied to the whole chip; match sites
         bind, mismatch sites bind weakly;
  f)-g)  washing — unbound/weak duplexes stripped;
  then   electrochemical readout — enzyme labels generate redox product,
         redox cycling converts surface concentration into the 1 pA -
         100 nA sensor currents that the in-pixel ADCs digitise.

Competition: when several sample targets can bind the same probe, the
site's capture is shared proportionally to each target's k_on * c.

The chemistry is columnar: one probe x target mismatch matrix per
sample composition (memoized on the assay object), one occupancy solve
per distinct probe, and NumPy columns over the sites for everything
downstream of the per-spot probe density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..electrochem.diffusion import surface_concentration_quasi_static
from ..electrochem.enzyme import LabelledSurface
from ..electrochem.redox_cycling import RedoxCyclingSensor
from .hybridization import DEFAULT_KINETICS, HybridizationKinetics
from .sample import Sample
from .sequences import Probe, Target, mismatch_matrix
from .spotting import ProbeLayout


@dataclass(frozen=True)
class AssayProtocol:
    """Timing and chemistry of one assay run.

    Parameters
    ----------
    hybridization_s:
        Exposure time to the sample (typ. 30-120 min).
    wash_s:
        Washing duration (typ. 30-300 s).
    boundary_layer_m:
        Diffusion boundary layer above the sensors during readout.
    max_cross_mismatches:
        Targets with more mismatches than this against a probe are
        treated as non-binding (saves O(sites x targets) rate math for
        obviously unrelated sequences).
    """

    hybridization_s: float = 3600.0
    wash_s: float = 120.0
    boundary_layer_m: float = 50e-6
    max_cross_mismatches: int = 6

    def __post_init__(self) -> None:
        if self.hybridization_s <= 0 or self.wash_s < 0:
            raise ValueError("invalid protocol times")
        if self.boundary_layer_m <= 0:
            raise ValueError("boundary layer must be positive")


@dataclass(frozen=True)
class SiteResult:
    """Physical outcome at one array position."""

    row: int
    col: int
    probe_name: str  # "" for bare control spots
    best_match_mismatches: int  # mismatches of the closest-binding target (99 = none)
    occupancy_after_hybridization: float
    occupancy_after_wash: float
    bound_density: float  # molecules/m^2 after washing
    surface_concentration: float  # mol/m^3 of redox product at readout
    sensor_current: float  # A

    @property
    def is_match_site(self) -> bool:
        return self.best_match_mismatches == 0


@dataclass(eq=False)
class AssayResult:
    """All site outcomes as row-major columns plus array-level summaries.

    Element ``i`` of every column belongs to site ``divmod(i, cols)``;
    the columns carry the :class:`SiteResult` field names.
    """

    rows: int
    cols: int
    probe_name: np.ndarray  # object array of str, "" for bare spots
    best_match_mismatches: np.ndarray
    occupancy_after_hybridization: np.ndarray
    occupancy_after_wash: np.ndarray
    bound_density: np.ndarray
    surface_concentration: np.ndarray
    sensor_current: np.ndarray

    @cached_property
    def sites(self) -> list[SiteResult]:
        """The columns as one :class:`SiteResult` per site, row-major."""
        columns = zip(
            self.probe_name.tolist(),
            self.best_match_mismatches.tolist(),
            self.occupancy_after_hybridization.tolist(),
            self.occupancy_after_wash.tolist(),
            self.bound_density.tolist(),
            self.surface_concentration.tolist(),
            self.sensor_current.tolist(),
        )
        return [
            SiteResult(*divmod(index, self.cols), *values)
            for index, values in enumerate(columns)
        ]

    @property
    def is_match(self) -> np.ndarray:
        return self.best_match_mismatches == 0

    @property
    def is_mismatch(self) -> np.ndarray:
        """Probe sites whose best binder is not a perfect match."""
        return ~self.is_match & (self.probe_name != "")

    def current_map(self) -> np.ndarray:
        return self.sensor_current.reshape(self.rows, self.cols).copy()

    def site_at(self, row: int, col: int) -> SiteResult:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise KeyError(f"no site at ({row}, {col})")
        return self.sites[row * self.cols + col]

    def match_sites(self) -> list[SiteResult]:
        return [s for s in self.sites if s.is_match_site]

    def mismatch_sites(self) -> list[SiteResult]:
        return [s for s in self.sites if not s.is_match_site and s.probe_name]

    def discrimination_ratio(self) -> float:
        """Median match current over median non-match current."""
        matches = self.sensor_current[self.is_match]
        others = self.sensor_current[self.is_mismatch]
        if not len(matches) or not len(others):
            raise ValueError("need both match and mismatch sites for a ratio")
        return float(np.median(matches) / np.median(others))

    def dynamic_range_decades(self) -> float:
        currents = self.sensor_current[self.sensor_current > 0]
        if not len(currents):
            raise ValueError("no positive currents recorded")
        return float(np.log10(currents.max() / currents.min()))


class MicroarrayAssay:
    """Runs the Fig. 2 protocol over a layout and a sample.

    Parameters
    ----------
    layout:
        Probe placement.
    kinetics:
        Hybridization rate model.
    labelled_surface:
        Enzyme-label chemistry converting bound targets to product flux.
    sensor:
        Electrochemical transducer (one per site, identical geometry).
    """

    def __init__(
        self,
        layout: ProbeLayout,
        kinetics: HybridizationKinetics = DEFAULT_KINETICS,
        labelled_surface: LabelledSurface | None = None,
        sensor: RedoxCyclingSensor | None = None,
    ) -> None:
        self.layout = layout
        self.kinetics = kinetics
        self.labelled_surface = labelled_surface or LabelledSurface()
        self.sensor = sensor or RedoxCyclingSensor()
        # (probes, targets) -> mismatch matrix rows: every dose of one
        # sample composition reuses the same matrix.
        self._mismatches: dict[tuple[tuple[Probe, ...], tuple[Target, ...]], list] = {}

    # ------------------------------------------------------------------
    def run(self, sample: Sample, protocol: AssayProtocol | None = None) -> AssayResult:
        protocol = protocol or AssayProtocol()
        layout = self.layout
        n_sites = layout.rows * layout.cols
        # Distinct probes in first-appearance order; bare spots (no probe
        # or no density) index -1.
        probe_index: dict[Probe, int] = {}
        site_probe = []
        density = np.zeros(n_sites)
        for index, (row, col) in enumerate(layout.all_positions()):
            spot = layout.spot(row, col)
            if spot.probe is None or spot.probe_density <= 0:
                site_probe.append(-1)
                continue
            site_probe.append(probe_index.setdefault(spot.probe, len(probe_index)))
            density[index] = spot.probe_density
        probes = tuple(probe_index)
        # One solve per distinct probe; the bare-spot entry goes last.
        per_probe = self._probe_occupancy(probes, sample, protocol) + [(0.0, 0.0, 99)]
        theta_hyb, theta_wash, best_mm = zip(*per_probe)
        names = [probe.name for probe in probes] + [""]
        per_site = np.asarray(site_probe, dtype=np.intp)
        occupancy_wash = np.array(theta_wash)[per_site]
        bound_density = occupancy_wash * density
        flux = self.labelled_surface.product_flux(bound_density)
        concentration = surface_concentration_quasi_static(
            flux,
            protocol.boundary_layer_m,
            self.labelled_surface.label.product.diffusion_coefficient,
        )
        return AssayResult(
            rows=layout.rows,
            cols=layout.cols,
            probe_name=np.array(names, dtype=object)[per_site],
            best_match_mismatches=np.array(best_mm, dtype=np.int64)[per_site],
            occupancy_after_hybridization=np.array(theta_hyb)[per_site],
            occupancy_after_wash=occupancy_wash,
            bound_density=bound_density,
            surface_concentration=concentration,
            sensor_current=np.zeros(n_sites) + self.sensor.current(concentration),
        )

    # ------------------------------------------------------------------
    def _probe_occupancy(
        self, probes: tuple[Probe, ...], sample: Sample, protocol: AssayProtocol
    ) -> list[tuple[float, float, int]]:
        """(hybridized, washed, closest-binder mismatches) occupancy per
        probe, over the targets within ``protocol.max_cross_mismatches``."""
        targets = tuple(sample.contents)
        key = (probes, targets)
        if key not in self._mismatches:
            self._mismatches[key] = mismatch_matrix(
                [probe.sequence for probe in probes],
                [target.recognition for target in targets],
            ).tolist()
        concentrations = list(sample.contents.values())
        return [
            self._occupancy(
                probe,
                [
                    (target, concentration, mismatches)
                    for target, concentration, mismatches in zip(targets, concentrations, row)
                    if concentration > 0 and mismatches <= protocol.max_cross_mismatches
                ],
                protocol,
            )
            for probe, row in zip(probes, self._mismatches[key])
        ]

    def _occupancy(self, probe: Probe, binders, protocol: AssayProtocol):
        """Competitive Langmuir: share the site by k_on*c weight, each
        component relaxing with its own rate, then wash."""
        if not binders:
            return 0.0, 0.0, 99
        best_mm = min(mm for _, _, mm in binders)
        theta_hyb_total = 0.0
        theta_wash_total = 0.0
        # Occupancy headroom: solve each component as if alone, then
        # re-normalise so the sum cannot exceed the single-site Langmuir
        # bound for the combined loading.
        singles = []
        for target, concentration, mismatches in binders:
            theta = self.kinetics.occupancy_after(
                protocol.hybridization_s,
                concentration,
                mismatches,
                0.0,
                len(probe.sequence),
                target.length,
            )
            singles.append((theta, mismatches))
        total = sum(theta for theta, _ in singles)
        scale = 1.0 if total <= 1.0 else 1.0 / total
        for theta, mismatches in singles:
            theta_scaled = theta * scale
            theta_hyb_total += theta_scaled
            theta_wash_total += self.kinetics.occupancy_after_wash(
                protocol.wash_s, mismatches, theta_scaled
            )
        return min(theta_hyb_total, 1.0), min(theta_wash_total, 1.0), best_mm
