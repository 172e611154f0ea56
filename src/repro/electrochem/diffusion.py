"""1-D diffusion solver for the analyte compartment above a sensor site.

After the substrate (pAPP) is applied, the enzyme labels on the sensor
surface generate redox product (pAP) at z = 0; the product diffuses into
the bulk.  The surface concentration — which sets the redox-cycling
current — therefore *ramps up* over seconds, exactly the measured signal
shape of the redox-cycling chips.  Crank-Nicolson on a uniform grid with
a flux (Neumann) boundary at the surface and a sink (Dirichlet) at the
top of the boundary layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded


@dataclass
class DiffusionDomain:
    """Uniform 1-D grid from the sensor surface (z=0) to the bulk.

    Parameters
    ----------
    height:
        Domain height (boundary-layer thickness), m.
    cells:
        Number of grid cells.
    diffusion_coefficient:
        D of the transported species, m^2/s.
    """

    height: float
    cells: int
    diffusion_coefficient: float

    def __post_init__(self) -> None:
        if self.height <= 0:
            raise ValueError("height must be positive")
        if self.cells < 3:
            raise ValueError("need at least 3 cells")
        if self.diffusion_coefficient <= 0:
            raise ValueError("D must be positive")
        self.dz = self.height / self.cells
        self.z = (np.arange(self.cells) + 0.5) * self.dz
        self.concentration = np.zeros(self.cells)

    def reset(self, value: float = 0.0) -> None:
        if value < 0:
            raise ValueError("concentration must be non-negative")
        self.concentration[:] = value

    def stable_dt(self) -> float:
        """Explicit-scheme stability bound, used as a default step."""
        return 0.25 * self.dz * self.dz / self.diffusion_coefficient

    def step(self, dt: float, surface_flux: float, consume_fraction: float = 0.0) -> None:
        """Advance by ``dt`` with Crank-Nicolson.

        Parameters
        ----------
        surface_flux:
            Product injection at z=0 in mol/(m^2 s) (from the enzyme
            layer).  May be zero.
        consume_fraction:
            Fraction of the *surface-cell* content consumed per pass by
            the electrode reaction (redox cycling conserves the shuttling
            species, so this is ~0 for cycling and >0 for a consuming
            single electrode).
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= consume_fraction <= 1.0:
            raise ValueError("consume_fraction must lie in [0, 1]")
        n = self.cells
        r = self.diffusion_coefficient * dt / (2.0 * self.dz * self.dz)
        # Build the implicit tridiagonal (I - r*L) and explicit (I + r*L)
        # with Neumann at i=0 (flux handled as a source term) and
        # Dirichlet c=0 at the far boundary (ghost node at bulk value 0).
        main_imp = np.full(n, 1.0 + 2.0 * r)
        main_exp = np.full(n, 1.0 - 2.0 * r)
        main_imp[0] = 1.0 + r  # reflecting surface
        main_exp[0] = 1.0 - r
        upper = np.full(n - 1, -r)
        lower = np.full(n - 1, -r)
        rhs = main_exp * self.concentration
        rhs[1:] += r * self.concentration[:-1]
        rhs[:-1] += r * self.concentration[1:]
        # Surface source: flux spread over the first cell.
        rhs[0] += dt * surface_flux / self.dz
        # Electrode consumption as first-order loss in the surface cell.
        if consume_fraction > 0:
            rhs[0] *= 1.0 - consume_fraction
        banded = np.zeros((3, n))
        banded[0, 1:] = upper
        banded[1, :] = main_imp
        banded[2, :-1] = lower
        self.concentration = solve_banded((1, 1), banded, rhs)
        np.clip(self.concentration, 0.0, None, out=self.concentration)

    @property
    def surface_concentration(self) -> float:
        """Concentration in the cell adjacent to the electrode, mol/m^3."""
        return float(self.concentration[0])

    def total_amount(self) -> float:
        """Moles per unit area currently in the domain."""
        return float(np.sum(self.concentration) * self.dz)


def surface_concentration_quasi_static(
    flux, boundary_layer: float, diffusion_coefficient: float
):
    """Steady-state surface concentration for constant injection flux.

    c_s = J * delta / D — the closed-form shortcut used by array-level
    assay simulations where running a PDE per site would be wasteful.
    ``flux`` is a scalar or an array of per-site fluxes.
    """
    if boundary_layer <= 0 or diffusion_coefficient <= 0:
        raise ValueError("boundary layer and D must be positive")
    if np.any(np.asarray(flux) < 0):
        raise ValueError("flux must be non-negative")
    return flux * boundary_layer / diffusion_coefficient


def ramp_time_constant(boundary_layer: float, diffusion_coefficient: float) -> float:
    """Diffusive settling time delta^2/(2D) of the surface concentration."""
    if boundary_layer <= 0 or diffusion_coefficient <= 0:
        raise ValueError("boundary layer and D must be positive")
    return boundary_layer * boundary_layer / (2.0 * diffusion_coefficient)
