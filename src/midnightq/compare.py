"""Three-way comparison of the stationary law on the integer lattice.

The exact chain's pmf, the closed-form proxy and the Galerkin projection are
aligned on the lattice of counts: each density is integrated over the unit
bin of every count, and the three laws are compared by total variation and
by their mean, standard deviation and waiting probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, derive_diffusion_params
from . import chain
from . import projection


@dataclass(frozen=True)
class ComparisonReport:
    """Three-way density comparison aligned on the integer lattice."""

    params: ModelParams
    lattice: np.ndarray
    exact: np.ndarray
    formula: np.ndarray
    projection: np.ndarray

    @staticmethod
    def _tv(a: np.ndarray, b: np.ndarray) -> float:
        return 0.5 * float(np.abs(a - b).sum())

    def tv(self) -> dict[str, float]:
        return {
            "formula_vs_exact": self._tv(self.formula, self.exact),
            "projection_vs_exact": self._tv(self.projection, self.exact),
            "projection_vs_formula": self._tv(self.projection, self.formula),
        }

    def _summary(self, mass: np.ndarray) -> dict[str, float]:
        mean, sd = chain.lattice_moments(self.lattice, mass)
        p_wait = float(mass[self.lattice > self.params.n_servers].sum())
        return {"mean": mean, "sd": sd, "p_wait": p_wait}

    def payload(self) -> dict:
        """The report as JSON-ready data."""
        return {
            "params": {
                "n": self.params.n_servers,
                "lambda": self.params.daily_arrival_rate,
                "mu": self.params.daily_service_prob,
                "mean_los": self.params.mean_los,
                "load": self.params.load,
            },
            "methods": [
                {"name": "exact", **self._summary(self.exact)},
                {"name": "formula", **self._summary(self.formula)},
                {"name": "projection", **self._summary(self.projection)},
            ],
            "tv": self.tv(),
        }


def lattice_edges(n_servers: int, k_max: int) -> np.ndarray:
    """Bin edges in centered coordinates: count k covers [k-N-0.5, k-N+0.5)."""
    return np.arange(k_max + 2, dtype=float) - 0.5 - n_servers


def compare_methods(
    p: ModelParams,
    truncation: int | None = None,
    elements: int = 160,
    tol: float = 1e-12,
    grid_lo: float | None = None,
    grid_hi: float | None = None,
) -> ComparisonReport:
    """Run all three solvers and align them on the integer lattice.

    The exact chain's kernel is built first and solved last: a refused
    ``truncation`` costs no projection, a refused ``elements`` no solve.
    """
    kernel = chain.stationary_kernel(p, truncation)
    d = derive_diffusion_params(p)
    _, system, recon = projection.project_stationary_density(
        d, p.daily_service_prob, num_elements=elements, grid_lo=grid_lo, grid_hi=grid_hi
    )
    pmf = chain.stationary_pmf(kernel, tol=tol)

    edges = lattice_edges(p.n_servers, kernel.truncation_level)
    formula_mass = system.reference.bin_masses(edges)
    projection_mass = recon.bin_masses(edges)
    return ComparisonReport(
        params=p,
        lattice=pmf.support,
        exact=pmf.mass,
        formula=formula_mass / formula_mass.sum(),
        projection=projection_mass / projection_mass.sum(),
    )
