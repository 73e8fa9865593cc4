"""Stationary midnight-count distributions for a daily-review many-server queue.

Three routes to the same object: the exact truncated Markov chain, a
closed-form piecewise proxy for the diffusion approximation, and a Galerkin
projection that solves the diffusion's stationarity equation numerically.
Monte Carlo simulators of both the queue and the diffusion serve as
independent oracles, and a scaling harness checks the diffusion limit
empirically.
"""

from .model import (
    DiffusionParams,
    ModelParams,
    SolverError,
    derive_diffusion_params,
)
from .chain import (
    ChainKernel,
    SimulatedPath,
    StationaryPMF,
    build_kernel,
    simulate_path,
    simulate_replications,
    stationary_pmf,
    stationary_window,
    transient_pmf,
)
from .diffusion import (
    LimitHarnessConfig,
    LimitReport,
    NormalDensity,
    PiecewiseDensity,
    TransitionKernel,
    dou_stationary_density,
    proxy_density,
    run_limit_harness,
    simulate_diffusion,
    transition_density,
)
from .projection import (
    FemBasis,
    GramSystem,
    RatioReconstruction,
    assemble_gram,
    build_basis,
    project_stationary_density,
    solve_gram,
)
from .compare import ComparisonReport, compare_methods, lattice_edges

__version__ = "0.1.0"
