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
    UnstableRegimeError,
    derive_diffusion_params,
)
from .chain import (
    ChainKernel,
    ConvergenceError,
    SimulatedPath,
    StationaryPMF,
    build_kernel,
    default_truncation,
    simulate_path,
    simulate_replications,
    stationary_pmf,
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
    GramError,
    GramSystem,
    RatioReconstruction,
    assemble_gram,
    build_basis,
    default_basis,
    project_stationary_density,
    solve_gram,
)
from .compare import ComparisonReport, compare_methods, lattice_edges

__version__ = "0.1.0"
