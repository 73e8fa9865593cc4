"""Command-line front end.

Subcommands
-----------
exact        stationary pmf of the truncated midnight-count chain
formula      closed-form piecewise proxy density
projection   Galerkin-projection density with diagnostics
simulate     Monte Carlo occupation frequencies of the chain
limit-check  empirical convergence report of the scaled queue
compare      three-way comparison on the integer lattice

Configuration can come from flags, from a JSON file via --config, or both;
flags win on conflict.  Exit status: 0 on success, 2 for invalid
configuration, 3 for solver failures (diagnostics go to standard error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, UnstableRegimeError, derive_diffusion_params
from . import chain as chain_mod
from . import diffusion as diff_mod
from . import projection as proj_mod


@dataclass
class RunConfig:
    """Validated settings for one CLI invocation."""

    command: str
    n: int | None = None
    sizes: tuple[int, ...] | None = None
    lam: float | None = None
    mu: float | None = None
    mean_los: float | None = None
    truncation: int | None = None
    grid_lo: float | None = None
    grid_hi: float | None = None
    elements: int = 160
    tol: float = 1e-12
    steps: int = 1_000_000
    replications: int = 100_000
    seed: int = 0
    beta_star: float = 1.0
    out: str | None = None
    fmt: str = "csv"

    def model_params(self) -> ModelParams:
        if self.n is None or self.lam is None:
            raise ValueError("--n and --lambda are required for this command")
        if self.mu is not None:
            return ModelParams(self.n, self.lam, self.mu)
        if self.mean_los is not None:
            return ModelParams.from_mean_los(self.n, self.lam, self.mean_los)
        raise ValueError("one of --mu or --mean-los is required")

    def service_prob(self) -> float:
        if self.mu is not None:
            return self.mu
        if self.mean_los is not None:
            return 1.0 / self.mean_los
        raise ValueError("one of --mu or --mean-los is required")


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
        k = self.lattice.astype(float)
        mean = float(k @ mass)
        sd = math.sqrt(max(0.0, float((k - mean) ** 2 @ mass)))
        p_wait = float(mass[self.lattice > self.params.n_servers].sum())
        return {"mean": mean, "sd": sd, "p_wait": p_wait}

    def to_json(self) -> str:
        payload = {
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
        return json.dumps(payload, indent=2, sort_keys=True)


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
    """Run all three solvers and align them on the integer lattice."""
    kernel = chain_mod.build_kernel(p, truncation)
    pmf = chain_mod.stationary_pmf(kernel, tol=tol)

    d = derive_diffusion_params(p)
    mu = p.daily_service_prob
    proxy = diff_mod.proxy_density(d, mu)
    _, _, recon = proj_mod.project_stationary_density(
        d, mu, num_elements=elements, grid_lo=grid_lo, grid_hi=grid_hi
    )

    edges = lattice_edges(p.n_servers, kernel.truncation_level)
    formula_mass = proxy.bin_masses(edges)
    projection_mass = recon.bin_masses(edges)
    return ComparisonReport(
        params=p,
        lattice=kernel.states,
        exact=pmf.mass / pmf.mass.sum(),
        formula=formula_mass / formula_mass.sum(),
        projection=projection_mass / projection_mass.sum(),
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_exact(cfg: RunConfig) -> int:
    p = cfg.model_params()
    kernel = chain_mod.build_kernel(p, cfg.truncation)
    pmf = chain_mod.stationary_pmf(kernel, tol=cfg.tol)
    if cfg.fmt == "csv":
        _emit(chain_mod.pmf_csv(pmf.support, pmf.mass), cfg.out)
    else:
        payload = {
            "states": pmf.support.tolist(),
            "probabilities": pmf.mass.tolist(),
            "residual": pmf.residual,
            "mean": pmf.mean(),
            "sd": pmf.sd(),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    return 0


def _formula_grid(cfg: RunConfig, d) -> np.ndarray:
    if cfg.grid_lo is not None and cfg.grid_hi is not None:
        lo, hi = cfg.grid_lo, cfg.grid_hi
    else:
        lo, hi = proj_mod.default_domain(d)
    return np.linspace(lo, hi, 2 * cfg.elements + 1)


def _cmd_formula(cfg: RunConfig) -> int:
    p = cfg.model_params()
    d = derive_diffusion_params(p)
    proxy = diff_mod.proxy_density(d, p.daily_service_prob)
    grid = _formula_grid(cfg, d)
    table = diff_mod.density_table(proxy, grid)
    if cfg.fmt == "csv":
        _emit(diff_mod.density_csv(table.x, table.density), cfg.out)
    else:
        payload = {
            "x": table.x.tolist(),
            "density": table.density.tolist(),
            "tail_rate": proxy.tail_rate,
            "gaussian_center": proxy.gaussian_center,
            "ou_variance": proxy.ou_variance,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    return 0


def _cmd_projection(cfg: RunConfig) -> int:
    p = cfg.model_params()
    d = derive_diffusion_params(p)
    _, _, recon = proj_mod.project_stationary_density(
        d,
        p.daily_service_prob,
        num_elements=cfg.elements,
        grid_lo=cfg.grid_lo,
        grid_hi=cfg.grid_hi,
    )
    grid = _formula_grid(cfg, d)
    table, diag = recon.table(grid)
    diagnostics = {
        "norm_sq": diag["norm_sq"],
        "residual": diag["residual"],
        "condition_estimate": diag["condition_estimate"],
        "clipped_mass": diag["clipped_mass"],
    }
    if cfg.fmt == "csv":
        _emit(diff_mod.density_csv(table.x, table.density), cfg.out)
        sys.stderr.write(json.dumps(diagnostics, indent=2, sort_keys=True) + "\n")
    else:
        payload = {
            "x": table.x.tolist(),
            "density": table.density.tolist(),
            "diagnostics": diagnostics,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    p = cfg.model_params()
    if p.load >= 1.0:
        sys.stderr.write(
            f"warning: load {p.load:.6g} >= 1: the chain has no stationary law, "
            "so the occupation frequencies do not settle\n"
        )
    path = chain_mod.simulate_path(p, cfg.steps, cfg.seed)
    burn_in = min(10_000, cfg.steps // 10)
    states, freq = chain_mod.empirical_pmf(path.counts, burn_in=burn_in)
    if cfg.fmt == "csv":
        _emit(chain_mod.pmf_csv(states, freq), cfg.out)
    else:
        tail = path.counts[burn_in:]
        payload = {
            "states": states.tolist(),
            "probabilities": freq.tolist(),
            "steps": cfg.steps,
            "burn_in": burn_in,
            "seed": cfg.seed,
            "mean": float(tail.mean()),
            "mean_se": chain_mod.batch_means_se(tail),
            "sd": float(tail.std()),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    return 0


def _cmd_limit_check(cfg: RunConfig) -> int:
    if cfg.sizes is None:
        raise ValueError("--n must list the system sizes, e.g. --n 25,100,400")
    harness = diff_mod.LimitHarnessConfig(
        system_sizes=cfg.sizes,
        horizon=cfg.steps,
        replications=cfg.replications,
        service_prob=cfg.service_prob(),
        beta_star=cfg.beta_star,
        seed=cfg.seed,
    )
    report = diff_mod.run_limit_harness(harness)
    for warning in report.warnings:
        sys.stderr.write(f"warning: {warning}\n")
    _emit(report.to_json(), cfg.out)
    return 0


def _cmd_compare(cfg: RunConfig) -> int:
    p = cfg.model_params()
    report = compare_methods(
        p,
        truncation=cfg.truncation,
        elements=cfg.elements,
        tol=cfg.tol,
        grid_lo=cfg.grid_lo,
        grid_hi=cfg.grid_hi,
    )
    _emit(report.to_json(), cfg.out)
    return 0


_COMMANDS = {
    "exact": _cmd_exact,
    "formula": _cmd_formula,
    "projection": _cmd_projection,
    "simulate": _cmd_simulate,
    "limit-check": _cmd_limit_check,
    "compare": _cmd_compare,
}

_JSON_ONLY = {"limit-check", "compare"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midnightq",
        description="Stationary midnight-count distributions by exact chain, "
        "closed-form proxy, and Galerkin projection.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON file with defaults; flags win on conflict")
    parser.add_argument("--n", help="server count (limit-check: comma-separated sizes)")
    parser.add_argument("--lambda", dest="lam", type=float, help="daily arrival rate")
    parser.add_argument("--mu", type=float, help="daily service probability in (0,1)")
    parser.add_argument("--mean-los", type=float, help="mean length of stay in days")
    parser.add_argument("--truncation", type=int, help="largest retained chain state")
    parser.add_argument("--grid-lo", type=float, help="left end of the working domain")
    parser.add_argument("--grid-hi", type=float, help="right end of the working domain")
    parser.add_argument("--elements", type=int, help="finite elements (default 160)")
    parser.add_argument("--tol", type=float, help="stationary-solve residual (default 1e-12)")
    parser.add_argument("--steps", type=int, help="simulation days / harness horizon")
    parser.add_argument("--replications", type=int, help="harness replications")
    parser.add_argument("--seed", type=int, help="PRNG seed (default 0)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"], help="output format")
    return parser


_CONFIG_KEYS = {
    "n": "n",
    "lambda": "lam",
    "mu": "mu",
    "mean_los": "mean_los",
    "truncation": "truncation",
    "grid_lo": "grid_lo",
    "grid_hi": "grid_hi",
    "elements": "elements",
    "tol": "tol",
    "steps": "steps",
    "replications": "replications",
    "seed": "seed",
    "beta_star": "beta_star",
    "out": "out",
    "format": "fmt",
}


def _parse_sizes(raw, command: str) -> tuple[int | None, tuple[int, ...] | None]:
    if raw is None:
        return None, None
    text = str(raw)
    if command == "limit-check":
        return None, tuple(int(part) for part in text.split(","))
    return int(text), None


def build_config(argv: list[str]) -> RunConfig:
    """Merge defaults, the optional JSON config file, and explicit flags."""
    args = _build_parser().parse_args(argv)
    merged: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            merged[_CONFIG_KEYS[key]] = value
    for key in _CONFIG_KEYS.values():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value

    cfg = RunConfig(command=args.command)
    n_value = merged.pop("n", None)
    cfg.n, cfg.sizes = _parse_sizes(n_value, args.command)
    for key, value in merged.items():
        setattr(cfg, key, value)
    if args.command in _JSON_ONLY:
        if merged.get("fmt", "json") != "json":
            raise ValueError(f"{args.command} only emits JSON")
        cfg.fmt = "json"
    if cfg.mu is not None and cfg.mean_los is not None:
        raise ValueError("pass either --mu or --mean-los, not both")
    if cfg.elements < 4:
        raise ValueError(f"--elements must be at least 4, got {cfg.elements}")
    if cfg.tol <= 0:
        raise ValueError(f"--tol must be positive, got {cfg.tol}")
    if cfg.steps < 0:
        raise ValueError(f"--steps must be nonnegative, got {cfg.steps}")
    if cfg.replications < 1:
        raise ValueError(f"--replications must be positive, got {cfg.replications}")
    return cfg


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    handler = _COMMANDS[cfg.command]
    try:
        return handler(cfg)
    except (chain_mod.ConvergenceError, proj_mod.GramError, UnstableRegimeError) as err:
        sys.stderr.write(f"solver failure: {err}\n")
        return 3
    except ValueError as err:
        sys.stderr.write(f"invalid configuration: {err}\n")
        return 2


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
    except ValueError as err:
        sys.stderr.write(f"invalid configuration: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"invalid configuration: {err}\n")
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
