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
import sys
from dataclasses import dataclass

import numpy as np

from .compare import compare_methods
from .model import ModelParams, UnstableRegimeError, derive_diffusion_params
from . import chain as chain_mod
from . import diffusion as diff_mod
from . import projection as proj_mod


@dataclass
class RunConfig:
    """Validated settings for one CLI invocation."""

    command: str
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

    @property
    def n(self) -> int | None:
        """The server count of a command that takes one."""
        if self.sizes is not None and len(self.sizes) != 1:
            raise ValueError(f"--n takes one server count for {self.command}")
        return None if self.sizes is None else self.sizes[0]

    def model_params(self) -> ModelParams:
        if self.sizes is None or self.lam is None:
            raise ValueError("--n and --lambda are required for this command")
        if self.mean_los is not None:
            return ModelParams.from_mean_los(self.n, self.lam, self.mean_los)
        return ModelParams(self.n, self.lam, self.service_prob())

    def service_prob(self) -> float:
        if self.mu is not None:
            return self.mu
        if self.mean_los is not None:
            return 1.0 / self.mean_los
        raise ValueError("one of --mu or --mean-los is required")


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
    density = proxy(grid)
    if cfg.fmt == "csv":
        _emit(diff_mod.density_csv(grid, density), cfg.out)
    else:
        payload = {
            "x": grid.tolist(),
            "density": density.tolist(),
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
    density, diag = recon.table(grid)
    diagnostics = {
        "norm_sq": diag["norm_sq"],
        "residual": diag["residual"],
        "condition_estimate": diag["condition_estimate"],
        "clipped_mass": diag["clipped_mass"],
    }
    if cfg.fmt == "csv":
        _emit(diff_mod.density_csv(grid, density), cfg.out)
        sys.stderr.write(json.dumps(diagnostics, indent=2, sort_keys=True) + "\n")
    else:
        payload = {
            "x": grid.tolist(),
            "density": density.tolist(),
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


def counts(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# Config-file key -> (RunConfig field, type, help).  Each key is also the
# flag "--" + key, with "-" for "_".
_OPTIONS = {
    "n": ("sizes", counts, "server count (limit-check: comma-separated sizes)"),
    "lambda": ("lam", float, "daily arrival rate"),
    "mu": ("mu", float, "daily service probability in (0,1)"),
    "mean_los": ("mean_los", float, "mean length of stay in days"),
    "truncation": ("truncation", int, "largest retained chain state"),
    "grid_lo": ("grid_lo", float, "left end of the working domain"),
    "grid_hi": ("grid_hi", float, "right end of the working domain"),
    "elements": ("elements", int, "finite elements (default 160)"),
    "tol": ("tol", float, "stationary-solve residual (default 1e-12)"),
    "steps": ("steps", int, "simulation days / harness horizon"),
    "replications": ("replications", int, "harness replications"),
    "seed": ("seed", int, "PRNG seed (default 0)"),
    "beta_star": ("beta_star", float, "limit-check: sqrt(N)(1 - load) of every size (default 1)"),
    "out": ("out", str, "output path (default: stdout)"),
    "format": ("fmt", str, "output format"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midnightq",
        description="Stationary midnight-count distributions by exact chain, "
        "closed-form proxy, and Galerkin projection.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON file with defaults; flags win on conflict")
    for key, (field, kind, text) in _OPTIONS.items():
        choices = ["csv", "json"] if key == "format" else None
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=field, type=kind, choices=choices, help=text)
    return parser


def build_config(argv: list[str]) -> RunConfig:
    """Merge defaults, the optional JSON config file, and explicit flags.

    Each config-file entry is read as its flag, placed before the command
    line's flags, so that those win.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(_OPTIONS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        entries = [f"--{key.replace('_', '-')}={value}" for key, value in file_cfg.items()]
        args = parser.parse_args(entries + argv)

    given = {field: getattr(args, field) for field, _, _ in _OPTIONS.values()}
    cfg = RunConfig(args.command, **{k: v for k, v in given.items() if v is not None})
    if args.command in _JSON_ONLY:
        if args.fmt not in (None, "json"):
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
    except (ValueError, OSError) as err:
        sys.stderr.write(f"invalid configuration: {err}\n")
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
