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
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .compare import compare_methods
from .model import ModelParams, SolverError, derive_diffusion_params, service_prob_of
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
        return ModelParams(self.n, self.lam, self.service_prob())

    def service_prob(self) -> float:
        """The daily service probability every command reads, from --mu or
        --mean-los; a --mu outside (0, 1), or nan, is refused by its flag."""
        if self.mu is not None:
            if not 0.0 < self.mu < 1.0:
                raise ValueError(f"--mu must lie in (0, 1), got {self.mu!r}")
            return self.mu
        if self.mean_los is not None:
            return service_prob_of(self.mean_los)
        raise ValueError("one of --mu or --mean-los is required")


def csv_table(points: np.ndarray, values: np.ndarray) -> str:
    """CSV of a law: ``state,probability`` rows on integer states, else
    ``x,density`` rows on a real grid; values to 12 significant digits."""
    lattice = np.issubdtype(points.dtype, np.integer)
    row = "{:d},{:.12g}" if lattice else "{:.12g},{:.12g}"
    lines = ["state,probability" if lattice else "x,density"]
    lines += [row.format(x, v) for x, v in zip(points.tolist(), values.tolist())]
    return "\n".join(lines) + "\n"


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(cfg: RunConfig, table: tuple[np.ndarray, np.ndarray] | None, fields: dict) -> None:
    """Emit a command's result to ``cfg.out`` or stdout.

    ``table`` is the law as ``(points, values)``, or None for a JSON-only
    command; ``fields`` holds the command's other JSON keys, and the JSON
    is built in it.  CSV is the table alone.  JSON names the law's keys as
    ``csv_table`` heads its columns: ``states``/``probabilities`` on
    integer states, else ``x``/``density``.
    """
    if cfg.fmt == "csv" and table is not None:
        text = csv_table(*table)
    else:
        if table is not None:
            points, values = table
            lattice = np.issubdtype(points.dtype, np.integer)
            keys = ("states", "probabilities") if lattice else ("x", "density")
            fields.update(zip(keys, (points.tolist(), values.tolist())))
        text = _dumps(fields)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"--out {cfg.out!r} cannot be written: {err.strerror}") from err


_Result = tuple[tuple[np.ndarray, np.ndarray] | None, dict]


def _cmd_exact(cfg: RunConfig) -> _Result:
    p = cfg.model_params()
    pmf = chain_mod.stationary_pmf(chain_mod.stationary_kernel(p, cfg.truncation), tol=cfg.tol)
    mean, sd = chain_mod.lattice_moments(pmf.support, pmf.mass)
    return (pmf.support, pmf.mass), {"residual": pmf.residual, "mean": mean, "sd": sd}


def _formula_grid(cfg: RunConfig, d) -> np.ndarray:
    chain_mod._check_budget(chain_mod._ROW_BYTES * (2 * cfg.elements + 1),
                            f"a {2 * cfg.elements + 1}-point grid needs", "set fewer --elements")
    lo, hi = proj_mod.working_domain(d, cfg.grid_lo, cfg.grid_hi)
    return np.linspace(lo, hi, 2 * cfg.elements + 1)


def _cmd_formula(cfg: RunConfig) -> _Result:
    p = cfg.model_params()
    d = derive_diffusion_params(p)
    proxy = diff_mod.proxy_density(d, p.daily_service_prob)
    grid = _formula_grid(cfg, d)
    fields = {
        "tail_rate": proxy.tail_rate,
        "gaussian_center": proxy.gaussian_center,
        "ou_variance": proxy.ou_variance,
    }
    return (grid, proxy(grid)), fields


def _cmd_projection(cfg: RunConfig) -> _Result:
    p = cfg.model_params()
    d = derive_diffusion_params(p)
    _, _, recon = proj_mod.project_stationary_density(
        d, p.daily_service_prob, num_elements=cfg.elements, grid_lo=cfg.grid_lo, grid_hi=cfg.grid_hi
    )
    grid = _formula_grid(cfg, d)
    density, diagnostics = recon.table(grid)
    if cfg.fmt == "csv":
        sys.stderr.write(_dumps(diagnostics))
    return (grid, density), {"diagnostics": diagnostics}


def _cmd_simulate(cfg: RunConfig) -> _Result:
    p = cfg.model_params()
    if cfg.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {cfg.steps}")
    chain_mod._check_budget(8 * (cfg.steps + 1), f"a path of {cfg.steps} days needs",
                            "lower --steps")
    if p.load >= 1.0:
        sys.stderr.write(
            f"warning: load {p.load:.6g} >= 1: the chain has no stationary law, "
            "so the occupation frequencies do not settle\n"
        )
    path = chain_mod.simulate_path(p, cfg.steps, cfg.seed)
    burn_in = min(10_000, cfg.steps // 10)
    table = chain_mod.empirical_pmf(path.counts, burn_in=burn_in)
    mean, sd = chain_mod.lattice_moments(*table)
    fields = {
        "steps": cfg.steps,
        "burn_in": burn_in,
        "seed": cfg.seed,
        "mean": mean,
        "mean_se": chain_mod.batch_means_se(path.counts[burn_in:]),
        "sd": sd,
    }
    return table, fields


def _cmd_limit_check(cfg: RunConfig) -> _Result:
    if cfg.sizes is None:
        raise ValueError("--n must list the system sizes, e.g. --n 25,100,400")
    if cfg.steps < 0:
        raise ValueError(f"--steps must be at least 0, got {cfg.steps}")
    if cfg.replications < 1:
        raise ValueError(f"--replications must be at least 1, got {cfg.replications}")
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
    return None, report.payload()


def _cmd_compare(cfg: RunConfig) -> _Result:
    report = compare_methods(
        cfg.model_params(), truncation=cfg.truncation, elements=cfg.elements, tol=cfg.tol,
        grid_lo=cfg.grid_lo, grid_hi=cfg.grid_hi,
    )
    return None, report.payload()


_COMMANDS = {
    "exact": _cmd_exact,
    "formula": _cmd_formula,
    "projection": _cmd_projection,
    "simulate": _cmd_simulate,
    "limit-check": _cmd_limit_check,
    "compare": _cmd_compare,
}

_JSON_ONLY = {"limit-check", "compare"}
# limit-check's horizon in days when --steps is not given; RunConfig.steps'
# default is the length of a simulate path.
_LIMIT_HORIZON = 10


def counts(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


_ALL = frozenset(_COMMANDS)
_CHAIN = {"exact", "compare"}
_GRID = {"formula", "projection", "compare"}
# Config-file key (flag "--" + key, "-" for "_") -> (field, type, help, commands reading it).
_OPTIONS = {
    "n": ("sizes", counts, "server count (limit-check: comma-separated sizes)", _ALL),
    "lambda": ("lam", float, "daily arrival rate", _ALL - {"limit-check"}),
    "mu": ("mu", float, "daily service probability in (0,1)", _ALL),
    "mean_los": ("mean_los", float, "mean length of stay in days", _ALL),
    "truncation": ("truncation", int, "largest retained chain state", _CHAIN),
    "grid_lo": ("grid_lo", float, "left end of the working domain", _GRID),
    "grid_hi": ("grid_hi", float, "right end of the working domain", _GRID),
    "elements": ("elements", int, "finite elements (default 160)", _GRID),
    "tol": ("tol", float, "stationary-solve residual (default 1e-12)", _CHAIN),
    "steps": ("steps", int, "simulation days (default 10^6) / limit-check horizon (default 10)",
              {"simulate", "limit-check"}),
    "replications": ("replications", int, "harness replications", {"limit-check"}),
    "seed": ("seed", int, "PRNG seed (default 0)", _ALL),
    "beta_star": ("beta_star", float, "limit-check: sqrt(N)(1 - load) of every size (default 1)",
                  {"limit-check"}),
    "out": ("out", str, "output path (default: stdout)", _ALL),
    "format": ("fmt", str, "output format", _ALL),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midnightq",
        description="Stationary midnight-count distributions by exact chain, "
        "closed-form proxy, and Galerkin projection.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON file with defaults; flags win on conflict")
    for key, (field, kind, text, _) in _OPTIONS.items():
        choices = ["csv", "json"] if key == "format" else None
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=field, type=kind, choices=choices, help=text)
    return parser


def build_config(argv: list[str]) -> RunConfig:
    """Merge defaults, the optional JSON config file, and explicit flags.

    Each config-file entry is read as its flag, placed before the command
    line's flags, so that those win; a flag the command does not read is refused.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("--config must hold a JSON object of flag values")
        unknown = set(file_cfg) - set(_OPTIONS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        nulls = [key for key, value in file_cfg.items() if value is None]
        if nulls:
            raise ValueError(f"config keys without a value: {sorted(nulls)}")
        entries = [f"--{key.replace('_', '-')}={value}" for key, value in file_cfg.items()]
        args = parser.parse_args(entries + argv)

    given = {field: getattr(args, field) for field, *_ in _OPTIONS.values()}
    unread = [key for key, (field, *_, commands) in _OPTIONS.items()
              if given[field] is not None and args.command not in commands]
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise ValueError(f"{args.command} does not read {flags}")
    cfg = RunConfig(args.command, **{k: v for k, v in given.items() if v is not None})
    if args.command == "limit-check" and args.steps is None:
        cfg.steps = _LIMIT_HORIZON
    if args.command in _JSON_ONLY:
        if args.fmt not in (None, "json"):
            raise ValueError(f"{args.command} only emits JSON")
        cfg.fmt = "json"
    if cfg.mu is not None and cfg.mean_los is not None:
        raise ValueError("pass either --mu or --mean-los, not both")
    if cfg.elements < 4:
        raise ValueError(f"--elements must be at least 4, got {cfg.elements}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
        _write(cfg, *_COMMANDS[cfg.command](cfg))
        return 0
    except SolverError as err:
        sys.stderr.write(f"solver failure: {err}\n")
        return 3
    except (ValueError, OSError) as err:
        sys.stderr.write(f"invalid configuration: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
