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

from argparse import ArgumentParser, Namespace
import functools
import json
import sys

import numpy as np

from .compare import compare_methods
from .model import ROW_BYTES, ModelParams, SolverError, check_budget, derive_diffusion_params
from .model import service_prob_of
from . import chain as chain_mod
from . import diffusion as diff_mod
from . import projection as proj_mod


def _service_prob(cfg: Namespace) -> float:
    """The daily service probability every command reads, from --mu or
    --mean-los; a --mu outside (0, 1), or nan, is refused by its flag."""
    if cfg.mu is not None:
        if not 0.0 < cfg.mu < 1.0:
            raise ValueError(f"--mu must lie in (0, 1), got {cfg.mu!r}")
        return cfg.mu
    if cfg.mean_los is not None:
        return service_prob_of(cfg.mean_los)
    raise ValueError("one of --mu or --mean-los is required")


def _model_params(cfg: Namespace) -> ModelParams:
    if cfg.sizes is None or cfg.lam is None:
        raise ValueError("--n and --lambda are required for this command")
    if len(cfg.sizes) != 1:
        raise ValueError(f"--n takes one server count for {cfg.command}")
    return ModelParams(cfg.sizes[0], cfg.lam, _service_prob(cfg))


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


def _write(cfg: Namespace, table: tuple[np.ndarray, np.ndarray] | None, fields: dict) -> None:
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


def _cmd_exact(cfg: Namespace) -> _Result:
    p = _model_params(cfg)
    pmf = chain_mod.stationary_pmf(chain_mod.stationary_kernel(p, cfg.truncation), tol=cfg.tol)
    mean, sd = chain_mod.lattice_moments(pmf.support, pmf.mass)
    return (pmf.support, pmf.mass), {"residual": pmf.residual, "mean": mean, "sd": sd}


def _formula_grid(cfg: Namespace, d) -> np.ndarray:
    check_budget(ROW_BYTES * (2 * cfg.elements + 1), f"a {2 * cfg.elements + 1}-point grid needs",
                 "set fewer --elements")
    lo, hi = proj_mod.working_domain(d, cfg.grid_lo, cfg.grid_hi)
    return np.linspace(lo, hi, 2 * cfg.elements + 1)


def _cmd_formula(cfg: Namespace) -> _Result:
    p = _model_params(cfg)
    d = derive_diffusion_params(p)
    proxy = diff_mod.proxy_density(d, p.daily_service_prob)
    grid = _formula_grid(cfg, d)
    fields = {
        "tail_rate": proxy.tail_rate,
        "gaussian_center": proxy.gaussian_center,
        "ou_variance": proxy.ou_variance,
    }
    return (grid, proxy(grid)), fields


def _cmd_projection(cfg: Namespace) -> _Result:
    p = _model_params(cfg)
    d = derive_diffusion_params(p)
    _, _, recon = proj_mod.project_stationary_density(
        d, p.daily_service_prob, num_elements=cfg.elements, grid_lo=cfg.grid_lo, grid_hi=cfg.grid_hi
    )
    grid = _formula_grid(cfg, d)
    density, diagnostics = recon.table(grid)
    if cfg.fmt == "csv":
        sys.stderr.write(_dumps(diagnostics))
    return (grid, density), {"diagnostics": diagnostics}


def _cmd_simulate(cfg: Namespace) -> _Result:
    p = _model_params(cfg)
    if cfg.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {cfg.steps}")
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


def _cmd_limit_check(cfg: Namespace) -> _Result:
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
        service_prob=_service_prob(cfg),
        beta_star=cfg.beta_star,
        seed=cfg.seed,
    )
    report = diff_mod.run_limit_harness(harness)
    for warning in report.warnings:
        sys.stderr.write(f"warning: {warning}\n")
    return None, report.payload()


def _cmd_compare(cfg: Namespace) -> _Result:
    report = compare_methods(
        _model_params(cfg), truncation=cfg.truncation, elements=cfg.elements, tol=cfg.tol,
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
# limit-check's horizon in days when --steps is not given; the steps option's
# default is the length of a simulate path.
_LIMIT_HORIZON = 10


def counts(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


_ALL = frozenset(_COMMANDS)
_CHAIN = {"exact", "compare"}
_GRID = {"formula", "projection", "compare"}
# Config-file key (flag "--" + key, "-" for "_") -> (field, type, default, help, readers).
_OPTIONS = {
    "n": ("sizes", counts, None, "server count (limit-check: comma-separated sizes)", _ALL),
    "lambda": ("lam", float, None, "daily arrival rate", _ALL - {"limit-check"}),
    "mu": ("mu", float, None, "daily service probability in (0,1)", _ALL),
    "mean_los": ("mean_los", float, None, "mean length of stay in days", _ALL),
    "truncation": ("truncation", int, None, "largest retained chain state", _CHAIN),
    "grid_lo": ("grid_lo", float, None, "left end of the working domain", _GRID),
    "grid_hi": ("grid_hi", float, None, "right end of the working domain", _GRID),
    "elements": ("elements", int, 160, "finite elements (default 160)", _GRID),
    "tol": ("tol", float, 1e-12, "stationary-solve residual (default 1e-12)", _CHAIN),
    "steps": ("steps", int, 1_000_000,
              "simulation days (default 10^6) / limit-check horizon (default 10)",
              {"simulate", "limit-check"}),
    "replications": ("replications", int, 100_000, "harness replications", {"limit-check"}),
    "seed": ("seed", int, 0, "PRNG seed (default 0)", _ALL),
    "beta_star": ("beta_star", float, 1.0,
                  "limit-check: sqrt(N)(1 - load) of every size (default 1)", {"limit-check"}),
    "out": ("out", str, None, "output path (default: stdout)", _ALL),
    "format": ("fmt", str, "csv", "output format", _ALL),
}


@functools.cache
def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="midnightq",
        description="Stationary midnight-count distributions by exact chain, "
        "closed-form proxy, and Galerkin projection.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON file with defaults; flags win on conflict")
    for key, (field, kind, _, text, _) in _OPTIONS.items():
        choices = ["csv", "json"] if key == "format" else None
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=field, type=kind, choices=choices, help=text)
    return parser


def build_config(argv: list[str]) -> Namespace:
    """Merge defaults, the optional JSON config file, and explicit flags.

    Each config-file entry is read as its flag, placed before the command
    line's flags, so that those win; a flag the command does not read is refused.
    The result holds ``command`` and every ``_OPTIONS`` field, an unset one at
    its default.
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
    del args.config

    unread = [key for key, (field, *_, commands) in _OPTIONS.items()
              if getattr(args, field) is not None and args.command not in commands]
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise ValueError(f"{args.command} does not read {flags}")
    if args.command == "limit-check" and args.steps is None:
        args.steps = _LIMIT_HORIZON
    if args.command in _JSON_ONLY:
        if args.fmt not in (None, "json"):
            raise ValueError(f"{args.command} only emits JSON")
        args.fmt = "json"
    for field, _, default, *_ in _OPTIONS.values():
        if getattr(args, field) is None:
            setattr(args, field, default)
    if args.mu is not None and args.mean_los is not None:
        raise ValueError("pass either --mu or --mean-los, not both")
    if args.elements < 4:
        raise ValueError(f"--elements must be at least 4, got {args.elements}")
    return args


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
