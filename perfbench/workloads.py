"""The three benchmark workloads: inputs, one op each, and the output checks.

Every op drives the public ``midnightq.cli.main`` entry point in-process;
only ``simulate_diffusion``, which has no subcommand, is called as a library
function.  Functions are looked up on their module at call time, so the
span recorder in ``spans.py`` sees every call.

Each check compares an output with an oracle, so a fast wrong answer counts
as a failed op.  The exact chain is checked against a one-day operator built
here from scipy's binomial and Poisson laws, not from midnightq's kernel.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time

import numpy as np
from scipy import stats

from midnightq import cli, diffusion
from midnightq.model import ModelParams, derive_diffusion_params

MEAN_LOS = 5.3
MU = 1.0 / MEAN_LOS
# The paper's benchmark systems (N, lambda).
SYSTEMS = ((18, 3.03), (66, 11.37), (500, 90.95))
# N = 500 at load 0.98 (lambda = 0.98 * N * mu): K = 2,497, slow mixing.
NEAR_CRITICAL = (500, 92.4528)
SIM_SYSTEM = (66, 11.37)
SIM_DAYS = 1_000_000
LIMIT_SIZES = "25,100,400"
TOL = 1e-12

TV_AGREEMENT = 0.05  # acceptance criterion 7
FLOW_BALANCE = 1e-8
TOP_MASS = 1e-10
# The proxy only approximates the diffusion's stationary law: at N = 66 its
# KS distance to a 10^6-step path is about 0.02 for every seed, so 0.05
# catches a broken simulator without flagging the approximation.
DIFFUSION_KS = 0.05


def _system_args(n: int, lam: float) -> list[str]:
    return ["--n", str(n), "--lambda", repr(lam), "--mean-los", repr(MEAN_LOS)]


def digest(output) -> str:
    """sha256 of an op output: CLI text, or a simulated path's raw bytes."""
    data = output.tobytes() if isinstance(output, np.ndarray) else output.encode()
    return hashlib.sha256(data).hexdigest()


def tv(a: np.ndarray, b: np.ndarray) -> float:
    m = max(a.size, b.size)
    return 0.5 * float(np.abs(np.pad(a, (0, m - a.size)) - np.pad(b, (0, m - b.size))).sum())


class ChainOracle:
    """One day of the truncated midnight-count chain, applied to a pmf.

    Survivors of min(x, N) busy servers are Binomial(min(x, N), 1 - mu), the
    waiting x - N stay, Poisson(lambda) arrive, and mass beyond the top state
    K is folded into K.
    """

    def __init__(self, n: int, lam: float, top: int):
        keep = 1.0 - MU
        self.n, self.top = n, top
        self.idle = stats.binom.pmf(np.arange(n)[None, :], np.arange(n)[:, None], keep)
        self.saturated = stats.binom.pmf(np.arange(n + 1), n, keep)
        self.arrivals = stats.poisson.pmf(np.arange(top + 1), lam)

    def step(self, pi: np.ndarray) -> np.ndarray:
        size = self.top + 1
        survivors = np.zeros(size)
        survivors[: self.n] = pi[: self.n] @ self.idle
        survivors += np.convolve(pi[self.n :], self.saturated)[:size]
        nxt = np.convolve(survivors, self.arrivals)[:size]
        nxt[-1] += pi.sum() - nxt.sum()
        return nxt


def exact_failures(text: str, n: int, lam: float) -> tuple[list[str], np.ndarray]:
    """Check an ``exact --format json`` output; returns (failures, pmf)."""
    out = json.loads(text)
    pi = np.asarray(out["probabilities"], dtype=float)
    states = np.asarray(out["states"])
    if not np.array_equal(states, np.arange(pi.size)) or pi.size <= n:
        return [f"exact N={n}: states are not 0..K with K >= N"], pi
    fails = []
    if pi.min() < 0.0 or abs(pi.sum() - 1.0) > 1e-9:
        fails.append(f"exact N={n}: not a pmf (min {pi.min():.3e}, sum {pi.sum():.15f})")
    if not out["residual"] <= TOL:
        fails.append(f"exact N={n}: reported residual {out['residual']:.3e} > {TOL:g}")
    # Both kernels evaluate pmfs whose log terms reach lnGamma(N+1), so an
    # entry carries relative rounding up to about eps * lnGamma(N+1) in each
    # (5.8e-13 at N = 500); the residual may exceed tol by that, twice.
    allowance = 2.0 * np.finfo(float).eps * math.lgamma(n + 1.0)
    residual = float(np.abs(ChainOracle(n, lam, pi.size - 1).step(pi) - pi).sum())
    if residual > TOL + allowance:
        fails.append(f"exact N={n}: L1 residual {residual:.3e} > {TOL:g} + {allowance:.1e}")
    flow = abs(lam - MU * float(np.minimum(states, n) @ pi))
    if flow > FLOW_BALANCE:
        fails.append(f"exact N={n}: flow balance {flow:.3e} > {FLOW_BALANCE:g}")
    if pi[-1] > TOP_MASS:
        fails.append(f"exact N={n}: top-state mass {pi[-1]:.3e} > {TOP_MASS:g}")
    return fails, pi


class Workload:
    """One op's calls, their checks, and the repeat-identity check.

    ``calls`` lists (label, zero-argument callable); ``op`` runs them in
    order and returns {label: output}, keeping each call's wall time in
    ``call_s``.  ``check`` returns failure messages.  Every output must
    repeat byte for byte within a run.
    """

    calls: list

    def __init__(self, seed: int):
        self.seed = seed
        self.digests: dict[str, str] = {}
        self.call_s: dict[str, list[float]] = {}

    def op(self) -> dict:
        outputs = {}
        for label, call in self.calls:
            start = time.perf_counter()
            outputs[label] = call()
            self.call_s.setdefault(label, []).append(time.perf_counter() - start)
        return outputs

    def _cli(self, argv: list[str]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv + ["--seed", str(self.seed)])
        return status, buf.getvalue()

    def check(self, outputs: dict) -> list[str]:
        fails = []
        for label, output in outputs.items():
            if isinstance(output, tuple):
                status, output = output
                if status != 0:
                    fails.append(f"{label}: exit status {status}")
                    continue
            h = digest(output)
            if self.digests.setdefault(label, h) != h:
                fails.append(f"{label}: output differs from the first repeat")
        return fails + self._check(outputs)

    def _check(self, outputs: dict) -> list[str]:
        raise NotImplementedError


class CompareSystems(Workload):
    """``midnightq compare`` over the three benchmark systems."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.calls = [
            (f"compare N={n}", lambda n=n, lam=lam: self._cli(["compare", *_system_args(n, lam)]))
            for n, lam in SYSTEMS
        ]

    def _check(self, outputs: dict) -> list[str]:
        fails = []
        for n, lam in SYSTEMS:
            label = f"compare N={n}"
            status, text = outputs[label]
            if status != 0:
                continue
            report = json.loads(text)
            if report["params"]["n"] != n or report["params"]["lambda"] != lam:
                fails.append(f"{label}: params echo {report['params']}")
            for pair, value in report["tv"].items():
                if not value <= TV_AGREEMENT:
                    fails.append(f"{label}: TV {pair} = {value!r} > {TV_AGREEMENT}")
            exact = next(m for m in report["methods"] if m["name"] == "exact")
            # Flow balance gives E[min(X, N)] = lambda / mu <= E[X].
            if not exact["mean"] >= lam / MU - 1e-6 or not 0.0 <= exact["p_wait"] <= 1.0:
                fails.append(f"{label}: exact summary {exact} breaks flow balance")
        return fails


class NearCritical(Workload):
    """``midnightq exact`` at N = 500, load 0.98: the stationary solve dominates."""

    def __init__(self, seed: int):
        super().__init__(seed)
        argv = ["exact", *_system_args(*NEAR_CRITICAL), "--format", "json"]
        self.calls = [("exact N=500 load 0.98", lambda: self._cli(argv))]

    def _check(self, outputs: dict) -> list[str]:
        status, text = outputs["exact N=500 load 0.98"]
        return exact_failures(text, *NEAR_CRITICAL)[0] if status == 0 else []


class SimulateOracles(Workload):
    """The two Monte Carlo oracles and the limit check; no solver in the path."""

    def __init__(self, seed: int):
        super().__init__(seed)
        n, lam = SIM_SYSTEM
        status, text = self._cli(["exact", *_system_args(n, lam), "--format", "json"])
        if status != 0:
            raise RuntimeError(f"reference exact solve at N={n} exited {status}")
        fails, self.reference = exact_failures(text, n, lam)
        if fails:
            raise RuntimeError("; ".join(fails))
        # Expected sampling TV of SIM_DAYS correlated days, taking the AR(1)
        # autocorrelation time (2 - mu) / mu of the count, which overstates
        # it for single-state indicators: 0.0094 at N = 66, where seeds 0-5
        # give 0.0034-0.0069.  The bound is twice that.
        tau = (2.0 - MU) / MU
        p = self.reference
        self.tv_bound = 2.0 * float(np.sqrt(tau * p * (1 - p) / (2 * math.pi * SIM_DAYS)).sum())
        params = ModelParams.from_mean_los(n, lam, MEAN_LOS)
        self.diffusion_params = derive_diffusion_params(params)
        self.proxy = diffusion.proxy_density(self.diffusion_params, MU)
        simulate = ["simulate", *_system_args(n, lam), "--steps", str(SIM_DAYS), "--format", "json"]
        limit = ["limit-check", "--n", LIMIT_SIZES, "--mean-los", repr(MEAN_LOS),
                 "--steps", "10", "--replications", "100000"]
        self.calls = [
            ("simulate N=66", lambda: self._cli(simulate)),
            ("simulate_diffusion N=66", lambda: diffusion.simulate_diffusion(
                self.diffusion_params, MU, SIM_DAYS, seed=self.seed)),
            ("limit-check", lambda: self._cli(limit)),
        ]

    def _check(self, outputs: dict) -> list[str]:
        fails = []
        status, text = outputs["simulate N=66"]
        if status == 0:
            sim = json.loads(text)
            if sim["steps"] != SIM_DAYS or sim["seed"] != self.seed:
                fails.append(f"simulate: echoes steps {sim['steps']} seed {sim['seed']}")
            dist = tv(np.asarray(sim["probabilities"], dtype=float), self.reference)
            if not dist <= self.tv_bound:
                fails.append(f"simulate: TV to exact {dist:.4f} > {self.tv_bound:.4f}")

        path = outputs["simulate_diffusion N=66"]
        if path.shape != (SIM_DAYS + 1,) or path[0] != 0.0 or not np.isfinite(path).all():
            fails.append(f"simulate_diffusion: bad path of shape {path.shape}")
        else:
            tail = np.sort(path[10_000:])
            ecdf = np.arange(1, tail.size + 1) / tail.size
            ks = float(np.max(np.abs(ecdf - self.proxy.cdf(tail))))
            if not ks <= DIFFUSION_KS:
                fails.append(f"simulate_diffusion: KS to proxy {ks:.4f} > {DIFFUSION_KS}")

        status, text = outputs["limit-check"]
        if status == 0:
            entries = json.loads(text)["entries"]
            sizes = [e["n"] for e in entries]
            ks = [e["ks_distance"] for e in entries]
            if sizes != [int(s) for s in LIMIT_SIZES.split(",")] or not all(
                math.isfinite(k) and 0.0 <= k <= 1.0 for k in ks
            ):
                fails.append(f"limit-check: sizes {sizes} KS {ks}")
        return fails


WORKLOADS = {
    "compare_systems": CompareSystems,
    "near_critical": NearCritical,
    "simulate_oracles": SimulateOracles,
}
