"""In-memory span recorder wrapped around midnightq's public functions.

Each wrapped function is replaced, by attribute on its module or class, with
a wrapper that records a span: name, start, end, parent span and op id.
Callers inside midnightq look these functions up on the module at call
time, so nested calls are recorded as children.  A layer's self time is its
spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# (module, attribute path, span name, per-layer metric of its self time)
LAYERS = (
    ("cli", "main", "cli.main", "cli.self_s"),
    ("chain", "build_kernel", "chain.build_kernel", "chain.build_kernel_s"),
    ("chain", "stationary_pmf", "chain.stationary_pmf", "chain.stationary_pmf_s"),
    ("chain", "simulate_path", "chain.simulate_path", "chain.simulate_path_s"),
    ("chain", "simulate_replications", "chain.simulate_replications",
     "chain.simulate_replications_s"),
    ("diffusion", "run_limit_harness", "diffusion.run_limit_harness",
     "diffusion.run_limit_harness_s"),
    ("diffusion", "simulate_diffusion", "diffusion.simulate_diffusion",
     "diffusion.simulate_diffusion_s"),
    ("diffusion", "PiecewiseDensity.bin_masses", "diffusion.PiecewiseDensity.bin_masses",
     "diffusion.proxy_bin_masses_s"),
    ("projection", "project_stationary_density", "projection.project_stationary_density",
     "projection.project_stationary_density_s"),
    ("projection", "assemble_gram", "projection.assemble_gram", "projection.assemble_gram_s"),
    ("projection", "solve_gram", "projection.solve_gram", "projection.solve_gram_s"),
    ("projection", "RatioReconstruction.bin_masses", "projection.RatioReconstruction.bin_masses",
     "projection.bin_masses_s"),
)
OP = "op"  # root span of one op; its self time is the benchmark's own glue

# Counts taken from a wrapped call's result: span name -> (metric, extractor).
RESULT_COUNTS = {
    "chain.build_kernel": ("chain.kernel_states", lambda r: r.truncation_level + 1),
    "chain.simulate_path": ("chain.sim_days", lambda r: r.counts.size - 1),
    "projection.project_stationary_density": ("projection.basis_size", lambda r: r[0].size),
    "projection.assemble_gram": ("projection.quad_nodes", lambda r: r.quad_x.size),
}
# Points at which RatioReconstruction.bin_masses evaluates the density.
BIN_EVAL = ("projection", "RatioReconstruction.density")
BIN_SPAN = "projection.RatioReconstruction.bin_masses"

COUNT_METRICS = (
    "chain.kernel_states", "chain.sim_days", "projection.basis_size",
    "projection.quad_nodes", "projection.bin_eval_points", "cli.output_bytes",
)


def _resolve(module: str, path: str):
    """(owner, attribute name), or None where the program no longer has it."""
    owner = importlib.import_module(f"midnightq.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return (owner, attr) if hasattr(owner, attr) else None


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: int
    counts: dict = field(default_factory=dict)


class SpanRecorder:
    """Spans of the traced ops, kept in memory in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name: str):
        metric, extract = RESULT_COUNTS.get(name, (None, None))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if metric is not None:
                self.spans[idx].counts[metric] = extract(result)
            return result

        return wrapper

    def _wrap_bin_eval(self, original):
        @functools.wraps(original)
        def wrapper(recon, x):
            if self._stack and self.spans[self._stack[-1]].name == BIN_SPAN:
                counts = self.spans[self._stack[-1]].counts
                counts["projection.bin_eval_points"] = (
                    counts.get("projection.bin_eval_points", 0) + int(np.size(x))
                )
            return original(recon, x)

        return wrapper

    def install(self) -> None:
        """Replace every wrapped attribute; ``uninstall`` puts them back.

        A layer the program no longer has records no spans and reports 0.
        """
        hooks = [(module, path, lambda f, name=name: self._wrap(f, name))
                 for module, path, name, _ in LAYERS]
        hooks.append((*BIN_EVAL, self._wrap_bin_eval))
        for module, path, wrap in hooks:
            target = _resolve(module, path)
            if target is not None:
                original = getattr(*target)
                self._saved.append((*target, original))
                setattr(*target, wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def as_records(self) -> list[dict]:
        return [{**asdict(span), "self_s": s} for span, s in zip(self.spans, self.self_times())]


def layer_metrics(rec: SpanRecorder, traced_ops: int) -> dict[str, float]:
    """Per-op self times and counts of every layer, from the recorded spans.

    Self times, the op's glue included, add up to ``trace.op_s``.
    """
    self_s: dict[str, float] = {}
    counts = dict.fromkeys(COUNT_METRICS, 0)
    kernel_states = [0]
    op_s = sim_s = 0.0
    for span, s in zip(rec.spans, rec.self_times()):
        self_s[span.name] = self_s.get(span.name, 0.0) + s
        for metric, value in span.counts.items():
            counts[metric] += value
        if span.name == OP:
            op_s += span.end - span.start
        elif span.name == "chain.build_kernel":
            kernel_states.append(span.counts["chain.kernel_states"])
        elif span.name == "chain.simulate_path":
            sim_s += span.end - span.start
    metrics = {metric: self_s.get(name, 0.0) / traced_ops for _, _, name, metric in LAYERS}
    metrics["bench.glue_s"] = self_s.get(OP, 0.0) / traced_ops
    metrics["trace.op_s"] = op_s / traced_ops
    uncovered = metrics["cli.self_s"] + metrics["bench.glue_s"]
    metrics["trace.covered_share"] = 1.0 - uncovered / metrics["trace.op_s"]
    metrics.update({metric: value / traced_ops for metric, value in counts.items()})
    # Dense (K+1) x (K+1) float64 kernel of the largest chain built in an op.
    metrics["chain.kernel_mb"] = max(kernel_states) ** 2 * 8 / 2**20
    metrics["chain.sim_days_per_s"] = counts["chain.sim_days"] / sim_s if sim_s else 0.0
    return metrics
