"""The benchmark's span hooks and result counts still fit the program.

``perfbench/spans.py`` wraps midnightq functions by name and reads counts
off their results.  If a rename or a changed result breaks one, every
traced benchmark op fails, so a small version of each workload's calls runs
here under its recorder.
"""

import contextlib
import importlib.util
import io
import math
import sys
from pathlib import Path

import pytest

from midnightq import ModelParams, cli, derive_diffusion_params, diffusion

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@contextlib.contextmanager
def _loaded(name, monkeypatch):
    """``perfbench/<name>.py`` as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture
def spans(monkeypatch):
    with _loaded("spans", monkeypatch) as module:
        yield module


@pytest.fixture
def workloads(monkeypatch):
    with _loaded("workloads", monkeypatch) as module:
        yield module


def test_exact_output_passes_the_benchmark_checks(workloads, capsys):
    # The benchmark refuses an `exact` law whose states are not 0..K: the
    # windowed solve must still print the states below its lower cut.
    for n, lam in (*workloads.SYSTEMS, workloads.NEAR_CRITICAL):
        assert cli.main(["exact", *workloads._system_args(n, lam), "--format", "json"]) == 0
        fails, _ = workloads.exact_failures(capsys.readouterr().out, n, lam)
        assert fails == [], fails


def test_every_layer_records_a_span_and_every_count_is_read(spans):
    for module, path, _, _ in spans.LAYERS:
        assert spans._resolve(module, path) is not None, f"{module}.{path}"
    assert spans._resolve(*spans.BIN_EVAL) is not None
    system = ["--n", "66", "--lambda", "11.37", "--mean-los", "5.3", "--seed", "1"]
    argvs = [
        ["compare", "--n", "18", "--lambda", "3.03", "--mean-los", "5.3", "--seed", "1"],
        ["simulate", *system, "--steps", "10000", "--format", "json"],
        ["limit-check", "--n", "25,100,400", "--mean-los", "5.3", "--steps", "10",
         "--replications", "200", "--seed", "1"],
    ]
    p = ModelParams.from_mean_los(66, 11.37, 5.3)
    rec = spans.SpanRecorder()
    rec.op = 0
    rec.install()
    try:
        op = rec.begin(spans.OP)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            statuses = [cli.main(argv) for argv in argvs]
        diffusion.simulate_diffusion(derive_diffusion_params(p), p.daily_service_prob, 1000, seed=1)
        rec.end(op)
    finally:
        rec.uninstall()
    assert statuses == [0, 0, 0]

    assert {name for _, _, name, _ in spans.LAYERS} <= {span.name for span in rec.spans}
    counts = {}
    for span in rec.spans:
        for metric, value in span.counts.items():
            counts.setdefault(metric, []).append(value)
    expected = {metric for metric, _ in spans.RESULT_COUNTS.values()}
    assert expected | {"projection.bin_eval_points"} <= set(counts)
    assert all(isinstance(v, int) and v > 0 for values in counts.values() for v in values)
    metrics = spans.layer_metrics(rec, 1)
    assert all(math.isfinite(v) for v in metrics.values())
    assert all(metrics[metric] > 0 for _, _, _, metric in spans.LAYERS)
