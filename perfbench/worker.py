"""One benchmark process: import midnightq from the checkout's ``src/``, set
up a workload, and run its timed phase.

``run.py`` starts this script in a fresh interpreter and reads the JSON
object it prints as its last line of standard output.  With
``--setup-only`` it stops after set-up: the import, building the inputs and
one untimed, checked warm-up op.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

MAX_FAILURE_MESSAGES = 20


def timed_phase(wl, seconds: float, traced: bool) -> dict:
    """Closed loop of ops for ``seconds``, one client, next op after the last.

    Untraced, every op is timed plainly.  Traced, ops alternate between
    untraced and traced so that both sets of times come from the same phase;
    at least two of each run.
    """
    rec = spans.SpanRecorder()
    op_s: list[float] = []
    traced_op_s: list[float] = []
    failures: list[str] = []
    failed = 0
    min_ops = 4 if traced else 3
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        tracing = traced and len(op_s) > len(traced_op_s)
        if tracing:
            rec.op += 1
            rec.install()
            idx = rec.begin(spans.OP)
        t0 = time.perf_counter()
        try:
            outputs = wl.op()
            fails = []
        except Exception:  # a crashing op is a failed op; keep measuring
            outputs, fails = None, [traceback.format_exc()]
        finally:
            elapsed = time.perf_counter() - t0
            if tracing:
                rec.end(idx)
                rec.uninstall()
        (traced_op_s if tracing else op_s).append(elapsed)
        if outputs is not None:
            fails = wl.check(outputs)
            if tracing:
                rec.spans[idx].counts["cli.output_bytes"] = sum(
                    len(out[1].encode()) for out in outputs.values() if isinstance(out, tuple)
                )
        if fails:
            failed += 1
            failures.extend(fails)
        if time.perf_counter() >= deadline and len(op_s) + len(traced_op_s) >= min_ops:
            break
    result = {
        "phase_s": time.perf_counter() - start,
        "attempted": len(op_s) + len(traced_op_s),
        "failed": failed,
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "op_s": op_s,
        "call_s": {label: statistics.median(v) for label, v in wl.call_s.items()},
    }
    if traced:
        metrics = spans.layer_metrics(rec, len(traced_op_s))
        metrics["trace.overhead_s"] = statistics.median(traced_op_s) - statistics.median(op_s)
        result.update(traced_op_s=traced_op_s, layers=metrics, spans=rec.as_records())
    return result


def _blas_threads() -> list[dict]:
    """Thread count of every OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found.append({"library": os.path.basename(path), "threads": fn()})
                break
    return found


def _proc_field(path: str, key: str) -> str | None:
    with open(path) as fh:
        for line in fh:
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    return None


def run_metadata(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = git.stdout.strip() or None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True, help="perf_counter before the spawn")
    args = ap.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import midnightq

    if not Path(midnightq.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported midnightq from {midnightq.__file__}, not {src}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    warm_failures = wl.check(wl.op())
    wl.call_s.clear()
    # CLOCK_MONOTONIC, which perf_counter reads on Linux, is shared by processes.
    result = {
        "setup_s": time.perf_counter() - args.t0,
        "warmup_failures": warm_failures,
        "digests": dict(wl.digests),
    }
    if not args.setup_only:
        result.update(timed_phase(wl, args.seconds, args.trace))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["meta"] = run_metadata(args.root, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
