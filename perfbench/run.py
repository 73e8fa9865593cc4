"""midnightq benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload compare_systems --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each benchmark process is a fresh
interpreter running ``worker.py`` against the checkout's ``src/``.

``--trace 0`` sets up the workload SETUP_REPS times in fresh interpreters
(``setup_s`` is their median) and runs the timed, untraced phase in the last
one.  ``--trace 1`` runs one process whose timed phase alternates untraced
and traced ops and reports per-layer self times and counts.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
full record (samples, metadata and, traced, every span) goes to
``perfbench/out/``.  Exit status 2 means no midnightq sources were found,
1 that a benchmark process failed or overran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # every process of one run ends within this
# BENCHMARK.json declares compare_systems and simulate_oracles; near_critical
# is run by hand (see NOTES.md).
WORKLOADS = ("compare_systems", "near_critical", "simulate_oracles")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {  # every other per-layer metric is in seconds
    "chain.kernel_states": "count",
    "chain.kernel_mb": "MiB",
    "chain.sim_days": "count",
    "chain.sim_days_per_s": "1/s",
    "projection.basis_size": "count",
    "projection.quad_nodes": "count",
    "projection.bin_eval_points": "count",
    "cli.output_bytes": "count",
    "trace.covered_share": "ratio",
}


class BenchError(RuntimeError):
    pass


def _spawn(root: Path, args, deadline: float, *, setup_only: bool, trace: bool) -> dict:
    cmd = [
        sys.executable, str(root / "perfbench" / "worker.py"), "--root", str(root),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--t0", repr(time.perf_counter()),
    ]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    try:
        proc = subprocess.run(
            cmd, cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped it
        raise BenchError(f"benchmark process overran the {RUN_LIMIT_S:.0f} s limit") from err
    if proc.returncode != 0:
        raise BenchError(f"benchmark process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "midnightq" / "cli.py").is_file():
        print(f"perfbench: no midnightq sources under {root / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            runs = [_spawn(root, args, deadline, setup_only=False, trace=True)]
        else:
            runs = [_spawn(root, args, deadline, setup_only=True, trace=False)
                    for _ in range(SETUP_REPS - 1)]
            runs.append(_spawn(root, args, deadline, setup_only=False, trace=False))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    full = runs[-1]
    problems = [msg for run in runs for msg in run["warmup_failures"]]
    if any(run["digests"] != full["digests"] for run in runs):
        problems.append("outputs differ between the benchmark processes of this run")
    problems += full["failures"]
    meta = full["meta"]
    problems += [f"{b['library']} runs {b['threads']} threads on {meta['nproc']} CPUs"
                 for b in meta["blas_threads"] if b["threads"] > meta["nproc"]]
    correct = not problems and full["failed"] == 0

    if args.trace:
        metrics = {name: {"value": v, "unit": LAYER_UNITS.get(name, "s")}
                   for name, v in sorted(full["layers"].items())}
    else:
        op_s = full["op_s"]
        values = {
            "setup_s": statistics.median(run["setup_s"] for run in runs),
            "op_p50_s": statistics.median(op_s),
            "ops_per_s": (full["attempted"] - full["failed"]) / full["phase_s"],
            "peak_rss_mb": full["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "problems": problems,
        "setup_reps_s": [run["setup_s"] for run in runs], "metrics": metrics,
        **{k: full[k] for k in full if k not in ("warmup_failures", "digests", "layers", "failures")},
    }
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    untraced = full["op_s"]
    print(f"workload {args.workload} seed {args.seed}: {full['attempted']} ops attempted, "
          f"{full['failed']} failed (failed_op_ratio {full['failed'] / full['attempted']:.3f}); "
          f"untraced op p50 {statistics.median(untraced):.4f} s over {len(untraced)} samples")
    for msg in problems:
        print(f"check failed: {msg.strip()}")
    print("per-call median s: " + json.dumps(full["call_s"]))
    print("meta: " + json.dumps(full["meta"]))
    print(f"record: {out_path.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
