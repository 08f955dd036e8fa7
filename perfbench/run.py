"""Benchmark entry point: one closed-loop caller, one process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

For each run the caller starts worker.py with BLAS threads capped at the
core count and waits for it; a sweep workload first gets its operator
cache from an untimed ``prep`` process.  That cache is keyed by a digest
of the library sources, so it is reused only by runs of the same code.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when a correctness check fails.  --all runs every workload
and prints a summary table.  README.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from provenance import source_digest  # noqa: E402
from workloads import MIN_SWEEPS, WORKLOADS  # noqa: E402

END_TO_END = ("setup_s", "sweep_s", "peak_rss_mb", "rel_l2_err")
# A run must end within this, its first build included.
RUN_LIMIT_S = 170.0


def _child(args, env, deadline):
    """Run one worker process to completion; its last stdout line parsed,
    or None when it failed or ran out of time."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)] + args, stdout=subprocess.PIPE,
            text=True, env=env, cwd=str(ROOT),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"worker {args[0]} ran out of time", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {args[0]} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_once(wl, seed, seconds, trace):
    """One workload run: prep (sweep workloads), then measure."""
    deadline = time.monotonic() + RUN_LIMIT_S
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
               MKL_NUM_THREADS=nproc)
    workdir = HERE / ".work" / f"{wl.name}-{seed}-{os.getpid()}"
    # Keyed by the library sources and the workload, so a cache is only
    # ever loaded by the code and configuration that built it.
    key = hashlib.sha256((source_digest(ROOT) + repr(wl)).encode()).hexdigest()
    prepared = HERE / ".work" / f"{wl.name}-{key[:16]}.bin"
    common = ["--workload", wl.name, "--seed", str(seed), "--workdir", str(workdir),
              "--cache", str(prepared)]
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = None
        if wl.builds_operators or _child(["prep"] + common, env, deadline) is not None:
            result = _child(["measure"] + common + ["--seconds", str(seconds),
                                                    "--trace", str(trace)],
                            env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        # Failed before its first result: every sweep it owed counts as failed.
        owed = wl.setup_repeats + MIN_SWEEPS
        return {"correct": False, "attempted": owed, "failed": owed, "metrics": {}}
    return result


def _show(name, result):
    print(f"workload {name}")
    for key, m in result["metrics"].items():
        print(f"  {key:<36} {m['value']:<24.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<36} {failed / attempted:<24.6g} 1"
          f"  ({failed} of {attempted} sweeps)")
    if "samples" in result:
        print(f"  samples {json.dumps(result['samples'])}")
    if "env" in result:
        print(f"  env {json.dumps(result['env'])}")


def _final_line(result):
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "eimfmm" / "__init__.py").is_file():
        print(f"error: no eimfmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        results[name] = run_once(WORKLOADS[name], args.seed, args.seconds, args.trace)
        _show(name, results[name])
    if args.all:
        print(f"{'workload':<24}" + "".join(f"{k:>14}" for k in END_TO_END)
              + f"{'failed_frac':>14}")
        for name, r in results.items():
            vals = [r["metrics"].get(k, {}).get("value", math.nan) for k in END_TO_END]
            print(f"{name:<24}" + "".join(f"{v:>14.4g}" for v in vals)
                  + f"{r['failed'] / r['attempted']:>14.4g}")
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
        print(_final_line(merged))
        return 0 if merged["correct"] else 1
    result = results[names[0]]
    print(_final_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
