"""gapfill benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload chain-k1 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's src/.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
with --trace 0 the end-to-end metrics (setup_s, wall_s, slowest_task_s,
peak_rss_mb), with --trace 1 the per-layer metrics of bench/tracing.py.
Artifacts, configs, the environment record and the trace go to
.bench_out/<workload>/ in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

# One BLAS thread everywhere: edge-fill runs two block workers, and
# workers x BLAS threads must stay within the two cores measured on.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5      # set-up is timed this many times; the median is reported
# A whole run, set-up included, ends within this many seconds.  The worker
# gets what is left after set-up as its budget and starts no round that
# would overrun it (a traced run then drops its second plain round); only
# a round that itself runs past the deadline ends the run without a result.
RUN_LIMIT_S = 170.0
WORKER_BUDGET_SLACK_S = 5.0   # kept back for the worker's exit and the report


def _start_worker(args, out: str, setup_only: bool, budget: float = 0.0):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--budget", repr(budget)]
    env = dict(os.environ, **BLAS_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return proc, setup


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def verdict(rounds) -> dict:
    """correct, attempted and failed of a run's rounds.

    Any failed operation makes the run incorrect: a wrong exit status is a
    wrong verdict (gapfill exits 2 when a verdict fails) or a crash.
    """
    failures = [f for r in rounds for f in r["failures"]]
    return {"correct": not failures,
            "attempted": sum(len(r["times"]) for r in rounds),
            "failed": len(failures)}


def task_medians(rounds) -> list:
    """Each operation's median time over the rounds, in workload order."""
    return [statistics.median(r["times"][i][1] for r in rounds)
            for i in range(len(rounds[0]["times"]))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    for need in (os.path.join("src", "gapfill", "cli.py"), "configs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"bench: {need} not found under {ROOT}; run inside a full checkout",
                  file=sys.stderr)
            return 2

    out = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _start_worker(args, out, setup_only=True)
        _finish(proc, deadline)
        setups.append(setup)
    budget = deadline - time.perf_counter() - WORKER_BUDGET_SLACK_S
    proc, setup = _start_worker(args, out, setup_only=False, budget=budget)
    setups.append(setup)
    result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])

    rounds = result["rounds"]
    for r in rounds:
        for f in r["failures"]:
            print(f"FAIL {f['op']}: {'; '.join(f['problems'])}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        # Medians per operation over the run's rounds: the host's speed
        # swings from one task to the next, and one round is one sample.
        medians = task_medians(rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(medians), "unit": "s"},
            "slowest_task_s": {"value": max(medians), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    v = verdict(rounds)
    print(f"{args.workload}: {len(rounds)} round(s), {v['attempted']} operations "
          f"attempted, {v['failed']} failed")
    print(json.dumps(dict(v, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
