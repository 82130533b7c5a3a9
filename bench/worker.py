"""One benchmark process: set up a workload, run it, check it, report.

Started by run.py with the BLAS thread variables already fixed.  It
imports gapfill from the checkout's src/, writes and validates the
workload's configs, prints READY (run.py times set-up up to that line),
then runs whole rounds of the workload's operations in-process through
`gapfill.cli.main` and prints one JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _git_commit():
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(ops, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": {op.name: op.cfg.get("params", {}).get("workers", 1) for op in ops},
        "seed": seed,
        "git_commit": _git_commit(),
    }


def round_seed(seed: int, i: int) -> int:
    """The --seed that round i of an untraced run passes to every task.

    The seed sets how many Lanczos steps a norm estimate takes (25 to 32
    filter applications in the smooth affiliation), so one seed per run
    would make a run's times depend on its seed; each round draws its own.
    """
    return 1000 * seed + i


def run_round(cli, ops, paths, out_root: str, seed: int, tracer=None) -> dict:
    """Run every operation once into fresh directories; check each one."""
    shutil.rmtree(out_root, ignore_errors=True)
    times, failures = [], []
    for op in ops:
        out = os.path.join(out_root, op.out)
        argv = [op.task, "--config", paths[op.name], "--out", out, "--seed", str(seed)]
        if tracer is not None:
            tracer.task = op.task
        t0 = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            status = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        times.append((op.task, dt))
        # The artifacts are checked whatever the status, so a wrong status
        # and wrong artifacts are both reported.
        want = checks.expected_status(op.task, op.cfg)
        problems = [] if status == want else [f"exit status {status!r}, expected {want}"]
        try:
            problems += checks.CHECKS[op.task](out, op.cfg)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
        if problems:
            failures.append({"op": op.name, "problems": problems})
    if tracer is not None:
        tracer.task = None
    return {"times": times, "failures": failures,
            "wall_s": sum(dt for _, dt in times)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--budget", type=float, default=float("inf"),
                    help="seconds the rounds may take; no round starts that would overrun")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import gapfill
    import gapfill.cli as cli
    if not os.path.abspath(gapfill.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"gapfill imported from {gapfill.__file__}, not the checkout", file=sys.stderr)
        return 1
    ops = workloads.WORKLOADS[args.workload](ROOT)
    cfg_dir = os.path.join(args.out, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    paths = {}
    for op in ops:
        paths[op.name] = os.path.join(cfg_dir, f"{op.name}.json")
        with open(paths[op.name], "w") as fh:
            json.dump(op.cfg, fh, indent=2)
        cli.load_config(paths[op.name])
    print("READY", flush=True)
    if args.setup_only:
        return 0

    with open(os.path.join(args.out, "env.json"), "w") as fh:
        json.dump(environment(ops, args.seed), fh, indent=2)
    rounds_dir = os.path.join(args.out, "round")
    rounds = []
    t_start = time.perf_counter()

    def fits(n_more: int) -> bool:
        """Whether n_more rounds as long as the last one, plus a half, fit the budget."""
        return (time.perf_counter() - t_start
                + 1.5 * n_more * rounds[-1]["wall_s"] <= args.budget)

    # A traced run passes the run's seed to every round, so that its plain
    # and traced rounds do the same work.
    first_seed = args.seed if args.trace else round_seed(args.seed, 0)
    rounds.append(run_round(cli, ops, paths, rounds_dir, first_seed))
    if args.trace:
        # The first round of a process pays for lazy imports and first-touch
        # memory, so a second plain round is the untraced reference for
        # trace.overhead_s, when it and the traced round fit the budget.
        if fits(2):
            rounds.append(run_round(cli, ops, paths, rounds_dir, args.seed))
    else:
        while time.perf_counter() - t_start < args.seconds and fits(1):
            rounds.append(run_round(cli, ops, paths, rounds_dir,
                                    round_seed(args.seed, len(rounds))))
    result = {"rounds": rounds,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(gapfill)
        cpu0 = _cpu()
        try:
            traced = run_round(cli, ops, paths, rounds_dir, args.seed, tracer)
        finally:
            tracer.uninstall()
        cpu = _cpu() - cpu0
        per_task = {}
        for task, dt in traced["times"]:
            per_task[task] = per_task.get(task, 0.0) + dt
        result["layers"] = tracing.layer_metrics(
            tracer.spans, per_task, cpu, traced["wall_s"], rounds[-1]["wall_s"])
        rounds.append(traced)
        with open(os.path.join(args.out, "trace.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
