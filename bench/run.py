"""resamplekit benchmark: one command, four workloads, each in its own fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of many-replicates, wide-rows, exact-and-ties, cli-session.  With
``--trace 0`` the last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and every end-to-end metric; with ``--trace 1`` it
carries every per-layer metric instead, and the spans go to
``bench/_out/trace-<workload>-seed<N>.json``.  ``all`` runs every workload
untraced and traced and also prints the tracing overhead.  Set-up time is the
median over several fresh processes that only set up, plus the measuring one.
The benchmark runs the program from ``src/`` of the checkout it sits in and
exits non-zero without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("many-replicates", "wide-rows", "exact-and-ties", "cli-session")
SETUP_ONLY_PROCESSES = 4
DEADLINE_S = 175


class WorkerFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    # One process at a time and no helper threads: numbers fit a 2-core box.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], deadline: float) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    # Its own process group, so a late worker is stopped with its CLI children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(HERE / "_work" / f"{args[1]}-{proc.pid}", ignore_errors=True)
        raise WorkerFailed(f"worker {args} ran past the deadline") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_ONLY_PROCESSES):
            setups.append(_worker(common + ["--setup-only"], deadline)["setup_s"])
    res = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(res["setup_s"])
    if not trace:
        res["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return res


def _print_table(name: str, res: dict) -> None:
    print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
          f"rounds={res['rounds']} faults={res['faults']}")
    for k, m in sorted(res["metrics"].items()):
        print(f"  {k:42s} {m['value']:14.6g} {m['unit']}")


def _result(res: dict) -> dict:
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds, args.trace,
                               time.monotonic() + DEADLINE_S)
            _print_table(args.workload, res)
            print(json.dumps(_result(res)))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            plain = run_workload(name, args.seed, args.seconds, 0, time.monotonic() + DEADLINE_S)
            traced = run_workload(name, args.seed, args.seconds, 1, time.monotonic() + DEADLINE_S)
            _print_table(name, plain)
            _print_table(name + " (traced)", traced)
            trace_file = HERE / "_out" / f"trace-{name}-seed{args.seed}.json"
            with open(trace_file, encoding="utf-8") as fh:
                traced_wall = json.load(fh)["wall_s_traced"]
            wall = plain["metrics"]["wall_s"]["value"]
            print(f"  tracing overhead on wall_s: {traced_wall:.4f} s traced vs {wall:.4f} s "
                  f"untraced ({(traced_wall / wall - 1):+.1%})")
            for res in (plain, traced):
                combined["correct"] &= res["correct"]
                combined["attempted"] += res["attempted"]
                combined["failed"] += res["failed"]
                for k, m in res["metrics"].items():
                    combined["metrics"][f"{name}/{k}"] = m
        print(json.dumps(combined))
        return 0
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
