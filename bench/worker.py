"""Run one workload in this fresh process: set up, run whole rounds, check, report.

Usage (normally spawned by run.py):

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T [--setup-only]

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide), so set-up time includes interpreter
start-up.  Rounds repeat until ``--seconds`` have passed (and, on
cli-session, until at least 50 invocations ran).  The first round is checked
in full; later rounds must reproduce its output digests exactly.  With
``--trace 1`` rounds after the first record spans, replay the parts of each
report, and the run adds an allocation pass, the layer probe and the
microbenchmarks of ``layers``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The 80th percentile needs ten invocations beyond it.
MIN_CLI_INVOCATIONS = 50
PROBE_ROUNDS = 3

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "splits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cli_p50_ms": "ms",
    "cli_p80_ms": "ms",
}

# Program calls whose per-round time is a per-layer metric "<span>_ms".
TIMED_SPANS = (
    "resampling.bootstrap",
    "resampling.shuffle_test",
    "resampling.shuffle_test_paired",
    "resampling.percentile_interval",
    "resampling.tail_probability",
    "resampling.diagnostics",
    "resampling.histogram",
    "resampling.exact_shuffle_p",
    "simulate.simulate_poll",
    "simulate.simulate_bernoulli",
    "data.load_csv",
    "data.load_paired_csv",
)
# Called by the program itself inside reports; wrapped in traced rounds.
WRAPPED = ("bootstrap", "percentile_interval", "tail_probability", "diagnostics")
COUNTS = ("resampling.row_draws", "resampling.redraws", "resampling.splits")
ALLOC_LAYERS = ("resampling", "simulate")


def layer_units() -> dict:
    units = {f"{s}_ms": "ms" for s in TIMED_SPANS}
    units["resampling.bootstrap_report_self_ms"] = "ms"
    units.update({c: "count" for c in COUNTS})
    units.update({f"{layer}.alloc_peak_mb": "MB" for layer in ALLOC_LAYERS})
    units.update({f"rng.step_ns_per_lane.{k}": "ns" for k in ("1e3", "1e5", "1e6")})
    units["rng.below_ns_per_lane.1e5"] = "ns"
    units["rng.block_init_ms.1e6"] = "ms"
    units["cli.python_startup_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.stdout_bytes"] = "count"
    units.update({f"cli.main_ms.{sub}": "ms" for sub in (
        "shuffle-test", "bootstrap", "clip", "bayes", "montecarlo", "poll", "fixtures")})
    units["calibrate.calibrate_from_interval_us"] = "us"
    units["worlds.render_worlds_us"] = "us"
    units["dists.t_quantile_us"] = "us"
    return units


class Outcome:
    """What the rounds found: attempts, known-fault failures, wrong results.

    The first output of each operation is checked in full; every later one
    must have the same digest, so it shares the first one's verdict.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: dict[str, int] = defaultdict(int)
        self.wrong: list[str] = []
        self.first: dict[str, tuple[str, list[str]]] = {}

    def record(self, op, out, where: str) -> None:
        dig = ops.digest(out)
        if op.name not in self.first:
            try:
                problems = op.check(out)
            except Exception as exc:  # output the checks cannot read is a wrong result
                traceback.print_exc()
                problems = [f"{op.name}: check raised {exc!r}"]
            for p in problems:
                if ops.fault_name(p):
                    print(f"known fault: {p}", file=sys.stderr)
            self.wrong += [p for p in problems if ops.fault_name(p) is None]
            self.first[op.name] = (dig, sorted({ops.fault_name(p) for p in problems} - {None}))
        elif dig != self.first[op.name][0]:
            self.wrong.append(f"{op.name}: output in round {where} differs from the first")
        faults = self.first[op.name][1]
        self.failed += bool(faults)
        for f in faults:
            self.faults[f] += 1


@contextlib.contextmanager
def wrapped_calls(tracer):
    """Record a span whenever the program calls one of its own public summary
    or draw functions (module globals of ``resamplekit.resampling``), so a
    report's span has children; the original functions are put back after."""
    from resamplekit import resampling

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, op=tracer.current_op):
                return fn(*args, **kwargs)

        return wrapper

    saved = {k: getattr(resampling, k) for k in WRAPPED}
    from_values = resampling.Histogram.__dict__["from_values"]
    try:
        for k, fn in saved.items():
            setattr(resampling, k, wrap(f"resampling.{k}", fn))
        resampling.Histogram.from_values = classmethod(wrap("resampling.histogram", from_values.__func__))
        yield
    finally:
        for k, fn in saved.items():
            setattr(resampling, k, fn)
        resampling.Histogram.from_values = from_values


def run_op(op, tracer, opid):
    """Call the program once, under spans in a traced round."""
    if tracer is None:
        t = time.perf_counter()
        out = op.call()
        return out, time.perf_counter() - t
    with tracer.span("op." + op.name, op=opid):
        with tracer.span(op.span, op=opid) as rec:
            t = time.perf_counter()
            out = op.call()
            dt = time.perf_counter() - t
        rec["counts"].update(op.counts(out))
    return out, dt


def run_round(op_list, tracer, tag: str, outcome: Outcome) -> dict:
    times = {}
    for op in op_list:
        outcome.attempted += 1
        try:
            out, times[op.name] = run_op(op, tracer, f"{tag}:{op.name}")
        except Exception as exc:  # a crash is a wrong result, reported and counted
            traceback.print_exc()
            outcome.wrong.append(f"{op.name}: raised {exc!r}")
            continue
        outcome.record(op, out, tag)
    return times


def run_rounds(op_list, seconds, tracer, outcome, tag="", min_ops=0, min_rounds=1) -> list[dict]:
    """Whole rounds until ``seconds`` passed; the first is never traced.

    Returns the seconds of each operation, per round.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer if rounds else None
        with wrapped_calls(traced) if traced else contextlib.nullcontext():
            rounds.append(run_round(op_list, traced, f"{tag}{len(rounds)}", outcome))
        done = sum(len(t) for t in rounds)
        if time.perf_counter() - start >= seconds and done >= min_ops and len(rounds) >= min_rounds:
            return rounds


def e2e_metrics(op_list, rounds, cli_session: bool) -> dict:
    """Each operation's median time over the rounds, then sums and rates of those."""
    med = {}
    for op in op_list:
        samples = [t[op.name] for t in rounds if op.name in t]
        if samples:  # an operation that raised every time has no time
            med[op.name] = statistics.median(samples)

    def rate(work: str) -> float:
        done = [op for op in op_list if getattr(op, work) and op.name in med]
        return sum(getattr(op, work) for op in done) / sum(med[op.name] for op in done)

    latencies = [1e3 * dt for times in rounds for dt in times.values()]
    who = resource.RUSAGE_CHILDREN if cli_session else resource.RUSAGE_SELF
    return {
        "wall_s": sum(med.values()),
        "replicates_per_s": rate("replicates"),
        "splits_per_s": rate("splits"),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "cli_p50_ms": statistics.median(latencies),
        "cli_p80_ms": statistics.quantiles(latencies, n=5, method="inclusive")[3],
    }


def span_metrics(tracer, tag_prefix) -> dict:
    """Per-round sums of program-call spans and counts, median over rounds.

    Times are whole span durations, except the report's, which is its self
    time: what is left once its bootstrap and summary calls are taken out.
    """
    per_round = defaultdict(lambda: defaultdict(float))
    for s, self_sec in zip(tracer.spans, tracer.self_seconds_by_id()):
        op = s["op"] or ""
        if not op.startswith(tag_prefix) or not op[len(tag_prefix):][:1].isdigit():
            continue
        rnd = op.split(":", 1)[0]
        if s["name"] in TIMED_SPANS:
            per_round[rnd][s["name"] + "_ms"] += 1e3 * (s["end"] - s["start"])
        elif s["name"] == "resampling.bootstrap_report":
            per_round[rnd]["resampling.bootstrap_report_self_ms"] += 1e3 * self_sec
        for c, v in s["counts"].items():
            if c in COUNTS:
                per_round[rnd][c] += v
    names = {k for vals in per_round.values() for k in vals}
    return {k: statistics.median(vals.get(k, 0.0) for vals in per_round.values()) for k in names}


def alloc_pass(op_list, tracer) -> dict:
    """Tracemalloc peak of one more call of each library operation, max per layer."""
    peaks = defaultdict(float)
    for op in op_list:
        layer = op.span.split(".", 1)[0]
        if layer not in ALLOC_LAYERS:
            continue
        tracemalloc.start()
        try:
            with tracer.span("alloc." + op.name, op=f"alloc:{op.name}") as rec:
                op.call()
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        rec["counts"]["alloc_peak_mb"] = peak
        peaks[f"{layer}.alloc_peak_mb"] = max(peaks[f"{layer}.alloc_peak_mb"], peak)
    return dict(peaks)


def traced_layers(args, op_list, outcome, tracer, workdir, rk) -> dict:
    import layers
    import workloads

    metrics = span_metrics(tracer, "")
    metrics.update(alloc_pass(op_list, tracer))
    units = layer_units()
    if any(m not in metrics for m in units if m.split(".")[0] in ("resampling", "simulate", "data")):
        probe_ops = workloads.probe(rk, args.seed, workdir)
        probe_outcome = Outcome()
        run_rounds(probe_ops, 0, tracer, probe_outcome, tag="p", min_rounds=PROBE_ROUNDS + 1)
        outcome.wrong += probe_outcome.wrong + [f"probe fault: {f}" for f in probe_outcome.faults]
        for k, v in {**span_metrics(tracer, "p"), **alloc_pass(probe_ops, tracer)}.items():
            metrics.setdefault(k, v)
    metrics.update(layers.rng(rk, tracer, args.seed))
    metrics.update(layers.cli(tracer, workloads.cli_env(ROOT)))
    metrics.update(layers.helpers(rk, tracer))
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not (SRC / "resamplekit" / "__init__.py").is_file():
        print(f"error: no resamplekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rk = None
        if args.workload in workloads.LIBRARY or args.trace:
            import resamplekit as rk

            if Path(rk.__file__).resolve().parent != (SRC / "resamplekit").resolve():
                print(f"error: imported resamplekit from {rk.__file__}, not {SRC}", file=sys.stderr)
                return 2
        if args.workload in workloads.LIBRARY:
            op_list = workloads.LIBRARY[args.workload](rk, args.seed, workdir)
        elif args.workload == "cli-session":
            op_list = workloads.cli_session(args.seed, workdir, ROOT)
        else:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        cli_session = args.workload == "cli-session"
        outcome = Outcome()
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        rounds = run_rounds(op_list, args.seconds, tracer, outcome,
                            min_ops=MIN_CLI_INVOCATIONS if cli_session else 0,
                            min_rounds=2 if args.trace else 1)
        e2e = e2e_metrics(op_list, rounds, cli_session)
        if args.trace:
            metrics = traced_layers(args, op_list, outcome, tracer, workdir, rk)
            untraced_wall = sum(rounds[0].values())
            traced_wall = statistics.median(sum(t.values()) for t in rounds[1:])
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(path, workload=args.workload, seed=args.seed, rounds=len(rounds),
                         wall_s_traced=traced_wall, wall_s_untraced_first_round=untraced_wall,
                         e2e=e2e, metrics=metrics)
            print(f"trace written to {path.relative_to(ROOT)}; wall_s traced {traced_wall:.4f}",
                  file=sys.stderr)
        else:
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        for w in outcome.wrong:
            print(f"WRONG: {w}", file=sys.stderr)
        print(json.dumps({
            "correct": not outcome.wrong,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
            "setup_s": setup_s,
            "rounds": len(rounds),
            "faults": dict(outcome.faults),
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
