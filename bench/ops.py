"""Benchmark operations: one call into the program, how to check it, and its work.

An ``Op`` wraps one public call of resamplekit (or one CLI invocation).  Its
``check`` returns a list of problems found against the reference generator,
closed forms and exact counts; a problem tagged with ``fault(name, ...)`` is a
known fault of the program and makes the operation count as failed, any other
problem makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import oracle
import refgen

# Known faults, named as in the benchmark README.
TIE_FAULT = "tie"
ZERODIV_FAULT = "zerodiv"
NAN_BIN_FAULT = "nan-bin-width"

# The tie fault is declared when Monte Carlo and exact p differ by more than
# this many standard errors.
TIE_Z = 5.0

# Exact p-values are recomputed for the check only up to this many splits.
EXACT_CHECK_LIMIT = 10**6


def fault(name: str, message: str) -> str:
    return f"FAULT({name}): {message}"


def fault_name(problem: str) -> str | None:
    if problem.startswith("FAULT("):
        return problem[len("FAULT(") : problem.index(")")]
    return None


def _no_counts(_out) -> dict:
    return {}


@dataclass
class Op:
    name: str
    span: str  # the program function entered, "<module>.<function>"
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    replicates: int = 0
    splits: int = 0
    counts: Callable[[Any], dict] = _no_counts


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        if len(obj) > 64 and all(isinstance(v, float) for v in obj[:64]):
            h.update(np.asarray(obj, dtype=float).tobytes())
        else:
            h.update(b"(")
            for v in obj:
                _feed(h, v)
            h.update(b")")
    elif isinstance(obj, bytes):
        h.update(obj)
    else:
        h.update(repr(obj).encode())


def check_replicates(values, reference, n_replicates: int, scale: float, what: str) -> list[str]:
    """Replicates 0, N-1 and a seeded spread must match the reference to 1e-9."""
    rng = random.Random(what)
    problems = []
    for r in refgen.sample_indices(n_replicates, rng):
        want = reference(r)
        if abs(values[r] - want) > 1e-9 * max(abs(want), scale):
            problems.append(f"{what}: replicate {r} is {values[r]!r}, reference {want!r}")
    return problems


def _scale(values) -> float:
    return max(1.0, max(abs(v) for v in values))


def _interval_problems(interval, observed, what) -> list[str]:
    lo, hi = interval
    if not lo <= observed <= hi:
        return [f"{what}: interval ({lo}, {hi}) misses the observed value {observed}"]
    return []


def _may_miss_ties(values, n1: int) -> bool:
    """Float mean differences can mis-order exact ties unless every sum is exact
    (integer data) and the two group sizes are equal (so d and -d round alike)."""
    return not all(float(v).is_integer() for v in values) or 2 * n1 != len(values)


def bootstrap_report(rk, name, data, n_resamples, seed, thresholds, bounds, bin_width=2.0) -> Op:
    grouped = isinstance(data, rk.GroupedSample)
    vals = list(data.values)
    scale = _scale(vals)

    def call():
        return rk.bootstrap_report(
            data, n_resamples=n_resamples, seed=seed, thresholds=thresholds,
            scale_bounds=bounds, bin_width=bin_width,
        )

    def check(rep):
        dist = rep.distribution
        values = dist.values
        if grouped:
            g1, g2 = data.group_names
            in_g1 = [g == g1 for g in data.groups]
            problems = check_replicates(
                values,
                lambda r: refgen.grouped_bootstrap_replicate(vals, in_g1, seed, r),
                n_resamples, scale, name,
            )
            mean, var, q = oracle.grouped_bootstrap_moments(data.group_values(g1), data.group_values(g2))
            problems += oracle.check_redraws(dist.redraw_count, n_resamples, q, name)
        else:
            problems = check_replicates(
                values, lambda r: refgen.bootstrap_replicate(vals, seed, r), n_resamples, scale, name
            )
            mean, var = oracle.bootstrap_mean_moments(vals)
            if dist.redraw_count:
                problems.append(f"{name}: {dist.redraw_count} redraws on ungrouped data")
        problems += oracle.check_moments(values, mean, var, name)
        if abs(dist.observed - mean) > 1e-9 * scale:
            problems.append(f"{name}: observed {dist.observed}, data give {mean}")
        problems += _interval_problems(rep.interval, dist.observed, name)
        arr = np.asarray(values)
        exact_tails = not grouped and len(vals) <= 12 and all(v.is_integer() for v in vals)
        for t, prob in rep.tail_probabilities:
            if prob != np.count_nonzero(arr >= t) / arr.size:
                problems.append(f"{name}: tail at {t} is {prob}, replicates give another")
            if exact_tails:
                exact = oracle.bootstrap_mean_tail([int(v) for v in vals], t)
                problems += oracle.check_proportion(prob, float(exact), n_resamples, f"{name} tail {t}")
        if rep.histogram.total != n_resamples:
            problems.append(f"{name}: histogram holds {rep.histogram.total} of {n_resamples}")
        return problems

    def counts(rep):
        redraws = rep.distribution.redraw_count
        return {"resampling.row_draws": (n_resamples + redraws) * data.n, "resampling.redraws": redraws}

    return Op(name, "resampling.bootstrap_report", call, check, replicates=n_resamples, counts=counts)


def shuffle_test(rk, name, data, n_resamples, seed) -> Op:
    g1, _ = data.group_names
    n1 = data.group_count(g1)
    vals = list(data.values)
    scale = _scale(vals)
    total_splits = math.comb(data.n, n1)

    def call():
        return rk.shuffle_test(data, n_resamples=n_resamples, seed=seed)

    def check(rep):
        values = rep.distribution.values
        problems = check_replicates(
            values, lambda r: refgen.shuffle_replicate(vals, n1, seed, r), n_resamples, scale, name
        )
        mean, var = oracle.shuffle_moments(vals, n1)
        problems += oracle.check_moments(values, mean, var, name)
        sum1 = sum(Fraction(v) for v in data.group_values(g1))
        obs = sum1 / n1 - (sum(Fraction(v) for v in vals) - sum1) / (data.n - n1)
        if abs(rep.observed - float(obs)) > 1e-9 * scale:
            problems.append(f"{name}: observed {rep.observed}, exact {float(obs)}")
        if total_splits <= EXACT_CHECK_LIMIT:
            exact = float(oracle.exact_shuffle_p(vals, n1, sum1))
            se = math.sqrt(exact * (1 - exact) / n_resamples)
            off = abs(rep.p_value - exact)
            tie_prone = _may_miss_ties(vals, n1)
            if off > (TIE_Z if tie_prone else oracle.Z) * se + 1e-12:
                msg = f"{name}: Monte Carlo p {rep.p_value:.6g} vs exact {exact:.6g} ({off / se if se else math.inf:.1f} SE)"
                problems.append(fault(TIE_FAULT, msg) if tie_prone else msg)
        return problems

    return Op(name, "resampling.shuffle_test", call, check, replicates=n_resamples,
              splits=n_resamples,
              counts=lambda rep: {"resampling.row_draws": n_resamples * min(n1, data.n - 1)})


def shuffle_test_paired(rk, name, data, n_resamples, seed) -> Op:
    xs, ys = list(data.xs), list(data.ys)

    def call():
        return rk.shuffle_test_paired(data, n_resamples=n_resamples, seed=seed)

    def check(rep):
        values = rep.distribution.values
        problems = check_replicates(
            values, lambda r: refgen.paired_replicate(xs, ys, seed, r), n_resamples, 1.0, name
        )
        problems += oracle.check_moments(values, 0.0, 1.0 / (data.n - 1), name)
        if abs(rep.observed - refgen.pearson(xs, ys)) > 1e-9:
            problems.append(f"{name}: observed r {rep.observed}, reference {refgen.pearson(xs, ys)}")
        return problems

    return Op(name, "resampling.shuffle_test_paired", call, check, replicates=n_resamples,
              splits=n_resamples, counts=lambda rep: {"resampling.row_draws": n_resamples * (data.n - 1)})


def exact_shuffle_p(rk, name, data) -> Op:
    g1, _ = data.group_names
    n1 = data.group_count(g1)
    splits = math.comb(data.n, n1)

    def check(p):
        want = oracle.exact_shuffle_p(list(data.values), n1, sum(Fraction(v) for v in data.group_values(g1)))
        return [] if p == want else [f"{name}: exact p {p}, subset-sum count gives {want}"]

    return Op(name, "resampling.exact_shuffle_p", lambda: rk.exact_shuffle_p(data), check,
              splits=splits, counts=lambda p: {"resampling.splits": splits})


def simulate_bernoulli(rk, name, experiment, seed) -> Op:
    runs = experiment.runs
    p = experiment.success_probability

    def hits(m: int) -> int:
        if m == 0:
            return 0
        return round(rk.simulate_bernoulli(dataclasses.replace(experiment, runs=m), seed) * m)

    def check(estimate):
        exact = oracle.bernoulli_probability(
            experiment.trials_per_run, p, experiment.event, experiment.event_count
        )
        problems = oracle.check_proportion(estimate, float(exact), runs, name)
        if experiment.exact_probability() != exact:
            problems.append(f"{name}: exact probability {experiment.exact_probability()}, math.comb gives {exact}")
        # The call reports only a share of runs; run r's outcome is the
        # difference between the hit counts of the first r + 1 and r runs.
        total = round(estimate * runs)
        for r in refgen.sample_indices(runs, random.Random(name), spread=2):
            got = (total if r == runs - 1 else hits(r + 1)) - hits(r)
            succ = refgen.bernoulli_successes(
                experiment.trials_per_run, p.numerator, p.denominator, seed, r
            )
            if got != int(experiment.matches(succ)):
                problems.append(f"{name}: run {r} scored {got}, reference has {succ} successes")
        return problems

    return Op(name, "simulate.simulate_bernoulli", lambda: rk.simulate_bernoulli(experiment, seed),
              check, replicates=runs)


def simulate_poll(rk, name, population, sample_size, mode, n_polls, seed) -> Op:
    entries = list(population.entries)
    replace = mode == "with-replacement"

    def check(res):
        props = res.proportions
        problems = check_replicates(
            props, lambda r: refgen.poll_replicate(entries, sample_size, replace, seed, r),
            n_polls, 1.0, name,
        )
        mean, var = oracle.poll_moments(population.ones / population.n, sample_size, population.n, replace)
        problems += oracle.check_moments(props, mean, var, name)
        problems += _interval_problems(res.interval(), population.proportion, name)
        return problems

    return Op(name, "simulate.simulate_poll",
              lambda: rk.simulate_poll(population, sample_size, mode, n_polls, seed),
              check, replicates=n_polls)


def load(name, span, call, expected) -> Op:
    def check(data):
        return [] if data == expected else [f"{name}: loaded data differ from the generated rows"]

    return Op(name, span, call, check)


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    outfile: bytes


def cli(name, argv, cwd, env, check, replicates=0, splits=0, outfile=None) -> Op:
    """One fresh ``python -m resamplekit.cli`` process; ``check`` reads its text."""

    def call():
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=120)
        data = b""
        if outfile is not None:
            with open(outfile, "rb") as fh:
                data = fh.read()
        return CliResult(proc.returncode, proc.stdout, proc.stderr, data)

    return Op(name, "cli.process", call, check, replicates=replicates, splits=splits)


def clean_error(fault_tag: str):
    """Check for an argv that must be refused: exit 1 or 2, one `error:` line."""

    def check(res: CliResult) -> list[str]:
        err = res.stderr.decode("utf-8", "replace")
        lines = err.strip().splitlines()
        if res.returncode in (1, 2) and len(lines) == 1 and lines[0].startswith("error:") \
                and "Traceback" not in err:
            return []
        what = (lines or res.stdout.decode("utf-8", "replace").strip().splitlines() or [""])[-1]
        return [fault(fault_tag, f"exit {res.returncode}, {len(lines)} stderr lines, last: {what[:80]}")]

    return check
