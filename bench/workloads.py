"""The four workloads and the small layer probe, built from a workload seed.

Each workload function writes its input files under ``workdir`` and returns
the list of operations that make up one round.  Every round repeats the same
operations on the same inputs, so a run of any length attempts whole rounds
and the share of failed operations is the same in every run.  Input sizes are
fixed; the seed changes the values, the row orders and the program seeds.
"""

from __future__ import annotations

import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import ops

# Decimal datasets on which the tie fault is exercised.  They are made from
# this constant, not from the workload seed, so that the fault fails on the
# same operations in every run; the arXiv number of the paper.
TIE_BATCH_SEED = 1803_06214
TIE_BATCH_SIZE = 12
TIE_BATCH_MC_SEED = 2018

# C(18,9) = 48,620 splits, about 1.7 s by enumeration: long enough to
# dominate the round, short enough for several rounds per run (C(20,10) takes
# 5-7 s, two samples a run, and its run-to-run spread was too wide).
BIG_EXACT_ROWS = 18


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _labels(rng, n, n1, names=("A", "B")) -> list[str]:
    groups = [names[0]] * n1 + [names[1]] * (n - n1)
    rng.shuffle(groups)
    return groups


def _grouped(rk, rng, values, n1, names=("A", "B")):
    return rk.GroupedSample(values, _labels(rng, len(values), n1, names))


def many_replicates(rk, seed: int, workdir: Path) -> list:
    """N = 10^6 replicates on small inputs: many lanes, few draws per lane."""
    rng = _rng("many-replicates", seed)
    n_rep = 10**6
    veg9 = rk.Sample([rng.randint(30, 95) for _ in range(9)])
    veg6 = _grouped(rk, rng, [rng.randint(20, 80) for _ in range(6)], 3, ("Vegetarian", "Omnivore"))
    threshold = round(veg9.mean) - 5
    p = Fraction(rng.randint(1, 5), 6)
    experiment = rk.BernoulliExperiment(8, p, "exactly", rng.randint(2, 6), n_rep)
    ones = rng.randint(200, 350)
    votes = [1] * ones + [0] * (500 - ones)
    rng.shuffle(votes)
    population = rk.PopulationVector(votes)
    return [
        ops.bootstrap_report(rk, "bootstrap_report.veg9", veg9, n_rep, _seed(rng), [threshold], (0, 100)),
        ops.bootstrap_report(rk, "bootstrap_report.veg6", veg6, n_rep, _seed(rng), [0], (-100, 100)),
        ops.shuffle_test(rk, "shuffle_test.veg6", veg6, n_rep, _seed(rng)),
        ops.simulate_bernoulli(rk, "simulate_bernoulli.8", experiment, _seed(rng)),
        ops.simulate_poll(rk, "simulate_poll.with", population, 20, "with-replacement", n_rep, _seed(rng)),
    ]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _one_decimal(x: float, lo: float = 0.0, hi: float = 100.0) -> float:
    return float(f"{min(hi, max(lo, x)):.1f}")


def wide_rows(rk, seed: int, workdir: Path) -> list:
    """About 2000 rows per dataset and 10^4 replicates: thousands of draws per lane."""
    rng = _rng("wide-rows", seed)
    n, n_rep = 2000, 10**4
    plain = [_one_decimal(rng.gauss(50, 12)) for _ in range(n)]
    shift = rng.uniform(-2, 2)
    labels = _labels(rng, n, n // 2)
    grouped = rk.GroupedSample(
        [_one_decimal(rng.gauss(50 + shift * (g == "A"), 12)) for g in labels], labels, label="grouped"
    )
    rho = rng.uniform(-0.3, 0.3)
    xs = [_one_decimal(rng.gauss(50, 10)) for _ in range(n)]
    ys = [_one_decimal(50 + rho * (x - 50) + rng.gauss(0, 10)) for x in xs]
    votes = [int(rng.random() < 0.55) for _ in range(10**4)]

    paths = {k: workdir / f"{k}.csv" for k in ("plain", "grouped", "paired")}
    _write_csv(paths["plain"], ["value"], ([f"{v:.1f}"] for v in plain))
    _write_csv(paths["grouped"], ["value", "group"], ([f"{v:.1f}", g] for v, g in grouped.rows))
    _write_csv(paths["paired"], ["x", "y"], ([f"{x:.1f}", f"{y:.1f}"] for x, y in zip(xs, ys)))
    sample = rk.Sample(plain, label="plain")
    paired = rk.PairedSample(xs, ys, label="paired")
    population = rk.PopulationVector(votes)
    return [
        ops.load("load_csv.plain", "data.load_csv",
                 lambda: rk.load_csv(paths["plain"], "value"), sample),
        ops.load("load_csv.grouped", "data.load_csv",
                 lambda: rk.load_csv(paths["grouped"], "value", "group"), grouped),
        ops.load("load_paired_csv", "data.load_paired_csv",
                 lambda: rk.load_paired_csv(paths["paired"], "x", "y"), paired),
        ops.bootstrap_report(rk, "bootstrap_report.plain", sample, n_rep, _seed(rng), [50], (0, 100)),
        ops.shuffle_test(rk, "shuffle_test.grouped", grouped, n_rep, _seed(rng)),
        ops.shuffle_test_paired(rk, "shuffle_test_paired", paired, n_rep, _seed(rng)),
        ops.simulate_poll(rk, "simulate_poll.without", population, 200, "without-replacement", n_rep, _seed(rng)),
    ]


def tie_batch(rk) -> list:
    """Small one-decimal grouped datasets, the same in every run."""
    rng = random.Random(TIE_BATCH_SEED)
    batch = []
    for _ in range(TIE_BATCH_SIZE):
        n = rng.randint(6, 8)
        batch.append(_grouped(rk, rng, [rng.randint(0, 30) / 10 for _ in range(n)], n // 2))
    return batch


def exact_and_ties(rk, seed: int, workdir: Path) -> list:
    """C(18,9) exact enumeration, and exact vs Monte Carlo p on small datasets."""
    rng = _rng("exact-and-ties", seed)
    big = _grouped(rk, rng, [rng.randint(0, 40) for _ in range(BIG_EXACT_ROWS)], BIG_EXACT_ROWS // 2)
    out = [ops.exact_shuffle_p(rk, f"exact_shuffle_p.{BIG_EXACT_ROWS}", big)]
    for i, data in enumerate(tie_batch(rk)):
        out.append(ops.exact_shuffle_p(rk, f"exact_shuffle_p.tie{i}", data))
        out.append(ops.shuffle_test(rk, f"shuffle_test.tie{i}", data, 10**5, TIE_BATCH_MC_SEED + i))
    # Integer data in equal halves: every float sum is exact, so Monte Carlo
    # and exact must agree whatever the seed.
    for i, n in enumerate((6, 6, 8, 8)):
        data = _grouped(rk, rng, [rng.randint(0, 9) for _ in range(n)], n // 2)
        out.append(ops.exact_shuffle_p(rk, f"exact_shuffle_p.int{i}", data))
        out.append(ops.shuffle_test(rk, f"shuffle_test.int{i}", data, 10**5, _seed(rng)))
    return out


def probe(rk, seed: int, workdir: Path) -> list:
    """Every library layer once at small size, for traced runs of workloads
    that do not call it themselves."""
    rng = _rng("probe", seed)
    n, n_rep = 200, 10**4
    values = [_one_decimal(rng.gauss(50, 12)) for _ in range(n)]
    sample = rk.Sample(values, label="probe")
    grouped = _grouped(rk, rng, [rng.randint(0, 40) for _ in range(12)], 6)
    paired = rk.PairedSample(values[:50], [_one_decimal(rng.gauss(50, 12)) for _ in range(50)], label="probe_paired")
    path, paired_path = workdir / "probe.csv", workdir / "probe_paired.csv"
    _write_csv(path, ["value"], ([f"{v:.1f}"] for v in values))
    _write_csv(paired_path, ["x", "y"], ([f"{x:.1f}", f"{y:.1f}"] for x, y in zip(paired.xs, paired.ys)))
    population = rk.PopulationVector([int(rng.random() < 0.5) for _ in range(1000)])
    experiment = rk.BernoulliExperiment(8, Fraction(1, 2), "exactly", 4, n_rep)
    return [
        ops.load("probe.load_csv", "data.load_csv", lambda: rk.load_csv(path, "value"), sample),
        ops.load("probe.load_paired_csv", "data.load_paired_csv",
                 lambda: rk.load_paired_csv(paired_path, "x", "y"), paired),
        ops.bootstrap_report(rk, "probe.bootstrap_report", sample, n_rep, _seed(rng), [50], (0, 100)),
        ops.shuffle_test(rk, "probe.shuffle_test", grouped, n_rep, _seed(rng)),
        ops.shuffle_test_paired(rk, "probe.shuffle_test_paired", paired, n_rep, _seed(rng)),
        ops.exact_shuffle_p(rk, "probe.exact_shuffle_p", grouped),
        ops.simulate_bernoulli(rk, "probe.simulate_bernoulli", experiment, _seed(rng)),
        ops.simulate_poll(rk, "probe.simulate_poll", population, 50, "without-replacement", n_rep, _seed(rng)),
    ]


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("RESAMPLE_SEED", None)
    return env


def cli_session(seed: int, workdir: Path, root: Path) -> list:
    """The README's command lines, each one a fresh CLI process."""
    import cli_checks as cc

    rng = _rng("cli-session", seed)
    data = [_one_decimal(rng.gauss(60, 15)) for _ in range(40)]
    data_path, hist_path = workdir / "scores.csv", workdir / "hist.csv"
    _write_csv(data_path, ["value"], ([f"{v:.1f}"] for v in data))
    env = cli_env(root)
    base = [sys.executable, "-m", "resamplekit.cli"]
    seeds = [str(_seed(rng)) for _ in range(5)]

    def inv(name, args, check, **kw):
        return ops.cli(f"cli.{name}", base + args, workdir, env, check, **kw)

    return [
        inv("shuffle-test.exact", ["shuffle-test", "--fixture", "veg6", "--stat", "mean-diff", "--exact"],
            cc.exact_veg6, splits=math.comb(6, 3)),
        inv("shuffle-test.mc", ["shuffle-test", "--fixture", "veg6", "--stat", "mean-diff",
                                "--n", "100000", "--seed", seeds[0]],
            cc.mc_veg6(100000), replicates=100000, splits=100000),
        inv("bootstrap.fixture", ["bootstrap", "--fixture", "veg9", "--threshold", "50",
                                  "--bounds", "0,100", "--seed", seeds[1]],
            cc.bootstrap_veg9(1000), replicates=1000),
        inv("bootstrap.data", ["bootstrap", "--data", data_path.name, "--n", "2000",
                               "--seed", seeds[2], "--out", hist_path.name],
            cc.bootstrap_file(data, 2000), replicates=2000, outfile=hist_path),
        inv("clip.ci", ["clip", "--ci", "49,72", "--query", "gt 50"], cc.clip_ci),
        inv("clip.p", ["clip", "--p", "0.04", "--estimate", "0.88", "--null", "1", "--query", "lt 1"], cc.clip_p),
        inv("clip.two-by-two", ["clip", "--two-by-two", "4,6,8,2"], cc.clip_two_by_two),
        inv("bayes", ["bayes", "--hypothesis", "guessing:3/4:1/50", "--hypothesis", "telepathy:1/4:1",
                      "--worlds", "--update", "1/50,1"], cc.bayes),
        inv("montecarlo", ["montecarlo", "--trials", "8", "--prob", "1/2", "--event", "exactly",
                           "--count", "4", "--runs", "1000", "--seed", seeds[3]],
            cc.montecarlo(1000), replicates=1000),
        inv("poll", ["poll", "--fixture", "poll500", "--sample-size", "20", "--polls", "1000",
                     "--seed", seeds[4]], cc.poll, replicates=1000),
        inv("fixtures", ["fixtures"], cc.fixtures),
        inv("montecarlo.prob-1/0", ["montecarlo", "--trials", "8", "--prob", "1/0", "--count", "4"],
            ops.clean_error(ops.ZERODIV_FAULT)),
        inv("bootstrap.bin-width-nan", ["bootstrap", "--fixture", "veg9", "--bin-width", "nan"],
            ops.clean_error(ops.NAN_BIN_FAULT)),
    ]


LIBRARY = {
    "many-replicates": many_replicates,
    "wide-rows": wide_rows,
    "exact-and-ties": exact_and_ties,
}
NAMES = ("many-replicates", "wide-rows", "exact-and-ties", "cli-session")
