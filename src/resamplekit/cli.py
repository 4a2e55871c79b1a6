"""Command-line entry point.

Every report embeds a run manifest (command, all options, seed, replicate
count, library version, input digest): two runs with equal manifests print
byte-identical reports, and the seed is always visible, so a result can be
audited or reproduced exactly.  Exit codes: 0 success, 1 data or domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

from . import __version__
from .calibrate import (
    TwoByTwo,
    calibrate_from_interval,
    calibrate_from_p,
    finite_number,
    odds_ratio,
    probability_query,
    risk_ratio,
)
from .data import (
    GroupedSample,
    PopulationVector,
    Sample,
    _parse_csv,
    _parse_paired_csv,
    _read_once,
    fixtures,
    get_fixture,
)
from .resampling import (
    STAT_CORRELATION,
    bootstrap_report,
    check_bin_width,
    exact_shuffle_p,
    observed_statistic,
    shuffle_test,
    shuffle_test_paired,
)
from .simulate import BernoulliExperiment, simulate_bernoulli, simulate_poll
from .worlds import (
    HypothesisSet,
    parse_probability,
    posterior,
    render_worlds,
    sequential_update,
    two_stage_grid,
)

P_VALUE_LABEL = "p value (probability of data this extreme under the baseline hypothesis)"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _seed(args) -> int:
    """The run's seed: --seed, else RESAMPLE_SEED, else 0; must lie in [0, 2**64).

    Seeds outside that range would alias (the generator works modulo 2**64)
    while the manifest echoed a different number, so they are refused.
    """
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        raw = os.environ.get("RESAMPLE_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"RESAMPLE_SEED must be an integer, got {raw!r}") from None
        source = "RESAMPLE_SEED"
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{source} must be in [0, 2**64), got {seed}")
    return seed


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    try:
        low, high = (finite_number(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"{what} needs two comma-separated finite numbers, got {text!r}") from None
    return low, high


def _load_input(fixture, data, parse, *columns):
    """Returns (payload, input_id); a fixture wins over a file.

    The file is read once and the digest is of the bytes ``parse`` analysed,
    so it names the exact input even for pipes and files rewritten mid-run.
    """
    if fixture:
        return get_fixture(fixture).payload, f"fixture:{fixture}"
    if not data:
        raise ValueError("give either --fixture NAME or --data FILE")
    payload, raw = _read_once(data, parse, *columns)
    return payload, f"file:{data} sha256:{hashlib.sha256(raw).hexdigest()}"


class Report:
    """Collects body lines, the manifest and an optional histogram."""

    def __init__(self, command: str, input_id: str, seed=None, replicates=None):
        self.command = command
        self.input_id = input_id
        self.seed = seed
        self.replicates = replicates
        self.options: dict[str, str] = {}
        self.lines: list[str] = []
        self.csv_rows: list[str] = []
        self.histogram = None

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def option(self, key: str, value) -> None:
        self.options[key] = str(value)

    def manifest_items(self) -> list[tuple[str, str]]:
        return [
            ("command", self.command),
            ("input", self.input_id),
            ("options", " ".join(f"{k}={v}" for k, v in sorted(self.options.items()))),
            ("replicates", "-" if self.replicates is None else str(self.replicates)),
            ("seed", "-" if self.seed is None else str(self.seed)),
            ("version", __version__),
        ]

    def emit(self, fmt: str, out_path: str | None) -> str:
        if self.histogram is not None and out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(self.histogram.to_csv())
        if fmt == "csv":
            rows = [f"{k},{v}" for k, v in self.manifest_items()]
            rows += self.csv_rows
            if self.histogram is not None and not out_path:
                rows.append("")
                rows.append(self.histogram.to_csv().rstrip("\n"))
            return "\n".join(rows)
        text = list(self.lines)
        if self.histogram is not None and not out_path:
            text.append("")
            text.append(f"histogram (bin width {self.histogram.bin_width:g}):")
            text.append(self.histogram.to_ascii())
        text.append("")
        text.append("run manifest:")
        text += [f"  {k}: {v}" for k, v in self.manifest_items()]
        return "\n".join(text)

    def csv(self, key: str, value) -> None:
        self.csv_rows.append(f"{key},{value}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_shuffle_test(args) -> str:
    seed = _seed(args)
    if args.stat == STAT_CORRELATION:
        if not args.data:
            raise ValueError("correlation needs --data with --x-column/--y-column")
        data, input_id = _load_input(None, args.data, _parse_paired_csv, args.x_column, args.y_column)
    else:
        data, input_id = _load_input(args.fixture, args.data, _parse_csv, args.value_column, args.group_column)
        if not isinstance(data, GroupedSample):
            raise ValueError(
                f"{args.stat} needs two-group data (pass --group-column with --data)"
            )

    if args.bin_width is None:
        args.bin_width = 0.05 if args.stat == STAT_CORRELATION else 2.0
    check_bin_width(args.bin_width)
    rep = Report("shuffle-test", input_id, seed=seed, replicates=args.n)
    for key in ("stat", "sidedness", "n"):
        rep.option(key, getattr(args, key))
    rep.option("exact", str(args.exact).lower())
    rep.option("bin-width", _fmt(args.bin_width))

    if args.exact:
        if args.stat == STAT_CORRELATION:
            raise ValueError("--exact supports two-group statistics only")
        p = exact_shuffle_p(data, args.stat, args.sidedness)
        g1, _ = data.group_names
        total = math.comb(data.n, data.group_count(g1))
        hits = int(p * total)
        rep.replicates = total
        rep.seed = None
        obs = observed_statistic(data, args.stat)
        rep.add(f"shuffle test ({args.stat}), exact enumeration")
        rep.add(f"  observed {args.stat}: {_fmt(obs)}")
        rep.add(f"  {P_VALUE_LABEL}: {_fmt(float(p))} = {p}")
        rep.add(f"  {hits} of all {total} group assignments were at least this extreme")
        rep.csv("observed", _fmt(obs))
        rep.csv("p_value", _fmt(float(p)))
        rep.csv("p_value_exact", str(p))
        return rep.emit(args.format, args.out)

    if args.stat == STAT_CORRELATION:
        result = shuffle_test_paired(
            data, args.n, seed, args.sidedness, bin_width=args.bin_width
        )
    else:
        result = shuffle_test(
            data, args.stat, args.n, seed, args.sidedness, bin_width=args.bin_width
        )
    rep.histogram = result.histogram
    rep.add(f"shuffle test ({result.statistic}), {result.sidedness}")
    rep.add(f"  observed {result.statistic} ({result.description}): {_fmt(result.observed)}")
    rep.add(f"  {P_VALUE_LABEL}: {_fmt(result.p_value)}")
    rep.add(f"  resamples: {result.n_resamples} without replacement, seed {result.seed}")
    rep.csv("observed", _fmt(result.observed))
    rep.csv("p_value", _fmt(result.p_value))
    return rep.emit(args.format, args.out)


def _cmd_bootstrap(args) -> str:
    seed = _seed(args)
    check_bin_width(args.bin_width)
    data, input_id = _load_input(args.fixture, args.data, _parse_csv, args.value_column, args.group_column)
    bounds = _parse_pair(args.bounds, "--bounds") if args.bounds else None
    result = bootstrap_report(
        data,
        statistic=args.stat,
        n_resamples=args.n,
        seed=seed,
        level=args.level,
        thresholds=args.threshold,
        tail_direction=args.tail_direction,
        scale_bounds=bounds,
        bin_width=args.bin_width,
    )
    dist = result.distribution
    rep = Report("bootstrap", input_id, seed=seed, replicates=args.n)
    rep.option("stat", dist.statistic)
    rep.option("level", _fmt(args.level))
    rep.option("n", args.n)
    rep.option("tail-direction", args.tail_direction)
    rep.option("thresholds", ",".join(_fmt(t) for t in args.threshold) or "-")
    rep.option("bounds", args.bounds or "-")
    rep.option("bin-width", _fmt(args.bin_width))
    rep.histogram = result.histogram

    rep.add(f"bootstrap ({dist.statistic})")
    detail = f" ({result.description})" if result.description != dist.statistic else ""
    rep.add(f"  observed {dist.statistic}{detail}: {_fmt(dist.observed)}")
    lo, hi = result.interval
    rep.add(
        f"  {args.level:.0%} percentile interval: {_fmt(lo)} to {_fmt(hi)}"
    )
    sign = ">=" if args.tail_direction == "ge" else ">"
    for threshold, prob in result.tail_probabilities:
        rep.add(
            f"  tentative probability that the population {result.description} "
            f"{sign} {_fmt(threshold)}: {_fmt(prob)}"
        )
    rep.add(f"  resamples: {dist.n_resamples} with replacement, seed {dist.seed}")
    if dist.redraw_count:
        rep.add(f"  replicates redrawn (one group vanished): {dist.redraw_count}")
    diag = result.diagnostics
    rep.add(
        f"  diagnostics: skewness {_fmt(diag.skewness)}, "
        f"|mean-median|/sd {_fmt(diag.mean_median_gap)}"
    )
    for note in diag.notes:
        rep.add(f"  note: {note}")
    rep.csv("observed", _fmt(dist.observed))
    rep.csv("interval_low", _fmt(lo))
    rep.csv("interval_high", _fmt(hi))
    for threshold, prob in result.tail_probabilities:
        rep.csv(f"tail_{sign}_{_fmt(threshold)}", _fmt(prob))
    rep.csv("skewness", _fmt(diag.skewness))
    rep.csv("skew_flagged", str(diag.skew_flagged).lower())
    if diag.out_of_bounds_fraction is not None:
        rep.csv("out_of_bounds_fraction", _fmt(diag.out_of_bounds_fraction))
    rep.csv("redraws", dist.redraw_count)
    return rep.emit(args.format, args.out)


def _cmd_clip(args) -> str:
    rep = Report("clip", "-")
    if args.two_by_two:
        try:
            counts = [int(t) for t in args.two_by_two.replace(",", " ").split()]
        except ValueError:
            counts = []
        if len(counts) != 4:
            raise ValueError(f"--two-by-two needs four whole-number counts, got {args.two_by_two!r}")
        table = TwoByTwo(*counts)
        rep.option("two-by-two", args.two_by_two)
        rep.add(f"2x2 table: {counts[0]}/{counts[1]} events/non-events vs {counts[2]}/{counts[3]}")
        orat = odds_ratio(table)
        rrat = risk_ratio(table)
        rep.add(f"  odds ratio: {_fmt(orat)}")
        rep.add(f"  risk ratio: {_fmt(rrat)}")
        rep.csv("odds_ratio", _fmt(orat))
        rep.csv("risk_ratio", _fmt(rrat))
        return rep.emit(args.format, args.out)

    family = args.family
    df = args.df
    if args.ci:
        low, high = _parse_pair(args.ci, "--ci")
        dist = calibrate_from_interval(
            low, high, level=args.level, family=family, df=df,
            estimate=args.estimate, log_scale=args.log_scale,
        )
        rep.option("ci", args.ci)
        rep.option("level", _fmt(args.level))
        if args.estimate is not None:
            rep.option("estimate", _fmt(args.estimate))
        source = f"{args.level:.0%} interval ({_fmt(low)}, {_fmt(high)})"
    elif args.p is not None:
        if args.estimate is None:
            raise ValueError("--p needs --estimate (and --null for ratio baselines)")
        dist = calibrate_from_p(
            args.estimate, args.p, args.null, family=family, df=df,
            log_scale=args.log_scale,
        )
        rep.option("p", _fmt(args.p))
        rep.option("estimate", _fmt(args.estimate))
        rep.option("null", _fmt(args.null))
        source = f"p={_fmt(args.p)} at estimate {_fmt(args.estimate)} (baseline {_fmt(args.null)})"
    else:
        raise ValueError("give either --ci LOW,HIGH or --p P --estimate E")
    rep.option("family", family + (f"(df={df})" if family == "t" else ""))
    rep.option("log-scale", str(args.log_scale).lower())

    rep.add(f"calibrated {family} model from {source}")
    scale_note = " on ln(theta)" if dist.log_scale else ""
    rep.add(f"  center {_fmt(dist.center)}, scale {_fmt(dist.se)}{scale_note}")
    for note in dist.notes:
        rep.add(f"  note: {note}")
    rep.csv("center", _fmt(dist.center))
    rep.csv("scale", _fmt(dist.se))
    for query in args.query:
        prob = probability_query(dist, query)
        rep.add(f"  tentative probability of theta {query}: {_fmt(prob)}")
        rep.csv(f"query {query}".replace(",", ";"), _fmt(prob))
    return rep.emit(args.format, args.out)


def _cmd_bayes(args) -> str:
    rep = Report("bayes", "-")
    if args.two_stage:
        parts = [t for t in args.two_stage.replace(",", " ").split() if t]
        if len(parts) != 3:
            raise ValueError(
                "--two-stage needs P_FIRST,P_SECOND_GIVEN_FIRST,P_SECOND_GIVEN_NOT_FIRST"
            )
        p1, p21, p20 = (parse_probability(t) for t in parts)
        grid = two_stage_grid(p1, p21, p20)
        rep.option("two-stage", args.two_stage)
        rep.add("two-stage outcomes (exact):")
        for name, value in (
            ("both", grid.both),
            ("first only", grid.first_only),
            ("second only", grid.second_only),
            ("neither", grid.neither),
        ):
            rep.add(f"  {name}: {value} = {float(value):.4g}")
            rep.csv(name.replace(" ", "_"), str(value))
        rep.add(f"  second stage overall: {grid.second} = {float(grid.second):.4g}")
        rep.csv("second_overall", str(grid.second))
        return rep.emit(args.format, args.out)

    if not args.hypothesis:
        raise ValueError("give --hypothesis NAME:PRIOR:LIKELIHOOD at least once")
    triples = []
    for spec_str in args.hypothesis:
        bits = spec_str.split(":")
        if len(bits) != 3:
            raise ValueError(
                f"--hypothesis needs NAME:PRIOR:LIKELIHOOD, got {spec_str!r}"
            )
        triples.append((bits[0], bits[1], bits[2]))
    hset = HypothesisSet.from_triples(triples)
    rep.option("hypothesis", ";".join(args.hypothesis))
    rep.option("worlds", str(args.worlds).lower())
    rep.option("update", ";".join(args.update) or "-")

    rep.add("hypotheses (prior, likelihood of the data):")
    for h in hset.hypotheses:
        rep.add(f"  {h.name}: prior {h.prior}, likelihood {h.likelihood}")
    if args.worlds:
        rep.add(render_worlds(hset).render())
    rep.add("posterior probabilities (exact):")
    for name, prob in posterior(hset):
        rep.add(f"  {name}: {prob} = {float(prob):.4g}")
        rep.csv(f"posterior_{name}", str(prob))
    current = hset
    for round_no, update_str in enumerate(args.update, start=1):
        liks = [parse_probability(t) for t in update_str.split(",")]
        current = sequential_update(current, liks)
        rep.add(f"after evidence round {round_no} (likelihoods {update_str}):")
        for name, prob in posterior(current):
            rep.add(f"  {name}: {prob} = {float(prob):.4g}")
            rep.csv(f"round{round_no}_{name}", str(prob))
    return rep.emit(args.format, args.out)


def _cmd_montecarlo(args) -> str:
    seed = _seed(args)
    experiment = BernoulliExperiment(
        trials_per_run=args.trials,
        success_probability=parse_probability(args.prob),
        event=args.event,
        event_count=args.count,
        runs=args.runs,
    )
    estimate = simulate_bernoulli(experiment, seed)
    exact = experiment.exact_probability()
    rep = Report("montecarlo", "-", seed=seed, replicates=args.runs)
    for key in ("trials", "prob", "event", "count", "runs"):
        rep.option(key, getattr(args, key))
    rep.add(
        f"bernoulli experiment: {args.trials} trials at success probability "
        f"{experiment.success_probability}, event '{args.event} {args.count}'"
    )
    rep.add(f"  simulated probability over {args.runs} runs (seed {seed}): {_fmt(estimate)}")
    rep.add(f"  exact probability: {exact} = {_fmt(float(exact))}")
    rep.add(f"  simulation error: {_fmt(abs(estimate - float(exact)))}")
    rep.csv("estimate", _fmt(estimate))
    rep.csv("exact", str(exact))
    return rep.emit(args.format, args.out)


def _cmd_poll(args) -> str:
    seed = _seed(args)
    population, input_id = _load_input(args.fixture, args.data, _parse_csv, args.value_column)
    if not args.fixture:
        population = PopulationVector(population.values)
    elif not isinstance(population, PopulationVector):
        raise ValueError(f"fixture {args.fixture!r} is not a 0/1 population")
    mode = "with-replacement" if args.mode == "with" else "without-replacement"
    result = simulate_poll(population, args.sample_size, mode, args.polls, seed)
    lo, hi = result.interval(args.level)
    rep = Report("poll", input_id, seed=seed, replicates=args.polls)
    rep.option("sample-size", args.sample_size)
    rep.option("mode", args.mode)
    rep.option("polls", args.polls)
    rep.option("level", _fmt(args.level))
    rep.add(
        f"{args.polls} simulated polls of {args.sample_size} electors "
        f"({mode}) from a population of {population.n} "
        f"(true proportion {_fmt(population.proportion)})"
    )
    rep.add(f"  poll proportions range: {_fmt(result.minimum)} to {_fmt(result.maximum)}")
    rep.add(
        f"  {args.level:.0%} of polls fell between {_fmt(lo)} and {_fmt(hi)} "
        f"(the {(1 - args.level) / 2:.1%} and {1 - (1 - args.level) / 2:.1%} percentiles)"
    )
    rep.add(f"  seed {seed}")
    rep.csv("minimum", _fmt(result.minimum))
    rep.csv("maximum", _fmt(result.maximum))
    rep.csv("interval_low", _fmt(lo))
    rep.csv("interval_high", _fmt(hi))
    return rep.emit(args.format, args.out)


def _cmd_fixtures(args) -> str:
    rep = Report("fixtures", "-")
    if args.name:
        fixture = get_fixture(args.name)
        rep.option("name", args.name)
        rep.add(f"{fixture.name}: {fixture.description}")
        payload = fixture.payload
        if isinstance(payload, GroupedSample):
            rep.add("value,group")
            for v, g in payload.rows:
                rep.add(f"{v:g},{g}")
        elif isinstance(payload, Sample):
            rep.add("value")
            for v in payload.values:
                rep.add(f"{v:g}")
        else:
            rep.add("value")
            for e in payload.entries:
                rep.add(f"{e}")
        return rep.emit(args.format, args.out)
    rep.add("built-in fixtures:")
    for fixture in fixtures():
        rep.add(f"  {fixture.name}: {fixture.description}")
        rep.csv(fixture.name, fixture.description)
    return rep.emit(args.format, args.out)


# ---------------------------------------------------------------------------
# parser


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("text", "csv"), default="text")
    sp.add_argument("--out", default=None, help="write the histogram CSV to this file")


def _add_input(sp) -> None:
    sp.add_argument("--fixture", default=None, help="built-in dataset name")
    sp.add_argument("--data", default=None, help="CSV file (header row, UTF-8)")
    sp.add_argument("--value-column", default="value")
    sp.add_argument("--group-column", default=None,
                    help="read (value, group) rows; omit for ungrouped data")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resamplekit",
        description=(
            "Deterministic resampling inference: shuffle tests, bootstrap "
            "confidence distributions, probability calibration and exact Bayes. "
            "Default seed is 0 (or RESAMPLE_SEED); every report echoes the seed "
            "that produced it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("shuffle-test", help="re-deal values between groups to test 'no difference'")
    _add_input(sp)
    sp.add_argument("--x-column", default="x", help="for --stat correlation")
    sp.add_argument("--y-column", default="y", help="for --stat correlation")
    sp.add_argument("--stat", choices=("mean-diff", "proportion-diff", "correlation"), default="mean-diff")
    sp.add_argument("--n", type=int, default=1000, help="number of resamples (default 1000)")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--sidedness", choices=("two-sided", "greater", "less"), default="two-sided")
    sp.add_argument("--bin-width", type=float, default=None,
                    help="histogram bin width (default 2, or 0.05 for correlation)")
    sp.add_argument("--exact", action="store_true", help="enumerate every group assignment instead of sampling")
    _add_common(sp)
    sp.set_defaults(func=_cmd_shuffle_test)

    sp = sub.add_parser("bootstrap", help="resample rows with replacement for a confidence distribution")
    _add_input(sp)
    sp.add_argument("--stat", choices=("mean", "mean-diff", "proportion-diff"), default=None)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--level", type=finite_number, default=0.95)
    sp.add_argument("--threshold", type=finite_number, action="append", default=[],
                    help="report the tail probability at this value (repeatable)")
    sp.add_argument("--tail-direction", choices=("ge", "gt"), default="ge")
    sp.add_argument("--bounds", default=None, help="measurement scale LOW,HIGH for diagnostics")
    sp.add_argument("--bin-width", type=float, default=2.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_bootstrap)

    sp = sub.add_parser("clip", help="probabilities for a quantity from a published CI or p-value")
    sp.add_argument("--ci", default=None, help="confidence interval LOW,HIGH")
    sp.add_argument("--level", type=finite_number, default=0.95)
    sp.add_argument("--p", type=finite_number, default=None, help="two-sided p-value")
    sp.add_argument("--estimate", type=finite_number, default=None)
    sp.add_argument("--null", type=finite_number, default=0.0,
                    help="baseline value the p-value tested against (0 differences, 1 ratios)")
    sp.add_argument("--family", choices=("normal", "t"), default="normal")
    sp.add_argument("--df", type=int, default=None)
    sp.add_argument("--log-scale", action="store_true")
    sp.add_argument("--query", action="append", default=[],
                    help="'gt X' | 'lt X' | 'between X1,X2' | 'outside X1,X2' (repeatable)")
    sp.add_argument("--two-by-two", default=None,
                    help="EVENTS1,NONEVENTS1,EVENTS2,NONEVENTS2: print odds and risk ratios")
    _add_common(sp)
    sp.set_defaults(func=_cmd_clip)

    sp = sub.add_parser("bayes", help="exact-rational posterior over discrete hypotheses")
    sp.add_argument("--hypothesis", action="append", default=[],
                    help="NAME:PRIOR:LIKELIHOOD, e.g. telepathy:1/4:1 (repeatable)")
    sp.add_argument("--worlds", action="store_true", help="print the possible-worlds grid")
    sp.add_argument("--update", action="append", default=[],
                    help="likelihoods L1,L2,... for another round of evidence (repeatable)")
    sp.add_argument("--two-stage", default=None,
                    help="P1,P2_GIVEN_1,P2_GIVEN_NOT_1: joint outcomes of two events")
    _add_common(sp)
    sp.set_defaults(func=_cmd_bayes)

    sp = sub.add_parser("montecarlo", help="simulate repeated Bernoulli trials and compare to exact")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--prob", default="1/2", help="success probability ('1/2', '0.5', '50%%')")
    sp.add_argument("--event", choices=("exactly", "at-least", "at-most"), default="exactly")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--runs", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_montecarlo)

    sp = sub.add_parser("poll", help="simulate opinion polls from a 0/1 population")
    sp.add_argument("--fixture", default=None)
    sp.add_argument("--data", default=None)
    sp.add_argument("--value-column", default="value")
    sp.add_argument("--sample-size", type=int, required=True)
    sp.add_argument("--mode", choices=("with", "without"), default="without")
    sp.add_argument("--polls", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--level", type=finite_number, default=0.95)
    _add_common(sp)
    sp.set_defaults(func=_cmd_poll)

    sp = sub.add_parser("fixtures", help="list or dump the built-in datasets")
    sp.add_argument("--name", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        print(args.func(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
