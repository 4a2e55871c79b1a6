"""Command-line entry point.

Every report embeds a run manifest (command, input digest, options,
replicate count, seed, library version): two runs with equal manifests print
byte-identical reports, and the seed is always visible, so a result can be
audited or reproduced exactly.  The manifest's options are every option the
subcommand takes, except --seed, --fixture and --data, which it prints as
``seed`` and ``input``.  Each is spelled in full, as the parser accepts it
(abbreviations are refused), with its value as parsed, before any default is
resolved: ``stat=-`` means "the data kind's default", which the report body
names.  Floats print with ``repr``, so they read back exactly.  Exit codes:
0 success, 1 data or domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys

from . import __version__
from .calibrate import (
    FAMILIES,
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
from .spec import (
    CORRELATION_BIN_WIDTH,
    DEFAULT_BIN_WIDTH,
    DEFAULT_REPLICATES,
    EVENTS,
    GROUP_STATS,
    SIDEDNESS,
    STAT_CORRELATION,
    STAT_MEAN,
    STAT_MEAN_DIFF,
    TAIL_DIRECTIONS,
    BernoulliExperiment,
    check_bootstrap,
    check_count,
    check_level,
    check_poll,
    check_report,
    check_shuffle_test,
    exact_shuffle_p,
)
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


def _percent(x: float) -> str:
    """100·x as a percentage with 6 significant digits, or with up to 17
    where fewer would print a level short of 1 as 100%."""
    digits = 6
    while x < 1 and f"{100 * x:.{digits}g}" == "100" and digits < 17:
        digits += 1
    return f"{100 * x:.{digits}g}%"


def _text(value, number=_fmt) -> str:
    """How a csv value or manifest option is printed: floats through
    ``number``, flags as true/false, an absent value (None, empty) as '-'.
    Numbers in a list are joined by commas, texts by semicolons, since the
    texts of list options may hold commas themselves."""
    if value is None or isinstance(value, (str, list)) and not value:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return number(value)
    if isinstance(value, list):
        return (";" if isinstance(value[0], str) else ",").join(_text(item, number) for item in value)
    return str(value)


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


def _split(text: str, count: int, usage: str, convert=str, sep: str | None = None) -> list:
    """The ``count`` items of a list-valued option, each passed through
    ``convert``.  Items are separated by commas or spaces, or by ``sep``
    alone when it is given (then empty items count).  Too many or too few
    items, or one that ``convert`` refuses, raise ``usage``."""
    items = text.replace(",", " ").split() if sep is None else text.split(sep)
    try:
        items = [convert(item) for item in items]
    except ValueError:
        items = []
    if len(items) != count:
        raise ValueError(usage)
    return items


def _pair(text: str, option: str) -> tuple[float, float]:
    usage = f"{option} needs two comma-separated finite numbers, got {text!r}"
    return tuple(_split(text, 2, usage, finite_number))


def _refuse_unread(args, option: str, *others: str) -> None:
    """Refuses each of ``others`` that was given along with ``option``, whose
    report would leave it unread."""
    if getattr(args, option[2:].replace("-", "_")):
        for other in others:
            value = getattr(args, other[2:].replace("-", "_"))
            if value is not None and value is not False and value != []:
                raise ValueError(f"{other} cannot be used with {option}")


def _load_input(rep, fixture, data, parse, *columns):
    """The input's payload, named in ``rep.input_id``; a fixture wins over a
    file, and only ``poll`` takes the 0/1 population fixtures.

    The file is read once and the digest is of the bytes ``parse`` analysed,
    so it names the exact input even for pipes and files rewritten mid-run.
    """
    if fixture:
        payload = get_fixture(fixture).payload
        if isinstance(payload, PopulationVector) != (rep.command == "poll"):
            what = "not a 0/1 population" if rep.command == "poll" else "a 0/1 population, for poll only"
            raise ValueError(f"fixture {fixture!r} is {what}")
        rep.input_id = f"fixture:{fixture}"
        return payload
    if not data:
        raise ValueError("give either --fixture NAME or --data FILE")
    payload, raw = _read_once(data, parse, *columns)
    rep.input_id = f"file:{data} sha256:{hashlib.sha256(raw).hexdigest()}"
    return payload


class Report:
    """Collects body lines, csv rows, the manifest and an optional histogram:
    one ``add`` call per body line, carrying the csv rows of the figures that
    line shows (a comma in a row's key is written as ";")."""

    def __init__(self, command: str, options: str, seed=None, replicates=None):
        self.command = command
        self.input_id = "-"
        self.options = options
        self.seed = seed
        self.replicates = replicates
        self.lines: list[str] = []
        self.csv_rows: list[str] = []
        self.histogram = None

    def add(self, line: str = "", /, **rows) -> None:
        self.lines.append(line)
        self.csv_rows += (f"{key.replace(',', ';')},{_text(value)}" for key, value in rows.items())

    def manifest_items(self) -> list[tuple[str, str]]:
        return [
            ("command", self.command),
            ("input", self.input_id),
            ("options", self.options),
            ("replicates", _text(self.replicates)),
            ("seed", _text(self.seed)),
            ("version", __version__),
        ]

    def emit(self, fmt: str, out_path: str | None) -> str:
        """The report in ``fmt``; a histogram goes to ``out_path`` instead, if given."""
        hist = self.histogram
        if hist is not None and out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(hist.to_csv())
            hist = None
        if fmt == "csv":
            rows = [f"{k},{v}" for k, v in self.manifest_items()] + self.csv_rows
            if hist is not None:
                rows += ["", hist.to_csv().rstrip("\n")]
            return "\n".join(rows)
        text = list(self.lines)
        if hist is not None:
            text += ["", f"histogram (bin width {hist.bin_width:g}):", hist.to_ascii()]
        text += ["", "run manifest:", *(f"  {k}: {v}" for k, v in self.manifest_items())]
        return "\n".join(text)


# ---------------------------------------------------------------------------
# subcommands: each fills in the Report that main made for it and returns it


def _cmd_shuffle_test(args, rep: Report) -> Report:
    _refuse_unread(args, "--exact", "--out", "--bin-width", "--seed")
    if args.stat == STAT_CORRELATION:
        if not args.data:
            raise ValueError("correlation needs --data with --x-column/--y-column")
        data = _load_input(rep, None, args.data, _parse_paired_csv, args.x_column, args.y_column)
    else:
        data = _load_input(rep, args.fixture, args.data, _parse_csv, args.value_column, args.group_column)
        if not isinstance(data, GroupedSample):
            raise ValueError(f"{args.stat} needs two-group data (pass --group-column with --data)")

    if args.exact:
        if args.stat == STAT_CORRELATION:
            raise ValueError("--exact supports two-group statistics only")
        p = exact_shuffle_p(data, args.stat, args.sidedness)
        from .resampling import observed_statistic

        total = math.comb(data.n, data.group_count(data.group_names[0]))
        hits = int(p * total)
        rep.replicates = total
        rep.seed = None
        obs = observed_statistic(data, args.stat)
        rep.add(f"shuffle test ({args.stat}), exact enumeration")
        rep.add(f"  observed {args.stat}: {_fmt(obs)}", observed=obs)
        rep.add(f"  {P_VALUE_LABEL}: {_fmt(float(p))} = {p}", p_value=float(p), p_value_exact=p)
        rep.add(f"  {hits} of all {total} group assignments were at least this extreme")
        return rep

    check_shuffle_test(data, args.stat, args.n, args.sidedness, args.bin_width)
    from .resampling import shuffle_test

    result = shuffle_test(data, args.stat, args.n, rep.seed, args.sidedness, args.bin_width)
    rep.histogram = result.histogram
    rep.add(f"shuffle test ({result.statistic}), {result.sidedness}")
    rep.add(f"  observed {result.statistic} ({result.description}): {_fmt(result.observed)}",
            observed=result.observed)
    rep.add(f"  {P_VALUE_LABEL}: {_fmt(result.p_value)}", p_value=result.p_value)
    rep.add(f"  resamples: {result.n_resamples} without replacement, seed {result.seed}")
    return rep


def _cmd_bootstrap(args, rep: Report) -> Report:
    data = _load_input(rep, args.fixture, args.data, _parse_csv, args.value_column, args.group_column)
    bounds = _pair(args.bounds, "--bounds") if args.bounds else None
    check_report(args.n, args.level, args.threshold, args.tail_direction, bounds, args.bin_width)
    check_bootstrap(data, args.stat, args.n)
    from .resampling import bootstrap_report

    result = bootstrap_report(
        data, args.stat, args.n, rep.seed, level=args.level, thresholds=args.threshold,
        tail_direction=args.tail_direction, scale_bounds=bounds, bin_width=args.bin_width,
    )
    dist = result.distribution
    rep.histogram = result.histogram

    rep.add(f"bootstrap ({dist.statistic})")
    detail = f" ({result.description})" if result.description != dist.statistic else ""
    rep.add(f"  observed {dist.statistic}{detail}: {_fmt(dist.observed)}", observed=dist.observed)
    lo, hi = result.interval
    rep.add(f"  {_percent(args.level)} percentile interval: {_fmt(lo)} to {_fmt(hi)}",
            interval_low=lo, interval_high=hi)
    sign = ">=" if args.tail_direction == "ge" else ">"
    for threshold, prob in result.tail_probabilities:
        rep.add(
            f"  tentative probability that the population {result.description} "
            f"{sign} {_fmt(threshold)}: {_fmt(prob)}",
            **{f"tail_{sign}_{_fmt(threshold)}": prob},
        )
    rep.add(f"  resamples: {dist.n_resamples} with replacement, seed {dist.seed}")
    if dist.redraw_count:
        rep.add(f"  replicates redrawn (one group vanished): {dist.redraw_count}")
    diag = result.diagnostics
    oob = diag.out_of_bounds_fraction
    rep.add(
        f"  diagnostics: skewness {_fmt(diag.skewness)}, |mean-median|/sd {_fmt(diag.mean_median_gap)}",
        skewness=diag.skewness, skew_flagged=diag.skew_flagged,
        **({} if oob is None else {"out_of_bounds_fraction": oob}), redraws=dist.redraw_count,
    )
    for note in diag.notes:
        rep.add(f"  note: {note}")
    return rep


def _cmd_clip(args, rep: Report) -> Report:
    _refuse_unread(args, "--two-by-two", "--ci", "--p", "--estimate", "--df", "--log-scale", "--query")
    _refuse_unread(args, "--ci", "--p")
    if args.two_by_two:
        usage = f"--two-by-two needs four whole-number counts, got {args.two_by_two!r}"
        counts = _split(args.two_by_two, 4, usage, int)
        table = TwoByTwo(*counts)
        rep.add(f"2x2 table: {counts[0]}/{counts[1]} events/non-events vs {counts[2]}/{counts[3]}")
        for name, ratio in (("odds", odds_ratio(table)), ("risk", risk_ratio(table))):
            rep.add(f"  {name} ratio: {_fmt(ratio)}", **{f"{name}_ratio": ratio})
        return rep

    family, df = args.family, args.df
    if args.ci:
        low, high = _pair(args.ci, "--ci")
        dist = calibrate_from_interval(
            low, high, level=args.level, family=family, df=df, estimate=args.estimate, log_scale=args.log_scale
        )
        source = f"{_percent(args.level)} interval ({_fmt(low)}, {_fmt(high)})"
    elif args.p is not None:
        if args.estimate is None:
            raise ValueError("--p needs --estimate (and --null for ratio baselines)")
        dist = calibrate_from_p(args.estimate, args.p, args.null, family=family, df=df, log_scale=args.log_scale)
        source = f"p={_fmt(args.p)} at estimate {_fmt(args.estimate)} (baseline {_fmt(args.null)})"
    else:
        raise ValueError("give either --ci LOW,HIGH or --p P --estimate E")

    rep.add(f"calibrated {family} model from {source}")
    scale_note = " on ln(theta)" if dist.log_scale else ""
    rep.add(f"  center {_fmt(dist.center)}, scale {_fmt(dist.se)}{scale_note}",
            center=dist.center, scale=dist.se)
    for note in dist.notes:
        rep.add(f"  note: {note}")
    for query in args.query:
        prob = probability_query(dist, query)
        rep.add(f"  tentative probability of theta {query}: {_fmt(prob)}", **{f"query {query}": prob})
    return rep


def _cmd_bayes(args, rep: Report) -> Report:
    _refuse_unread(args, "--two-stage", "--hypothesis", "--update", "--worlds")
    if args.two_stage:
        usage = "--two-stage needs P_FIRST,P_SECOND_GIVEN_FIRST,P_SECOND_GIVEN_NOT_FIRST"
        grid = two_stage_grid(*_split(args.two_stage, 3, usage))
        rep.add("two-stage outcomes (exact):")
        for name in ("both", "first only", "second only", "neither"):
            key = name.replace(" ", "_")
            value = getattr(grid, key)
            rep.add(f"  {name}: {value} = {float(value):.4g}", **{key: value})
        rep.add(f"  second stage overall: {grid.second} = {float(grid.second):.4g}", second_overall=grid.second)
        return rep

    if not args.hypothesis:
        raise ValueError("give --hypothesis NAME:PRIOR:LIKELIHOOD at least once")
    hset = HypothesisSet.from_triples([
        _split(spec, 3, f"--hypothesis needs NAME:PRIOR:LIKELIHOOD, got {spec!r}", sep=":")
        for spec in args.hypothesis
    ])

    rep.add("hypotheses (prior, likelihood of the data):")
    for h in hset.hypotheses:
        rep.add(f"  {h.name}: prior {h.prior}, likelihood {h.likelihood}")
    if args.worlds:
        rep.add(render_worlds(hset).render())
    rep.add("posterior probabilities (exact):")
    for name, prob in posterior(hset):
        rep.add(f"  {name}: {prob} = {float(prob):.4g}", **{f"posterior_{name}": prob})
    current = hset
    count = len(hset.hypotheses)
    for round_no, update_str in enumerate(args.update, start=1):
        usage = f"--update needs {count} likelihoods, one per hypothesis, got {update_str!r}"
        current = sequential_update(current, _split(update_str, count, usage))
        rep.add(f"after evidence round {round_no} (likelihoods {update_str}):")
        for name, prob in posterior(current):
            rep.add(f"  {name}: {prob} = {float(prob):.4g}", **{f"round{round_no}_{name}": prob})
    return rep


def _cmd_montecarlo(args, rep: Report) -> Report:
    check_count("--trials", args.trials)
    prob = parse_probability(args.prob)
    experiment = BernoulliExperiment(args.trials, prob, args.event, args.count, args.runs)
    from .simulate import simulate_bernoulli

    estimate = simulate_bernoulli(experiment, rep.seed)
    exact = experiment.exact_probability()
    rep.add(
        f"bernoulli experiment: {args.trials} trials at success probability "
        f"{experiment.success_probability}, event '{args.event} {args.count}'"
    )
    rep.add(f"  simulated probability over {args.runs} runs (seed {rep.seed}): {_fmt(estimate)}",
            estimate=estimate)
    rep.add(f"  exact probability: {exact} = {_fmt(float(exact))}", exact=exact)
    rep.add(f"  simulation error: {_fmt(abs(estimate - float(exact)))}")
    return rep


def _cmd_poll(args, rep: Report) -> Report:
    check_count("--sample-size", args.sample_size)
    population = _load_input(rep, args.fixture, args.data, _parse_csv, args.value_column)
    if not args.fixture:
        population = PopulationVector(population.values)
    mode = "with-replacement" if args.mode == "with" else "without-replacement"
    check_poll(population, args.sample_size, mode, args.polls)
    check_level(args.level)
    from .simulate import simulate_poll

    result = simulate_poll(population, args.sample_size, mode, args.polls, rep.seed)
    lo, hi = result.interval(args.level)
    rep.add(f"{args.polls} simulated polls of {args.sample_size} electors ({mode}) from a population of "
            f"{population.n} (true proportion {_fmt(population.proportion)})")
    rep.add(f"  poll proportions range: {_fmt(result.minimum)} to {_fmt(result.maximum)}",
            minimum=result.minimum, maximum=result.maximum)
    rep.add(
        f"  {_percent(args.level)} of polls fell between {_fmt(lo)} and {_fmt(hi)} "
        f"(the {_percent((1 - args.level) / 2)} and {_percent(1 - (1 - args.level) / 2)} percentiles)",
        interval_low=lo, interval_high=hi,
    )
    rep.add(f"  seed {rep.seed}")
    return rep


def _cmd_fixtures(args, rep: Report) -> Report:
    if not args.name:
        rep.add("built-in fixtures:")
        for fixture in fixtures():
            rep.add(f"  {fixture.name}: {fixture.description}", **{fixture.name: fixture.description})
        return rep
    fixture = get_fixture(args.name)
    rep.add(f"{fixture.name}: {fixture.description}")
    payload = fixture.payload
    if isinstance(payload, GroupedSample):
        table = ["value,group", *(f"{v:g},{g}" for v, g in payload.rows)]
    elif isinstance(payload, Sample):
        table = ["value", *(f"{v:g}" for v in payload.values)]
    else:
        table = ["value", *(f"{e}" for e in payload.entries)]
    rep.lines += table
    rep.csv_rows += ["", *table]
    return rep


# ---------------------------------------------------------------------------
# parser

# Options that several subcommands take, each declared once.
SHARED = {
    "--fixture": dict(help="built-in dataset name"),
    "--data": dict(help="CSV file (header row, UTF-8)"),
    "--value-column": dict(default="value"),
    "--group-column": dict(help="read (value, group) rows; omit for ungrouped data"),
    "--n": dict(type=int, default=DEFAULT_REPLICATES,
                help=f"number of resamples (default {DEFAULT_REPLICATES})"),
    "--seed": dict(type=int, help="default 0, or RESAMPLE_SEED"),
    "--level": dict(type=finite_number, default=0.95),
    "--out": dict(help="write the histogram CSV to this file"),
}
INPUT = ("--fixture", "--data", "--value-column")
# Options whose number or LOW,HIGH value may begin with a minus sign.  argparse
# reads "-2.1,5.3" or "-2.5e-3" as an option name, so ``main`` attaches such
# a value with "=".
SIGNED = ("--ci", "--bounds", "--estimate", "--null", "--threshold")
# Namespace entries that are no manifest options: the seed and the input have
# manifest lines of their own, and the rest are the parser's bookkeeping.
NOT_OPTIONS = {"seed", "fixture", "data", "command", "func", "replicates_option", "reports_interval"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resamplekit",
        allow_abbrev=False,
        description=(
            "Deterministic resampling inference: shuffle tests, bootstrap "
            "confidence distributions, probability calibration and exact Bayes. "
            "Default seed is 0 (or RESAMPLE_SEED); every report echoes the seed "
            "that produced it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help, *shared, replicates=None, interval=False):
        """Adds a subcommand with --format and the ``shared`` options, whose
        replicate count is the option ``replicates`` and whose report prints
        a percentile interval if ``interval``; returns its ``add_argument``
        for the options of its own."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        for option in shared:
            sp.add_argument(option, **SHARED[option])
        sp.add_argument("--format", choices=("text", "csv"), default="text")
        sp.set_defaults(func=handler, replicates_option=replicates, reports_interval=interval)
        return sp.add_argument

    add = subcommand(
        "shuffle-test", _cmd_shuffle_test, "re-deal values between groups to test 'no difference'",
        *INPUT, "--group-column", "--n", "--seed", "--out", replicates="n",
    )
    add("--x-column", default="x", help="for --stat correlation")
    add("--y-column", default="y", help="for --stat correlation")
    add("--stat", choices=(*GROUP_STATS, STAT_CORRELATION), default=STAT_MEAN_DIFF)
    add("--sidedness", choices=SIDEDNESS, default=SIDEDNESS[0])
    add("--bin-width", type=float,
        help=f"histogram bin width (default {DEFAULT_BIN_WIDTH:g}, "
        f"or {CORRELATION_BIN_WIDTH:g} for correlation)")
    add("--exact", action="store_true", help="enumerate every group assignment instead of sampling")

    add = subcommand(
        "bootstrap", _cmd_bootstrap, "resample rows with replacement for a confidence distribution",
        *INPUT, "--group-column", "--n", "--seed", "--level", "--out", replicates="n", interval=True,
    )
    add("--stat", choices=(STAT_MEAN, *GROUP_STATS))
    add("--threshold", type=finite_number, action="append", default=[],
        help="report the tail probability at this value (repeatable)")
    add("--tail-direction", choices=TAIL_DIRECTIONS, default=TAIL_DIRECTIONS[0])
    add("--bounds", help="measurement scale LOW,HIGH for diagnostics")
    add("--bin-width", type=float, default=DEFAULT_BIN_WIDTH)

    add = subcommand("clip", _cmd_clip, "probabilities for a quantity from a published CI or p-value", "--level")
    add("--ci", help="confidence interval LOW,HIGH")
    add("--p", type=finite_number, help="two-sided p-value")
    add("--estimate", type=finite_number)
    add("--null", type=finite_number, default=0.0,
        help="baseline value the p-value tested against (0 differences, 1 ratios)")
    add("--family", choices=FAMILIES, default=FAMILIES[0])
    add("--df", type=int)
    add("--log-scale", action="store_true")
    add("--query", action="append", default=[],
        help="'gt X' | 'lt X' | 'between X1,X2' | 'outside X1,X2' (repeatable)")
    add("--two-by-two", help="EVENTS1,NONEVENTS1,EVENTS2,NONEVENTS2: print odds and risk ratios")

    add = subcommand("bayes", _cmd_bayes, "exact-rational posterior over discrete hypotheses")
    add("--hypothesis", action="append", default=[],
        help="NAME:PRIOR:LIKELIHOOD, e.g. telepathy:1/4:1 (repeatable)")
    add("--worlds", action="store_true", help="print the possible-worlds grid")
    add("--update", action="append", default=[],
        help="likelihoods L1,L2,... for another round of evidence (repeatable)")
    add("--two-stage", help="P1,P2_GIVEN_1,P2_GIVEN_NOT_1: joint outcomes of two events")

    add = subcommand(
        "montecarlo", _cmd_montecarlo, "simulate repeated Bernoulli trials and compare to exact",
        "--seed", replicates="runs",
    )
    add("--trials", type=int, required=True)
    add("--prob", default="1/2", help="success probability ('1/2', '0.5', '50%%')")
    add("--event", choices=EVENTS, default=EVENTS[0])
    add("--count", type=int, required=True)
    add("--runs", type=int, default=1000)

    add = subcommand(
        "poll", _cmd_poll, "simulate opinion polls from a 0/1 population",
        *INPUT, "--seed", "--level", replicates="polls", interval=True,
    )
    add("--sample-size", type=int, required=True)
    add("--mode", choices=("with", "without"), default="without")
    add("--polls", type=int, default=1000)

    add = subcommand("fixtures", _cmd_fixtures, "list or dump the built-in datasets")
    add("--name")

    return parser


def _attach_signed(argv: list[str]) -> list[str]:
    """``argv`` with each ``SIGNED`` option joined to a following value that
    begins with "-" and a digit or "."."""
    out = []
    for token in argv:
        if out and out[-1] in SIGNED and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        seed = _seed(args) if "seed" in args else None
        replicates = None
        if args.replicates_option:
            replicates = getattr(args, args.replicates_option)
            check_count(f"--{args.replicates_option}", replicates, args.reports_interval)
        options = " ".join(
            f"{key.replace('_', '-')}={_text(value, repr)}"
            for key, value in sorted(vars(args).items()) if key not in NOT_OPTIONS
        )
        rep = args.func(args, Report(args.command, options, seed, replicates))
        print(rep.emit(args.format, getattr(args, "out", None)), flush=True)
    except BrokenPipeError:
        # The reader of stdout has gone; point stdout at devnull so that the
        # flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
