"""Every argv and every data file gives a report or a clean refusal: exit
code 0, 1 or 2, and never a traceback or a warning on stderr.

Argument lists are built from each subcommand's options with ordinary and
hostile values (nan, infinities, negatives, zero, 1e-300, 2**64, malformed
fractions).  Data files are CSV texts of 1-40 rows whose columns draw from
hostile pools (values near the largest double, subnormals, 1e-300 beside
1e300, constant and 0/1 columns, exact ties), with and without group, x and
y columns, a byte-order mark and blank lines; every subcommand that takes
--data reads them.  Replicate counts stay at 50 or less, so every run is
small.
"""

import math
import re
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from resamplekit.cli import main

HOSTILE = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e400", "1/0", "2/", "1/2/3", "x", "")
BIG = (str(2**64), "1e300")
count = st.sampled_from(HOSTILE + ("1", "2", "7", "50"))  # never above 50
number = st.sampled_from(HOSTILE + BIG + ("0.5", "2", "50", "-3.5"))
probability = st.sampled_from(HOSTILE + BIG + ("1/2", "0.5", "50%", "1/3", "3/2", "0/1"))
pair = st.builds("{},{}".format, number, number) | number
flag = None


def choice(*values):
    return st.sampled_from(values)


SUBCOMMANDS = {
    "shuffle-test": (["--fixture=veg6"], {
        "--fixture": choice("veg6", "veg9", "poll500", "nope"),
        "--stat": choice("mean-diff", "proportion-diff", "correlation"),
        "--n": count,
        "--seed": number,
        "--sidedness": choice("two-sided", "greater", "less"),
        "--bin-width": number,
        "--exact": flag,
    }),
    "bootstrap": (["--fixture=veg9", "--n=50"], {
        "--fixture": choice("veg6", "veg9", "skewed9", "poll500", "nope"),
        "--stat": choice("mean", "mean-diff", "proportion-diff"),
        "--n": count,
        "--seed": number,
        "--level": number,
        "--threshold": number,
        "--tail-direction": choice("ge", "gt"),
        "--bounds": pair,
        "--bin-width": number,
    }),
    "clip": (["--ci=49,72"], {
        "--ci": pair,
        "--level": number,
        "--p": number,
        "--estimate": number,
        "--null": number,
        "--family": choice("normal", "t"),
        "--df": count,
        "--log-scale": flag,
        "--query": st.builds(
            "{} {}".format, choice("gt", "lt", "between", "outside", "near"), pair
        ),
        "--two-by-two": st.builds("{},{},{},{}".format, count, count, count, count),
    }),
    "bayes": (["--hypothesis=a:1/2:1/3"], {
        "--hypothesis": st.builds(
            "{}:{}:{}".format, choice("a", "b", ""), probability, probability
        ),
        "--worlds": flag,
        "--update": st.builds("{},{}".format, probability, probability),
        "--two-stage": st.builds("{},{},{}".format, probability, probability, probability),
    }),
    "montecarlo": (["--trials=8", "--count=3", "--runs=50"], {
        "--trials": count,
        "--prob": probability,
        "--event": choice("exactly", "at-least", "at-most"),
        "--count": count,
        "--runs": count,
        "--seed": number,
    }),
    "poll": (["--fixture=poll500", "--sample-size=20", "--polls=50"], {
        "--fixture": choice("poll500", "veg9", "nope"),
        "--sample-size": count,
        "--mode": choice("with", "without"),
        "--polls": count,
        "--seed": number,
        "--level": number,
    }),
    "fixtures": ([], {"--name": choice("veg9", "veg6", "poll500", "nope")}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv, options = SUBCOMMANDS[command]
    argv = [command, *argv]
    for option in draw(st.lists(st.sampled_from(sorted(options)), max_size=4)):
        values = options[option]
        argv.append(option if values is None else f"{option}={draw(values)}")
    if draw(st.booleans()):
        argv.append(f"--format={draw(choice('text', 'csv'))}")
    return argv, draw(st.booleans())


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argvs())
@example((["bootstrap", "--fixture=veg9", "--n=50", "--bin-width=1e-300"], True))
@example((["clip", "--ci=49,72", "--level=1e-300"], False))
def test_every_argv_gives_a_report_or_a_clean_refusal(capsys, tmp_path, case):
    argv, to_file = case
    if to_file and argv[0] in ("shuffle-test", "bootstrap"):  # the subcommands with --out
        argv = [*argv, f"--out={tmp_path / 'histogram.csv'}"]
    _run_cleanly(capsys, argv)


def _run_cleanly(capsys, argv):
    """``main(argv)``'s exit code, stdout and stderr, once checked: exit code
    0, 1 or 2, and no traceback or warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    return code, out, err


# ---------------------------------------------------------------------------
# hostile data

# Each numeric column draws its cells from one pool: a pool of one value is a
# constant column, and a small pool gives exact ties.
VALUE_POOLS = (
    ("1.7e308", "-1.7e308", "1"),
    ("5e-324", "-5e-324", "2.2250738585072014e-308", "0"),
    ("1e-300", "1e300"),
    ("1e-300", "1e300", "-1e300", "3"),
    ("0", "1"),
    ("0", "1", "1"),
    ("1",),
    ("2.5",),
    ("-0.0", "0.0"),
    ("1", "2", "2", "3"),
    ("0.1", "0.2", "0.3", "-7", "1e15"),
)
# A group column of two labels (most often), of three, or none.
GROUP_COLUMNS = (("a", "b"), ("a", "b"), ("a", "b"), None, ("a", "b", "c"))
# The subcommands that read --data, each with the options that pick its
# reading of the file.
DATA_COMMANDS = (
    ("bootstrap",),
    ("bootstrap", "--group-column=group"),
    ("shuffle-test", "--group-column=group"),
    ("shuffle-test", "--group-column=group", "--exact"),
    ("shuffle-test", "--stat=correlation"),
    ("poll", "--mode=with"),
    ("poll", "--mode=without"),
)


@st.composite
def data_files(draw):
    """The text of a CSV file of 1-40 rows: a value column, and a group
    column, x and y columns, a byte-order mark and blank lines or not."""
    n = draw(st.integers(1, 40))

    def column(pool):
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    columns = {"value": column(draw(st.sampled_from(VALUE_POOLS)))}
    labels = draw(st.sampled_from(GROUP_COLUMNS))
    if labels == ("a", "b"):  # k rows in group a: 0 and n give one group, 1 and n - 1 a lone row
        k = draw(st.integers(0, n))
        columns["group"] = draw(st.permutations(["a"] * k + ["b"] * (n - k)))
    elif labels:
        columns["group"] = column(labels)
    for name in draw(st.sampled_from(((), ("x", "y"), ("x", "y"), ("y",)))):
        columns[name] = column(draw(st.sampled_from(VALUE_POOLS)))
    lines = [",".join(columns), *map(",".join, zip(*columns.values()))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return ("\ufeff" if draw(st.booleans()) else "") + "\n".join(lines) + "\n"


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data_files(), st.sampled_from(DATA_COMMANDS), st.sampled_from((50, 9, 2, 1)),
    st.sampled_from((10, 3, 45, 1)), st.sampled_from((None, "1e299")), st.sampled_from(("csv", "text")),
)
def test_every_data_file_gives_a_report_or_a_clean_refusal(capsys, tmp_path, text, command, count, size,
                                                          bin_width, fmt):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    if command[0] == "poll":
        options = [f"--polls={count}", f"--sample-size={size}"]
    else:  # a bin width wide enough for values near 1e300, or the default
        options = [f"--n={count}", *([f"--bin-width={bin_width}"] if bin_width else [])]
    code, out, err = _run_cleanly(capsys, [*command, f"--data={path}", *options, f"--format={fmt}"])
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 0 and fmt == "csv":
        for field in re.split("[,\n]", out):
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), out
