"""Every argv gives a report or a clean refusal: exit code 0, 1 or 2, and
never a traceback or a warning on stderr.

Argument lists are built from each subcommand's options with ordinary and
hostile values (nan, infinities, negatives, zero, 1e-300, 2**64, malformed
fractions).  Replicate counts stay at 50 or less, so every run is small.
"""

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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
