"""CLI surface: subcommands, manifests, formats, exit codes, reproducibility."""

import hashlib
import math
import os
import resource
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import resamplekit
from resamplekit import spec
from resamplekit.cli import build_parser, main
from resamplekit.resampling import observed_statistic
from resamplekit.spec import MAX_REPLICATES, MAX_TABLE_BYTES, MAX_WORK

SUBCOMMANDS = ("shuffle-test", "bootstrap", "clip", "bayes", "montecarlo", "poll", "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shuffle_test_exact_veg6(capsys):
    code, out, err = run(capsys, "shuffle-test", "--fixture", "veg6", "--stat", "mean-diff", "--exact")
    assert code == 0 and err == ""
    assert "0.3 = 3/10" in out
    assert "6 of all 20 group assignments" in out
    assert "observed mean-diff: 21.3333" in out


def test_shuffle_test_exact_counts_millions_of_splits(capsys, tmp_path):
    # C(24, 12) = 2,704,156 group assignments; only the observed split and
    # its mirror image are as extreme as twelve 0.3s against twelve 0.1s.
    path = tmp_path / "data.csv"
    path.write_text("value,group\n" + "0.3,a\n" * 12 + "0.1,b\n" * 12)
    code, out, err = run(
        capsys, "shuffle-test", "--data", str(path), "--group-column", "group", "--exact"
    )
    assert code == 0 and err == ""
    assert " = 1/1352078\n" in out
    assert "2 of all 2704156 group assignments" in out


def test_shuffle_test_monte_carlo_matches_exact(capsys):
    code, out, _ = run(
        capsys, "shuffle-test", "--fixture", "veg6", "--n", "100000", "--seed", "0"
    )
    assert code == 0
    assert "21.3333" in out  # observed difference, first group minus second
    line = next(l for l in out.splitlines() if "p value" in l)
    p = float(line.rsplit(":", 1)[1])
    assert abs(p - 0.30) < 0.005
    assert "seed 0" in out
    assert "histogram (bin width 2)" in out


def test_reports_are_byte_identical(capsys):
    args = ("bootstrap", "--fixture", "veg9", "--threshold", "50", "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_manifest_embedded(capsys):
    _, out, _ = run(capsys, "bootstrap", "--fixture", "veg9", "--seed", "3", "--n", "200")
    assert "run manifest:" in out
    assert "command: bootstrap" in out
    assert "seed: 3" in out
    assert "replicates: 200" in out
    assert "input: fixture:veg9" in out
    assert "version: 0.1.0" in out


def _manifest(out: str) -> dict:
    """The run manifest of a text or csv report, as {key: value}."""
    if "\nrun manifest:\n" in out:
        lines = out.split("\nrun manifest:\n", 1)[1].splitlines()
        return dict(line.strip().split(": ", 1) for line in lines)
    return dict(row.split(",", 1) for row in out.splitlines()[:6])


COLUMNS_CSV = "a,b,c,g,h\n1,9,2,u,u\n5,3,4,u,v\n7,4,9,u,u\n3,8,1,v,v\n4,1,6,v,u\n6,2,5,v,v\n"

# Pairs of runs that share an argv and differ in one option the report may depend on.
ONE_OPTION_APART = [
    ("bootstrap --data cols.csv --n 50", "--value-column a", "--value-column b"),
    ("bootstrap --data cols.csv --n 50 --value-column a", "--group-column g", "--group-column h"),
    ("shuffle-test --data cols.csv --stat correlation --n 50 --y-column c", "--x-column a", "--x-column b"),
    ("shuffle-test --data cols.csv --stat correlation --n 50 --x-column a", "--y-column b", "--y-column c"),
    ("bootstrap --fixture veg9 --n 50", "--threshold 50", "--threshold 50.0000001"),
    ("clip --ci 49,72", "--query 'gt 50'", "--query 'gt 60'"),
    ("bootstrap --fixture veg9 --n 50", "--bin-width 2", "--bin-width 2.0000001"),
    ("shuffle-test --fixture veg6 --n 50", "--out h1.csv", "--out h2.csv"),
    ("clip --ci 49,72", "--format text", "--format csv"),
]


@pytest.mark.parametrize("common, first, second", ONE_OPTION_APART, ids=lambda text: text)
def test_runs_one_option_apart_print_different_manifests(capsys, monkeypatch, tmp_path, common, first, second):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cols.csv").write_text(COLUMNS_CSV)
    manifests = []
    for option in (first, second):
        code, out, err = run(capsys, *shlex.split(f"{common} {option}"))
        assert code == 0 and err == "", (option, err)
        manifests.append(_manifest(out))
    assert manifests[0] != manifests[1]


# A short argv that each subcommand answers with a report.
REPORTING_ARGVS = {
    "shuffle-test": ("--fixture", "veg6", "--n", "20"),
    "bootstrap": ("--fixture", "veg9", "--n", "20"),
    "clip": ("--ci", "49,72"),
    "bayes": ("--hypothesis", "a:1/2:1/3", "--hypothesis", "b:1/2:1"),
    "montecarlo": ("--trials", "8", "--count", "3", "--runs", "20"),
    "poll": ("--fixture", "poll500", "--sample-size", "5", "--polls", "20"),
    "fixtures": (),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_the_manifest_records_every_option_the_subcommand_declares(capsys, command):
    subparsers = next(action for action in build_parser()._actions if action.dest == "command")
    declared = {
        name[2:] for action in subparsers.choices[command]._actions
        for name in action.option_strings if name.startswith("--")
    }
    code, out, _ = run(capsys, command, *REPORTING_ARGVS[command])
    recorded = {item.split("=", 1)[0] for item in _manifest(out)["options"].split()}
    assert code == 0 and recorded == declared - {"seed", "fixture", "data", "help"}


def test_file_input_digest_in_manifest(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("value\n1\n2\n3\n4\n")
    _, out, _ = run(capsys, "bootstrap", "--data", str(path), "--n", "50")
    assert "sha256:" in out


def test_env_seed_default_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("RESAMPLE_SEED", "11")
    _, out, _ = run(capsys, "bootstrap", "--fixture", "veg9", "--n", "50")
    assert "seed: 11" in out
    _, out, _ = run(capsys, "bootstrap", "--fixture", "veg9", "--n", "50", "--seed", "4")
    assert "seed: 4" in out


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("RESAMPLE_SEED", "lots")
    code, _, err = run(capsys, "bootstrap", "--fixture", "veg9")
    assert code == 1
    assert "RESAMPLE_SEED" in err


def test_csv_format(capsys):
    _, out, _ = run(
        capsys, "bootstrap", "--fixture", "veg9", "--threshold", "50",
        "--seed", "0", "--format", "csv",
    )
    lines = out.splitlines()
    assert "command,bootstrap" in lines
    assert any(line.startswith("interval_low,") for line in lines)
    assert "bin_center,count" in lines


def test_histogram_out_file(capsys, tmp_path):
    target = tmp_path / "hist.csv"
    _, out, _ = run(
        capsys, "bootstrap", "--fixture", "veg9", "--seed", "0", "--out", str(target)
    )
    content = target.read_text()
    assert content.startswith("bin_center,count\n")
    assert "histogram (bin width" not in out  # written to the file instead


def test_clip_interval_query(capsys):
    code, out, _ = run(capsys, "clip", "--ci", "49,72", "--query", "gt 50")
    assert code == 0
    line = next(l for l in out.splitlines() if "gt 50" in l)
    assert abs(float(line.rsplit(":", 1)[1]) - 0.96) < 0.005


def test_clip_p_route(capsys):
    _, out, _ = run(
        capsys, "clip", "--p", "0.04", "--estimate", "0.88", "--null", "1",
        "--query", "lt 1",
    )
    line = next(l for l in out.splitlines() if "lt 1" in l)
    assert abs(float(line.rsplit(":", 1)[1]) - 0.98) < 0.01


def test_clip_t_family(capsys):
    _, out, _ = run(
        capsys, "clip", "--ci", "49,72", "--family", "t", "--df", "8",
        "--query", "gt 50",
    )
    line = next(l for l in out.splitlines() if "gt 50" in l)
    assert abs(float(line.rsplit(":", 1)[1]) - 0.966) < 0.005


def test_clip_two_by_two(capsys):
    _, out, _ = run(capsys, "clip", "--two-by-two", "4,6,8,2")
    assert "odds ratio: 0.166667" in out
    assert "risk ratio: 0.5" in out


def test_clip_requires_a_source(capsys):
    code, _, err = run(capsys, "clip", "--query", "gt 0")
    assert code == 1
    assert "either --ci" in err


def test_bayes_posterior_and_worlds(capsys):
    code, out, _ = run(
        capsys, "bayes",
        "--hypothesis", "guessing:3/4:1/50",
        "--hypothesis", "telepathy:1/4:1",
        "--worlds",
    )
    assert code == 0
    assert "200 equally likely worlds" in out
    assert "telepathy: 50/53" in out


def test_bayes_sequential_update(capsys):
    _, out, _ = run(
        capsys, "bayes",
        "--hypothesis", "guessing:3/4:1/50",
        "--hypothesis", "telepathy:1/4:1",
        "--update", "1/50,1",
    )
    assert "telepathy: 2500/2503" in out


def test_bayes_two_stage(capsys):
    _, out, _ = run(capsys, "bayes", "--two-stage", "1/10,9/10,5/10")
    assert "both: 9/100" in out


def test_bayes_needs_hypotheses(capsys):
    code, _, err = run(capsys, "bayes")
    assert code == 1
    assert "--hypothesis" in err


def test_bayes_malformed_hypothesis(capsys):
    code, _, err = run(capsys, "bayes", "--hypothesis", "oops:1/2")
    assert code == 1
    assert "NAME:PRIOR:LIKELIHOOD" in err


def test_montecarlo(capsys):
    code, out, _ = run(
        capsys, "montecarlo", "--trials", "8", "--prob", "1/2",
        "--event", "exactly", "--count", "4", "--runs", "1000", "--seed", "0",
    )
    assert code == 0
    assert "exact probability: 35/128" in out
    line = next(l for l in out.splitlines() if "simulated probability" in l)
    assert abs(float(line.rsplit(":", 1)[1]) - 70 / 256) < 0.04


def test_poll(capsys):
    code, out, _ = run(
        capsys, "poll", "--fixture", "poll500", "--sample-size", "20",
        "--polls", "1000", "--seed", "0",
    )
    assert code == 0
    line = next(l for l in out.splitlines() if "fell between" in l)
    assert "0.4 and 0.8" in line


def test_poll_rejects_non_binary_file(capsys, tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("value\n1\n2\n")
    code, _, err = run(capsys, "poll", "--data", str(path), "--sample-size", "1")
    assert code == 1
    assert "0 or 1" in err


def test_fixtures_listing_and_dump(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    for name in ("veg9", "skewed9", "veg6", "poll500"):
        assert name in out
    code, out, _ = run(capsys, "fixtures", "--name", "veg6")
    assert code == 0
    assert "74,Vegetarian" in out


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["bootstrap", "--no-such-flag"]) == 2


def test_data_error_exit_code(capsys):
    code, _, err = run(capsys, "bootstrap", "--data", "/does/not/exist.csv")
    assert code == 1
    assert "error:" in err


def test_missing_input_is_data_error(capsys):
    code, _, err = run(capsys, "bootstrap")
    assert code == 1
    assert "--fixture" in err


def test_correlation_via_csv(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n1,1\n2,2\n3,3\n4,4\n5,5\n")
    code, out, _ = run(
        capsys, "shuffle-test", "--data", str(path), "--stat", "correlation",
        "--x-column", "x", "--y-column", "y", "--n", "2000", "--seed", "0",
    )
    assert code == 0
    assert "observed correlation" in out
    line = next(l for l in out.splitlines() if "p value" in l)
    assert float(line.rsplit(":", 1)[1]) < 0.05


def _one_error_line(code, out, err):
    return code == 1 and out == "" and len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_non_finite_bin_width_is_refused_before_drawing(capsys, monkeypatch):
    from resamplekit import resampling

    def no_draws(*args, **kwargs):
        raise AssertionError("replicates drawn for an invalid bin width")

    monkeypatch.setattr(resampling, "bootstrap_report", no_draws)
    monkeypatch.setattr(resampling, "shuffle_test", no_draws)
    for width in ("nan", "inf", "0", "-2"):
        result = run(capsys, "bootstrap", "--fixture", "veg9", f"--bin-width={width}")
        assert _one_error_line(*result), (width, result)
        assert "bin width" in result[2]
        result = run(capsys, "shuffle-test", "--fixture", "veg6", f"--bin-width={width}")
        assert _one_error_line(*result), (width, result)


def test_zero_denominator_probability_is_a_clean_error(capsys):
    result = run(capsys, "montecarlo", "--trials", "8", "--prob", "1/0", "--count", "4")
    assert _one_error_line(*result)
    assert "1/0" in result[2]


def test_seeds_outside_64_bits_are_refused(capsys, monkeypatch):
    seeded = (
        ("shuffle-test", "--fixture", "veg6", "--n", "20"),
        ("bootstrap", "--fixture", "veg9", "--n", "20"),
        ("montecarlo", "--trials", "2", "--count", "1", "--runs", "20"),
        ("poll", "--fixture", "poll500", "--sample-size", "5", "--polls", "20"),
    )
    for argv in seeded:
        for bad in (str(1 << 64), "-1"):
            result = run(capsys, *argv, f"--seed={bad}")
            assert _one_error_line(*result), (argv, bad, result)
            assert "--seed" in result[2]
        code, out, _ = run(capsys, *argv, "--seed", str((1 << 64) - 1))
        assert code == 0 and f"seed: {(1 << 64) - 1}" in out
        monkeypatch.setenv("RESAMPLE_SEED", str(1 << 64))
        result = run(capsys, *argv)
        assert _one_error_line(*result) and "RESAMPLE_SEED" in result[2]
        monkeypatch.delenv("RESAMPLE_SEED")


def test_bin_count_is_capped_with_a_width_that_fits(capsys):
    argv = ("bootstrap", "--fixture", "veg9", "--n", "20")
    for width in ("1e-300", "0.001"):
        result = run(capsys, *argv, f"--bin-width={width}")
        assert _one_error_line(*result), (width, result)
        fit = result[2].split()[-1]
        code, out, err = run(capsys, *argv, f"--bin-width={fit}")
        assert code == 0 and err == "" and f"bin width {fit}" in out


def test_non_finite_option_values_are_usage_errors(capsys):
    cases = (
        ("--threshold", ("bootstrap", "--fixture", "veg9", "--n", "20", "--threshold", "nan")),
        ("--level", ("bootstrap", "--fixture", "veg9", "--n", "20", "--level", "nan")),
        ("--p", ("clip", "--p", "nan", "--estimate", "1")),
        ("--estimate", ("clip", "--p", "0.05", "--estimate", "inf")),
        ("--null", ("clip", "--p", "0.05", "--estimate", "1", "--null", "-inf")),
        ("--level", ("poll", "--fixture", "poll500", "--sample-size", "5", "--level", "1e400")),
    )
    for option, argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"argument {option}:" in err and "Traceback" not in err, argv


def test_non_finite_interval_ends_are_refused(capsys):
    result = run(capsys, "clip", "--ci", "1,inf")
    assert _one_error_line(*result) and "--ci" in result[2]
    result = run(capsys, "bootstrap", "--fixture", "veg9", "--n", "20", "--bounds", "0,nan")
    assert _one_error_line(*result) and "--bounds" in result[2]


def test_non_finite_query_arguments_are_refused(capsys):
    result = run(capsys, "clip", "--ci", "1,2", "--query", "gt nan")
    assert _one_error_line(*result) and "gt nan" in result[2]


def test_two_by_two_names_the_option_for_fractional_counts(capsys):
    result = run(capsys, "clip", "--two-by-two", "1.5,2,3,4")
    assert _one_error_line(*result)
    assert "--two-by-two" in result[2] and "invalid literal" not in result[2]


def _digest(out):
    return next(l for l in out.splitlines() if "input:" in l).rsplit("sha256:", 1)[1]


def test_file_digest_is_the_sha256_of_the_file_bytes(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"value\r\n1\r\n2\r\n3\r\n4\r\n")
    _, out, _ = run(capsys, "bootstrap", "--data", str(path), "--n", "50")
    assert _digest(out) == hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_env() -> dict:
    """The environment for a ``python -m resamplekit.cli`` child process that
    imports this checkout's package."""
    src = str(Path(resamplekit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_piped_data_digest_is_the_sha256_of_the_piped_bytes():
    piped = b"value\n1\n5\n7\n3\n"
    proc = subprocess.run(
        [sys.executable, "-m", "resamplekit.cli", "bootstrap", "--data", "/dev/stdin", "--n", "50"],
        input=piped, capture_output=True, env=_cli_env(), check=True,
    )
    out = proc.stdout.decode()
    assert "observed mean: 4" in out
    assert _digest(out) == hashlib.sha256(piped).hexdigest()


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_stdout_exits_1_with_nothing_on_stderr(unbuffered):
    # Buffered stdout fails only when it is flushed, unbuffered at the print.
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "resamplekit.cli", "bootstrap", "--fixture", "veg9"],
            stdout=w, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_poll_refuses_fractional_entries_with_the_population_message(capsys, tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("value\n1\n0.5\n0\n")
    result = run(capsys, "poll", "--data", str(path), "--sample-size", "1")
    assert _one_error_line(*result)
    assert result[2] == "error: population entries must be 0 or 1, got 0.5\n"
    result = run(capsys, "poll", "--fixture", "veg9", "--sample-size", "1")
    assert _one_error_line(*result) and "not a 0/1 population" in result[2]


def test_tiny_success_probability_is_a_short_error_naming_the_limit(capsys):
    result = run(capsys, "montecarlo", "--trials", "8", "--count", "3", "--prob", "1e-300", "--runs", "20")
    assert _one_error_line(*result)
    assert "2**63" in result[2] and "below()" not in result[2] and len(result[2]) < 100


def test_tiny_p_value_is_refused_by_name(capsys):
    result = run(capsys, "clip", "--p", "1e-300", "--estimate", "1")
    assert _one_error_line(*result)
    assert "p-value 1e-300" in result[2] and "quantile" not in result[2]


def test_a_level_too_close_to_1_is_refused_by_name(capsys):
    result = run(capsys, "clip", "--ci", "49,72", "--level", "0.9999999999999999")
    assert _one_error_line(*result)
    assert "level 0.9999999999999999" in result[2] and "quantile" not in result[2]


HUGE = str(2**64)


@pytest.mark.parametrize("argv, option", [
    (("shuffle-test", "--fixture", "veg6", "--n", HUGE), "--n"),
    (("bootstrap", "--fixture", "veg9", "--n", HUGE), "--n"),
    (("montecarlo", "--trials", HUGE, "--count", "1"), "--trials"),
    (("montecarlo", "--trials", "8", "--count", "1", "--runs", HUGE), "--runs"),
    (("poll", "--fixture", "poll500", "--sample-size", "5", "--polls", HUGE), "--polls"),
    (("poll", "--fixture", "poll500", "--sample-size", HUGE, "--mode", "with"), "--sample-size"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_counts_above_the_replicate_limit_are_refused_before_drawing(capsys, monkeypatch, argv, option):
    from resamplekit import rng

    def no_draws(*args):
        raise AssertionError("replicates drawn for a count above the limit")

    monkeypatch.setattr(rng, "run_chunks", no_draws)
    result = run(capsys, *argv)
    assert _one_error_line(*result)
    assert result[2] == f"error: {option} must be at most {MAX_REPLICATES}, got {HUGE}\n"


@pytest.mark.parametrize("argv, work", [
    (("montecarlo", "--trials", "100000000", "--count", "4", "--runs", "100000000"), "100000000 replicates x 100000000"),
    (("poll", "--fixture", "poll500", "--sample-size", "100000000", "--polls", "100000000", "--mode", "with"),
     "100000000 replicates x 100000000"),
], ids=["montecarlo", "poll-with"])
def test_runs_above_the_work_cap_exit_with_one_error_line(argv, work):
    # Each count is within MAX_REPLICATES, but their product would take
    # years; both counts are in the argv, so the run is refused before numpy
    # is imported, and a child process that has not refused within 10 s
    # fails here.
    proc = _numpy_free_run(argv, timeout=10)
    assert _one_error_line(proc.returncode, "", proc.stderr) and proc.stdout == "False\n", proc.stderr
    assert f"{work} values each is 10000000000000000 lane-values" in proc.stderr
    assert f"above the cap of {MAX_WORK}" in proc.stderr


@pytest.mark.parametrize("argv, work", [
    (("bootstrap", "--data", "rows.csv", "--n", "100000000"), "100000000 replicates x 200 values each is 20000000000"),
    (("shuffle-test", "--data", "rows.csv", "--group-column", "group", "--n", "100000000"),
     "100000000 replicates x 200 values each is 20000000000"),
    (("poll", "--fixture", "poll500", "--sample-size", "20", "--polls", "100000000"),
     "100000000 replicates x 500 values each is 50000000000"),
], ids=["bootstrap", "shuffle-test", "poll-without"])
def test_runs_whose_width_is_the_inputs_rows_are_refused_before_numpy_is_imported(tmp_path, argv, work):
    # The width of these runs is the rows of the input, known only once it
    # loads, and the refusal still comes before numpy is imported.
    (tmp_path / "rows.csv").write_text("value,group\n" + "".join(f"{i % 7},{'ab'[i % 2]}\n" for i in range(200)))
    argv = [str(tmp_path / arg) if arg == "rows.csv" else arg for arg in argv]
    proc = _numpy_free_run(argv, timeout=10)
    assert _one_error_line(proc.returncode, "", proc.stderr) and proc.stdout == "False\n", proc.stderr
    assert f"error: a run of {work} lane-values, above the cap of {MAX_WORK}\n" == proc.stderr


@pytest.mark.parametrize("argv, message", [
    (("montecarlo", "--trials", "8", "--count", "9"), "event count must be in [0, 8], got 9"),
    (("montecarlo", "--trials", "8", "--count", "4", "--prob", "1/9223372036854775808"),
     "success probability needs a denominator below 2**63 to be sampled exactly"),
], ids=["count", "prob"])
def test_a_bernoulli_experiment_is_refused_before_numpy_is_imported(argv, message):
    # The experiment checks itself as it is built, in spec, and the command
    # line builds it before it imports simulate.
    proc = _numpy_free_run(argv, timeout=10)
    assert (proc.returncode, proc.stderr, proc.stdout) == (1, f"error: {message}\n", "False\n")


def test_byte_order_mark_is_skipped_and_the_digest_covers_it(capsys, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfvalue\r\n1\r\n5\r\n7\r\n3\r\n")
    code, out, err = run(capsys, "bootstrap", "--data", str(path), "--n", "50")
    assert code == 0 and err == ""
    assert "observed mean: 4" in out
    assert _digest(out) == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"value\n1\n\xff\n", "not UTF-8 text at byte offset 8 (invalid start byte)"),
        (b"\xef\xbb\xbfvalue\n1\n\xff\n", "not UTF-8 text at byte offset 11"),
        (b"value\n1\n\n" + b"7" * 140_000 + b"\n", "row 2: field larger than field limit"),
        (b"value" + b"x" * 140_000 + b"\n1\n", "header: field larger than field limit"),
    ],
    ids=["not-utf8", "not-utf8-after-mark", "long-cell", "long-header-cell"],
)
def test_unreadable_data_files_are_one_error_line_naming_the_file(capsys, tmp_path, content, message):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    for argv in (("bootstrap", "--data", str(path)), ("poll", "--data", str(path), "--sample-size", "1")):
        code, out, err = run(capsys, *argv)
        assert _one_error_line(code, out, err) and "Traceback" not in err
        assert err.startswith(f"error: {path}: ") and message in err


def test_far_normal_tails_are_printed_with_their_own_digits(capsys):
    code, out, _ = run(capsys, "clip", "--ci", "49,72", "--query", "lt 14")
    assert code == 0 and "theta lt 14: 1.14007e-15\n" in out
    for query in ("lt 10", "gt 111"):
        code, out, _ = run(capsys, "clip", "--ci", "49,72", "--query", query)
        assert code == 0 and f"theta {query}: 3.75647e-18\n" in out


@pytest.mark.parametrize(
    "argv", [(), *((command,) for command in SUBCOMMANDS)], ids=lambda argv: " ".join(argv) or "program"
)
def test_help_prints_a_usage_line(capsys, argv):
    code, out, err = run(capsys, *argv, "--help")
    assert code == 0 and err == ""
    assert out.startswith(" ".join(("usage: resamplekit", *argv)))


@pytest.mark.parametrize(
    "argv",
    [
        ("clip", "--ci", "49,72"),
        ("bayes", "--two-stage", "1/10,9/10,5/10"),
        ("montecarlo", "--trials", "8", "--count", "4", "--runs", "20"),
        ("poll", "--fixture", "poll500", "--sample-size", "5", "--polls", "20"),
        ("fixtures",),
    ],
    ids=lambda argv: argv[0],
)
def test_out_is_a_usage_error_where_there_is_no_histogram(capsys, tmp_path, argv):
    target = tmp_path / "hist.csv"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == "" and "--out" in err
    assert not target.exists()


@pytest.mark.parametrize("update", ["1/2,", "1/2", "1/2,1,1", ",", ""])
def test_malformed_update_list_is_one_error_line_naming_the_option(capsys, update):
    result = run(capsys, "bayes", "--hypothesis", "a:1/2:1/3", "--hypothesis", "b:1/2:1", "--update", update)
    assert _one_error_line(*result), result
    assert "--update" in result[2] and "Fraction" not in result[2]


def test_list_options_take_commas_or_spaces(capsys):
    def body(*argv):  # the csv rows, less the echo of the options as typed
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0 and err == ""
        return [row for row in out.splitlines() if not row.startswith("options,")]

    hypotheses = ("--hypothesis", "guessing:3/4:1/50", "--hypothesis", "telepathy:1/4:1")
    assert body("bayes", *hypotheses, "--update", "1/50 1") == body("bayes", *hypotheses, "--update", "1/50,1")
    assert body("bayes", "--two-stage", "1/10 9/10 5/10") == body("bayes", "--two-stage", "1/10,9/10,5/10")
    assert body("clip", "--two-by-two", "4 6 8 2") == body("clip", "--two-by-two", "4,6,8,2")
    assert body("clip", "--ci", "49 72") == body("clip", "--ci", "49,72")


@pytest.mark.parametrize("name, header", [("veg6", "value,group"), ("poll500", "value")])
def test_fixture_dump_in_csv_has_the_rows_of_the_text_dump(capsys, name, header):
    _, text, _ = run(capsys, "fixtures", "--name", name)
    code, out, err = run(capsys, "fixtures", "--name", name, "--format", "csv")
    assert code == 0 and err == ""
    assert f"\noptions,format=csv name={name}\n" in out
    table = out.split("\n\n", 1)[1].splitlines()
    assert table == text.split("\n\n", 1)[0].splitlines()[1:]
    assert table[0] == header and len(table) == resamplekit.get_fixture(name).payload.n + 1


@pytest.mark.parametrize("xs", [(0, 0, 1e-200, 0), (0, 1e200, 2e200, 3e200)], ids=["underflow", "overflow"])
def test_correlation_of_tiny_or_huge_columns(capsys, tmp_path, xs):
    ys = (1, 3, 2, 5)
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n" + "".join(f"{x!r},{y}\n" for x, y in zip(xs, ys)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "shuffle-test", "--data", str(path), "--stat", "correlation", "--n", "200")
        observed = observed_statistic(resamplekit.PairedSample(xs, ys))
    fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    dx, dy = [x - sum(fx) / 4 for x in fx], [y - sum(fy) / 4 for y in fy]
    sxy = sum(a * b for a, b in zip(dx, dy))
    exact = math.copysign(math.sqrt(sxy * sxy / (sum(a * a for a in dx) * sum(b * b for b in dy))), sxy)
    assert code == 0 and err == ""
    assert abs(observed - exact) < 1e-12
    assert f"observed correlation (pearson correlation of y against fixed x): {observed:.6g}\n" in out


@pytest.mark.parametrize(
    "text, argv",
    [
        ("x", ("montecarlo", "--trials", "8", "--count", "3", "--prob", "x")),
        ("nan", ("montecarlo", "--trials", "8", "--count", "3", "--prob", "nan")),
        ("x", ("bayes", "--two-stage", "x,1,1")),
        ("x", ("bayes", "--hypothesis", "a:x:1")),
        ("x", ("bayes", "--hypothesis", "a:1:1", "--update", "x")),
    ],
)
def test_a_probability_that_is_no_number_is_named_with_the_accepted_forms(capsys, text, argv):
    result = run(capsys, *argv)
    assert _one_error_line(*result), result
    assert result[2] == f"error: probability {text!r} is not a number; write it as 1/4, 0.25 or 25%\n"


@pytest.mark.parametrize("command", ["bootstrap", "shuffle-test"])
def test_the_population_fixture_is_refused_as_one_for_poll(capsys, command):
    result = run(capsys, command, "--fixture", "poll500", "--n", "20")
    assert _one_error_line(*result), result
    assert result[2] == "error: fixture 'poll500' is a 0/1 population, for poll only\n"


@pytest.mark.parametrize(
    "level, percent", [("0.95", "95%"), ("0.975", "97.5%"), ("0.999", "99.9%"), ("0.9999999", "99.99999%")]
)
def test_interval_levels_are_printed_with_their_own_digits(capsys, level, percent):
    code, out, _ = run(capsys, "bootstrap", "--fixture", "veg9", "--n", "50", "--level", level)
    assert code == 0 and f"  {percent} percentile interval: " in out
    code, out, _ = run(capsys, "clip", "--ci", "49,72", "--level", level)
    assert code == 0 and f"calibrated normal model from {percent} interval (49, 72)" in out
    code, out, _ = run(capsys, "poll", "--fixture", "poll500", "--sample-size", "20", "--polls", "50",
                       "--level", level)
    tails = {
        "0.95": "(the 2.5% and 97.5% percentiles)",
        "0.975": "(the 1.25% and 98.75% percentiles)",
        "0.999": "(the 0.05% and 99.95% percentiles)",
        "0.9999999": "(the 5e-06% and 99.999995% percentiles)",
    }
    assert code == 0 and f"  {percent} of polls fell between " in out and tails[level] in out


@pytest.mark.parametrize("argv", [
    ("clip", "--ci", "-2.1,5.3"),
    ("clip", "--ci", "-2.1,-0.5", "--query", "gt -1"),
    ("bootstrap", "--fixture", "veg6", "--n", "50", "--bounds", "-100,100"),
    ("bootstrap", "--fixture", "veg6", "--n", "50", "--bounds", "-.5,100"),
])
def test_a_negative_interval_end_may_follow_its_option(capsys, argv):
    *head, option, value = argv
    spaced = run(capsys, *argv)
    assert spaced[0] == 0
    assert spaced == run(capsys, *head, f"{option}={value}")


@pytest.mark.parametrize("argv, shown", [
    (("clip", "--p", "0.05", "--estimate", "-2.5e-3"), "estimate=-0.0025"),
    (("clip", "--p", "0.05", "--estimate", "2", "--null", "-1E0"), "null=-1.0"),
    (("bootstrap", "--fixture", "veg9", "--n", "50", "--threshold", "-1e2"), "threshold=-100.0"),
    (("bootstrap", "--fixture", "veg9", "--n", "50", "--threshold", "-5."), "threshold=-5.0"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_a_negative_number_in_any_form_may_follow_its_option(capsys, argv, shown):
    # argparse takes "-2.5e-3" and "-5." for option names; only "-5" and
    # "-0.5" pass its own negative-number rule.
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    options = next(line for line in out.splitlines() if "options:" in line)
    assert f" {shown} " in f"{options} "


@pytest.mark.parametrize("argv", [
    ("clip", "--c", "-2.1,5.3"),
    ("bootstrap", "--fixture", "veg6", "--bou", "-1,100"),
    ("bootstrap", "--fixture", "veg6", "--thr", "50"),
])
def test_abbreviated_options_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code == 2 and out == "" and len(errors) == 1, err
    assert errors[0].endswith("unrecognized arguments: " + " ".join(argv[-2:]))


def test_values_that_begin_with_a_minus_sign_stay_what_they_were(capsys):
    code, _, err = run(capsys, "clip", "--ci", "--query", "gt 0")
    assert code == 2 and "argument --ci: expected one argument" in err
    code, out, _ = run(capsys, "bootstrap", "--fixture", "veg9", "--n", "50", "--threshold", "-5")
    assert code == 0 and "population mean >= -5: 1" in out
    code, out, _ = run(capsys, "clip", "--ci", "-2,1", "--estimate", "-0.5")
    assert code == 0 and "estimate=-0.5" in out


@pytest.mark.parametrize("estimate", ["-1", "0"])
def test_log_scale_needs_a_positive_estimate(capsys, estimate):
    result = run(capsys, "clip", "--ci", "1,2", "--estimate", estimate, "--log-scale")
    assert _one_error_line(*result)
    assert result[2] == f"error: estimate {estimate} must be positive on the log scale\n"


# Each subcommand here draws nothing (or refuses its arguments before it
# would), so it must not wait for numpy to import.
NUMPY_FREE_ARGVS = [
    ("clip", "--ci", "49,72", "--query", "gt 50"),
    ("clip", "--p", "0.04", "--estimate", "0.88", "--null", "1", "--query", "lt 1"),
    ("clip", "--two-by-two", "4,6,8,2"),
    ("clip", "--ci", "-2.1,5.3"),
    ("bayes", "--hypothesis", "guessing:3/4:1/50", "--hypothesis", "telepathy:1/4:1", "--worlds",
     "--update", "1/50,1"),
    ("fixtures",),
    ("montecarlo", "--trials", "8", "--prob", "1/0", "--count", "4"),
    ("bootstrap", "--fixture", "veg9", "--bin-width", "nan"),
    ("bootstrap", "--fixture", "veg9", "--n", str(2**64)),
    ("clip", "--two-by-two", "4,6,8,2", "--format", "csv"),
    ("bayes", "--hypothesis", "a:1/2:1", "--hypothesis", "b:1/2:1/4", "--format", "csv"),
    ("fixtures", "--name", "veg6", "--format", "csv"),
]


def _numpy_free_run(argv, timeout=None, preexec_fn=None) -> subprocess.CompletedProcess:
    """``main(argv)`` in a child process whose last stdout line says whether
    it imported numpy."""
    child = "import sys; from resamplekit.cli import main; code = main(); print('numpy' in sys.modules); sys.exit(code)"
    return subprocess.run(
        [sys.executable, "-c", child, *argv], capture_output=True, text=True, env=_cli_env(), timeout=timeout,
        preexec_fn=preexec_fn,
    )


@pytest.mark.parametrize("argv", NUMPY_FREE_ARGVS, ids=" ".join)
def test_subcommands_that_draw_nothing_never_import_numpy(argv):
    proc = _numpy_free_run(argv)
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# Report options whose refusal needs no replicate: each argv asks for 10^6 or
# more, so a refusal after the draws would keep the user waiting for seconds.
@pytest.mark.parametrize(
    "argv, message",
    [
        (("bootstrap", "--fixture", "veg9", "--n", "10000000", "--level", "1.5"),
         "interval level must be in (0, 1), got 1.5"),
        (("bootstrap", "--fixture", "veg9", "--n", "10000000", "--bounds", "5,1"),
         "scale bounds must satisfy low < high, got (5.0, 1.0)"),
        (("poll", "--fixture", "poll500", "--sample-size", "200", "--polls", "1000000", "--level", "1.5"),
         "interval level must be in (0, 1), got 1.5"),
    ],
    ids=["bootstrap-level", "bootstrap-bounds", "poll-level"],
)
def test_report_options_are_refused_before_numpy_is_imported(argv, message):
    proc = _numpy_free_run(argv)
    assert (proc.returncode, proc.stderr, proc.stdout) == (1, f"error: {message}\n", "False\n")


# Counts below 1: each named by its option, as counts above the limit are,
# and refused before numpy is imported.
@pytest.mark.parametrize(
    "argv, option",
    [
        (("bootstrap", "--fixture", "veg9", "--n", "0"), "--n"),
        (("shuffle-test", "--fixture", "veg6", "--n", "-3"), "--n"),
        (("montecarlo", "--trials", "8", "--count", "4", "--runs", "0"), "--runs"),
        (("montecarlo", "--trials", "0", "--count", "0"), "--trials"),
        (("poll", "--fixture", "poll500", "--sample-size", "0"), "--sample-size"),
        (("poll", "--fixture", "poll500", "--sample-size", "0", "--mode", "with"), "--sample-size"),
        (("poll", "--fixture", "poll500", "--sample-size", "5", "--polls", "0"), "--polls"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else value,
)
def test_counts_below_one_are_refused_by_name_before_numpy_is_imported(argv, option):
    proc = _numpy_free_run(argv)
    got = argv[argv.index(option) + 1]
    assert (proc.returncode, proc.stderr, proc.stdout) == (1, f"error: {option} must be at least 1, got {got}\n", "False\n")


# A report's interval needs two values, so bootstrap and poll refuse one
# replicate by its option, before numpy is imported and anything is drawn.
@pytest.mark.parametrize(
    "argv, option",
    [
        (("bootstrap", "--fixture", "veg9", "--n", "1"), "--n"),
        (("poll", "--fixture", "poll500", "--sample-size", "20", "--polls", "1"), "--polls"),
    ],
    ids=["bootstrap", "poll"],
)
def test_reports_of_one_replicate_are_refused_by_name_before_numpy_is_imported(argv, option):
    proc = _numpy_free_run(argv)
    message = f"error: {option} must be at least 2 for an interval, got 1\n"
    assert (proc.returncode, proc.stderr, proc.stdout) == (1, message, "False\n")


def _address_space_of_2gb():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


def test_a_million_row_bootstrap_is_refused_by_its_draws_before_numpy_is_imported(tmp_path):
    # 1000 replicates of 10^6 draws each pass the work cap, but their block's
    # draw table alone would take 4 GB of int32.  The child runs under a 2 GB
    # address-space limit, so a regression dies at once instead of taking
    # the machine's memory.
    path = tmp_path / "wide.csv"
    path.write_text("value\n" + "\n".join(str(i % 97) for i in range(10**6)) + "\n")
    proc = _numpy_free_run(("bootstrap", "--data", str(path), "--n", "1000"), 120, _address_space_of_2gb)
    message = f"a draw table of 1000 lanes x 1000000 draws is 4000000000 bytes, above the cap of {MAX_TABLE_BYTES} bytes"
    assert (proc.returncode, proc.stderr, proc.stdout) == (1, f"error: {message}\n", "False\n")


def test_a_wide_bootstrap_is_capped_by_its_tables_bytes_not_its_draws(capsys, tmp_path):
    # 40,000 rows take int32 positions and blocks of 2048 lanes: 10
    # replicates need a table of 1.6 MB, 10^4 replicates one of 328 MB.
    path = tmp_path / "wide.csv"
    path.write_text("value\n" + "\n".join(str(i % 97) for i in range(40_000)) + "\n")
    code, out, err = run(capsys, "bootstrap", "--data", str(path), "--n", "10")
    assert (code, err) == (0, "") and "resamples: 10 with replacement" in out
    message = f"a draw table of 2048 lanes x 40000 draws is 327680000 bytes, above the cap of {MAX_TABLE_BYTES} bytes"
    assert run(capsys, "bootstrap", "--data", str(path), "--n", "10000") == (1, "", f"error: {message}\n")


def test_draws_per_replicate_are_capped_by_what_each_plan_draws(capsys, monkeypatch, tmp_path):
    # A bootstrap draws n rows, a shuffle test min(n1, n - 1) steps and a poll
    # without replacement min(k, n - 1) steps; a poll with replacement and
    # the exact shuffle test draw no table.  100 bytes hold a table of 10
    # lanes x 5 int16 draws.
    monkeypatch.setattr(spec, "MAX_TABLE_BYTES", 100)
    seven, five = tmp_path / "seven.csv", tmp_path / "five.csv"
    seven.write_text("value,group,x\n" + "".join(f"{v},{'ab'[v < 3]},{v * v}\n" for v in range(7)))
    five.write_text("value\n1\n2\n3\n4\n5\n")
    refused = [
        (7, "bootstrap", "--data", str(seven), "--n", "10"),
        (7, "bootstrap", "--data", str(seven), "--group-column", "group", "--n", "10"),
        (6, "shuffle-test", "--data", str(seven), "--stat", "correlation", "--x-column", "x", "--y-column", "value",
         "--n", "10"),
        (6, "poll", "--fixture", "poll500", "--sample-size", "6", "--polls", "10"),
    ]
    for draws, *argv in refused:
        message = f"error: a draw table of 10 lanes x {draws} draws is {20 * draws} bytes, above the cap of 100 bytes\n"
        assert run(capsys, *argv) == (1, "", message)
    accepted = [
        ("bootstrap", "--data", str(five), "--n", "10"),
        ("shuffle-test", "--data", str(seven), "--group-column", "group", "--n", "10"),
        ("shuffle-test", "--data", str(seven), "--group-column", "group", "--exact"),
        ("poll", "--fixture", "poll500", "--sample-size", "5", "--polls", "10"),
        ("poll", "--fixture", "poll500", "--sample-size", "6", "--polls", "10", "--mode", "with"),
    ]
    for argv in accepted:
        assert run(capsys, *argv)[0] == 0, argv


def test_bootstrap_of_values_near_1e200_reports_a_finite_skewness(capsys, tmp_path):
    # The squared and cubed spreads of these replicates overflowed, and the
    # report read "skewness nan"; it must match the same data at a scale of 1.
    skewness = []
    for scale, bin_width in (("e200", "1e197"), ("", "1e-3")):
        path = tmp_path / f"values{scale}.csv"
        path.write_text(f"value\n1{scale}\n1.5{scale}\n1.7{scale}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bootstrap", "--data", str(path), "--bin-width", bin_width)
        assert (code, err) == (0, "")
        skewness.append(out.split("skewness ")[1].split(",")[0])
    assert skewness[0] == skewness[1] != "nan"


# Data whose float sums would overflow: the mean of these three values reads
# inf, and the mean differences of the two groups overflowed into a
# histogram of inf and an OverflowError traceback.
HUGE_SAMPLE = "value\n1e308\n1.5e308\n1.7e308\n"
HUGE_GROUPS = "value,group\n1e308,a\n-1e308,a\n1.7e308,b\n-1.7e308,b\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        (HUGE_SAMPLE, ("bootstrap",)),
        (HUGE_GROUPS, ("bootstrap", "--group-column", "group")),
        (HUGE_GROUPS, ("shuffle-test", "--group-column", "group")),
    ],
    ids=["bootstrap", "grouped-bootstrap", "shuffle-test"],
)
def test_data_whose_sums_could_overflow_are_refused_before_numpy_is_imported(tmp_path, text, argv):
    path = tmp_path / "huge.csv"
    path.write_text(text)
    proc = _numpy_free_run([*argv, "--data", str(path)])
    assert _one_error_line(proc.returncode, "", proc.stderr) and proc.stdout == "False\n", proc.stderr
    assert "could overflow a sum of" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("exact", [False, True], ids=["monte-carlo", "exact"])
def test_subnormal_data_beside_zero_runs_cleanly_on_both_shuffle_paths(capsys, tmp_path, exact):
    path = tmp_path / "subnormal.csv"
    path.write_text("value,group\n1e-320,a\n0,a\n0,b\n1e-320,b\n0,b\n")
    argv = ["shuffle-test", "--data", str(path), "--group-column", "group"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, *(["--exact"] if exact else ["--n", "200"]))
    assert (code, err) == (0, "")
    assert "observed mean-diff" in out and ": 1.665e-321" in out


# Options that the report would leave unread: each is refused with one line
# that names both options, before numpy is imported.
UNREAD = [
    (("clip", "--two-by-two", "4,6,8,2", "--query", "gt 1"), "--query cannot be used with --two-by-two"),
    (("clip", "--two-by-two", "4,6,8,2", "--log-scale"), "--log-scale cannot be used with --two-by-two"),
    (("clip", "--ci", "1,2", "--p", "0.04", "--estimate", "1.5"), "--p cannot be used with --ci"),
    (("clip", "--ci", "1,2", "--p", "0"), "--p cannot be used with --ci"),
    (("bayes", "--two-stage", "1/2,1/2,1/2", "--hypothesis", "a:1:1"), "--hypothesis cannot be used with --two-stage"),
    (("bayes", "--two-stage", "1/2,1/2,1/2", "--update", "1"), "--update cannot be used with --two-stage"),
    (("bayes", "--two-stage", "1/2,1/2,1/2", "--worlds"), "--worlds cannot be used with --two-stage"),
    (("shuffle-test", "--fixture", "veg6", "--exact", "--out", "h.csv"), "--out cannot be used with --exact"),
    (("shuffle-test", "--fixture", "veg6", "--exact", "--bin-width", "1"), "--bin-width cannot be used with --exact"),
    (("shuffle-test", "--fixture", "veg6", "--exact", "--seed", "5"), "--seed cannot be used with --exact"),
]


@pytest.mark.parametrize("argv, message", UNREAD, ids=[" ".join(argv) for argv, _ in UNREAD])
def test_options_the_report_would_leave_unread_are_refused_before_numpy_is_imported(
    monkeypatch, tmp_path, argv, message
):
    monkeypatch.chdir(tmp_path)
    proc = _numpy_free_run(argv)
    assert (proc.returncode, proc.stderr, proc.stdout) == (1, f"error: {message}\n", "False\n")
    assert not (tmp_path / "h.csv").exists()


def test_a_comma_in_a_csv_key_is_written_as_a_semicolon(capsys):
    code, out, err = run(capsys, "bayes", "--hypothesis", "a,b:1/2:1", "--hypothesis", "c:1/2:1/2",
                         "--update", "1,1/3", "--format", "csv")
    assert code == 0 and err == ""
    rows = dict(line.split(",", 1) for line in out.splitlines()[6:])
    assert rows == {"posterior_a;b": "2/3", "posterior_c": "1/3", "round1_a;b": "6/7", "round1_c": "1/7"}
