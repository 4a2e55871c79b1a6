"""Golden outputs: SHA-256 pins of report bytes and replicate arrays.

Every replicate value follows bit for bit from (data, statistic, N, seed),
and two runs with equal manifests print byte-identical reports.  These pins
hold that contract across code changes, numpy releases and platforms, where
``test_reports_are_byte_identical`` only compares two runs of one tree.  A
pin that moves is a behaviour change, to be announced as one.

The README's command lines and its library-use block are read from
``README.md`` itself, so the documentation cannot drift from the program.
"""

import hashlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import resamplekit as rk
from resamplekit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

VEG6 = rk.get_fixture("veg6").payload
VEG9 = rk.get_fixture("veg9").payload
POLL500 = rk.get_fixture("poll500").payload
INT_PAIRS = rk.PairedSample(
    xs=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), ys=(3, 1, 4, 2, 6, 5, 9, 7, 10, 8)
)
INT_PAIRS_CSV = "x,y\n" + "".join(f"{x:g},{y:g}\n" for x, y in zip(INT_PAIRS.xs, INT_PAIRS.ys))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the README heading ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def readme_command_lines() -> list[str]:
    """The ``resamplekit ...`` lines of the Command line section, with
    backslash continuations joined and the program name dropped."""
    text = readme_block("## Command line", "sh").replace("\\\n", " ")
    return [
        " ".join(line.split()[1:])
        for line in text.splitlines()
        if line.startswith("resamplekit ")
    ]


def cli_stdout(argv: list[str], capsys) -> bytes:
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.encode("utf-8")


README_PINS = {
    "shuffle-test --fixture veg6 --stat mean-diff --exact": "f641e3fcceb2487538eb9426a37d0488a566e70f018e84188232840832a4c9d4",
    "shuffle-test --fixture veg6 --stat mean-diff --n 100000 --seed 0": "b84b2d996b18e0c1688093471f39e310f4f532836447675c68a8081b8346b9fb",
    "bootstrap --fixture veg9 --threshold 50 --bounds 0,100": "8b6dc9efed67939d8fe15143b0481e96daa72ad5e015b9ae971152e1d6bf2821",
    'clip --ci 49,72 --query "gt 50"': "5cb9a8cc2d84300e69f0f7d6b8d4088b499de88fd50c9c3a95df9ffc18aa209e",
    'clip --p 0.04 --estimate 0.88 --null 1 --query "lt 1"': "684926e963b0ee1daf0ec556072bf155b7953d95090288366c5247efa0691e77",
    "clip --two-by-two 4,6,8,2": "cb890cf56d0294c2e3fb8dc46f95574c3a143d41bb7e3ca8e56125b45665729a",
    "bayes --hypothesis guessing:3/4:1/50 --hypothesis telepathy:1/4:1 --worlds --update 1/50,1": "49144b33359ecbefa230365656031133041b7f2a71021dc09484831893683c7a",
    "montecarlo --trials 8 --prob 1/2 --event exactly --count 4 --runs 1000": "76e374f55e08d85f949eae8053bce23a8dedd778ba60aed8ac20e874f06b337a",
    "poll --fixture poll500 --sample-size 20 --polls 1000": "86f6fcece60b6f21f17d587a07bb756bbc6da0c86d37034a22f49183907eb483",
    "fixtures": "9a86c2b777221c6233bfe12252f5908ddc6fc5571cc27c4ccc13145a22a645be",
}

# Runs that no README line covers: a paired correlation test on integer data
# (read from a file, so the manifest digest is pinned too) and a grouped
# bootstrap in csv format.
EXTRA_CLI = {
    "paired-correlation": (
        ["shuffle-test", "--data", "pairs.csv", "--stat", "correlation", "--n", "2000", "--seed", "7"],
        "37984a870b3d4087dfd485c1f4ffbc7657e8405c1d0a19a4922defbe38eafac6",
    ),
    "grouped-bootstrap-csv": (
        ["bootstrap", "--fixture", "veg6", "--threshold", "0", "--bounds=-100,100",
         "--n", "2000", "--seed", "11", "--format", "csv"],
        "3c6187cfdb80287a7fca4b3588138b7d4dc78a35cf5a60fd980808c608e33eca",
    ),
}

ARRAYS = {
    "bootstrap-veg9": (
        lambda: rk.bootstrap(VEG9, n_resamples=3000, seed=1).array,
        "c50df859eb4e102153aabd9d23f2267b52cc39fe3ee4e0aaf6ffcb036d03345d",
    ),
    "bootstrap-veg6": (
        lambda: rk.bootstrap(VEG6, n_resamples=3000, seed=2).array,
        "5fce53c997e31337ec2f12c8ca1d02c8889b0b846463231228d3db208842c0de",
    ),
    "shuffle-veg6": (
        lambda: rk.shuffle_test(VEG6, n_resamples=3000, seed=3).distribution.array,
        "00afa0272f5c65b7215f3f86333e454f3ee0a0218ca38b120194f62d438b675d",
    ),
    "paired-int": (
        lambda: rk.shuffle_test_paired(INT_PAIRS, n_resamples=3000, seed=4).distribution.array,
        "79225ec03979434a01d4ba0e2622bdee7b4e075fe8f8a420cd4aed3e5638b534",
    ),
    "poll-with": (
        lambda: rk.simulate_poll(POLL500, 25, "with-replacement", 3000, seed=5).array,
        "c66225757c81b48e300b8cb914788080a172bad0c08ec12b879fbe3c32a77843",
    ),
    "poll-without": (
        lambda: rk.simulate_poll(POLL500, 25, "without-replacement", 3000, seed=6).array,
        "9e4352a07d28d1702200dfd4ebcc333845e37baedef3a9bf584f71755d3698d2",
    ),
}


def test_readme_command_lines_are_the_pinned_ones():
    assert readme_command_lines() == list(README_PINS)


@pytest.mark.parametrize("line", list(README_PINS))
def test_readme_command_stdout(line, capsys, monkeypatch):
    monkeypatch.delenv("RESAMPLE_SEED", raising=False)
    assert sha256(cli_stdout(shlex.split(line), capsys)) == README_PINS[line]


@pytest.mark.parametrize("name", list(EXTRA_CLI))
def test_cli_stdout(name, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("RESAMPLE_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.csv").write_text(INT_PAIRS_CSV, encoding="utf-8")
    argv, pin = EXTRA_CLI[name]
    assert sha256(cli_stdout(argv, capsys)) == pin


@pytest.mark.parametrize("name", list(ARRAYS))
def test_replicate_array_bytes(name):
    make, pin = ARRAYS[name]
    arr = make()
    assert arr.dtype == np.float64
    assert sha256(arr.astype("<f8").tobytes()) == pin


def test_readme_library_block_runs():
    exec(compile(readme_block("## Library use", "python"), "README.md", "exec"), {})
