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
    "shuffle-test --fixture veg6 --stat mean-diff --exact": "bc3f22200f9ebe8a3ddf359d0b807a788faf3993a6d799465b1e24a065b099d3",
    "shuffle-test --fixture veg6 --stat mean-diff --n 100000 --seed 0": "ce900ad711c5487e7f5e7dbca3e6c4a8af4f4a4f5f5f3364cc691b823e6538ae",
    "bootstrap --fixture veg9 --threshold 50 --bounds 0,100": "31e1ed417ac3d36403557385be0eda65c15fd8be9c8f912b99da43316e91bcf3",
    'clip --ci 49,72 --query "gt 50"': "a9c5e2e43ca5ce1bb9a06e69c3391f320f3d5b57e32be99c811e39ff90e2883a",
    'clip --p 0.04 --estimate 0.88 --null 1 --query "lt 1"': "5d88fa9ccedbe87b928c097e8f238f318328c4a900d64a7945d52b8a00f6809a",
    "clip --two-by-two 4,6,8,2": "6ae5d6b5adf5b3acff3d9c031d0e364bcb53a813f28017180532891c0e49ddb5",
    "bayes --hypothesis guessing:3/4:1/50 --hypothesis telepathy:1/4:1 --worlds --update 1/50,1": "a28a9b19301df35a896ffc4ad1c2c0896c28d079460fb4cd69dc44126a99ab46",
    "montecarlo --trials 8 --prob 1/2 --event exactly --count 4 --runs 1000": "50652ca1c7e992073665beb92f5834c654161ee45a376fe4620f5c81607cecb2",
    "poll --fixture poll500 --sample-size 20 --polls 1000": "d0acfe769ed8d74ab8b39050945e7c550d9830a03f8d55e0f687d7ff418e02ca",
    "fixtures": "24128378a38aec24e3736e88e283d2b3ec2fe0fd9539e7d7e5f45c38bb64976e",
}

# The same command lines with --format csv appended.
README_CSV_PINS = {
    "shuffle-test --fixture veg6 --stat mean-diff --exact": "9cac1c7f119db0a95f401fc54fc5aaae7596344aed8e53c319d67cb031462804",
    "shuffle-test --fixture veg6 --stat mean-diff --n 100000 --seed 0": "b64cb7b8996db1c54a19a9778c2f0845fb18703520b2b531ee06db35f0eb6974",
    "bootstrap --fixture veg9 --threshold 50 --bounds 0,100": "e45cc72c0fc0565be93051b478f4a768730774b46c0068c23e88d1a597fe987f",
    'clip --ci 49,72 --query "gt 50"': "a44412f94e9ed08da03c179b701a8b3359742b02971820469205a037fc613594",
    'clip --p 0.04 --estimate 0.88 --null 1 --query "lt 1"': "52a3c5ace9900a50613f4ea61f18288069522c50e370ea52d4778590d5296714",
    "clip --two-by-two 4,6,8,2": "5d2fccd2af2238403ff91e599030d9b4029c0f4e448e8f153d298ab3cea6540a",
    "bayes --hypothesis guessing:3/4:1/50 --hypothesis telepathy:1/4:1 --worlds --update 1/50,1": "f34bbae901cca5021b78ff0c3be54b5bf465f9f79895ef622e91d455c2eb2b55",
    "montecarlo --trials 8 --prob 1/2 --event exactly --count 4 --runs 1000": "3f204ed351d2db64e79bcabae66b3fee9dfe81fe134ce7b095b662080ea55c75",
    "poll --fixture poll500 --sample-size 20 --polls 1000": "3fedf344c5808ea8582762293bdbd2df897c7894110db30a70c84948eea6df67",
    "fixtures": "df8e7a0bdbcdf1c484e150579e58fb682bfc8d482b96f61a00994b365567c380",
}

# Runs that no README line covers: a paired correlation test on integer data
# (read from a file, so the manifest digest is pinned too) and a grouped
# bootstrap in csv format.
EXTRA_CLI = {
    "paired-correlation": (
        ["shuffle-test", "--data", "pairs.csv", "--stat", "correlation", "--n", "2000", "--seed", "7"],
        "c28ff4163bcb2d4cda0cc2659925b767bbe0d13fd4a55645173e854de90d571d",
    ),
    "grouped-bootstrap-csv": (
        ["bootstrap", "--fixture", "veg6", "--threshold", "0", "--bounds=-100,100",
         "--n", "2000", "--seed", "11", "--format", "csv"],
        "ab051e3390ba5aedc4714bc94034233788c06dd4ba0ac0726348e8cc106ab2f8",
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


@pytest.mark.parametrize("line", list(README_CSV_PINS))
def test_readme_command_csv_stdout(line, capsys, monkeypatch):
    assert list(README_CSV_PINS) == list(README_PINS)
    monkeypatch.delenv("RESAMPLE_SEED", raising=False)
    argv = shlex.split(line) + ["--format", "csv"]
    assert sha256(cli_stdout(argv, capsys)) == README_CSV_PINS[line]


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
