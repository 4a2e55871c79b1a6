"""The package's public names: one table, each name's module imported the
first time the name is read, and no numpy for the spec alone."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resamplekit

PUBLIC = [
    "__version__",
    "BernoulliExperiment", "BootstrapReport", "CalibratedDistribution", "DiagnosticsReport",
    "Fixture", "GroupedSample", "Histogram", "Hypothesis", "HypothesisSet", "PairedSample",
    "PollResult", "PopulationVector", "ResampleDistribution", "Sample", "SeededGenerator",
    "SubstreamBlock", "TestReport", "TwoByTwo", "TwoStageOutcomes", "WorldTableau",
    "bootstrap", "bootstrap_report", "calibrate_from_interval", "calibrate_from_p", "diagnostics",
    "exact_binomial", "exact_shuffle_p", "fixtures", "get_fixture", "load_csv", "load_paired_csv",
    "mix64", "normal_cdf", "normal_quantile", "odds_ratio", "parse_probability",
    "percentile_interval", "posterior", "probability_query", "render_worlds", "risk_ratio",
    "sequential_update", "shuffle_test", "shuffle_test_paired", "simulate_bernoulli",
    "simulate_poll", "substream", "t_cdf", "t_quantile", "tail_probability", "two_stage_grid",
    "write_csv",
]


def test_the_public_names_are_unchanged():
    assert resamplekit.__all__ == PUBLIC


def test_each_name_is_the_object_its_module_defines():
    for module, names in resamplekit._EXPORTS.items():
        defining = importlib.import_module(f"resamplekit.{module}")
        for name in names:
            assert getattr(resamplekit, name) is getattr(defining, name), name
    namespace = {}
    exec("from resamplekit import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        resamplekit.no_such_name
    assert not hasattr(resamplekit, "observed_statistic")
    with pytest.raises(ImportError):
        exec("from resamplekit import observed_statistic", {})


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(resamplekit))


@pytest.mark.parametrize("module", ["resampling", "simulate"])
def test_procedures_leave_every_lane_boundary_to_rng(module):
    # A procedure runs blocks and hands a reducer or a pick to one of the
    # three kernels, and its reducers read a block's values through rng's
    # lane sums; lanes, and block and sub-block sizes, are rng's alone.
    tree = ast.parse((Path(resamplekit.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    used = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "rng"
    }
    used |= {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rng" for alias in node.names
    }
    assert used and used <= {"run_chunks", "shuffled", "drawn", "summed", "positions", "lane_sums"}
    lane_params = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) and "lanes" in {a.arg for a in node.args.args}
    ]
    lane_calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "lanes"
        and node.attr in ("below", "keep", "count")
    ]
    assert lane_params == lane_calls == []


@pytest.mark.parametrize("statement", [
    "import resamplekit", "import resamplekit.spec", "from resamplekit import BernoulliExperiment, exact_binomial",
])
def test_the_package_and_its_spec_import_no_numpy(statement):
    src = str(Path(resamplekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = f"import sys; {statement}; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"
