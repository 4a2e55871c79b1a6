"""Containers, CSV round trips, and the built-in datasets."""

import math
import statistics
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resamplekit.data import (
    GroupedSample,
    PairedSample,
    PopulationVector,
    Sample,
    fixtures,
    get_fixture,
    load_csv,
    load_paired_csv,
    write_csv,
)


def test_sample_basics():
    s = Sample((5, 5, 5))
    assert s.n == 3
    assert s.mean == 5
    assert s.values == (5.0, 5.0, 5.0)


def test_sample_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Sample(())
    with pytest.raises(ValueError):
        Sample((1.0, float("nan")))
    with pytest.raises(ValueError):
        Sample((1.0, float("inf")))


def test_grouped_sample_group_order_is_first_appearance():
    g = GroupedSample.from_rows([(1, "b"), (2, "a"), (3, "b")])
    assert g.group_names == ("b", "a")
    assert g.group_values("b") == (1.0, 3.0)
    assert g.group_count("a") == 1


def test_grouped_sample_needs_exactly_two_groups():
    with pytest.raises(ValueError):
        GroupedSample.from_rows([(1, "a"), (2, "a")])
    with pytest.raises(ValueError):
        GroupedSample.from_rows([(1, "a"), (2, "b"), (3, "c")])
    with pytest.raises(ValueError):
        GroupedSample(values=(1.0, 2.0), groups=("a",))


def test_paired_sample_validation():
    p = PairedSample((1, 2), (3, 4))
    assert p.n == 2
    with pytest.raises(ValueError):
        PairedSample((1, 2), (3,))
    with pytest.raises(ValueError):
        PairedSample((), ())


def test_population_vector():
    p = PopulationVector((1, 0, 1, 1))
    assert p.n == 4
    assert p.ones == 3
    assert p.proportion == 0.75
    with pytest.raises(ValueError):
        PopulationVector((1, 2))
    with pytest.raises(ValueError):
        PopulationVector(())


def test_load_csv_grouped(tmp_path):
    path = tmp_path / "wellbeing.csv"
    path.write_text(
        "score,diet\n74,Vegetarian\n65,Vegetarian\n69,Omnivore\n"
        "37,Omnivore\n57,Vegetarian\n26,Omnivore\n"
    )
    data = load_csv(path, "score", "diet")
    assert isinstance(data, GroupedSample)
    assert data.group_names == ("Vegetarian", "Omnivore")
    # Group means exactly 196/3 and 44 in exact arithmetic.
    veg = [Fraction(v) for v in data.group_values("Vegetarian")]
    omni = [Fraction(v) for v in data.group_values("Omnivore")]
    assert sum(veg) / len(veg) == Fraction(196, 3)
    assert sum(omni) / len(omni) == Fraction(44)
    assert statistics.fmean(data.group_values("Vegetarian")) == pytest.approx(65.33, abs=0.01)
    assert statistics.fmean(data.group_values("Omnivore")) == 44.0


def test_load_csv_single_column(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("value\n5\n5\n5\n")
    data = load_csv(path, "value")
    assert isinstance(data, Sample)
    assert data.mean == 5.0


def test_load_csv_blank_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("value,group\n1,a\n,b\n3,a\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path, "value", "group")


def test_load_csv_unparseable_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1\ntwo\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path, "value")


def test_load_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/nope.csv", "value")


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="column 'value'"):
        load_csv(path, "value")


def test_load_csv_empty_data(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("value\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path, "value")


def test_load_csv_wrong_group_count(tmp_path):
    path = tmp_path / "one_group.csv"
    path.write_text("value,group\n1,a\n2,a\n")
    with pytest.raises(ValueError, match="exactly two distinct groups"):
        load_csv(path, "value", "group")


def test_load_paired_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n1,2\n3,4\n")
    p = load_paired_csv(path, "x", "y")
    assert p.xs == (1.0, 3.0)
    assert p.ys == (2.0, 4.0)
    with pytest.raises(ValueError, match="column 'z'"):
        load_paired_csv(path, "x", "z")


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@given(st.lists(finite_floats, min_size=1, max_size=40))
def test_sample_csv_round_trip(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        original = Sample(tuple(values))
        write_csv(original, path)
        loaded = load_csv(path, "value")
    assert loaded.values == original.values


@given(
    st.lists(finite_floats, min_size=1, max_size=20),
    st.lists(finite_floats, min_size=1, max_size=20),
)
def test_grouped_csv_round_trip(a_vals, b_vals):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grouped.csv"
        rows = [(v, "first") for v in a_vals] + [(v, "second") for v in b_vals]
        original = GroupedSample.from_rows(rows)
        write_csv(original, path)
        loaded = load_csv(path, "value", "group")
    assert loaded.values == original.values
    assert loaded.groups == original.groups


def test_fixture_veg9():
    s = get_fixture("veg9").payload
    assert s.values == (74, 65, 57, 78, 54, 47, 38, 34, 93)
    assert Fraction(int(sum(s.values)), s.n) == Fraction(60)
    assert s.mean == 60.0


def test_fixture_skewed9():
    s = get_fixture("skewed9").payload
    assert s.values == (96, 100, 35, 95, 97, 99, 50, 95, 98)
    assert s.mean == 85.0


def test_fixture_veg6():
    g = get_fixture("veg6").payload
    assert g.rows[0] == (74.0, "Vegetarian")
    assert g.group_names == ("Vegetarian", "Omnivore")
    veg = [Fraction(v) for v in g.group_values("Vegetarian")]
    omni = [Fraction(v) for v in g.group_values("Omnivore")]
    veg_mean = sum(veg) / 3
    omni_mean = sum(omni) / 3
    assert veg_mean == Fraction(196, 3)
    assert omni_mean == 44
    assert veg_mean - omni_mean == Fraction(64, 3)


def test_fixture_poll500():
    p = get_fixture("poll500").payload
    assert p.n == 500
    assert p.ones == 300
    assert p.proportion == 0.6


def test_fixtures_are_stable():
    first = fixtures()
    second = fixtures()
    assert first == second
    assert [f.name for f in first] == ["veg9", "skewed9", "veg6", "poll500"]


def test_unknown_fixture():
    with pytest.raises(ValueError, match="unknown fixture"):
        get_fixture("nope")


def test_containers_are_immutable():
    s = get_fixture("veg9").payload
    with pytest.raises(AttributeError):
        s.values = (1.0,)
    assert math.isfinite(s.mean)


def test_population_vector_refuses_fractional_entries_instead_of_truncating():
    with pytest.raises(ValueError, match=r"population entries must be 0 or 1, got 0\.5$"):
        PopulationVector((0.5, 1, 1.9))
    assert PopulationVector(iter((1.0, 0.0, True))).entries == (1, 0, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,y\n1,2\n,4\n", "row 2: blank value in column 'x'"),
        ("x,y\n1,2\n3, \n", "row 2: blank value in column 'y'"),
        ("x,y\n1,2\n3\n", "row 2: blank value in column 'y'"),
        ("x,y\n1,2\n3,four\n", "row 2: could not parse 'four' as a number"),
        ("x,y\n1,2\n-inf,4\n", "row 2: value '-inf' is not finite"),
        ("x,y\n1,nan\n", "row 1: value 'nan' is not finite"),
        ("x,z\n1,2\n", "column 'y' not in header ['x', 'z']"),
        ("w,y\n1,2\n", "column 'x' not in header ['w', 'y']"),
    ],
)
def test_load_paired_csv_errors_name_the_row_and_column(tmp_path, text, message):
    path = tmp_path / "pairs.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_paired_csv(path, "x", "y")
    assert str(info.value) == message


def test_load_paired_csv_without_data_rows_names_the_file(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n\n")
    with pytest.raises(ValueError) as info:
        load_paired_csv(path, "x", "y")
    assert str(info.value) == f"{path}: no data rows"


def test_csv_rows_follow_dict_reader_rules(tmp_path):
    path = tmp_path / "rules.csv"
    # Blank lines are skipped and not counted; a repeated header name means
    # its last column; cells are stripped; a short row's missing cell is blank.
    path.write_bytes(b"value,group,value\r\n\r\n1,a, 7 \r\n2,b,8,extra\r\n\r\n3,a\r\n")
    with pytest.raises(ValueError, match="^row 3: blank value in column 'value'$"):
        load_csv(path, "value", "group")
    path.write_bytes(b"value,group,value\r\n\r\n1,a, 7 \r\n2,b,8,extra\r\n")
    data = load_csv(path, "value", "group")
    assert data.values == (7.0, 8.0) and data.groups == ("a", "b")
    assert data.label == "rules"
    path.write_text('y,x\n"1",2\n\n 3 ,"4"\n')
    pairs = load_paired_csv(path, "x", "y")
    assert pairs.xs == (2.0, 4.0) and pairs.ys == (1.0, 3.0)


def test_a_leading_byte_order_mark_is_not_part_of_the_header(tmp_path):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    body = b"value,group,x\n74,Vegetarian,1\n65,Omnivore,2\n57,Vegetarian,4\n"
    (plain / "data.csv").write_bytes(body)
    (marked / "data.csv").write_bytes(b"\xef\xbb\xbf" + body)
    for load, columns in ((load_csv, ("value",)), (load_csv, ("value", "group")), (load_paired_csv, ("x", "value"))):
        assert load(marked / "data.csv", *columns) == load(plain / "data.csv", *columns)
    # Only a leading mark is dropped; one inside a cell stays text.
    (marked / "data.csv").write_bytes(b"value\n\xef\xbb\xbf1\n")
    with pytest.raises(ValueError, match="could not parse"):
        load_csv(marked / "data.csv", "value")
