"""Sample containers, CSV ingestion, and the built-in fixture datasets.

CSV dialect: comma-separated, UTF-8 (a leading byte-order mark is skipped),
first row is a header, '.' decimal point.  Containers are immutable after
construction and safe to share.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path


def _check_finite(values, where: str) -> None:
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"{where}: value at position {i} is not finite ({v!r})")


@dataclass(frozen=True)
class Sample:
    """A nonempty list of finite numeric observations."""

    values: tuple[float, ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("a sample needs at least one value")
        _check_finite(self.values, "sample")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)


@dataclass(frozen=True)
class GroupedSample:
    """Observations tagged with exactly two group names.

    Group order is the order of first appearance in the rows; "difference"
    statistics always mean (first group mean - second group mean).
    """

    values: tuple[float, ...]
    groups: tuple[str, ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "groups", tuple(str(g) for g in self.groups))
        if len(self.values) != len(self.groups):
            raise ValueError(
                f"{len(self.values)} values but {len(self.groups)} group labels"
            )
        if not self.values:
            raise ValueError("a grouped sample needs at least one row")
        _check_finite(self.values, "grouped sample")
        if len(self.group_names) != 2:
            raise ValueError(
                "expected exactly two distinct groups, got "
                f"{sorted(set(self.groups))}"
            )

    @property
    def group_names(self) -> tuple[str, ...]:
        """The distinct group names, in order of first appearance."""
        seen: dict[str, None] = {}
        for g in self.groups:
            seen.setdefault(g, None)
        return tuple(seen)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def rows(self) -> tuple[tuple[float, str], ...]:
        return tuple(zip(self.values, self.groups))

    def group_values(self, name: str) -> tuple[float, ...]:
        if name not in self.group_names:
            raise ValueError(f"unknown group {name!r}; have {self.group_names}")
        return tuple(v for v, g in zip(self.values, self.groups) if g == name)

    def group_count(self, name: str) -> int:
        return len(self.group_values(name))

    @classmethod
    def from_rows(cls, rows, label: str | None = None) -> "GroupedSample":
        rows = list(rows)
        return cls(
            values=tuple(v for v, _ in rows),
            groups=tuple(g for _, g in rows),
            label=label,
        )


@dataclass(frozen=True)
class PairedSample:
    """Paired numeric observations (x_i, y_i), e.g. for correlation."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(float(v) for v in self.xs))
        object.__setattr__(self, "ys", tuple(float(v) for v in self.ys))
        if len(self.xs) != len(self.ys):
            raise ValueError(f"{len(self.xs)} x values but {len(self.ys)} y values")
        if not self.xs:
            raise ValueError("a paired sample needs at least one pair")
        _check_finite(self.xs, "paired sample x")
        _check_finite(self.ys, "paired sample y")

    @property
    def n(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class PopulationVector:
    """A finite population of 0/1 indicators (e.g. votes for one candidate)."""

    entries: tuple[int, ...]
    label: str | None = None

    def __post_init__(self):
        entries = tuple(self.entries)
        bad = [e for e in entries if e not in (0, 1)]
        if bad:
            raise ValueError(f"population entries must be 0 or 1, got {bad[0]!r}")
        object.__setattr__(self, "entries", tuple(int(e) for e in entries))
        if not self.entries:
            raise ValueError("population must be nonempty")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def ones(self) -> int:
        return sum(self.entries)

    @property
    def proportion(self) -> float:
        return self.ones / len(self.entries)


@dataclass(frozen=True)
class Fixture:
    name: str
    payload: Sample | GroupedSample | PopulationVector
    description: str


def _read_columns(text: str, path: Path, numeric: tuple[str, ...], group: str | None = None):
    """Parse CSV text into one list of finite floats per ``numeric`` column,
    plus the nonblank stripped cells of the ``group`` column (empty without one).

    Rows are numbered from 1 after the header.  Cells are read by column
    index, with csv.DictReader's rules: blank lines are skipped, a short
    row's missing cells are blank, and a repeated header name means its
    last column.  A row the csv module refuses (a cell over its field size
    limit, say) is a ValueError naming the row.
    """
    rows = csv.reader(io.StringIO(text, newline=""))
    i = -1  # the header is row 0
    try:
        header = next(rows, [])
        i = 0
        for col in numeric + ((group,) if group else ()):
            if col not in header:
                raise ValueError(f"column {col!r} not in header {header}")
        index = {name: j for j, name in enumerate(header)}
        cells = [(col, index[col], []) for col in numeric]
        k = index.get(group)
        groups: list[str] = []
        for row in rows:
            if not row:
                continue
            i += 1
            width = len(row)
            for col, j, out in cells:
                raw = row[j].strip() if j < width else ""
                try:
                    v = float(raw)
                except ValueError:
                    if not raw:
                        raise ValueError(f"row {i}: blank value in column {col!r}") from None
                    raise ValueError(f"row {i}: could not parse {raw!r} as a number") from None
                if not math.isfinite(v):
                    raise ValueError(f"row {i}: value {raw!r} is not finite")
                out.append(v)
            if group:
                g = row[k].strip() if k < width else ""
                if not g:
                    raise ValueError(f"row {i}: blank group in column {group!r}")
                if "\n" in g or "\r" in g:
                    raise ValueError(f"row {i}: group {g!r} holds a line break")
                groups.append(g)
    except csv.Error as exc:
        raise ValueError(f"{path}: {f'row {i + 1}' if i >= 0 else 'header'}: {exc}") from None
    if not i:
        raise ValueError(f"{path}: no data rows")
    return [out for _, _, out in cells], groups


def _parse_csv(text: str, path: Path, value_column: str, group_column: str | None = None):
    """``load_csv`` on the file's text; ``path`` names it in errors and labels."""
    (values,), groups = _read_columns(text, path, (value_column,), group_column)
    if group_column:
        distinct = sorted(set(groups))
        if len(distinct) != 2:
            raise ValueError(f"{path}: need exactly two distinct groups, got {distinct}")
        return GroupedSample(tuple(values), tuple(groups), label=path.stem)
    return Sample(tuple(values), label=path.stem)


def _parse_paired_csv(text: str, path: Path, x_column: str, y_column: str) -> PairedSample:
    """``load_paired_csv`` on the file's text."""
    (xs, ys), _ = _read_columns(text, path, (x_column, y_column))
    return PairedSample(tuple(xs), tuple(ys), label=path.stem)


def _read_once(path, parse, *columns):
    """Read the file once and parse its UTF-8 text, minus a leading byte-order
    mark, with ``parse(text, path, *columns)``; returns (payload, the bytes
    that were parsed, mark included)."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        start = exc.start + (3 if raw.startswith(codecs.BOM_UTF8) else 0)
        raise ValueError(f"{path}: not UTF-8 text at byte offset {start} ({exc.reason})") from None
    return parse(text, path, *columns), raw


def load_csv(path, value_column: str, group_column: str | None = None):
    """Load a Sample (or GroupedSample if ``group_column``) from a CSV file.

    Row order is preserved.  Raises ValueError naming the offending data row
    (1-based, header excluded) for blank or unparseable values.
    """
    return _read_once(path, _parse_csv, value_column, group_column)[0]


def load_paired_csv(path, x_column: str, y_column: str) -> PairedSample:
    """Load two numeric columns as a PairedSample, preserving row order."""
    return _read_once(path, _parse_paired_csv, x_column, y_column)[0]


def write_csv(data, path, value_column: str = "value", group_column: str = "group") -> None:
    """Write a Sample or GroupedSample so load_csv round-trips exactly."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if isinstance(data, GroupedSample):
            writer.writerow([value_column, group_column])
            for v, g in data.rows:
                writer.writerow([repr(v), g])
        elif isinstance(data, Sample):
            writer.writerow([value_column])
            for v in data.values:
                writer.writerow([repr(v)])
        else:
            raise ValueError(f"cannot write {type(data).__name__} as CSV")


# Built-in datasets: nine wellbeing scores with average 60, the strongly
# biased nine with average 85, the six grouped rows (veggie means 196/3,
# omnivore mean 44), and a 500-voter 60% population.
_VEG9 = (74, 65, 57, 78, 54, 47, 38, 34, 93)
_SKEWED9 = (96, 100, 35, 95, 97, 99, 50, 95, 98)
_VEG6_ROWS = (
    (74, "Vegetarian"),
    (65, "Vegetarian"),
    (69, "Omnivore"),
    (37, "Omnivore"),
    (57, "Vegetarian"),
    (26, "Omnivore"),
)


def fixtures() -> tuple[Fixture, ...]:
    """The built-in datasets, byte-stable across builds."""
    return (
        Fixture(
            "veg9",
            Sample(_VEG9, label="veg9"),
            "9 wellbeing scores (0-100 scale), mean 60",
        ),
        Fixture(
            "skewed9",
            Sample(_SKEWED9, label="skewed9"),
            "9 wellbeing scores from a biased sample, mean 85",
        ),
        Fixture(
            "veg6",
            GroupedSample.from_rows(_VEG6_ROWS, label="veg6"),
            "6 wellbeing scores tagged Vegetarian/Omnivore (3 each)",
        ),
        Fixture(
            "poll500",
            PopulationVector((1,) * 300 + (0,) * 200, label="poll500"),
            "500 voters, 300 (60%) for one candidate",
        ),
    )


def get_fixture(name: str) -> Fixture:
    for f in fixtures():
        if f.name == name:
            return f
    raise ValueError(
        f"unknown fixture {name!r}; available: {[f.name for f in fixtures()]}"
    )
