"""Shared value types: datasets, configs, constraints, and training reports.

Everything defined here is an immutable value object.  File I/O keeps full
float precision (``repr`` round-trip in CSV, native floats in JSON) so that
saved artifacts reload bit-for-bit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# A coefficient below this magnitude counts as absent when canonicalizing
# or displaying a constraint.
COEFF_EPS = 1e-9


class DatasetError(ValueError):
    """Malformed dataset file or invalid dataset contents."""


class EmptyDatasetError(DatasetError):
    """Dataset file contains no data rows."""


class RaggedRowError(DatasetError):
    """CSV row with the wrong number of cells."""


class NonNumericError(DatasetError):
    """CSV cell that does not parse as a finite number."""


class Direction(Enum):
    """Which side of a surface an inequality bounds.

    Used both for the training objective (LOWER seeks constraints of the
    form ``bound <= f(x)``, UPPER the reverse) and for the relation of an
    extracted :class:`LinearConstraint`.
    """

    LOWER = "lower"
    UPPER = "upper"

    def flipped(self) -> "Direction":
        return Direction.UPPER if self is Direction.LOWER else Direction.LOWER


def _frozen(array: np.ndarray) -> np.ndarray:
    """Make ``array`` read-only and return a read-only view of it.

    A view of a read-only base cannot be made writable again, so whatever
    the owner checked on construction holds for good; only a deliberate
    ``.base`` access can undo it.
    """
    array.setflags(write=False)
    return array.view()


def _all_finite(values: np.ndarray) -> bool:
    """``np.isfinite(values).all()`` in fewer steps.

    ``isfinite`` is a C ufunc; ``np.count_nonzero`` is a thin Python
    dispatcher over C.  On the small arrays of the training loop this is
    still faster than ``.all()`` or ``np.logical_and.reduce(..., axis=None)``
    (about 1.4 against 2.3 µs on a 4×2 array, one CPU).
    """
    return np.count_nonzero(np.isfinite(values)) == values.size


def default_feature_names(n_features: int) -> tuple[str, ...]:
    return tuple(f"X{i}" for i in range(n_features))


@dataclass(frozen=True, eq=False)
class Dataset:
    """A non-empty, finite feature matrix (rows x features) plus its column names.

    The boundary-fitting protocol trains every row against the target 0,
    so no target is stored.  The points are copied and frozen on
    construction.  Each feature name must be non-empty and free of
    surrounding whitespace: :func:`load_dataset` strips header cells and
    rejects empty ones, so only such names survive a save and reload.
    """

    points: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise DatasetError(f"points must be 2-D (rows x features), got shape {pts.shape}")
        n, f = pts.shape
        if f < 1:
            raise DatasetError("dataset needs at least one feature column")
        if n < 1:
            raise EmptyDatasetError("dataset needs at least one row")
        if not _all_finite(pts):
            raise DatasetError("points contain non-finite values")
        names = self.feature_names
        names = default_feature_names(f) if names is None else tuple(str(s) for s in names)
        if len(names) != f:
            raise DatasetError(f"expected {f} feature names, got {len(names)}")
        for i, name in enumerate(names):
            if not name:
                raise DatasetError(f"feature {i} has an empty name")
            if name != name.strip():
                raise DatasetError(f"feature {i} name {name!r} has surrounding whitespace")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "feature_names", names)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]


def load_dataset(path: str | Path) -> Dataset:
    """Read a CSV dataset (UTF-8, comma separated, mandatory header row).

    The header names the feature columns; every later row must hold the
    same number of finite numeric cells, each parsed by Python's ``float``
    (surrounding whitespace, ``_`` digit separators and any spelling of
    ``inf``/``nan`` are read the way ``float`` reads them).  Blank rows are
    skipped, and a quoted cell keeps the line breaks it spans.  Errors,
    decoding and csv errors included, name the file; they report the first
    bad row or cell in file order, with rows counted from 1 starting at the
    first row below the header.

    Cost: the file is read once, as bytes.  ``csv.reader`` reads the header
    row from a text wrapper over them.  A plain body is checked on the
    bytes and goes to NumPy's C reader, ``np.loadtxt``, from the same
    wrapper; it builds no Python object per row, and float parsing is the
    floor.  Plain means at least one data row, only ASCII digits, ``+-.eE``,
    commas and line ends, no line longer than ``csv.field_size_limit()``
    without its end, and a finite result as wide as the header.  The
    bytes are dropped before :class:`Dataset` copies the array, so a plain
    load allocates about twice the file size at its peak.  On a 2-vCPU
    Xeon, a :func:`save_dataset` file of 10⁶ two-feature rows (38 MB)
    loads in about 0.5 s, and the process peaks at 87 MB RSS, 32 MB of it
    the interpreter with NumPy.
    Every file :func:`save_dataset` writes is plain.  Everything else takes
    the slow path: the decoded text split into lines, ``csv.reader`` row
    lists, one ``np.fromiter`` over ``float`` and one ``isfinite`` check.
    That covers quoted cells, whitespace, ``_``, ``inf``/``nan`` spellings,
    non-ASCII text, a body with no data row, a header that holds a line end
    ``csv`` does not know and any body that ``np.loadtxt`` rejects.  Both
    paths accept the same files with the same errors.  Only when a check
    fails does the error path walk the cells one by one to name the first
    bad one.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    plain = _plain_data(raw)
    if plain is None:
        try:
            lines = _csv_lines(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: {exc}") from exc
    # Each input is dropped as soon as it is parsed, which keeps the peak
    # memory of a large load down.
    del raw
    if plain is not None:
        header, data = plain
    else:
        reader = csv.reader(lines)
        try:
            header = next(filter(None, reader), [])
            # The whole body is read before the header is checked, so a csv
            # error in the body still comes first.
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise DatasetError(f"{path}: {exc}") from exc
        del lines, reader
    if not header:
        raise EmptyDatasetError(f"{path}: file is empty")
    header = [cell.strip() for cell in header]
    if any(not name for name in header):
        raise DatasetError(f"{path}: header has an empty column name")
    if plain is None:
        data = _row_data(path, rows, len(header))
    return Dataset(data, feature_names=tuple(header))


# Line ends that ``str.splitlines`` knows and ``csv`` does not.
_OTHER_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _csv_lines(text: str) -> list[str]:
    """The lines of ``text`` for ``csv.reader``, split where ``str.splitlines`` splits.

    A line keeps a ``\\r`` or ``\\n`` end, so a quoted cell that spans one
    keeps it as ``csv.writer`` wrote it; every other line end is dropped.
    """
    lines = text.splitlines(keepends=True)
    return [line[:-1] if line[-1] in _OTHER_LINE_ENDS else line for line in lines]


# Every byte a plain CSV body may hold, and the first one of a data row.
_PLAIN_BYTES = b"0123456789+-.eE,\r\n"
_ROW_BYTE = re.compile(rb"[^\r\n]")


def _plain_data(raw: bytes) -> tuple[list[str], np.ndarray] | None:
    """The header row and the plain body of the CSV bytes ``raw``, read by ``np.loadtxt``, or None.

    None sends :func:`load_dataset` to its slow path.  The header lines are
    split at ``\\r``, ``\\n`` and ``\\r\\n`` only; a header that holds another
    line end, fails to decode or raises a csv error is left to the slow
    path, which splits and reports it as before.  On a plain body
    ``csv.reader`` splits at every comma and ``float`` reads each cell as
    the C reader does, so whatever this accepts the slow path accepts with
    the same bits, and whatever it refuses the slow path handles as before.
    """
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as stream:
        # csv.reader takes one line at a time; ``head`` keeps those it took.
        head: list[str] = []
        reader = csv.reader(head.append(line) or line for line in stream)
        try:
            header = next(filter(None, reader), [])
        except (UnicodeDecodeError, csv.Error):
            return None
        head_text = "".join(head)
        if not set(_OTHER_LINE_ENDS).isdisjoint(head_text):
            return None
        head_bytes = head_text.encode("utf-8")
        start = len(head_bytes)
        # Deleting the plain bytes leaves the header's own others only if
        # the body holds none.
        if raw.translate(None, _PLAIN_BYTES) != head_bytes.translate(None, _PLAIN_BYTES):
            return None
        if _ROW_BYTE.search(raw, start) is None or not _lines_fit(raw, start, csv.field_size_limit()):
            return None
        try:
            data = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            return None
    if data.shape[1] != len(header) or not _all_finite(data):
        return None
    return header, data


def _lines_fit(raw: bytes, start: int, limit: int) -> bool:
    """Whether no line of ``raw[start:]`` is longer than ``limit`` bytes without its end.

    ``start`` must begin a line.  Each step looks at the next ``limit + 1``
    bytes: with no line end among them the line is too long; otherwise
    every line that starts before the last of them fits, and the next step
    starts after it.  A body of short lines takes one step per ``limit``
    bytes, and no step copies.
    """
    while len(raw) - start > limit:
        stop = start + limit + 1
        last = max(raw.rfind(b"\n", start, stop), raw.rfind(b"\r", start, stop))
        if last < 0:
            return False
        start = last + 1
    return True


def _row_data(path: Path, rows: list[list[str]], n_cols: int) -> np.ndarray:
    """The data ``rows`` that ``csv.reader`` split, converted by ``float``: the slow path.

    One row-length pass, one ``np.fromiter`` over every cell and one
    ``isfinite`` check; no Python code runs per cell unless a check fails.
    """
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows below the header")
    data = None
    if set(map(len, rows)) == {n_cols}:
        try:
            data = np.fromiter(map(float, chain.from_iterable(rows)), float, len(rows) * n_cols)
        except ValueError:
            pass
    if data is None or not np.isfinite(data).all():
        raise _first_bad_cell(path, rows, n_cols)
    return data.reshape(len(rows), n_cols)


def _first_bad_cell(path: Path, rows: list[list[str]], n_cols: int) -> DatasetError:
    """The error for the first ragged row or bad cell of the data ``rows``, in file order.

    This is the error path of :func:`load_dataset` and its only per-cell
    loop; it runs only after the bulk parse has found a fault.
    """
    for r, row in enumerate(rows, start=1):
        if len(row) != n_cols:
            return RaggedRowError(f"{path}: row {r} has {len(row)} cells, expected {n_cols}")
        for c, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                return NonNumericError(f"{path}: non-numeric value {cell.strip()!r} at row {r}, col {c}")
            if not math.isfinite(value):
                return NonNumericError(f"{path}: non-finite value at row {r}, col {c}")
    raise AssertionError(f"{path}: the bulk parse failed but no cell is bad")


# Data rows written per block: large enough to amortize the write call,
# small enough that the text of one block stays a few hundred kilobytes.
_ROW_BLOCK = 4096


def _write_csv(path: Path, header: Sequence[str], blocks: Iterable[list[list]]) -> None:
    """Write ``header`` through ``csv``, then each row of each block as ``repr`` cells.

    Header names are quoted as ``csv`` quotes them.  Cells must be Python
    ints or floats: their ``repr`` never needs quoting, so a row joined by
    commas and ended by CRLF is exactly what ``csv.writer`` would write, and
    a float keeps its full round-trip precision.
    """
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in blocks:
            fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in block]))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV with full float precision (repr round-trip).

    Cost: one ``tolist``, one ``repr`` per value and one string join per
    block of rows, with ``repr`` the largest part and the floor:
    ``ndarray.astype(str)`` gives the same text but is slower.  The file is
    written block by block, so memory does not grow with the dataset.
    """
    pts = dataset.points
    blocks = (pts[i : i + _ROW_BLOCK].tolist() for i in range(0, len(pts), _ROW_BLOCK))
    _write_csv(Path(path), dataset.feature_names, blocks)


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """A linear inequality ``coeffs . x`` vs ``bound`` in canonical form.

    Canonical form: the highest-indexed coefficient with magnitude at least
    COEFF_EPS equals exactly 1.0.  The extraction module produces this form;
    hand-built constraints must already satisfy it.
    """

    coeffs: np.ndarray
    bound: float
    relation: Direction

    def __post_init__(self) -> None:
        a = _reals("coeffs", self.coeffs)
        if not isinstance(self.relation, Direction):
            raise ValueError(f"relation must be a Direction, got {self.relation!r}")
        significant = (np.abs(a) >= COEFF_EPS).nonzero()[0]
        if significant.size == 0:
            raise ValueError("constraint has no coefficient of significant magnitude")
        lead = significant[-1]
        if a[lead] != 1.0:
            raise ValueError(
                f"constraint is not canonical: coefficient {lead} is {a[lead]!r}, expected 1.0"
            )
        object.__setattr__(self, "coeffs", _frozen(a))
        object.__setattr__(self, "bound", _real("bound", self.bound))

    @property
    def n_features(self) -> int:
        return self.coeffs.size


def _display_number(value: float) -> str:
    """Format a number with four decimals, trimming trailing zeros.

    Magnitudes outside [1e-3, 1e5) switch to scientific notation so that
    tiny surviving terms stay visible instead of printing as 0.
    """
    if value == 0:
        return "0"
    mag = abs(value)
    if 1e-3 <= mag < 1e5:
        text = f"{value:.4f}".rstrip("0").rstrip(".")
        return "0" if text in ("-0", "") else text
    return f"{value:.4e}"


def constraint_text(constraint: LinearConstraint, feature_names: Sequence[str] | None = None) -> str:
    """Render a constraint as human-readable text, e.g. ``2.1469 <= 0.4772*X0 + X1``.

    Zero coefficients are elided and unit coefficients print as the bare
    feature name.
    """
    names = (
        default_feature_names(constraint.n_features)
        if feature_names is None
        else tuple(feature_names)
    )
    if len(names) != constraint.n_features:
        raise ValueError(f"expected {constraint.n_features} feature names, got {len(names)}")
    pieces: list[str] = []
    for name, coeff in zip(names, constraint.coeffs):
        if coeff == 0:
            continue
        body = name if abs(coeff) == 1.0 else f"{_display_number(abs(coeff))}*{name}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{' - ' if coeff < 0 else ' + '}{body}")
    expr = "".join(pieces) if pieces else "0"
    bound = _display_number(constraint.bound)
    if constraint.relation is Direction.LOWER:
        return f"{bound} <= {expr}"
    return f"{expr} <= {bound}"


def constraint_to_dict(constraint: LinearConstraint) -> dict:
    return {
        "coeffs": [float(v) for v in constraint.coeffs],
        "bound": constraint.bound,
        "relation": constraint.relation.value,
    }


def constraint_from_dict(payload: dict) -> LinearConstraint:
    """Rebuild a constraint from :func:`constraint_to_dict` output.

    A missing key, an unknown relation and every value that
    :class:`LinearConstraint` rejects raise ValueError naming the field.
    """
    try:
        return LinearConstraint(payload["coeffs"], payload["bound"], _direction("relation", payload["relation"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed constraint payload: {exc}") from exc


def _constraint_base(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix in (".json", ".txt"):
        return path.with_suffix("")
    return path


def save_constraint(
    constraint: LinearConstraint,
    path: str | Path,
    feature_names: Sequence[str] | None = None,
) -> None:
    """Write ``<base>.txt`` (display text) and ``<base>.json`` (lossless).

    ``path`` may be the base name or either of the two file names; a
    trailing ``.txt``/``.json`` suffix is stripped before writing the pair.
    """
    base = _constraint_base(path)
    base.with_suffix(".txt").write_text(
        constraint_text(constraint, feature_names) + "\n", encoding="utf-8"
    )
    base.with_suffix(".json").write_text(
        json.dumps(constraint_to_dict(constraint)) + "\n", encoding="utf-8"
    )


def read_json_object(path: str | Path, what: str) -> dict:
    """Read a JSON file whose top-level value must be an object.

    Every failure (unreadable file, invalid JSON, nesting too deep, an int
    past Python's digit limit, any other top-level value) raises ValueError
    naming the path; ``what`` says which kind of file was expected.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return payload


def load_constraint(path: str | Path) -> LinearConstraint:
    """Read a constraint from the JSON half of a saved pair."""
    target = _constraint_base(path).with_suffix(".json")
    return constraint_from_dict(read_json_object(target, "constraint"))


def _real(name: str, value) -> float:
    """``value`` as a finite float; a ``bool``, a non-number, a number too large for a float
    and a non-finite value raise ValueError naming the field, from code and from files alike.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


def _reals(name: str, values, depth: int = 1) -> np.ndarray:
    """A non-empty list of numbers (of such lists, all one length, at ``depth`` 2) as a float
    array, checked by :func:`_real`.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    if not values:
        raise ValueError(f"{name} must not be empty")
    if depth > 1:
        rows = [_reals(f"{name}[{i}]", v, depth - 1) for i, v in enumerate(values)]
        for i, row in enumerate(rows):
            if row.shape != rows[0].shape:
                raise ValueError(f"{name}[{i}] has length {len(row)}, but {name}[0] has length {len(rows[0])}")
        return np.array(rows)
    return np.array([_real(f"{name}[{i}]", v) for i, v in enumerate(values)], dtype=float)


def _check_integer(name: str, value, least: int) -> None:
    """Reject a ``bool``, a non-integer or a value below ``least``, naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_keys(name: str, payload, known) -> None:
    """Reject a non-object or a key outside ``known``, naming the object."""
    if not isinstance(payload, dict):
        raise ValueError(f"{name} must be an object, got {payload!r}")
    if unknown := set(payload) - set(known):
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")


def _direction(name: str, value) -> Direction:
    """Read a direction from its string value, naming the field."""
    try:
        return Direction(value)
    except ValueError:
        raise ValueError(f"{name} must be 'lower' or 'upper', got {value!r}") from None


@dataclass(frozen=True)
class LossConfig:
    """Weights and knobs for the three-term boundary loss.

    alpha1 scales the signed error mean, alpha2 the quadratic penalty on
    the percentile subset, alpha3 the worst-error anchor.  gamma is the
    percentile width in percent.  l1/l2 regularize the output-layer
    weights.
    """

    alpha1: float = 1.0
    alpha2: float = 0.5
    alpha3: float = 0.5
    gamma: float = 5.0
    direction: Direction = Direction.LOWER
    l1: float = 0.05
    l2: float = 0.05

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "alpha3", "gamma", "l1", "l2"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.alpha1 + self.alpha2 + self.alpha3 <= 0:
            raise ValueError("at least one alpha must be positive")
        if not (0 < self.gamma <= 100):
            raise ValueError(f"gamma must lie in (0, 100], got {self.gamma}")
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Descent-loop settings: epochs, step size, masking, seeding."""

    epochs: int = 400
    learning_rate: float = 1e-8
    mask_threshold: float | None = 0.001
    seed: int = 0
    runs: int = 1

    def __post_init__(self) -> None:
        for name, least in (("epochs", 1), ("runs", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), least)
        object.__setattr__(self, "learning_rate", _real("learning_rate", self.learning_rate))
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.mask_threshold is not None:
            object.__setattr__(self, "mask_threshold", _real("mask_threshold", self.mask_threshold))
            if self.mask_threshold < 0:
                raise ValueError(f"mask_threshold must be >= 0 or None, got {self.mask_threshold}")


@dataclass(frozen=True)
class LossBreakdown:
    """One evaluation of the loss, split by term; ``z`` is the sum of the four terms.

    The loss returns it and a training report holds one per epoch, recorded
    at the epoch's start.
    """

    z: float
    term_e: float
    term_p: float
    term_anchor: float
    term_reg: float


_RECORD_FIELDS = tuple(f.name for f in fields(LossBreakdown))
_RECORD_VALUES = attrgetter(*_RECORD_FIELDS)


@dataclass(frozen=True, eq=False)
class TrainReport:
    """Outcome of one training run: history, constraint, score, seed."""

    records: tuple[LossBreakdown, ...]
    constraint: LinearConstraint
    violation_rate: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise ValueError("a training report needs at least one epoch record")
        # Record by record, value by value, with no Python frame per record.
        if not all(map(math.isfinite, chain.from_iterable(map(_RECORD_VALUES, self.records)))):
            raise ValueError("epoch records contain non-finite values")
        if not math.isfinite(self.violation_rate):
            raise ValueError("violation_rate must be finite")
