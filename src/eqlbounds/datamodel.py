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
import os
import stat
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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


def _real_array(name: str, values, error: type[ValueError] = ValueError) -> np.ndarray:
    """``np.asarray(values)``, checked to hold real numbers: an array whose
    dtype is neither integer nor floating (bool, complex, string, object)
    raises ``error`` naming the field.

    NumPy picks the dtype of a Python list from all its items, so a bool
    among other numbers is upcast and not seen, and an int outside the
    64-bit range gives an object array, which is rejected.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise error(f"{name} must be real numbers, got an array of dtype {array.dtype}")
    return array


def _feature_names(names, count: int, error: type[ValueError] = ValueError) -> tuple[str, ...]:
    """``names`` as ``count`` feature names, by the package's one rule for names.

    ``None`` gives the default names ``X0, X1, ...``; a plain string is
    rejected, not read one character per name.  Each name is read by
    ``str`` and must be non-empty, be free of surrounding whitespace, not
    start with a byte-order mark (U+FEFF) and differ from every name before
    it.  A fault raises ``error``.
    """
    if isinstance(names, str):
        raise error(f"feature_names must be a sequence of names, not the string {names!r}")
    names = tuple(f"X{i}" for i in range(count)) if names is None else tuple(str(s) for s in names)
    if len(names) != count:
        raise error(f"expected {count} feature names, got {len(names)}")
    first: dict[str, int] = {}
    for i, name in enumerate(names):
        if not name:
            raise error(f"feature {i} has an empty name")
        if name != name.strip():
            raise error(f"feature {i} name {name!r} has surrounding whitespace")
        if name.startswith("\ufeff"):
            raise error(f"feature {i} name {name!r} starts with a byte-order mark")
        if (j := first.setdefault(name, i)) != i:
            raise error(f"feature {i} name {name!r} repeats feature {j}")
    return names


class _Owned:
    """A float64 array that its only holder hands to :class:`Dataset`, which keeps it uncopied."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True, eq=False)
class Dataset:
    """A non-empty, finite feature matrix (rows x features) plus its column names.

    The boundary-fitting protocol trains every row against the target 0,
    so no target is stored.  The points must be real numbers: an array of
    bool, complex, string or object dtype raises :class:`DatasetError`.
    They are copied and frozen on construction; only the array that
    :func:`load_dataset` builds for itself is frozen uncopied.  Each
    feature name is read by ``str`` and must be non-empty, be free of
    surrounding whitespace, not start with a byte-order mark (U+FEFF) and
    not repeat an earlier name, the rule that :func:`constraint_text`
    applies too.
    :func:`load_dataset` strips header cells, rejects empty ones and drops
    a byte-order mark at the start of the file, so only such names survive
    a save and reload.

    ``column_means`` holds the mean of each feature column, computed once
    on construction and frozen like the points; the gradient of the loss's
    mean term is a multiple of it.
    """

    points: np.ndarray
    feature_names: tuple[str, ...] | None = None
    column_means: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.points, _Owned):
            # load_dataset's own array: no one else holds it, so a copy would only double the peak.
            pts = self.points.array
        else:
            pts = np.array(_real_array("points", self.points, DatasetError), dtype=float)
        if pts.ndim != 2:
            raise DatasetError(f"points must be 2-D (rows x features), got shape {pts.shape}")
        n, f = pts.shape
        if f < 1:
            raise DatasetError("dataset needs at least one feature column")
        if n < 1:
            raise EmptyDatasetError("dataset needs at least one row")
        if not _all_finite(pts):
            raise DatasetError("points contain non-finite values")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "feature_names", _feature_names(self.feature_names, f, DatasetError))
        with np.errstate(over="ignore", invalid="ignore"):
            means = pts.mean(axis=0)
            if not _all_finite(means):
                # A column sum overflowed, to inf or, with both signs, to NaN.
                # The scaled values sum to the mean, which overflows only at
                # the edge of the float range.
                means = np.add.reduce(pts / n, axis=0)
        object.__setattr__(self, "column_means", _frozen(means))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]


def load_dataset(path: str | Path) -> Dataset:
    """Read a CSV dataset (UTF-8, comma separated, mandatory header row).

    A byte-order mark at the start of the file, as Excel's "CSV UTF-8"
    writes, is dropped, so it does not become part of the first name.
    The header is the first row that is not blank, read by ``csv``: a
    quoted name keeps the commas and line breaks it holds, and every name
    is stripped of surrounding whitespace.  Below it, every line that is
    not empty is one data row of the header's width.  Body lines end at
    ``\\r``, ``\\n`` or ``\\r\\n``, and their cells are split at every comma,
    with no quoting.  A cell, stripped of surrounding whitespace, must be
    ASCII without ``_`` and read by ``float`` as a finite number.
    :class:`Dataset` makes every check.  On a failure, the error pass names
    the file and its first fault in file order: an empty header name, a
    ragged row, a non-numeric or non-finite cell (rows counted from 1
    below the header, blank lines skipped), then a name Dataset rejects.

    A file that is not a regular file, such as a pipe or a FIFO, can be
    read only once, so its bytes are read whole, before anything is
    decoded, and held.  The header and body are read from them as from a
    file, and a failed load runs the same error pass on them, so a pipe
    gives the same error as a regular file with the same bytes.

    Cost: ``csv.reader`` reads the header from the open file, and NumPy's
    C reader, ``np.loadtxt``, reads a regular file's body from the path in
    chunks.  No Python object is built per row or per cell; float parsing
    is the floor.  A regular file's text is never held whole: the peak is
    the array NumPy grows, which :class:`Dataset` freezes without a copy
    because no one else holds it, about 1.2 times the points' bytes under
    tracemalloc; a pipe's bytes add to that.  On a 2-vCPU Xeon, a
    :func:`save_dataset` file of 10⁶ two-feature rows (38 MB) loads in
    0.9-1.3 s, and the process peaks at 47 MB RSS, 28 MB of it the
    interpreter with NumPy.  Only a failed load runs the error pass.
    """
    path = Path(path)
    raw = None
    try:
        with path.open(encoding="utf-8-sig", newline="") as stream:
            if not stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
                # A pipe cannot be read twice: hold its bytes for the error pass.
                raw = stream.buffer.read()
                stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
            reader = csv.reader(stream)
            header = _header(reader)
            # NumPy decompresses a path by its suffix; a stream it reads as
            # it is, line by line, from where the header ended.
            from_path = raw is None and path.suffix not in _COMPRESSED
            body, skip = (path, reader.line_num) if from_path else (stream, 0)
            with warnings.catch_warnings():
                # An empty body warns; Dataset rejects it.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(body, delimiter=",", comments=None, skiprows=skip, ndmin=2, encoding="utf-8")
        return Dataset(_Owned(data), feature_names=header)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except (ValueError, csv.Error):
        # Decoding, csv, cell and Dataset errors alike: the error pass names them.
        raise _first_fault(path, raw) from None


# The suffixes of the paths that NumPy opens as compressed files.
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _header(reader) -> tuple[str, ...]:
    """The header of a CSV file: the first row of ``reader`` that is not blank, each cell stripped."""
    return tuple(cell.strip() for cell in next(filter(None, reader), []))


def _first_fault(path: Path, raw: bytes | None = None) -> DatasetError:
    """The error for the first fault of the dataset file at ``path``, in file order.

    This is the error pass of :func:`load_dataset` and its only per-cell
    loop.  It decodes the file's bytes as UTF-8 whole, so a decoding error
    gives its position in the file: ``raw`` when given (the bytes of a
    pipe, which cannot be read again), else the file read anew.  Then, as
    the bulk read does, it drops a leading byte-order mark and reads the
    header, and it splits the body into lines and cells as NumPy's C
    reader does.  Last, it judges the header names by :class:`Dataset`'s
    rule.
    """
    try:
        text = (path.read_bytes() if raw is None else raw).decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        return DatasetError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        return DatasetError(f"{path}: {exc}")
    lines = io.StringIO(text, newline="")
    try:
        header = _header(csv.reader(lines))
    except csv.Error as exc:
        return DatasetError(f"{path}: {exc}")
    if not header:
        return EmptyDatasetError(f"{path}: file is empty")
    if not all(header):
        return DatasetError(f"{path}: header has an empty column name")
    rows = filter(None, (line.rstrip("\r\n") for line in lines))
    r = 0
    for r, row in enumerate(rows, start=1):
        cells = row.split(",")
        if len(cells) != len(header):
            return RaggedRowError(f"{path}: row {r} has {len(cells)} cells, expected {len(header)}")
        for c, cell in enumerate(map(str.strip, cells), start=1):
            try:
                # NumPy reads what float reads, but only ASCII and no "_".
                if not cell.isascii() or "_" in cell:
                    raise ValueError
                value = float(cell)
            except ValueError:
                return NonNumericError(f"{path}: non-numeric value {cell!r} at row {r}, col {c}")
            if not math.isfinite(value):
                return NonNumericError(f"{path}: non-finite value at row {r}, col {c}")
    if r == 0:
        return EmptyDatasetError(f"{path}: no data rows below the header")
    try:
        # Only a name that still starts with a byte-order mark or repeats one is left.
        _feature_names(header, len(header), DatasetError)
    except DatasetError as exc:
        return DatasetError(f"{path}: {exc}")
    raise AssertionError(f"{path}: the bulk read failed but no line is bad")


# Data rows written per block: large enough to amortize the write call,
# small enough that the text of one block stays a few hundred kilobytes.
_ROW_BLOCK = 4096


def _write_csv(path: Path, header: Sequence[str], blocks: Iterable[list[list]]) -> None:
    """Write ``header`` through ``csv``, then each row of each block as ``repr`` cells.

    Header names are quoted as ``csv`` quotes them.  Cells must be Python
    ints or floats, one per header name: their ``repr`` never needs
    quoting, so a row joined by commas and ended by CRLF is exactly what
    ``csv.writer`` would write, and a float keeps its full round-trip
    precision.
    """
    line = ",".join(["%r"] * len(header)) + "\r\n"
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in blocks:
            fh.write(line * len(block) % tuple(chain.from_iterable(block)))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV with full float precision (repr round-trip).

    Cost: one ``tolist`` and one ``%`` format per block of rows, with the
    ``repr`` of each value the largest part and the floor: ``%r`` formats
    a block faster than joining ``map(repr, row)`` per row, and
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
    hand-built constraints must already satisfy it.  ``relation`` is a
    :class:`Direction` or its string value.
    """

    coeffs: np.ndarray
    bound: float
    relation: Direction

    def __post_init__(self) -> None:
        a = _reals("coeffs", self.coeffs)
        object.__setattr__(self, "relation", _direction("relation", self.relation))
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
        # At least 0.0010 in magnitude, so the trimmed text is never "0" or "-0".
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return f"{value:.4e}"


def constraint_text(constraint: LinearConstraint, feature_names: Sequence[str] | None = None) -> str:
    """Render a constraint as human-readable text, e.g. ``2.1469 <= 0.4772*X0 + X1``.

    Zero coefficients are elided and unit coefficients print as the bare
    feature name.  ``feature_names`` is read by :class:`Dataset`'s rule for
    names, raising ValueError: a plain string is rejected, not read one
    character per name, each name is read by ``str``, and an empty name or
    one with surrounding whitespace is rejected.
    """
    names = _feature_names(feature_names, constraint.n_features)
    pieces: list[str] = []
    for name, coeff in zip(names, constraint.coeffs):
        if coeff == 0:
            continue
        body = name if abs(coeff) == 1.0 else f"{_display_number(abs(coeff))}*{name}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{' - ' if coeff < 0 else ' + '}{body}")
    # A canonical constraint has a coefficient of 1.0, so pieces is never empty.
    expr = "".join(pieces)
    bound = _display_number(constraint.bound)
    if constraint.relation is Direction.LOWER:
        return f"{bound} <= {expr}"
    return f"{expr} <= {bound}"


def constraint_to_dict(constraint: LinearConstraint) -> dict:
    return _to_json(constraint)


def constraint_from_dict(payload: dict) -> LinearConstraint:
    """Rebuild a constraint from :func:`constraint_to_dict` output.

    A payload that is not an object, an unknown key, a missing key, an
    unknown relation and every value that :class:`LinearConstraint`
    rejects raise ValueError naming the field.
    """
    try:
        return _from_json(LinearConstraint, payload, "constraint")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed constraint payload: {exc}") from exc


def _constraint_file(path: str | Path, suffix: str) -> Path:
    """The ``suffix`` file of the pair that ``path`` names.

    A trailing ``.txt``/``.json`` is stripped and ``suffix`` appended, so
    every dotted part of a base name such as ``fit.seed24`` is kept.
    """
    path = Path(path)
    if path.suffix in (".json", ".txt"):
        path = path.with_suffix("")
    return path.with_name(path.name + suffix)


def save_constraint(
    constraint: LinearConstraint,
    path: str | Path,
    feature_names: Sequence[str] | None = None,
) -> None:
    """Write ``<base>.txt`` (display text) and ``<base>.json`` (lossless).

    ``path`` may be the base name or either of the two file names; a
    trailing ``.txt``/``.json`` suffix is stripped before writing the pair.
    """
    _constraint_file(path, ".txt").write_text(constraint_text(constraint, feature_names) + "\n", encoding="utf-8")
    _constraint_file(path, ".json").write_text(json.dumps(constraint_to_dict(constraint)) + "\n", encoding="utf-8")


def _load_json(path: str | Path, what: str, build):
    """``build`` applied to the JSON object in the file at ``path``, a ``what`` file.

    This reads every JSON file: constraint, region spec and config.  Every
    failure raises ValueError naming the path: an unreadable file, invalid
    JSON, nesting too deep, an int past Python's digit limit, a top-level
    value that is not an object, and a ValueError from ``build``, which
    gets ``"{path}: "`` put before its message, as :func:`load_dataset`
    names a dataset file.  A leading UTF-8 byte-order mark is dropped, as
    ``load_dataset`` drops it.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    try:
        return build(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _to_json(value):
    """``value`` in its JSON form, the one form of every value type's file.

    A value type (a dataclass) is the object of its constructor fields, in
    field order; an array and a tuple are lists, a :class:`Direction` is
    its string value, and anything else is itself.
    """
    if isinstance(value, Direction):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value) if f.init}
    return value


def _from_json(cls, payload, name: str, nested: bool = False, **readers):
    """Build ``cls`` from ``payload``, the JSON object of its constructor fields.

    This reads what :func:`_to_json` writes.  A payload that is not an
    object or has a key that is no constructor field raises ValueError
    naming the object ``name``; a missing field without a default raises
    KeyError naming the field.  ``readers`` maps a field to the function
    that reads its JSON value (a nested object); every other value goes to
    ``cls`` as it is, which checks it.  A ValueError that ``cls`` raises
    for a ``nested`` object gets ``name.`` put before the field it names.
    """
    init = [f for f in fields(cls) if f.init]
    _check_keys(name, payload, [f.name for f in init])
    if missing := [f.name for f in init if f.name not in payload and f.default is MISSING]:
        raise KeyError(missing[0])
    kwargs = {key: readers[key](value) if key in readers else value for key, value in payload.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not nested:
            raise
        raise ValueError(f"{name}.{exc}") from None


def load_constraint(path: str | Path) -> LinearConstraint:
    """Read a constraint from the JSON half of a saved pair; every error names the file."""
    return _load_json(_constraint_file(path, ".json"), "constraint", constraint_from_dict)


def _real(name: str, value) -> float:
    """``value`` as a finite float; a ``bool``, a non-number, a number too large for a float
    and a non-finite value raise ValueError naming the field, from code and from files alike.

    A finite plain ``float`` returns at once: the ``numbers.Real`` check is an ABC check, about
    eight times the cost of the rest, and training passes two floats per masked seed-epoch.
    """
    if type(value) is float and math.isfinite(value):
        return value
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
    """``value``, a :class:`Direction` or its string value, as a Direction, naming the field."""
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
    weights.  ``direction`` is a :class:`Direction` or its string value.
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
        object.__setattr__(self, "direction", _direction("direction", self.direction))


@dataclass(frozen=True)
class TrainConfig:
    """Descent-loop settings: epochs, step size, masking, seeding.

    ``mask_threshold`` is a number ``>= 0``; masking is on exactly when it
    is positive, and ``0`` trains without masking.
    """

    epochs: int = 400
    learning_rate: float = 1e-8
    mask_threshold: float = 0.001
    seed: int = 0
    runs: int = 1

    def __post_init__(self) -> None:
        for name, least in (("epochs", 1), ("runs", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), least)
        object.__setattr__(self, "learning_rate", _real("learning_rate", self.learning_rate))
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        object.__setattr__(self, "mask_threshold", _real("mask_threshold", self.mask_threshold))
        if self.mask_threshold < 0:
            raise ValueError(f"mask_threshold must be >= 0, got {self.mask_threshold}")


class LossBreakdown(NamedTuple):
    """One evaluation of the loss, split by term; ``z`` is the sum of the four terms.

    The loss returns it.  A ``NamedTuple`` of its five fields in order,
    it is its own row of ``TrainReport.records``: ``train`` writes each
    epoch's breakdown, taken at the epoch's start, as that epoch's row, and
    ``_fields`` names the columns.  Like any tuple it compares equal to a
    plain tuple of its values.
    """

    z: float
    term_e: float
    term_p: float
    term_anchor: float
    term_reg: float


@dataclass(frozen=True, eq=False)
class TrainReport:
    """Outcome of one training run: history, constraint, score, seed.

    :func:`~eqlbounds.trainer.train` builds it with a finite violation rate
    and ``records``: a read-only, C-contiguous float64 array of shape
    ``(epochs, 5)``, one finite row per epoch whose columns are the fields
    of :class:`LossBreakdown` in order (``z, term_e, term_p, term_anchor,
    term_reg``), 40 bytes per epoch.
    """

    records: np.ndarray
    constraint: LinearConstraint
    violation_rate: float
    seed: int
