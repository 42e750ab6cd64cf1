"""Value types, CSV/JSON round trips, and validation errors."""

import csv
import dataclasses
import json
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eqlbounds import (
    BallCap,
    Dataset,
    DatasetError,
    Direction,
    EmptyDatasetError,
    LinearConstraint,
    LinearCut,
    LossBreakdown,
    LossConfig,
    NonNumericError,
    RaggedRowError,
    RegionSpec,
    TrainConfig,
    TrainReport,
    constraint_from_dict,
    constraint_text,
    constraint_to_dict,
    generate,
    load_constraint,
    load_dataset,
    save_constraint,
    save_dataset,
)
from eqlbounds.datamodel import _real

from _oracles import csv_load, real_number


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _outcome(load, path):
    """What a loader makes of a file: the parsed dataset, or the error it raised."""
    try:
        ds = load(path)
    except DatasetError as exc:
        return type(exc), str(exc)
    return ds.points.shape, ds.points.tobytes(), ds.feature_names


_needs_pipes = pytest.mark.skipif(not (hasattr(os, "mkfifo") and os.path.isdir("/dev/fd")), reason="needs pipes in /dev/fd")


def _load_from_a_writer(tmp_path, kind, data, timeout=10.0):
    """``(path, _outcome(load_dataset, path))`` for a ``path`` that a thread writes ``data`` into.

    ``kind`` "pipe" names an anonymous pipe's ``/dev/fd`` entry, "fifo" a
    named pipe.  Both threads are joined with a timeout, so a load that
    waits forever fails the test instead of hanging the run.
    """
    read_fd = None
    if kind == "pipe":
        read_fd, write_fd = os.pipe()
        path, sink = f"/dev/fd/{read_fd}", write_fd
    else:
        path = sink = tmp_path / "fifo.csv"
        os.mkfifo(path)

    def feed():
        with open(sink, "wb") as fh:
            fh.write(data)

    result = []
    loader = threading.Thread(target=lambda: result.append(_outcome(load_dataset, path)), daemon=True)
    writer = threading.Thread(target=feed, daemon=True)
    loader.start()
    writer.start()
    try:
        loader.join(timeout)
        writer.join(timeout)
        assert result, f"load_dataset({path}) did not return within {timeout} s"
        assert not writer.is_alive(), f"the writer to {path} did not finish within {timeout} s"
    finally:
        if kind == "fifo" and loader.is_alive():
            # A reader that waits for a writer sees end of file once one comes and goes.
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        if read_fd is not None:
            os.close(read_fd)
    return path, result[0]


# CSV cells that ``float`` reads, reads as non-finite, or rejects, spelled
# with the whitespace, digit separators and case variants it tolerates.
_CELL_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        [
            " 1.5 ", "\t-2\t", "1_0", "1__0", "_1", "1_", "0x10", "1e400", "-1e400", "1e-400",
            "nan", "NaN", "-nan", "inf", "-inf", "+Inf", "Infinity", "-infinity", "iNfInItY",
            "", " ", "abc", "1,5", "1.5.2", "--1", "\u0661\u0662", "\u00a03\u00a0",
        ]
    ),
)


def _csv_field(token, quoted):
    return '"' + token.replace('"', '""') + '"' if quoted or "," in token else token


def _in_body_grammar(field):
    """Whether ``load_dataset`` reads the body cell ``field`` as ``float`` reads it.

    A body cell is never quoted, and stripped of surrounding whitespace it
    must be ASCII without ``_``.
    """
    text = field.strip()
    return '"' not in field and text.isascii() and "_" not in text


@st.composite
def _csv_texts(draw):
    """A CSV text, and whether its body is in ``load_dataset``'s grammar."""
    n_cols = draw(st.integers(1, 3))
    name = st.sampled_from(["X0", "X1", " a ", "b,c", 'q"d', "", "Z"])
    header = [_csv_field(draw(name), draw(st.booleans())) for _ in range(n_cols)]
    lines, in_body_grammar = [",".join(header)], [True]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            in_body_grammar.append(True)
            continue
        width = n_cols + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        cells = [_csv_field(draw(_CELL_TOKENS), draw(st.booleans())) for _ in range(max(width, 0))]
        in_body_grammar.append(all(map(_in_body_grammar, cells)))
        lines.append(",".join(cells))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    # The first line that is not blank is the header, whatever it holds: a
    # header of one empty, unquoted name is a blank line, and then the first
    # body row that is not blank becomes the header.
    header_at = next((i for i, line in enumerate(lines) if line), len(lines))
    return text, all(in_body_grammar[header_at + 1 :])


# Unquoted cells of the plain alphabet ``0-9 + - . e E``, the only cells
# NumPy's C reader sees: reprs, integers, mantissas of up to 25 digits on
# each side with exponents that overflow or underflow, special spellings,
# and malformed tokens that both readers must reject.
_PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.builds(
        "{}{}.{}e{}".format,
        st.sampled_from(["", "-", "+"]),
        st.text("0123456789", max_size=25),
        st.text("0123456789", max_size=25),
        st.integers(-340, 340),
    ),
    st.sampled_from(["1e400", "-1e400", "1e-400", "-0.0", ".5", "5.", "+7", "1E5", "3e+2"]),
)
_PLAIN_MALFORMED = st.sampled_from(["1e", "--1", ".", "+", "1.2.3", "", "e5", "1-2", "1e+", ".e1"])


@st.composite
def _plain_csv_texts(draw):
    """CSV texts whose bodies are mostly plain, with the ways a plain body can still go wrong.

    A clean text has plain, well-formed cells at the header's width; the
    others also hold malformed cells, ragged rows, trailing commas and the
    odd leading space, which is not plain.
    """
    n_cols = draw(st.integers(1, 3))
    clean = draw(st.booleans())
    cell = _PLAIN_NUMBERS if clean else st.one_of(_PLAIN_NUMBERS, _PLAIN_MALFORMED)
    lines = [""] * draw(st.integers(0, 2)) + [",".join(f"X{i}" for i in range(n_cols))]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        width = n_cols if clean else n_cols + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        line = ",".join(draw(cell) for _ in range(max(width, 0)))
        if not clean and draw(st.integers(0, 7)) == 0:
            line = draw(st.sampled_from([line + ",", " " + line]))
        lines.append(line)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n", "\r"]))


# Body cells for the comparison with NumPy's C reader: the whitespace that
# ``str.strip`` strips and ``float`` does not, digits that only ``float``
# reads, quotes, and the characters of numbers and their special spellings.
_LOADTXT_CELLS = st.one_of(
    _PLAIN_NUMBERS,
    st.text(
        st.sampled_from(
            list("0123456789+-.eE_ \t\"infaINFA\v\f\x1c\x1f\x85\xa0")
            + ["\u2028", "\u3000", "\u0661", "\uff11"]
        ),
        max_size=6,
    ),
)


@st.composite
def _loadtxt_bodies(draw):
    """Data lines of up to three cells (a line of none is blank), each with one of the three line ends."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        lines.append(",".join(draw(_LOADTXT_CELLS) for _ in range(draw(st.integers(0, 3)))))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


class TestLoadDataset:
    def test_two_by_two(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.csv", "X0,X1\n1.0,2.0\n3.0,4.0\n"))
        assert ds.n_points == 2
        assert ds.n_features == 2
        assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.feature_names == ("X0", "X1")

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_dataset(write(tmp_path, "d.csv", "X0,X1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_dataset(write(tmp_path, "d.csv", ""))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        with pytest.raises(NonNumericError, match=r"row 2, col 1"):
            load_dataset(write(tmp_path, "d.csv", "X0\n1\nfoo\n"))

    def test_ragged_row_reports_position(self, tmp_path):
        with pytest.raises(RaggedRowError, match=r"row 2"):
            load_dataset(write(tmp_path, "d.csv", "X0,X1\n1,2\n3\n"))

    def test_non_finite_cell_rejected(self, tmp_path):
        with pytest.raises(NonNumericError, match=r"row 1, col 2"):
            load_dataset(write(tmp_path, "d.csv", "X0,X1\n1,inf\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "absent.csv")

    def test_blank_lines_skipped(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.csv", "X0\n\n1\n\n2\n"))
        assert ds.n_points == 2

    @pytest.mark.parametrize(
        "body, error, message",
        [
            ("1,inf\n2\n", NonNumericError, "non-finite value at row 1, col 2"),
            ("3\n1,inf\n", RaggedRowError, "row 1 has 1 cells, expected 2"),
            ("1,2\n1,foo\n1,2,3\n", NonNumericError, "non-numeric value 'foo' at row 2, col 2"),
            ("1,2\n1,2,3\n4,bar\n", RaggedRowError, "row 2 has 3 cells, expected 2"),
            ("nan,foo\n", NonNumericError, "non-finite value at row 1, col 1"),
            ("foo,nan\n", NonNumericError, "non-numeric value 'foo' at row 1, col 1"),
            ("1, 1e400 \n", NonNumericError, "non-finite value at row 1, col 2"),
            ("1, 2e0 \n\n -Infinity ,x\n", NonNumericError, "non-finite value at row 2, col 1"),
            ("1,  b a d  \n", NonNumericError, "non-numeric value 'b a d' at row 1, col 2"),
        ],
    )
    def test_first_error_in_file_order(self, tmp_path, body, error, message):
        path = write(tmp_path, "d.csv", "X0,X1\n" + body)
        with pytest.raises(error) as raised:
            load_dataset(path)
        assert str(raised.value) == f"{path}: {message}"
        with pytest.raises(error) as expected:
            csv_load(path)
        assert str(expected.value) == str(raised.value)

    @pytest.mark.parametrize(
        "body, error, message",
        [
            ('1," 1e400 "\n', NonNumericError, "non-numeric value '\" 1e400 \"' at row 1, col 2"),
            ("1, 2_0 \n\n -Infinity ,x\n", NonNumericError, "non-numeric value '2_0' at row 1, col 2"),
            ('1,"  b a d  "\n', NonNumericError, "non-numeric value '\"  b a d  \"' at row 1, col 2"),
            ('"1,2"\n3,4\n', NonNumericError, "non-numeric value '\"1' at row 1, col 1"),
            ('"1\n2",3\n', RaggedRowError, "row 1 has 1 cells, expected 2"),
            ("1,2\n\u0661,\uff11\n", NonNumericError, "non-numeric value '\u0661' at row 2, col 1"),
        ],
    )
    def test_quotes_separators_and_other_digits_are_rejected_in_file_order(self, tmp_path, body, error, message):
        path = write(tmp_path, "d.csv", "X0,X1\n" + body)
        with pytest.raises(error) as raised:
            load_dataset(path)
        assert str(raised.value) == f"{path}: {message}"

    @settings(max_examples=400, deadline=None)
    @given(drawn=_csv_texts())
    @example(drawn=('\n"0.0"\n0.0', True))
    def test_matches_cell_by_cell_reader(self, tmp_path_factory, drawn):
        text, in_grammar = drawn
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8")
        if in_grammar:
            assert _outcome(load_dataset, path) == _outcome(csv_load, path)
        else:
            with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: "):
                load_dataset(path)

    @settings(max_examples=400, deadline=None)
    @given(text=_plain_csv_texts())
    @example(text="X0,X1\r1,2\r\r3,4\r")
    @example(text="\n\nX0\n1e400\n")
    @example(text="X0,X1\r\n1,2,\r\n")
    def test_plain_body_matches_cell_by_cell_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    @settings(max_examples=400, deadline=None)
    @given(blanks=st.integers(0, 2), n_cols=st.integers(1, 3), body=_loadtxt_bodies())
    @example(blanks=0, n_cols=1, body="1_0\n")
    @example(blanks=0, n_cols=1, body="\u0661\n")
    @example(blanks=0, n_cols=1, body="\uff11\n")
    @example(blanks=0, n_cols=1, body="\x1c1\n")
    def test_loads_exactly_what_numpy_reads(self, tmp_path_factory, blanks, n_cols, body):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        header = ",".join(f"X{i}" for i in range(n_cols))
        path.write_text("\n" * blanks + header + "\n" + body, encoding="utf-8", newline="")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                expected = np.loadtxt(
                    path, delimiter=",", comments=None, skiprows=blanks + 1, ndmin=2, encoding="utf-8"
                )
        except ValueError:
            expected = None
        if expected is not None and expected.shape[1:] == (n_cols,) and expected.size and np.isfinite(expected).all():
            assert load_dataset(path).points.tobytes() == expected.tobytes()
        else:
            with pytest.raises(DatasetError) as raised:
                load_dataset(path)
            at_a_row = r"(at row \d+, col \d+|row \d+ has \d+ cells, expected \d+|no data rows below the header)$"
            assert re.match(f"{re.escape(str(path))}: .*{at_a_row}", str(raised.value))

    @pytest.mark.parametrize("text", ["X0,X1\n\n\r\n\n", '"a\nb",c\r\r\r', "\n\nX0"])
    def test_blank_body_is_empty_without_a_warning(self, tmp_path, text):
        path = write(tmp_path, "d.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyDatasetError) as raised:
                load_dataset(path)
        assert str(raised.value) == f"{path}: no data rows below the header"

    def test_overflow_cell_reports_position(self, tmp_path):
        path = write(tmp_path, "d.csv", "X0,X1\n1,2\n3,1e400\n")
        with pytest.raises(NonNumericError) as raised:
            load_dataset(path)
        assert str(raised.value) == f"{path}: non-finite value at row 2, col 2"

    @pytest.mark.parametrize(
        "text, names",
        [
            ('"a\nb",c\n1,2\n\n3,4\n', ("a\nb", "c")),
            ('"a\nb",c\r\n1,2\r\n\r\n3,4\r\n', ("a\nb", "c")),
            ('"a\rb",c\r1,2\r\r3,4\r', ("a\rb", "c")),
            ('\n\r\n\r"a\nb",c\n1,2\n\n3,4', ("a\nb", "c")),
            ('"a\r\nb",c\n1,2\n3,4\n', ("a\r\nb", "c")),
            ('"a\n\r\n\rb",c\r\n1,2\n3,4\n', ("a\n\r\n\rb", "c")),
        ],
        ids=["lf", "crlf", "cr", "leading-blank-lines", "crlf-in-a-name", "blank-lines-in-a-name"],
    )
    def test_multi_line_quoted_header_then_plain_body(self, tmp_path, text, names):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        ds = load_dataset(path)
        assert ds.feature_names == names
        assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    def test_one_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "X0\n1.5\n-2\n3e2\n")
        ds = load_dataset(path)
        assert ds.points.shape == (3, 1)
        assert np.array_equal(ds.points, [[1.5], [-2.0], [300.0]])
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    def test_generated_file_matches_oracle(self, tmp_path):
        square = RegionSpec([[-5.0, 25.0], [-5.0, 25.0]], (LinearCut([1.0, 2.0], 4.0),))
        original = generate(square, 20_000, seed=0)
        path = tmp_path / "d.csv"
        save_dataset(original, path)
        loaded = load_dataset(path)
        assert loaded.points.tobytes() == original.points.tobytes()
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    @pytest.mark.parametrize("suffix", [".bz2", ".gz", ".lzma", ".xz"])
    def test_saved_file_with_a_compressed_suffix_loads(self, tmp_path, suffix):
        original = generate(RegionSpec([[-5.0, 25.0], [-5.0, 25.0]]), 100, seed=0)
        path = tmp_path / f"d.csv{suffix}"
        save_dataset(original, path)
        assert load_dataset(path).points.tobytes() == original.points.tobytes()

    def test_plain_load_peaks_near_the_file_size(self, tmp_path):
        square = RegionSpec([[-5.0, 25.0], [-5.0, 25.0]], (LinearCut([1.0, 2.0], 4.0),))
        path = tmp_path / "d.csv"
        save_dataset(generate(square, 20_000, seed=0), path)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loaded = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        # The array NumPy's reader grows and the copy that Dataset freezes;
        # holding the file's bytes or text breaks it.
        assert peak <= 3 * loaded.points.nbytes

    # A pipe or FIFO can be read only once, so NumPy reads its body from
    # the open stream; a quoted header name spans two lines here.
    @_needs_pipes
    @pytest.mark.parametrize("kind", ["pipe", "fifo"])
    def test_pipe_or_fifo_loads_what_the_regular_file_loads(self, tmp_path, kind):
        original = generate(RegionSpec([[-5.0, 25.0], [-5.0, 25.0]]), 5000, seed=0)
        regular = tmp_path / "d.csv"
        save_dataset(Dataset(original.points, feature_names=("a\nb", "c")), regular)
        _, loaded = _load_from_a_writer(tmp_path, kind, regular.read_bytes())
        assert loaded == _outcome(load_dataset, regular)
        assert loaded[1] == original.points.tobytes()

    # A pipe's bytes are held, so its error pass reads them as a file's reads the file.
    @_needs_pipes
    @pytest.mark.parametrize("kind", ["pipe", "fifo"])
    @pytest.mark.parametrize(
        "body",
        [b"X0,X1\n1,2\n3,x\n", b"X0,X1\n1,2\n3\n", b"X0,X1\n1,2\nnan,4\n", b"X0,X1\n1,\xe9\n", b"", b"X0,X1\n"],
        ids=["bad-cell", "ragged-row", "nan", "not-utf-8", "empty", "header-only"],
    )
    def test_bad_cell_in_a_pipe_or_fifo_names_the_path(self, tmp_path, kind, body):
        regular = tmp_path / "d.csv"
        regular.write_bytes(body)
        error, message = _outcome(load_dataset, regular)
        assert message.startswith(f"{regular}: ")
        path, loaded = _load_from_a_writer(tmp_path, kind, body)
        assert loaded == (error, message.replace(str(regular), str(path), 1))

    def test_cell_at_the_csv_field_limit_loads(self, tmp_path):
        path = write(tmp_path, "d.csv", "X0\n" + "0" * (csv.field_size_limit() - 1) + "1\n")
        assert np.array_equal(load_dataset(path).points, [[1.0]])

    def test_body_cell_past_the_csv_field_limit_loads(self, tmp_path):
        path = write(tmp_path, "d.csv", "X0\n" + "0" * csv.field_size_limit() + "1\n")
        assert np.array_equal(load_dataset(path).points, [[1.0]])

    def test_header_cell_past_the_csv_field_limit_fails_as_before(self, tmp_path):
        path = write(tmp_path, "d.csv", "X" * (csv.field_size_limit() + 1) + "\n1\n")
        with pytest.raises(DatasetError) as expected:
            csv_load(path)
        with pytest.raises(DatasetError) as raised:
            load_dataset(path)
        assert str(raised.value).startswith(f"{path}: field larger than field limit")
        assert str(raised.value) == str(expected.value)

    # After a byte-order mark the position stays a file offset, as the oracle gives it.
    @pytest.mark.parametrize(
        "text", [b"X0\n1\xe9\n", b"X\xe90\n1\n", b"X0\n1\n" * 5000 + b"\xff\n", b"\xef\xbb\xbfX0\n1\xe9\n"]
    )
    def test_file_not_utf8_names_the_file(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(DatasetError) as raised:
            load_dataset(path)
        assert str(raised.value).startswith(f"{path}: 'utf-8' codec can't decode")
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    # Excel's "CSV UTF-8" starts the file with a byte-order mark.
    @pytest.mark.parametrize("name", ["d.csv", "d.csv.gz"])
    @pytest.mark.parametrize("lead", ["", "\n"], ids=["header-first", "blank-first"])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, name, lead):
        path = tmp_path / name
        path.write_text(lead + "X0,X1\n1.0,2.0\n3.0,4.0\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        ds = load_dataset(path)
        assert ds.feature_names == ("X0", "X1")
        assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    # Past the one at the start of the file, a mark stays in the name, which
    # Dataset rejects; the error names the file, as every load error does.
    @pytest.mark.parametrize(
        "header, feature",
        [("X0,\ufeffX1", "feature 1 name '\\ufeffX1'"), ("\ufeff\ufeffX0,X1", "feature 0 name '\\ufeffX0'")],
        ids=["later-name", "doubled"],
    )
    def test_byte_order_mark_left_in_a_name_is_an_error_naming_the_file(self, tmp_path, header, feature):
        path = write(tmp_path, "d.csv", header + "\n1,2\n")
        with pytest.raises(DatasetError) as raised:
            load_dataset(path)
        assert str(raised.value) == f"{path}: {feature} starts with a byte-order mark"
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    # A solver could not tell the columns of X0,X0 apart in a constraint's text.
    @pytest.mark.parametrize("header", ["X0,X0", "X0, X0 ", "X0,X1,X0"], ids=["plain", "stripped", "apart"])
    def test_repeated_name_is_an_error_naming_the_file(self, tmp_path, header):
        last = header.count(",")
        path = write(tmp_path, "d.csv", header + "\n" + "1," * last + "2\n")
        with pytest.raises(DatasetError) as raised:
            load_dataset(path)
        assert str(raised.value) == f"{path}: feature {last} name 'X0' repeats feature 0"
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    # Dataset checks the points before the names; the report follows file order.
    def test_byte_order_mark_left_in_a_name_yields_to_a_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "d.csv", "X0,\ufeffX1\n1,2\n3,nan\n")
        with pytest.raises(NonNumericError) as raised:
            load_dataset(path)
        assert str(raised.value) == f"{path}: non-finite value at row 2, col 2"
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    # The body is read before any name is judged, yet the header comes first.
    def test_empty_header_name_is_reported_before_a_ragged_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "X0,,X2\n1,2,3\n4,5\n")
        with pytest.raises(DatasetError) as raised:
            load_dataset(path)
        assert type(raised.value) is DatasetError
        assert str(raised.value) == f"{path}: header has an empty column name"
        assert _outcome(load_dataset, path) == _outcome(csv_load, path)

    @pytest.mark.parametrize(
        "body, message",
        [("1,2\n3,x\n", "non-numeric value 'x' at row 2, col 2"), ("1,2\n3\n", "row 2 has 1 cells, expected 2")],
        ids=["non-numeric", "ragged"],
    )
    @pytest.mark.parametrize("lead", ["", "\n"], ids=["header-first", "blank-first"])
    def test_byte_order_mark_moves_no_reported_position(self, tmp_path, body, message, lead):
        # Before a blank line the mark must not count as a header of its own.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(lead + "X0,X1\n" + body, encoding="utf-8")
        marked.write_text(lead + "X0,X1\n" + body, encoding="utf-8-sig")
        with pytest.raises(DatasetError) as without_mark:
            load_dataset(plain)
        with pytest.raises(DatasetError) as with_mark:
            load_dataset(marked)
        assert str(without_mark.value) == f"{plain}: {message}"
        assert str(with_mark.value) == f"{marked}: {message}"
        assert _outcome(load_dataset, marked) == _outcome(csv_load, marked)

    def test_quoted_body_cell_is_not_a_number(self, tmp_path):
        path = write(tmp_path, "d.csv", 'X0\n"1\n2"\n')
        with pytest.raises(NonNumericError) as raised:
            load_dataset(path)
        assert str(raised.value) == f"{path}: non-numeric value '\"1' at row 1, col 1"

    def test_other_line_ends_do_not_end_a_row(self, tmp_path):
        path = write(tmp_path, "d.csv", '"a\vb",c\x1c\n1,2\v\n3\x85,\u20284\x0c\n')
        ds = load_dataset(path)
        assert ds.feature_names == ("a\vb", "c")
        assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])
        path = write(tmp_path, "e.csv", "X0\n1\u20282\n")
        with pytest.raises(NonNumericError) as raised:
            load_dataset(path)
        assert str(raised.value) == f"{path}: non-numeric value '1\\u20282' at row 1, col 1"


_SAVED_POINTS = hnp.arrays(
    float,
    st.tuples(st.integers(1, 20), st.integers(1, 4)),
    elements=st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 2.5e-310, sys.float_info.max, -sys.float_info.max]),
)
_SAVED_NAMES = st.lists(
    st.text(st.sampled_from('ab ,"X\n\r'), min_size=1, max_size=5).filter(lambda s: s == s.strip()),
    min_size=4,
    max_size=4,
    # A Dataset rejects a repeated name.
    unique=True,
)


class TestDatasetRoundTrip:
    def test_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        original = Dataset(rng.standard_normal((7, 3)) * 1e3)
        save_dataset(original, tmp_path / "d.csv")
        loaded = load_dataset(tmp_path / "d.csv")
        assert np.array_equal(loaded.points, original.points)
        assert loaded.feature_names == original.feature_names

    def test_awkward_floats_survive(self, tmp_path):
        original = Dataset(np.array([[0.1 + 0.2, 1.0 / 3.0], [1e-15, -2.5e17]]))
        save_dataset(original, tmp_path / "d.csv")
        assert np.array_equal(load_dataset(tmp_path / "d.csv").points, original.points)

    @settings(max_examples=200, deadline=None)
    @given(points=_SAVED_POINTS, names=_SAVED_NAMES)
    @example(
        points=np.array([[-0.0, 5e-324], [sys.float_info.max, -sys.float_info.max]]),
        names=["a,b", 'q"', "X", "Y"],
    )
    @example(points=np.ones((1, 4)), names=["a\nb", "c\rd", "e\r\nf", 'g"\n\r"h'])
    def test_bit_identical(self, tmp_path_factory, points, names):
        original = Dataset(points, feature_names=names[: points.shape[1]])
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_dataset(original, path)
        loaded = load_dataset(path)
        assert loaded.points.shape == original.points.shape
        assert loaded.points.tobytes() == original.points.tobytes()
        assert loaded.feature_names == original.feature_names


class TestDatasetValidation:
    def test_default_feature_names(self):
        assert Dataset(np.ones((1, 3))).feature_names == ("X0", "X1", "X2")

    def test_rejects_one_dimensional_points(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones(5))

    def test_rejects_zero_rows(self):
        with pytest.raises(EmptyDatasetError, match="at least one row"):
            Dataset(np.empty((0, 2)))

    def test_rejects_nan(self):
        with pytest.raises(DatasetError):
            Dataset(np.array([[1.0, float("nan")]]))

    def test_rejects_wrong_name_count(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones((2, 2)), feature_names=("A",))

    # The points follow the package's rule for numbers: no bool, complex,
    # string or object array, and no OverflowError or ComplexWarning.
    @pytest.mark.parametrize(
        "points, dtype",
        [
            ([["1", "2"]], "<U1"),
            (np.array([[True, False]]), "bool"),
            (np.array([[1 + 2j, 3]]), "complex128"),
            ([[10**400, 1]], "object"),
            ([[None, 1.0]], "object"),
        ],
        ids=["strings", "bools", "complex", "int-too-large-for-a-float", "none"],
    )
    def test_points_must_be_real_numbers(self, points, dtype):
        with pytest.raises(DatasetError) as raised:
            Dataset(points)
        assert str(raised.value) == f"points must be real numbers, got an array of dtype {dtype}"

    @pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.float16, np.float32, np.float64])
    def test_integer_and_floating_points_become_float64(self, dtype):
        ds = Dataset(np.array([[1, 2]], dtype=dtype))
        assert ds.points.dtype == np.float64 and ds.points.tolist() == [[1.0, 2.0]]

    def test_column_means_when_the_column_sum_overflows_both_ways(self):
        # The sum meets inf and -inf, which is NaN, not inf.
        big = sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = Dataset(np.array([big, big] + [-big] * 6)[:, None])
        assert ds.column_means.tolist() == [-big / 2]

    def test_rejects_a_string_of_names_naming_the_field(self):
        with pytest.raises(DatasetError, match="^feature_names must be a sequence of names, not the string 'XY'$"):
            Dataset(np.ones((2, 2)), feature_names="XY")

    # Names that load_dataset could not give back: it rejects an empty
    # header cell, strips the others and drops a leading byte-order mark.
    @pytest.mark.parametrize(
        ("names", "message"),
        [
            (("", "b"), "feature 0 has an empty name"),
            ((" a", "b"), "feature 0 name ' a' has surrounding whitespace"),
            (("a", "b\t"), "feature 1 name 'b\\t' has surrounding whitespace"),
            (("\ufeffa", "b"), "feature 0 name '\\ufeffa' starts with a byte-order mark"),
            (("a", "a"), "feature 1 name 'a' repeats feature 0"),
        ],
        ids=["empty", "leading-space", "trailing-tab", "byte-order-mark", "repeated"],
    )
    def test_rejects_names_that_do_not_reload_naming_the_feature(self, names, message):
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            Dataset(np.ones((1, 2)), feature_names=names)

    def test_arrays_are_frozen(self):
        ds = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.points.setflags(write=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.points = np.zeros((2, 2))


# Arrays checked once and then shared read-only; ``Dataset``'s own arrays are
# covered by ``test_arrays_are_frozen``.
OWNED_ARRAYS = {
    "LinearConstraint.coeffs": lambda: LinearConstraint([0.5, 1.0], 2.0, Direction.LOWER).coeffs,
    "LinearCut.coeffs": lambda: LinearCut([1.0, 2.0], 4.0).coeffs,
    "BallCap.center": lambda: BallCap([0.0, 0.0], 1.0).center,
    "RegionSpec.box": lambda: RegionSpec([[0.0, 1.0], [0.0, 2.0]]).box,
}


@pytest.mark.parametrize("owned", OWNED_ARRAYS.values(), ids=OWNED_ARRAYS.keys())
def test_owned_arrays_stay_read_only(owned):
    arr = owned()
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    with pytest.raises(ValueError):
        arr.setflags(write=True)


class TestConstraintText:
    def test_two_feature_lower(self):
        c = LinearConstraint(np.array([0.4772, 1.0]), 2.1469, Direction.LOWER)
        assert constraint_text(c) == "2.1469 <= 0.4772*X0 + X1"

    def test_single_feature_lower(self):
        c = LinearConstraint(np.array([1.0]), -4.402, Direction.LOWER)
        assert constraint_text(c) == "-4.402 <= X0"

    def test_zero_coefficient_elided(self):
        c = LinearConstraint(np.array([0.0, 1.0]), 0.0, Direction.UPPER)
        assert constraint_text(c) == "X1 <= 0"

    def test_rejects_a_string_of_names_naming_the_field(self):
        c = LinearConstraint(np.array([0.5, 1.0]), 0.0, Direction.UPPER)
        with pytest.raises(ValueError, match="^feature_names must be a sequence of names, not the string 'XY'$"):
            constraint_text(c, "XY")

    def test_negative_coefficient_joiner(self):
        c = LinearConstraint(np.array([-2.5, 1.0]), 1.0, Direction.LOWER)
        assert constraint_text(c) == "1 <= -2.5*X0 + X1"
        c = LinearConstraint(np.array([1.0, -0.75, 1.0]), 0.5, Direction.UPPER)
        assert constraint_text(c) == "X0 - 0.75*X1 + X2 <= 0.5"

    def test_tiny_coefficient_uses_scientific_notation(self):
        c = LinearConstraint(np.array([2.614e-5, 1.0]), 0.0, Direction.LOWER)
        assert "2.6140e-05*X0" in constraint_text(c)

    def test_custom_feature_names(self):
        c = LinearConstraint(np.array([2.0, 1.0]), 0.0, Direction.LOWER)
        assert constraint_text(c, ("a", "b")) == "0 <= 2*a + b"

    # The edges of fixed notation, and a constraint of one coefficient.
    @pytest.mark.parametrize(
        "value, text",
        [
            (1e-3, "0.001"),
            (-1e-3, "-0.001"),
            (math.nextafter(1e5, 0), "100000"),
            (-math.nextafter(1e5, 0), "-100000"),
            (math.nextafter(1e-3, 0), "1.0000e-03"),
            (1e5, "1.0000e+05"),
        ],
    )
    def test_numbers_at_the_edges_of_fixed_notation(self, value, text):
        assert constraint_text(LinearConstraint(np.array([1.0]), value, Direction.LOWER)) == f"{text} <= X0"
        c = LinearConstraint(np.array([value, 1.0]), 0.0, Direction.UPPER)
        assert constraint_text(c) == f"{text}*X0 + X1 <= 0"

    def test_name_count_mismatch(self):
        c = LinearConstraint(np.array([1.0]), 0.0, Direction.LOWER)
        with pytest.raises(ValueError):
            constraint_text(c, ("a", "b"))

    # Names are read by Dataset's rule: each is read by str, and a name that
    # Dataset rejects is rejected here with Dataset's message.
    def test_int_names_are_read_as_text(self):
        c = LinearConstraint(np.array([0.5, 1.0]), 2.0, Direction.LOWER)
        assert constraint_text(c, [1, 2]) == "2 <= 0.5*1 + 2"
        assert constraint_text(c, (1.5, 2)) == "2 <= 0.5*1.5 + 2"

    @pytest.mark.parametrize(
        "names, message",
        [
            (("a", ""), "feature 1 has an empty name"),
            ((" a", "b"), "feature 0 name ' a' has surrounding whitespace"),
            (("a", "b\n"), "feature 1 name 'b\\n' has surrounding whitespace"),
            (("\ufeffa", "b"), "feature 0 name '\\ufeffa' starts with a byte-order mark"),
            ((1, "1"), "feature 1 name '1' repeats feature 0"),
        ],
        ids=["empty", "leading-space", "trailing-newline", "byte-order-mark", "repeated"],
    )
    def test_names_dataset_rejects_are_rejected(self, names, message):
        c = LinearConstraint(np.array([0.5, 1.0]), 2.0, Direction.LOWER)
        with pytest.raises(ValueError) as raised:
            constraint_text(c, names)
        assert type(raised.value) is ValueError and str(raised.value) == message


class TestConstraintValidation:
    def test_requires_canonical_lead(self):
        with pytest.raises(ValueError, match="canonical"):
            LinearConstraint(np.array([1.0, 2.0]), 0.0, Direction.LOWER)

    def test_requires_some_coefficient(self):
        with pytest.raises(ValueError):
            LinearConstraint(np.array([0.0, 0.0]), 0.0, Direction.LOWER)

    def test_sub_epsilon_trailing_coefficients_ignored_for_lead(self):
        c = LinearConstraint(np.array([1.0, 1e-12]), 0.0, Direction.LOWER)
        assert c.n_features == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinearConstraint(np.array([np.inf, 1.0]), 0.0, Direction.LOWER)
        with pytest.raises(ValueError):
            LinearConstraint(np.array([1.0]), float("nan"), Direction.LOWER)

    def test_rejects_non_direction_relation(self):
        with pytest.raises(ValueError, match="^relation must be 'lower' or 'upper', got 'above'$"):
            LinearConstraint(np.array([1.0]), 0.0, "above")

    @pytest.mark.parametrize("direction", list(Direction))
    def test_relation_is_read_from_its_string_value(self, direction):
        assert LinearConstraint(np.array([1.0]), 0.0, direction.value).relation is direction

    @pytest.mark.parametrize("value", [True, "1"])
    @pytest.mark.parametrize("field", ["bound", "coeffs[0]"])
    def test_rejects_bool_or_string_naming_the_field(self, field, value):
        coeffs, bound = ([value, 1.0], 0.0) if field == "coeffs[0]" else ([0.5, 1.0], value)
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a number, got {value!r}")):
            LinearConstraint(coeffs, bound, Direction.LOWER)


class TestConstraintFiles:
    def test_save_writes_text_and_json(self, tmp_path):
        c = LinearConstraint(np.array([0.4772, 1.0]), 2.1469, Direction.LOWER)
        save_constraint(c, tmp_path / "c")
        text = (tmp_path / "c.txt").read_text(encoding="utf-8")
        assert text == "2.1469 <= 0.4772*X0 + X1\n"
        payload = json.loads((tmp_path / "c.json").read_text(encoding="utf-8"))
        assert payload == {"coeffs": [0.4772, 1.0], "bound": 2.1469, "relation": "lower"}

    # The exact text of the JSON half, key order and spacing included, as other tools may read it.
    def test_saved_json_bytes(self, tmp_path):
        c = LinearConstraint(np.array([-0.0, 1e-300, 1.0]), 0.1 + 0.2, Direction.UPPER)
        save_constraint(c, tmp_path / "c")
        assert (tmp_path / "c.json").read_bytes().decode("utf-8") == (
            '{"coeffs": [-0.0, 1e-300, 1.0], "bound": 0.30000000000000004, "relation": "upper"}\n'
        )

    def test_round_trip_any_suffix(self, tmp_path):
        c = LinearConstraint(np.array([-1.0 / 3.0, 1.0]), 0.1 + 0.2, Direction.UPPER)
        save_constraint(c, tmp_path / "c.txt")
        for name in ("c", "c.json", "c.txt"):
            loaded = load_constraint(tmp_path / name)
            assert np.array_equal(loaded.coeffs, c.coeffs)
            assert loaded.bound == c.bound
            assert loaded.relation is c.relation

    def test_dotted_base_names_keep_their_last_part(self, tmp_path):
        pair = {
            "fit.seed24": LinearConstraint(np.array([0.5, 1.0]), 1.0, Direction.LOWER),
            "fit.seed25": LinearConstraint(np.array([2.0, 1.0]), -3.0, Direction.UPPER),
        }
        for base, c in pair.items():
            save_constraint(c, tmp_path / base)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fit.seed24.json", "fit.seed24.txt", "fit.seed25.json", "fit.seed25.txt"
        ]
        for base, c in pair.items():
            for name in (base, base + ".json", base + ".txt"):
                loaded = load_constraint(tmp_path / name)
                assert (loaded.coeffs.tolist(), loaded.bound, loaded.relation) == (c.coeffs.tolist(), c.bound, c.relation)

    def test_dict_round_trip(self):
        c = LinearConstraint(np.array([0.25, 1.0]), -7.0, Direction.UPPER)
        again = constraint_from_dict(constraint_to_dict(c))
        assert np.array_equal(again.coeffs, c.coeffs)
        assert again.bound == c.bound
        assert again.relation is c.relation

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            constraint_from_dict({"coeffs": [1.0]})

    @pytest.mark.parametrize("value", [None, [1.0], {"a": 1.0}, True, "1.0"])
    @pytest.mark.parametrize("field", ["bound", "coeffs[0]"])
    def test_non_number_is_malformed_naming_the_field(self, field, value):
        payload = {"coeffs": [0.5, 1.0], "bound": 1.0, "relation": "lower"}
        if field == "bound":
            payload["bound"] = value
        else:
            payload["coeffs"] = [value, 1.0]
        with pytest.raises(ValueError) as raised:
            constraint_from_dict(payload)
        assert str(raised.value) == f"malformed constraint payload: {field} must be a number, got {value!r}"

    @pytest.mark.parametrize("field", ["bound", "coeffs[0]"])
    def test_int_too_large_for_a_float_is_malformed_naming_the_field(self, field):
        payload = {"coeffs": [0.5, 1.0], "bound": 1.0, "relation": "lower"}
        if field == "bound":
            payload["bound"] = 10**400
        else:
            payload["coeffs"] = [10**400, 1.0]
        with pytest.raises(ValueError) as raised:
            constraint_from_dict(payload)
        assert str(raised.value) == (
            f"malformed constraint payload: {field} must be finite, got a number too large for a float"
        )

    @pytest.mark.parametrize("coeffs", [None, 1.0, "ab", {"a": 1.0}])
    def test_coeffs_not_a_list_is_malformed(self, coeffs):
        with pytest.raises(ValueError, match=r"^malformed constraint payload: coeffs must be a list"):
            constraint_from_dict({"coeffs": coeffs, "bound": 1.0, "relation": "lower"})

    def test_unknown_key_is_malformed_naming_it(self):
        with pytest.raises(ValueError) as raised:
            constraint_from_dict({"coeffs": [0.5, 1.0], "bound": 1.0, "relation": "lower", "bonud": 7})
        assert str(raised.value) == "malformed constraint payload: unknown constraint keys: ['bonud']"

    @pytest.mark.parametrize("payload", [None, [1.0], "lower"])
    def test_non_object_is_malformed(self, payload):
        with pytest.raises(ValueError) as raised:
            constraint_from_dict(payload)
        assert str(raised.value) == f"malformed constraint payload: constraint must be an object, got {payload!r}"

    def test_unknown_relation_is_malformed_naming_the_field(self):
        with pytest.raises(ValueError) as raised:
            constraint_from_dict({"coeffs": [1.0], "bound": 1.0, "relation": "above"})
        assert str(raised.value) == "malformed constraint payload: relation must be 'lower' or 'upper', got 'above'"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_constraint(tmp_path / "absent.json")


class FloatSubclass(float):
    pass


# Everything a caller or a file can hand the rule for numbers: plain floats
# (the fast path) and every other kind of value it must treat as before.
outside_numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, sys.float_info.max]),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**1024, 2**1024 - 2**970]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats().map(FloatSubclass),
    st.fractions(),
    st.sampled_from([Fraction(10**400), Fraction(1, 3)]),
    st.decimals(),
    st.text(max_size=5),
    st.none(),
)


def rule_outcome(rule, value):
    """("ok", type, bits) of what ``rule`` returns, or (exception type, message)."""
    try:
        number = rule("x", value)
    except Exception as exc:  # the comparison covers every exception type
        return type(exc), str(exc)
    return "ok", type(number), number.hex()


class TestRuleForNumbers:
    """``datamodel._real``, with its plain-float fast path, against the rule as first written."""

    @settings(max_examples=600, deadline=None)
    @given(value=outside_numbers)
    def test_same_value_or_same_error_as_the_first_written_rule(self, value):
        assert rule_outcome(_real, value) == rule_outcome(real_number, value)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert (cfg.alpha1, cfg.alpha2, cfg.alpha3) == (1.0, 0.5, 0.5)
        assert cfg.gamma == 5.0
        assert cfg.direction is Direction.LOWER
        assert (cfg.l1, cfg.l2) == (0.05, 0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha1": -0.1},
            {"alpha1": 0.0, "alpha2": 0.0, "alpha3": 0.0},
            {"gamma": 0.0},
            {"gamma": 100.5},
            {"l1": -1.0},
            {"l2": float("nan")},
            {"direction": "sideways"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_direction_is_read_from_its_string_value(self, direction):
        assert LossConfig(direction=direction.value) == LossConfig(direction=direction)

    @pytest.mark.parametrize(
        "kwargs",
        [{name: bad} for name in ("alpha1", "alpha2", "alpha3", "gamma", "l1", "l2") for bad in (True, "5")],
        ids=repr,
    )
    def test_rejects_non_number_naming_it(self, kwargs):
        ((name, value),) = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
            LossConfig(**kwargs)

    @pytest.mark.parametrize("name", ["alpha1", "alpha2", "alpha3", "gamma", "l1", "l2"])
    def test_rejects_int_too_large_for_a_float_naming_it(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got a number too large for a float$"):
            LossConfig(**{name: 10**400})

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LossConfig().gamma = 1.0


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 400
        assert cfg.learning_rate == 1e-8
        assert cfg.mask_threshold == 0.001
        assert cfg.runs == 1

    def test_mask_can_be_disabled(self):
        assert TrainConfig(mask_threshold=0.0).mask_threshold == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"mask_threshold": -0.5},
            {"runs": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"epochs": 2.5}, {"epochs": True}, {"runs": 1.5}, {"runs": True}, {"seed": 1.5}, {"seed": False}],
    )
    def test_rejects_non_integer_count_naming_it(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{name: bad} for name in ("learning_rate", "mask_threshold") for bad in (True, "5", None)],
        ids=repr,
    )
    def test_rejects_non_number_naming_it(self, kwargs):
        ((name, value),) = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name", ["learning_rate", "mask_threshold"])
    def test_rejects_int_too_large_for_a_float_naming_it(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got a number too large for a float$"):
            TrainConfig(**{name: 10**400})


class TestLossBreakdown:
    def test_is_a_tuple_of_its_five_fields_in_order(self):
        breakdown = LossBreakdown(1.0, 0.1, 0.2, 0.3, 0.4)
        assert isinstance(breakdown, tuple)
        assert LossBreakdown._fields == ("z", "term_e", "term_p", "term_anchor", "term_reg")
        assert breakdown == (1.0, 0.1, 0.2, 0.3, 0.4)
        assert (breakdown.z, breakdown.term_reg) == (1.0, 0.4)


class TestTrainReport:
    def record(self):
        return LossBreakdown(1.0, 0.1, 0.2, 0.3, 0.4)

    def test_holds_records(self):
        c = LinearConstraint(np.array([1.0]), 0.0, Direction.LOWER)
        report = TrainReport(np.array([tuple(self.record())] * 2), c, 2.5, seed=7)
        assert report.records.shape == (2, 5)
        assert report.seed == 7
