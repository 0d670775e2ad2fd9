"""The `splitwald test` CSV reader against its record-by-record oracle."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitwald import cli
from oracle import read_csv_oracle

# (id, file text, y column, x columns). Every file but the header-only one
# must parse exactly as the oracle parses it, or fail with the same error.
CORPUS = [
    # cell syntax
    ("plain", "y,x1\n1.5,-2.25\n3,4\n", "y", ["x1"]),
    ("quoted", 'y,x1\n"1.5","-2.25"\n3,4\n', "y", ["x1"]),
    ("quoted-padded", 'y,x1\n" 1.5 ",-2.25\n3,4\n', "y", ["x1"]),
    ("nan", "y,x1\nnan,1\n2,NaN\n", "y", ["x1"]),
    ("inf", "y,x1\ninf,1\n2,+Inf\n", "y", ["x1"]),
    ("neg-infinity", "y,x1\n-Infinity,1\n2,3\n", "y", ["x1"]),
    ("underscore", "y,x1\n1_000,2\n3,4\n", "y", ["x1"]),
    ("fullwidth-digit", "y,x1\n１,2\n3,4\n", "y", ["x1"]),
    ("hex", "y,x1\n0x10,2\n", "y", ["x1"]),
    ("fortran-exponent", "y,x1\n1.5d0,2\n", "y", ["x1"]),
    ("unicode-minus", "y,x1\n−1.5,2\n", "y", ["x1"]),
    ("float-forms", "y,x1\n+1.5,1E5\n.5,4.\n", "y", ["x1"]),
    ("nbsp-padded", "y,x1\n\xa01.5\xa0,2\n3,4\n", "y", ["x1"]),
    ("nul", "y,x1\n1.5\x00,2\n", "y", ["x1"]),
    # row shape
    ("short-row", "y,x1\n1,2\n3\n5,6\n", "y", ["x1"]),
    ("blank-middle-line", "y,x1\n1,2\n\n5,6\n", "y", ["x1"]),
    ("whitespace-line", "y,x1\n1,2\n   \n5,6\n", "y", ["x1"]),
    ("tab-field", "y,x1\n1,2\n3,\t\n", "y", ["x1"]),
    ("trailing-comma", "y,x1\n1,2,\n3,4,\n", "y", ["x1"]),
    ("longer-row", "y,x1\n1,2,3,4\n5,6\n", "y", ["x1"]),
    ("trailing-blank-line", "y,x1\n1,2\n3,4\n\n", "y", ["x1"]),
    # comments and text columns
    ("hash-in-cell", "y,x1\n1,2#3\n", "y", ["x1"]),
    ("hash-line", "y,x1\n1,2\n# note\n3,4\n", "y", ["x1"]),
    ("text-column", "d,y,note,x1\n2000-01,1.5,up,2\n2000-02,2.5,dn,3\n", "y", ["x1"]),
    # line endings
    ("crlf", "y,x1\r\n1,2\r\n3,4\r\n", "y", ["x1"]),
    ("bare-cr", "y,x1\r1,2\r3,4\r", "y", ["x1"]),
    ("no-final-eol", "y,x1\n1,2\n3,4", "y", ["x1"]),
    ("final-bare-cr", "y,x1\n1,2\n3,4\r", "y", ["x1"]),
    ("form-feed-row-end", "y,x1\n1,2\x0c\n3,4\n", "y", ["x1"]),
    ("vertical-tab-unused", "y,x1,note\n1,2,a\x0bb\n3,4,c\n", "y", ["x1"]),
    # quoting
    ("quoted-comma-unused", 'y,note,x1\n1,"a,b",2\n3,c,4\n', "y", ["x1"]),
    ("doubled-quote-unused", 'y,note,x1\n1,"a""b",2\n3,c,4\n', "y", ["x1"]),
    ("quoted-newline-unused", 'y,note,x1\n1,"a\nb",2\n3,c,4\n', "y", ["x1"]),
    ("unbalanced-quote", 'y,x1\n"1.5,2\n3,4\n', "y", ["x1"]),
    ("mid-field-quote", 'y,x1\n1"5",2\n', "y", ["x1"]),
    ("space-after-quote", 'y,x1\n"1.5" ,2\n', "y", ["x1"]),
    # the one case where the reader departs from the oracle
    ("header-only", "y,x1\n", "y", ["x1"]),
]
PARITY = [case for case in CORPUS if case[0] != "header-only"]
# Files that one np.loadtxt call parses: the row scanner must not run.
CLEAN = [
    "plain", "quoted", "quoted-padded", "nan", "float-forms", "nbsp-padded",
    "trailing-comma", "longer-row", "text-column", "crlf", "no-final-eol",
    "final-bare-cr", "form-feed-row-end", "vertical-tab-unused",
    "quoted-comma-unused", "doubled-quote-unused", "space-after-quote",
]  # fmt: skip


def ids(cases):
    return [case[0] for case in cases]


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def outcome(read, path, y_col, x_cols):
    """``("ok", y bytes, X bytes, X shape)`` or ``("error", type, message)``."""
    try:
        y, X = read(path, y_col, x_cols)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))
    assert y.dtype == X.dtype == np.float64
    return ("ok", y.tobytes(), X.tobytes(), X.shape)


def assert_same_as_oracle(path, y_col, x_cols):
    expected = outcome(read_csv_oracle, path, y_col, x_cols)
    assert outcome(cli._read_csv, path, y_col, x_cols) == expected
    return expected


@pytest.fixture
def scan_calls(monkeypatch):
    """How many times the reader fell back to its row scanner."""
    calls = []
    scan = cli._scan_rows

    def spy(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(cli, "_scan_rows", spy)
    return calls


class TestCorpus:
    @pytest.mark.parametrize("name, text, y_col, x_cols", PARITY, ids=ids(PARITY))
    def test_matches_oracle(self, tmp_path, name, text, y_col, x_cols):
        assert_same_as_oracle(write(tmp_path / f"{name}.csv", text), y_col, x_cols)

    @pytest.mark.parametrize("name, text, y_col, x_cols", CORPUS, ids=ids(CORPUS))
    def test_cli_exits_2_with_one_error_line(
        self, tmp_path, capsys, name, text, y_col, x_cols
    ):
        # Each file fails: to parse, or for too few rows after lagging.
        path = write(tmp_path / f"{name}.csv", text)
        assert cli.main(["test", str(path), "--y", y_col, "--x", ",".join(x_cols)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, line",
        [
            ("y,x1,n" + "a" * 200_000 + "\n1,2,3\n3,4,5\n", 1),
            # the non-numeric cell sends the body to the row scanner
            ("y,x1,note\n1,2," + "a" * 200_000 + "\nabc,4,c\n", 2),
        ],
        ids=["header", "body"],
    )
    def test_field_over_csv_limit_exits_2_with_one_error_line(
        self, tmp_path, capsys, text, line
    ):
        path = write(tmp_path / "big.csv", text)
        assert cli.main(["test", str(path), "--y", "y", "--x", "x1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR:SplitwaldError: {path}: line {line}: field larger")
        assert err.count("\n") == 1

    def test_header_only_gives_empty_arrays_without_a_warning(self, tmp_path, capsys):
        path = write(tmp_path / "header-only.csv", "y,x1,x2\n")
        with pytest.raises(IndexError):  # the oracle's crash
            read_csv_oracle(path, "y", ["x1", "x2"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, X = cli._read_csv(path, "y", ["x1", "x2"])
            assert cli.main(["test", str(path), "--y", "y", "--x", "x1,x2"]) == 2
        assert y.shape == (0,) and X.shape == (0, 2)
        assert capsys.readouterr().err.startswith("ERROR:TooFewRows:")

    def test_unusual_values_parse_as_float_reads_them(self, tmp_path):
        path = write(tmp_path / "u.csv", "y,x1\n1_000,１\n-Infinity,\xa0.5\n")
        y, X = cli._read_csv(path, "y", ["x1"])
        assert y.tolist() == [1000.0, -np.inf] and X.tolist() == [[1.0], [0.5]]


class TestFastPath:
    @pytest.mark.parametrize("name", CLEAN)
    def test_clean_file_skips_the_scanner(self, tmp_path, scan_calls, name):
        _, text, y_col, x_cols = next(c for c in CORPUS if c[0] == name)
        assert_same_as_oracle(write(tmp_path / "f.csv", text), y_col, x_cols)
        assert scan_calls == []

    def test_large_clean_file_skips_the_scanner(self, tmp_path, scan_calls):
        gen = np.random.default_rng(3)
        path = tmp_path / "big.csv"
        np.savetxt(path, gen.standard_normal((2000, 4)), fmt="%.12g", delimiter=",",
                   header="y,x1,x2,x3", comments="")  # fmt: skip
        assert_same_as_oracle(path, "y", ["x3", "x1"])
        assert scan_calls == []

    def test_underscore_takes_the_scanner(self, tmp_path, scan_calls):
        _, text, y_col, x_cols = next(c for c in CORPUS if c[0] == "underscore")
        assert_same_as_oracle(write(tmp_path / "f.csv", text), y_col, x_cols)
        assert len(scan_calls) == 1


finite = st.floats(allow_nan=False, allow_infinity=False)
cells = st.tuples(finite, st.sampled_from([repr, "%.17g".__mod__]))
notes = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def csv_tables(draw):
    """Predictor names, the header in a random order with a text column,
    each row's (value, format) cells for y and the predictors, and the notes."""
    x_cols = [f"x{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    header = draw(st.permutations(["y", *x_cols, "note"]))
    width = len(x_cols) + 1
    row = st.lists(cells, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    texts = draw(st.lists(notes, min_size=len(rows), max_size=len(rows)))
    return x_cols, header, rows, texts


@given(table=csv_tables(), eol=st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=60, deadline=None)
def test_random_doubles_match_oracle(tmp_path_factory, table, eol):
    x_cols, header, rows, texts = table
    path = tmp_path_factory.getbasetemp() / "random.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=eol)
        writer.writerow(header)
        for row, text in zip(rows, texts):
            cell = {name: fmt(v) for name, (v, fmt) in zip(["y", *x_cols], row)}
            cell["note"] = text
            writer.writerow([cell[name] for name in header])
    # A text with a line break that csv.writer leaves unquoted splits its
    # record, and both readers reject the file the same way.
    if assert_same_as_oracle(path, "y", x_cols)[0] == "ok":
        y, X = cli._read_csv(path, "y", x_cols)
        assert y.tolist() == [row[0][0] for row in rows]
        assert X.tolist() == [[v for v, _ in row[1:]] for row in rows]
