"""CSV ingestion and provenance digests."""

import csv
import hashlib
import io
import math
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nullform import dataio
from nullform.dataio import Dataset, file_digest, ingest_csv
from nullform.errors import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_basic_ingestion(tmp_path):
    ds = ingest_csv(write(tmp_path, "y\n1\n2\n3\n"))
    assert ds.column_names == ("y",)
    assert ds.column("y") == (1.0, 2.0, 3.0)
    assert ds.n_rows == 3
    assert ds.dropped_rows == 0
    assert ds.row_labels is None


def test_no_header_names_columns_positionally(tmp_path):
    ds = ingest_csv(write(tmp_path, "1,10\n2,20\n"), header=False)
    assert ds.column_names == ("col0", "col1")
    assert ds.column("col1") == (10.0, 20.0)


def test_blank_cell_drops_row_and_counts_it(tmp_path):
    ds = ingest_csv(write(tmp_path, "y,x\n1,4\n,5\n3,6\n"))
    assert ds.n_rows == 2
    assert ds.dropped_rows == 1
    assert ds.column("y") == (1.0, 3.0)


def test_non_numeric_and_nonfinite_cells_drop_rows(tmp_path):
    ds = ingest_csv(write(tmp_path, "y\n1\nabc\nnan\ninf\n4\n"))
    assert ds.column("y") == (1.0, 4.0)
    assert ds.dropped_rows == 3


def test_short_row_dropped(tmp_path):
    ds = ingest_csv(write(tmp_path, "y,x\n1,2\n3\n5,6\n"))
    assert ds.n_rows == 2
    assert ds.dropped_rows == 1


def test_column_selection_restricts_and_orders(tmp_path):
    ds = ingest_csv(write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n"), columns=("c", "a"))
    assert ds.column_names == ("c", "a")
    assert ds.column("c") == (3.0, 6.0)
    assert ds.column("a") == (1.0, 4.0)


def test_column_selection_by_position_among_the_non_label_columns(tmp_path):
    path = write(tmp_path, "name,a,b\nx,1,2\ny,3,4\n")
    ds = ingest_csv(path, columns=(0, "b"), label_column="name")
    assert ds.column_names == ("a", "b")
    # a column given by position and by name is kept once
    assert ingest_csv(path, columns=(1, "b"), label_column="name").column_names == ("b",)
    assert ingest_csv(path, columns=(1,)).column_names == ("a",)
    with pytest.raises(DataError, match="no column at position 2"):
        ingest_csv(path, columns=(2,), label_column="name")


def test_log_transform(tmp_path):
    ds = ingest_csv(write(tmp_path, "y\n1\n10\n"), log_columns=("y",))
    assert ds.column("y") == pytest.approx((0.0, math.log(10.0)))


def test_a_repeated_log_column_is_transformed_once(tmp_path):
    path = write(tmp_path, "y\n5\n6\n7\n9\n")
    once = ingest_csv(path, log_columns=("y",))
    assert ingest_csv(path, log_columns=("y", "y")).columns == once.columns
    assert once.column("y") == tuple(map(math.log, (5.0, 6.0, 7.0, 9.0)))


def test_log_transform_error_names_original_row_and_column(tmp_path):
    # data row 2 is dropped (blank y cell), so the offending -5 sits in
    # data row 3 and the message must say so, not "row 2 of the kept rows"
    path = write(tmp_path, "y,x\n1,2\n,3\n-5,4\n")
    with pytest.raises(DataError, match=r"value -5.0 at row 3, column 'y'"):
        ingest_csv(path, log_columns=("y",))


def test_log_column_must_be_ingested(tmp_path):
    with pytest.raises(DataError, match="log-transform column"):
        ingest_csv(write(tmp_path, "a,b\n1,2\n"), columns=("a",), log_columns=("b",))


def test_label_column_collected_and_excluded(tmp_path):
    ds = ingest_csv(
        write(tmp_path, "name,y\nalpha,1\nbeta,2\n"), label_column="name"
    )
    assert ds.column_names == ("y",)
    assert ds.row_labels == ("alpha", "beta")


def test_label_column_missing(tmp_path):
    with pytest.raises(DataError, match="label column"):
        ingest_csv(write(tmp_path, "y\n1\n"), label_column="name")


def test_requested_column_missing(tmp_path):
    with pytest.raises(DataError, match="requested column 'z'"):
        ingest_csv(write(tmp_path, "y\n1\n"), columns=("z",))


def test_column_accessor_lists_available(tmp_path):
    ds = ingest_csv(write(tmp_path, "y,x\n1,2\n"))
    with pytest.raises(DataError, match="available: y, x"):
        ds.column("zz")


def test_empty_file(tmp_path):
    with pytest.raises(DataError, match="no rows"):
        ingest_csv(write(tmp_path, ""))


def test_all_rows_unusable(tmp_path):
    with pytest.raises(DataError, match="no usable data rows"):
        ingest_csv(write(tmp_path, "y\nfoo\nbar\n"))


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        ingest_csv(tmp_path / "nope.csv")


def test_alternate_delimiter(tmp_path):
    ds = ingest_csv(write(tmp_path, "y;x\n1;2\n"), delimiter=";")
    assert ds.column("x") == (2.0,)


@pytest.mark.parametrize("delimiter", ["", ";;", "\t\t"])
def test_delimiter_must_be_one_character(tmp_path, delimiter):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="delimiter must be one character"):
        ingest_csv(path, delimiter=delimiter)


def test_file_digest_matches_hashlib(tmp_path):
    path = write(tmp_path, "y\n1\n2\n3\n")
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert file_digest(path) == expected
    assert ingest_csv(path).digest == expected
    with pytest.raises(DataError):
        file_digest(tmp_path / "nope.csv")


def test_duplicate_header_names(tmp_path):
    with pytest.raises(DataError, match="duplicate column names"):
        ingest_csv(write(tmp_path, "y,x,y\n1,2,3\n"))


def test_dataset_is_frozen(tmp_path):
    ds = ingest_csv(write(tmp_path, "y\n1\n"))
    with pytest.raises(AttributeError):
        ds.n_rows = 5  # type: ignore[misc]


def test_bom_is_not_part_of_the_header(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfy,x\n1,2\n3,4\n")
    ds = ingest_csv(path)
    assert ds.column_names == ("y", "x")
    assert ds.column("y") == (1.0, 3.0)
    assert ds.digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_huge_finite_values_are_kept(tmp_path):
    # the y sum overflows, but every y cell is finite and usable
    path = write(tmp_path, "y,x\n1e308,inf\n1.5e308,-inf\n-1e308,1\n1e308,2\n")
    assert ingest_csv(path, columns=("y",)).column("y") == (1e308, 1.5e308, -1e308, 1e308)
    ds = ingest_csv(path)
    assert ds.column("y") == (-1e308, 1e308)
    assert ds.column("x") == (1.0, 2.0)
    assert ds.dropped_rows == 2


def per_cell(cell):
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def per_row_ingest(path, delimiter=",", header=True, columns=(), log_columns=(),
                   label_column=None):
    """The per-row, per-cell ingest loop, kept as the oracle of the column pass.

    Records end at \\n, \\r\\n and \\r outside quotes only; a line break
    inside a quoted cell stays in it.
    """
    data = path.read_bytes()
    text = io.StringIO(data.decode("utf-8-sig"), newline="")
    rows = [row for row in csv.reader(text, delimiter=delimiter) if row]
    if not rows:
        raise DataError(f"{path} contains no rows")
    if header:
        names = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
        if len(set(names)) < len(names):
            raise DataError(f"duplicate column names in the header of {path}: {names}")
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
        data_rows = rows
    if label_column is not None and label_column not in names:
        raise DataError(f"label column {label_column!r} not found in {names}")
    keep = list(columns) if columns else [n for n in names if n != label_column]
    for name in keep:
        if name not in names:
            raise DataError(f"requested column {name!r} not found in {names}")
    for name in log_columns:
        if name not in keep:
            raise DataError(
                f"log-transform column {name!r} is not among the ingested columns {keep}"
            )
    keep_idx = [names.index(n) for n in keep]
    label_idx = names.index(label_column) if label_column is not None else None
    parsed, row_numbers, labels, dropped = [], [], [], 0
    for rownum, row in enumerate(data_rows, start=1):
        if len(row) < len(names):
            dropped += 1
            continue
        values = [per_cell(row[i]) for i in keep_idx]
        if any(v is None for v in values):
            dropped += 1
            continue
        parsed.append(values)
        row_numbers.append(rownum)
        if label_idx is not None:
            labels.append(row[label_idx].strip())
    if not parsed:
        raise DataError(f"{path} has no usable data rows")
    table = [list(col) for col in zip(*parsed)]
    for name in log_columns:
        j = keep.index(name)
        for i, v in enumerate(table[j]):
            if v <= 0.0:
                raise DataError(
                    f"cannot log-transform non-positive value {v!r} "
                    f"at row {row_numbers[i]}, column {name!r}"
                )
            table[j][i] = math.log(v)
    return Dataset(
        column_names=tuple(keep), columns=tuple(tuple(c) for c in table),
        source=str(path), n_rows=len(parsed), dropped_rows=dropped,
        digest=hashlib.sha256(data).hexdigest(),
        row_labels=tuple(labels) if label_idx is not None else None,
    )


NAMES = ("a", "b", "c", "d")
# cells each column kind draws from; "\x1f" is stripped by str.strip() but
# not by float(), so it must reach the per-cell fallback
CELLS = {
    "clean": ["1", "-2.5", "0", "3e-7", " 4 ", "\t5", "6\x1f", "1_0", "-0.0", "0.5"],
    "messy": ["", " ", "nan", "abc", "1,5", "inf", "1e400", '"8"', "7", "-9.5", "1e-3"],
    "infinite": ["inf", "-inf", "2", "-3", "4.5", "6"],
    "huge": ["1e308", "1.7e308", "-1e308", "1e300"],
}


# messy cells that hold a line boundary of str.splitlines() which does not
# end a CSV record
BREAKS = ["a\u2028b", "\u2029", "2\x85", "\x0b", "3\x0c", "x\x1cy", "\x1d", "\x1e"]


@st.composite
def csv_cases(draw, quotes=True):
    """A CSV text and ingest options.

    With quotes=False no `"` is written: cells that would need one are left
    out, the delimiter is `,`, `;` or a tab, lines end in \\n, \\r\\n or \\r,
    every row is full-width about half of the time, and messy cells may hold
    a line boundary from BREAKS.
    """
    delimiter, eol, ragged = ",", "\n", True
    if not quotes:
        delimiter = draw(st.sampled_from([",", ";", "\t"]))
        eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        ragged = draw(st.booleans())

    def pool(kind):
        if quotes:
            return CELLS[kind]
        cells = CELLS[kind] + (BREAKS if kind == "messy" else [])
        return [c for c in cells if '"' not in c and delimiter not in c]

    width = draw(st.integers(1, len(NAMES)))
    names = list(NAMES[:width])
    kinds = [draw(st.sampled_from(sorted(CELLS))) for _ in names]
    rows = []
    for _ in range(draw(st.integers(0, 15))):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append(None)  # a blank line
            continue
        length = width + (draw(st.sampled_from([0, 0, 0, 1, -1, -2])) if ragged else 0)
        pools = kinds + ["messy"]
        rows.append([draw(st.sampled_from(pool(pools[min(j, width)]))) for j in range(length)])
    header = draw(st.booleans())
    col_names = names if header else [f"col{i}" for i in range(width)]
    label = draw(st.sampled_from([None, *col_names]))
    columns = draw(st.lists(st.sampled_from(col_names), max_size=width, unique=True))
    pool_names = columns or [n for n in col_names if n != label]
    logs = draw(st.lists(st.sampled_from(pool_names), max_size=1)) if pool_names else []

    def render(cell):
        if not quotes:
            return cell
        if "," in cell or '"' in cell or draw(st.booleans()) and draw(st.booleans()):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    lines = [delimiter.join(names)] if header else []
    lines += ["" if row is None else delimiter.join(map(render, row)) for row in rows]
    text = ("\ufeff" if draw(st.booleans()) else "") + eol.join(lines) + eol
    return text, dict(delimiter=delimiter, header=header, columns=tuple(columns),
                      log_columns=tuple(logs), label_column=label)


def _outcome(fn, path, kwargs):
    try:
        ds = fn(path, **kwargs)
    except DataError as exc:
        return "error", str(exc)
    return (ds.column_names, [list(map(repr, col)) for col in ds.columns],
            ds.row_labels, ds.n_rows, ds.dropped_rows, ds.digest)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_cases())
def test_column_pass_matches_per_row_loop(tmp_path, case):
    text, kwargs = case
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(ingest_csv, path, kwargs) == _outcome(per_row_ingest, path, kwargs)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_cases(quotes=False))
def test_unquoted_files_match_per_row_loop(tmp_path, case):
    # rectangular cases take the one-split route, ragged ones the csv route
    text, kwargs = case
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(ingest_csv, path, kwargs) == _outcome(per_row_ingest, path, kwargs)


@pytest.mark.parametrize("quote", ["", '"'])
@pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c",
                                 "\x1d", "\x1e"])
def test_a_line_boundary_inside_a_cell_ends_no_record(tmp_path, brk, quote):
    label = f"a{brk}b"
    path = tmp_path / "labels.csv"
    path.write_bytes(f"name,y\n{quote}{label}{quote},1\r\nc,2\rd,3\n".encode("utf-8"))
    ds = ingest_csv(path, label_column="name")
    assert ds.row_labels == (label, "c", "d")
    assert ds.column("y") == (1.0, 2.0, 3.0)
    assert ds.dropped_rows == 0


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
def test_a_line_break_inside_a_quoted_cell_stays_in_it(tmp_path, brk):
    path = tmp_path / "labels.csv"
    path.write_bytes(f'name,y\n"first{brk}second",1\nb,"2{brk}"\n'.encode("utf-8"))
    ds = ingest_csv(path, label_column="name")
    assert ds.row_labels == (f"first{brk}second", "b")
    assert ds.column("y") == (1.0, 2.0)
    assert ds.dropped_rows == 0
    kwargs = dict(label_column="name")
    assert _outcome(ingest_csv, path, kwargs) == _outcome(per_row_ingest, path, kwargs)


def test_split_and_csv_routes_agree_on_a_tall_file(tmp_path, monkeypatch):
    rng = random.Random(11)
    lines = ["label,y,x1,x2"]
    for i in range(20_000):
        lines.append(f"obs{i:05d},{rng.gauss(3.0, 1.0)!r},{rng.random()!r},"
                     f"{rng.expovariate(1.0)!r}")
    label, y, x1, x2 = lines[8].split(",")
    lines[8] = f"{label},{y},NA,{x2}"  # drops data row 8
    readers = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a, **kw: readers.append(a) or reader(*a, **kw))
    path = tmp_path / "tall.csv"

    def ingest(text):
        path.write_bytes(text.encode("utf-8"))
        ds = ingest_csv(path, label_column="label", log_columns=("x2",))
        return {k: v for k, v in vars(ds).items() if k != "digest"}

    split = ingest("\n".join(lines) + "\n")
    assert not readers
    label, y, x1, x2 = lines[101].split(",")
    lines[101] = f'{label},"{y}",{x1},{x2}'
    by_csv = ingest("\n".join(lines) + "\n")
    assert readers
    assert split["n_rows"] == 19_999 and split["dropped_rows"] == 1
    assert split == by_csv


# the field size limit while the block cases are read, so that an over-long
# line or field costs a few dozen characters
FIELD_LIMIT = 40


@pytest.fixture
def small_field_limit():
    limit = csv.field_size_limit(FIELD_LIMIT)
    yield
    csv.field_size_limit(limit)


@st.composite
def block_cases(draw):
    """A CSV text, and ingest options.

    A label column and one to three numeric columns; lines end in \\n or
    \\r\\n; blank lines fall anywhere, the first line too; in half of the
    texts the labels may be quoted, hold the delimiter or hold a line break;
    one row may be ragged, longer than the field size limit in its line or in
    one field, or hold a non-numeric or non-positive cell, anywhere in the
    file, a header-only file included; a requested column may be missing.
    """
    width = draw(st.integers(1, 3))
    names = ["label", *NAMES[:width]]
    header = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    cell = st.sampled_from(["1", "2.5", "0.125", " 7 ", "3e2", "12.75"])
    forms = ["r{}"] + (['"r{}"', '"r,{}"', f'"r{eol}{{}}"'] if draw(st.booleans()) else [])
    rows = [[draw(st.sampled_from(forms)).format(i), *(draw(cell) for _ in range(width))]
            for i in range(draw(st.integers(0, 12)))]
    odd = draw(st.sampled_from([None, "short", "wide", "long line", "long field",
                                "non-numeric", "non-positive"]))
    if odd is not None:
        row = ["odd", *("1" for _ in range(width))]
        if odd == "short":
            row.pop()
        elif odd == "wide":
            row.append("1")
        elif odd == "long line":
            row[1:] = ["1." + "0" * 30] * width
            row.append("1")
        elif odd == "long field":
            row[1] = "1." + "0" * FIELD_LIMIT
        else:
            row[draw(st.integers(1, width))] = "x" if odd == "non-numeric" else "-1"
        rows.insert(draw(st.integers(0, len(rows))), row)
    lines = [""] * draw(st.integers(0, 1)) + ([",".join(names)] if header else [])
    for row in rows:
        lines += [""] * draw(st.integers(0, 1)) + [",".join(row)]
    col_names = names if header else [f"col{i}" for i in range(width + 1)]
    numeric = col_names[1:]
    columns = draw(st.lists(st.sampled_from([*numeric, "absent"]), max_size=width,
                            unique=True))
    logs = draw(st.lists(st.sampled_from(columns or numeric), max_size=1))
    return eol.join(lines) + eol * draw(st.integers(0, 2)), dict(
        header=header, columns=tuple(columns), log_columns=tuple(logs),
        label_column=col_names[0])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=block_cases())
def test_block_size_changes_no_outcome(tmp_path, monkeypatch, small_field_limit, case):
    # blocks of one character hold one line end at most, so every line is a
    # block of its own and every check runs past the first block; blocks of
    # one row do the same on the csv route
    text, kwargs = case
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    whole = _outcome(ingest_csv, path, kwargs)
    defaults = dataio._BLOCK_CHARS, dataio._CSV_ROWS
    for size, rows in ((1, 1), (7, 2), (64, 7)):
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", size)
        monkeypatch.setattr(dataio, "_CSV_ROWS", rows)
        assert _outcome(ingest_csv, path, kwargs) == whole
    monkeypatch.setattr(dataio, "_BLOCK_CHARS", defaults[0])
    monkeypatch.setattr(dataio, "_CSV_ROWS", defaults[1])


def test_a_csv_error_in_a_later_block_comes_before_a_column_error(tmp_path, monkeypatch,
                                                                  small_field_limit):
    # the csv route reads one row a block: the missing column is known from
    # the first row, and the over-long field is read two blocks later
    monkeypatch.setattr(dataio, "_CSV_ROWS", 1)
    path = write(tmp_path, 'label,y\n"a",1\nb,' + "1" * (FIELD_LIMIT + 1) + "\n")
    with pytest.raises(DataError, match="cannot parse .*field larger than field limit"):
        ingest_csv(path, label_column="label", columns=("absent",))


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_blocks_report_rows_past_the_first_block(tmp_path, monkeypatch, eol):
    lines = ["label,y,x"] + [f"r{i},{i},{i + 0.5}" for i in range(1, 101)]
    lines[40] = "r40,40,abc"  # drops data row 40
    lines[70] = "r70,-70,70.5"
    path = tmp_path / "rows.csv"
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    monkeypatch.setattr(dataio, "_BLOCK_CHARS", 64)
    readers = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a, **kw: readers.append(a) or reader(*a, **kw))
    with pytest.raises(DataError, match=r"value -70.0 at row 70, column 'y'"):
        ingest_csv(path, label_column="label", log_columns=("y",))
    ds = ingest_csv(path, label_column="label", columns=("x",))
    assert ds.n_rows == 99 and ds.dropped_rows == 1
    assert ds.row_labels[39:41] == ("r41", "r42")
    assert not readers  # every block took the split route
    lines[90] = "r90,90"
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    ds = ingest_csv(path, label_column="label", columns=("x",))
    assert readers  # a ragged line in a later block sends the text to csv.reader
    assert ds.n_rows == 98 and ds.dropped_rows == 2


@pytest.mark.parametrize("eol, quote", [("\n", ""), ("\r\n", ""), ("\n", '"')],
                         ids=["\n", "\r\n", "quoted"])
def test_ingest_peaks_below_five_times_the_file(tmp_path, eol, quote):
    # the whole text's lines and cells took about 9 times the file, and its
    # csv rows about 13; one block of them at a time, the text and the parsed
    # columns take about 4.  One quoted label sends the file to csv.reader
    rng = random.Random(7)
    lines = ["label,y,x1,x2,x3"]
    for i in range(20_000):
        lines.append(f"obs{i:05d}," + ",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(4)))
    lines[1] = f"{quote}obs00000{quote}" + lines[1][len("obs00000"):]
    path = tmp_path / "tall.csv"
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        ds = ingest_csv(path, label_column="label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n_rows == 20_000 and len(ds.column_names) == 4
    assert peak <= 5 * size
