"""CSV ingestion and provenance digests."""

import hashlib
import math

import pytest

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


def test_log_transform(tmp_path):
    ds = ingest_csv(write(tmp_path, "y\n1\n10\n"), log_columns=("y",))
    assert ds.column("y") == pytest.approx((0.0, math.log(10.0)))


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
