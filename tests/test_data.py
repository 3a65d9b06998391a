import csv

import numpy as np
import pytest

from fedtri.data import (
    DatasetError,
    RegressionDataset,
    _parse_csv,
    generate_synthetic_csv,
    load_dataset,
    make_synthetic_dataset,
    shard_indices,
)


def test_generated_csv_loads_back_exactly(tmp_path):
    path = generate_synthetic_csv(tmp_path / "reg.csv", seed=4, rows=40, features=3)
    # The generator's draws, in its order: features, coefficients, noise.
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 3))
    beta = rng.standard_normal(3)
    y = X @ beta + 0.05 * rng.standard_normal(40)

    data = load_dataset(path, seed=0)
    assert data.X.shape == (40, 3) and data.y.shape == (40,)
    assert np.array_equal(data.y, y)
    assert np.array_equal(data.X, (X - data.feature_mean) / data.feature_std)


def write(path, text):
    path.write_text(text)
    return path


def test_parse_csv_skips_header_and_blank_lines(tmp_path):
    for name, text in (("a.csv", "x0,x1,y\n1,2,3\n\n4,5,6\n"),
                       ("b.csv", "\nx0,x1,y\n1,2,3\n\n4,5,6\n")):
        path = write(tmp_path / name, text)
        assert np.array_equal(_parse_csv(path), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), text


@pytest.mark.parametrize("text, match", [
    ("1,2,3\n4,5\n", "ragged"),
    ("1,2,3\n4,oops,6\n", "non-numeric"),
    ("x0,y\n1,2\nabc,3\n", "non-numeric"),
    ("x0,y\nx1,y1\n1,2\n", "non-numeric"),
])
def test_parse_csv_rejects_bad_rows(tmp_path, text, match):
    with pytest.raises(DatasetError, match=match):
        _parse_csv(write(tmp_path / "bad.csv", text))


def csv_module_parse(path):
    """The csv-module parser that ``_parse_csv`` replaced: one ``float()`` call per cell."""
    rows, header_allowed = [], True  # until the first non-blank row
    with open(path, newline="") as fh:
        for r, row in enumerate(csv.reader(fh)):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            parsed = []
            for c, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    if header_allowed:
                        parsed = None  # header row
                        break
                    raise DatasetError(f"non-numeric cell at row {r}, column {c}: {cell!r}")
            header_allowed = False
            if parsed is not None:
                rows.append(parsed)
    if not rows:
        raise DatasetError(f"no data rows in {path}")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DatasetError("ragged rows in CSV")
    if len(rows[0]) < 2:
        raise DatasetError("need at least one feature column plus the target")
    return np.asarray(rows, dtype=float)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("seed, rows, features", [(0, 200, 5), (3, 200, 5), (7919, 200, 5),
                                                  (1, 1, 1), (2, 57, 9), (21, 500, 2)])
def test_parse_matches_the_csv_module_bit_for_bit(tmp_path, seed, rows, features):
    path = generate_synthetic_csv(tmp_path / "reg.csv", seed=seed, rows=rows, features=features)
    assert same_bits(_parse_csv(path), csv_module_parse(path))


def test_parse_matches_float_on_cells_that_are_not_shortest_reprs(tmp_path):
    # Long, rounded, tiny, huge and subnormal spellings, where a reader that is not
    # CPython's own string-to-double could round differently.
    v = np.random.default_rng(5).standard_normal(600) * np.logspace(-310, 300, 600)
    cells = [f"{x:.25e}" for x in v] + [f"{x:.3g}" for x in v] + [repr(float(x)) for x in v]
    text = "".join(",".join(cells[k:k + 6]) + "\n" for k in range(0, len(cells), 6))
    path = write(tmp_path / "cells.csv", text)
    assert same_bits(_parse_csv(path), csv_module_parse(path))


@pytest.mark.parametrize("text", [
    "x0,y\r\n1,2\r\n3,4\r\n",        # CRLF line endings
    "x0,y\n1,2\n   \n\t\n3,4\n",     # whitespace-only lines
    'x0,y\n"1.5",2\n3,"-4e-3"\n',    # quoted numeric cells
    " 1 , 2 \n3,4",                  # padded cells, no header, no final newline
    "nan,inf\n-Infinity,1\n",        # the non-finite spellings (load_dataset rejects them)
])
def test_parse_reads_what_the_csv_module_read(tmp_path, text):
    path = write(tmp_path / "ok.csv", text)
    assert same_bits(_parse_csv(path), csv_module_parse(path))


@pytest.mark.parametrize("text, message", [
    ("x0,y\n", "no data rows"),
    ("\n  \n", "no data rows"),
    ("1\n2\n", "need at least one feature column"),
    ("x0,y\n1,2\n\nabc,3\n", "non-numeric cell at row 3, column 0: 'abc'"),
    ("1,2,3\n4,5\n6,x,7\n", "non-numeric cell at row 2, column 1: 'x'"),
    ("1,2\n3,4,\n", "non-numeric cell at row 1, column 2: ''"),
    ('a,b\n"1,5",2\n', "non-numeric cell at row 1, column 0: '1,5'"),
])
def test_parse_reports_what_the_csv_module_reported(tmp_path, text, message):
    path = write(tmp_path / "bad.csv", text)
    for parse in (_parse_csv, csv_module_parse):
        with pytest.raises(DatasetError) as err:
            parse(path)
        assert str(err.value).startswith(message), parse


def test_a_digit_grouped_cell_is_refused_though_float_reads_it(tmp_path):
    # The one cell class whose reading changed: float("1_0") is 10.0, NumPy refuses it.
    path = write(tmp_path / "grouped.csv", "x0,y\n1,2\n1_0,3\n")
    assert csv_module_parse(path)[1, 0] == 10.0
    with pytest.raises(DatasetError, match="^non-numeric cell at row 2, column 0: '1_0'$"):
        _parse_csv(path)


def test_shards_are_disjoint_and_cover_the_input():
    idx = np.random.default_rng(0).permutation(11)
    shards = shard_indices(idx, 3)
    assert [len(s) for s in shards] == [4, 4, 3]
    joined = np.concatenate(shards)
    assert sorted(joined.tolist()) == sorted(idx.tolist())


def test_shards_need_a_row_per_worker():
    with pytest.raises(DatasetError):
        shard_indices(np.arange(2), 3)
    with pytest.raises(DatasetError):
        shard_indices(np.arange(2), 0)


def test_synthetic_training_features_are_standardized():
    data = make_synthetic_dataset(seed=3, rows=100, features=4)
    X_train, _ = data.split("train")
    assert np.allclose(X_train.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(X_train.std(axis=0), 1.0)
    sizes = (len(data.train_idx), len(data.val_idx), len(data.test_idx))
    assert sizes == (60, 20, 20)


@pytest.mark.parametrize("train, val, test", [
    ([0, 0], [1], [1]),  # right count, rows 2 and 3 unused
    ([0, 1], [2], [4]),  # an index past the last row
    ([0, 1], [2], []),   # row 3 unused
])
def test_splits_must_be_a_permutation_of_the_rows(train, val, test):
    X, y = np.zeros((4, 2)), np.zeros(4)
    with pytest.raises(DatasetError, match="exactly once"):
        RegressionDataset(X=X, y=y, train_idx=np.array(train), val_idx=np.array(val),
                          test_idx=np.array(test, dtype=int), noise_sigma=0.0,
                          feature_mean=np.zeros(2), feature_std=np.ones(2))
