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
