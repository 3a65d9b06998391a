import numpy as np

from fedtri.data import generate_synthetic_csv, load_dataset


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
