"""The quadratic's one table of quadratic forms against its written-out levels.

``ref_eval`` and ``ref_grad`` are the per-level formulas the table replaced,
kept here as an oracle: worker by worker, from the builder's own matrices
rebuilt with ``_build_quadratic_data`` at the builder's seed.  The objectives
``run`` logs are checked against ``ref_eval`` too.  ``ref_build`` is the
one-matrix-at-a-time builder the stacked draws replaced: the stacked builder
must give its every bit, so that every problem and run log stays the same.
"""

import numpy as np
import pytest

from fedtri.core import Dims
from fedtri.harness import ScheduleConfig, run
from fedtri.inner import InnerConfig
from fedtri.outer import OuterConfig
from fedtri.problems import _build_quadratic_data, _random_spd, _solve_oracle
from fedtri.problems import build_quadratic_problem
from oracle_rows import stack_rows

SEED, DIMS, N = 7, (2, 3, 4), 3
DD = Dims(*DIMS, N=N)
BUILD = dict(conditioning=10.0, coupling=0.2, center_scale=0.5)  # the builder's defaults


def ref_eval(data, v_star, level, x1, x2, x3, j):
    """Worker j's f_level, written out."""
    A, B, C, g, D, E, F, h = (data[key][j] for key in "ABCgDEFh")
    if level == 1:
        v = np.concatenate([x1, x2, x3]) - v_star
        return 0.5 * v @ data["Q1"][j] @ v
    if level == 2:
        return 0.5 * x2 @ D @ x2 + x2 @ (E @ x1 + F @ x3 + h)
    return 0.5 * x3 @ A @ x3 + x3 @ (B @ x1 + C @ x2 + g)


def ref_grad(data, v_star, level, block, x1, x2, x3, j):
    """Worker j's gradient of f_level in block ``block``, written out."""
    A, B, C, g, D, E, F, h = (data[key][j] for key in "ABCgDEFh")
    if level == 1:
        v = np.concatenate([x1, x2, x3]) - v_star
        return data["Q1"][j][DD.columns(block)] @ v
    if level == 2:
        return {1: E.T @ x2, 2: D @ x2 + E @ x1 + F @ x3 + h, 3: F.T @ x2}[block]
    return {1: B.T @ x3, 2: C.T @ x3, 3: A @ x3 + B @ x1 + C @ x2 + g}[block]


@pytest.fixture(scope="module")
def built():
    problem, oracle = build_quadratic_problem(SEED, DIMS, N, **BUILD)
    data = _build_quadratic_data(np.random.default_rng(SEED), DD, **BUILD)
    # The builder kept its first draw, so these are its matrices.
    assert np.array_equal(_solve_oracle(data).y1, oracle.y1)
    v_star = np.concatenate([oracle.y1, oracle.y2, oracle.y3])
    rng = np.random.default_rng(SEED + 1)
    X = [rng.standard_normal((N, d)) for d in DIMS]
    return problem, data, v_star, X


@pytest.mark.parametrize("level", [1, 2, 3])
def test_eval_matches_the_written_out_levels(built, level):
    problem, data, v_star, X = built
    F = problem.eval_all(level, stack_rows(DD, *X))
    ref = [ref_eval(data, v_star, level, *(Xi[j] for Xi in X), j) for j in range(N)]
    np.testing.assert_allclose(F, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 2, 3])
def test_grad_matches_the_written_out_levels(built, level, block):
    problem, data, v_star, X = built
    G = problem.grad_all(level, stack_rows(DD, *X))[:, DD.columns(block)]
    ref = [ref_grad(data, v_star, level, block, *(Xi[j] for Xi in X), j) for j in range(N)]
    np.testing.assert_allclose(G, ref, rtol=1e-12, atol=1e-12)


def test_logged_objectives_are_the_written_out_levels_at_the_returned_state(built):
    # f1 at every worker's point, f2 at (z1, x2_j, x3_j), f3 at (z1, z2, x3_j).
    problem, data, v_star, _ = built
    res = run(problem, InnerConfig(K=3), OuterConfig(T_pre=2, max_iters=5),
              ScheduleConfig(N=N, S=2, seed=0))
    assert res.log.status == "max_iters"
    (x1, x2, x3), (z1, z2, _) = res.state.x, res.state.z
    expect = [sum(ref_eval(data, v_star, level, *blocks(j), j) for j in range(N))
              for level, blocks in ((1, lambda j: (x1[j], x2[j], x3[j])),
                                    (2, lambda j: (z1, x2[j], x3[j])),
                                    (3, lambda j: (z1, z2, x3[j])))]
    np.testing.assert_allclose(res.log.objectives, expect, rtol=1e-12, atol=1e-12)


def ref_spd(rng, d, conditioning):
    """One SPD matrix from its own draw, as the builder made each before stacking."""
    if d == 1:
        return np.array([[1.0]])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.logspace(-np.log10(conditioning), 0.0, d)
    return (q * eigs) @ q.T


def ref_build(rng, dims, conditioning, coupling, center_scale):
    """The builder's data drawn worker by worker, family by family, in the builder's order."""
    d1, d2, d3, N = dims.d1, dims.d2, dims.d3, dims.N
    cscale = coupling / np.sqrt(max(d1, d2, d3))
    data = {
        "A": [ref_spd(rng, d3, conditioning) for _ in range(N)],
        "B": [cscale * rng.standard_normal((d3, d1)) for _ in range(N)],
        "C": [cscale * rng.standard_normal((d3, d2)) for _ in range(N)],
        "g": [center_scale * rng.standard_normal(d3) for _ in range(N)],
        "D": [ref_spd(rng, d2, conditioning) for _ in range(N)],
        "E": [cscale * rng.standard_normal((d2, d1)) for _ in range(N)],
        "F": [cscale * rng.standard_normal((d2, d3)) for _ in range(N)],
        "h": [center_scale * rng.standard_normal(d2) for _ in range(N)],
        "Q1": [ref_spd(rng, d1 + d2 + d3, conditioning) for _ in range(N)],
    }
    data = {key: np.array(blocks) for key, blocks in data.items()}
    data["y1"] = center_scale * rng.standard_normal(d1)
    return data


SHAPES = [((8, 8, 8), 8), ((4, 4, 4), 4), ((1, 3, 2), 3), ((2, 1, 1), 2)]


@pytest.mark.parametrize("seed", [0, 1, 3, 21, 7919])
@pytest.mark.parametrize("dims, n", SHAPES)
def test_stacked_builder_gives_the_one_matrix_at_a_time_builders_bits(seed, dims, n):
    dd = Dims(*dims, N=n)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    data, ref = _build_quadratic_data(rng, dd, **BUILD), ref_build(ref_rng, dd, **BUILD)
    assert data.keys() == ref.keys()
    for key in ref:
        assert data[key].shape == ref[key].shape, key
        assert np.array_equal(data[key], ref[key]), key
    # Both consumed the same stretch of the stream, no more and no less.
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("d", [2, 5, 24])
@pytest.mark.parametrize("conditioning", [1.0, 10.0, 1e3])
def test_stacked_spd_matrices_are_symmetric_with_the_log_spaced_spectrum(d, conditioning):
    S = _random_spd(np.random.default_rng(d), 6, d, conditioning)
    assert S.shape == (6, d, d)
    # Q diag(eigs) Q^T is formed as one product, symmetric up to rounding.
    np.testing.assert_allclose(S, S.swapaxes(-1, -2), rtol=0, atol=1e-14)
    want = np.logspace(-np.log10(conditioning), 0.0, d)
    for M in S:
        np.testing.assert_allclose(np.linalg.eigvalsh(M), want, rtol=0, atol=1e-12)


def test_a_one_dimensional_family_is_all_ones_and_draws_nothing():
    rng = np.random.default_rng(0)
    assert np.array_equal(_random_spd(rng, 4, 1, 10.0), np.ones((4, 1, 1)))
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
