import dataclasses
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedtri.core import (
    Dims,
    FedtriError,
    NonFiniteError,
    Polytope,
    PrimalState,
    TrilevelProblem,
    finite_diff_grad,
    project_ball_sq,
)
from fedtri.inner import InnerConfig, solve_level3
from fedtri.data import make_synthetic_dataset
from fedtri.problems import RobustHpoSpec, build_quadratic_problem, build_robust_hpo_problem
from cut_checks import estimate_mu
from oracle_rows import stack_rows, state_of


class TestDims:
    def test_valid(self):
        d = Dims(d1=2, d2=3, d3=5, N=4)
        assert d.block(1) == 2 and d.block(2) == 3 and d.block(3) == 5

    def test_columns_tile_the_flat_worker_point_in_block_order(self):
        d = Dims(d1=2, d2=3, d3=5, N=4)
        assert [d.columns(i) for i in (1, 2, 3)] == [slice(0, 2), slice(2, 5), slice(5, 10)]

    def test_stored_width_and_sizes_leave_equality_and_hashing_to_the_fields(self):
        # inner._no_cuts and outer._per_column key caches on Dims and its sizes.
        d = Dims(d1=2, d2=3, d3=5, N=4)
        assert type(d.width) is int and d.width == 10
        assert type(d.sizes) is tuple and d.sizes == (2, 3, 5)
        same = Dims(d1=2, d2=3, d3=5, N=4)
        assert d == same and hash(d) == hash(same) and len({d, same}) == 1
        assert d != Dims(d1=2, d2=3, d3=5, N=3)
        assert hash(d) == hash((2, 3, 5, 4)) and repr(d) == "Dims(d1=2, d2=3, d3=5, N=4)"
        wider = dataclasses.replace(d, d2=5)
        assert (wider.width, wider.sizes, wider.columns(3)) == (12, (2, 5, 5), slice(7, 12))
        assert type(wider.width) is int and type(wider.sizes) is tuple
        assert (d.width, d.sizes) == (10, (2, 3, 5))

    @pytest.mark.parametrize("bad", [dict(d1=0), dict(d2=-1), dict(N=0), dict(d3=0)])
    def test_invalid(self, bad):
        kwargs = dict(d1=1, d2=1, d3=1, N=1)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            Dims(**kwargs)


class TestFiniteDiffGrad:
    def test_quadratic_exact(self):
        g = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]), h=1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant_zero(self):
        g = finite_diff_grad(lambda v: 3.5, np.array([1.0, -2.0, 0.3]))
        assert np.all(g == 0.0)

    def test_matches_analytic_on_generated_quadratic(self):
        problem, _ = build_quadratic_problem(seed=11, dims=(3, 2, 4), N=2)
        rng = np.random.default_rng(1)
        x1, x2, x3 = (rng.standard_normal(d) for d in (3, 2, 4))

        def f3(v):
            return problem.eval_all(3, stack_rows(problem.dims, x1, x2, v))[1]

        numeric = finite_diff_grad(f3, x3)
        G = problem.grad_all(3, stack_rows(problem.dims, x1, x2, x3))
        analytic = G[1, problem.dims.columns(3)]
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert rel <= 1e-6

    def test_rows_difference_with_their_own_steps(self):
        # Each row of a stacked argument is differenced as on its own, step included.
        f = lambda V: (V ** 3).sum(axis=-1)
        V = np.array([[0.5, -2.0, 1.0], [30.0, 0.1, -4.0]])
        G = finite_diff_grad(f, V)
        for row, g in zip(V, G):
            assert np.array_equal(g, finite_diff_grad(f, row))

    def test_nonfinite_names_coordinate(self):
        def f(v):
            return float("inf") if v[1] > 1.0 else float(v @ v)

        with pytest.raises(NonFiniteError, match="coordinate 1"):
            finite_diff_grad(f, np.array([0.0, 1.0]), h=0.5)

    # A NaN step must raise too, not return a NaN gradient for a flat f.
    @pytest.mark.parametrize("h", [0.0, np.nan, np.array([1e-5, np.nan])])
    def test_bad_step(self, h):
        with pytest.raises(ValueError, match="step must be positive"):
            finite_diff_grad(lambda v: np.zeros(v.shape[:-1]), np.zeros((2, 3)), h=h)


def padded_reduceat_reference(v, alpha, sizes=None):
    """The block projection without the one-pass bound: every call forms the padded block sums.

    This is ``project_ball_sq`` as it was before the bound, so the bound's path
    can be checked against it bit for bit; only its alpha check is the new one.
    """
    v = np.asarray(v, dtype=float)
    sizes = (v.shape[-1],) if sizes is None else tuple(sizes)
    alpha = np.array(np.atleast_1d(alpha), float)
    if not all(0 <= a < np.inf for a in alpha):
        raise ValueError("alpha must be nonnegative and finite")
    pos = np.arange(sum(sizes)) + np.repeat(np.arange(1, len(sizes) + 1), sizes)
    heads = np.cumsum((0, *sizes[:-1])) + np.arange(len(sizes))
    padded = np.zeros(v.shape[:-1] + (v.shape[-1] + len(sizes),))
    padded[..., pos] = v * v
    nrm_sq = np.add.reduceat(padded, heads, axis=-1)
    if (nrm_sq <= alpha).all():
        return v.copy()
    if not np.isfinite(nrm_sq).all():
        raise NonFiniteError("cannot project a non-finite vector")
    scale = np.sqrt(np.divide(alpha, nrm_sq, out=np.ones_like(nrm_sq), where=nrm_sq > alpha))
    return v * np.repeat(scale, sizes, axis=-1)


def outcome(fn, *args):
    """``fn``'s result as (shape, bytes), or the type of what it raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # compared by type against the reference's
        return type(exc)
    return out.shape, out.tobytes()


@st.composite
def projection_cases(draw):
    """Rows, block sizes and alphas, the alphas often at the bound's or a block's own edge."""
    sizes = tuple(draw(st.lists(st.integers(1, 17), min_size=1, max_size=4)))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    scale = draw(st.sampled_from([1e-160, 1e-3, 1.0, 1e3, 1e150]))
    v = scale * draw(arrays(float, lead + (sum(sizes),), elements=st.floats(-4, 4)))
    if v.size and draw(st.booleans()):  # every square equal: the block sums round the most
        v = np.where(v < 0, -1.0, 1.0) * max(abs(v.flat[0]), scale)
    starts = np.cumsum((0,) + sizes)
    blocks = np.array([(v[..., a:b] ** 2).sum(axis=-1).max(initial=0.0)
                       for a, b in zip(starts, starts[1:])])
    edge = draw(st.sampled_from(["free", "bound", "block"]))
    if edge == "free":
        alphas = np.array(draw(st.lists(st.floats(0, 1e4), min_size=len(sizes),
                                        max_size=len(sizes))))
    elif edge == "bound":  # at max |v|^2 max(sizes), where the one-pass bound decides
        alphas = np.full(len(sizes), (v * v).max(initial=0.0) * max(sizes))
    else:  # at each block's largest sum of squares, where the exact sums decide
        alphas = blocks
    factor = draw(st.sampled_from([1.0, 1 - 1e-12, 1 + 1e-12, 1 - 1e-15, 1 + 1e-15, 0.5, 2.0]))
    alphas = alphas * factor
    if draw(st.booleans()):
        alphas = np.nextafter(alphas, draw(st.sampled_from([0.0, np.inf])))
    one = len(sizes) == 1 and draw(st.booleans())  # one block, as a number and no sizes
    return v, (float(alphas[0]) if one else tuple(alphas.tolist())), (None if one else sizes)


class TestProjectBallSq:
    def test_inside_unchanged(self):
        v = np.array([3.0, 4.0])
        assert np.array_equal(project_ball_sq(v, 25.0), v)

    def test_radial_scaling(self):
        assert np.allclose(project_ball_sq(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_degenerate_zero(self):
        assert np.array_equal(project_ball_sq(np.zeros(3), 0.0), np.zeros(3))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = 3.0 * rng.standard_normal(4)
            p = project_ball_sq(v, 2.0)
            assert np.allclose(project_ball_sq(p, 2.0), p)

    def test_rows_inside_unchanged_and_rows_outside_scaled(self):
        V = np.array([[0.3, -0.1, 0.2], [3.0, 4.0, 12.0], [1.0, 2.0, 2.0]])
        P = project_ball_sq(V, 9.0)
        assert np.array_equal(P[2], V[2])  # on the boundary, bit for bit
        assert np.array_equal(P[0], V[0])
        assert P[1] @ P[1] == pytest.approx(9.0, rel=1e-14)
        assert np.allclose(P[1], V[1] * 3.0 / 13.0, rtol=1e-14, atol=0)

    def test_zero_rows_with_zero_radius_stay_zero_without_warning(self):
        V = np.array([[0.0, 0.0], [3.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = project_ball_sq(V, 0.0)
        assert np.array_equal(P, np.zeros((2, 2)))

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf, (1.0, np.nan), (1.0, np.inf)])
    def test_a_negative_nan_or_infinite_radius_raises_instead_of_skipping_the_projection(
            self, alpha):
        sizes = (2, 2) if isinstance(alpha, tuple) else None
        for fn in (project_ball_sq, padded_reduceat_reference):
            with pytest.raises(ValueError, match="alpha must be nonnegative"):
                fn(np.full((2, 4), 3.0), alpha, sizes)

    @pytest.mark.parametrize("alpha", [1.0, 1e300])  # the exact path, and the bound's
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_row_raises(self, bad, alpha):
        V = np.ones((3, 2))
        V[1, 0] = bad
        for fn in (project_ball_sq, padded_reduceat_reference):
            with pytest.raises(NonFiniteError):
                fn(V, alpha)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
           st.lists(st.floats(-50, 50), min_size=3, max_size=3),
           st.floats(0.01, 100.0))
    def test_nonexpansive(self, a, b, alpha):
        va, vb = np.array(a), np.array(b)
        pa, pb = project_ball_sq(va, alpha), project_ball_sq(vb, alpha)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(va - vb) + 1e-12


def one_ball_reference(v, alpha):
    """The single-ball projection as it was before blocks: one ``sum`` per row."""
    nrm_sq = (v * v).sum(axis=-1, keepdims=True)
    if float(nrm_sq.max(initial=0.0)) <= alpha:
        return v.copy()
    return v * np.sqrt(np.divide(alpha, nrm_sq, out=np.ones_like(nrm_sq), where=nrm_sq > alpha))


class TestProjectionAgainstPaddedSums:
    @settings(max_examples=400, deadline=None)
    @given(projection_cases())
    def test_same_bits_or_same_exception_as_the_padded_block_sums(self, case):
        v, alpha, sizes = case
        assert outcome(project_ball_sq, v, alpha, sizes) == outcome(
            padded_reduceat_reference, v, alpha, sizes)

    @pytest.mark.parametrize("alpha", [np.nextafter(25.0, 0.0), 25.0, np.nextafter(25.0, 30.0),
                                       1e300, 0.0])
    @pytest.mark.parametrize("v", [(3.0, 4.0), (-3.0, 4.0), (0.0, 0.0), (5.0, 0.0)])
    def test_points_on_just_inside_and_just_outside_a_ball(self, v, alpha):
        v = np.array(v)
        got = project_ball_sq(v, alpha)
        assert got.tobytes() == padded_reduceat_reference(v, alpha).tobytes()
        assert (got.tobytes() == v.tobytes()) == (v @ v <= alpha)

    def test_zero_radius_with_a_zero_vector_and_a_huge_radius_return_copies(self):
        for v, alpha in ((np.zeros((2, 3)), 0.0), (np.full((2, 3), 1e100), 1e300)):
            got = project_ball_sq(v, alpha, (1, 2))
            assert got is not v and got.tobytes() == v.tobytes()


class TestBlockProjection:
    SIZES = (2, 9, 17)  # 9 and 17 take numpy's pairwise sum, 2 the plain one
    ALPHAS = (25.0, 4.0, 30.0)

    def rows(self):
        rng = np.random.default_rng(12)
        V = rng.standard_normal((6, sum(self.SIZES)))
        V[:, 2:11] *= np.array([0.2, 0.5, 0.7, 0.8, 1.5, 3.0])[:, None]  # around the ball of 4
        V[:, 11:] *= np.linspace(0.3, 3.0, 6)[:, None]
        V[0, :2] = V[3, :2] = (3.0, 4.0)  # exactly on the ball of 25
        V[1, :2] = (30.0, -40.0)
        return V

    def test_each_block_equals_its_own_projection_bit_for_bit(self):
        V = self.rows()
        P = project_ball_sq(V, self.ALPHAS, self.SIZES)
        starts = np.cumsum((0,) + self.SIZES)
        outside = 0
        for a, b, alpha in zip(starts, starts[1:], self.ALPHAS):
            block = np.ascontiguousarray(V[:, a:b])
            norms = (block * block).sum(axis=-1)
            outside += int((norms > alpha).sum())
            assert np.array_equal(P[:, a:b], one_ball_reference(block, alpha))
            for row in range(len(V)):  # one row at a time is one (d,) point
                assert np.array_equal(project_ball_sq(V[row], self.ALPHAS, self.SIZES)[a:b],
                                      one_ball_reference(block[row], alpha))
        assert 0 < outside < 3 * len(V)
        assert np.array_equal(P[0, :2], (3.0, 4.0)) and np.array_equal(P[1, :2], (3.0, -4.0))

    def test_one_block_is_the_whole_row(self):
        V = self.rows()
        for alpha in (1.0, 40.0, 1e6):
            assert np.array_equal(project_ball_sq(V, alpha), one_ball_reference(V, alpha))

    def test_a_non_finite_block_raises(self):
        V = self.rows()
        V[4, 20] = np.inf
        with pytest.raises(NonFiniteError):
            project_ball_sq(V, self.ALPHAS, self.SIZES)

    def test_alpha_as_number_tuple_list_or_array_gives_the_same_bits(self):
        V = self.rows()
        P = project_ball_sq(V, self.ALPHAS, self.SIZES)
        for alphas in (list(self.ALPHAS), np.array(self.ALPHAS)):
            assert np.array_equal(project_ball_sq(V, alphas, self.SIZES), P)
        P = project_ball_sq(V, 40.0)
        assert not np.array_equal(P, V)  # some rows lie outside the ball
        for alpha in ((40.0,), [40.0], np.array([40.0]), np.float64(40.0), 40):
            assert np.array_equal(project_ball_sq(V, alpha), P)


class TestPrimalState:
    def test_block_views_write_the_flat_arrays(self):
        d = Dims(d1=2, d2=3, d3=1, N=2)
        state = PrimalState.from_point(d, np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0]),
                                       np.array([6.0]))
        assert np.array_equal(state.Z, np.arange(1.0, 7.0))
        assert np.array_equal(state.X, np.tile(state.Z, (2, 1)))
        state.x[1][1] = (-1.0, -2.0, -3.0)
        state.z[2][:] = 9.0
        assert np.array_equal(state.X[1], (1.0, 2.0, -1.0, -2.0, -3.0, 6.0))
        assert np.array_equal(state.X[0], np.arange(1.0, 7.0))
        assert state.Z[5] == 9.0 and state.X[0, 5] == 6.0

    def test_a_copy_has_its_own_arrays_behind_its_views(self):
        d = Dims(d1=1, d2=1, d3=2, N=3)
        state = PrimalState.from_point(d, np.zeros(1), np.zeros(1), np.zeros(2))
        twin = state.copy()
        twin.x[2][0, 1] = 7.0
        twin.z[0][0] = 8.0
        assert twin.X[0, 3] == 7.0 and twin.Z[0] == 8.0
        assert not state.X.any() and not state.Z.any()


class TestEstimateMu:
    def sample(self, n=30, d=3, seed=0, scale=2.0):
        rng = np.random.default_rng(seed)
        return [scale * rng.standard_normal(d) for _ in range(n)]

    def test_convex_quadratic_zero(self):
        pts = self.sample()
        mu = estimate_mu(lambda v: float(v @ v), pts, grad=lambda v: 2.0 * v)
        assert mu == 0.0

    def test_concave_quadratic_two(self):
        pts = self.sample(seed=3)
        mu = estimate_mu(lambda v: -float(v @ v), pts, grad=lambda v: -2.0 * v)
        assert abs(mu - 2.0) <= 1e-9

    def test_affine_zero(self):
        w = np.array([1.0, -2.0, 0.5])
        pts = self.sample(seed=4)
        mu = estimate_mu(lambda v: float(w @ v) + 1.0, pts)
        assert mu <= 1e-9

    def test_monotone_in_sample_set(self):
        # All-pairs enumeration: a superset of points never lowers the estimate.
        def h(v):
            return float(np.cos(v[0]) + 0.5 * v[1] ** 2)

        pts = self.sample(n=20, d=2, seed=5)
        mu_small = estimate_mu(h, pts[:10])
        mu_big = estimate_mu(h, pts)
        assert mu_big >= mu_small - 1e-12

    def test_coincident_pairs(self):
        p = np.ones(2)
        with pytest.raises(FedtriError):
            estimate_mu(lambda v: float(v @ v), [p, p.copy()])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            estimate_mu(lambda v: 0.0, [np.zeros(2)])


class TestGradAll:
    def test_grad_shape_enforced(self):
        dims = Dims(d1=2, d2=1, d3=1, N=1)
        problem = TrilevelProblem(
            dims=dims,
            eval_fn=lambda level, V: np.zeros(1),
            grad_fn=lambda level, V: np.zeros((1, 5)),
        )
        with pytest.raises(ValueError):
            problem.grad_all(1, stack_rows(dims, np.zeros(2), np.zeros(1), np.zeros(1)))

    def test_wrong_shaped_block_raises_like_grad(self):
        dims = Dims(d1=2, d2=1, d3=3, N=3)
        problem = TrilevelProblem(
            dims=dims,
            eval_fn=lambda level, V: np.zeros(3),
            grad_fn=lambda level, V: np.zeros((3, 4)),  # D = 6
        )
        with pytest.raises(ValueError, match="f_3 gradient has shape"):
            problem.grad_all(3, stack_rows(dims, np.zeros(2), np.zeros(1), np.zeros((3, 3))))

    def test_wrong_shaped_argument_raises(self):
        problem, _ = build_quadratic_problem(seed=0, dims=(2, 2, 2), N=3)
        # one (D,) point, one (N, d3) block, and three blocks passed as one argument
        for bad in (np.zeros(6), np.zeros((3, 2)), (np.zeros((3, 2)),) * 3):
            with pytest.raises(ValueError, match="oracle argument has shape"):
                problem.grad_all(3, bad)

    def test_nonfinite_row_names_its_worker(self):
        dims = Dims(d1=1, d2=1, d3=2, N=3)

        def gr(level, V):
            G = np.zeros((3, 4))
            G[1, 3] = G[2, 2] = np.nan
            return G

        problem = TrilevelProblem(dims=dims, eval_fn=lambda level, V: np.zeros(3),
                                  grad_fn=gr)
        with pytest.raises(NonFiniteError, match=r"grad f_3,1 is non-finite"):
            problem.grad_all(3, stack_rows(dims, np.zeros(1), np.zeros(1), np.zeros((3, 2))))


def _robust_hpo_problem(mlp_layers=(4,), adversary=True):
    data = make_synthetic_dataset(seed=1, rows=80, features=3)
    spec = RobustHpoSpec(mlp_layers=mlp_layers, adversary=adversary)
    return build_robust_hpo_problem(data, spec, N=5).problem


def _quadratic_problem():
    return build_quadratic_problem(seed=2, dims=(2, 3, 4), N=3)[0]


# Both builders; robust HPO with the adversary on and off, at three depths.
ORACLE_BUILDS = {"quadratic": _quadratic_problem, **{
    f"robust_hpo-{adversary}-{tag}": partial(_robust_hpo_problem, layers, adversary)
    for adversary in (True, False)
    for tag, layers in (("linear", ()), ("4", (4,)), ("4-3", (4, 3)))}}


class TestStackedContract:
    @pytest.mark.parametrize("build", [_quadratic_problem, _robust_hpo_problem],
                             ids=["quadratic", "robust_hpo"])
    def test_stacked_call_matches_calls_on_each_row_broadcast(self, build):
        problem = build()
        d = problem.dims
        rng = np.random.default_rng(0)
        V = stack_rows(d, *(rng.standard_normal((d.N, d.block(i))) for i in (1, 2, 3)))
        for level in (1, 2, 3):
            F = problem.eval_all(level, V)
            rows = [problem.eval_all(level, np.tile(V[j], (d.N, 1))) for j in range(d.N)]
            assert all(F[j] == r[j] for j, r in enumerate(rows)), level
            G = problem.grad_all(level, V)
            for j in range(d.N):
                row = problem.grad_all(level, np.tile(V[j], (d.N, 1)))[j]
                assert np.array_equal(G[j], row), (level, j)

    @pytest.mark.parametrize("build", ORACLE_BUILDS.values(), ids=ORACLE_BUILDS.keys())
    def test_no_oracle_writes_its_input(self, build):
        # V may be the live PrimalState.X: each oracle gives the same array from a
        # read-only V as from a writable copy, and leaves V as it was.
        problem = build()
        d = problem.dims
        V = np.random.default_rng(4).standard_normal((d.N, d.width))
        V.flags.writeable = False
        before = V.copy()
        for level in (1, 2, 3):
            for fn in (problem.eval_fn, problem.grad_fn, problem.cross_hess_fn):
                if fn is not None:
                    assert np.array_equal(fn(level, V), fn(level, V.copy())), (level, fn)
        assert np.array_equal(V, before)

    @pytest.mark.parametrize("build", ORACLE_BUILDS.values(), ids=ORACLE_BUILDS.keys())
    def test_no_result_changes_with_later_calls(self, build):
        # An oracle may reuse buffers between calls, but no result may be a view of one:
        # every result keeps its values through later calls at another V and level.
        problem = build()
        d = problem.dims
        V, W = np.random.default_rng(6).standard_normal((2, d.N, d.width))
        fns = [fn for fn in (problem.eval_fn, problem.grad_fn, problem.cross_hess_fn) if fn]
        for fn in fns:
            for level in (1, 2, 3):
                result = fn(level, V)
                kept = np.array(result, copy=True)
                for later in fns:
                    for other in (1, 2, 3):
                        later(other, W)
                assert np.array_equal(result, kept), (fn, level)

    def test_quadratic_grad_matches_central_differences_of_its_values(self):
        # Each block is one finite_diff_grad over all N rows: row j steps only
        # worker j's block, and row j's value depends only on row j.
        quad = build_quadratic_problem(seed=4, dims=(2, 3, 4), N=3)[0]
        rng = np.random.default_rng(3)
        X = [rng.standard_normal((3, k)) for k in (2, 3, 4)]
        for level in (1, 2, 3):
            G = quad.grad_all(level, stack_rows(quad.dims, *X))
            for i in range(3):
                G_fd = finite_diff_grad(
                    lambda P: quad.eval_all(level, stack_rows(quad.dims, *X[:i], P, *X[i + 1:])),
                    X[i])
                cols = quad.dims.columns(i + 1)
                assert np.abs(G[:, cols] - G_fd).max() <= 1e-6, (level, i + 1)

    def test_quadratic_cross_hess_is_the_derivative_of_its_gradient(self):
        quad = _quadratic_problem()
        d = quad.dims
        rng = np.random.default_rng(5)
        X = [rng.standard_normal((d.N, d.block(i))) for i in (1, 2, 3)]
        for level in (1, 2, 3):
            H = quad.cross_hess(level, stack_rows(d, *X))
            assert H.shape == (d.N, d.width, d.width)
            for inn in (1, 2, 3):
                H_in = H[:, :, d.columns(inn)]
                for k in range(d.block(inn)):  # the gradient is affine: exact differences
                    P, M = list(X), list(X)
                    P[inn - 1] = X[inn - 1] + np.eye(d.block(inn))[k]
                    M[inn - 1] = X[inn - 1] - np.eye(d.block(inn))[k]
                    dG = (quad.grad_all(level, stack_rows(d, *P))
                          - quad.grad_all(level, stack_rows(d, *M))) / 2
                    assert np.allclose(H_in[:, :, k], dG, rtol=0, atol=1e-12), (level, inn)

    def test_cross_hess_rejects_a_per_worker_shaped_matrix(self):
        dims = Dims(d1=2, d2=3, d3=3, N=3)
        problem = TrilevelProblem(
            dims=dims,
            eval_fn=lambda level, V: np.zeros(3),
            grad_fn=lambda level, V: np.zeros((3, 8)),
            cross_hess_fn=lambda level, V: np.eye(3),
        )
        with pytest.raises(ValueError, match="cross Hessian has shape"):
            problem.cross_hess(3, stack_rows(dims, np.zeros(2), np.zeros(3), np.zeros((3, 3))))

    def test_cross_hess_names_the_first_non_finite_worker(self):
        # NaN in worker 1's Hessian row 0, a row of block 1 that no adjoint
        # sweep reads: the check still names the level and the worker.
        quad = _quadratic_problem()

        def cross_hess_fn(level, V):
            H = quad.cross_hess_fn(level, V).copy()
            H[1, 0] = np.nan
            return H

        problem = TrilevelProblem(dims=quad.dims, eval_fn=quad.eval_fn, grad_fn=quad.grad_fn,
                                  cross_hess_fn=cross_hess_fn)
        d = quad.dims
        with pytest.raises(NonFiniteError, match=r"cross Hessian of f_2,1 is non-finite"):
            problem.cross_hess(2, stack_rows(d, np.zeros(d.d1), np.zeros((d.N, d.d2)),
                                              np.zeros((d.N, d.d3))))

    def test_eval_all_names_the_first_non_finite_worker(self):
        dims = Dims(d1=1, d2=1, d3=1, N=4)
        values = np.array([0.0, 1.0, np.inf, np.nan])
        problem = TrilevelProblem(dims=dims, eval_fn=lambda level, V: values,
                                  grad_fn=lambda level, V: np.zeros((4, 3)))
        with pytest.raises(NonFiniteError, match=r"f_2,2 is non-finite"):
            problem.eval_all(2, stack_rows(dims, np.zeros(1), np.zeros(1), np.zeros((4, 1))))

    def test_eval_all_checks_the_shape_of_its_values(self):
        dims = Dims(d1=1, d2=1, d3=1, N=3)
        problem = TrilevelProblem(dims=dims, eval_fn=lambda level, V: np.zeros(2),
                                  grad_fn=lambda level, V: np.zeros((3, 3)))
        with pytest.raises(ValueError, match="f_1 values have shape"):
            problem.eval_all(1, stack_rows(dims, np.zeros(1), np.zeros(1), np.zeros(1)))

    def test_eval_fn_receives_the_callers_rows(self):
        dims = Dims(d1=1, d2=2, d3=3, N=2)
        seen = []

        def ev(level, V):
            seen.append(V)
            return np.zeros(2)

        problem = TrilevelProblem(dims=dims, eval_fn=ev,
                                  grad_fn=lambda level, V: np.zeros((2, 6)))
        V = np.ones((2, 6))
        problem.eval_all(1, V)
        assert seen[0] is V


def test_polytopes_and_traces_compare_by_identity():
    # Their ndarray fields make field-wise == ambiguous and hash() impossible.
    problem, _ = build_quadratic_problem(seed=1, dims=(2, 2, 2), N=2)
    for build in (lambda: Polytope(problem.dims, np.ones((1, 18)), [1.0], (0,)),
                  lambda: solve_level3(problem, state_of(problem.dims), cfg=InnerConfig(K=2))):
        a, b = build(), build()
        assert a != b and not a == b
        assert a == a and b == b
        assert len({a, b, a}) == 2


class TestPolytopeRows:
    DIMS = Dims(d1=1, d2=2, d3=3, N=2)  # rows over [Z | X.ravel()] are 6 + 2 * 6 = 18 wide

    def rows(self, L, seed=0):
        return np.random.default_rng(seed).standard_normal((L, 18))

    def test_rejects_a_row_of_the_wrong_width(self):
        for width in (16, 12, 17, 19):
            with pytest.raises(ValueError, match=r"\(1, 18\) rows"):
                Polytope(self.DIMS, np.ones((1, width)), [0.0], (0,))
            with pytest.raises(ValueError):
                Polytope(self.DIMS).add(np.ones(width), 0.0, 0)

    def test_rejects_an_offset_or_id_count_other_than_the_row_count(self):
        W = self.rows(2)
        for c, ids in (([0.0], (0, 1)), ([0.0, 1.0, 2.0], (0, 1)), ([0.0, 1.0], (0,)),
                       ([[0.0, 1.0]], (0, 1))):
            with pytest.raises(ValueError, match="offsets"):
                Polytope(self.DIMS, W, c, ids)
        with pytest.raises(ValueError, match="offsets"):
            Polytope(self.DIMS, W[0], [0.0], (0,))  # one row, but not stacked

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_row_or_offset(self, bad):
        W, c = self.rows(2), np.array([0.5, -0.5])
        W[1, 7] = bad
        with pytest.raises(NonFiniteError, match="must be finite"):
            Polytope(self.DIMS, W, c, (0, 1))
        c[0] = bad
        for rows in (self.rows(2), W):
            with pytest.raises(NonFiniteError, match="must be finite"):
                Polytope(self.DIMS, rows, c, (0, 1))
        with pytest.raises(NonFiniteError):
            Polytope(self.DIMS).add(W[1], 0.0, 0)
        with pytest.raises(NonFiniteError):
            Polytope(self.DIMS).add(W[0], bad, 0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            Polytope(self.DIMS, self.rows(3), np.zeros(3), (4, 7, 4))
        poly = Polytope(self.DIMS, self.rows(2), np.zeros(2), (4, 7))
        with pytest.raises(ValueError, match="unique"):
            poly.add(np.ones(18), 0.0, 7)

    def test_add_appends_one_row_and_keeps_the_others_bits(self):
        W, c = self.rows(3, seed=1), np.array([0.1, 0.2, 0.3])
        poly = Polytope(self.DIMS)
        for k, cut_id in enumerate((5, 2, 9)):
            before = poly
            poly = poly.add(W[k], c[k], cut_id)
            assert before.size == k and poly.size == k + 1  # the old polytope is unchanged
        assert poly.ids == (5, 2, 9)
        assert np.array_equal(poly.W, W) and np.array_equal(poly.c, c)
        assert np.array_equal(poly.A2, W[:, self.DIMS.columns(2)])
        assert np.array_equal(Polytope(self.DIMS, W, c, (5, 2, 9)).W, poly.W)

    def test_keep_takes_the_masked_cuts_in_their_order(self):
        W, c, ids = self.rows(4, seed=2), np.array([1.0, 2.0, 3.0, 4.0]), (3, 8, 1, 6)
        poly = Polytope(self.DIMS, W, c, ids)
        for mask in ([True, False, True, True], [False] * 4, [True] * 4, [0, 1, 0, 1]):
            kept = poly.keep(mask)
            m = np.asarray(mask, bool)
            assert kept.ids == tuple(np.array(ids)[m].tolist())
            assert np.array_equal(kept.W, W[m]) and np.array_equal(kept.c, c[m])
            assert np.array_equal(kept.A2, W[m][:, self.DIMS.columns(2)])
            assert kept.W.shape == (m.sum(), 18)
        assert poly.ids == ids and np.array_equal(poly.W, W)  # keep returns a new polytope

    def test_the_rows_are_the_polytopes_own_copy(self):
        W, c = self.rows(1), np.array([0.5])
        poly = Polytope(self.DIMS, W, c, (0,))
        W[0, 0], c[0] = 9.0, 9.0
        assert np.array_equal(poly.W, self.rows(1)) and np.array_equal(poly.c, [0.5])

    def test_a2_is_the_rows_z2_columns(self):
        d = self.DIMS
        Z = np.concatenate((np.full(d.d1, 1.0), np.full(d.d2, 2.0), np.full(d.d3, 3.0)))
        w = np.concatenate((Z, np.full(d.N * d.width, 4.0)))
        poly = Polytope(d).add(w, 0.0, 0)
        assert np.array_equal(poly.W, [w]) and np.array_equal(poly.A2, [np.full(d.d2, 2.0)])
        assert poly.A2.flags.c_contiguous
        empty = Polytope(d)
        assert empty.W.shape == (0, 18) and empty.A2.shape == (0, d.d2)
        assert empty.c.shape == (0,) and empty.ids == () and empty.size == 0

    def test_residuals_take_exactly_a_state_of_the_dims(self):
        d = self.DIMS
        state = state_of(d, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        w = np.ones(18)  # w . row = w . w, so the residual is 0.5
        poly = Polytope(d).add(w, w @ w - 0.5, 0)
        assert np.array_equal(poly.residuals(state), [0.5])
        for other in (Dims(d1=1, d2=2, d3=3, N=1), Dims(d1=1, d2=2, d3=2, N=2)):
            for p in (poly, Polytope(d)):
                with pytest.raises(ValueError):
                    p.residuals(state_of(other, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))


def test_the_package_exports_only_its_api_objects():
    import types

    import fedtri

    assert len(fedtri.__all__) == len(set(fedtri.__all__)) == 43
    for name in fedtri.__all__:
        assert not isinstance(getattr(fedtri, name), types.ModuleType), name
    namespace = {}
    exec("from fedtri import *", namespace)
    assert not [v for v in namespace.values() if isinstance(v, types.ModuleType)]


def test_run_and_its_configs_have_36_settable_values():
    # Each value is one a caller sets; a new knob takes a deliberate edit here.
    import dataclasses
    import inspect

    from fedtri import DelayModel, InnerConfig, OuterConfig, ScheduleConfig, run

    fields = sum(len(dataclasses.fields(c))
                 for c in (InnerConfig, OuterConfig, DelayModel, ScheduleConfig))
    keywords = [p for p in inspect.signature(run).parameters.values() if p.default is not p.empty]
    assert fields + len(keywords) == 36
