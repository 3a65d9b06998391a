import numpy as np
import pytest

from fedtri.core import Dims, TrilevelProblem
from fedtri.cuts import (
    Polytope,
    drop_inactive,
    generate_cut_I,
    generate_cut_II,
    normalize_cut,
)
from fedtri import inner
from fedtri.data import make_synthetic_dataset
from fedtri.harness import ScheduleConfig, run
from fedtri.inner import InnerConfig, eval_h, grad_h, solve_level2, solve_level3
from fedtri.outer import OuterConfig
from fedtri.problems import RobustHpoSpec, build_quadratic_problem, build_robust_hpo_problem
from cut_checks import estimate_mu, flat_h, validate_cut, with_cut_params
from oracle_rows import state_of


def toy_cut(layer="I", d=2, N=2, c=1.0, seed=0):
    """A cut ``(w, c)``, its row over [Z | X.ravel()] drawn for Z, then x3's rows, then (layer
    II) x2's; x1's are 0."""
    rng = np.random.default_rng(seed)
    W = np.zeros((N + 1, 3 * d))
    W[0] = rng.standard_normal(3 * d)
    W[1:, 2 * d:] = rng.standard_normal((N, d))
    if layer == "II":
        W[1:, d:2 * d] = rng.standard_normal((N, d))
    return W.ravel(), c


def polytope_of(dims, cuts, ids=None):
    """The polytope of ``cuts``, a sequence of ``(w, c)``, added in order under ``ids``."""
    poly = Polytope(dims)
    for (w, c), cut_id in zip(cuts, range(len(cuts)) if ids is None else ids):
        poly = poly.add(w, c, cut_id)
    return poly


def row_blocks(dims, w):
    """A row's Z blocks (a1, a2, a3) and its X blocks (b1, b2, b3), each (N, d_i)."""
    return dims.split(w[:dims.width]), dims.split(w[dims.width:].reshape(dims.N, dims.width))


TOY_DIMS = Dims(d1=2, d2=2, d3=2, N=2)  # the dims of toy_cut's defaults

# Unit alphas, and unequal ones under which a block given the wrong alpha shows.
INFLATION_ALPHAS = ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))


def inflation_ball(layer, dims, alphas):
    """The alpha part of a cut's inflation: each row of each block brings its block's alpha."""
    a1, a2, a3 = alphas
    worker_blocks = (a3,) if layer == "I" else (a3, a2)  # x3 rows, then x2 rows for layer II
    return a1 + a2 + a3 + sum(a * dims.N for a in worker_blocks)


@pytest.fixture(scope="module")
def quad():
    return build_quadratic_problem(seed=3, dims=(2, 2, 2), N=2, coupling=0.3)


def scalar_problem():
    """1-D toy whose level-3 objective makes h_I(v) = v^2 at z3 = v."""
    dims = Dims(d1=1, d2=1, d3=1, N=1)
    return TrilevelProblem(
        dims=dims,
        eval_fn=lambda level, V: np.zeros(1),
        grad_fn=lambda level, V: np.zeros((1, 3)),
        cross_hess_fn=lambda level, V: np.zeros((1, 3, 3)),
    )


class TestGenerateCutI:
    def test_hand_linearized_scalar_quadratic(self):
        # h(v) = v^2 via a trace whose estimate is pinned at the origin: cut
        # at v = 1 with eps 0.1 must read 2 v <= 1.1.
        problem = scalar_problem()
        cfg = InnerConfig(K=1, eta_x=0.0, eta_z=0.0, eta_phi=0.0)
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(1), np.zeros(1)), cfg=cfg)
        point = state_of(problem.dims, np.zeros(1), np.zeros(1), np.array([1.0]), x3=[np.zeros(1)])
        w, c = generate_cut_I(with_cut_params(trace, eps=0.1), point)
        (a1, a2, a3), (_, _, b3) = row_blocks(problem.dims, w)
        assert np.allclose(a3, [2.0], atol=1e-9)
        assert np.allclose(a1, [0.0], atol=1e-9)
        assert np.allclose(a2, [0.0], atol=1e-9)
        assert np.allclose(b3[0], [0.0], atol=1e-9)
        assert c == pytest.approx(1.1, abs=1e-9)

    def test_mu_zero_matches_classic_convex_cut(self, quad):
        # Independent construction of the classic first-order cut:
        # grad . v <= eps - h0 + grad . v0.
        problem, _ = quad
        rng = np.random.default_rng(4)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level3(problem, state_of(problem.dims, z1, z2), cfg=cfg)
        point = state_of(problem.dims, z1, z2, z3, x3=x3)
        w, c = generate_cut_I(trace, point)
        v0 = flat_row(point.Z, point.X)
        g = flat_row(*grad_h(trace, point))
        h0 = eval_h(trace, point)
        c_classic = 1e-2 - h0 + float(g @ v0)
        assert np.allclose(w, g, rtol=1e-12, atol=1e-12)
        assert c == pytest.approx(c_classic, rel=1e-12)

    def test_rhs_inflation_term_by_term(self, quad):
        # mu = 2, origin anchor: the inflation is its alpha part alone.
        problem, _ = quad
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(2), np.zeros(2)), cfg=cfg)
        zero_pt = state_of(problem.dims, np.zeros(2), np.zeros(2), np.zeros(2),
                           x3=[np.zeros(2)] * 2)
        eps1, mu = 0.05, 2.0
        for alphas in INFLATION_ALPHAS:
            _, c0 = generate_cut_I(with_cut_params(trace, eps=eps1, alphas=alphas), zero_pt)
            _, c = generate_cut_I(with_cut_params(trace, mu=mu, eps=eps1, alphas=alphas), zero_pt)
            inflation = inflation_ball("I", problem.dims, alphas)
            assert c - c0 == pytest.approx(mu * inflation, rel=1e-12), alphas


class TestGenerateCutII:
    def test_mu_zero_classic(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(5)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        x2 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level2(problem, state_of(problem.dims, z1, z3=z3, x3=x3),
                             Polytope(problem.dims), cfg=cfg)
        point = state_of(problem.dims, z1, z2, z3, x2=x2, x3=x3)
        w, c = generate_cut_II(trace, point)
        v0 = flat_row(point.Z, point.X)
        g = flat_row(*grad_h(trace, point))
        assert np.allclose(w, g, rtol=1e-12, atol=1e-12)
        assert c == pytest.approx(1e-2 - eval_h(trace, point) + float(g @ v0), rel=1e-12)

    def test_inflation_origin_n2(self, quad):
        # mu = 1, N = 2 workers, origin anchor: 7 with unit alphas, 1 + 3 (2 + 3) = 16 unequal.
        problem, _ = quad
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level2(problem, state_of(problem.dims, np.zeros(2), z3=np.zeros(2),
                                               x3=[np.zeros(2)] * 2),
                             Polytope(problem.dims), cfg=cfg)
        pt = state_of(problem.dims, np.zeros(2), np.zeros(2), np.zeros(2),
                      x3=[np.zeros(2)] * 2, x2=[np.zeros(2)] * 2)
        eps2 = 0.3
        for alphas in INFLATION_ALPHAS:
            _, c0 = generate_cut_II(with_cut_params(trace, eps=eps2, alphas=alphas), pt)
            _, c = generate_cut_II(with_cut_params(trace, mu=1.0, eps=eps2, alphas=alphas), pt)
            inflation = inflation_ball("II", problem.dims, alphas)
            assert c - c0 == pytest.approx(inflation, rel=1e-12), alphas

    def test_each_layer_relaxes_by_its_own_eps(self, quad):
        # eps1 = 0.1 and eps2 = 0.3 in one config: a layer that read the other's eps shows.
        problem, _ = quad
        rng = np.random.default_rng(9)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1, eps1=0.1, eps2=0.3)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        x2 = [rng.standard_normal(2) for _ in range(2)]
        point = state_of(problem.dims, z1, z2, z3, x2=x2, x3=x3)
        t1 = solve_level3(problem, state_of(problem.dims, z1, z2), cfg=cfg)
        t2 = solve_level2(problem, point, Polytope(problem.dims), cfg=cfg)
        for generate, trace, eps in ((generate_cut_I, t1, 0.1), (generate_cut_II, t2, 0.3)):
            w, c = generate(trace, point)
            assert c == pytest.approx(eps - eval_h(trace, point) + w @ point.row(), rel=1e-12)

    def test_slack_at_own_anchor(self, quad):
        # Substituting the anchor kills the linear term: slack = c - lhs
        # equals eps + mu inflation - h(anchor) >= eps - h(anchor).
        problem, _ = quad
        rng = np.random.default_rng(6)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        x2 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level2(problem, state_of(problem.dims, z1, z3=z3, x3=x3),
                             Polytope(problem.dims), cfg=cfg)
        point = state_of(problem.dims, z1, z2, z3, x2=x2, x3=x3)
        eps2, mu = 1e-2, 0.5
        cut = generate_cut_II(with_cut_params(trace, mu=mu, alphas=(1.0, 1.0, 1.0)), point)
        h0 = eval_h(trace, point)
        slack = -residual(cut, point)
        assert slack == pytest.approx(eps2 + mu * cut_inflation_ii(point) - h0, rel=1e-9)
        assert slack >= eps2 - h0


class TestNormalizeCut:
    def test_unit_norm_and_same_half_space(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(8)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        x2 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level2(problem, state_of(problem.dims, z1, z3=z3, x3=x3),
                             Polytope(problem.dims), cfg=cfg)
        raw = generate_cut_II(with_cut_params(trace, mu=0.5, alphas=(1.0, 1.0, 1.0)),
                              state_of(problem.dims, z1, z2, z3, x2=x2, x3=x3))
        unit = normalize_cut(*raw)
        assert np.linalg.norm(unit[0]) == pytest.approx(1.0, rel=1e-12)
        nrm = np.sqrt(raw[0] @ raw[0])
        assert np.array_equal(unit[0], raw[0] / nrm) and unit[1] == raw[1] / nrm

        # Points spread around the cut's boundary land on both sides of it.
        scale = abs(raw[1]) / np.linalg.norm(raw[0])
        accepted = rejected = 0
        for _ in range(400):
            pz = [scale * rng.standard_normal(2) for _ in range(3)]
            px3 = [scale * rng.standard_normal(2) for _ in range(2)]
            px2 = [scale * rng.standard_normal(2) for _ in range(2)]
            p = state_of(problem.dims, *pz, x2=px2, x3=px3)
            inside_raw = residual(raw, p) <= 0.0
            inside_unit = residual(unit, p) <= 0.0
            assert inside_raw == inside_unit
            accepted += inside_raw
            rejected += not inside_raw
        assert accepted and rejected

    def test_zero_norm_cut_unchanged(self):
        w = np.zeros(18)
        got_w, got_c = normalize_cut(w, 0.5)
        assert got_w is w and got_c == 0.5


def flat_row(Z, X):
    """``[Z | X.ravel()]``: the row of a state's (Z, X) or of a gradient's (gZ, gX)."""
    return np.concatenate((Z, X.ravel()))


def residual(cut, state):
    """A cut ``(w, c)``'s ``w . [Z | X.ravel()] - c``, apart from ``Polytope.residuals``."""
    w, c = cut
    return float(w @ flat_row(state.Z, state.X) - c)


def cut_inflation_ii(point, alphas=(1.0, 1.0, 1.0)):
    (z1, z2, z3), (_, x2, x3) = point.z, point.x
    n = len(x2)
    a1, a2, a3 = alphas
    total = a1 + (n + 1) * (a2 + a3)
    total += sum(float(v @ v) for v in x2) + sum(float(v @ v) for v in x3)
    total += float(z1 @ z1) + float(z2 @ z2) + float(z3 @ z3)
    return total


class TestPolytopeOps:
    def test_add_increments(self):
        poly = Polytope(TOY_DIMS).add(*toy_cut(), 0)
        assert poly.size == 1

    def test_duplicate_coefficients_allowed(self):
        poly = polytope_of(TOY_DIMS, [toy_cut(seed=9), toy_cut(seed=9)])
        assert poly.size == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            polytope_of(TOY_DIMS, [toy_cut(), toy_cut(seed=1)], ids=(0, 0))


class TestDropInactive:
    def make_polys(self, n1=3, n2=2):
        p1 = polytope_of(TOY_DIMS, [toy_cut("I", seed=i) for i in range(n1)])
        p2 = polytope_of(TOY_DIMS, [toy_cut("II", seed=i) for i in range(n2)],
                         ids=range(10, 10 + n2))
        return p1, p2

    def test_all_positive_keeps_everything(self):
        p1, p2 = self.make_polys()
        k1, k2 = drop_inactive(p1, np.array([0.1, 0.2, 0.3]), p2, np.array([0.5, 0.5]))
        assert k1.dtype == k2.dtype == bool and (k1.shape, k2.shape) == ((3,), (2,))
        assert k1.all() and k2.all()

    def test_all_zero_empties(self):
        p1, p2 = self.make_polys()
        k1, k2 = drop_inactive(p1, np.zeros(3), p2, np.zeros(2))
        assert p1.keep(k1).size == 0 and p2.keep(k2).size == 0

    def test_selective_rule(self):
        p1, p2 = self.make_polys(n1=3, n2=2)
        k1, k2 = drop_inactive(p1, np.array([0.0, 0.3, 0.0]), p2, np.array([0.1, 0.0]))
        assert p1.keep(k1).ids == (1,)
        assert p2.keep(k2).ids == (10,)

    def test_protected_id_survives(self):
        p1, p2 = self.make_polys()
        _, k2 = drop_inactive(p1, np.ones(3), p2, np.zeros(2), protect2=(11,))
        assert p2.keep(k2).ids == (11,)

    def test_numerical_zero_tolerance(self):
        p1, p2 = self.make_polys()
        k1, _ = drop_inactive(p1, np.array([1e-12, 1e-9, 1.0]), p2, np.ones(2))
        assert p1.keep(k1).ids == (1, 2)

    def test_length_mismatch(self):
        p1, p2 = self.make_polys()
        with pytest.raises(ValueError):
            drop_inactive(p1, np.zeros(2), p2, np.zeros(2))

    def test_drop_then_add_reproduces_equivalent(self):
        p1, p2 = self.make_polys()
        k1, _ = drop_inactive(p1, np.array([0.0, 1.0, 1.0]), p2, np.ones(2))
        readded = p1.keep(k1).add(p1.W[0], p1.c[0], 99)
        assert readded.size == p1.size
        got = sorted((tuple(w), c) for w, c in zip(readded.W, readded.c))
        want = sorted((tuple(w), c) for w, c in zip(p1.W, p1.c))
        assert got == want


class TestCutViolation:
    def test_on_hyperplane_zero(self):
        d, N = 2, 2
        cut = toy_cut("I", d=d, N=N, c=0.0, seed=7)
        rng = np.random.default_rng(8)
        # Construct a point on the hyperplane by solving for the last z3 coord.
        (a1, a2, a3), (_, _, b3) = row_blocks(Dims(d1=d, d2=d, d3=d, N=N), cut[0])
        x3 = [rng.standard_normal(d) for _ in range(N)]
        z1, z2 = rng.standard_normal(d), rng.standard_normal(d)
        partial = (float(a1 @ z1) + float(a2 @ z2)
                   + sum(float(b @ x) for b, x in zip(b3, x3)))
        z3 = np.zeros(d)
        z3[-1] = -partial / a3[-1]
        dims = Dims(d1=d, d2=d, d3=d, N=N)
        got = Polytope(dims).add(*cut, 0).residuals(state_of(dims, z1, z2, z3, x3=x3))
        assert got[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_dot_products(self):
        rng = np.random.default_rng(9)
        w, c = toy_cut("II", d=3, N=2, c=0.7, seed=10)
        dims = Dims(d1=3, d2=3, d3=3, N=2)
        (a1, a2, a3), (_, b2, b3) = row_blocks(dims, w)
        poly = Polytope(dims).add(w, c, 0)
        for _ in range(20):
            x3 = [rng.standard_normal(3) for _ in range(2)]
            x2 = [rng.standard_normal(3) for _ in range(2)]
            z1, z2, z3 = (rng.standard_normal(3) for _ in range(3))
            expected = (a1 @ z1 + a2 @ z2 + a3 @ z3
                        + sum(b @ x for b, x in zip(b3, x3))
                        + sum(b @ x for b, x in zip(b2, x2)) - c)
            got = poly.residuals(state_of(dims, z1, z2, z3, x2=x2, x3=x3))
            assert got[0] == pytest.approx(float(expected), abs=1e-12)

    def test_polytope_residuals_are_the_cut_violations(self):
        rng = np.random.default_rng(15)
        for layer in ("I", "II"):
            cuts = [toy_cut(layer, seed=20 + i) for i in range(3)]
            poly = polytope_of(TOY_DIMS, cuts)
            n_per_worker = 1 if layer == "I" else 2  # x3, then x2 for layer II
            z = [rng.standard_normal(2) for _ in range(3)]
            x = [rng.standard_normal((2, 2)) for _ in range(n_per_worker)]
            point = state_of(TOY_DIMS, *z, **dict(zip(("x3", "x2"), x)))
            got = poly.residuals(point)
            want = [residual(cut, point) for cut in cuts]
            assert np.allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_anchor_point_of_valid_cut_satisfied(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(11)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
        trace = solve_level3(problem, state_of(problem.dims, z1, z2), cfg=cfg)
        x_hat, z_hat = trace.estimate
        # Anchor with h(point) = 0 <= eps: the cut is satisfied there.
        point = state_of(problem.dims, z1, z2, z_hat, x3=list(x_hat))
        cut = generate_cut_I(trace, point)
        assert residual(cut, point) <= 0.0


class TestValidateCut:
    def test_convex_h_zero_violations(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(12)
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level3(problem, state_of(problem.dims, z1, z2), cfg=cfg)
        cut = generate_cut_I(with_cut_params(trace, alphas=(9.0, 9.0, 9.0)),
                             state_of(problem.dims, z1, z2, z3, x3=x3))
        report = validate_cut(cut, trace, eps=1e-2, n_samples=1000, seed=0,
                              alphas=(9.0, 9.0, 9.0))
        assert not report.inconclusive
        assert report.violations == 0
        assert report.max_violation <= 0.0

    @pytest.mark.parametrize("layer", ["I", "II"])
    def test_each_draw_reruns_the_unroll_once(self, quad, monkeypatch, layer):
        problem, _ = quad
        rng = np.random.default_rng(16)
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3, x2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        trace = solve_level3(problem, state_of(problem.dims, z1, z2), cfg=cfg)
        point = state_of(problem.dims, z1, z2, z3, x3=x3)
        generate, solve = generate_cut_I, "solve_level3"
        if layer == "II":
            poly1 = Polytope(problem.dims).add(*generate_cut_I(trace, point), 0)
            trace = solve_level2(problem, point, poly1, cfg=cfg)
            point = state_of(problem.dims, z1, z2, z3, x2=x2, x3=x3)
            generate, solve = generate_cut_II, "solve_level2"
        cut = generate(with_cut_params(trace, alphas=(9.0, 9.0, 9.0)), point)
        calls, unroll = [], getattr(inner, solve)
        monkeypatch.setattr(inner, solve, lambda *a, **kw: calls.append(1) or unroll(*a, **kw))
        report = validate_cut(cut, trace, eps=1e-2, n_samples=20, seed=0,
                              alphas=(9.0, 9.0, 9.0))
        assert report.samples_checked == 20 and len(calls) == report.draws

    def test_estimated_mu_cut_valid_and_under_mu_detected(self):
        # Constructed nonconvex h: a one-round unroll whose estimate is
        # -amp sin(freq z2'), so h oscillates in z2'.  The cut built with the
        # estimated modulus stays valid; dividing the modulus by ten produces
        # measurable violations.
        freq, amp, eps = 4.0, 0.3, 0.01
        dims = Dims(d1=1, d2=1, d3=1, N=1)
        problem = TrilevelProblem(
            dims=dims,
            eval_fn=lambda level, V: amp * np.sin(freq * V[:, 1]) * V[:, 2],
            grad_fn=lambda level, V: np.concatenate(
                [np.zeros((1, 1)), amp * freq * np.cos(freq * V[:, 1:2]) * V[:, 2:3],
                 amp * np.sin(freq * V[:, 1:2])], axis=1),
        )
        cfg = InnerConfig(K=1, eta_x=1.0, eta_z=1.0, eta_phi=0.1)
        trace = solve_level3(problem, state_of(dims, np.zeros(1), np.zeros(1)), cfg=cfg)
        fn, grad = flat_h(trace)
        r3 = amp + np.sqrt(eps) + 0.05
        alphas = (1e-4, 1.0, r3 * r3)
        anchor = state_of(dims, np.zeros(1), np.zeros(1), np.zeros(1), x3=[np.array([amp])])
        rng = np.random.default_rng(13)
        pts = [flat_row(anchor.Z, anchor.X)]  # rows [z1 z2 z3 | x1 x2 x3]: x1 = x2 = 0, unread by h_I
        for _ in range(80):  # tube samples along the estimate manifold
            z2 = rng.uniform(-1, 1)
            x3 = -amp * np.sin(freq * z2) + rng.uniform(-np.sqrt(eps), np.sqrt(eps))
            pts.append(np.array([0.0, z2, rng.uniform(-0.1, 0.1), 0.0, 0.0, x3]))
        for _ in range(40):
            x3 = rng.uniform(-r3, r3)
            pts.append(np.array([0.0, rng.uniform(-1, 1), rng.uniform(-r3, r3), 0.0, 0.0, x3]))
        mu_hat = estimate_mu(fn, pts, grad=grad)
        assert mu_hat > 1.0
        good = generate_cut_I(with_cut_params(trace, mu=mu_hat, eps=eps, alphas=alphas), anchor)
        rep_good = validate_cut(good, trace, eps=eps, n_samples=400, seed=1, alphas=alphas)
        assert rep_good.violations == 0
        bad = generate_cut_I(with_cut_params(trace, mu=mu_hat / 10.0, eps=eps, alphas=alphas),
                             anchor)
        rep_bad = validate_cut(bad, trace, eps=eps, n_samples=400, seed=1, alphas=alphas)
        assert rep_bad.violations > 0

    def test_membership_monotone_under_added_cuts(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(14)
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(2), np.zeros(2)), cfg=cfg)
        poly = Polytope(problem.dims)

        def draw_point():  # x3 is drawn first, then z1, z2, z3
            x3 = [rng.standard_normal(2) for _ in range(2)]
            return state_of(problem.dims, rng.standard_normal(2), rng.standard_normal(2),
                            rng.standard_normal(2), x3=x3)

        samples = [draw_point() for _ in range(400)]

        def membership(p):
            return sum(bool((p.residuals(pt) <= 0.0).all()) for pt in samples)

        counts = [membership(poly)]
        for k in range(4):
            anchor = draw_point()
            cut = generate_cut_I(trace, anchor)
            poly = poly.add(*cut, k)
            counts.append(membership(poly))
        assert all(b <= a for a, b in zip(counts, counts[1:]))


def block_residual(cut, state):
    """``w . [Z | X.ravel()] - c`` of a cut ``(w, c)``, summed block by block over ``Dims.split``
    of Z and X's rows."""
    (w, c), d = cut, state.dims
    wZ, wX = w[:d.width], w[d.width:].reshape(d.N, d.width)
    total = sum(float(a @ z) for a, z in zip(d.split(wZ), d.split(state.Z)))
    for j in range(d.N):
        total += sum(float(b @ x) for b, x in zip(d.split(wX[j]), d.split(state.X[j])))
    return total - c


# The quadratic has second derivatives (backward sweep), robust HPO does not (finite differences).
@pytest.mark.parametrize("name", ["quadratic", "robust-hpo"])
def test_run_stores_cuts_over_the_state_row(monkeypatch, name):
    if name == "quadratic":
        problem, _ = build_quadratic_problem(seed=3, dims=(2, 3, 4), N=3, coupling=0.3)
        inner_cfg = InnerConfig(K=3)
    else:
        data = make_synthetic_dataset(seed=0, rows=80, features=3)
        problem = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=(4,)), N=2).problem
        inner_cfg = InnerConfig(K=3, warm_start=True)
    d = problem.dims
    # Every cut run stores goes through Polytope.add, layer I's first in each refinement.
    stored, add = [], Polytope.add
    monkeypatch.setattr(Polytope, "add", lambda poly, w, c, cut_id:
                        stored.append((w, c, cut_id)) or add(poly, w, c, cut_id))
    res = run(problem, inner_cfg, OuterConfig(T_pre=2, max_iters=4),
              ScheduleConfig(N=d.N, S=d.N, seed=0))
    assert res.log.status != "aborted" and len(stored) == 6
    layers = {"I": stored[0::2], "II": stored[1::2]}
    added = [r.cuts_added for r in res.log.records if r.refined]
    assert [[i for _, _, i in pair] for pair in zip(*layers.values())] == added
    # The returned polytopes hold the stored rows, bit for bit, under their ids.
    for layer, poly in (("I", res.poly1), ("II", res.poly2)):
        by_id = {i: (w, c) for w, c, i in layers[layer]}
        assert set(poly.ids) <= set(by_id)
        for w, c, i in zip(poly.W, poly.c, poly.ids):
            assert np.array_equal(w, by_id[i][0]) and c == by_id[i][1]
    # Layer I reads X's x3 columns, layer II its x2 and x3 columns.
    first_read = {"I": d.columns(3).start, "II": d.columns(2).start}
    for layer, cuts in layers.items():
        for w, _, cut_id in cuts:
            wX = w[d.width:].reshape(d.N, d.width)
            assert np.all(wX[:, :first_read[layer]] == 0.0), (layer, cut_id)
            assert np.any(wX[:, first_read[layer]:] != 0.0)
    rng = np.random.default_rng(1)
    states = [res.state, state_of(d, *(rng.standard_normal(k) for k in d.sizes),
                                  *(rng.standard_normal((d.N, k)) for k in d.sizes))]
    for cuts in layers.values():
        poly = Polytope(d, [w for w, _, _ in cuts], [c for _, c, _ in cuts],
                        tuple(i for _, _, i in cuts))
        for state in states:
            want = [block_residual((w, c), state) for w, c, _ in cuts]
            assert np.allclose(poly.residuals(state), want, rtol=1e-12, atol=1e-12)
