import numpy as np
import pytest

from fedtri.core import Dims, FedtriError, TrilevelProblem, flat_point, point_shapes, split_point
from fedtri.cuts import (
    Cut,
    Polytope,
    add_cut,
    drop_inactive,
    generate_cut_I,
    generate_cut_II,
    normalize_cut,
)
from fedtri import inner
from fedtri.inner import InnerConfig, eval_h, grad_h, solve_level2, solve_level3
from fedtri.problems import build_quadratic_problem
from cut_checks import estimate_mu, flat_h, validate_cut


def toy_cut(layer="I", d=2, N=2, c=1.0, cut_id=0, seed=0):
    rng = np.random.default_rng(seed)
    width = 3 * d + N * d * (2 if layer == "II" else 1)
    return Cut(layer=layer, w=rng.standard_normal(width), c=c, id=cut_id)


TOY_DIMS = Dims(d1=2, d2=2, d3=2, N=2)  # the dims of toy_cut's defaults

# Unit alphas, and unequal ones under which a block given the wrong alpha shows.
INFLATION_ALPHAS = ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))


def inflation_ball(layer, dims, alphas):
    """The alpha part of a cut's inflation: each row of each block brings its block's alpha."""
    a1, a2, a3 = alphas
    block_alphas = (a1, a2, a3, a3, a2)  # z1, z2, z3, x3 rows, x2 rows: point_shapes' order
    return sum(a * int(np.prod(shape[:-1])) for a, shape in
               zip(block_alphas, point_shapes(layer, dims)))


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
        trace = solve_level3(problem, np.zeros(1), np.zeros(1), cfg=cfg)
        point = (np.zeros(1), np.zeros(1), np.array([1.0]), [np.zeros(1)])
        cut = generate_cut_I(trace, point, mu=0.0, eps1=0.1, alphas=problem.alphas)
        a1, a2, a3, b3 = split_point("I", problem.dims, cut.w)
        assert np.allclose(a3, [2.0], atol=1e-9)
        assert np.allclose(a1, [0.0], atol=1e-9)
        assert np.allclose(a2, [0.0], atol=1e-9)
        assert np.allclose(b3[0], [0.0], atol=1e-9)
        assert cut.c == pytest.approx(1.1, abs=1e-9)

    def test_mu_zero_matches_classic_convex_cut(self, quad):
        # Independent construction of the classic first-order cut:
        # grad . v <= eps - h0 + grad . v0.
        problem, _ = quad
        rng = np.random.default_rng(4)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level3(problem, z1, z2, cfg=cfg)
        point = (z1, z2, z3, x3)
        cut = generate_cut_I(trace, point, mu=0.0, eps1=1e-2,
                             alphas=problem.alphas)
        v0 = flat_point(*point)
        g = flat_point(*grad_h(trace, point))
        h0 = eval_h(trace, point)
        c_classic = 1e-2 - h0 + float(g @ v0)
        assert np.allclose(cut.w, g, rtol=1e-12, atol=1e-12)
        assert cut.c == pytest.approx(c_classic, rel=1e-12)

    def test_rhs_inflation_term_by_term(self, quad):
        # mu = 2, origin anchor: the inflation is its alpha part alone.
        problem, _ = quad
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level3(problem, np.zeros(2), np.zeros(2), cfg=cfg)
        zero_pt = (np.zeros(2), np.zeros(2), np.zeros(2), [np.zeros(2)] * 2)
        eps1, mu = 0.05, 2.0
        for alphas in INFLATION_ALPHAS:
            cut0 = generate_cut_I(trace, zero_pt, mu=0.0, eps1=eps1,
                                  alphas=alphas)
            cut = generate_cut_I(trace, zero_pt, mu=mu, eps1=eps1,
                                 alphas=alphas)
            inflation = inflation_ball("I", problem.dims, alphas)
            assert cut.c - cut0.c == pytest.approx(mu * inflation, rel=1e-12), alphas


class TestGenerateCutII:
    def test_mu_zero_classic(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(5)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        x2 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level2(problem, z1, z3, x3, (), cfg=cfg)
        point = (z1, z2, z3, x3, x2)
        cut = generate_cut_II(trace, point, mu=0.0, eps2=1e-2,
                              alphas=problem.alphas)
        v0 = flat_point(*point)
        g = flat_point(*grad_h(trace, point))
        assert np.allclose(cut.w, g, rtol=1e-12, atol=1e-12)
        assert cut.c == pytest.approx(1e-2 - eval_h(trace, point) + float(g @ v0), rel=1e-12)

    def test_inflation_origin_n2(self, quad):
        # mu = 1, N = 2 workers, origin anchor: 7 with unit alphas, 1 + 3 (2 + 3) = 16 unequal.
        problem, _ = quad
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level2(problem, np.zeros(2), np.zeros(2),
                             [np.zeros(2)] * 2, (), cfg=cfg)
        pt = (np.zeros(2), np.zeros(2), np.zeros(2),
              [np.zeros(2)] * 2, [np.zeros(2)] * 2)
        eps2 = 0.3
        for alphas in INFLATION_ALPHAS:
            cut0 = generate_cut_II(trace, pt, mu=0.0, eps2=eps2,
                                   alphas=alphas)
            cut = generate_cut_II(trace, pt, mu=1.0, eps2=eps2,
                                  alphas=alphas)
            inflation = inflation_ball("II", problem.dims, alphas)
            assert cut.c - cut0.c == pytest.approx(inflation, rel=1e-12), alphas

    def test_slack_at_own_anchor(self, quad):
        # Substituting the anchor kills the linear term: slack = c - lhs
        # equals eps + mu inflation - h(anchor) >= eps - h(anchor).
        problem, _ = quad
        rng = np.random.default_rng(6)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        x2 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level2(problem, z1, z3, x3, (), cfg=cfg)
        point = (z1, z2, z3, x3, x2)
        eps2, mu = 1e-2, 0.5
        cut = generate_cut_II(trace, point, mu=mu, eps2=eps2,
                              alphas=(1.0, 1.0, 1.0))
        h0 = eval_h(trace, point)
        slack = -residual(cut, *point)
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
        trace = solve_level2(problem, z1, z3, x3, (), cfg=cfg)
        raw = generate_cut_II(trace, (z1, z2, z3, x3, x2), mu=0.5, eps2=1e-2,
                              alphas=(1.0, 1.0, 1.0))
        unit = normalize_cut(raw)
        assert np.linalg.norm(unit.w) == pytest.approx(1.0, rel=1e-12)
        assert (unit.id, unit.layer) == (raw.id, raw.layer)

        # Points spread around the cut's boundary land on both sides of it.
        scale = abs(raw.c) / np.linalg.norm(raw.w)
        accepted = rejected = 0
        for _ in range(400):
            pz = [scale * rng.standard_normal(2) for _ in range(3)]
            px3 = [scale * rng.standard_normal(2) for _ in range(2)]
            px2 = [scale * rng.standard_normal(2) for _ in range(2)]
            inside_raw = residual(raw, *pz, px3, px2) <= 0.0
            inside_unit = residual(unit, *pz, px3, px2) <= 0.0
            assert inside_raw == inside_unit
            accepted += inside_raw
            rejected += not inside_raw
        assert accepted and rejected

    def test_zero_norm_cut_unchanged(self):
        cut = Cut(layer="II", w=np.zeros(14), c=0.5, id=3)
        assert normalize_cut(cut) is cut


def residual(cut, *point):
    """A cut's ``w . p - c``, computed apart from ``Polytope.residuals``."""
    return float(cut.w @ flat_point(*point) - cut.c)


def cut_inflation_ii(point, alphas=(1.0, 1.0, 1.0)):
    z1, z2, z3, x3, x2 = point
    n = len(x2)
    a1, a2, a3 = alphas
    total = a1 + (n + 1) * (a2 + a3)
    total += sum(float(v @ v) for v in x2) + sum(float(v @ v) for v in x3)
    total += float(z1 @ z1) + float(z2 @ z2) + float(z3 @ z3)
    return total


class TestPolytopeOps:
    def test_add_increments(self):
        poly = Polytope("I", TOY_DIMS)
        poly = add_cut(poly, toy_cut(cut_id=0))
        assert poly.size == 1

    def test_duplicate_coefficients_allowed(self):
        poly = Polytope("I", TOY_DIMS)
        poly = add_cut(poly, toy_cut(cut_id=0, seed=9))
        poly = add_cut(poly, toy_cut(cut_id=1, seed=9))
        assert poly.size == 2

    def test_layer_mismatch(self):
        poly = Polytope("I", TOY_DIMS)
        with pytest.raises(FedtriError):
            add_cut(poly, toy_cut(layer="II", cut_id=0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Polytope("I", TOY_DIMS, (toy_cut(cut_id=0), toy_cut(cut_id=0, seed=1)))


class TestDropInactive:
    def make_polys(self, n1=3, n2=2):
        p1 = Polytope("I", TOY_DIMS, tuple(toy_cut("I", cut_id=i, seed=i) for i in range(n1)))
        p2 = Polytope("II", TOY_DIMS, tuple(toy_cut("II", cut_id=10 + i, seed=i) for i in range(n2)))
        return p1, p2

    def test_all_positive_keeps_everything(self):
        p1, p2 = self.make_polys()
        q1, q2 = drop_inactive(p1, np.array([0.1, 0.2, 0.3]), p2, np.array([0.5, 0.5]))
        assert q1.ids() == p1.ids() and q2.ids() == p2.ids()

    def test_all_zero_empties(self):
        p1, p2 = self.make_polys()
        q1, q2 = drop_inactive(p1, np.zeros(3), p2, np.zeros(2))
        assert q1.size == 0 and q2.size == 0

    def test_selective_rule(self):
        p1, p2 = self.make_polys(n1=3, n2=2)
        q1, q2 = drop_inactive(p1, np.array([0.0, 0.3, 0.0]), p2, np.array([0.1, 0.0]))
        assert q1.ids() == (1,)
        assert q2.ids() == (10,)

    def test_protected_id_survives(self):
        p1, p2 = self.make_polys()
        _, q2 = drop_inactive(p1, np.ones(3), p2, np.zeros(2), protect2=(11,))
        assert q2.ids() == (11,)

    def test_numerical_zero_tolerance(self):
        p1, p2 = self.make_polys()
        q1, _ = drop_inactive(p1, np.array([1e-12, 1e-9, 1.0]), p2, np.ones(2))
        assert q1.ids() == (1, 2)

    def test_length_mismatch(self):
        p1, p2 = self.make_polys()
        with pytest.raises(ValueError):
            drop_inactive(p1, np.zeros(2), p2, np.zeros(2))

    def test_drop_then_add_reproduces_equivalent(self):
        p1, p2 = self.make_polys()
        cut = p1.cuts[0]
        q1, _ = drop_inactive(p1, np.array([0.0, 1.0, 1.0]), p2, np.ones(2))
        readded = add_cut(q1, Cut(layer="I", w=cut.w, c=cut.c, id=99))
        assert readded.size == p1.size
        got = sorted((tuple(c.w), c.c) for c in readded.cuts)
        want = sorted((tuple(c.w), c.c) for c in p1.cuts)
        assert got == want


class TestCutViolation:
    def test_on_hyperplane_zero(self):
        d, N = 2, 2
        cut = toy_cut("I", d=d, N=N, c=0.0, seed=7)
        rng = np.random.default_rng(8)
        # Construct a point on the hyperplane by solving for the last z3 coord.
        a1, a2, a3, b3 = split_point("I", Dims(d1=d, d2=d, d3=d, N=N), cut.w)
        x3 = [rng.standard_normal(d) for _ in range(N)]
        z1, z2 = rng.standard_normal(d), rng.standard_normal(d)
        partial = (float(a1 @ z1) + float(a2 @ z2)
                   + sum(float(b @ x) for b, x in zip(b3, x3)))
        z3 = np.zeros(d)
        z3[-1] = -partial / a3[-1]
        got = Polytope("I", Dims(d1=d, d2=d, d3=d, N=N), (cut,)).residuals(z1, z2, z3, x3)
        assert got[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_dot_products(self):
        rng = np.random.default_rng(9)
        cut = toy_cut("II", d=3, N=2, c=0.7, seed=10)
        dims = Dims(d1=3, d2=3, d3=3, N=2)
        a1, a2, a3, b3, b2 = split_point("II", dims, cut.w)
        poly = Polytope("II", dims, (cut,))
        for _ in range(20):
            x3 = [rng.standard_normal(3) for _ in range(2)]
            x2 = [rng.standard_normal(3) for _ in range(2)]
            z1, z2, z3 = (rng.standard_normal(3) for _ in range(3))
            expected = (a1 @ z1 + a2 @ z2 + a3 @ z3
                        + sum(b @ x for b, x in zip(b3, x3))
                        + sum(b @ x for b, x in zip(b2, x2)) - cut.c)
            got = poly.residuals(z1, z2, z3, x3, x2)
            assert got[0] == pytest.approx(float(expected), abs=1e-12)

    def test_polytope_residuals_are_the_cut_violations(self):
        rng = np.random.default_rng(15)
        for layer in ("I", "II"):
            poly = Polytope(layer, TOY_DIMS, tuple(toy_cut(layer, cut_id=i, seed=20 + i)
                                                   for i in range(3)))
            n_per_worker = 1 if layer == "I" else 2  # x3, then x2 for layer II
            point = (*(rng.standard_normal(2) for _ in range(3)),
                     *(rng.standard_normal((2, 2)) for _ in range(n_per_worker)))
            got = poly.residuals(*point)
            want = [residual(cut, *point) for cut in poly.cuts]
            assert np.allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_anchor_point_of_valid_cut_satisfied(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(11)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
        trace = solve_level3(problem, z1, z2, cfg=cfg)
        x_hat, z_hat = trace.estimate
        # Anchor with h(point) = 0 <= eps: the cut is satisfied there.
        point = (z1, z2, z_hat, list(x_hat))
        cut = generate_cut_I(trace, point, mu=0.0, eps1=1e-2,
                             alphas=problem.alphas)
        assert residual(cut, z1, z2, point[2], point[3]) <= 0.0


class TestValidateCut:
    def test_convex_h_zero_violations(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(12)
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level3(problem, z1, z2, cfg=cfg)
        cut = generate_cut_I(trace, (z1, z2, z3, x3), mu=0.0, eps1=1e-2,
                             alphas=(9.0, 9.0, 9.0))
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
        trace = solve_level3(problem, z1, z2, cfg=cfg)
        point, generate, solve = (z1, z2, z3, x3), generate_cut_I, "solve_level3"
        if layer == "II":
            trace = solve_level2(problem, z1, z3, x3, (generate_cut_I(trace, point, 0.0, 1e-2,
                                                                     problem.alphas),), cfg=cfg)
            point, generate, solve = (z1, z2, z3, x3, x2), generate_cut_II, "solve_level2"
        cut = generate(trace, point, 0.0, 1e-2, (9.0, 9.0, 9.0))
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
        trace = solve_level3(problem, np.zeros(1), np.zeros(1), cfg=cfg)
        fn, grad = flat_h(trace)
        r3 = amp + np.sqrt(eps) + 0.05
        alphas = (1e-4, 1.0, r3 * r3)
        anchor = (np.zeros(1), np.zeros(1), np.zeros(1), [np.array([amp])])
        rng = np.random.default_rng(13)
        pts = [flat_point(*anchor)]
        for _ in range(80):  # tube samples along the estimate manifold
            z2 = rng.uniform(-1, 1)
            x3 = -amp * np.sin(freq * z2) + rng.uniform(-np.sqrt(eps), np.sqrt(eps))
            pts.append(np.array([0.0, z2, rng.uniform(-0.1, 0.1), x3]))
        for _ in range(40):
            x3 = rng.uniform(-r3, r3)
            pts.append(np.array([0.0, rng.uniform(-1, 1), rng.uniform(-r3, r3), x3]))
        mu_hat = estimate_mu(fn, pts, grad=grad)
        assert mu_hat > 1.0
        good = generate_cut_I(trace, anchor, mu=mu_hat, eps1=eps, alphas=alphas)
        rep_good = validate_cut(good, trace, eps=eps, n_samples=400, seed=1, alphas=alphas)
        assert rep_good.violations == 0
        bad = generate_cut_I(trace, anchor, mu=mu_hat / 10.0, eps1=eps, alphas=alphas)
        rep_bad = validate_cut(bad, trace, eps=eps, n_samples=400, seed=1, alphas=alphas)
        assert rep_bad.violations > 0

    def test_membership_monotone_under_added_cuts(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(14)
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level3(problem, np.zeros(2), np.zeros(2), cfg=cfg)
        poly = Polytope("I", problem.dims)

        def draw_point():  # x3 is drawn first, then z1, z2, z3
            x3 = [rng.standard_normal(2) for _ in range(2)]
            return (rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2), x3)

        samples = [draw_point() for _ in range(400)]

        def membership(p):
            return sum(bool((p.residuals(*pt) <= 0.0).all()) for pt in samples)

        counts = [membership(poly)]
        for k in range(4):
            anchor = draw_point()
            cut = generate_cut_I(trace, anchor, mu=0.0, eps1=1e-2,
                                 alphas=problem.alphas,
                                 cut_id=k)
            poly = add_cut(poly, cut)
            counts.append(membership(poly))
        assert all(b <= a for a, b in zip(counts, counts[1:]))
