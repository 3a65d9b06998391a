import numpy as np
import pytest

from fedtri.core import Dims, FedtriError, TrilevelProblem, estimate_mu
from fedtri.cuts import (
    Cut,
    Polytope,
    add_cut,
    cut_violation,
    drop_inactive,
    generate_cut_I,
    generate_cut_II,
    normalize_cut,
    validate_cut,
)
from fedtri.inner import InnerConfig, eval_h1, h1_flat, h2_flat, solve_level2, solve_level3
from fedtri.problems import build_quadratic_problem


def toy_cut(layer="I", d=2, N=2, c=1.0, cut_id=0, seed=0):
    rng = np.random.default_rng(seed)
    b2 = tuple(rng.standard_normal(d) for _ in range(N)) if layer == "II" else None
    return Cut(
        layer=layer,
        a1=rng.standard_normal(d),
        a2=rng.standard_normal(d),
        a3=rng.standard_normal(d),
        b3=tuple(rng.standard_normal(d) for _ in range(N)),
        b2=b2,
        c=c,
        id=cut_id,
        born_at=0,
    )


@pytest.fixture(scope="module")
def quad():
    return build_quadratic_problem(seed=3, dims=(2, 2, 2), N=2, coupling=0.3)


def scalar_problem():
    """1-D toy whose level-3 objective makes h_I(v) = v^2 at z3 = v."""
    dims = Dims(d1=1, d2=1, d3=1, N=1)
    return TrilevelProblem(
        dims=dims,
        eval_fn=lambda level, j, x1, x2, x3: 0.0,
        grad_fn=lambda level, j, block, x1, x2, x3: np.zeros(1),
        cross_hess_fn=lambda level, j, o, i, x1, x2, x3: np.zeros((1, 1)),
    )


class TestGenerateCutI:
    def test_hand_linearized_scalar_quadratic(self):
        # h(v) = v^2 via a trace whose estimate is pinned at the origin: cut
        # at v = 1 with eps 0.1 must read 2 v <= 1.1.
        problem = scalar_problem()
        cfg = InnerConfig(K=1, eta_x=0.0, eta_z=0.0, eta_phi=0.0)
        trace = solve_level3(problem, np.zeros(1), np.zeros(1), cfg=cfg)
        point = ([np.zeros(1)], np.zeros(1), np.zeros(1), np.array([1.0]))
        cut = generate_cut_I(trace, point, mu=0.0, eps1=0.1, alphas=problem.alphas)
        assert np.allclose(cut.a3, [2.0], atol=1e-9)
        assert np.allclose(cut.a1, [0.0], atol=1e-9)
        assert np.allclose(cut.a2, [0.0], atol=1e-9)
        assert np.allclose(cut.b3[0], [0.0], atol=1e-9)
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
        point = (x3, z1, z2, z3)
        cut = generate_cut_I(trace, point, mu=0.0, eps1=1e-2,
                             alphas=problem.alphas, grad_mode="analytic")
        flat = h1_flat(trace, grad_mode="analytic")
        v0 = flat.pack(*point)
        g = flat.grad(v0)
        h0 = flat.fn(v0)
        c_classic = 1e-2 - h0 + float(g @ v0)
        packed_coeffs = np.concatenate([*cut.b3, cut.a1, cut.a2, cut.a3])
        assert np.allclose(packed_coeffs, g, rtol=1e-12, atol=1e-12)
        assert cut.c == pytest.approx(c_classic, rel=1e-12)

    def test_rhs_inflation_term_by_term(self, quad):
        # mu = 2, unit alphas, origin anchor: inflation = (N+1) a1 + a2 + a3.
        problem, _ = quad
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level3(problem, np.zeros(2), np.zeros(2), cfg=cfg)
        zero_pt = ([np.zeros(2)] * 2, np.zeros(2), np.zeros(2), np.zeros(2))
        eps1, mu = 0.05, 2.0
        cut0 = generate_cut_I(trace, zero_pt, mu=0.0, eps1=eps1,
                              alphas=(1.0, 1.0, 1.0), grad_mode="analytic")
        cut = generate_cut_I(trace, zero_pt, mu=mu, eps1=eps1,
                             alphas=(1.0, 1.0, 1.0), grad_mode="analytic")
        n_workers = problem.dims.N
        inflation = (n_workers + 1) * 1.0 + 1.0 + 1.0  # anchor norms all zero
        assert cut.c - cut0.c == pytest.approx(mu * inflation, rel=1e-12)


class TestGenerateCutII:
    def test_mu_zero_classic(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(5)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        x2 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level2(problem, z1, z3, x3, (), cfg=cfg)
        point = (x2, x3, z1, z2, z3)
        cut = generate_cut_II(trace, point, mu=0.0, eps2=1e-2,
                              alphas=problem.alphas, grad_mode="analytic")
        flat = h2_flat(trace, grad_mode="analytic")
        v0 = flat.pack(*point)
        g = flat.grad(v0)
        packed = np.concatenate([*cut.b2, *cut.b3, cut.a1, cut.a2, cut.a3])
        assert np.allclose(packed, g, rtol=1e-12, atol=1e-12)
        assert cut.c == pytest.approx(1e-2 - flat.fn(v0) + float(g @ v0), rel=1e-12)

    def test_inflation_origin_n2(self, quad):
        # mu = 1, unit alphas, N = 2 workers: inflation = 1 + 3 (1 + 1) = 7.
        problem, _ = quad
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level2(problem, np.zeros(2), np.zeros(2),
                             [np.zeros(2)] * 2, (), cfg=cfg)
        pt = ([np.zeros(2)] * 2, [np.zeros(2)] * 2,
              np.zeros(2), np.zeros(2), np.zeros(2))
        eps2 = 0.3
        cut0 = generate_cut_II(trace, pt, mu=0.0, eps2=eps2,
                               alphas=(1.0, 1.0, 1.0), grad_mode="analytic")
        cut = generate_cut_II(trace, pt, mu=1.0, eps2=eps2,
                              alphas=(1.0, 1.0, 1.0), grad_mode="analytic")
        assert cut.c - cut0.c == pytest.approx(7.0, rel=1e-12)

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
        point = (x2, x3, z1, z2, z3)
        eps2, mu = 1e-2, 0.5
        cut = generate_cut_II(trace, point, mu=mu, eps2=eps2,
                              alphas=(1.0, 1.0, 1.0), grad_mode="analytic")
        from fedtri.inner import eval_h2

        h0 = eval_h2(trace, x2, z2)
        slack = cut.c - cut.lhs(x3, z1, z2, z3, x2=x2)
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
        raw = generate_cut_II(trace, (x2, x3, z1, z2, z3), mu=0.5, eps2=1e-2,
                              alphas=(1.0, 1.0, 1.0), grad_mode="analytic")
        unit = normalize_cut(raw)
        packed = np.concatenate([*unit.b2, *unit.b3, unit.a1, unit.a2, unit.a3])
        assert np.linalg.norm(packed) == pytest.approx(1.0, rel=1e-12)
        assert (unit.id, unit.born_at, unit.layer) == (raw.id, raw.born_at, raw.layer)

        # Points spread around the cut's boundary land on both sides of it.
        scale = abs(raw.c) / np.linalg.norm(
            np.concatenate([*raw.b2, *raw.b3, raw.a1, raw.a2, raw.a3]))
        accepted = rejected = 0
        for _ in range(400):
            pz = [scale * rng.standard_normal(2) for _ in range(3)]
            px3 = [scale * rng.standard_normal(2) for _ in range(2)]
            px2 = [scale * rng.standard_normal(2) for _ in range(2)]
            inside_raw = cut_violation(raw, px3, *pz, x2=px2) <= 0.0
            inside_unit = cut_violation(unit, px3, *pz, x2=px2) <= 0.0
            assert inside_raw == inside_unit
            accepted += inside_raw
            rejected += not inside_raw
        assert accepted and rejected

    def test_zero_norm_cut_unchanged(self):
        z = np.zeros(2)
        cut = Cut(layer="II", a1=z, a2=z, a3=z, b3=(z, z), b2=(z, z), c=0.5,
                  id=3, born_at=1)
        assert normalize_cut(cut) is cut


def cut_inflation_ii(point, alphas=(1.0, 1.0, 1.0)):
    x2, x3, z1, z2, z3 = point
    n = len(x2)
    a1, a2, a3 = alphas
    total = a1 + (n + 1) * (a2 + a3)
    total += sum(float(v @ v) for v in x2) + sum(float(v @ v) for v in x3)
    total += float(z1 @ z1) + float(z2 @ z2) + float(z3 @ z3)
    return total


class TestPolytopeOps:
    def test_add_increments(self):
        poly = Polytope(layer="I")
        poly = add_cut(poly, toy_cut(cut_id=0))
        assert poly.size == 1

    def test_duplicate_coefficients_allowed(self):
        poly = Polytope(layer="I")
        poly = add_cut(poly, toy_cut(cut_id=0, seed=9))
        poly = add_cut(poly, toy_cut(cut_id=1, seed=9))
        assert poly.size == 2

    def test_layer_mismatch(self):
        poly = Polytope(layer="I")
        with pytest.raises(FedtriError):
            add_cut(poly, toy_cut(layer="II", cut_id=0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Polytope(layer="I", cuts=(toy_cut(cut_id=0), toy_cut(cut_id=0, seed=1)))


class TestDropInactive:
    def make_polys(self, n1=3, n2=2):
        p1 = Polytope(layer="I", cuts=tuple(toy_cut("I", cut_id=i, seed=i) for i in range(n1)))
        p2 = Polytope(layer="II", cuts=tuple(toy_cut("II", cut_id=10 + i, seed=i) for i in range(n2)))
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
        readded = add_cut(q1, Cut(layer="I", a1=cut.a1, a2=cut.a2, a3=cut.a3,
                                  b3=cut.b3, c=cut.c, id=99, born_at=5))
        assert readded.size == p1.size
        got = sorted((tuple(c.a1), c.c) for c in readded.cuts)
        want = sorted((tuple(c.a1), c.c) for c in p1.cuts)
        assert got == want


class TestCutViolation:
    def test_on_hyperplane_zero(self):
        d, N = 2, 2
        cut = toy_cut("I", d=d, N=N, c=0.0, seed=7)
        rng = np.random.default_rng(8)
        # Construct a point on the hyperplane by solving for the last z3 coord.
        x3 = [rng.standard_normal(d) for _ in range(N)]
        z1, z2 = rng.standard_normal(d), rng.standard_normal(d)
        partial = (float(cut.a1 @ z1) + float(cut.a2 @ z2)
                   + sum(float(b @ x) for b, x in zip(cut.b3, x3)))
        z3 = np.zeros(d)
        z3[-1] = -partial / cut.a3[-1]
        assert cut_violation(cut, x3, z1, z2, z3) == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_dot_products(self):
        rng = np.random.default_rng(9)
        cut = toy_cut("II", d=3, N=2, c=0.7, seed=10)
        for _ in range(20):
            x3 = [rng.standard_normal(3) for _ in range(2)]
            x2 = [rng.standard_normal(3) for _ in range(2)]
            z1, z2, z3 = (rng.standard_normal(3) for _ in range(3))
            expected = (cut.a1 @ z1 + cut.a2 @ z2 + cut.a3 @ z3
                        + sum(b @ x for b, x in zip(cut.b3, x3))
                        + sum(b @ x for b, x in zip(cut.b2, x2)) - cut.c)
            got = cut_violation(cut, x3, z1, z2, z3, x2=x2)
            assert got == pytest.approx(float(expected), abs=1e-12)

    def test_anchor_point_of_valid_cut_satisfied(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(11)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
        trace = solve_level3(problem, z1, z2, cfg=cfg)
        x_hat, z_hat = trace.estimate
        # Anchor with h(point) = 0 <= eps: the cut is satisfied there.
        point = (list(x_hat), z1, z2, z_hat)
        cut = generate_cut_I(trace, point, mu=0.0, eps1=1e-2,
                             alphas=problem.alphas, grad_mode="analytic")
        assert cut_violation(cut, point[0], z1, z2, point[3]) <= 0.0


class TestValidateCut:
    def test_convex_h_zero_violations(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(12)
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        trace = solve_level3(problem, z1, z2, cfg=cfg)
        cut = generate_cut_I(trace, (x3, z1, z2, z3), mu=0.0, eps1=1e-2,
                             alphas=(9.0, 9.0, 9.0), grad_mode="analytic")
        flat = h1_flat(trace)
        report = validate_cut(cut, flat, eps=1e-2, n_samples=1000, seed=0,
                              alphas=(9.0, 9.0, 9.0))
        assert not report.inconclusive
        assert report.violations == 0
        assert report.max_violation <= 0.0

    def test_estimated_mu_cut_valid_and_under_mu_detected(self):
        # Constructed nonconvex h: a one-round unroll whose estimate is
        # -amp sin(freq z2'), so h oscillates in z2'.  The cut built with the
        # estimated modulus stays valid; dividing the modulus by ten produces
        # measurable violations.
        freq, amp, eps = 4.0, 0.3, 0.01
        dims = Dims(d1=1, d2=1, d3=1, N=1)
        problem = TrilevelProblem(
            dims=dims,
            eval_fn=lambda level, j, x1, x2, x3: amp * float(np.sin(freq * x2[0])) * x3[0],
            grad_fn=lambda level, j, block, x1, x2, x3: (
                np.array([amp * np.sin(freq * x2[0])]) if block == 3
                else (np.array([amp * freq * np.cos(freq * x2[0]) * x3[0]])
                      if block == 2 else np.zeros(1))
            ),
        )
        cfg = InnerConfig(K=1, eta_x=1.0, eta_z=1.0, eta_phi=0.1)
        trace = solve_level3(problem, np.zeros(1), np.zeros(1), cfg=cfg)
        flat = h1_flat(trace)
        r3 = amp + np.sqrt(eps) + 0.05
        alphas = (1e-4, 1.0, r3 * r3)
        anchor = ([np.array([amp])], np.zeros(1), np.zeros(1), np.zeros(1))
        rng = np.random.default_rng(13)
        pts = [flat.pack(*anchor)]
        for _ in range(80):  # tube samples along the estimate manifold
            z2 = rng.uniform(-1, 1)
            x3 = -amp * np.sin(freq * z2) + rng.uniform(-np.sqrt(eps), np.sqrt(eps))
            pts.append(np.array([x3, 0.0, z2, rng.uniform(-0.1, 0.1)]))
        for _ in range(40):
            pts.append(np.array([rng.uniform(-r3, r3), 0.0,
                                 rng.uniform(-1, 1), rng.uniform(-r3, r3)]))
        mu_hat = estimate_mu(flat.fn, pts, pair_samples=10**7, grad=flat.grad)
        assert mu_hat > 1.0
        good = generate_cut_I(trace, anchor, mu=mu_hat, eps1=eps, alphas=alphas)
        rep_good = validate_cut(good, flat, eps=eps, n_samples=400, seed=1, alphas=alphas)
        assert rep_good.violations == 0
        bad = generate_cut_I(trace, anchor, mu=mu_hat / 10.0, eps1=eps, alphas=alphas)
        rep_bad = validate_cut(bad, flat, eps=eps, n_samples=400, seed=1, alphas=alphas)
        assert rep_bad.violations > 0

    def test_membership_monotone_under_added_cuts(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(14)
        cfg = InnerConfig(K=2, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        trace = solve_level3(problem, np.zeros(2), np.zeros(2), cfg=cfg)
        poly = Polytope(layer="I")
        samples = [
            ([rng.standard_normal(2) for _ in range(2)],
             rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2))
            for _ in range(400)
        ]

        def membership(p):
            return sum(
                p.contains(pt[0], pt[1], pt[2], pt[3]) for pt in samples
            )

        counts = [membership(poly)]
        for k in range(4):
            anchor = ([rng.standard_normal(2) for _ in range(2)],
                      rng.standard_normal(2), rng.standard_normal(2),
                      rng.standard_normal(2))
            cut = generate_cut_I(trace, anchor, mu=0.0, eps1=1e-2,
                                 alphas=problem.alphas, grad_mode="analytic",
                                 cut_id=k)
            poly = add_cut(poly, cut)
            counts.append(membership(poly))
        assert all(b <= a for a, b in zip(counts, counts[1:]))
