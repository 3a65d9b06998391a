"""The stacked-array unrolls against a per-worker list reference.

``ref_level3_round`` and ``ref_level2_round`` are the list-based round
functions the array unrolls replaced, kept here as an oracle: one stacked
oracle call per round, then one Python array per worker, and the same
floating-point association.
``solve_level3`` and ``solve_level2`` must reproduce their path bit for bit.
"""

import numpy as np
import pytest

from fedtri.cuts import Polytope, generate_cut_I
from fedtri.inner import (
    InnerConfig,
    level2_steps,
    solve_level2,
    solve_level3,
)
from fedtri.problems import build_quadratic_problem
from oracle_rows import stack_rows, state_of


def ref_level3_round(problem, z1, z2p, x, z, phi, cfg):
    N = problem.dims.N
    G = problem.grad_all(3, stack_rows(problem.dims, z1, z2p, np.array(x)))[
        :, problem.dims.columns(3)]
    gx = [G[j] + phi[j] + cfg.kappa * (x[j] - z) for j in range(N)]
    gz = -sum(phi[j] + cfg.kappa * (x[j] - z) for j in range(N))
    x_new = [x[j] - cfg.eta_x * gx[j] for j in range(N)]
    z_new = z - cfg.eta_z * gz
    phi_new = [phi[j] + cfg.eta_phi * (x_new[j] - z_new) for j in range(N)]
    return x_new, z_new, phi_new


def ref_level2_round(problem, z1, x3, x, z2, s, gamma, phi, r0, a2s, cfg, eta_z, eta_gamma):
    N = problem.dims.N
    L = len(r0)
    G = problem.grad_all(2, stack_rows(problem.dims, z1, np.array(x), np.array(x3)))[
        :, problem.dims.columns(2)]
    gx = [G[j] + phi[j] + cfg.kappa * (x[j] - z2) for j in range(N)]
    gz2 = -sum(phi[j] + cfg.kappa * (x[j] - z2) for j in range(N))
    if L:
        resid = (r0 + a2s @ z2) + s
        gz2 = gz2 + a2s.T @ (gamma + resid)
    x_new = [x[j] - cfg.eta_x * gx[j] for j in range(N)]
    z2_new = z2 - eta_z * gz2
    if L:
        r_new = r0 + a2s @ z2_new
        s_new = np.maximum(0.0, -r_new - gamma)
        gamma_new = np.maximum(0.0, gamma + eta_gamma * (r_new + s_new))
    else:
        s_new = s
        gamma_new = gamma
    phi_new = [phi[j] + cfg.eta_phi * (x_new[j] - z2_new) for j in range(N)]
    return x_new, z2_new, s_new, gamma_new, phi_new


def ref_path_level3(problem, z1, z2p, x, z, phi, cfg):
    path = [(x, z, phi)]
    for _ in range(cfg.K):
        x, z, phi = ref_level3_round(problem, z1, z2p, x, z, phi, cfg)
        path.append((x, z, phi))
    return path


def ref_path_level2(problem, z1, z3, x3, poly, x, z2, phi, s, gamma, cfg):
    r0 = poly.residuals(state_of(problem.dims, z1, 0.0, z3, x3=x3))  # the residuals at z2 = 0
    eta_z, eta_gamma = level2_steps(cfg, poly)
    path = [(x, z2, phi, s, gamma)]
    for _ in range(cfg.K):
        x, z2, s, gamma, phi = ref_level2_round(problem, z1, x3, x, z2, s, gamma, phi,
                                                r0, poly.A2, cfg, eta_z, eta_gamma)
        path.append((x, z2, phi, s, gamma))
    return path


def assert_rows_equal(stacked, rows):
    assert stacked.shape[0] == len(rows)
    for a, b in zip(stacked, rows):
        assert np.array_equal(a, b)


CFG = InnerConfig(K=8, eta_x=0.15, eta_z=0.15, eta_phi=0.15)


@pytest.fixture(scope="module")
def setup():
    # Distinct block sizes, so a mixed-up block shows as a shape error.
    problem, _ = build_quadratic_problem(seed=11, dims=(2, 3, 4), N=3, coupling=0.2)
    rng = np.random.default_rng(12)
    d = problem.dims
    z1, z2, z3 = (rng.standard_normal(k) for k in (d.d1, d.d2, d.d3))
    x3 = [rng.standard_normal(d.d3) for _ in range(d.N)]
    return problem, rng, z1, z2, z3, x3


def test_level3_matches_reference_from_warm_init(setup):
    problem, rng, z1, z2, _, _ = setup
    d = problem.dims
    x0 = [rng.standard_normal(d.d3) for _ in range(d.N)]
    z0 = rng.standard_normal(d.d3)
    phi0 = [rng.standard_normal(d.d3) for _ in range(d.N)]
    trace = solve_level3(problem, state_of(d, z1, z2), init=(x0, z0, phi0), cfg=CFG)
    ref = ref_path_level3(problem, z1, z2, x0, z0, phi0, CFG)
    assert len(trace.x) == len(ref)
    for k, (x, z, phi) in enumerate(ref):
        assert_rows_equal(trace.x[k], x)
        assert np.array_equal(trace.z[k], z)
        assert_rows_equal(trace.phi[k], phi)


def test_level3_matches_reference_from_zero(setup):
    problem, _, z1, z2, _, _ = setup
    d = problem.dims
    trace = solve_level3(problem, state_of(d, z1, z2), cfg=CFG)
    zeros = [np.zeros(d.d3) for _ in range(d.N)]
    ref = ref_path_level3(problem, z1, z2, zeros, np.zeros(d.d3), zeros, CFG)
    assert_rows_equal(trace.x[-1], ref[-1][0])
    assert np.array_equal(trace.z[-1], ref[-1][1])
    assert_rows_equal(trace.phi[-1], ref[-1][2])


def test_level2_matches_reference_with_cuts_and_warm_duals(setup):
    problem, rng, z1, z2, z3, x3 = setup
    d = problem.dims
    t1 = solve_level3(problem, state_of(d, z1, z2), cfg=CFG)
    poly1 = Polytope(d)
    for i, shift in enumerate((0.0, 0.5)):
        poly1 = poly1.add(*generate_cut_I(t1, state_of(d, z1, z2 + shift, z3, x3=x3)), i)
    x0 = [rng.standard_normal(d.d2) for _ in range(d.N)]
    z0 = rng.standard_normal(d.d2)
    phi0 = [rng.standard_normal(d.d2) for _ in range(d.N)]
    s0 = np.array([0.3, 1.2])
    g0 = np.array([0.7, 0.1])
    trace = solve_level2(problem, state_of(d, z1, z3=z3, x3=x3), poly1,
                         init=(x0, z0, phi0, s0, g0), cfg=CFG)
    ref = ref_path_level2(problem, z1, z3, x3, poly1, x0, z0, phi0, s0, g0, CFG)
    assert len(trace.x) == len(ref)
    for k, (x, z, phi, s, gamma) in enumerate(ref):
        assert_rows_equal(trace.x[k], x)
        assert np.array_equal(trace.z[k], z)
        assert_rows_equal(trace.phi[k], phi)
        assert np.array_equal(trace.s[k], s)
        assert np.array_equal(trace.gamma[k], gamma)
    # The slack and dual paths are not trivially zero, so the cut branch ran.
    assert trace.s[1:].any() or trace.gamma[1:].any()


def test_snapshots_are_views_of_the_recorded_path(setup):
    problem, _, z1, z2, z3, x3 = setup
    trace = solve_level2(problem, state_of(problem.dims, z1, z3=z3, x3=x3), Polytope(problem.dims),
                         cfg=CFG)
    assert trace.x.shape == (CFG.K + 1, problem.dims.N, problem.dims.d2)
    assert trace.z.shape == (CFG.K + 1, problem.dims.d2)
    assert trace.s.shape == trace.gamma.shape == (CFG.K + 1, 0)
    x_hat, z_hat = trace.estimate
    assert np.shares_memory(x_hat, trace.x) and np.shares_memory(z_hat, trace.z)


def test_init_shape_is_checked(setup):
    problem, _, z1, z2, _, _ = setup
    d = problem.dims
    short = ([np.zeros(d.d3)] * (d.N - 1), np.zeros(d.d3), [np.zeros(d.d3)] * d.N)
    with pytest.raises(ValueError, match="initial x"):
        solve_level3(problem, state_of(d, z1, z2), init=short, cfg=CFG)
    long = (np.zeros((d.N, d.d3)), np.zeros(d.d3), None, None, None, "junk", 7)
    with pytest.raises(ValueError, match="at most 5"):
        solve_level3(problem, state_of(d, z1, z2), init=long, cfg=CFG)
