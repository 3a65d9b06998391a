"""The analytic ``grad_h`` (one backward sweep) against a forward-mode reference.

``ref_jacobians`` is the forward Jacobian sweep the backward sweep replaced,
kept here as an oracle: one full K-round sweep per frozen input (and per
worker for x3), following the recorded slack/dual clamp branches.
``ref_grad_h`` contracts its Jacobians with the deviation at the point.
"""

import dataclasses

import numpy as np
import pytest

import fedtri.inner
from fedtri.cuts import Polytope, generate_cut_I, normalize_cut
from fedtri.inner import InnerConfig, grad_h, level2_steps, solve_level2, solve_level3
from fedtri.problems import build_quadratic_problem
from oracle_rows import stack_rows, state_of

# The oracle block each frozen input occupies; z3 reaches the level-2 unroll
# only through the layer-I cuts.
ORACLE_BLOCK = {"z1": 1, "z2p": 2, "x3": 3, "z3": None}


def cut_columns(poly1, key, worker=None):
    """The layer-I rows' columns of one frozen input: a block of Z, or of worker's row of X."""
    d = poly1.dims
    if key == "x3":
        return poly1.W[:, d.width * (worker + 1):d.width * (worker + 2)][:, d.columns(3)]
    return poly1.W[:, d.columns(int(key[1]))]


def ref_jacobians(trace, key, worker=None):
    """Jacobians of the estimate w.r.t. one frozen input, forward through the rounds."""
    p = trace.problem
    cfg = trace.cfg
    d = p.dims
    N = d.N
    level = trace.level
    dl = d.block(level)
    z1, z2p, _ = trace.anchor.z  # z2' is read at level 3 only
    x3 = trace.anchor.x[2]  # read at level 2 only
    wblock = ORACLE_BLOCK[key]
    dw = d.block(int(key[1]))
    poly1 = trace.poly1
    L = poly1.size
    if level == 3:
        kappa, eta_z, eta_gamma = cfg.kappa, cfg.eta_z, 0.0
    else:
        kappa = cfg.kappa
        eta_z, eta_gamma = level2_steps(cfg, poly1)
    if L:
        dconst = cut_columns(poly1, key, worker)
        a2s = poly1.A2

    Dx = [np.zeros((dl, dw)) for _ in range(N)]
    Dz = np.zeros((dl, dw))
    Dphi = [np.zeros((dl, dw)) for _ in range(N)]
    Ds = np.zeros((L, dw))
    Dgam = np.zeros((L, dw))
    for k in range(cfg.K):
        xk = trace.x[k]
        args = (z1, z2p, xk) if level == 3 else (z1, xk, x3)
        rows = p.cross_hess(level, stack_rows(d, *args))[:, d.columns(level)]  # the level's rows
        Hxx_all = rows[:, :, d.columns(level)]
        Hxw_all = None if wblock is None else rows[:, :, d.columns(wblock)]
        Dgx = []
        for j in range(N):
            Hxx = Hxx_all[j]
            if wblock is None or (worker is not None and j != worker):
                Hxw = np.zeros((dl, dw))
            else:
                Hxw = Hxw_all[j]
            Dgx.append(Hxw + Hxx @ Dx[j] + Dphi[j] + kappa * (Dx[j] - Dz))
        Dgz = -sum(Dphi[j] + kappa * (Dx[j] - Dz) for j in range(N))
        if L:
            Dr = dconst + a2s @ Dz + Ds
            Dgz = Dgz + a2s.T @ (Dgam + Dr)
        Dx = [Dx[j] - cfg.eta_x * Dgx[j] for j in range(N)]
        Dz = Dz - eta_z * Dgz
        if L:
            s_active = (trace.s[k + 1] > 0.0).astype(float)[:, None]
            Ds = s_active * (-(dconst + a2s @ Dz) - Dgam)
            g_active = (trace.gamma[k + 1] > 0.0).astype(float)[:, None]
            Dgam = g_active * (Dgam + eta_gamma * (dconst + a2s @ Dz + Ds))
        Dphi = [Dphi[j] + cfg.eta_phi * (Dx[j] - Dz) for j in range(N)]
    return Dx, Dz


def ref_grad_h(trace, point, key, worker=None):
    """The gradient of h at ``point`` in one frozen input, from its forward Jacobians."""
    x_hat, z_hat = trace.estimate
    Dx, Dz = ref_jacobians(trace, key, worker)
    own_x, own_z = point.x[trace.level - 1], point.z[trace.level - 1]
    g = -2.0 * Dz.T @ (np.asarray(own_z, float) - z_hat)
    for xj, xh, Dj in zip(own_x, x_hat, Dx):
        g = g - 2.0 * Dj.T @ (np.asarray(xj, float) - xh)
    return g


CFG = InnerConfig(K=8, eta_x=0.15, eta_z=0.15, eta_phi=0.15)


def t1_cuts(problem, t1, p2, shifts):
    """The unit layer-I cut of ``t1`` at the state's z1, z2, z3, x3, its offset shifted by each
    of ``shifts`` in turn, as one polytope."""
    w, c = normalize_cut(*generate_cut_I(t1, p2))
    return Polytope(problem.dims, [w] * len(shifts), [c + dc for dc in shifts],
                    tuple(range(len(shifts))))


@pytest.fixture(scope="module")
def setup():
    # Distinct block sizes, so a mixed-up block shows as a shape error.
    problem, _ = build_quadratic_problem(seed=11, dims=(2, 3, 4), N=3, coupling=0.2)
    rng = np.random.default_rng(12)
    d = problem.dims
    z1, z2, z3 = (rng.standard_normal(k) for k in (d.d1, d.d2, d.d3))
    x3 = rng.standard_normal((d.N, d.d3))
    x2 = rng.standard_normal((d.N, d.d2))
    p1, p2 = state_of(d, z1, z2, z3, x3=x3), state_of(d, z1, z2, z3, x2=x2, x3=x3)
    t1 = solve_level3(problem, p1, cfg=CFG)
    # One unit cut shifted three ways: slack clamp inactive on the first
    # (s > 0), dual clamp inactive on the other two (gamma > 0).
    t2 = solve_level2(problem, p1, t1_cuts(problem, t1, p2, (3.0, -0.5, 0.05)), cfg=CFG)
    return problem, t1, t2, p1, p2


def assert_close(g, ref):
    assert g.shape == ref.shape
    assert np.linalg.norm(g - ref) <= 1e-10 * np.linalg.norm(ref)


def test_layer_I_matches_forward_reference(setup):
    _, t1, _, p1, _ = setup
    g = t1.problem.dims.split(grad_h(t1, p1)[0])  # gZ's blocks
    assert_close(g[0], ref_grad_h(t1, p1, "z1"))
    assert_close(g[1], ref_grad_h(t1, p1, "z2p"))


def assert_matches_reference_on_every_frozen_input(problem, trace, point):
    gZ, gX = grad_h(trace, point)
    g = problem.dims.split(gZ)
    assert_close(g[0], ref_grad_h(trace, point, "z1"))
    assert_close(g[2], ref_grad_h(trace, point, "z3"))
    ref_x3 = np.array([ref_grad_h(trace, point, "x3", j) for j in range(problem.dims.N)])
    assert_close(problem.dims.split(gX)[2], ref_x3)


def test_layer_II_matches_forward_reference_across_clamp_branches(setup):
    problem, _, t2, _, p2 = setup
    s_on, g_on = (t2.s[1:] > 0.0).any(axis=0), (t2.gamma[1:] > 0.0).any(axis=0)
    assert s_on.any() and not s_on.all()
    assert g_on.any() and not g_on.all()
    assert_matches_reference_on_every_frozen_input(problem, t2, p2)


def test_layer_II_matches_forward_reference_where_the_dual_clamp_bites(setup):
    # With a dual step equal to the unit cut penalty, a decaying gamma is clamped
    # to zero, and a warm gamma gives slack and dual positive in the same round.
    # The step is 1 for eta_phi >= 1 and shallow cuts (sum ||a2||^2 <= 0.5).
    problem, t1, _, p1, p2 = setup
    d = problem.dims
    cuts = t1_cuts(problem, t1, p2, (2.5, 3.5))
    cfg = dataclasses.replace(CFG, eta_phi=1.0)
    assert level2_steps(cfg, cuts)[1] == 1.0
    zeros = np.zeros((d.N, d.d2))
    init = (zeros, np.zeros(d.d2), zeros, None, np.full(2, 0.3))
    trace = solve_level2(problem, p1, cuts, init=init, cfg=cfg)
    s, gamma = trace.s, trace.gamma
    assert ((s[1:] > 0.0) & (gamma[:-1] > 0.0)).any()
    assert ((gamma[:-1] > 0.0) & (gamma[1:] == 0.0)).any()
    assert_matches_reference_on_every_frozen_input(problem, trace, p2)


def count_calls(monkeypatch, obj, name):
    calls = []
    fn = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


@pytest.mark.parametrize("layer", [1, 2])
def test_one_sweep_makes_one_stacked_cross_hessian_per_round(setup, monkeypatch, layer):
    problem, t1, t2, p1, p2 = setup
    trace, point = (t1, p1) if layer == 1 else (t2, p2)
    calls = count_calls(monkeypatch, problem, "cross_hess_fn")
    grad_h(trace, point)
    assert len(calls) == CFG.K


def test_finite_diff_reruns_twice_per_frozen_coordinate(setup, monkeypatch):
    problem, _, t2, p1, p2 = setup
    d = problem.dims
    fd = dataclasses.replace(problem, cross_hess_fn=None)  # no second derivatives
    t1 = solve_level3(fd, p1, cfg=CFG)
    t2 = solve_level2(fd, p1, t2.poly1, cfg=CFG)
    calls3 = count_calls(monkeypatch, fedtri.inner, "solve_level3")
    calls2 = count_calls(monkeypatch, fedtri.inner, "solve_level2")
    grad_h(t1, p1)
    assert (len(calls3), len(calls2)) == (2 * (d.d1 + d.d2), 0)
    grad_h(t2, p2)
    assert (len(calls3), len(calls2)) == (2 * (d.d1 + d.d2), 2 * (d.d1 + d.d3 + d.N * d.d3))
