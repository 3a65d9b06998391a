"""The tests' instruments for the claim that mu-cuts stay valid for mu-weakly-convex h.

``flat_h`` writes h over the outer state's row ``[Z | X.ravel()]``, ``estimate_mu`` measures h's
weak-convexity modulus on sample points, ``validate_cut`` samples the
relaxed set ``h <= eps`` and counts the points a cut wrongly excludes, and
``with_cut_params`` sets the mu, eps and alphas a trace's cuts are built with.
"""

from dataclasses import dataclass, replace

import numpy as np

from fedtri.core import FedtriError, Polytope, PrimalState, finite_diff_grad
from fedtri.inner import eval_h, grad_h, rerun

VIOLATION_TOL = 1e-9  # a residual above this counts as a violation
MAX_DRAWS = 10**6  # proposals ``validate_cut`` makes before it reports inconclusive


def with_cut_params(trace, mu=None, eps=None, alphas=None):
    """A copy of ``trace`` whose cuts use ``mu``, ``eps`` and ``alphas``; None keeps the trace's.

    mu and alphas go into the trace's problem (``weak_convexity_mu``, ``alphas``), eps into its
    config (``eps1`` for a layer-I trace, ``eps2`` for a layer-II one).  The unroll reads none of
    them, so the copy's recorded path is the trace's own.
    """
    problem, cfg = trace.problem, trace.cfg
    if mu is not None:
        problem = replace(problem, weak_convexity_mu=mu)
    if alphas is not None:
        problem = replace(problem, alphas=alphas)
    if eps is not None:
        cfg = replace(cfg, **{"eps1" if trace.level == 3 else "eps2": eps})
    return replace(trace, problem=problem, cfg=cfg)


def flat_h(trace):
    """(h, grad h) over the state row ``[Z | X.ravel()]``; each call re-runs the unroll."""
    dims = trace.problem.dims

    def state_and_trace(v):
        v = np.asarray(v, float)
        state = PrimalState(dims, v[dims.width:].reshape(dims.N, dims.width), v[:dims.width])
        return state, rerun(trace, state)

    def fn(v):
        state, sub = state_and_trace(v)
        return eval_h(sub, state)

    def grad(v):
        state, sub = state_and_trace(v)
        gZ, gX = grad_h(sub, state)
        return np.concatenate((gZ, gX.ravel()))

    return fn, grad


def estimate_mu(h, sample_points, grad=None):
    """Empirical weak-convexity modulus from the first-order condition.

    Over every ordered pair (x, x') of distinct sample points, returns the
    smallest mu >= 0 with
    ``h(x) >= h(x') + grad h(x')^T (x - x') - (mu/2) ||x - x'||^2``, i.e. the
    max of ``2 (h(x') + grad h(x')^T (x - x') - h(x)) / ||x - x'||^2`` clamped
    at zero, so a superset of points never lowers the estimate.  Coincident
    pairs are skipped; if every pair is coincident an error is raised.
    ``grad`` defaults to central finite differences.
    """
    points = [np.asarray(p, dtype=float) for p in sample_points]
    if len(points) < 2:
        raise ValueError("estimate_mu needs at least 2 sample points")
    if grad is None:
        grad = lambda v: finite_diff_grad(h, v)
    values = [float(h(p)) for p in points]
    ratios = []
    for anchor, h_anchor in zip(points, values):  # the anchor is x'
        g = None
        for p, h_p in zip(points, values):
            diff = p - anchor
            dist_sq = float(diff @ diff)
            if dist_sq == 0.0:
                continue
            if g is None:
                g = np.asarray(grad(anchor), dtype=float)
            ratios.append(2.0 * (h_anchor + float(g @ diff) - h_p) / dist_sq)
    if not ratios:
        raise FedtriError("all sampled pairs are coincident")
    return max(0.0, max(ratios))


@dataclass(frozen=True)
class CutValidationReport:
    violations: int
    max_violation: float
    samples_checked: int
    draws: int
    inconclusive: bool


def _sample_ball(rng, dim, radius_sq):
    if dim == 0:
        return np.zeros(0)
    v = rng.standard_normal(dim)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        return np.zeros(dim)
    r = np.sqrt(radius_sq) * rng.random() ** (1.0 / dim)
    return v * (r / nrm)


def validate_cut(cut, trace, eps, n_samples, seed, alphas):
    """Sample points with the trace's ``h <= eps`` inside the bound balls and count the violations
    of the cut ``(w, c)``.

    The same sampler serves both layers.  Each proposal is a state whose
    unread X columns are zero.  It first puts the trace's frozen inputs
    uniformly in their balls, each Z block and then each worker's row of
    each X block in its level's alpha ball, then the unrolled level's own
    (x, z) blocks inside the sqrt(eps)-tube around the re-run estimate;
    every proposal is still rejected unless it actually satisfies
    ``h <= eps`` and the own blocks' bounds.  A valid cut admits zero violations.
    """
    rng = np.random.default_rng(seed)
    d, lv = trace.problem.dims, trace.level
    poly = Polytope(d).add(*cut, 0)
    own, own_alpha, nx = d.columns(lv), alphas[lv - 1], d.N * d.block(lv)

    accepted = 0
    draws = 0
    violations = 0
    max_violation = -np.inf
    while accepted < n_samples and draws < MAX_DRAWS:
        draws += 1
        state = PrimalState(d, np.zeros((d.N, d.width)), np.zeros(d.width))
        for i in (1, 2, 3):  # the frozen blocks of Z: all but the unrolled level's
            if i != lv:
                state.Z[d.columns(i)] = _sample_ball(rng, d.block(i), alphas[i - 1])
        for i in range(lv + 1, 4):  # the frozen blocks of X: those after the unrolled level's
            for j in range(d.N):
                state.X[j, d.columns(i)] = _sample_ball(rng, d.block(i), alphas[i - 1])
        sub = rerun(trace, state)
        x_hat, z_hat = sub.estimate
        dev = _sample_ball(rng, nx + d.block(lv), eps)
        state.X[:, own] = x_hat + dev[:nx].reshape(d.N, d.block(lv))
        state.Z[own] = z_hat + dev[nx:]
        if any(float(r @ r) > own_alpha for r in (*state.X[:, own], state.Z[own])):
            continue
        if eval_h(sub, state) > eps:
            continue
        accepted += 1
        resid = float(poly.residuals(state)[0])
        max_violation = max(max_violation, resid)
        if resid > VIOLATION_TOL:
            violations += 1

    return CutValidationReport(
        violations=violations,
        max_violation=float(max_violation) if accepted else float("nan"),
        samples_checked=accepted,
        draws=draws,
        inconclusive=accepted < n_samples,
    )
