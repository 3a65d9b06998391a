"""The tests' instruments for the claim that mu-cuts stay valid for mu-weakly-convex h.

``flat_h`` writes h over a layer's flat point, ``estimate_mu`` measures h's
weak-convexity modulus on sample points, and ``validate_cut`` samples the
relaxed set ``h <= eps`` and counts the points a cut wrongly excludes.
"""

from dataclasses import dataclass

import numpy as np

from fedtri.core import FedtriError, Polytope, finite_diff_grad, flat_point
from fedtri.core import point_alphas, point_names, point_shapes, split_point
from fedtri.inner import eval_h, grad_h, rerun

VIOLATION_TOL = 1e-9  # a residual above this counts as a violation
MAX_DRAWS = 10**6  # proposals ``validate_cut`` makes before it reports inconclusive


def flat_h(trace):
    """(h, grad h) over ``flat_point`` of the trace layer's point; each call re-runs the unroll."""
    layer = trace.layer

    def point_and_trace(v):
        point = split_point(layer, trace.problem.dims, np.asarray(v, float))
        return point, rerun(trace, **{k: b for k, b in zip(point_names(layer), point)
                                      if k in trace.inputs})

    def fn(v):
        point, sub = point_and_trace(v)
        return eval_h(sub, point)

    def grad(v):
        point, sub = point_and_trace(v)
        return flat_point(*grad_h(sub, point))

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
    """Sample points with the trace's ``h <= eps`` inside the bound balls and count cut violations.

    The same sampler serves both layers.  Each proposal first puts the
    trace's frozen inputs uniformly in their balls, row by row, then its own
    (x, z) blocks inside the sqrt(eps)-tube around the re-run estimate; every
    proposal is still rejected unless it actually satisfies ``h <= eps`` and
    the own blocks' bounds.  A valid cut admits zero violations.
    """
    rng = np.random.default_rng(seed)
    poly = Polytope(cut.layer, trace.problem.dims, (cut,))
    keys = point_names(trace.layer)
    balls = dict(zip(keys, zip(point_shapes(trace.layer, trace.problem.dims),
                               point_alphas(trace.layer, alphas))))
    (x_shape, own_alpha), (z_shape, _) = balls["x"], balls["z"]
    nx = int(np.prod(x_shape))

    accepted = 0
    draws = 0
    violations = 0
    max_violation = -np.inf
    while accepted < n_samples and draws < MAX_DRAWS:
        draws += 1
        point = {}
        for key in trace.inputs:
            shape, a = balls[key]
            rows = [_sample_ball(rng, shape[-1], a) for _ in range(int(np.prod(shape[:-1])))]
            point[key] = np.reshape(rows, shape)
        sub = rerun(trace, **point)
        x_hat, z_hat = sub.estimate
        dev = _sample_ball(rng, nx + z_shape[0], eps)
        point["x"] = x_hat + dev[:nx].reshape(x_shape)
        point["z"] = z_hat + dev[nx:]
        if any(float(r @ r) > own_alpha for r in (*point["x"], point["z"])):
            continue
        blocks = tuple(point[key] for key in keys)
        if eval_h(sub, blocks) > eps:
            continue
        accepted += 1
        resid = float(poly.residuals(*blocks)[0])
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
