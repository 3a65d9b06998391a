"""Every real-valued setting rejects NaN and ±inf when it is built.

A bound written ``x < 0`` or ``x <= 0`` lets NaN through, and the run then
ends in a numeric abort that looks like a property of the problem.  Each
real field is found from its annotation, so a field added later is covered.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from fedtri.core import Dims, TrilevelProblem
from fedtri.data import DatasetError, generate_synthetic_csv, load_dataset, make_synthetic_dataset
from fedtri.harness import DelayModel
from fedtri.inner import InnerConfig
from fedtri.outer import OuterConfig
from fedtri.problems import RobustHpoSpec, build_quadratic_problem, build_robust_hpo_problem

BAD = [np.nan, np.inf, -np.inf]


def real_fields(cls):
    return [f.name for f in fields(cls) if f.type == "float"]


CONFIGS = [InnerConfig(), OuterConfig(), DelayModel(), RobustHpoSpec()]
CASES = [(cfg, name) for cfg in CONFIGS for name in real_fields(type(cfg))]


def test_every_config_has_its_real_fields_found():
    assert {type(cfg).__name__: len(real_fields(type(cfg))) for cfg in CONFIGS} == {
        "InnerConfig": 6, "OuterConfig": 13, "DelayModel": 3, "RobustHpoSpec": 2}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("cfg, name", CASES, ids=[f"{type(c).__name__}.{n}" for c, n in CASES])
def test_a_non_finite_config_field_raises_naming_it(cfg, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        replace(cfg, **{name: bad})


def problem(**kw):
    def oracle(level, V):
        return V
    return TrilevelProblem(dims=Dims(1, 1, 1, N=1), eval_fn=oracle, grad_fn=oracle, **kw)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("block", [0, 1, 2])
def test_a_non_finite_alpha_raises(block, bad):
    alphas = [1.0, 1.0, 1.0]
    alphas[block] = bad
    with pytest.raises(ValueError, match="^alphas must be"):
        problem(alphas=tuple(alphas))


@pytest.mark.parametrize("bad", BAD)
def test_a_non_finite_weak_convexity_modulus_raises(bad):
    with pytest.raises(ValueError, match="^weak_convexity_mu must be"):
        problem(weak_convexity_mu=bad)


@pytest.mark.parametrize("bad", BAD)
def test_a_non_finite_conditioning_raises(bad):
    with pytest.raises(ValueError, match="^conditioning must be"):
        build_quadratic_problem(0, (2, 2, 2), 2, conditioning=bad)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ["coupling", "center_scale", "init_scale"])
def test_a_non_finite_quadratic_builder_real_raises(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build_quadratic_problem(0, (2, 2, 2), 2, **{name: bad})


@pytest.mark.parametrize("bad", BAD)
def test_a_non_finite_initial_phi_raises(bad):
    with pytest.raises(ValueError, match="^phi_init must be"):
        build_robust_hpo_problem(make_synthetic_dataset(rows=40), RobustHpoSpec(), 2,
                                 phi_init=bad)


UNBOUNDED = {  # the builder reals that may take any finite value
    "coupling": lambda v: build_quadratic_problem(0, (2, 2, 2), 2, coupling=v),
    "phi_init": lambda v: build_robust_hpo_problem(make_synthetic_dataset(rows=40),
                                                   RobustHpoSpec(), 2, phi_init=v),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", UNBOUNDED)
def test_an_unbounded_real_is_asked_for_as_a_finite_real_with_no_bound(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a finite real, got {bad!r}$"):
        UNBOUNDED[name](bad)


def test_a_bounded_real_is_asked_for_with_its_bound():
    with pytest.raises(ValueError, match=r"^init_scale must be a finite real >= 0.0, got nan$"):
        build_quadratic_problem(0, (2, 2, 2), 2, init_scale=np.nan)
    with pytest.raises(ValueError, match=r"^kappa must be a finite real > 0.0, got nan$"):
        InnerConfig(kappa=np.nan)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return generate_synthetic_csv(tmp_path_factory.mktemp("data") / "d.csv", rows=40)


@pytest.mark.parametrize("bad", [*BAD, -0.1])
def test_a_non_finite_or_negative_noise_sigma_raises(csv_path, bad):
    for build in (make_synthetic_dataset, lambda **kw: load_dataset(csv_path, **kw)):
        with pytest.raises(ValueError, match="^noise_sigma must be a finite real >= 0.0"):
            build(noise_sigma=bad)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_non_finite_split_ratio_raises_a_dataset_error(csv_path, position, bad):
    ratios = [0.6, 0.2, 0.2]
    ratios[position] = bad
    for build in (make_synthetic_dataset, lambda **kw: load_dataset(csv_path, **kw)):
        with pytest.raises(DatasetError, match="split ratios must be nonnegative and sum to 1"):
            build(split_ratios=tuple(ratios))


def test_dataset_reals_on_their_bounds_are_kept(csv_path):
    kw = dict(noise_sigma=0.0, split_ratios=(0.5, 0.25, 0.25))
    for data in (make_synthetic_dataset(rows=40, **kw), load_dataset(csv_path, **kw)):
        assert data.noise_sigma == 0.0 and len(data.train_idx) == 20


@pytest.mark.parametrize("bad", [True, "1.0", None])
def test_a_setting_that_is_no_real_number_raises(bad):
    with pytest.raises(ValueError, match="^eta_x must be"):
        InnerConfig(eta_x=bad)


def test_finite_values_on_each_bound_are_kept():
    assert InnerConfig(eta_x=0, eta_z=0.0, eta_phi=np.float32(0.5)).eta_phi == np.float32(0.5)
    assert DelayModel(kind="uniform", lo=0.0, hi=0.0).hi == 0.0
    assert problem(alphas=(1, 2.0, np.float64(3.0)), weak_convexity_mu=0).alphas[2] == 3.0
    build_quadratic_problem(0, (2, 2, 2), 2, conditioning=1)
    build_quadratic_problem(0, (2, 2, 2), 2, coupling=-0.5, center_scale=0, init_scale=0.0)
    build_robust_hpo_problem(make_synthetic_dataset(rows=40), RobustHpoSpec(), 2, phi_init=-30)
    for name in ("center_scale", "init_scale"):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build_quadratic_problem(0, (2, 2, 2), 2, **{name: -1e-9})
    for cfg, name in [(InnerConfig(), "kappa"), (OuterConfig(), "tol"), (RobustHpoSpec(), "c"),
                      (DelayModel(), "straggler_factor")]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            replace(cfg, **{name: 0.0})
