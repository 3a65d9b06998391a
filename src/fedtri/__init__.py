"""Asynchronous federated trilevel optimization with cutting-plane relaxation."""

from .core import (
    Dims,
    DualState,
    FedtriError,
    NonFiniteError,
    PrimalState,
    TrilevelProblem,
    estimate_mu,
    finite_diff_grad,
    flat_point,
    project_ball_sq,
)
from .cuts import (
    Cut,
    CutValidationReport,
    Polytope,
    add_cut,
    drop_inactive,
    generate_cut_I,
    generate_cut_II,
    validate_cut,
)
from .data import RegressionDataset, generate_synthetic_csv, load_dataset, make_synthetic_dataset
from .harness import (
    DelayModel,
    RunLog,
    RunResult,
    ScheduleConfig,
    comm_cost_cuts,
    comm_cost_iter,
    run,
    schedule_epoch,
    time_to_gap,
    validate_runlog,
)
from .inner import (
    InnerConfig,
    UnrollTrace,
    eval_h,
    flat_h,
    grad_h,
    solve_level2,
    solve_level3,
)
from .outer import (
    GapVector,
    OuterConfig,
    master_step,
    stationarity_gap,
    worker_step,
)
from .problems import (
    QuadraticOracle,
    RobustHpo,
    RobustHpoSpec,
    build_quadratic_problem,
    build_robust_hpo_problem,
    evaluate_model,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
