"""Anytime-valid concentration boundaries for iterative stochastic algorithms,
the algorithms they certify, and a Monte Carlo verification harness."""

from .recursion import (
    CheckReport,
    RecursionParams,
    Trace,
    Violation,
    check_recursion,
    counterexample_process,
    simulate_saturating,
    trace_from_csv,
    trace_to_csv,
)
from .boundaries import (
    Boundary,
    StepSchedule,
    StitchSchedule,
    boundary_catalog,
    conf_boundary,
    lil_factor,
    maximal_inequality_m,
    maximal_threshold,
    oja_boundary,
    pl_boundary,
    pl_last_iterate,
    rakhlin_fixed_horizon,
    ridge_boundary,
    sgd_boundary,
    sgd_last_iterate,
    stitch_schedule,
    two_phase_oja_schedule,
    write_catalog_json,
    write_width_csv,
)
from .streams import LinearModelStream
from .problems import PcaProblem, RmProblem, SgdProblem
from .algorithms import (
    check_pca_recursion,
    krasulina_stream,
    oja_stream,
    pl_recursion_params,
    ridge_sgd,
    rm_recursion_params,
    robbins_monro,
    sgd_pl,
    sgd_recursion_params,
    sgd_strongly_convex,
    sin2,
)
from .harness import (
    ColdStartReport,
    CoverageConfig,
    CoverageReport,
    LilReport,
    mc_threshold,
    run_counterexample,
    run_coverage,
    run_last_iterate,
    run_lil,
    run_lil_ensemble,
    run_oja_cold_start,
    width_comparison,
)
from .seeding import make_generator, rep_seed

__version__ = "0.1.0"
