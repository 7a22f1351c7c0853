"""Two-stage stochastic programming with mean-risk objectives.

The package covers the full workflow around risk-averse two-stage models
with binary decisions: problem representation and risk measures
(:mod:`.model`), extensive-form builders (:mod:`.dep`), a shaped
decomposition for the modified excess measure (:mod:`.lshaped`), an
iterative bounding driver for the semideviation measure
(:mod:`.asd_bounds`), two instance families (:mod:`.knapsack`,
:mod:`.mssop`), brute-force oracles for small cases (:mod:`.oracle`),
checksummed file formats (:mod:`.fileio`), and a CLI (:mod:`.cli`).
"""
from .asd_bounds import AsdBoundsConfig, AsdBoundsState, rm_asd_solve
from .backend import get_backend
from .dep import (
    DepArtifact, build_dep_absolute_semideviation, build_dep_expectation,
    build_dep_expected_excess, build_dep_modified_expected_excess,
)
from .fileio import load_problem, load_result, save_problem, save_result
from .knapsack import KnapsackGenSpec, generate_knapsack
from .lshaped import lshaped_solve
from .model import (
    RiskMeasure, RiskSpec, Scenario, TwoStageProblem, evaluate_objective,
    evaluate_solution, risk_functional, scenario_costs,
)
from .mssop import (
    MssopInstance, build_mssop_two_stage, compare_policies,
    generate_mssop_instance, simulate_policy,
)

__version__ = "0.1.0"

__all__ = [
    "AsdBoundsConfig", "AsdBoundsState", "rm_asd_solve",
    "get_backend",
    "DepArtifact", "build_dep_expectation", "build_dep_expected_excess",
    "build_dep_modified_expected_excess", "build_dep_absolute_semideviation",
    "load_problem", "load_result", "save_problem", "save_result",
    "KnapsackGenSpec", "generate_knapsack",
    "lshaped_solve",
    "RiskMeasure", "RiskSpec", "Scenario", "TwoStageProblem",
    "evaluate_objective", "evaluate_solution", "risk_functional",
    "scenario_costs",
    "MssopInstance", "build_mssop_two_stage", "compare_policies",
    "generate_mssop_instance", "simulate_policy",
    "__version__",
]
