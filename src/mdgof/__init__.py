"""Goodness-of-fit tests and identification audits for missing-data DAG models."""

from .counterexample import verify_crisscross_counterexample
from .data import DataError, MISSING_TOKEN, ObservedDataset, read_csv
from .estimation import (EstimationError, estimate_odds_ratio,
                         population_odds_ratio)
from .gof import (ACCEPTED, INCONCLUSIVE, REJECTED, StepRecord, TestReport,
                  test_block_parallel, test_sequential_mar,
                  test_sequential_mnar)
from .graph import (GraphError, IndependenceQuery, MDag, StructureReport,
                    Testability, classify_model, count_parameters,
                    count_parameters_no_self_censoring, d_separated,
                    detect_structures, graph_from_dict, graph_to_dict,
                    load_graph_json, satisfied_model_classes,
                    testability_verdict, validate_mdag)
from .numerics import fit_weighted_logistic
from .simulate import ScenarioConfig, StudyResult, run_study, sweep_curve

__version__ = "0.1.0"

__all__ = [
    "ACCEPTED", "INCONCLUSIVE", "REJECTED", "MISSING_TOKEN",
    "DataError", "EstimationError", "GraphError",
    "IndependenceQuery", "MDag", "ObservedDataset", "ScenarioConfig",
    "StepRecord", "StructureReport", "StudyResult", "TestReport",
    "Testability", "classify_model", "count_parameters",
    "count_parameters_no_self_censoring", "d_separated", "detect_structures",
    "estimate_odds_ratio", "fit_weighted_logistic", "graph_from_dict",
    "graph_to_dict", "load_graph_json", "population_odds_ratio", "read_csv",
    "run_study", "satisfied_model_classes", "sweep_curve",
    "test_block_parallel", "test_sequential_mar", "test_sequential_mnar",
    "testability_verdict", "validate_mdag", "verify_crisscross_counterexample",
]
