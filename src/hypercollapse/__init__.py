"""Poisson random hypergraphs, identifiability collapse, and their limits."""

from .chain import ChainRun, edge_rate_curve, run
from .fluid import (FluctuationSample, FluidModel, diffusion_factors, drift,
                    limit_fractions, patch_overlap_average, path, path_grid,
                    sample_limit_fraction, sigma_sq, simulate_fluctuation)
from .hypergraph import (CollapseOutcome, Hypergraph, collapse_all,
                         identifiable_set, read_hypergraph, remove_vertex,
                         sample_poisson, write_hypergraph)
from .montecarlo import (AggregateRow, ExperimentConfig, ExperimentResult,
                         ReplicaRecord, concentration_curve, config_from_json,
                         derive_seed, run_replicas, stream)
from .series import (BetaSeries, BracketError, CriticalStructure,
                     DegenerateModelError, critical_alpha, critical_structure,
                     deficiency, deficiency_grid, evaluate, evaluate_grid,
                     from_binomial_family, from_graph_params, resolve_model)

__version__ = "0.1.0"

__all__ = [
    "BetaSeries", "CriticalStructure", "critical_structure", "critical_alpha",
    "deficiency", "deficiency_grid", "evaluate", "evaluate_grid",
    "from_binomial_family", "from_graph_params", "resolve_model",
    "Hypergraph", "CollapseOutcome", "sample_poisson", "remove_vertex",
    "collapse_all", "identifiable_set", "read_hypergraph", "write_hypergraph",
    "ChainRun", "edge_rate_curve", "run",
    "FluidModel", "FluctuationSample", "drift", "diffusion_factors", "path",
    "path_grid", "limit_fractions", "sigma_sq", "sample_limit_fraction",
    "simulate_fluctuation", "patch_overlap_average",
    "ExperimentConfig", "ExperimentResult", "ReplicaRecord", "AggregateRow",
    "run_replicas", "concentration_curve", "config_from_json",
    "derive_seed", "stream",
    "DegenerateModelError", "BracketError",
    "__version__",
]
