"""Markov chain samplers for weighted matroid measures.

The package provides:

* a polarized down-up walk sampling independent sets of a matroid with
  probability proportional to the product of element weights;
* the induced sampler for connected spanning subgraphs of a network with
  independent edge failures (the cographic matroid of the network);
* an up-down walk for random cluster measures with cluster parameter
  ``q <= 1``;
* an all-terminal reliability estimator built on the subgraph sampler via
  deletion/contraction self-reducibility;
* the supporting machinery: fully dynamic graph connectivity, a plane
  embedder whose dual turns the cographic oracle of a planar graph into a
  spanning-forest oracle, logarithmic weighted index selection,
  deterministic seeded RNG streams, and exact brute-force references for
  everything above.
"""

from .config import ChainConfig, StepStats
from .dyncon import dyn_graph
from .errors import (
    ContractError,
    EmptySelectionError,
    SizeLimitError,
    UnsupportedOperationError,
    ValidationError,
)
from .exact import (
    ExactDistribution,
    exact_kernel,
    exact_mu,
    exact_pi,
    exact_rc,
    stationary_residual,
    tv_distance,
)
from .matroids import Fields, MatroidSpec, build_oracle, load_matroid, matroid_from_dict
from .polarized import PolarizedChain
from .random_cluster import RandomClusterChain
from .reliability import (
    NetworkInstance,
    ReliabilityEstimate,
    cographic_spec,
    failure_fields,
    log_rel_exact,
    parse_graph_file,
    rel_connected_subgraph,
    rel_estimate,
    rel_exact,
    rel_sample,
)
from .rng import SeedStream, derive_seed
from .sampling import sample_independent_sets, sample_random_cluster
from .vectorized import run_polarized_batch, run_rc_batch
from .weighted_index import WeightedIndex

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ContractError",
    "EmptySelectionError",
    "ExactDistribution",
    "Fields",
    "MatroidSpec",
    "NetworkInstance",
    "PolarizedChain",
    "RandomClusterChain",
    "ReliabilityEstimate",
    "SeedStream",
    "SizeLimitError",
    "StepStats",
    "UnsupportedOperationError",
    "ValidationError",
    "WeightedIndex",
    "build_oracle",
    "cographic_spec",
    "derive_seed",
    "dyn_graph",
    "exact_kernel",
    "exact_mu",
    "exact_pi",
    "exact_rc",
    "failure_fields",
    "load_matroid",
    "log_rel_exact",
    "matroid_from_dict",
    "parse_graph_file",
    "rel_connected_subgraph",
    "rel_estimate",
    "rel_exact",
    "rel_sample",
    "run_polarized_batch",
    "run_rc_batch",
    "sample_independent_sets",
    "sample_random_cluster",
    "stationary_residual",
    "tv_distance",
]
