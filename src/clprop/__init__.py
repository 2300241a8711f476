"""Compatibility-weighted label propagation for semi-supervised node
classification on graphs of arbitrary homophily."""

from .compatibility import (
    Beliefs,
    CompatibilityMatrix,
    estimate_compatibility,
    prior_beliefs,
    sinkhorn_knopp,
)
from .graph import Graph, SplitMask, load_dataset, load_graph, make_splits, one_hot, save_graph
from .metrics import (
    accuracy,
    bucket_accuracy,
    compat_distance,
    edge_homophily,
    local_homophily,
    node_homophily,
    true_compatibility,
)
from .mlp import MlpParams, TrainConfig, init_mlp, predict, train
from .pipeline import (
    ExperimentConfig,
    RunReport,
    inspect_dataset,
    report_compat_quality,
    run_pipeline,
    sweep_homophily,
)
from .propagation import (
    NodeWeights,
    PropagationConfig,
    convergence_check,
    edge_weights,
    lp_weights,
    propagate_clp,
    sender_weights,
    spectral_radius,
)
from .synth import SyntheticSpec, gaussian_features, generate, generate_structure

__version__ = "0.1.0"
