"""Federated learning with per-client subnetwork pruning."""

from .config import ExperimentConfig, parse_config
from .engine import (
    ModelSpec, OptimizerState, ParamSet, builtin_spec, init_params, pin_blas_threads,
)
from .federation import (
    ClientState,
    ClientUpdateResult,
    ServerState,
    aggregate_fedavg,
    aggregate_sub_fedavg,
    run_round,
    sample_clients,
)
from .pruning import (
    SparsityMask,
    apply_mask,
    derive_channel_mask,
    derive_unstructured_mask,
    mask_distance,
)

pin_blas_threads()  # results do not depend on the host's core count

__all__ = [
    "ClientState",
    "ClientUpdateResult",
    "ExperimentConfig",
    "ModelSpec",
    "OptimizerState",
    "ParamSet",
    "ServerState",
    "SparsityMask",
    "aggregate_fedavg",
    "aggregate_sub_fedavg",
    "apply_mask",
    "builtin_spec",
    "derive_channel_mask",
    "derive_unstructured_mask",
    "init_params",
    "mask_distance",
    "parse_config",
    "run_round",
    "sample_clients",
]
