"""Slot-synchronous simulation and exact analysis of deadline-constrained
shared-alarm delivery over a small set of contention channels, where each
subnetwork learns its channel-access pattern online from a broadcast
contention-signature signal."""

from .config import (
    ActivationMode,
    ConfigError,
    PolicyKind,
    ScenarioConfig,
    config_fingerprint,
    derive_run_seed,
    derive_stream,
    load_config,
    load_config_file,
    serialize_config,
)
from .engine import RunTrace, Simulation, resolve_collisions
from .reporting import ExperimentResult, in_time_probability, run_experiment, sweep

__version__ = "0.1.0"

__all__ = [
    "ActivationMode",
    "ConfigError",
    "ExperimentResult",
    "PolicyKind",
    "RunTrace",
    "ScenarioConfig",
    "Simulation",
    "config_fingerprint",
    "derive_run_seed",
    "derive_stream",
    "in_time_probability",
    "load_config",
    "load_config_file",
    "resolve_collisions",
    "run_experiment",
    "serialize_config",
    "sweep",
    "__version__",
]
