"""Experiment configuration, validation, and deterministic random streams.

A scenario is described by a flat JSON document whose keys carry explicit
units in their names. Unknown keys are rejected so that typos surface as
errors instead of silently falling back to defaults. The config object is
a frozen dataclass and safe to share read-only across concurrent runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any

import numpy as np


class PolicyKind(str, Enum):
    DRL = "drl"
    MAP_RA = "mapra"
    RCH = "rch"


class RewardScope(str, Enum):
    SHARED = "shared"
    INDIVIDUAL = "individual"


class ActivationMode(str, Enum):
    THRESHOLD_ONLY = "threshold_only"
    THRESHOLD_AND_BERNOULLI = "threshold_and_bernoulli"


class CsGainMode(str, Enum):
    # How link gains enter the contention-signature synthesis:
    #   NORMALIZED: full gain divided by the snapshot median attenuation, so
    #               snr_avg_db is the average link SNR at a typical distance.
    #   RAW:        full gain as drawn (pathloss makes the signal vanish
    #               against unit noise at factory distances).
    #   FADING_ONLY: small-scale fading only.
    NORMALIZED = "normalized"
    RAW = "raw"
    FADING_ONLY = "fading_only"


class PilotMode(str, Enum):
    ONES = "ones"
    RANDOM_PHASE = "random_phase"


class ConfigError(ValueError):
    """Raised when a config document fails to parse or violates an invariant."""


_ENUM_FIELDS = {
    "policy_kind": PolicyKind,
    "reward_scope": RewardScope,
    "activation_mode": ActivationMode,
    "cs_gain_mode": CsGainMode,
    "pilot_mode": PilotMode,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical, protocol, and learning parameters of one experiment."""

    n_subnets: int
    n_channels: int

    # Deployment geometry and mobility
    area_width_m: float = 50.0
    area_height_m: float = 50.0
    speed_mps: float = 2.0
    min_separation_m: float = 1.5

    # Slotting and deadline
    slot_ms: float = 3.0
    deadline_slots: int = 15

    # Alarm process and activation
    eta: float = 0.6
    alpha: float = 0.1
    tx_threshold: float = 0.1
    activation_mode: ActivationMode = ActivationMode.THRESHOLD_AND_BERNOULLI
    allow_event_overlap: bool = False

    # Radio
    snr_avg_db: float = 10.0
    carrier_ghz: float = 6.0
    pathloss_abg_los: tuple[float, float, float] = (2.15, 31.84, 1.90)
    pathloss_abg_nlos: tuple[float, float, float] = (2.55, 33.0, 2.0)
    shadow_sigma_los_db: float = 4.3
    shadow_sigma_nlos_db: float = 5.7
    shadow_corr_distance_m: float = 10.0
    los_decay_m: float = 9.0
    cs_gain_mode: CsGainMode = CsGainMode.NORMALIZED
    pilot_mode: PilotMode = PilotMode.ONES
    cs_overhead_slots: int = 0

    # Policy and learning
    policy_kind: PolicyKind = PolicyKind.DRL
    dnn_hidden_layers: int = 2
    dnn_hidden_size: int = 1
    minibatch_size: int | None = None
    replay_capacity: int | None = None
    epsilon_start: float = 1.0
    epsilon_floor: float = 0.1
    epsilon_step: float = 0.005
    lr_initial: float = 0.01
    lr_decay_per_event: float = 0.015
    rms_decay: float = 0.9
    rms_smoothing: float = 1e-8
    clip_threshold: float = 5.0
    reward_success: float = 1.0
    reward_failure: float = -1.0
    reward_scope: RewardScope = RewardScope.SHARED
    mapra_tau: float = 0.1

    # Run control
    rng_seed: int = 0
    n_slots: int = 1000
    n_runs: int = 100

    def __post_init__(self) -> None:
        # a plain string such as policy_kind="rch" becomes its member here, so
        # the identity checks against members hold however the config is built
        for name, enum_cls in _ENUM_FIELDS.items():
            try:
                object.__setattr__(self, name, enum_cls(getattr(self, name)))
            except (ValueError, TypeError):
                options = ", ".join(e.value for e in enum_cls)
                raise ConfigError(f"{name}: must be one of {options}") from None

    @property
    def n_patterns(self) -> int:
        return 1 << self.n_channels

    @property
    def minibatch(self) -> int:
        return self.minibatch_size if self.minibatch_size is not None else 30 * self.n_patterns

    @property
    def replay(self) -> int:
        return self.replay_capacity if self.replay_capacity is not None else 100 * self.n_patterns

    @property
    def layer_sizes(self) -> list[int]:
        return [self.n_channels] + [self.dnn_hidden_size] * self.dnn_hidden_layers + [self.n_patterns]


_TUPLE_FIELDS = ("pathloss_abg_los", "pathloss_abg_nlos")
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}  # annotations as strings


def _check(cond: bool, name: str, reason: str) -> None:
    if not cond:
        raise ConfigError(f"{name}: {reason}")


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """`cfg`, checked: a ConfigError naming the key unless every field has
    the right type and range.

    Every way of building a config passes through here, so the per-field
    type check is the same for a JSON document, a config built in code and
    `with_overrides`. The triples come back as tuples of floats, whether
    given as lists or with integers.
    """
    typed = {name: _typed(name, getattr(cfg, name)) for name in _FIELD_TYPES}
    cfg = replace(cfg, **{name: typed[name] for name in _TUPLE_FIELDS})
    _check(cfg.n_subnets >= 1, "n_subnets", "must be >= 1")
    _check(cfg.n_channels >= 1, "n_channels", "n_channels >= 1")
    _check(cfg.n_channels <= 16, "n_channels", "must be <= 16 (2**n_channels action space)")
    _check(cfg.area_width_m > 0 and cfg.area_height_m > 0, "area", "must be positive")
    _check(cfg.speed_mps >= 0, "speed_mps", "must be >= 0")
    _check(cfg.min_separation_m >= 0, "min_separation_m", "must be >= 0")
    _check(cfg.slot_ms > 0, "slot_ms", "must be > 0")
    _check(cfg.deadline_slots >= 0, "deadline_slots", "must be >= 0")
    _check(cfg.eta > 0, "eta", "must be > 0")
    _check(0.0 <= cfg.alpha <= 1.0, "alpha", "must be in [0, 1]")
    _check(0.0 <= cfg.tx_threshold <= 1.0, "tx_threshold", "must be in [0, 1]")
    _check(cfg.cs_overhead_slots in (0, 1, 2), "cs_overhead_slots", "must be 0, 1, or 2")
    _check(cfg.dnn_hidden_layers >= 1, "dnn_hidden_layers", "must be >= 1")
    _check(cfg.dnn_hidden_size >= 1, "dnn_hidden_size", "must be >= 1")
    _check(cfg.minibatch >= 1, "minibatch_size", "must be >= 1")
    _check(
        cfg.minibatch <= cfg.replay,
        "minibatch_size",
        f"minibatch_size ({cfg.minibatch}) must be <= replay_capacity ({cfg.replay})",
    )
    _check(0.0 < cfg.epsilon_floor, "epsilon_floor", "must be > 0")
    _check(cfg.epsilon_floor <= cfg.epsilon_start <= 1.0, "epsilon_start", "need epsilon_floor <= epsilon_start <= 1")
    _check(cfg.epsilon_step > 0, "epsilon_step", "must be > 0")
    _check(cfg.lr_initial > 0, "lr_initial", "must be > 0")
    _check(0.0 <= cfg.lr_decay_per_event < 1.0, "lr_decay_per_event", "must be in [0, 1)")
    _check(0.0 <= cfg.rms_decay < 1.0, "rms_decay", "must be in [0, 1)")
    _check(cfg.rms_smoothing > 0, "rms_smoothing", "must be > 0")
    _check(cfg.clip_threshold > 0, "clip_threshold", "must be > 0")
    _check(0.0 <= cfg.mapra_tau <= 1.0, "mapra_tau", "must be in [0, 1]")
    _check(cfg.shadow_corr_distance_m > 0, "shadow_corr_distance_m", "must be > 0")
    _check(cfg.los_decay_m > 0, "los_decay_m", "must be > 0")
    _check(cfg.carrier_ghz > 0, "carrier_ghz", "must be > 0")
    _check(cfg.shadow_sigma_los_db >= 0 and cfg.shadow_sigma_nlos_db >= 0, "shadow_sigma", "must be >= 0")
    _check(cfg.n_slots >= 0, "n_slots", "must be >= 0")
    _check(cfg.n_runs >= 1, "n_runs", "must be >= 1")
    for name in _TUPLE_FIELDS:
        _check(len(getattr(cfg, name)) == 3, name, "needs exactly 3 values (a, b, g)")
    return cfg


def load_config(text: str) -> ScenarioConfig:
    """Parse a JSON document into a validated ScenarioConfig.

    Absent keys take their defaults; unknown keys are an error.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(raw)


def _finite_number(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _typed(key: str, value: Any) -> Any:
    """The value of field `key`, if its type fits the field.

    Flags take only true or false; counts take integers, not booleans;
    quantities take finite numbers; triples take three finite numbers.
    Enum fields are checked by `ScenarioConfig` itself.
    """
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        _check(isinstance(value, bool), key, "must be true or false")
    elif kind == "int" or (kind == "int | None" and value is not None):
        _check(isinstance(value, int) and not isinstance(value, bool), key, "must be an integer")
    elif kind == "float":
        _check(_finite_number(value), key, "must be a finite number")
    elif key in _TUPLE_FIELDS:
        _check(
            isinstance(value, (list, tuple)) and len(value) == 3 and all(_finite_number(v) for v in value),
            key,
            "needs exactly 3 finite numbers (a, b, g)",
        )
        value = tuple(float(v) for v in value)
    return value


def config_from_dict(raw: dict[str, Any]) -> ScenarioConfig:
    unknown = sorted(set(raw) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("n_subnets", "n_channels"):
        if key not in raw:
            raise ConfigError(f"{key}: required")
    return validate_config(ScenarioConfig(**raw))


def load_config_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def config_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON form; reparsing yields an equal config."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def config_fingerprint(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def with_overrides(cfg: ScenarioConfig, **kwargs: Any) -> ScenarioConfig:
    return validate_config(replace(cfg, **kwargs))


def derive_stream(seed: int, stream_label: str) -> np.random.Generator:
    """Deterministic, independent random stream for one named concern.

    Identical (seed, label) pairs yield identical sequences; distinct labels
    under the same seed yield statistically independent streams.
    """
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, *stream_label.encode("utf-8")]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """64-bit seed for run `run_index` of an experiment seeded with `base_seed`."""
    ss = np.random.SeedSequence([base_seed & 0xFFFFFFFFFFFFFFFF, run_index])
    return int(ss.generate_state(1, np.uint64)[0])
