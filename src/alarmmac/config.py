"""Experiment configuration, validation, and deterministic random streams.

A scenario is described by a flat JSON document whose keys carry explicit
units in their names. Unknown keys are rejected so that typos surface as
errors instead of silently falling back to defaults. The config object is
a frozen dataclass and safe to share read-only across concurrent runs. It
checks itself when built, from a document, in code or by
`dataclasses.replace`: a field of the wrong type or out of range raises a
ConfigError naming its key, and so does a scenario whose poses cannot be
separated in its area or whose set-up exceeds `SETUP_BUDGET_BYTES`. Counts
are stored as int and quantities as float, so equal configs serialize
alike and share one fingerprint.

`checked_int` is the one integer rule of the entry points and, in `_typed`,
of the config's counts: it refuses a float, a bool or an integer below its
minimum, naming the argument or key; numpy's integers come back as int.
`_median` is the one median of a run, numpy's to the bit without the
`numpy.ma` import that numpy's own first median call makes.

The model has no knob for what the paper fixes: at most one alarm is live
at a time and each attempt takes one slot (see `engine`), every pilot
symbol is 1 (see `signature`), link gains enter the signature normalised to
a typical link, and one delivered copy of the alarm rewards its whole
active set.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Any

import numpy as np


class PolicyKind(str, Enum):
    DRL = "drl"
    MAP_RA = "mapra"
    RCH = "rch"


class ActivationMode(str, Enum):
    THRESHOLD_ONLY = "threshold_only"
    THRESHOLD_AND_BERNOULLI = "threshold_and_bernoulli"


class ConfigError(ValueError):
    """Raised when a config document fails to parse or violates an invariant."""


def checked_int(value: Any, name: str, minimum: int | None = None) -> int:
    """`value` as an int, numpy's integers included; a ValueError naming
    `name` for anything else, a float or a bool among them, which `int`
    would truncate or take as 0 or 1, and for an integer below `minimum`."""
    # a plain int skips the abstract-class check, 0.3 us of every mobility read
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}: must be >= {minimum}, got {value!r}")
    return int(value)


def _median(values: Any) -> float:
    """numpy's median of one or more numbers, bit for bit: the middle value of
    a sorted float copy, or the mean of the two middle values for an even
    count, summed from 0.0 as numpy's mean sums (so -0.0 comes back 0.0);
    nan if any value is nan. No values raise a ValueError. numpy's first
    median call imports `numpy.ma`, about 1.3 MB resident and 8 ms, which
    nothing here uses."""
    ordered = np.sort(np.asarray(values, dtype=float), axis=None)
    n = ordered.size
    if n == 0:
        raise ValueError("median of no values")
    if math.isnan(ordered[-1]):  # a sort puts every nan last
        return math.nan
    if n % 2:
        return 0.0 + float(ordered[n // 2])
    return (0.0 + float(ordered[n // 2 - 1]) + float(ordered[n // 2])) / 2.0


_ENUM_FIELDS = {
    "policy_kind": PolicyKind,
    "activation_mode": ActivationMode,
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

    # Radio
    snr_avg_db: float = 10.0
    carrier_ghz: float = 6.0
    pathloss_abg_los: tuple[float, float, float] = (2.15, 31.84, 1.90)
    pathloss_abg_nlos: tuple[float, float, float] = (2.55, 33.0, 2.0)
    shadow_sigma_los_db: float = 4.3
    shadow_sigma_nlos_db: float = 5.7
    shadow_corr_distance_m: float = 10.0
    los_decay_m: float = 9.0

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
    mapra_tau: float = 0.1

    # Run control
    rng_seed: int = 0
    n_slots: int = 1000
    n_runs: int = 100

    def __post_init__(self) -> None:
        # every way of building a config passes through here: a JSON
        # document, a config built in code and `dataclasses.replace`
        for name in _FIELD_TYPES:
            object.__setattr__(self, name, _typed(name, getattr(self, name)))
        _check_ranges(self)

    @cached_property
    def n_patterns(self) -> int:
        return 1 << self.n_channels

    @cached_property
    def minibatch(self) -> int:
        return self.minibatch_size if self.minibatch_size is not None else 30 * self.n_patterns

    @cached_property
    def replay(self) -> int:
        return self.replay_capacity if self.replay_capacity is not None else 100 * self.n_patterns

    @cached_property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.n_channels,) + (self.dnn_hidden_size,) * self.dnn_hidden_layers + (self.n_patterns,)


_TUPLE_FIELDS = ("pathloss_abg_los", "pathloss_abg_nlos")
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}  # annotations as strings


def _check(cond: bool, name: str, reason: str) -> None:
    if not cond:
        raise ConfigError(f"{name}: {reason}")


def _check_ranges(cfg: ScenarioConfig) -> None:
    """A ConfigError naming the key unless every field is in its range."""
    _check(cfg.n_subnets >= 1, "n_subnets", "must be >= 1")
    _check(cfg.n_channels >= 1, "n_channels", "must be >= 1")
    _check(cfg.n_channels <= 16, "n_channels", "must be <= 16 (2**n_channels action space)")
    _check(cfg.area_width_m > 0, "area_width_m", "must be > 0")
    _check(cfg.area_height_m > 0, "area_height_m", "must be > 0")
    _check(cfg.speed_mps >= 0, "speed_mps", "must be >= 0")
    _check(cfg.min_separation_m >= 0, "min_separation_m", "must be >= 0")
    _check(cfg.slot_ms > 0, "slot_ms", "must be > 0")
    _check(cfg.deadline_slots >= 0, "deadline_slots", "must be >= 0")
    _check(cfg.eta > 0, "eta", "must be > 0")
    _check(0.0 <= cfg.alpha <= 1.0, "alpha", "must be in [0, 1]")
    _check(0.0 <= cfg.tx_threshold <= 1.0, "tx_threshold", "must be in [0, 1]")
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
    _check(cfg.shadow_sigma_los_db >= 0, "shadow_sigma_los_db", "must be >= 0")
    _check(cfg.shadow_sigma_nlos_db >= 0, "shadow_sigma_nlos_db", "must be >= 0")
    _check(cfg.n_slots >= 0, "n_slots", "must be >= 0")
    _check(cfg.n_runs >= 1, "n_runs", "must be >= 1")
    sep = cfg.min_separation_m
    if sep > 0 and cfg.n_subnets > 1:
        # disjoint disks of radius sep/2 centred in the rectangle lie inside
        # it grown by sep/2 on every side: N pi (sep/2)**2 <= (W + sep)(H + sep),
        # here divided by sep**2
        _check(
            cfg.n_subnets * math.pi / 4.0 <= (cfg.area_width_m / sep + 1.0) * (cfg.area_height_m / sep + 1.0),
            "n_subnets",
            f"{cfg.n_subnets} poses {sep} m apart do not fit in {cfg.area_width_m} x {cfg.area_height_m} m",
        )
    if cfg.policy_kind is PolicyKind.DRL:
        _check(
            cfg.n_subnets <= MAX_DRL_SUBNETS,
            "n_subnets",
            f"DRL is limited to {MAX_DRL_SUBNETS} subnetworks: its set-up factors an N x N covariance",
        )
        # every hidden layer holds at least two parameters, each kept in seven
        # float copies per agent (see `_setup_bytes`); checked before the
        # layer sizes, one entry per layer, are built
        _check(
            112 * cfg.n_subnets * cfg.dnn_hidden_layers <= SETUP_BUDGET_BYTES,
            "dnn_hidden_layers",
            f"{cfg.dnn_hidden_layers} hidden layers exceed the {SETUP_BUDGET_BYTES / 2**30:.0f} GiB set-up budget",
        )
    footprint = _setup_bytes(cfg)
    total = sum(footprint.values())
    if total > SETUP_BUDGET_BYTES:
        raise ConfigError(
            f"{max(footprint, key=footprint.get)}: the set-up needs about {total / 2**30:.1f} GiB, "
            f"over the {SETUP_BUDGET_BYTES / 2**30:.0f} GiB budget"
        )


# the most memory a config's largest arrays may take (see `_setup_bytes`)
SETUP_BUDGET_BYTES = 2 * 2**30
# DRL draws its shadowing through the Cholesky factor of an N x N matrix, an
# O(N**3) set-up (0.43 s at N = 2000 on one 2-vCPU host thread)
MAX_DRL_SUBNETS = 2000


def _setup_bytes(cfg: ScenarioConfig) -> dict[str, int]:
    """Bytes of the largest arrays a run of `cfg` holds, summed by the config
    key that drives each: for DRL the replay rings, the parameter and
    RMSProp blocks with the five copies one update makes (the gathered
    parameter and RMSProp rows, the gradient and two RMSProp temporaries),
    one update's minibatch arrays with every agent active, and the N x N
    shadowing arrays (seven at their peak); for MAP-RA its value table. RCH
    holds none of these."""
    n, m = cfg.n_subnets, cfg.n_channels
    if cfg.policy_kind is PolicyKind.RCH:
        return {}
    if cfg.policy_kind is PolicyKind.MAP_RA:
        return {"n_channels": 8 * n * cfg.n_patterns}
    from . import learning  # imported here: learning reads `checked_int` from this module

    n_params = learning.n_params(cfg.layer_sizes)
    hidden = cfg.dnn_hidden_layers * cfg.dnn_hidden_size
    footprint = {"n_subnets": 8 * 7 * n * n, "dnn_hidden_size": 8 * 7 * n * n_params}
    # a key left at its default grows with 2**n_channels
    replay_key = "replay_capacity" if cfg.replay_capacity is not None else "n_channels"
    batch_key = "minibatch_size" if cfg.minibatch_size is not None else "n_channels"
    # each minibatch row: the gathered tuple, about ten per-row scalars, and
    # three activation-sized arrays per hidden unit
    per_row = m + 12 + 3 * hidden
    for key, value in ((replay_key, 8 * n * cfg.replay * (m + 2)), (batch_key, 8 * n * cfg.minibatch * per_row)):
        footprint[key] = footprint.get(key, 0) + value
    return footprint


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict; a key given twice is a ConfigError,
    where `json` would keep the last value."""
    members: dict[str, Any] = {}
    for key, value in pairs:
        if key in members:
            raise ConfigError(f"{key}: given more than once")
        members[key] = value
    return members


def load_config(text: str) -> ScenarioConfig:
    """Parse a JSON document into a validated ScenarioConfig.

    Absent keys take their defaults; unknown keys and repeated keys are an
    error.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(raw)


def _finite_number(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _typed(key: str, value: Any) -> Any:
    """The value of field `key`, if its type fits the field.

    Counts take what `checked_int` takes and come back as int; quantities
    take finite numbers and come back as float; triples take three finite
    numbers and come back as a tuple of floats. So equal configs serialize
    alike and share one fingerprint. An enum field takes a member or its
    string value and comes back as the member, so the identity checks
    against members hold however the config is built.
    """
    enum_cls = _ENUM_FIELDS.get(key)
    if enum_cls is not None:
        try:
            return enum_cls(value)
        except (ValueError, TypeError):
            options = ", ".join(e.value for e in enum_cls)
            raise ConfigError(f"{key}: must be one of {options}") from None
    kind = _FIELD_TYPES[key]
    if kind == "int" or (kind == "int | None" and value is not None):
        try:
            value = checked_int(value, key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif kind == "float":
        _check(_finite_number(value), key, "must be a finite number")
        value = float(value)
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
    return ScenarioConfig(**raw)


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


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _entropy_words(n: int) -> list[int]:
    """The 32-bit words, low first, that `np.random.SeedSequence` makes of
    the entropy entry `n` >= 0: one word 0 for 0. numpy converts a list of
    entries one entry at a time; one `uint32` array of their words seeds
    the same state at about a quarter of the cost."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def derive_stream(seed: int, stream_label: str) -> np.random.Generator:
    """Deterministic, independent random stream for one named concern.

    Identical (seed, label) pairs yield identical sequences; distinct labels
    under the same seed yield statistically independent streams. The stream
    is PCG64 seeded by the words of the seed masked to 64 bits (one word
    below 2**32, else two, low first) and then one word per UTF-8 byte of
    the label: the state of the entropy list ``[seed & (2**64 - 1), *label
    bytes]``. `seed` is an integer, numpy's included, or a ValueError names
    it; a negative or wider seed is masked.
    """
    seed = checked_int(seed, "seed")
    entropy = np.array([*_entropy_words(seed & _MASK64), *stream_label.encode("utf-8")], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """64-bit seed for run `run_index` of an experiment seeded with
    `base_seed`: from the words of the entropy list ``[base_seed & (2**64 -
    1), run_index]`` (see `derive_stream`). Both are integers, numpy's
    included, and `run_index` is >= 0, or a ValueError names the argument."""
    base_seed = checked_int(base_seed, "base_seed")
    run_index = checked_int(run_index, "run_index", minimum=0)
    entropy = np.array(_entropy_words(base_seed & _MASK64) + _entropy_words(run_index), dtype=np.uint32)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
