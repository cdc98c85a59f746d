import json

import numpy as np
import pytest
from dataclasses import fields
from hypothesis import given, settings, strategies as st

from alarmmac.config import (
    ActivationMode,
    ConfigError,
    PolicyKind,
    RewardScope,
    ScenarioConfig,
    config_fingerprint,
    derive_run_seed,
    derive_stream,
    load_config,
    serialize_config,
    validate_config,
    with_overrides,
)
from alarmmac.engine import Simulation
from alarmmac.policies import RchPopulation


def test_minimal_document_gets_documented_defaults():
    cfg = load_config('{"n_subnets": 20, "n_channels": 4}')
    assert cfg.area_width_m == 50.0 and cfg.area_height_m == 50.0
    assert cfg.speed_mps == 2.0
    assert cfg.min_separation_m == 1.5
    assert cfg.slot_ms == 3.0
    assert cfg.deadline_slots == 15
    assert cfg.eta == 0.6
    assert cfg.alpha == 0.1
    assert cfg.dnn_hidden_layers == 2 and cfg.dnn_hidden_size == 1
    assert cfg.minibatch == 30 * 2**4
    assert cfg.replay == 100 * 2**4
    assert (cfg.epsilon_start, cfg.epsilon_floor, cfg.epsilon_step) == (1.0, 0.1, 0.005)
    assert cfg.lr_decay_per_event == 0.015
    assert cfg.clip_threshold == 5.0
    assert cfg.reward_success == 1.0 and cfg.reward_failure == -1.0
    assert cfg.reward_scope is RewardScope.SHARED
    assert cfg.n_slots == 1000 and cfg.n_runs == 100


def test_n_and_m_are_required():
    with pytest.raises(ConfigError, match="n_subnets"):
        load_config("{}")
    with pytest.raises(ConfigError, match="n_channels"):
        load_config('{"n_subnets": 3}')


def test_zero_channels_rejected():
    with pytest.raises(ConfigError, match="n_channels >= 1"):
        load_config('{"n_subnets": 3, "n_channels": 0}')


def test_minibatch_larger_than_replay_rejected():
    with pytest.raises(ConfigError, match="minibatch_size"):
        load_config('{"n_subnets": 3, "n_channels": 2, "minibatch_size": 10, "replay_capacity": 5}')


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: n_chanels"):
        load_config('{"n_subnets": 3, "n_chanels": 2}')


def test_parse_failure_reported():
    with pytest.raises(ConfigError, match="parse"):
        load_config("{not json")


def test_too_many_channels_rejected():
    with pytest.raises(ConfigError, match="n_channels"):
        load_config('{"n_subnets": 3, "n_channels": 17}')


def test_epsilon_ordering_enforced():
    with pytest.raises(ConfigError, match="epsilon"):
        load_config('{"n_subnets": 3, "n_channels": 2, "epsilon_start": 0.05}')


def test_enum_fields_parse_and_reject():
    cfg = load_config(
        '{"n_subnets": 3, "n_channels": 2, "policy_kind": "mapra",'
        ' "activation_mode": "threshold_only"}'
    )
    assert cfg.policy_kind is PolicyKind.MAP_RA
    assert cfg.activation_mode is ActivationMode.THRESHOLD_ONLY
    with pytest.raises(ConfigError, match="policy_kind"):
        load_config('{"n_subnets": 3, "n_channels": 2, "policy_kind": "smart"}')


def test_enum_strings_become_members_on_construction():
    cfg = validate_config(ScenarioConfig(
        n_subnets=2, n_channels=2, policy_kind="rch", activation_mode="threshold_and_bernoulli",
    ))
    assert cfg.policy_kind is PolicyKind.RCH
    assert cfg.activation_mode is ActivationMode.THRESHOLD_AND_BERNOULLI
    assert isinstance(Simulation(cfg, seed=1).policy, RchPopulation)
    assert with_overrides(cfg, policy_kind="mapra").policy_kind is PolicyKind.MAP_RA
    with pytest.raises(ConfigError, match="activation_mode: must be one of"):
        ScenarioConfig(n_subnets=2, n_channels=2, activation_mode="bernoulli")
    with pytest.raises(ConfigError, match="policy_kind"):
        with_overrides(cfg, policy_kind="smart")


@pytest.mark.parametrize(
    "key, value",
    [
        ("allow_event_overlap", '"no"'),  # a truthy string must not switch overlap on
        ("allow_event_overlap", "1"),
        ("n_subnets", "2.5"),
        ("n_subnets", "true"),
        ("n_subnets", '"20"'),
        ("deadline_slots", "1.5"),
        ("minibatch_size", "4.0"),
        ("snr_avg_db", "NaN"),
        ("reward_success", "NaN"),
        ("speed_mps", "Infinity"),
        ("eta", "false"),
        ("eta", '"0.5"'),
        ("area_width_m", "1e400"),
        ("pathloss_abg_los", "3"),
        ("pathloss_abg_los", "[2.0, 30.0]"),
        ("pathloss_abg_nlos", '[2.0, "30", 2.0]'),
        ("pathloss_abg_nlos", "[2.0, NaN, 2.0]"),
    ],
)
def test_mistyped_value_rejected_naming_the_key(key, value):
    doc = {"n_subnets": 3, "n_channels": 2}
    text = json.dumps(doc)[:-1] + f', "{key}": {value}}}'
    with pytest.raises(ConfigError, match=f"^{key}: "):
        load_config(text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("allow_event_overlap", "no"),
        ("n_subnets", 2.5),
        ("n_subnets", "3"),
        ("n_runs", True),
        ("eta", None),
        ("speed_mps", float("inf")),
        ("pathloss_abg_los", (2.0, 30.0)),
    ],
)
def test_configs_built_in_code_are_type_checked(key, value):
    base = load_config('{"n_subnets": 3, "n_channels": 2}')
    with pytest.raises(ConfigError, match=f"^{key}: "):
        with_overrides(base, **{key: value})
    with pytest.raises(ConfigError, match=f"^{key}: "):
        validate_config(ScenarioConfig(**{"n_subnets": 3, "n_channels": 2, key: value}))


def test_triples_built_in_code_become_float_tuples():
    cfg = validate_config(ScenarioConfig(n_subnets=2, n_channels=2, pathloss_abg_los=[2, 31, 1.9]))
    assert cfg.pathloss_abg_los == (2.0, 31.0, 1.9)
    assert all(type(v) is float for v in cfg.pathloss_abg_los)


def test_numbers_of_the_right_kind_accepted():
    cfg = load_config(
        '{"n_subnets": 3, "n_channels": 2, "area_width_m": 40, "minibatch_size": null,'
        ' "allow_event_overlap": true, "pathloss_abg_los": [2, 31.84, 1.9]}'
    )
    assert cfg.area_width_m == 40 and cfg.minibatch_size is None and cfg.allow_event_overlap is True
    assert cfg.pathloss_abg_los == (2.0, 31.84, 1.9)


def test_every_field_has_a_checked_kind():
    enums = {"PolicyKind", "RewardScope", "ActivationMode", "CsGainMode", "PilotMode"}
    kinds = {"bool", "int", "int | None", "float", "tuple[float, float, float]"} | enums
    assert {f.type for f in fields(ScenarioConfig)} <= kinds


KEYS = [f.name for f in fields(ScenarioConfig)] + ["bogus"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)
PLAUSIBLE = st.one_of(
    JSON_VALUES,
    st.integers(-2, 40),
    st.floats(-1.0, 60.0),
    st.sampled_from(["drl", "mapra", "rch", "individual", "threshold_only", "raw", "random_phase"]),
    st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(KEYS), PLAUSIBLE, max_size=6), st.booleans())
def test_any_json_object_loads_and_round_trips_or_raises_config_error(extra, with_required):
    doc = {**({"n_subnets": 3, "n_channels": 2} if with_required else {}), **extra}
    try:
        cfg = load_config(json.dumps(doc))
    except ConfigError:
        return
    assert load_config(serialize_config(cfg)) == cfg


def test_serialize_round_trip():
    cfg = load_config(
        '{"n_subnets": 7, "n_channels": 3, "eta": 0.25, "policy_kind": "rch",'
        ' "pathloss_abg_nlos": [2.5, 30.0, 2.1], "rng_seed": 99}'
    )
    again = load_config(serialize_config(cfg))
    assert again == cfg
    assert config_fingerprint(again) == config_fingerprint(cfg)


def test_serialized_form_is_flat_json():
    cfg = load_config('{"n_subnets": 2, "n_channels": 1}')
    doc = json.loads(serialize_config(cfg))
    assert doc["n_subnets"] == 2
    assert all(not isinstance(v, dict) for v in doc.values())


def test_with_overrides_validates():
    cfg = load_config('{"n_subnets": 2, "n_channels": 2}')
    assert with_overrides(cfg, eta=0.3).eta == 0.3
    with pytest.raises(ConfigError):
        with_overrides(cfg, alpha=1.5)


def test_derive_stream_deterministic():
    a = derive_stream(42, "mobility").random(100)
    b = derive_stream(42, "mobility").random(100)
    assert np.array_equal(a, b)


def test_derive_stream_label_independence():
    a = derive_stream(42, "mobility").random(100)
    b = derive_stream(42, "events").random(100)
    assert not np.array_equal(a, b)


def test_derive_stream_seed_sensitivity():
    a = derive_stream(42, "mobility").random(100)
    b = derive_stream(43, "mobility").random(100)
    assert not np.array_equal(a, b)


def test_derive_run_seed_stable_and_distinct():
    s0 = derive_run_seed(7, 0)
    assert s0 == derive_run_seed(7, 0)
    assert s0 != derive_run_seed(7, 1)
    assert s0 != derive_run_seed(8, 0)
