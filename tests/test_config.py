import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import given, settings, strategies as st

from alarmmac import config
from alarmmac.config import (
    MAX_DRL_SUBNETS,
    ActivationMode,
    ConfigError,
    PolicyKind,
    ScenarioConfig,
    config_fingerprint,
    derive_run_seed,
    derive_stream,
    load_config,
    serialize_config,
)
from alarmmac.engine import Simulation
from alarmmac.events import AlarmEvent
from alarmmac.policies import RchPopulation
from conftest import CONFIGS, CONTENTION, CRITERIA


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
    assert cfg.n_slots == 1000 and cfg.n_runs == 100


def test_n_and_m_are_required():
    with pytest.raises(ConfigError, match="n_subnets"):
        load_config("{}")
    with pytest.raises(ConfigError, match="n_channels"):
        load_config('{"n_subnets": 3}')


def test_zero_channels_rejected():
    with pytest.raises(ConfigError, match="n_channels: must be >= 1"):
        load_config('{"n_subnets": 3, "n_channels": 0}')


def test_minibatch_larger_than_replay_rejected():
    with pytest.raises(ConfigError, match="minibatch_size"):
        load_config('{"n_subnets": 3, "n_channels": 2, "minibatch_size": 10, "replay_capacity": 5}')


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: n_chanels"):
        load_config('{"n_subnets": 3, "n_chanels": 2}')


def test_repeated_key_rejected_naming_it():
    # json keeps the last of a repeated key, which would run 7 subnetworks silently
    with pytest.raises(ConfigError, match="^n_subnets: given more than once$"):
        load_config('{"n_subnets": 5, "n_channels": 2, "n_subnets": 7}')


@pytest.mark.parametrize(
    "key, value",
    [
        ("allow_event_overlap", "false"),
        ("pilot_mode", '"ones"'),
        ("reward_scope", '"individual"'),
        ("cs_gain_mode", '"raw"'),
        ("cs_overhead_slots", "1"),
    ],
)
def test_removed_keys_rejected_as_unknown(key, value):
    # one live alarm, all-ones pilots, a shared reward, normalised gains and
    # one slot per attempt are the model, not options
    with pytest.raises(ConfigError, match=f"^unknown config keys: {key}$"):
        load_config(f'{{"n_subnets": 3, "n_channels": 2, "{key}": {value}}}')


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
    cfg = ScenarioConfig(
        n_subnets=2, n_channels=2, policy_kind="rch", activation_mode="threshold_and_bernoulli",
    )
    assert cfg.policy_kind is PolicyKind.RCH
    assert cfg.activation_mode is ActivationMode.THRESHOLD_AND_BERNOULLI
    assert isinstance(Simulation(cfg, seed=1).policy, RchPopulation)
    assert replace(cfg, policy_kind="mapra").policy_kind is PolicyKind.MAP_RA
    with pytest.raises(ConfigError, match="activation_mode: must be one of"):
        ScenarioConfig(n_subnets=2, n_channels=2, activation_mode="bernoulli")
    with pytest.raises(ConfigError, match="policy_kind"):
        replace(cfg, policy_kind="smart")


@pytest.mark.parametrize(
    "key, value",
    [
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
        ("n_subnets", 2.5),
        ("n_subnets", "3"),
        ("n_runs", True),
        ("eta", None),
        ("speed_mps", float("inf")),
        ("pathloss_abg_los", (2.0, 30.0)),
        ("n_runs", np.True_),
        ("n_subnets", np.float64(3.0)),
    ],
)
def test_configs_built_in_code_are_type_checked(key, value):
    base = load_config('{"n_subnets": 3, "n_channels": 2}')
    with pytest.raises(ConfigError, match=f"^{key}: "):
        replace(base, **{key: value})
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ScenarioConfig(**{"n_subnets": 3, "n_channels": 2, key: value})


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("deadline_slots", {"deadline_slots": -1}),
        ("minibatch_size", {"minibatch_size": 1000, "replay_capacity": 10}),
        ("n_subnets", {"n_subnets": "4"}),
    ],
)
def test_config_built_in_code_checks_itself(key, overrides):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ScenarioConfig(**{"n_subnets": 4, "n_channels": 2, **overrides})
    base = ScenarioConfig(n_subnets=4, n_channels=2)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        replace(base, **overrides)


@pytest.mark.parametrize(
    "n_subnets, fits",
    [(5, True), (6, False)],  # N pi (sep/2)**2 <= (W + sep)(H + sep): N <= 16 / pi here
)
def test_packing_bound_checked_when_built(n_subnets, fits):
    doc = {"n_subnets": n_subnets, "n_channels": 2, "area_width_m": 1.0, "area_height_m": 1.0, "min_separation_m": 1.0}
    if fits:
        ScenarioConfig(**doc)
    else:
        with pytest.raises(ConfigError, match="^n_subnets: "):
            ScenarioConfig(**doc)


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("n_channels", {"n_subnets": 20, "n_channels": 16}),  # 18.9 GB of replay rings
        ("replay_capacity", {"n_subnets": 20, "replay_capacity": 10**8}),
        ("minibatch_size", {"n_subnets": 20, "minibatch_size": 10**7, "replay_capacity": 10**7}),
        ("dnn_hidden_size", {"n_subnets": 20, "dnn_hidden_size": 10**5}),
        ("n_subnets", {"n_subnets": MAX_DRL_SUBNETS + 1, "min_separation_m": 0.0}),  # the Cholesky bound
        ("n_channels", {"n_subnets": 5000, "n_channels": 16, "policy_kind": "mapra"}),  # the value table
        # refused before the layer sizes, one per layer, are built (at 2**63
        # building them raised OverflowError); one layer over the bound is
        # refused under this key, not under dnn_hidden_size
        ("dnn_hidden_layers", {"n_subnets": 20, "dnn_hidden_layers": 2**63}),
        ("dnn_hidden_layers", {"n_subnets": 20, "dnn_hidden_layers": config.SETUP_BUDGET_BYTES // (112 * 20) + 1}),
    ],
)
def test_config_too_large_to_build_refused_naming_the_key(key, overrides):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ScenarioConfig(**{"n_channels": 3, "min_separation_m": 0.0, **overrides})


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_subnets": 1, "n_channels": 16},  # DRL, about 1.4 GiB
        {"n_subnets": MAX_DRL_SUBNETS, "n_channels": 3, "min_separation_m": 0.0},
        {"n_subnets": 10**6, "n_channels": 16, "policy_kind": "rch", "min_separation_m": 0.0},
    ],
)
def test_large_config_within_the_budget_accepted(overrides):
    ScenarioConfig(**overrides)


@pytest.mark.parametrize("minibatch, replay", [(None, None), (32, 64), (1, 1)])
def test_setup_estimate_bounds_the_allocation_peak(minibatch, replay):
    # a DRL set-up at N = 100, then contention rounds with every agent
    # active; at the default sizes the replay rings and minibatch arrays
    # dominate the peak, at sizes 1 the set-up's N x N shadowing arrays do
    def contend(n_subnets):
        cfg = ScenarioConfig(
            n_subnets=n_subnets, n_channels=3, policy_kind=PolicyKind.DRL,
            minibatch_size=minibatch, replay_capacity=replay,
        )
        sim = Simulation(cfg, seed=1)
        for _ in range(3):
            sim._contention_round(AlarmEvent((25.0, 25.0), 0, tuple(range(n_subnets))), np.arange(n_subnets))
        return cfg

    contend(4)  # what numpy loads on first use is no array of the run
    tracemalloc.start()
    try:
        cfg = contend(100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(config._setup_bytes(cfg).values())


@pytest.mark.parametrize(
    "key", ["area_width_m", "area_height_m", "shadow_sigma_los_db", "shadow_sigma_nlos_db"]
)
def test_out_of_range_value_rejected_naming_the_key(key):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        load_config(json.dumps({"n_subnets": 3, "n_channels": 2, key: -1}))


def test_triples_built_in_code_become_float_tuples():
    cfg = ScenarioConfig(n_subnets=2, n_channels=2, pathloss_abg_los=[2, 31, 1.9])
    assert cfg.pathloss_abg_los == (2.0, 31.0, 1.9)
    assert all(type(v) is float for v in cfg.pathloss_abg_los)


def test_numbers_of_the_right_kind_accepted():
    cfg = load_config(
        '{"n_subnets": 3, "n_channels": 2, "area_width_m": 40, "minibatch_size": null,'
        ' "pathloss_abg_los": [2, 31.84, 1.9]}'
    )
    assert cfg.area_width_m == 40 and cfg.minibatch_size is None
    assert cfg.pathloss_abg_los == (2.0, 31.84, 1.9)


def test_every_field_has_a_checked_kind():
    enums = {"PolicyKind", "ActivationMode"}
    kinds = {"int", "int | None", "float", "tuple[float, float, float]"} | enums
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
    st.sampled_from(["drl", "mapra", "rch", "threshold_only"]),
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


@pytest.mark.parametrize(
    "key, value, equal",
    [
        ("eta", 1, 1.0),
        ("area_width_m", np.float32(40.0), 40.0),
        ("n_subnets", np.int64(3), 3),
        ("minibatch_size", np.int32(4), 4),
    ],
)
def test_equal_configs_share_one_fingerprint(key, value, equal):
    # counts are stored as int and quantities as float, so a config
    # serializes the same however its numbers were written
    a, b = (ScenarioConfig(**{"n_subnets": 3, "n_channels": 2, key: v}) for v in (value, equal))
    assert a == b and type(getattr(a, key)) is type(getattr(b, key))
    assert serialize_config(a) == serialize_config(b)
    assert config_fingerprint(a) == config_fingerprint(b)


def test_presets_are_pinned_and_criteria_extends_contention():
    # a preset holds only the keys that differ from the defaults, so a
    # changed default changes its scenario: the pinned fingerprints show it
    assert config_fingerprint(CONTENTION) == "5df14c1589ef6de86f69c5e9906e1947965efe545618268726838b289590b58e"
    assert config_fingerprint(CRITERIA) == "9ae89019f7197afe0b33349266a515af297fbfd0937b58eee10590ba6564f0a0"
    contention, criteria = (json.loads((CONFIGS / f"{name}.json").read_text()) for name in ("contention", "criteria"))
    assert {key: criteria.get(key) for key in contention} == contention


def test_serialized_form_is_flat_json():
    cfg = load_config('{"n_subnets": 2, "n_channels": 1}')
    doc = json.loads(serialize_config(cfg))
    assert doc["n_subnets"] == 2
    assert all(not isinstance(v, dict) for v in doc.values())


def test_replace_validates():
    cfg = load_config('{"n_subnets": 2, "n_channels": 2}')
    assert replace(cfg, eta=0.3).eta == 0.3
    with pytest.raises(ConfigError):
        replace(cfg, alpha=1.5)


def test_derived_sizes_computed_once_and_anew_by_replace():
    cfg = ScenarioConfig(n_subnets=2, n_channels=2, dnn_hidden_size=3)
    serialized, fingerprint = serialize_config(cfg), config_fingerprint(cfg)
    assert cfg.layer_sizes == (2, 3, 3, 4) and type(cfg.layer_sizes) is tuple
    assert (cfg.n_patterns, cfg.minibatch, cfg.replay) == (4, 120, 400)
    # each is computed on its first read and kept with the config
    assert {"n_patterns", "minibatch", "replay", "layer_sizes"} <= vars(cfg).keys()
    assert cfg.layer_sizes is cfg.layer_sizes
    wider = replace(cfg, n_channels=3)
    assert wider.layer_sizes == (3, 3, 3, 8)
    assert (wider.n_patterns, wider.minibatch, wider.replay) == (8, 240, 800)
    # the kept sizes are no fields: the serialized form, the fingerprint and equality ignore them
    assert serialize_config(cfg) == serialized and config_fingerprint(cfg) == fingerprint
    back = replace(wider, n_channels=2)
    assert back == cfg and config_fingerprint(back) == fingerprint and back.layer_sizes == cfg.layer_sizes


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


# --- the streams equal numpy's from the list of entropy entries ------------

MASK64 = 2**64 - 1
STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**70)
STREAM_LABELS = ("", "placement", "détection→阈值")


def list_form_stream(seed: int, label: str) -> np.random.Generator:
    """The stream of (seed, label) seeded, as numpy coerces it, from the list
    ``[seed & (2**64 - 1), *label bytes]``."""
    return np.random.default_rng(np.random.SeedSequence([seed & MASK64, *label.encode("utf-8")]))


def list_form_run_seed(base_seed: int, run_index: int) -> int:
    return int(np.random.SeedSequence([base_seed & MASK64, run_index]).generate_state(1, np.uint64)[0])


def assert_same_stream(got: np.random.Generator, want: np.random.Generator) -> None:
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(100), want.random(100))


@pytest.mark.parametrize("label", STREAM_LABELS)
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_derive_stream_is_the_list_form_stream(seed, label):
    assert_same_stream(derive_stream(seed, label), list_form_stream(seed, label))


@pytest.mark.parametrize("run_index", (0, 1, 2**32 - 1, 2**32, 2**64, 2**70))
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_derive_run_seed_is_the_list_form_seed(seed, run_index):
    assert derive_run_seed(seed, run_index) == list_form_run_seed(seed, run_index)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70),
    label=st.text(max_size=12),
    run_index=st.integers(0, 2**70),
)
def test_stream_words_equal_the_list_form_for_any_seed(seed, label, run_index):
    assert_same_stream(derive_stream(seed, label), list_form_stream(seed, label))
    assert derive_run_seed(seed, run_index) == list_form_run_seed(seed, run_index)


def test_stream_functions_take_numpy_integers():
    # the other integer arguments are in test_surface.py's table
    assert_same_stream(derive_stream(np.uint64(MASK64), "x"), derive_stream(-1, "x"))


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_median_is_numpys_to_the_bit_for_every_length_up_to_64():
    rng = np.random.default_rng(5)
    for n in range(1, 65):
        mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
        cases = [mixed]
        for scale in (1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300):
            normal = rng.standard_normal(n) * scale
            ties = rng.integers(-3, 4, n) * scale  # repeated values, negatives and zeros
            cases += [normal, ties, np.abs(normal), -np.abs(normal)]
        for values in cases:
            expected = float_bits(float(np.median(values)))
            assert float_bits(config._median(values)) == expected, values
            # a list of floats, as reporting passes its decile medians
            assert float_bits(config._median(values.tolist())) == expected, values


def test_median_of_signed_zeros_and_nan_follows_numpy_and_of_nothing_is_refused():
    for values in ([-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, -5e-324]):
        assert float_bits(config._median(values)) == float_bits(float(np.median(values))), values
    for position in range(5):
        values = [1.0, 2.0, 3.0, 4.0]
        values.insert(position, math.nan)
        assert math.isnan(config._median(values)) and math.isnan(np.median(values))
    with pytest.raises(ValueError, match="^median of no values$"):
        config._median([])
