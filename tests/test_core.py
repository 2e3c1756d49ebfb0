"""Value-type contracts: vocabulary encoding, distribution validation,
config invariants and serialization, and cost-ledger arithmetic."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from cntp import (
    ConfigError,
    CostLedger,
    DecodeConfig,
    Distribution,
    Vocabulary,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)


def test_vocabulary_basics():
    vocab = Vocabulary(("a", "b", "ab", ""), 3)
    assert len(vocab) == 4
    assert vocab.surface(0) == "a"
    assert vocab.surface(3) == ""
    assert vocab.text((0, 1, 3)) == "ab"
    seq = vocab.sequence((2, 0))
    assert seq.tokens == (2, 0) and seq.text == "aba" and len(seq) == 2


def test_vocabulary_encode_prefers_longest_match():
    vocab = Vocabulary(("a", "b", "ab", ""), 3)
    assert vocab.encode("ab") == (2,)
    assert vocab.encode("aab") == (0, 2)
    assert vocab.encode("") == ()


def test_vocabulary_encode_rejects_unwritable_text():
    vocab = Vocabulary(("a", "b", ""), 2)
    with pytest.raises(ValueError, match="position 1"):
        vocab.encode("az")


def test_vocabulary_construction_rules():
    with pytest.raises(ValueError, match="empty surface"):
        Vocabulary(("a", "x"), 1)  # eos surface must be empty
    with pytest.raises(ValueError, match="unique"):
        Vocabulary(("a", "a", ""), 2)
    with pytest.raises(ValueError, match="out of range"):
        Vocabulary(("a", ""), 5)
    with pytest.raises(ValueError, match="at least one"):
        Vocabulary((), 0)
    with pytest.raises(ValueError, match="not eos"):
        Vocabulary(("", "a", ""), 2)


def test_distribution_accepts_normalized_vectors():
    dist = Distribution([0.7, 0.3])
    assert len(dist) == 2
    assert dist.probs.dtype == np.float64
    # within the documented 1e-9 slack
    Distribution([0.7, 0.3 + 5e-10])


def test_distribution_rejects_denormalized_input():
    with pytest.raises(ValueError, match="sum"):
        Distribution([0.7, 0.28])  # never silently renormalized
    with pytest.raises(ValueError, match="non-negative"):
        Distribution([1.1, -0.1])
    with pytest.raises(ValueError, match="finite"):
        Distribution([float("nan"), 1.0])
    with pytest.raises(ValueError, match="finite"):
        Distribution([float("inf"), 0.0])
    with pytest.raises(ValueError):
        Distribution([])
    with pytest.raises(ValueError):
        Distribution([[0.5, 0.5]])


def test_distribution_is_immutable():
    dist = Distribution([0.5, 0.5])
    with pytest.raises(ValueError):
        dist.probs[0] = 1.0


def test_default_config_is_valid():
    config = validate_config(DecodeConfig())
    assert config.n_max == 10
    assert config.h_min == 0.01 and config.h_max == 1.5
    assert config.temperature == 1.0 and config.top_p == 0.9


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"h_min": 1.5, "h_max": 1.5}, "h_min must be < h_max"),
        ({"n_max": 0}, "n_max must be ≥ 1"),
        ({"h_min": -0.2}, "h_min"),
        ({"temperature": -1.0}, "temperature"),
        ({"top_p": 0.0}, "top_p"),
        ({"top_p": 1.2}, "top_p"),
        ({"branch_cap": 0}, "branch_cap"),
        ({"global_cap": 0}, "global_cap"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"confidence_measure": "psychic"}, "confidence_measure"),
        ({"trial_scaling": "sideways"}, "trial_scaling"),
        ({"punctuation": frozenset({".."})}, "single characters"),
        ({"h_min": "x"}, "h_min must be a real number"),
        ({"h_max": None}, "h_max must be a real number"),
        ({"temperature": True}, "temperature must be a real number"),
        ({"top_p": np.int64(1)}, "top_p must be a real number"),
        ({"n_max": True}, "n_max must be an integer"),
        ({"n_max": 2.0}, "n_max must be an integer"),
        ({"branch_cap": np.int64(4)}, "branch_cap must be an integer"),
        ({"global_cap": "12"}, "global_cap must be an integer"),
        ({"seed": False}, "seed must be an integer"),
    ],
)
def test_validate_config_names_first_violation(fields, message):
    with pytest.raises(ConfigError, match=message):
        validate_config(dataclasses.replace(DecodeConfig(), **fields))


def test_configs_are_checked_on_construction_and_replace():
    with pytest.raises(ConfigError, match="n_max must be ≥ 1"):
        DecodeConfig(n_max=0)
    with pytest.raises(ConfigError, match="n_max must be ≥ 1"):
        dataclasses.replace(DecodeConfig(), n_max=0)


def test_config_real_fields_take_ints_and_numpy_floats():
    config = DecodeConfig(h_min=0, h_max=2, temperature=np.float64(0.5), top_p=1)
    assert (config.h_min, config.h_max, config.top_p) == (0, 2, 1)


def test_config_dict_round_trip():
    config = DecodeConfig(h_min=0.2, h_max=2.0, n_max=4, temperature=0.6,
                          top_p=0.95, seed=99, punctuation=frozenset(".!"))
    data = config_to_dict(config)
    assert data["punctuation"] == "!."  # sorted into a stable string
    assert config_from_dict(data) == config
    assert json.loads(json.dumps(data)) == data


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"n_max": 3, "banana": 1})
    with pytest.raises(ConfigError, match="punctuation"):
        config_from_dict({"punctuation": [".", ","]})


def test_config_from_dict_coerces_integer_reals():
    config = config_from_dict({"h_max": 2, "temperature": 1, "top_p": 1})
    assert config.h_max == 2.0 and isinstance(config.h_max, float)
    assert config.temperature == 1.0 and config.top_p == 1.0


@pytest.mark.parametrize("data,message", [
    ({"h_min": "x"}, "h_min must be a real number"),
    ({"h_min": True}, "h_min must be a real number"),  # not widened to 1.0
    ({"n_max": True}, "n_max must be an integer"),  # not read as 1
    ({"seed": 1.0}, "seed must be an integer"),
])
def test_config_from_dict_rejects_wrong_types(data, message):
    with pytest.raises(ConfigError, match=f"cfg.json: {message}"):
        config_from_dict(data, source="cfg.json")


def test_load_config_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  'bad'\n}\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))
    path.write_text("[1, 2]\n")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(config_to_dict(DecodeConfig(n_max=7))))
    assert load_config(str(good)).n_max == 7


def test_cost_ledger_addition_and_fraction():
    a = CostLedger(forward_passes=5, generated_tokens=6, high_entropy_steps=1, total_steps=4)
    b = CostLedger(forward_passes=2, generated_tokens=2, high_entropy_steps=0, total_steps=2)
    total = a + b
    assert total == CostLedger(7, 8, 1, 6)
    assert math.isclose(total.high_entropy_fraction, 1 / 6)
    assert CostLedger().high_entropy_fraction == 0.0
