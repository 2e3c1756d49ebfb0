"""Value-type contracts: vocabulary encoding, distribution validation,
config invariants and serialization, and cost-ledger arithmetic."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cntp
from cntp import (
    DEFAULT_PUNCTUATION,
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
from cntp.core import CONFIDENCE_MEASURES, NORMALIZATION_TOL, TRIAL_SCALINGS
from cntp.engine import entropy
from cntp.harness import bundled_path, resolve_model
from cntp.models import load_scripted_model
from cntp.theory import bundled_fixtures


def test_vocabulary_basics():
    vocab = Vocabulary(("a", "b", "ab", ""), 3)
    assert len(vocab) == 4
    assert vocab.surface(0) == "a"
    assert vocab.surface(3) == ""
    assert vocab.text((0, 1, 3)) == "ab"
    seq = vocab.sequence((2, 0))
    assert seq.tokens == (2, 0) and seq.text == "aba" and len(seq) == 2


def test_sequence_text_renders_on_first_read_and_keeps_the_dataclass_contract():
    """A Vocabulary.sequence renders its text on first read and then equals,
    hashes and prints as the Sequence built with that text, as the frozen
    dataclass it replaced did; it stays frozen, and copies and pickles."""
    import copy
    import pickle

    vocab = Vocabulary(("a", "b", "ab", ""), 3)
    lazy, built = vocab.sequence([2, 0, 3]), cntp.Sequence((2, 0, 3), "aba")
    assert lazy._text is None
    assert lazy == built and hash(lazy) == hash(built) == hash(((2, 0, 3), "aba"))
    assert repr(lazy) == repr(built) == "Sequence(tokens=(2, 0, 3), text='aba')"
    assert lazy != cntp.Sequence((2, 0, 3), "x") and lazy != ((2, 0, 3), "aba")
    for seq in (vocab.sequence((1,)), built):
        with pytest.raises(dataclasses.FrozenInstanceError):
            seq.tokens = ()
        assert copy.deepcopy(seq) == seq == pickle.loads(pickle.dumps(seq))



def test_step_trace_keeps_the_dataclass_contract():
    """A StepTrace, one tuple allocation, keeps the frozen dataclass's
    fields and their order, keyword construction, equality and hash among
    traces, repr, immutability and pickle; the engine's tuple.__new__ build
    equals the keyword one."""
    import copy
    import pickle

    trace = cntp.StepTrace(0.5, 1, None, 0.25)
    assert trace._fields == ("confidence", "n_trials", "chosen_ppl", "chosen_prob")
    built = tuple.__new__(cntp.StepTrace, (0.5, 1, None, 0.25))
    keyword = cntp.StepTrace(confidence=0.5, n_trials=1, chosen_ppl=None, chosen_prob=0.25)
    assert trace == built == keyword and hash(trace) == hash(built) == hash(keyword)
    assert trace != cntp.StepTrace(0.5, 3, 1.5, None)
    assert repr(built) == ("StepTrace(confidence=0.5, n_trials=1, chosen_ppl=None, "
                           "chosen_prob=0.25)")
    assert (trace.confidence, trace.n_trials, trace.chosen_ppl, trace.chosen_prob) == \
        (0.5, 1, None, 0.25)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.n_trials = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        del trace.confidence
    with pytest.raises(AttributeError):
        trace.note = ""
    again = pickle.loads(pickle.dumps(built))
    assert type(again) is cntp.StepTrace and again == copy.deepcopy(trace) == trace

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
    with pytest.raises(TypeError, match="token 0 must be a string, got 1"):
        Vocabulary((1, ""), 1)


def test_distribution_accepts_normalized_vectors():
    dist = Distribution([0.7, 0.3])
    assert len(dist) == 2
    assert dist.probs.dtype == np.float64
    # within the documented 1e-9 slack
    Distribution([0.7, 0.3 + 5e-10])


def test_distribution_rejects_denormalized_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sum"):
            Distribution([0.7, 0.28])  # never silently renormalized
        with pytest.raises(ValueError, match="non-negative"):
            Distribution([1.1, -0.1])
        # Summing [inf, -inf] would warn, so no check sums a row before its min.
        for values in ([float("nan"), 1.0], [float("inf"), 0.0], [float("inf"), float("-inf")]):
            with pytest.raises(ValueError, match="finite"):
                Distribution(values)
        with pytest.raises(ValueError, match="finite"):
            Distribution([10**400, 0])  # past the float range
        with pytest.raises(ValueError):
            Distribution([])
        with pytest.raises(ValueError):
            Distribution([[0.5, 0.5]])


def test_distribution_is_immutable():
    dist = Distribution([0.5, 0.5])
    with pytest.raises(ValueError):
        dist.probs[0] = 1.0


def test_distribution_copies_a_view_and_adopts_an_owned_array():
    base = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
    dist = Distribution(base[:4])
    assert entropy(dist) == pytest.approx(math.log(4))
    base[1] = -0.2  # the caller's memory stays writable and no longer aliases the row
    assert dist.probs.tolist() == [0.25] * 4
    assert entropy(dist) == pytest.approx(math.log(4))
    owned = np.array([0.5, 0.5])
    assert Distribution(owned).probs is owned
    assert not owned.flags.writeable


def _parent_checks(values):
    """The three checks Distribution ran before its two-reduction fast
    path, in their order."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("distribution entries must be finite")
    if np.any(arr < 0):
        raise ValueError("distribution entries must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"distribution entries sum to {total!r}, expected 1 within 1e-9")


def _verdict_and_warnings(check, values):
    """The message check rejects values with (None if it accepts them),
    and every warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check(values)
            verdict = None
        except ValueError as exc:
            verdict = str(exc)
    return verdict, [(w.category, str(w.message)) for w in caught]


_EDGE_ENTRIES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, 1.0, -0.5, 1e308, -1e308,
                 1.7976931348623157e308, 5e-324, -5e-324]
_SLACKS = [0.0, 5e-10, -5e-10, 9.99e-10, -9.99e-10, 1e-9, -1e-9, 1.01e-9, -1.01e-9,
           2e-9, -2e-9]


@st.composite
def _near_normalized(draw):
    """A normalized row with one entry nudged by about the tolerance, and
    maybe one entry swapped for an edge value."""
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)))
    if not weights.sum() > 0:
        weights[0] = 1.0
    row = (weights / weights.sum()).tolist()
    i = draw(st.integers(0, len(row) - 1))
    row[i] += draw(st.sampled_from(_SLACKS) | st.floats(-2e-9, 2e-9))
    if draw(st.booleans()):
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_EDGE_ENTRIES))
    return row


_rows = st.lists(st.sampled_from(_EDGE_ENTRIES) | st.floats(), min_size=1, max_size=6)


@given(_rows | _near_normalized())
@example([1e308, 1e308, math.inf])  # finite entries overflow before the inf is met
@example([-0.0, 1.0])
def test_distribution_fast_path_matches_the_three_checks(values):
    assert _verdict_and_warnings(Distribution, values) == _verdict_and_warnings(_parent_checks,
                                                                                values)


def test_model_row_of_opposite_infinities_exits_2_without_a_warning(tmp_path):
    path = tmp_path / "inf.model"
    path.write_text(json.dumps({"tokens": ["a.", ""], "eos": 1, "default": [0.5, 0.5],
                                "rows": [{"prefix": [], "probs": [math.inf, -math.inf]}]}))
    assert "Infinity, -Infinity" in path.read_text()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cntp.__file__)))
    result = subprocess.run(
        [sys.executable, "-m", "cntp.harness.cli", "decode", "--model", str(path),
         "--strategy", "greedy", "--prompt", "a.", "--out", ""],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert "must be finite" in result.stderr
    assert "Warning" not in result.stderr


def test_distribution_total_is_the_sum_arr_sum_takes_on_bundled_rows():
    rows = [*load_scripted_model(bundled_path("suite.model")).table.values()]
    for fixture in bundled_fixtures():
        rows += [*fixture.model.table.values(), fixture.model.default]
    kgram = resolve_model("bundled:kgram")
    rows += [kgram.next_distribution(prefix) for prefix in [(), *((t,) for t in range(8))]]
    assert len(rows) > 100
    for dist in rows:
        arr = dist.probs
        assert float.hex(float(np.add.reduce(arr))) == float.hex(float(arr.sum()))


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
        ({"n_max": 10**400}, "n_max must be at most"),
        ({"temperature": 5e-324}, "temperature must be 0 or at least 1e-300"),
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


def test_config_keeps_punctuation_as_a_frozenset():
    """Any iterable of characters is stored as a frozenset, so every config
    hashes and equals the one built from a frozenset."""
    expected = DecodeConfig(punctuation=frozenset(".!"))
    for given in ({".", "!"}, [".", "!"], "!."):
        config = DecodeConfig(punctuation=given)
        assert type(config.punctuation) is frozenset
        assert config == expected and hash(config) == hash(expected)
    assert DecodeConfig().punctuation is DEFAULT_PUNCTUATION


def test_config_dict_round_trip():
    config = DecodeConfig(h_min=0.2, h_max=2.0, n_max=4, temperature=0.6,
                          top_p=0.95, seed=99, punctuation=frozenset(".!"))
    data = config_to_dict(config)
    assert data["punctuation"] == "!."  # sorted into a stable string
    assert config_from_dict(data) == config
    assert json.loads(json.dumps(data)) == data


@st.composite
def valid_configs(draw) -> DecodeConfig:
    h_min = draw(st.integers(0, 5) | st.floats(0, 5))
    return DecodeConfig(
        h_min=h_min,
        h_max=h_min + draw(st.floats(0.01, 5)),
        n_max=draw(st.integers(1, 10**6)),
        temperature=draw(st.just(0.0) | st.integers(0, 3) | st.floats(1e-300, 5)),
        top_p=draw(st.floats(0, 1, exclude_min=True)),
        punctuation=draw(st.just(DEFAULT_PUNCTUATION) | st.frozensets(st.characters(),
                                                                       max_size=4)),
        branch_cap=draw(st.integers(1, 10**9)),
        global_cap=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
        confidence_measure=draw(st.sampled_from(CONFIDENCE_MEASURES)),
        trial_scaling=draw(st.sampled_from(TRIAL_SCALINGS)),
    )


BUNDLED_CONFIGS = [load_config(bundled_path(name)) for name in (
    "suite.config.json", "kgram.config.json", "theorem1_case.config.json")]


@given(st.sampled_from(BUNDLED_CONFIGS) | valid_configs(), st.integers(0, 2**64 - 1))
def test_with_seed_equals_replace(config, seed):
    """with_seed and greedy_policy's _with("temperature", 0.0), the one
    copy that skips __init__, give what dataclasses.replace gives: every
    field the same value of the same type, set in the same order, and a
    config as frozen as one built by __init__."""
    swapped = config.with_seed(seed)
    replaced = dataclasses.replace(config, seed=seed)
    assert type(swapped) is DecodeConfig and swapped.seed == seed
    assert swapped == replaced and hash(swapped) == hash(replaced)
    assert config_to_dict(swapped) == config_to_dict(replaced)
    assert list(config_to_dict(swapped)) == list(config_to_dict(replaced))
    cold = (config._with("temperature", 0.0), dataclasses.replace(config, temperature=0.0))
    for copy, expected in ((swapped, replaced), cold):
        for field in dataclasses.fields(DecodeConfig):
            value, want = getattr(copy, field.name), getattr(expected, field.name)
            assert type(value) is type(want) and value == want, field.name
        assert list(vars(copy)) == list(vars(expected))
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.seed = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del copy.h_min
    assert config == dataclasses.replace(config)  # the source is untouched


@given(valid_configs())
def test_config_dict_matches_the_asdict_form(config):
    old = dataclasses.asdict(config)
    old["punctuation"] = "".join(sorted(config.punctuation))
    assert json.dumps(config_to_dict(config)) == json.dumps(old)


@given(valid_configs(), st.booleans() | st.integers(max_value=-1) | st.integers(min_value=2**64)
       | st.integers(0, 2**63 - 1).map(np.int64) | st.integers(0, 2**64 - 1).map(np.uint64))
def test_with_seed_rejects_what_validate_config_rejects(config, seed):
    with pytest.raises(ConfigError) as expected:
        dataclasses.replace(config, seed=seed)
    with pytest.raises(ConfigError) as swapped:
        config.with_seed(seed)
    assert str(swapped.value) == str(expected.value)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown field"):
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
