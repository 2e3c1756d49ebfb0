"""Sampling primitives: temperature scaling, nucleus truncation, their
composition order, inverse-CDF draws, and the keyed RNG streams."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cntp import (
    DecodeConfig,
    Distribution,
    Rng,
    apply_temperature,
    derive_seed,
    greedy_token,
    nucleus_truncate,
    prepare_sampling_dist,
    sample_token,
)


class ScriptedUniforms:
    """Duck-typed rng feeding sample_token a fixed list of variates."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self) -> float:
        return self._values.pop(0)


def test_temperature_identity_and_argmax_limit():
    dist = Distribution([0.7, 0.3])
    assert apply_temperature(dist, 1.0) is dist
    cold = apply_temperature(dist, 0.0)
    assert cold.probs.tolist() == [1.0, 0.0]
    # argmax tie resolves to the lowest id
    tied = apply_temperature(Distribution([0.5, 0.5]), 0.0)
    assert tied.probs.tolist() == [1.0, 0.0]


def test_temperature_half_squares_probabilities():
    out = apply_temperature(Distribution([0.7, 0.3]), 0.5)
    assert out.probs[0] == pytest.approx(0.49 / 0.58, abs=1e-12)
    assert out.probs[1] == pytest.approx(0.09 / 0.58, abs=1e-12)
    assert out.probs[0] == pytest.approx(0.8448, abs=1e-4)
    assert out.probs[1] == pytest.approx(0.1552, abs=1e-4)


def test_temperature_rejects_negative():
    with pytest.raises(ValueError):
        apply_temperature(Distribution([1.0]), -0.5)


def test_nucleus_keeps_smallest_prefix_reaching_top_p():
    out = nucleus_truncate(Distribution([0.5, 0.3, 0.15, 0.05]), 0.9)
    expected = (0.5 / 0.95, 0.3 / 0.95, 0.15 / 0.95, 0.0)
    assert out.probs == pytest.approx(expected, abs=1e-12)
    assert out.probs[:3] == pytest.approx((0.5263, 0.3158, 0.1579), abs=1e-4)


def test_nucleus_identity_cases():
    dist = Distribution([0.5, 0.3, 0.15, 0.05])
    assert nucleus_truncate(dist, 1.0) is dist
    one_hot = Distribution([0.0, 1.0, 0.0])
    assert nucleus_truncate(one_hot, 0.9).probs.tolist() == [0.0, 1.0, 0.0]


def test_nucleus_always_keeps_argmax():
    out = nucleus_truncate(Distribution([0.6, 0.4]), 1e-9)
    assert out.probs.tolist() == [1.0, 0.0]


def test_nucleus_tie_breaks_by_ascending_id():
    # two equal tails: the lower id survives when only one more is needed
    out = nucleus_truncate(Distribution([0.5, 0.25, 0.25]), 0.75)
    assert out.probs.tolist() == pytest.approx([2 / 3, 1 / 3, 0.0], abs=1e-12)


def test_prepare_applies_temperature_before_nucleus():
    """Order regression: squaring (0.5,0.3,0.15,0.05) concentrates mass so
    the 0.9 nucleus keeps two tokens, giving (25/34, 9/34). Truncating first
    would keep three."""
    config = DecodeConfig(temperature=0.5, top_p=0.9)
    out = prepare_sampling_dist(Distribution([0.5, 0.3, 0.15, 0.05]), config)
    assert out.probs == pytest.approx((25 / 34, 9 / 34, 0.0, 0.0), abs=1e-12)


def test_prepare_identity_and_cold_cases():
    dist = Distribution([0.5, 0.3, 0.15, 0.05])
    assert prepare_sampling_dist(dist, DecodeConfig(temperature=1.0, top_p=1.0)) is dist
    cold = prepare_sampling_dist(dist, DecodeConfig(temperature=0.0, top_p=0.4))
    assert cold.probs.tolist() == [1.0, 0.0, 0.0, 0.0]
    nucleus = prepare_sampling_dist(dist, DecodeConfig(temperature=1.0, top_p=0.9))
    assert nucleus.probs == pytest.approx((0.5263, 0.3158, 0.1579, 0.0), abs=1e-4)


def test_prepare_caches_per_config_shape():
    dist = Distribution([0.5, 0.3, 0.15, 0.05])
    config = DecodeConfig(temperature=0.5, top_p=0.9)
    assert prepare_sampling_dist(dist, config) is prepare_sampling_dist(dist, config)


def test_sample_token_one_hot_ignores_rng():
    dist = Distribution([0.0, 0.0, 0.0, 1.0])
    assert sample_token(dist, ScriptedUniforms([0.0])) == 3
    assert sample_token(dist, ScriptedUniforms([0.999])) == 3


def test_sample_token_inverse_cdf_boundaries():
    dist = Distribution([0.5, 0.5])
    assert sample_token(dist, ScriptedUniforms([0.25])) == 0
    assert sample_token(dist, ScriptedUniforms([0.75])) == 1


def test_sample_token_never_emits_zero_probability_tokens():
    dist = Distribution([0.0, 1.0, 0.0])
    rng = Rng(3)
    assert all(sample_token(dist, rng) == 1 for _ in range(50))


def test_sample_token_frequencies_match_binomial():
    dist = Distribution([0.7, 0.3])
    rng = Rng(12345)
    n = 100_000
    hits = sum(sample_token(dist, rng) == 0 for _ in range(n))
    sigma = math.sqrt(0.7 * 0.3 / n)
    assert abs(hits / n - 0.7) <= 3 * sigma


def test_greedy_token_ties_break_low():
    assert greedy_token(Distribution([0.7, 0.3])) == 0
    assert greedy_token(Distribution([0.5, 0.5])) == 0
    assert greedy_token(Distribution([0.0, 0.0, 1.0])) == 2


def test_rng_is_deterministic_per_identity():
    a = [Rng(42, 7).uniform() for _ in range(5)]
    b = [Rng(42, 7).uniform() for _ in range(5)]
    assert a == b
    assert [Rng(42, 8).uniform() for _ in range(5)] != a
    assert all(0.0 <= u < 1.0 for u in a)


def test_rng_derive_ignores_parent_draw_count():
    parent = Rng(11)
    before = parent.derive(2, 5)
    parent.uniform()
    parent.uniform()
    after = parent.derive(2, 5)
    assert [before.uniform() for _ in range(3)] == [after.uniform() for _ in range(3)]


def test_rng_derive_matches_direct_stream_construction():
    assert Rng(9, (1, 2)).uniform() == Rng(9).derive(1, 2).uniform()
    assert Rng(9, 4).uniform() == Rng(9, (4,)).uniform()


def test_derive_seed_is_stable_and_64_bit():
    a = derive_seed(123, 0)
    assert a == derive_seed(123, 0)
    assert 0 <= a < 2**64
    assert len({derive_seed(123, i) for i in range(100)}) == 100
    assert derive_seed(123, 0, 1) != derive_seed(123, 1, 0)


@st.composite
def distributions(draw):
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12))
    arr = np.asarray(weights)
    return Distribution(arr / arr.sum())


@settings(max_examples=60, deadline=None)
@given(distributions(), st.floats(0.1, 5.0))
# Two leaders one ulp apart temper to the same float, so np.argmax of the
# output may name the other one: rounding can merge probabilities, never
# reorder them.
@example(Distribution([0.15384615384615385, 0.30769230769230765, 0.3076923076923077,
                       0.15384615384615385, 0.07692307692307693]), 0.5)
def test_temperature_preserves_argmax_and_normalization(dist, temperature):
    out = apply_temperature(dist, temperature)
    assert abs(float(out.probs.sum()) - 1.0) <= 1e-9
    assert out.probs[int(np.argmax(dist.probs))] == out.probs.max()
    # monotone: p_i < p_j never becomes out_i > out_j
    order = np.argsort(dist.probs, kind="stable")
    assert np.all(np.diff(out.probs[order]) >= 0)


@settings(max_examples=60, deadline=None)
@given(distributions(), st.floats(0.05, 1.0))
def test_nucleus_normalizes_and_keeps_argmax(dist, top_p):
    out = nucleus_truncate(dist, top_p)
    assert abs(float(out.probs.sum()) - 1.0) <= 1e-9
    argmax = int(np.argmax(dist.probs))
    assert out.probs[argmax] > 0.0
    # truncation only ever removes mass from non-argmax tokens
    kept = out.probs > 0
    assert np.all(dist.probs[kept] > 0)
