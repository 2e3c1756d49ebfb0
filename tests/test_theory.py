"""Exact enumeration oracle: outcome probabilities, winner analysis for the
multi-trial selection, and the dominance and cost guarantees on the bundled
fixture family."""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_scripted
from cntp import (
    CntpPolicy,
    ConfigError,
    DecodeConfig,
    Distribution,
    EnumerationBudgetError,
    ModelFileError,
    ModelSource,
    ReferenceSequence,
    ScriptedModel,
    SingleSamplePolicy,
    Theorem1Fixture,
    UniformMultisamplePolicy,
    Vocabulary,
    build_theorem1_fixture,
    check_theorem1,
    entropy,
    enumerate_outcomes,
    enumerate_sequences,
    exact_correctness,
    expected_cost,
    greedy_decode,
    load_fixture,
    write_fixture,
)
from cntp.engine import policy_decode
from cntp.theory import ( # noqa: the survey helpers are part of the tested surface
    _assumption1_survey,
    _winner_probabilities,
    derive_thresholds,
    plan_vocabulary,
    validate_regimes,
)

PLAIN = DecodeConfig(temperature=1.0, top_p=1.0)


def _one_step_model(probs):
    vocab = Vocabulary(("a.", "b.", ""), 2)
    eye = np.eye(3)
    return ScriptedModel(vocab, {(): Distribution(probs)}, Distribution(eye[2]))


def _by_tokens(outcomes):
    return {seq.tokens: p for seq, p in outcomes}


def test_enumerate_outcomes_depth_one():
    model = _one_step_model([0.7, 0.3, 0.0])
    got = _by_tokens(enumerate_outcomes(model, SingleSamplePolicy(PLAIN), max_len=1))
    assert set(got) == {(0,), (1,)}
    assert got[(0,)] == pytest.approx(0.7, abs=1e-12)
    assert got[(1,)] == pytest.approx(0.3, abs=1e-12)


def test_uniform_two_trials_amplify_the_likelier_answer():
    """Two trials, keep the lower perplexity: the 0.7 answer wins unless
    both draws pick the 0.3 one, so exactly 1 - 0.3**2 = 0.91."""
    model = _one_step_model([0.7, 0.3, 0.0])
    policy = UniformMultisamplePolicy(PLAIN, 2)
    reference = ReferenceSequence((0,), "a.")
    assert exact_correctness(model, policy, reference) == pytest.approx(0.91, abs=1e-12)


def test_exact_correctness_extremes():
    sure = _one_step_model([1.0, 0.0, 0.0])
    assert exact_correctness(sure, SingleSamplePolicy(PLAIN),
                             ReferenceSequence((0,), "a.")) == pytest.approx(1.0, abs=1e-12)
    tilted = _one_step_model([0.7, 0.3, 0.0])
    assert exact_correctness(tilted, SingleSamplePolicy(PLAIN),
                             ReferenceSequence((0,), "a.")) == pytest.approx(0.7, abs=1e-12)


def test_exact_correctness_chains_step_probabilities():
    vocab = Vocabulary(("a", "b", ""), 2)
    eye = np.eye(3)
    table = {(): Distribution([0.3, 0.7, 0.0]), (0,): Distribution([0.9, 0.1, 0.0])}
    model = ScriptedModel(vocab, table, Distribution(eye[2]))
    p = exact_correctness(model, SingleSamplePolicy(PLAIN), ReferenceSequence((0, 0), "aa"))
    assert p == pytest.approx(0.27, abs=1e-12)


def test_expected_cost_on_a_deterministic_chain():
    """Three forced tokens plus the eos decision: four forward passes for
    the single-sample policy, and exactly n times that when every step runs
    n trials (the lone branch covers the whole remaining chain)."""
    vocab = Vocabulary(("x", "y", ""), 2)
    eye = np.eye(3)
    table = {(): Distribution(eye[0]), (0,): Distribution(eye[0]), (0, 0): Distribution(eye[0])}
    model = ScriptedModel(vocab, table, Distribution(eye[2]))
    assert expected_cost(model, SingleSamplePolicy(PLAIN)) == pytest.approx(4.0, abs=1e-12)
    for n in (2, 3):
        policy = UniformMultisamplePolicy(PLAIN, n)
        assert expected_cost(model, policy) == pytest.approx(4.0 * n, abs=1e-12)


class LengthKeyedModel(ModelSource):
    """Rows keyed by prefix length only; every path sees the same regime
    schedule, which makes the cost bound an exact equality."""

    def __init__(self, vocabulary, rows):
        self.vocabulary = vocabulary
        self._rows = rows

    def next_distribution(self, prefix):
        return self._rows[min(len(prefix), len(self._rows) - 1)]


def test_expected_cost_meets_bound_with_equality():
    """Seven low-entropy steps, two saturated high-entropy steps, one eos
    step: L = 10 decisions with high fraction 0.2, so the bound
    L * (1 + 0.2 * (n_max - 1)) = 28 and the exact cost lands on it."""
    vocab = plan_vocabulary(4, "punct")
    low = Distribution([0.9, 0.1, 0.0, 0.0, 0.0])
    high = Distribution([0.25, 0.25, 0.25, 0.25, 0.0])
    eos_row = Distribution([0.0, 0.0, 0.0, 0.0, 1.0])
    model = LengthKeyedModel(vocab, [low] * 7 + [high] * 2 + [eos_row])
    config = DecodeConfig(h_min=0.7, h_max=1.3, n_max=10, temperature=1.0, top_p=1.0)
    cost = expected_cost(model, CntpPolicy(config))
    assert cost == pytest.approx(28.0, abs=1e-9)
    assert cost == pytest.approx(10 * (1 + 0.2 * (config.n_max - 1)), abs=1e-9)


def test_enumeration_budget_is_enforced():
    model = _one_step_model([0.7, 0.3, 0.0])
    with pytest.raises(EnumerationBudgetError):
        enumerate_outcomes(model, SingleSamplePolicy(PLAIN), node_budget=3)


def test_outcome_mass_sums_to_one_on_bundled_fixtures(bundled):
    for fixture in bundled:
        for policy in (SingleSamplePolicy(fixture.config),
                       CntpPolicy(fixture.config),
                       UniformMultisamplePolicy(fixture.config, 2)):
            total = sum(p for _, p in enumerate_outcomes(fixture.model, policy))
            assert total == pytest.approx(1.0, abs=1e-9), fixture.name


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_outcome_mass_sums_to_one_on_random_models(seed, width):
    rng = np.random.default_rng(seed)
    model = make_random_scripted(rng, width=width, depth=2)
    config = DecodeConfig(h_min=0.3, h_max=1.0, n_max=3, temperature=1.0,
                          top_p=1.0, punctuation=frozenset(), branch_cap=3,
                          global_cap=4)
    for policy in (SingleSamplePolicy(config), CntpPolicy(config),
                   UniformMultisamplePolicy(config, 2)):
        total = sum(p for _, p in enumerate_outcomes(model, policy))
        assert total == pytest.approx(1.0, abs=1e-9)


def _brute_force_winners(branches, n):
    """Direct sum over every joint assignment of n independent draws; ties
    in perplexity go to the earliest trial."""
    wins = [0.0] * len(branches)
    for assign in itertools.product(range(len(branches)), repeat=n):
        prob = 1.0
        for b in assign:
            prob *= branches[b][1]
        best_trial = min(range(n), key=lambda t: (branches[assign[t]][2], t))
        wins[assign[best_trial]] += prob
    return wins


def test_winner_probabilities_match_brute_force():
    two = [((0,), 0.7, 1 / 0.7, 1), ((1,), 0.3, 1 / 0.3, 1)]
    got = _winner_probabilities(two, 2)
    assert got == pytest.approx([0.91, 0.09], abs=1e-12)
    assert got == pytest.approx(_brute_force_winners(two, 2), abs=1e-12)

    tied = [((0,), 0.25, 2.0, 1), ((1,), 0.25, 2.0, 1), ((2,), 0.5, 3.0, 1)]
    for n in (1, 2, 3, 4):
        assert _winner_probabilities(tied, n) == \
            pytest.approx(_brute_force_winners(tied, n), abs=1e-12)

    rng = np.random.default_rng(99)
    qs = rng.dirichlet(np.ones(4))
    messy = [((i,), float(q), ppl, 1)
             for i, (q, ppl) in enumerate(zip(qs, (3.5, 2.0, 5.0, 2.0)))]
    assert _winner_probabilities(messy, 3) == \
        pytest.approx(_brute_force_winners(messy, 3), abs=1e-12)


def test_single_trial_winner_is_the_sampling_distribution():
    branches = [((0,), 0.2, 9.0, 1), ((1,), 0.5, 1.1, 1), ((2,), 0.3, 4.0, 1)]
    assert _winner_probabilities(branches, 1) == pytest.approx([0.2, 0.5, 0.3], abs=1e-15)


def test_case_a_report_is_exact(bundled_reports):
    """Low 0.9, high 0.3 with ten trials, low 0.9: the adaptive engine
    succeeds with 0.9 * (1 - 0.7**10) * 0.9 while one sample gets
    0.9 * 0.3 * 0.9, and the punct cost lands exactly on the bound."""
    report = bundled_reports["case_a"]
    assert report.p_cntp_correct == pytest.approx(0.9 * (1 - 0.7**10) * 0.9, abs=1e-12)
    assert report.p_single_correct == pytest.approx(0.9 * 0.3 * 0.9, abs=1e-12)
    assert report.expected_cost_cntp == pytest.approx(report.cost_bound, abs=1e-9)
    assert report.assumption1_holds
    assert report.strict
    assert report.dominance_holds
    assert report.cost_bound_holds


def test_case_b_single_high_step(bundled_reports):
    report = bundled_reports["case_b"]
    assert report.p_cntp_correct == pytest.approx(1 - 0.7**5, abs=1e-12)
    assert report.p_single_correct == pytest.approx(0.3, abs=1e-12)
    assert report.dominance_holds and report.cost_bound_holds


def test_all_low_plan_gives_equality_not_strictness(bundled_reports):
    report = bundled_reports["case_c"]
    assert not report.strict
    assert report.p_cntp_correct == report.p_single_correct
    assert report.dominance_holds
    assert report.high_entropy_fraction == 0.0


def test_every_bundled_fixture_stays_below_worst_case_cost(bundled, bundled_reports):
    assert len(bundled) == 12
    for fixture in bundled:
        report = bundled_reports[fixture.name]
        assert report.below_max_trial_cost, fixture.name
        assert report.dominance_holds, fixture.name
        if fixture.branch_style == "punct":
            assert report.expected_cost_cntp == \
                pytest.approx(report.cost_bound, abs=1e-9), fixture.name


def test_selection_premise_violation_breaks_dominance():
    """When wrong answers are individually likelier than the right one, the
    lowest-perplexity rule actively filters the right answer out: it wins
    only when all five trials draw it."""
    vocab = plan_vocabulary(3, "punct")
    row = Distribution([0.3, 0.35, 0.35, 0.0])
    eos_row = Distribution([0.0, 0.0, 0.0, 1.0])
    model = ScriptedModel(vocab, {(): row}, eos_row)
    assert entropy(row) > 1.0
    config = DecodeConfig(h_min=0.3, h_max=1.0, n_max=5, temperature=1.0, top_p=1.0)
    fixture = Theorem1Fixture(model, ReferenceSequence((0,), "a."), config, name="hostile")
    report = check_theorem1(fixture)
    assert not report.assumption1_holds
    assert report.p_cntp_correct == pytest.approx(0.3**5, abs=1e-12)
    assert report.p_single_correct == pytest.approx(0.3, abs=1e-12)
    assert not report.dominance_holds


def test_derive_thresholds_margins_and_infeasibility():
    assert derive_thresholds([0.3], [1.2], 10) == pytest.approx((0.35, 1.15))
    with pytest.raises(ConfigError, match="infeasible"):
        derive_thresholds([1.2], [0.8], 5)


def test_validate_regimes_rejects_a_non_binding_plan():
    config = DecodeConfig(h_min=0.01, h_max=1.5, n_max=10)
    with pytest.raises(ConfigError, match="low-regime"):
        validate_regimes([0.5], [], config)
    with pytest.raises(ConfigError, match="high-regime"):
        validate_regimes([], [1.0], config)


def test_plan_infeasibility_is_rejected():
    with pytest.raises(ConfigError, match="does not dominate"):
        build_theorem1_fixture([(0.1, "high")], width=8)
    with pytest.raises(ConfigError, match="outside"):
        build_theorem1_fixture([(1.2, "high")])
    with pytest.raises(ValueError):
        plan_vocabulary(8, "mystery")


def test_enumerate_sequences_accumulates_joint_logprob():
    vocab = Vocabulary(("a", "b", ""), 2)
    table = {
        (): Distribution([0.6, 0.4, 0.0]),
        (0,): Distribution([0.5, 0.5, 0.0]),
        (1,): Distribution([0.9, 0.1, 0.0]),
    }
    model = ScriptedModel(vocab, table, Distribution([0.0, 0.0, 1.0]))
    got = {seq.tokens: lp for seq, lp in enumerate_sequences(model)}
    expect = {
        (0, 0, 2): math.log(0.6) + math.log(0.5),
        (0, 1, 2): math.log(0.6) + math.log(0.5),
        (1, 0, 2): math.log(0.4) + math.log(0.9),
        (1, 1, 2): math.log(0.4) + math.log(0.1),
    }
    assert set(got) == set(expect)
    for toks, lp in expect.items():
        assert got[toks] == pytest.approx(lp, abs=1e-12)


def test_oracle_reads_each_prefix_once(bundled):
    """On a fixture whose branches are single tokens, every node's branch
    set grows from the distribution the node already read."""
    case_a = next(f for f in bundled if f.name == "case_a")
    reads = []

    class Recording(ModelSource):
        vocabulary = case_a.model.vocabulary

        def next_distribution(self, prefix):
            reads.append(tuple(prefix))
            return case_a.model.next_distribution(prefix)

    model = Recording()
    enumerate_outcomes(model, CntpPolicy(case_a.config))
    assert len(reads) == len(set(reads)) == 13
    reads.clear()
    _assumption1_survey(Theorem1Fixture(model, case_a.reference, case_a.config), 10_000)
    assert reads == [(), (0,), (0, 1)]


def test_fixture_files_round_trip(tmp_path, bundled):
    case_b = next(f for f in bundled if f.name == "case_b")
    path = str(tmp_path / "case_b.model")
    write_fixture(case_b, path)
    loaded = load_fixture(path, name="case_b")
    assert loaded.reference.tokens == case_b.reference.tokens
    assert loaded.config == case_b.config
    assert loaded.model.vocabulary.tokens == case_b.model.vocabulary.tokens
    for prefix in ((), case_b.reference.tokens):
        assert np.array_equal(loaded.model.next_distribution(prefix).probs,
                              case_b.model.next_distribution(prefix).probs)
    report = check_theorem1(loaded)
    assert report.p_cntp_correct == pytest.approx(1 - 0.7**5, abs=1e-12)


def test_fixture_loader_rejects_a_broken_reference_file(tmp_path, bundled):
    case_b = next(f for f in bundled if f.name == "case_b")
    path = str(tmp_path / "broken.model")
    write_fixture(case_b, path)
    (tmp_path / "broken.ref").write_text("not json\n", encoding="utf-8")
    with pytest.raises(ModelFileError, match="bad reference file"):
        load_fixture(path)


def test_bundled_family_names_and_shapes(bundled):
    names = [f.name for f in bundled]
    assert names == [f"case_{c}" for c in "abcdefghijkl"]
    styles = {f.name: f.branch_style for f in bundled}
    assert styles["case_k"] == styles["case_l"] == "continuation"
    for fixture in bundled:
        assert fixture.reference.tokens, fixture.name
        assert fixture.config.temperature == 1.0
        assert fixture.config.top_p == 1.0


def _chi_square_p_value(observed: Counter, exact: dict, runs: int) -> float:
    """Pearson chi-square p-value of observed outcome counts against exact
    outcome probabilities; outcomes expected fewer than 5 times share one
    bin."""
    assert set(observed) <= set(exact), "the engine produced an outcome the oracle rules out"
    bins, rest_obs, rest_exp = [], 0, 0.0
    for tokens, p in exact.items():
        if p * runs >= 5:
            bins.append((observed[tokens], p * runs))
        else:
            rest_obs += observed[tokens]
            rest_exp += p * runs
    if rest_exp > 0:
        bins.append((rest_obs, rest_exp))
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return float(scipy.stats.chi2.sf(stat, len(bins) - 1))


# Pinned before the run: with fixed seeds the test is deterministic, and a
# correct engine clears this bound on all nine histograms.
CHI_SQUARE_MIN_P = 1e-4
DIFFERENTIAL_RUNS = 3000


@pytest.mark.parametrize("model_seed", [3, 17, 29])
def test_engine_histograms_match_the_oracle_on_random_models(model_seed):
    """The engine's loop and the oracle run the same policy objects, so
    the engine's outcome frequencies must match the enumerated
    probabilities, and greedy must reproduce the oracle's single outcome."""
    model = make_random_scripted(np.random.default_rng(model_seed), width=3, depth=3)
    config = DecodeConfig(h_min=0.8, h_max=1.2, n_max=3, temperature=0.8, top_p=0.95,
                          punctuation=frozenset("b"), branch_cap=2, global_cap=4)
    prompt = model.vocabulary.sequence(())
    policies = (
        lambda c: SingleSamplePolicy(c),
        lambda c: CntpPolicy(c),
        lambda c: UniformMultisamplePolicy(c, 2),
    )
    for make in policies:
        exact = {seq.tokens: p for seq, p in enumerate_outcomes(model, make(config))}
        observed = Counter(
            policy_decode(model, prompt, make(dataclasses.replace(config, seed=seed)))
            .sequence.tokens
            for seed in range(DIFFERENTIAL_RUNS)
        )
        assert _chi_square_p_value(observed, exact, DIFFERENTIAL_RUNS) >= CHI_SQUARE_MIN_P

    greedy = SingleSamplePolicy(dataclasses.replace(config, temperature=0.0))
    [(only, p)] = enumerate_outcomes(model, greedy)
    assert p == 1.0
    assert policy_decode(model, prompt, greedy).sequence == only
    assert greedy_decode(model, prompt, config).sequence == only
