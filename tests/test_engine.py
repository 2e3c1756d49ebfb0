"""Adaptive decoding engine: entropy and confidence readings, the trial
budget mapping, branch sampling, selection, and the full decode loop."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from cntp import (
    AnswerExtractor,
    CostLedger,
    DecodeConfig,
    Distribution,
    Rng,
    ScriptedModel,
    Sequence,
    Trial,
    Vocabulary,
    cntp_decode,
    confidence,
    entropy,
    greedy_decode,
    select_best,
    stochastic_decode,
    stop_mask,
    train_kgram,
    trial_count,
)
from cntp import engine
from cntp.engine import _grow_branch, branch_score
from cntp.harness import Task, run_one

DEFAULTS = DecodeConfig(h_min=0.01, h_max=1.5, n_max=10)


def test_entropy_reference_points():
    assert entropy(Distribution([0.0, 1.0, 0.0])) == 0.0
    assert entropy(Distribution([0.25] * 4)) == pytest.approx(math.log(4), abs=1e-12)
    assert entropy(Distribution([0.5, 0.5, 0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy(Distribution([0.9, 0.1])) == pytest.approx(0.3250829733914482, abs=1e-12)


def test_entropy_stays_in_range_on_random_distributions():
    rng = np.random.default_rng(404)
    for _ in range(200):
        size = int(rng.integers(2, 12))
        dist = Distribution(rng.dirichlet(np.ones(size)))
        h = entropy(dist)
        assert 0.0 <= h <= math.log(size) + 1e-12


def test_trial_count_worked_values():
    assert trial_count(0.0, DEFAULTS) == 1
    assert trial_count(2.0, DEFAULTS) == 10
    # floor((0.755 - 0.01) * 10 / 1.49) = floor(5.0) = 5
    assert trial_count(0.755, DEFAULTS) == 5
    negative = dataclasses.replace(DEFAULTS, trial_scaling="negative")
    assert trial_count(0.2, negative) == 9


def test_trial_count_fixed_scaling_midpoint():
    fixed = dataclasses.replace(DEFAULTS, trial_scaling="fixed")
    assert trial_count(0.0, fixed) == 6
    assert trial_count(5.0, fixed) == 6
    assert trial_count(1.0, dataclasses.replace(fixed, n_max=1)) == 1
    assert trial_count(1.0, dataclasses.replace(fixed, n_max=3)) == 2


def test_trial_count_monotone_over_dense_grid():
    grid = [i * 2.0 / 999 for i in range(1000)]
    positive = [trial_count(h, DEFAULTS) for h in grid]
    assert positive == sorted(positive)
    negative_cfg = dataclasses.replace(DEFAULTS, trial_scaling="negative")
    negative = [trial_count(h, negative_cfg) for h in grid]
    assert negative == sorted(negative, reverse=True)
    assert all(1 <= n <= 10 for n in positive + negative)
    assert positive[0] == 1 and positive[-1] == 10


def test_confidence_measures():
    dist = Distribution([0.5, 0.3, 0.2])
    assert confidence(dist, "entropy") == entropy(dist)
    assert confidence(dist, "max_prob") == pytest.approx(0.5, abs=1e-12)
    assert confidence(dist, "top1_minus_top2") == pytest.approx(0.8, abs=1e-12)
    one_hot = Distribution([0.0, 1.0])
    for measure in ("entropy", "max_prob", "top1_minus_top2"):
        assert confidence(one_hot, measure) == pytest.approx(0.0, abs=1e-12)


def test_read_confidence_fields():
    dist = Distribution([0.7, 0.3])
    assert confidence(dist, "max_prob") == pytest.approx(1 - 0.7)
    assert confidence(dist, "top1_minus_top2") == pytest.approx(1 - 0.4)
    # one token: the top probability and the margin are both 1
    single = Distribution([1.0])
    assert confidence(single, "max_prob") == 0.0
    assert confidence(single, "top1_minus_top2") == 0.0


def test_perplexity_worked_values():
    nll, ppl = branch_score((0.25, 0.25, 0.25))
    assert ppl == pytest.approx(4.0, abs=1e-12)
    assert branch_score((1.0,))[1] == pytest.approx(1.0, abs=1e-12)
    assert branch_score((0.5, 0.125))[1] == pytest.approx(4.0, abs=1e-12)


def test_stored_ppl_matches_recomputation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        probs = tuple(rng.uniform(0.05, 1.0, size=int(rng.integers(1, 6))))
        nll, ppl = branch_score(probs)
        assert abs(ppl - math.exp(nll / len(probs))) <= 1e-9


def test_select_best_argmin_with_low_index_ties():
    def trial(ppl):
        return Trial((0,), (1.0,), 0.0, ppl, "eos")

    assert select_best([trial(4.0), trial(2.0), trial(3.0)]) == 1
    assert select_best([trial(2.0), trial(2.0)]) == 0
    assert select_best([trial(9.0)]) == 0
    with pytest.raises(ValueError):
        select_best([])


def test_stop_mask_flags_punctuation_and_eos():
    vocab = Vocabulary(("ab", "c.", "d", "\n", ""), 4)
    mask = stop_mask(vocab, frozenset({".", "\n"}))
    assert mask == (False, True, False, True, True)


class _CountingDict(dict):
    builds = 0

    def __setitem__(self, key, value):
        self.builds += 1
        super().__setitem__(key, value)


def test_stop_mask_is_built_once_per_vocabulary_and_punctuation(monkeypatch):
    vocab = Vocabulary(("ab", "c.", ""), 2)
    assert stop_mask(vocab, frozenset({"."})) is stop_mask(vocab, {"."})

    model = train_kgram("the cat sat. the dog ran.", 2, 0.1)
    model.vocabulary._stop_masks = cache = _CountingDict()
    calls = []

    def counted(*args):
        calls.append(args)
        return stop_mask(*args)

    monkeypatch.setattr(engine, "stop_mask", counted)
    task = Task("t", "the", "", AnswerExtractor("full_text"))
    run_one(model, task, "cntp_sc:5", DecodeConfig(global_cap=12))
    assert len(calls) == 5  # one per self-consistency path
    assert cache.builds == 1


def _branch_model():
    """Emits "4" then "." deterministically, then eos."""
    vocab = Vocabulary(("4", ".", "x", ""), 3)
    eye = np.eye(4)
    table = {
        (): Distribution(eye[0]),
        (0,): Distribution(eye[1]),
    }
    return ScriptedModel(vocab, table, Distribution(eye[3]))


def _sample_branch(model, prefix, config):
    """One branch after prefix, grown the way cntp_decode grows its trials."""
    vocab = model.vocabulary
    trial, _ = _grow_branch(model, list(prefix), config, Rng(0), 0, vocab.eos_id,
                            stop_mask(vocab, config.punctuation),
                            model.next_distribution(tuple(prefix)))
    return trial


def test_sample_branch_stops_on_punctuation():
    model = _branch_model()
    trial = _sample_branch(model, (), DecodeConfig(top_p=1.0))
    assert trial.tokens == (0, 1)
    assert trial.stop_reason == "punctuation"
    assert trial.probs == (1.0, 1.0)
    assert trial.ppl == pytest.approx(1.0)


def test_sample_branch_stops_on_eos():
    model = _branch_model()
    trial = _sample_branch(model, (0, 1), DecodeConfig(top_p=1.0))
    assert trial.tokens == (3,)
    assert trial.stop_reason == "eos"


def test_sample_branch_honors_caps():
    vocab = Vocabulary(("x", ""), 1)
    loop = ScriptedModel(vocab, {}, Distribution([1.0, 0.0]))
    config = DecodeConfig(top_p=1.0, branch_cap=3, punctuation=frozenset())
    trial = _sample_branch(loop, (), config)
    assert trial.tokens == (0, 0, 0) and trial.stop_reason == "branch_cap"

    config = DecodeConfig(top_p=1.0, branch_cap=64, global_cap=2, punctuation=frozenset())
    trial = _sample_branch(loop, (), config)
    assert len(trial.tokens) == 2 and trial.stop_reason == "global_cap"


def test_cntp_on_deterministic_model_equals_greedy():
    vocab = Vocabulary(("a", "b", ""), 2)
    eye = np.eye(3)
    table = {(): Distribution(eye[1]), (1,): Distribution(eye[0])}
    model = ScriptedModel(vocab, table, Distribution(eye[2]))
    config = DecodeConfig(top_p=1.0, seed=31)
    out = cntp_decode(model, Sequence((), ""), config)
    ref = greedy_decode(model, Sequence((), ""), config)
    assert out.sequence == ref.sequence
    assert all(step.n_trials == 1 for step in out.per_step_trace)
    assert out.cost.forward_passes == len(out.sequence.tokens)
    assert out.cost.high_entropy_steps == 0


def test_cntp_identical_seeds_reproduce_outcome(bundled):
    fixture = next(f for f in bundled if f.name == "case_a")
    config = dataclasses.replace(fixture.config, seed=1234)
    first = cntp_decode(fixture.model, Sequence((), ""), config)
    second = cntp_decode(fixture.model, Sequence((), ""), config)
    assert first.sequence == second.sequence
    assert first.cost == second.cost
    assert first.per_step_trace == second.per_step_trace


def test_cntp_trace_on_designed_fixture(bundled):
    """Seed 7 walks the designed path: the middle step runs n_max trials and
    the selected branch is the designed continuation, so the full ledger is
    1 + 10 + 1 + 1 passes over 4 steps."""
    fixture = next(f for f in bundled if f.name == "case_a")
    out = cntp_decode(fixture.model, Sequence((), ""),
                      dataclasses.replace(fixture.config, seed=7))
    eos = fixture.model.vocabulary.eos_id
    assert out.sequence.tokens == fixture.reference.tokens + (eos,)
    assert [step.n_trials for step in out.per_step_trace] == [1, 10, 1, 1]
    assert out.per_step_trace[1].chosen_ppl is not None
    assert out.per_step_trace[0].chosen_prob == pytest.approx(0.9, abs=1e-12)
    assert out.cost == CostLedger(forward_passes=13, generated_tokens=13,
                                  high_entropy_steps=1, total_steps=4)


def test_cntp_n_max_one_equals_stochastic(bundled, kgram_bundle):
    fixture = next(f for f in bundled if f.name == "case_a")
    kmodel, ktasks, kconfig = kgram_bundle
    cases = [
        (fixture.model, Sequence((), ""), dataclasses.replace(fixture.config, n_max=1)),
        (kmodel,
         kmodel.vocabulary.sequence(kmodel.vocabulary.encode(ktasks[0].prompt)),
         dataclasses.replace(kconfig, n_max=1, seed=77)),
    ]
    for model, prompt, config in cases:
        adaptive = cntp_decode(model, prompt, config)
        plain = stochastic_decode(model, prompt, config)
        assert adaptive.sequence == plain.sequence
        assert adaptive.cost == plain.cost
        assert adaptive.cost.high_entropy_steps == 0


def test_cntp_respects_global_cap():
    vocab = Vocabulary(("x", "y", ""), 2)
    loop = ScriptedModel(vocab, {}, Distribution([0.5, 0.5, 0.0]))
    config = DecodeConfig(top_p=1.0, global_cap=7, punctuation=frozenset(),
                          branch_cap=2, h_min=0.1, h_max=0.5, n_max=3)
    out = cntp_decode(loop, Sequence((), ""), config)
    assert len(out.sequence.tokens) <= 7


def test_cntp_prompt_is_preserved(bundled):
    fixture = next(f for f in bundled if f.name == "case_c")
    vocab = fixture.model.vocabulary
    prompt = vocab.sequence(fixture.reference.tokens[:1])
    out = cntp_decode(fixture.model, prompt, fixture.config)
    assert out.sequence.tokens[:1] == prompt.tokens
