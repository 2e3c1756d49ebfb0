"""Adaptive decoding engine: entropy and confidence readings, the trial
budget mapping, branch sampling, selection, and the full decode loop."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from cntp import (
    AnswerExtractor,
    CostLedger,
    DecodeConfig,
    Distribution,
    KGramModel,
    ModelSource,
    Rng,
    ScriptedModel,
    Sequence,
    Vocabulary,
    beam_search_decode,
    cntp_decode,
    confidence,
    entropy,
    greedy_decode,
    sample_token,
    stochastic_decode,
    stop_mask,
    train_kgram,
    trial_count,
)
from cntp import engine
from cntp.core import load_config
from cntp.engine import _grow_trials, branch_score
from cntp.harness import Task, bundled_path, load_tasks, run_one
from cntp.models import load_kgram_model

from conftest import make_random_scripted

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


def test_trial_count_saturates_when_the_ramp_overflows():
    """A span of one subnormal sends the ramp to ±inf; the budget saturates
    instead of math.floor raising OverflowError."""
    tiny = DecodeConfig(h_min=0.0, h_max=5e-324, n_max=7)
    assert trial_count(1.0, tiny) == 7
    assert trial_count(0.0, tiny) == 1
    negative = dataclasses.replace(tiny, trial_scaling="negative")
    assert trial_count(1.0, negative) == 1
    assert trial_count(0.0, negative) == 7
    below = DecodeConfig(h_min=1.0, h_max=1.0 + 5e-16, n_max=7)
    assert trial_count(0.0, below) == 1
    assert trial_count(0.0, dataclasses.replace(below, trial_scaling="negative")) == 7
    huge = DecodeConfig(n_max=10**308)  # (h - h_min) * n_max overflows to inf
    assert trial_count(2.0, huge) == 10**308


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


def _one_step_model(row):
    """Every token but eos ends a branch, so each trial is one token; after
    the first step the default row forces eos."""
    vocab = Vocabulary(("a.", "b.", "c.", ""), 3)
    return ScriptedModel(vocab, {(): Distribution(row)}, Distribution([0.0, 0.0, 0.0, 1.0]))


def test_policy_decode_keeps_the_lowest_ppl_trial_and_the_lowest_index_on_ties():
    # a. and b. tie on perplexity 2.5 and both beat c. (5.0): the step keeps
    # the first trial that drew a. or b., and c. only when all three drew it.
    model = _one_step_model([0.4, 0.4, 0.2, 0.0])
    root = model.next_distribution(())
    ties = 0
    for seed in range(200):
        config = DecodeConfig(h_min=0.01, h_max=0.05, n_max=3, temperature=1.0, top_p=1.0,
                              seed=seed)
        drawn = [sample_token(root, Rng(seed).derive(0, i)) for i in range(3)]
        ppl = [branch_score((root.probs[tok],))[1] for tok in drawn]
        winner = min(range(3), key=lambda i: (ppl[i], i))
        outcome = cntp_decode(model, Sequence((), ""), config)
        assert outcome.sequence.tokens == (drawn[winner], 3), seed
        assert outcome.per_step_trace[0].chosen_ppl == ppl[winner]
        ties += {drawn[winner], 2} != set(drawn)  # a. and b. both drawn
    assert ties > 20


def test_policy_decode_memory_is_flat_in_the_trial_count():
    model = _one_step_model([0.5, 0.5, 0.0, 0.0])

    def peak(n_max):
        config = DecodeConfig(h_min=0.01, h_max=0.05, n_max=n_max, temperature=1.0, top_p=1.0)
        tracemalloc.start()
        try:
            outcome = cntp_decode(model, Sequence((), ""), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.per_step_trace[0].n_trials == n_max
        return peak

    small, large = peak(2_000), peak(20_000)
    assert large <= 2 * small, (small, large)


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
    cursor = model.start(prefix)
    trial, _, _ = _grow_trials(model, cursor, cursor.dist(), config, [Rng(0)], 0,
                               vocab.eos_id, stop_mask(vocab, config.punctuation))
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


class _CountingModel(ModelSource):
    def __init__(self, inner):
        self.inner = inner
        self.vocabulary = inner.vocabulary
        self.calls = 0

    def next_distribution(self, prefix):
        self.calls += 1
        return self.inner.next_distribution(prefix)


def test_cntp_trials_share_the_confidence_read(bundled):
    """The ten trials of case_a's middle step all start from the prefix the
    confidence read fetched, and each ends after one token, so the decode
    reads the model once per step while the ledger still counts 13 passes."""
    fixture = next(f for f in bundled if f.name == "case_a")
    model = _CountingModel(fixture.model)
    out = cntp_decode(model, Sequence((), ""), dataclasses.replace(fixture.config, seed=7))
    assert out.cost.forward_passes == 13
    assert model.calls == 4


def _exact(outcome):
    """An outcome with every float spelled exactly."""
    hexed = lambda x: None if x is None else float.hex(x)  # noqa: E731
    trace = [(hexed(t.confidence), t.n_trials, hexed(t.chosen_ppl), hexed(t.chosen_prob))
             for t in outcome.per_step_trace]
    return outcome.sequence.tokens, outcome.cost, trace


def _kgram_cntp_lines(model):
    """One JSON line per cntp decode of the bundled k-gram tasks at seeds
    0-2 and global_cap 128: tokens, ledger, and the trace spelled exactly."""
    tasks = load_tasks(bundled_path("kgram.tasks"))
    config = dataclasses.replace(load_config(bundled_path("kgram.config.json")),
                                 global_cap=128)
    vocab = model.vocabulary
    lines = []
    for seed in (0, 1, 2):
        seeded = config.with_seed(seed)
        for task in tasks:
            tokens, cost, trace = _exact(
                cntp_decode(model, vocab.sequence(vocab.encode(task.prompt)), seeded))
            lines.append(json.dumps([task.id, seed, tokens, dataclasses.astuple(cost), trace]))
    return lines


# sha256 of _kgram_cntp_lines on the local k-gram model, computed before
# the trials of a step ran in lockstep; see test_kgram_cntp_outcomes_are_pinned.
KGRAM_CNTP_SHA256 = "cc72c1686376a0763cb216d46700a29e8402d0a6c4bc0391ff602007cf51979e"


def test_kgram_cntp_outcomes_are_pinned():
    """cntp outcomes on the bundled k-gram tasks are bit-identical to those
    of the serial trial loop the lockstep loop replaced."""
    lines = _kgram_cntp_lines(load_kgram_model(bundled_path("kgram.kgram")))
    assert len(lines) == 60
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == KGRAM_CNTP_SHA256


_CURSOR_DECODERS = {
    "greedy": greedy_decode,
    "stochastic": stochastic_decode,
    "cntp": cntp_decode,
    "beam:2": lambda model, prompt, config: beam_search_decode(model, prompt, config, 2),
}


@pytest.mark.parametrize("strategy", _CURSOR_DECODERS)
def test_native_cursors_decode_as_the_generic_one(strategy):
    """Each backend's own cursor and the generic cursor over a model that
    exposes only next_distribution give the same tokens, ledgers and traces:
    on random scripted models and on the bundled k-gram model at cap 4096."""
    decode = _CURSOR_DECODERS[strategy]
    rng = np.random.default_rng(61)
    cases = []
    for i in range(8):
        model = make_random_scripted(rng, width=3, depth=4, eos_floor=0.02)
        config = DecodeConfig(h_min=0.3, h_max=1.0, n_max=4, branch_cap=3, global_cap=9,
                              top_p=0.95, punctuation=frozenset(), seed=i)
        cases.append((model, Sequence((), ""), config))
    kgram = load_kgram_model(bundled_path("kgram.kgram"))
    prompt = kgram.vocabulary.sequence(kgram.vocabulary.encode("the ca"))
    cases.append((kgram, prompt, DecodeConfig(h_min=0.5, h_max=2.5, n_max=4, global_cap=4096,
                                              seed=3)))
    for model, prompt, config in cases:
        generic = _CountingModel(model)
        native = decode(model, prompt, config)
        assert _exact(native) == _exact(decode(generic, prompt, config))
        assert generic.calls > 0


def test_kgram_cursor_never_reads_a_full_prefix(monkeypatch):
    """A long k-gram cntp decode keeps only the last k tokens: it never hands
    KGramModel.next_distribution a prefix longer than k."""
    model = load_kgram_model(bundled_path("kgram.kgram"))
    seen = []
    original = KGramModel.next_distribution

    def spy(self, prefix):
        seen.append(len(prefix))
        return original(self, prefix)

    monkeypatch.setattr(KGramModel, "next_distribution", spy)
    prompt = model.vocabulary.sequence(model.vocabulary.encode("the ca"))
    config = DecodeConfig(h_min=0.5, h_max=2.5, n_max=4, global_cap=4096, seed=5)
    out = cntp_decode(model, prompt, config)
    assert len(out.sequence.tokens) - len(prompt.tokens) == 4096
    assert out.cost.high_entropy_steps > 0
    assert all(n <= model.k for n in seen)


@pytest.mark.parametrize("policy", (engine.CntpPolicy,
                                    lambda c: engine.UniformMultisamplePolicy(c, 3)))
def test_multi_trial_steps_decode_at_zero_temperature(suite_bundle, policy):
    """At T=0 a multi-trial step still runs its trials, which draw from
    one-hot rows: every trial takes the argmax, so the tokens are greedy's."""
    model, tasks, config = suite_bundle
    config = dataclasses.replace(config, temperature=0.0)
    vocab = model.vocabulary
    high_steps = 0
    for task in tasks:
        prompt = vocab.sequence(vocab.encode(task.prompt))
        out = engine.policy_decode(model, prompt, policy(config))
        assert out.sequence == greedy_decode(model, prompt, config).sequence
        high_steps += out.cost.high_entropy_steps
    assert high_steps > 0
    first = vocab.sequence(vocab.encode(tasks[0].prompt))
    assert cntp_decode(model, first, config).cost == CostLedger(
        forward_passes=13, generated_tokens=13, high_entropy_steps=1, total_steps=4)


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
