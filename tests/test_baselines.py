"""Reference strategies: greedy, stochastic, beam search, self-consistency
voting, and whole-answer best-of-N reranking."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from cntp import (
    AnswerExtractor,
    CostLedger,
    DecodeConfig,
    DecodeOutcome,
    Distribution,
    ScriptedModel,
    Sequence,
    StepTrace,
    Vocabulary,
    VoteTally,
    beam_search_decode,
    best_of_n_whole_ppl,
    cntp_decode,
    derive_seed,
    greedy_decode,
    self_consistency,
    stochastic_decode,
)
from cntp.baselines import lowest_whole_ppl

PROMPT = Sequence((), "")


def _forced_eos_model(vocab, first_row):
    eye = np.eye(len(vocab))
    return ScriptedModel(vocab, {(): Distribution(first_row)},
                         Distribution(eye[vocab.eos_id]))


def test_greedy_follows_argmax_then_eos(two_token_vocab):
    model = _forced_eos_model(two_token_vocab, [0.6, 0.4, 0.0])
    out = greedy_decode(model, PROMPT, DecodeConfig())
    assert out.sequence.tokens == (0, 2)
    assert out.sequence.text == "a."
    assert out.cost == CostLedger(forward_passes=2, generated_tokens=2, total_steps=2)


def test_greedy_equals_cntp_on_zero_entropy_model():
    vocab = Vocabulary(("a", "b", ""), 2)
    eye = np.eye(3)
    table = {(): Distribution(eye[0]), (0,): Distribution(eye[1]), (0, 1): Distribution(eye[2])}
    model = ScriptedModel(vocab, table, Distribution(eye[2]))
    config = DecodeConfig(top_p=1.0, seed=5)
    assert greedy_decode(model, PROMPT, config).sequence == \
        cntp_decode(model, PROMPT, config).sequence


def test_stochastic_zero_temperature_equals_greedy(random_model_factory):
    rng = np.random.default_rng(808)
    for _ in range(5):
        model = random_model_factory(rng, width=4, depth=2)
        config = DecodeConfig(temperature=0.0, global_cap=5, seed=int(rng.integers(2**62)))
        assert stochastic_decode(model, PROMPT, config).sequence == \
            greedy_decode(model, PROMPT, config).sequence


def test_stochastic_is_reproducible(two_token_vocab):
    model = _forced_eos_model(two_token_vocab, [0.5, 0.5, 0.0])
    config = DecodeConfig(temperature=1.0, top_p=1.0, seed=17)
    runs = {stochastic_decode(model, PROMPT, config).sequence.text for _ in range(5)}
    assert len(runs) == 1


def test_stochastic_one_step_frequency(two_token_vocab):
    model = _forced_eos_model(two_token_vocab, [0.7, 0.3, 0.0])
    config = DecodeConfig(temperature=1.0, top_p=1.0)
    n = 10_000
    hits = 0
    for seed in range(n):
        out = stochastic_decode(model, PROMPT, dataclasses.replace(config, seed=seed))
        hits += out.sequence.tokens[0] == 0
    sigma = math.sqrt(0.7 * 0.3 / n)
    assert abs(hits / n - 0.7) <= 3 * sigma


def test_beam_width_one_equals_greedy(random_model_factory):
    rng = np.random.default_rng(911)
    for _ in range(5):
        model = random_model_factory(rng, width=3, depth=2)
        config = DecodeConfig(global_cap=4)
        assert beam_search_decode(model, PROMPT, config, 1).sequence == \
            greedy_decode(model, PROMPT, config).sequence


def test_beam_depth_one_picks_argmax():
    vocab = Vocabulary(("a", "b", "c", ""), 3)
    model = _forced_eos_model(vocab, [0.4, 0.35, 0.25, 0.0])
    out = beam_search_decode(model, PROMPT, DecodeConfig(), 2)
    assert out.sequence.tokens == (0, 3)


def test_beam_outruns_greedy_on_garden_path():
    """Joint probability beats step-wise argmax: the 0.4 opening leads to a
    0.9 continuation (joint 0.36) while the 0.6 opening splits 0.5/0.5."""
    vocab = Vocabulary(("a", "b", ""), 2)
    table = {
        (): Distribution([0.6, 0.4, 0.0]),
        (0,): Distribution([0.5, 0.5, 0.0]),
        (1,): Distribution([0.9, 0.1, 0.0]),
    }
    model = ScriptedModel(vocab, table, Distribution([0.0, 0.0, 1.0]))
    config = DecodeConfig(global_cap=2)
    greedy = greedy_decode(model, PROMPT, config)
    beam = beam_search_decode(model, PROMPT, config, 2)
    assert greedy.sequence.tokens == (0, 0)
    assert beam.sequence.tokens == (1, 0)


def _joint_logprob(model, tokens):
    lp = 0.0
    for i, tok in enumerate(tokens):
        lp += math.log(float(model.next_distribution(tokens[:i]).probs[tok]))
    return lp


def test_beam_score_non_decreasing_in_width(random_model_factory):
    rng = np.random.default_rng(2718)
    model = random_model_factory(rng, width=4, depth=3)
    config = DecodeConfig(global_cap=3)
    scores = [
        _joint_logprob(model, beam_search_decode(model, PROMPT, config, b).sequence.tokens)
        for b in (1, 2, 4, 8)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def _reference_beam(model, prompt, config, beam_width):
    """Beam search as first written: every candidate builds its token tuple
    and all of them sort on (-logprob, tokens)."""
    eos = model.vocabulary.eos_id
    beams = [(0.0, (), False)]
    passes = rounds = 0
    while any(not fin for _, _, fin in beams):
        rounds += 1
        candidates = [b for b in beams if b[2]]
        for lp, toks, fin in beams:
            if fin:
                continue
            passes += 1
            probs = model.next_distribution(prompt.tokens + toks).probs
            for tok in range(probs.size):
                if probs[tok] > 0.0:
                    new = toks + (tok,)
                    done = tok == eos or len(new) >= config.global_cap
                    candidates.append((lp + math.log(probs[tok]), new, done))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:beam_width]
    return prompt.tokens + beams[0][1], passes, rounds


def test_beam_matches_the_full_sort_on_tied_models():
    """Rows drawn from a few powers of two tie log probabilities everywhere,
    also between children of beams with different scores, so the order among
    equal scores decides the beams; eos in most rows leaves finished beams
    competing with live ones."""
    rows = ([0.25, 0.25, 0.25, 0.25], [0.5, 0.25, 0.0, 0.25], [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.25, 0.25], [0.25, 0.0, 0.25, 0.5], [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0])
    vocab = Vocabulary(("a", "b", "c", ""), 3)
    rng = np.random.default_rng(314)
    for _ in range(60):
        table, prefixes = {}, [()]
        for _ in range(3):
            table.update((p, Distribution(rows[rng.integers(len(rows))])) for p in prefixes)
            prefixes = [p + (t,) for p in prefixes for t in range(3)]
        model = ScriptedModel(vocab, table, Distribution(rows[rng.integers(len(rows))]))
        config = DecodeConfig(global_cap=int(rng.integers(1, 6)))
        for width in (1, 2, 3, 5, 8):
            out = beam_search_decode(model, PROMPT, config, width)
            tokens, passes, rounds = _reference_beam(model, PROMPT, config, width)
            assert out.sequence.tokens == tokens
            assert (out.cost.forward_passes, out.cost.total_steps) == (passes, rounds)


def test_beam_rejects_zero_width(two_token_vocab):
    model = _forced_eos_model(two_token_vocab, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        beam_search_decode(model, PROMPT, DecodeConfig(), 0)


def test_vote_tally_majority_and_ties():
    tally = VoteTally()
    for answer in ("A", "A", "B"):
        tally.add(answer)
    assert tally.winner() == "A"
    tied = VoteTally()
    tied.add("b")
    tied.add("a")
    assert tied.winner() == "a"
    with pytest.raises(ValueError):
        VoteTally().winner()


def test_self_consistency_votes_over_paths(two_token_vocab):
    """A scripted decode function returning answers in path order shows the
    vote and the exact ledger sum."""
    vocab = two_token_vocab
    answers = iter(((0, 2), (0, 2), (1, 2)))
    ledgers = iter((CostLedger(2, 2, 0, 2), CostLedger(3, 3, 1, 2), CostLedger(2, 2, 0, 2)))

    def scripted_decode(model, prompt, config):
        return DecodeOutcome(vocab.sequence(next(answers)), next(ledgers), ())

    model = _forced_eos_model(vocab, [0.5, 0.5, 0.0])
    answer, cost = self_consistency(scripted_decode, model, PROMPT, DecodeConfig(),
                                    3, AnswerExtractor("full_text"))
    assert answer == "a."
    assert cost == CostLedger(7, 7, 1, 6)


def test_self_consistency_single_path(two_token_vocab):
    model = _forced_eos_model(two_token_vocab, [1.0, 0.0, 0.0])
    answer, cost = self_consistency(stochastic_decode, model, PROMPT,
                                    DecodeConfig(top_p=1.0), 1, AnswerExtractor("full_text"))
    assert answer == "a."
    assert cost.forward_passes == 2
    with pytest.raises(ValueError):
        self_consistency(stochastic_decode, model, PROMPT, DecodeConfig(), 0,
                         AnswerExtractor("full_text"))


def test_self_consistency_majority_matches_binomial_tail():
    """41 paths vote over answers drawn with probability 0.6/0.4; the exact
    oracle for a majority of the 0.6 answer is the binomial tail."""
    vocab = Vocabulary(("x.", "y.", ""), 2)
    model = _forced_eos_model(vocab, [0.6, 0.4, 0.0])
    config = DecodeConfig(temperature=1.0, top_p=1.0)
    extractor = AnswerExtractor("full_text")
    runs = 5000
    wins = 0
    for meta in range(runs):
        answer, _ = self_consistency(stochastic_decode, model, PROMPT,
                                     dataclasses.replace(config, seed=meta),
                                     41, extractor)
        wins += answer == "x."
    oracle = float(scipy.stats.binom.sf(20, 41, 0.6))
    sigma = math.sqrt(oracle * (1 - oracle) / runs)
    assert abs(wins / runs - oracle) <= 3 * sigma


def test_best_of_n_single_run_matches_stochastic(two_token_vocab):
    model = _forced_eos_model(two_token_vocab, [0.5, 0.5, 0.0])
    config = DecodeConfig(temperature=1.0, top_p=1.0, seed=21)
    best = best_of_n_whole_ppl(model, PROMPT, config, 1)
    # run 0 uses the derived per-run seed
    lone = stochastic_decode(model, PROMPT,
                             dataclasses.replace(config, seed=derive_seed(21, 0)))
    assert best.sequence == lone.sequence
    assert best.cost == lone.cost


def test_best_of_n_keeps_lowest_perplexity_answer(two_token_vocab):
    """Seed 5 mixes both answers across six runs; the 0.9-probability answer
    has the lower whole-sequence perplexity and must win. The ledger sums
    every run."""
    model = _forced_eos_model(two_token_vocab, [0.9, 0.1, 0.0])
    config = DecodeConfig(temperature=1.0, top_p=1.0, global_cap=4, seed=5)
    texts = {
        stochastic_decode(model, PROMPT,
                          dataclasses.replace(config, seed=derive_seed(5, i))).sequence.text
        for i in range(6)
    }
    assert texts == {"a.", "b."}  # both candidates genuinely appear
    best = best_of_n_whole_ppl(model, PROMPT, config, 6)
    assert best.sequence.text == "a."
    assert best.cost.forward_passes == 12
    with pytest.raises(ValueError):
        best_of_n_whole_ppl(model, PROMPT, config, 0)


def test_best_of_n_ties_keep_first_run(two_token_vocab):
    model = _forced_eos_model(two_token_vocab, [0.5, 0.5, 0.0])
    config = DecodeConfig(temperature=1.0, top_p=1.0, seed=2)
    first = stochastic_decode(model, PROMPT,
                              dataclasses.replace(config, seed=derive_seed(2, 0)))
    best = best_of_n_whole_ppl(model, PROMPT, config, 4)
    assert best.sequence == first.sequence


def test_best_of_n_ties_at_an_infinite_perplexity_keep_first_run(two_token_vocab):
    """Runs whose one token has probability 1e-310 score a whole-sequence
    perplexity past the float range, inf: the first of them wins, with the
    summed ledger."""
    runs = [DecodeOutcome(two_token_vocab.sequence((tok,)), CostLedger(1, 1, 0, 1),
                          (StepTrace(0.5, 1, None, 1e-310),)) for tok in (1, 0)]
    best = lowest_whole_ppl(runs)
    assert best.sequence == runs[0].sequence
    assert best.cost == CostLedger(2, 2, 0, 2)


def test_all_decoders_respect_global_cap():
    vocab = Vocabulary(("x", "y", ""), 2)
    loop = ScriptedModel(vocab, {}, Distribution([0.6, 0.4, 0.0]))
    config = DecodeConfig(top_p=1.0, global_cap=5, punctuation=frozenset(),
                          branch_cap=2, seed=3)
    outcomes = [
        greedy_decode(loop, PROMPT, config),
        stochastic_decode(loop, PROMPT, config),
        cntp_decode(loop, PROMPT, config),
        beam_search_decode(loop, PROMPT, config, 3),
        best_of_n_whole_ppl(loop, PROMPT, config, 2),
    ]
    assert all(len(out.sequence.tokens) <= 5 for out in outcomes)


def test_zero_entropy_model_makes_all_decoders_agree():
    vocab = Vocabulary(("a", "b", ""), 2)
    eye = np.eye(3)
    table = {(): Distribution(eye[0]), (0,): Distribution(eye[1])}
    model = ScriptedModel(vocab, table, Distribution(eye[2]))
    reference = None
    for seed in (0, 1, 99):
        config = DecodeConfig(top_p=1.0, seed=seed)
        texts = {
            greedy_decode(model, PROMPT, config).sequence.text,
            stochastic_decode(model, PROMPT, config).sequence.text,
            cntp_decode(model, PROMPT, config).sequence.text,
            beam_search_decode(model, PROMPT, config, 3).sequence.text,
            best_of_n_whole_ppl(model, PROMPT, config, 2).sequence.text,
        }
        assert len(texts) == 1
        reference = reference or texts.pop()
    assert reference == "ab"
