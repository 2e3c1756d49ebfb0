"""Reference decoding strategies: greedy, stochastic, length-synchronous
beam search, majority-vote self-consistency, and whole-answer best-of-N.

All strategies share the DecodeConfig and the cost-ledger conventions of
the adaptive engine, so their ledgers compare like for like; greedy and
stochastic run the engine's own decode loop.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Literal

from .core import (
    CostLedger,
    DecodeConfig,
    DecodeOutcome,
    Sequence,
    Vocabulary,
    validate_config,  # noqa: F401  bench/tracing.py patches it here by name
)
from .engine import SingleSamplePolicy, branch_score, policy_decode
from .models import ModelSource
from .sampling import derive_seed
from .engine import confidence  # noqa: F401  bench/tracing.py patches it here by name
from .sampling import prepare_sampling_dist, sample_token  # noqa: F401  (as confidence)


def greedy_decode(model: ModelSource, prompt: Sequence, config: DecodeConfig) -> DecodeOutcome:
    """Argmax decoding, ties to the lowest token id: the single-sample policy
    at temperature 0, so the config's temperature, top_p and seed do nothing."""
    return policy_decode(model, prompt,
                         SingleSamplePolicy(dataclasses.replace(config, temperature=0.0)))


def stochastic_decode(model: ModelSource, prompt: Sequence, config: DecodeConfig) -> DecodeOutcome:
    """One sampled token per step from the tempered, nucleus-truncated
    distribution, drawn from streams keyed (seed, step, 0): the engine's
    loop under the single-sample policy, equal to cntp_decode at n_max=1."""
    return policy_decode(model, prompt, SingleSamplePolicy(config))


def beam_search_decode(model: ModelSource, prompt: Sequence, config: DecodeConfig,
                       beam_width: int) -> DecodeOutcome:
    """Length-synchronous beam search over joint log probability.

    Uses the untempered model distribution, no length normalization.
    Finished beams are frozen and keep competing on their final score.
    All ties break toward the lexicographically smallest token sequence.
    Beams report no per-step trace; the ledger counts one pass and one
    generated token per expanded beam per round.
    """
    if beam_width < 1:
        raise ValueError("beam width must be ≥ 1")
    vocab = model.vocabulary
    eos = vocab.eos_id
    prompt_tokens = prompt.tokens
    # (logprob, tokens, finished)
    beams: list[tuple[float, tuple[int, ...], bool]] = [(0.0, (), False)]
    passes = generated = rounds = 0
    while any(not fin for _, _, fin in beams):
        rounds += 1
        candidates: list[tuple[float, tuple[int, ...], bool]] = [
            b for b in beams if b[2]
        ]
        for lp, toks, fin in beams:
            if fin:
                continue
            passes += 1
            generated += 1
            dist = model.next_distribution(prompt_tokens + toks)
            probs = dist.probs
            for tok in range(probs.size):
                p = probs[tok]
                if p <= 0.0:
                    continue
                new_toks = toks + (tok,)
                done = tok == eos or len(new_toks) >= config.global_cap
                candidates.append((lp + math.log(p), new_toks, done))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:beam_width]
    best_lp, best_toks, _ = beams[0]
    cost = CostLedger(forward_passes=passes, generated_tokens=generated, total_steps=rounds)
    return DecodeOutcome(vocab.sequence(prompt_tokens + best_toks), cost, ())


@dataclass(frozen=True)
class AnswerExtractor:
    """Reduces a completed sequence to a comparable answer string."""

    rule: Literal["last_token", "text_after_marker", "full_text"]
    marker: str = ""

    def extract(self, sequence: Sequence, vocabulary: Vocabulary) -> str:
        if self.rule == "full_text":
            return sequence.text
        if self.rule == "last_token":
            for tok in reversed(sequence.tokens):
                surface = vocabulary.surface(tok)
                if surface:
                    return surface
            return ""
        if self.rule == "text_after_marker":
            if not self.marker or self.marker not in sequence.text:
                return ""
            return sequence.text.rsplit(self.marker, 1)[1]
        raise ValueError(f"unknown extractor rule {self.rule!r}")


@dataclass
class VoteTally:
    """Vote counts per extracted answer string."""

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, answer: str) -> None:
        self.counts[answer] = self.counts.get(answer, 0) + 1

    def winner(self) -> str:
        """Most-voted answer; ties break to the lexicographically smallest."""
        if not self.counts:
            raise ValueError("no votes tallied")
        return min(self.counts, key=lambda a: (-self.counts[a], a))


DecodeFn = Callable[[ModelSource, Sequence, DecodeConfig], DecodeOutcome]


def self_consistency(decode_fn: DecodeFn, model: ModelSource, prompt: Sequence,
                     config: DecodeConfig, n_paths: int,
                     extractor: AnswerExtractor) -> tuple[str, CostLedger]:
    """Majority vote over n_paths independent decodes.

    Path i runs with a seed derived from (config.seed, i), so paths are
    reproducible individually and independent of evaluation order. Returns
    the winning answer and the summed ledger of every path.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be ≥ 1")
    vocab = model.vocabulary
    prompt_len = len(prompt.tokens)
    tally = VoteTally()
    total = CostLedger()
    for i in range(n_paths):
        path_config = dataclasses.replace(config, seed=derive_seed(config.seed, i))
        outcome = decode_fn(model, prompt, path_config)
        generated = vocab.sequence(outcome.sequence.tokens[prompt_len:])
        tally.add(extractor.extract(generated, vocab))
        total = total + outcome.cost
    return tally.winner(), total


def best_of_n_whole_ppl(model: ModelSource, prompt: Sequence, config: DecodeConfig,
                        n: int) -> DecodeOutcome:
    """n independent stochastic decodes; keep the answer whose whole-sequence
    perplexity (under the model's own probabilities, read back from the
    trace) is lowest, first run winning ties. The returned ledger sums all
    n runs."""
    if n < 1:
        raise ValueError("n must be ≥ 1")
    best_outcome: DecodeOutcome | None = None
    best_ppl = float("inf")
    total = CostLedger()
    for i in range(n):
        run_config = dataclasses.replace(config, seed=derive_seed(config.seed, i))
        outcome = stochastic_decode(model, prompt, run_config)
        total = total + outcome.cost
        probs = [t.chosen_prob for t in outcome.per_step_trace]
        _, ppl = branch_score(probs) if probs else (0.0, float("inf"))
        if ppl < best_ppl:
            best_ppl = ppl
            best_outcome = outcome
    assert best_outcome is not None
    return DecodeOutcome(best_outcome.sequence, total, best_outcome.per_step_trace)
