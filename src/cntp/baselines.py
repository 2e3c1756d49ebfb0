"""Reference decoding strategies: greedy, stochastic, length-synchronous
beam search, majority-vote self-consistency, and whole-answer best-of-N.

All strategies share the DecodeConfig and the cost-ledger conventions of
the adaptive engine, so their ledgers compare like for like; greedy and
stochastic run the engine's own decode loop.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Literal

from .core import (
    CostLedger,
    DecodeConfig,
    DecodeOutcome,
    Sequence,
    Vocabulary,
    new_ledger,
    new_outcome,
    validate_config,  # noqa: F401  bench/tracing.py patches it here by name
)
from .engine import SingleSamplePolicy, branch_score, policy_decode
from .models import ModelSource
from .sampling import derive_seeds
from .engine import confidence  # noqa: F401  bench/tracing.py patches it here by name
from .sampling import prepare_sampling_dist, sample_token  # noqa: F401  (as confidence)


def greedy_decode(model: ModelSource, prompt: Sequence, config: DecodeConfig) -> DecodeOutcome:
    """Argmax decoding, ties to the lowest token id: the single-sample policy
    at temperature 0, so the config's temperature, top_p and seed do nothing."""
    return policy_decode(model, prompt, greedy_policy(config))


def greedy_policy(config: DecodeConfig) -> SingleSamplePolicy:
    """The policy greedy decoding runs: single-sample at temperature 0."""
    # 0.0 is always a valid temperature, so the copy skips validate_config.
    return SingleSamplePolicy(config._with("temperature", 0.0))


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
    generated token per expanded beam per round. Each round reads its live
    beams' rows in one model.next_distributions call, and steps the cursors
    of the beams that grow on in one model.advance call.
    """
    if beam_width < 1:
        raise ValueError("beam width must be ≥ 1")
    vocab = model.vocabulary
    eos = vocab.eos_id
    prompt_tokens = prompt.tokens
    # A beam is (logprob, rank, length, path, cursor): rank is its place in
    # token order among the beams, path its tokens as (last token, parent
    # path) links, and a finished beam's cursor is None.
    beams: list[tuple[float, int, int, tuple | None, object]] = [
        (0.0, 0, 0, None, model.start(prompt_tokens))]
    passes = generated = rounds = 0
    while live := [cursor for *_, cursor in beams if cursor is not None]:
        rounds += 1
        passes += len(live)
        generated += len(live)
        rows = iter(model.next_distributions(live))
        # Beams hold distinct tokens, live ones all the same number and
        # finished ones no more, and none is a prefix of another. So
        # candidates sort by tokens as by (their beam's rank, the token
        # added, -1 for none), and no round touches a whole token list.
        candidates = []
        for b, (lp, rank, _, _, cursor) in enumerate(beams):
            if cursor is None:
                candidates.append((-lp, rank, -1, b))
                continue
            for tok, p in enumerate(next(rows).probs.tolist()):
                if p > 0.0:
                    candidates.append((-(lp + math.log(p)), rank, tok, b))
        survivors = heapq.nsmallest(beam_width, candidates)
        ranks = [0] * len(survivors)
        for r, i in enumerate(sorted(range(len(survivors)), key=lambda i: survivors[i][1:3])):
            ranks[i] = r
        # A new beam holds, in its cursor's place, whether it grows on; the
        # cursors of those that do step on in one call.
        next_beams, froms, toks = [], [], []
        for (neg_lp, _, tok, b), rank in zip(survivors, ranks):
            lp, _, length, path, cursor = beams[b]
            if tok < 0:
                next_beams.append((lp, rank, length, path, None))
                continue
            length += 1
            grows = tok != eos and length < config.global_cap
            if grows:
                froms.append(cursor)
                toks.append(tok)
            next_beams.append((-neg_lp, rank, length, (tok, path), grows))
        stepped = iter(model.advance(froms, toks))
        beams = [beam[:4] + (next(stepped) if beam[4] else None,) for beam in next_beams]
    best_toks = []
    path = beams[0][3]
    while path is not None:
        tok, path = path
        best_toks.append(tok)
    cost = new_ledger(passes, generated, 0, rounds)
    return new_outcome(vocab.sequence(prompt_tokens + tuple(reversed(best_toks))), cost, ())


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
    outcomes = [decode_fn(model, prompt, config.with_seed(seed))
                for seed in path_seeds([config.seed], n_paths)]
    return vote(outcomes, model.vocabulary, len(prompt.tokens), extractor)


def path_seeds(seeds: list[int], n: int) -> list[int]:
    """The seeds of n paths for each multi-path run of seeds, run after run:
    derive_seed(seed, i) for path i of the run at seed."""
    return derive_seeds([seed for seed in seeds for _ in range(n)],
                        (list(range(n)) * len(seeds),))


def vote(outcomes, vocab: Vocabulary, prompt_len: int, extractor: AnswerExtractor,
         answers: dict | None = None) -> tuple[str, CostLedger]:
    """Self-consistency's reduction of its paths' outcomes: the voted answer
    and the summed ledger. answers, if given, maps id(outcome) to the answer
    of each outcome voted on before under this extractor and prompt length,
    so paths that share an outcome extract it once; its caller keeps those
    outcomes alive while it keeps the map."""
    tally = VoteTally()
    if answers is None:
        answers = {}
    for outcome in outcomes:
        answer = answers.get(id(outcome))
        if answer is None:
            generated = vocab.sequence(outcome.sequence.tokens[prompt_len:])
            answer = answers[id(outcome)] = extractor.extract(generated, vocab)
        tally.add(answer)
    return tally.winner(), _summed_cost(outcomes)


def _summed_cost(outcomes) -> CostLedger:
    """The ledgers of outcomes summed field by field."""
    passes = generated = high_steps = steps = 0
    for outcome in outcomes:
        cost = outcome.cost
        passes += cost.forward_passes
        generated += cost.generated_tokens
        high_steps += cost.high_entropy_steps
        steps += cost.total_steps
    return new_ledger(passes, generated, high_steps, steps)


def best_of_n_whole_ppl(model: ModelSource, prompt: Sequence, config: DecodeConfig,
                        n: int) -> DecodeOutcome:
    """n independent stochastic decodes; keep the answer whose whole-sequence
    perplexity (under the model's own probabilities, read back from the
    trace) is lowest, first run winning ties. The returned ledger sums all
    n runs."""
    if n < 1:
        raise ValueError("n must be ≥ 1")
    return lowest_whole_ppl([stochastic_decode(model, prompt, config.with_seed(seed))
                             for seed in path_seeds([config.seed], n)])


def lowest_whole_ppl(outcomes, ppls: dict | None = None) -> DecodeOutcome:
    """Best-of-N's reduction of its runs' outcomes: the run of lowest
    whole-sequence perplexity, the first on ties (an infinite one
    included), with the summed ledger.
    ppls, if given, maps id(outcome) to the perplexity of each outcome
    scored before, so runs that share an outcome score it once; as with
    vote's answers, its caller keeps those outcomes alive while it keeps
    the map."""
    if ppls is None:
        ppls = {}
    best_outcome: DecodeOutcome | None = None
    best_ppl = float("inf")
    for outcome in outcomes:
        ppl = ppls.get(id(outcome))
        if ppl is None:
            probs = [t.chosen_prob for t in outcome.per_step_trace]
            ppl = ppls[id(outcome)] = branch_score(probs)[1] if probs else float("inf")
        if best_outcome is None or ppl < best_ppl:
            best_ppl = ppl
            best_outcome = outcome
    assert best_outcome is not None
    return new_outcome(best_outcome.sequence, _summed_cost(outcomes),
                       best_outcome.per_step_trace)
