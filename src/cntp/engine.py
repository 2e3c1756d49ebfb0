"""Entropy-gated multi-trial decoding, on the loop greedy and stochastic share.

Each step reads the model's untempered full-vocabulary distribution, asks a
policy for a trial budget, and either samples one token or samples several
short branches and keeps the one with the lowest length-normalized
perplexity. Perplexities are always computed from the model's own
probabilities, not the tempered sampling distribution.

Determinism: every random draw comes from a stream keyed by
(seed, step index, trial index), so equal seeds reproduce equal outcomes
regardless of evaluation order. A step's trials therefore grow in lockstep:
each round every live trial draws one token, and the trials that grow on
read their next rows in one model.next_distributions batch, which a remote
backend sends as one request. The outcome is the one a trial-by-trial loop
gives. lane_decode runs many (prompt, seed) decodes of one policy the same
way, all in lockstep by step index, with the outcomes policy_decode gives
each alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import (
    ConfidenceMeasure,
    CostLedger,
    DecodeConfig,
    DecodeOutcome,
    Distribution,
    Sequence,
    StepTrace,
    Trial,
    validate_config,  # noqa: F401  bench/tracing.py patches it here by name
)
from .models import Cursor, ModelSource
from .sampling import (Rng, derive_base, derive_seed, greedy_token, keyed_uniforms,
                       prepare_sampling_dist, sample_token, token_at)


def entropy(dist: Distribution) -> float:
    """Shannon entropy in nats; the p=0 terms contribute nothing."""
    cached = dist._entropy
    if cached is None:
        probs = dist.probs
        nonzero = probs[probs > 0]
        cached = float(-(nonzero * np.log(nonzero)).sum())
        dist._entropy = cached
    return cached


def confidence(dist: Distribution, measure: ConfidenceMeasure) -> float:
    """Uncertainty score fed to trial_count. Entropy is reported raw; the
    top probability and the top-1/top-2 margin are flipped onto a [0, 1]
    uncertainty scale. A one-token vocabulary's margin is its top
    probability."""
    if measure == "entropy":
        return entropy(dist)
    probs = dist.probs
    if probs.size == 1:
        second, top = 0.0, probs[0]
    else:
        second, top = np.partition(probs, probs.size - 2)[-2:]
    if measure == "max_prob":
        return 1.0 - float(top)
    if measure == "top1_minus_top2":
        return 1.0 - float(top - second)
    raise ValueError(f"unknown confidence measure {measure!r}")


def trial_count(h: float, config: DecodeConfig) -> int:
    """Map an uncertainty reading onto a trial budget in 1..n_max.

    positive: budget grows linearly from h_min to h_max and saturates.
    negative: the same ramp mirrored, so certainty buys more trials.
    fixed: the midpoint of 1..n_max rounded up, independent of h.
    """
    n_max = config.n_max
    scaling = config.trial_scaling
    if scaling == "fixed":
        return min(n_max, (n_max + 2) // 2)
    span = config.h_max - config.h_min
    if scaling == "positive":
        ramp = (h - config.h_min) * n_max / span
    else:  # "negative"; the config's construction rejects any other value
        ramp = (h - config.h_min) / span * n_max
    # Clamped to 0..n_max before the floor, which raises on the ±inf that a
    # tiny span or an n_max near the float range gives.
    level = math.floor(min(max(ramp, 0), n_max))
    return max(1, level if scaling == "positive" else n_max - level)


def branch_score(probs) -> tuple[float, float]:
    """(nll, ppl) of a branch from its per-token model probabilities, summed
    in sampling order. Shared with the enumeration oracle so both sides do
    identical float arithmetic."""
    nll = 0.0
    for p in probs:
        nll -= math.log(p)
    return nll, math.exp(nll / len(probs))


def stop_mask(vocabulary, punctuation) -> tuple[bool, ...]:
    """Which tokens close a branch: eos, or any surface containing a
    punctuation character. Built once per punctuation set and cached on
    the vocabulary."""
    key = frozenset(punctuation)
    mask = vocabulary._stop_masks.get(key)
    if mask is None:
        eos = vocabulary.eos_id
        mask = tuple(
            i == eos or any(ch in key for ch in t)
            for i, t in enumerate(vocabulary.tokens)
        )
        vocabulary._stop_masks[key] = mask
    return mask


def branch_stop(tok: int, length: int, answer_len: int, eos: int,
                stops: tuple[bool, ...], config: DecodeConfig) -> str | None:
    """Why a branch of length tokens ending in tok, begun answer_len tokens
    into the answer, stops (None: it grows on). Engine and oracle share it."""
    if tok == eos:
        return "eos"
    if stops[tok]:
        return "punctuation"
    if length >= config.branch_cap:
        return "branch_cap"
    if answer_len + length >= config.global_cap:
        return "global_cap"
    return None


# Most trials a multi-trial step grows at once. Their lanes are what a step
# holds in memory, so its memory is flat in the trial count.
TRIAL_CHUNK = 64


def _grow_trials(model: ModelSource, cursor: Cursor, first_dist: Distribution,
                 config: DecodeConfig, rngs: list[Rng], answer_len: int, eos: int,
                 stops: tuple[bool, ...]):
    """Sample one branch per stream of rngs from cursor, whose distribution
    first_dist the caller has read, all in lockstep: each round every live
    branch draws one token from its own stream, and the branches that grow
    on read their next rows in one model.next_distributions call. The last
    branch left grows on alone, reading its cursor. Returns (the branch with
    the lowest (ppl, index) as a Trial, the cursor before its last token,
    rows read); the caller accounts for the first tokens' passes itself."""
    # Parallel per-lane lists, rebuilt each round: (index, rng, tokens,
    # probs) of each live branch, its cursor and its next row.
    lanes = [(i, rng, [], []) for i, rng in enumerate(rngs)]
    cursors = [cursor] * len(lanes)
    rows = [first_dist] * len(lanes)
    best = best_key = best_end = None
    reads = length = 0
    # A branch stops on a stop token (eos is one) or at this length, the
    # nearer of its two caps; branch_stop names the reason once it stops.
    cap = min(config.branch_cap, config.global_cap - answer_len)
    while True:
        length += 1
        capped = length >= cap  # a round's branches share their length
        live, advanced = [], []
        for lane, cur, dist in zip(lanes, cursors, rows):
            i, rng, tokens, probs = lane
            tok = sample_token(prepare_sampling_dist(dist, config), rng)
            tokens.append(tok)
            probs.append(float(dist.probs[tok]))
            if not (capped or stops[tok]):
                live.append(lane)
                advanced.append(cur.advance(tok))
                continue
            reason = branch_stop(tok, length, answer_len, eos, stops, config)
            nll, ppl = branch_score(probs)
            if best is None or (ppl, i) < best_key:
                best = Trial(tuple(tokens), tuple(probs), nll, ppl, reason)
                best_key, best_end = (ppl, i), cur
        if len(live) < 2:
            break
        lanes, cursors = live, advanced
        rows = model.next_distributions(cursors)
        reads += len(cursors)
    if live:  # the last branch left: a batch of one needs no per-round lists
        (i, rng, tokens, probs), = live
        cur = advanced[0]
        while True:
            dist = cur.dist()
            reads += 1
            length += 1
            tok = sample_token(prepare_sampling_dist(dist, config), rng)
            tokens.append(tok)
            probs.append(float(dist.probs[tok]))
            if stops[tok] or length >= cap:
                break
            cur = cur.advance(tok)
        reason = branch_stop(tok, length, answer_len, eos, stops, config)
        nll, ppl = branch_score(probs)
        if best is None or (ppl, i) < best_key:
            best = Trial(tuple(tokens), tuple(probs), nll, ppl, reason)
            best_end = cur
    return best, best_end, reads


@dataclass(frozen=True)
class UniformMultisamplePolicy:
    """n trials at every step regardless of confidence."""

    config: DecodeConfig
    n: int

    def trials(self, h: float) -> int:
        return self.n


@dataclass(frozen=True)
class SingleSamplePolicy(UniformMultisamplePolicy):
    """One trial at every step: stochastic decoding, and greedy at T=0."""

    n: int = field(default=1, init=False)


@dataclass(frozen=True)
class CntpPolicy:
    """The adaptive engine: trial_count maps confidence onto the budget."""

    config: DecodeConfig

    def trials(self, h: float) -> int:
        return trial_count(h, self.config)


Policy = SingleSamplePolicy | CntpPolicy | UniformMultisamplePolicy


def policy_decode(model: ModelSource, prompt: Sequence, policy: Policy) -> DecodeOutcome:
    """The one per-step decode loop: each step reads its cursor once and
    takes one token, or the best of n branches if the policy asks for n."""
    config = policy.config
    vocab = model.vocabulary
    eos = vocab.eos_id
    stops = stop_mask(vocab, config.punctuation)
    # At T=0 sampling is a one-hot on the lowest-id argmax, read by greedy_token,
    # so a single-sample step draws nothing; the Rng waits for the first draw.
    greedy = config.temperature == 0.0
    base = None if greedy else Rng(config.seed)
    cursor = model.start(prompt.tokens)
    tokens = list(prompt.tokens)  # the output only: reads go through the cursor
    prompt_len = len(tokens)
    global_cap = config.global_cap
    trace: list[StepTrace] = []
    passes = generated = high_steps = steps = 0

    while True:
        answer_len = len(tokens) - prompt_len
        if answer_len >= global_cap or (answer_len and tokens[-1] == eos):
            break
        dist = cursor.dist()
        passes += 1
        h = confidence(dist, config.confidence_measure)
        n = policy.trials(h)
        step = steps
        steps += 1
        if n == 1:
            tok = (greedy_token(dist) if greedy else
                   sample_token(prepare_sampling_dist(dist, config), base.derive(step, 0)))
            tokens.append(tok)
            cursor = cursor.advance(tok)
            generated += 1
            trace.append(StepTrace(h, 1, None, float(dist.probs[tok])))
            continue
        high_steps += 1
        # Every trial forks the step's cursor and starts from the distribution
        # the confidence read already fetched. The ledger still charges trials
        # 1..n-1 a pass each for their first token; the confidence read is
        # trial 0's.
        passes += n - 1
        if base is None:  # T=0: the trials still draw, from one-hot rows
            base = Rng(config.seed)
        step_rng = base.derive(step)  # derive(step, i) == derive(step).derive(i)
        # Trials grow TRIAL_CHUNK at a time and only the running best is kept,
        # so memory is flat in n. It has the lowest perplexity; a strict <
        # lets the lowest index, an earlier chunk's, win ties.
        best = best_end = None
        for lo in range(0, n, TRIAL_CHUNK):
            rngs = [step_rng.derive(i) for i in range(lo, min(n, lo + TRIAL_CHUNK))]
            trial, end, reads = _grow_trials(model, cursor, dist, config, rngs,
                                             answer_len, eos, stops)
            passes += reads
            generated += reads + len(rngs)  # a branch of k tokens reads k - 1 rows
            if best is None or trial.ppl < best.ppl:
                best, best_end = trial, end
        tokens.extend(best.tokens)
        cursor = best_end.advance(best.tokens[-1])
        trace.append(StepTrace(h, n, best.ppl, None))

    cost = CostLedger(
        forward_passes=passes,
        generated_tokens=generated,
        high_entropy_steps=high_steps,
        total_steps=steps,
    )
    return DecodeOutcome(vocab.sequence(tokens), cost, tuple(trace))


class _Lane:
    """One (prompt, seed) decode of lane_decode: its stream base, cursor and
    tokens, the token count it stops at, its multi-trial steps, the tokens
    their losing trials drew, and its trace."""

    __slots__ = ("base", "cursor", "tokens", "prompt_len", "limit", "high_steps", "discarded",
                 "trace")

    def __init__(self, model: ModelSource, prompt: Sequence, seed: int, global_cap: int):
        self.base = derive_seed(seed)
        self.cursor = model.start(prompt.tokens)
        self.tokens = list(prompt.tokens)
        self.prompt_len = len(self.tokens)
        self.limit = self.prompt_len + global_cap
        self.high_steps = self.discarded = 0
        self.trace: list[StepTrace] = []

    def outcome(self, vocab) -> DecodeOutcome:
        # Each answer token and each token a losing trial drew took one pass.
        passes = len(self.tokens) - self.prompt_len + self.discarded
        cost = CostLedger(forward_passes=passes, generated_tokens=passes,
                          high_entropy_steps=self.high_steps, total_steps=len(self.trace))
        return DecodeOutcome(vocab.sequence(self.tokens), cost, tuple(self.trace))


def lane_decode(model: ModelSource, lanes: list[tuple[Sequence, int]],
                policy: Policy) -> list[DecodeOutcome]:
    """policy_decode of each (prompt, seed) lane under policy, its config at
    that seed, with every lane in lockstep by step index. Each step reads all
    live lanes' rows in one model.next_distributions call and draws all their
    (seed, step, 0) uniforms in one keyed_uniforms call, used by the lanes
    that take a single token; the multi-trial steps grow their trials
    together (see _grow_lane_trials). Outcomes, ledgers and traces equal
    policy_decode's bit for bit."""
    config = policy.config
    vocab = model.vocabulary
    eos = vocab.eos_id
    stops = stop_mask(vocab, config.punctuation)
    greedy = config.temperature == 0.0
    measure = config.confidence_measure
    states = [_Lane(model, prompt, seed, config.global_cap) for prompt, seed in lanes]
    live = states
    step = 0
    while live:
        rows = model.next_distributions([lane.cursor for lane in live])
        draws = (repeat(0.0) if greedy else
                 keyed_uniforms([lane.base for lane in live], (step, 0), 0))
        going, multis = [], []
        for lane, dist, u in zip(live, rows, draws):
            h = confidence(dist, measure)
            n = policy.trials(h)
            if n > 1:
                multis.append((lane, dist, h, n))
                continue
            tok = greedy_token(dist) if greedy else token_at(prepare_sampling_dist(dist, config), u)
            tokens = lane.tokens
            tokens.append(tok)
            lane.cursor = lane.cursor.advance(tok)
            lane.trace.append(StepTrace(h, 1, None, float(dist.probs[tok])))
            if tok != eos and len(tokens) < lane.limit:
                going.append(lane)
        if multis:
            _grow_lane_trials(model, multis, step, config, stops)
            going += [lane for lane, *_ in multis
                      if lane.tokens[-1] != eos and len(lane.tokens) < lane.limit]
        live = going
        step += 1
    return [lane.outcome(vocab) for lane in states]


def _grow_lane_trials(model: ModelSource, steps: list, step: int, config: DecodeConfig,
                      stops: tuple[bool, ...]) -> None:
    """Run the multi-trial step of each (lane, row, confidence, n) of steps
    and append its winner to the lane, as policy_decode's step does. Trials
    grow TRIAL_CHUNK per lane at a time, and all the trials of a chunk, over
    every lane, in lockstep: each round draws their uniforms in one
    keyed_uniforms call and reads the rows of those that grow on in one
    model.next_distributions call. Round r takes draw r of trial i's stream
    (seed, step, i), as in _grow_trials, and each trial keeps branch_score's
    scalar sum."""
    # Per step: the running best as [(ppl, trial index), tokens, cursor
    # before the last token], and the tokens its trials drew.
    bests: list = [None] * len(steps)
    drawn = [0] * len(steps)
    step_bases = [derive_base(lane.base, step) for lane, *_ in steps]
    for lo in range(0, max(n for *_, n in steps), TRIAL_CHUNK):
        chunks = [(k, range(lo, min(n, lo + TRIAL_CHUNK)))
                  for k, (*_, n) in enumerate(steps) if n > lo]
        draws = iter(keyed_uniforms([step_bases[k] for k, indices in chunks for _ in indices],
                                    ([i for _, indices in chunks for i in indices],), 0))
        # Parallel per-trial lists: (step index, trial index, cap on its
        # length, tokens, probs) of each trial that grows on, its stream base
        # and its cursor.
        trials, bases, cursors = [], [], []
        # Round 0: a step's trials all draw from its row, at its cursor, and
        # the ones that stop there score as their first token does.
        for k, indices in chunks:
            lane, dist, _, _ = steps[k]
            prepared = prepare_sampling_dist(dist, config)
            cap = min(config.branch_cap, lane.limit - len(lane.tokens))
            ppls: dict[int, float] = {}
            for i in indices:
                tok = token_at(prepared, next(draws))
                if cap > 1 and not stops[tok]:
                    trials.append((k, i, cap, [tok], [float(dist.probs[tok])]))
                    bases.append(derive_base(step_bases[k], i))
                    cursors.append(lane.cursor.advance(tok))
                    continue
                drawn[k] += 1
                ppl = ppls.get(tok)
                if ppl is None:
                    ppl = ppls[tok] = branch_score([float(dist.probs[tok])])[1]
                if bests[k] is None or (ppl, i) < bests[k][0]:
                    bests[k] = [(ppl, i), [tok], lane.cursor]
        length = 1
        while trials:
            rows = model.next_distributions(cursors)
            draws = keyed_uniforms(bases, (), length)
            length += 1
            live, live_bases, advanced = [], [], []
            for trial, base, cur, dist, u in zip(trials, bases, cursors, rows, draws):
                k, i, cap, tokens, probs = trial
                tok = token_at(prepare_sampling_dist(dist, config), u)
                tokens.append(tok)
                probs.append(float(dist.probs[tok]))
                if not (length >= cap or stops[tok]):
                    live.append(trial)
                    live_bases.append(base)
                    advanced.append(cur.advance(tok))
                    continue
                drawn[k] += length
                ppl = branch_score(probs)[1]
                if bests[k] is None or (ppl, i) < bests[k][0]:
                    bests[k] = [(ppl, i), tokens, cur]
            trials, bases, cursors = live, live_bases, advanced
    for (lane, _, h, n), ((ppl, _), tokens, end), total in zip(steps, bests, drawn):
        lane.tokens.extend(tokens)
        lane.cursor = end.advance(tokens[-1])
        lane.discarded += total - len(tokens)
        lane.high_steps += 1
        lane.trace.append(StepTrace(h, n, ppl, None))


def cntp_decode(model: ModelSource, prompt: Sequence, config: DecodeConfig) -> DecodeOutcome:
    """Decode with entropy-adaptive trial budgets."""
    return policy_decode(model, prompt, CntpPolicy(config))
