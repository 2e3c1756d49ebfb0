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
step their cursors in one model.advance batch and read their next rows in
one model.next_distributions batch, which a remote backend sends as one
request. The outcome is the one a trial-by-trial loop gives. lane_decode
runs many (prompt, seed) decodes of one policy the same way, all in
lockstep by step index, with the outcomes policy_decode gives each alone.
Its lanes that hold one cursor form a group, which reads its row once for
all of them; a group splits where its lanes' draws or winning branches
differ. Since a lane's draws depend only on its keys, a group's lanes draw
the tokens they would draw alone, and lane_decode draws them ahead: a
block of steps per keyed_uniforms call, and a multi-trial step's rounds
past the first up to the trials' cap in one call (see DRAW_BLOCK). It
reads each distinct row into one plan per decode, so its steps and trial
rounds pay for a row's confidence, trial count and prepared sampling row
once, not once per token, and its single-token steps that take one token
of one row share one StepTrace.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

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
from .models import ModelSource
from .sampling import (Rng, derive_bases, derive_seeds, greedy_token, keyed_uniforms,
                       prepare_sampling_dist, sample_token, support_cumsum)


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


def _grow_trials(model: ModelSource, cursor, first_dist: Distribution,
                 config: DecodeConfig, rngs: list[Rng], answer_len: int, eos: int,
                 stops: tuple[bool, ...]):
    """Sample one branch per stream of rngs from cursor, whose distribution
    first_dist the caller has read, all in lockstep: each round every live
    branch draws one token from its own stream, and the branches that grow
    on step their cursors in one model.advance call and read their next
    rows in one model.next_distributions call. The last branch left grows
    on alone. Returns (the branch with the lowest (ppl, index) as a Trial,
    the cursor before its last token, rows read); the caller accounts for
    the first tokens' passes itself."""
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
        live, froms, toks = [], [], []
        for lane, cur, dist in zip(lanes, cursors, rows):
            i, rng, tokens, probs = lane
            tok = sample_token(prepare_sampling_dist(dist, config), rng)
            tokens.append(tok)
            probs.append(float(dist.probs[tok]))
            if not (capped or stops[tok]):
                live.append(lane)
                froms.append(cur)
                toks.append(tok)
                continue
            reason = branch_stop(tok, length, answer_len, eos, stops, config)
            nll, ppl = branch_score(probs)
            if best is None or (ppl, i) < best_key:
                best = Trial(tuple(tokens), tuple(probs), nll, ppl, reason)
                best_key, best_end = (ppl, i), cur
        if len(live) < 2:
            break
        lanes, cursors = live, model.advance(froms, toks)
        rows = model.next_distributions(cursors)
        reads += len(cursors)
    if live:  # the last branch left: a batch of one needs no per-round lists
        (i, rng, tokens, probs), = live
        cur, = model.advance(froms, toks)
        while True:
            dist, = model.next_distributions([cur])
            reads += 1
            length += 1
            tok = sample_token(prepare_sampling_dist(dist, config), rng)
            tokens.append(tok)
            probs.append(float(dist.probs[tok]))
            if stops[tok] or length >= cap:
                break
            cur, = model.advance([cur], [tok])
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
        dist, = model.next_distributions([cursor])
        passes += 1
        h = confidence(dist, config.confidence_measure)
        n = policy.trials(h)
        step = steps
        steps += 1
        if n == 1:
            tok = (greedy_token(dist) if greedy else
                   sample_token(prepare_sampling_dist(dist, config), base.derive(step, 0)))
            tokens.append(tok)
            cursor, = model.advance([cursor], [tok])
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
        cursor, = model.advance([best_end], [best.tokens[-1]])
        trace.append(StepTrace(h, n, best.ppl, None))

    cost = CostLedger(
        forward_passes=passes,
        generated_tokens=generated,
        high_entropy_steps=high_steps,
        total_steps=steps,
    )
    return DecodeOutcome(vocab.sequence(tokens), cost, tuple(trace))


# Most uniforms one keyed_uniforms call of lane_decode draws. A stream's
# draws depend only on its keys, so lane_decode draws them ahead. Each
# lane's single-token uniforms come a block of steps ahead, in blocks that
# double: the block drawn at step s covers steps s..2s-1, so a lane that
# ends early wasted at most as many draws as it used. A multi-trial step
# draws its trials' first tokens in one call, then every later round of the
# trials that grow on, up to their cap, in one more: most trials stop within
# a few tokens, but a draw costs tens of ns and a call tens of us. This
# bound shortens a block of many streams, and a trial refills only where it
# cut the block short; it also splits the call of more streams than it, so
# the draws held ahead stay flat in a wide batch.
DRAW_BLOCK = 4096


def _block_uniforms(bases: list[int], key: tuple, draw) -> list[float]:
    """keyed_uniforms(bases, key, draw), in calls of at most DRAW_BLOCK
    streams each."""
    if len(bases) <= DRAW_BLOCK:
        return keyed_uniforms(bases, key, draw)
    out = []
    for lo in range(0, len(bases), DRAW_BLOCK):
        part = slice(lo, lo + DRAW_BLOCK)
        out += keyed_uniforms(bases[part], tuple(p if type(p) is int else p[part] for p in key),
                              draw[part] if type(draw) is list else draw)
    return out


class _Plans(dict):
    """One decode's plan of each distinct row it meets, keyed by the row
    object: (confidence, trial count, prepared support, its cumulative
    mass, the model probability of each support token as a Python float,
    a slot per support index for the StepTrace of a single-token step that
    takes it). Support and probabilities end with their last entry twice,
    so indexing them by bisect_left(mass, u) gives token_at's token for
    every u, and its probability. At T=0 the prepared row is a one-hot on
    the argmax, greedy_token's token, so the plan holds that support
    without building the row. The trace slots fill the first time a step
    takes their index (see trace), so every later step that takes it
    appends the same tuple. A plan holds what the policy makes of the row,
    so it lives only as long as its decode."""

    __slots__ = ("policy",)

    def __init__(self, policy: Policy):
        self.policy = policy

    def __missing__(self, dist: Distribution) -> tuple:
        config = self.policy.config
        h = confidence(dist, config.confidence_measure)
        if config.temperature == 0.0:
            support, mass = [greedy_token(dist)], [1.0]
        else:
            support, mass = support_cumsum(prepare_sampling_dist(dist, config))
        probs = dist.probs[support].tolist()
        plan = self[dist] = (h, self.policy.trials(h), support + support[-1:], mass,
                             probs + probs[-1:], [None] * (len(support) + 1))
        return plan

    @staticmethod
    def trace(plan: tuple, j: int) -> StepTrace:
        """The StepTrace of a single-token step that takes support index j
        of plan, made once: the last index shares its slot with the one
        before, since both hold one token."""
        h, _, _, _, probs, traces = plan
        trace = traces[j] = tuple.__new__(StepTrace, (h, 1, None, probs[j]))
        if j >= len(traces) - 2:
            traces[-2:] = trace, trace
        return trace


class _Lane:
    """One (prompt, seed) decode of lane_decode: its place among the
    outcomes, its stream base, the tokens its losing trials drew, and where
    its draws start in the current block of steps."""

    __slots__ = ("index", "base", "discarded", "at")

    def __init__(self, index: int, base: int):
        self.index = index
        self.base = base
        self.discarded = 0
        self.at = 0


class _Group:
    """The live lanes that hold one cursor, and so one history: their
    tokens, the token count they stop at, their multi-trial steps and their
    trace. lane_decode keeps the groups' cursors in a list beside them."""

    __slots__ = ("lanes", "tokens", "prompt_len", "limit", "high_steps", "trace")

    def __init__(self, prompt: tuple, global_cap: int):
        self.lanes: list[_Lane] = []
        self.tokens = list(prompt)
        self.prompt_len = len(prompt)
        self.limit = self.prompt_len + global_cap
        self.high_steps = 0
        self.trace: list[StepTrace] = []

    def take(self, lanes: list[_Lane], tokens: list, step: StepTrace,
             high_steps: int) -> "_Group":
        """The group of lanes, self's own list or a part of it, once they
        take tokens: self, or a new group for a part."""
        group = self
        if lanes is self.lanes:
            self.tokens += tokens
            self.trace.append(step)
        else:
            group = object.__new__(_Group)
            group.lanes = lanes
            group.tokens = self.tokens + tokens
            group.prompt_len = self.prompt_len
            group.limit = self.limit
            group.high_steps = self.high_steps
            group.trace = self.trace + [step]
        group.high_steps += high_steps
        return group

    def finish(self, vocab, outcomes: list) -> None:
        """Put each lane's outcome in its place; lanes that discarded as
        many tokens share one."""
        sequence = vocab.sequence(self.tokens)
        trace = tuple(self.trace)
        answer_len = len(self.tokens) - self.prompt_len
        shared: dict[int, DecodeOutcome] = {}
        for lane in self.lanes:
            outcome = shared.get(lane.discarded)
            if outcome is None:
                # Each answer token and each token a losing trial drew took one pass.
                passes = answer_len + lane.discarded
                cost = CostLedger(forward_passes=passes, generated_tokens=passes,
                                  high_entropy_steps=self.high_steps, total_steps=len(trace))
                outcome = shared[lane.discarded] = DecodeOutcome(sequence, cost, trace)
            outcomes[lane.index] = outcome


def _step_block(live: list[_Group], step: int) -> tuple[list[float], int]:
    """The single-token uniforms, keyed (seed, s, 0), of every lane of live
    for the steps s of a block from step, each lane's from its lane.at on;
    and the step the block ends before: as many steps as came before step,
    at least one, and at most DRAW_BLOCK draws in all where each lane draws
    at least one. A group's lanes draw no further than their answer cap,
    since each step takes a token."""
    length = max(1, min(step, DRAW_BLOCK // sum(len(group.lanes) for group in live)))
    bases, steps = [], []
    for group in live:
        span = range(step, step + min(length, group.limit - len(group.tokens)))
        for lane in group.lanes:
            lane.at = len(bases)
            bases += [lane.base] * len(span)
            steps += span
    return _block_uniforms(bases, (steps, 0), 0), step + length


def lane_decode(model: ModelSource, lanes: list[tuple[Sequence, int]],
                policy: Policy) -> list[DecodeOutcome]:
    """policy_decode of each (prompt, seed) lane under policy, its config at
    that seed, with every lane in lockstep by step index. Live lanes that
    hold one cursor form a group, and lanes start grouped by prompt. Each
    step reads every group's row in one model.next_distributions call, and
    each distinct row's plan (confidence, trial count, prepared row, model
    probabilities) once per decode. Every live lane's (seed, step, 0)
    uniforms are drawn a block of steps ahead (see DRAW_BLOCK), used by the
    groups that take a single token; such a group splits by the tokens its
    lanes draw, and its parts share one StepTrace. The multi-trial steps
    grow their trials together and split their groups by winning branch
    (see _grow_lane_trials). Each step ends by stepping the cursor of every
    group that goes on in one model.advance call. Outcomes, ledgers and
    traces equal policy_decode's bit for bit."""
    config = policy.config
    vocab = model.vocabulary
    eos = vocab.eos_id
    stops = stop_mask(vocab, config.punctuation)
    greedy = config.temperature == 0.0
    starts: dict[tuple, _Group] = {}
    bases = derive_seeds([seed for _, seed in lanes])
    for index, ((prompt, _), base) in enumerate(zip(lanes, bases)):
        group = starts.get(prompt.tokens)
        if group is None:
            group = starts[prompt.tokens] = _Group(prompt.tokens, config.global_cap)
        group.lanes.append(_Lane(index, base))
    outcomes: list = [None] * len(lanes)
    plans = _Plans(policy)
    live = list(starts.values())
    cursors = [model.start(prompt) for prompt in starts]
    step = block_start = block_end = 0
    block: list[float] = []
    while live:
        rows = model.next_distributions(cursors)
        if not greedy and step == block_end:
            block_start = step
            block, block_end = _step_block(live, step)
        offset = step - block_start
        # The groups that go on, with the cursor each took its last token at;
        # and the parts of the groups that split, each with that cursor.
        going, froms, parts, multis = [], [], [], []
        for group, cursor, dist in zip(live, cursors, rows):
            h, n, support, mass, probs, traces = plan = plans[dist]
            if n > 1:
                multis.append((group, plan, cursor))
                continue
            lanes = group.lanes
            if greedy:
                j = 0
            elif len(lanes) == 1:
                j = bisect_left(mass, block[lanes[0].at + offset])
            else:
                picks = [bisect_left(mass, block[lane.at + offset]) for lane in lanes]
                j = picks[0]
                if picks.count(j) < len(picks):
                    parts += [(part, cursor)
                              for part in _split_by_token(group, picks, plan)]
                    continue
            tok = support[j]
            tokens = group.tokens
            tokens.append(tok)
            group.trace.append(traces[j] or _Plans.trace(plan, j))
            if tok != eos and len(tokens) < group.limit:
                going.append(group)
                froms.append(cursor)
            else:
                group.finish(vocab, outcomes)
        if multis:
            parts += _grow_lane_trials(model, multis, step, config, stops, plans)
        for group, cursor in parts:
            tokens = group.tokens
            if tokens[-1] != eos and len(tokens) < group.limit:
                going.append(group)
                froms.append(cursor)
            else:
                group.finish(vocab, outcomes)
        live, cursors = going, model.advance(froms, [group.tokens[-1] for group in going])
        step += 1
    return outcomes


def _split_by_token(group: _Group, picks: list, plan: tuple) -> list[_Group]:
    """The groups that group's lanes form once each takes its token,
    support[j] of its pick j of plan, the plan of the row they read."""
    support, traces = plan[2], plan[5]
    parts: dict[int, tuple] = {}
    for lane, j in zip(group.lanes, picks):
        part = parts.get(support[j])
        if part is None:
            parts[support[j]] = ([lane], j)
        else:
            part[0].append(lane)
    return [group.take(part, [tok], traces[j] or _Plans.trace(plan, j), 0)
            for tok, (part, j) in parts.items()]


def _grow_lane_trials(model: ModelSource, steps: list, step: int, config: DecodeConfig,
                      stops: tuple[bool, ...], plans: _Plans) -> list[tuple]:
    """Run the multi-trial step of each (group, plan of its row, its
    cursor) of steps for every lane of the group, as policy_decode's step
    does, and return the groups the lanes form after it, each with the
    cursor it took its last token at: a group splits by winning branch.
    Trials grow TRIAL_CHUNK per lane at a time, and all the trials of a
    chunk, over every lane, in lockstep: round 0 draws their first uniforms
    in one keyed_uniforms call, round 1 draws the rest of every trial that
    grows on, up to its cap, in one more (see _round_block), and each round
    steps the trials that grow on in one model.advance call and reads their
    rows in one model.next_distributions call. Round r takes draw r of
    trial i's stream (seed, step, i), as in _grow_trials, and each trial
    keeps branch_score's scalar sum. A trial that stops on its first token is scored once per
    distinct token."""
    # Per lane, the lanes of every step's group in turn (step k's from
    # bounds[k] to bounds[k + 1]): the base of its (seed, step) stream, its
    # running best as [(ppl, trial index), tokens, cursor before the last
    # token], and the tokens its trials drew.
    bounds = [0]
    for group, *_ in steps:
        bounds.append(bounds[-1] + len(group.lanes))
    step_bases = derive_bases([lane.base for group, *_ in steps for lane in group.lanes], (step,))
    bests: list = [None] * len(step_bases)
    drawn = [0] * len(step_bases)
    for lo in range(0, max(plan[1] for _, plan, _ in steps), TRIAL_CHUNK):
        chunks = [(k, range(lo, min(plan[1], lo + TRIAL_CHUNK)))
                  for k, (_, plan, _) in enumerate(steps) if plan[1] > lo]
        draws = iter(_block_uniforms(
            [base for k, indices in chunks for base in step_bases[bounds[k]:bounds[k + 1]]
             for _ in indices],
            ([i for k, indices in chunks for _ in range(bounds[k], bounds[k + 1])
              for i in indices],), 0))
        # Per trial that grows on: (lane position, trial index, cap on its
        # length, tokens, model probabilities), to which _round_block adds
        # where its draws start in the block of rounds; and the cursor it
        # took its last token at, and that token.
        trials, froms, toks = [], [], []
        # Round 0: a step's trials all draw from its row, at its cursor, and
        # the ones that stop there score as their first token does.
        for k, indices in chunks:
            group, (_, _, support, mass, probs, _), cursor = steps[k]
            cap = min(config.branch_cap, group.limit - len(group.tokens))
            ppls: dict[int, float] = {}
            for p in range(bounds[k], bounds[k + 1]):
                for i in indices:
                    j = bisect_left(mass, next(draws))
                    tok = support[j]
                    if cap > 1 and not stops[tok]:
                        trials.append((p, i, cap, [tok], [probs[j]]))
                        froms.append(cursor)
                        toks.append(tok)
                        continue
                    drawn[p] += 1
                    ppl = ppls.get(tok)
                    if ppl is None:
                        ppl = ppls[tok] = branch_score([probs[j]])[1]
                    if bests[p] is None or (ppl, i) < bests[p][0]:
                        bests[p] = [(ppl, i), [tok], cursor]
        cursors = model.advance(froms, toks)
        length = block_end = 1
        while trials:
            rows = model.next_distributions(cursors)
            if length == block_end:  # block holds rounds block_start..block_end - 1
                block_start = length
                block, trials, block_end = _round_block(trials, length, step_bases)
            offset = length - block_start
            length += 1
            live, froms, toks = [], [], []
            for trial, cur, dist in zip(trials, cursors, rows):
                p, i, cap, tokens, chosen, at = trial
                _, _, support, mass, probs, _ = plans[dist]
                j = bisect_left(mass, block[at + offset])
                tok = support[j]
                tokens.append(tok)
                chosen.append(probs[j])
                if not (length >= cap or stops[tok]):
                    live.append(trial)
                    froms.append(cur)
                    toks.append(tok)
                    continue
                drawn[p] += length
                ppl = branch_score(chosen)[1]
                if bests[p] is None or (ppl, i) < bests[p][0]:
                    bests[p] = [(ppl, i), tokens, cur]
            trials, cursors = live, model.advance(froms, toks)
    out = []
    for (group, (h, n, *_), _), first in zip(steps, bounds):
        branches: dict[tuple, list] = {}
        for p, lane in enumerate(group.lanes, first):
            (ppl, _), tokens, end = bests[p]
            lane.discarded += drawn[p] - len(tokens)
            branch = branches.get(key := tuple(tokens))
            if branch is None:
                branches[key] = [ppl, tokens, end, [lane]]
            else:
                branch[3].append(lane)
        whole = len(branches) == 1
        out += [(group.take(group.lanes if whole else part, tokens, StepTrace(h, n, ppl, None), 1),
                 end)
                for ppl, tokens, end, part in branches.values()]
    return out


def _round_block(trials: list, start: int,
                 step_bases: list[int]) -> tuple[list[float], list[tuple], int]:
    """The uniforms of the live trials of _grow_lane_trials for the rounds
    from round start up to the largest cap among them, stream by stream, in
    calls of at most DRAW_BLOCK uniforms: draw r of trial i's stream
    (seed, step, i), folded from its lane's (seed, step) base in step_bases,
    is the token that makes it r + 1 long. Where DRAW_BLOCK cuts the rounds
    short, the trials that outgrow the block refill, and only they. Also the
    trials with where their draws start, and the round the block ends
    before."""
    rounds = min(max(trial[2] for trial in trials) - start,
                 max(1, DRAW_BLOCK // len(trials)))
    block = _block_uniforms([step_bases[trial[0]] for trial in trials],
                            ([trial[1] for trial in trials],), range(start, start + rounds))
    placed = [trial[:5] + (t * rounds,) for t, trial in enumerate(trials)]
    return block, placed, start + rounds


def cntp_decode(model: ModelSource, prompt: Sequence, config: DecodeConfig) -> DecodeOutcome:
    """Decode with entropy-adaptive trial budgets."""
    return policy_decode(model, prompt, CntpPolicy(config))
