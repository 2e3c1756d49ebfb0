"""Entropy-gated multi-trial decoding, on the loop greedy and stochastic share.

Each step reads the model's untempered full-vocabulary distribution, asks a
policy for a trial budget, and either samples one token or samples several
short branches and keeps the one with the lowest length-normalized
perplexity. Perplexities are always computed from the model's own
probabilities, not the tempered sampling distribution.

Determinism: every random draw comes from a stream keyed by
(seed, step index, trial index), so equal seeds reproduce equal outcomes
regardless of evaluation order; the branch trials within a step could run
concurrently without changing the result.
"""

from __future__ import annotations

import math
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
from .sampling import Rng, greedy_token, prepare_sampling_dist, sample_token


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
        raw = math.floor((h - config.h_min) * n_max / span)
    else:  # "negative"; the config's construction rejects any other value
        raw = n_max - math.floor((h - config.h_min) / span * n_max)
    return max(1, min(n_max, raw))


def branch_score(probs) -> tuple[float, float]:
    """(nll, ppl) of a branch from its per-token model probabilities, summed
    in sampling order. Shared with the enumeration oracle so both sides do
    identical float arithmetic."""
    nll = 0.0
    for p in probs:
        nll -= math.log(p)
    return nll, math.exp(nll / len(probs))


def select_best(trials) -> int:
    """Index of the lowest-perplexity trial; ties keep the lowest index."""
    if not trials:
        raise ValueError("select_best needs at least one trial")
    best = 0
    for i in range(1, len(trials)):
        if trials[i].ppl < trials[best].ppl:
            best = i
    return best


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


def _grow_branch(model, prefix: list, config: DecodeConfig, rng: Rng, answer_len: int,
                 eos: int, stops: tuple[bool, ...], first_dist: Distribution):
    """Sample one branch. Returns (trial, continuation_calls); the caller
    accounts for the first token's pass itself."""
    tokens: list[int] = []
    probs: list[float] = []
    calls = 0
    dist = first_dist
    local = prefix
    while True:
        tok = sample_token(prepare_sampling_dist(dist, config), rng)
        tokens.append(tok)
        probs.append(float(dist.probs[tok]))
        reason = branch_stop(tok, len(tokens), answer_len, eos, stops, config)
        if reason is not None:
            break
        local = local + [tok]
        dist = model.next_distribution(tuple(local))
        calls += 1
    nll, ppl = branch_score(probs)
    return Trial(tuple(tokens), tuple(probs), nll, ppl, reason), calls


@dataclass(frozen=True)
class UniformMultisamplePolicy:
    """n trials at every step regardless of confidence."""

    config: DecodeConfig
    n: int
    reads_confidence = False  # not a field: unannotated

    def trials(self, h: float | None) -> int:
        return self.n


@dataclass(frozen=True)
class SingleSamplePolicy(UniformMultisamplePolicy):
    """One trial at every step: stochastic decoding, and greedy at T=0."""

    n: int = field(default=1, init=False)


@dataclass(frozen=True)
class CntpPolicy:
    """The adaptive engine: trial_count maps confidence onto the budget."""

    config: DecodeConfig
    reads_confidence = True

    def trials(self, h: float | None) -> int:
        return trial_count(h, self.config)


Policy = SingleSamplePolicy | CntpPolicy | UniformMultisamplePolicy


def policy_decode(model: ModelSource, prompt: Sequence, policy: Policy) -> DecodeOutcome:
    """The one per-step decode loop: each step reads the prefix once and
    takes one token, or the best of n branches if the policy asks for n."""
    config = policy.config
    vocab = model.vocabulary
    eos = vocab.eos_id
    stops = stop_mask(vocab, config.punctuation)
    # At T=0 sampling is a one-hot on the lowest-id argmax, read by greedy_token.
    greedy = config.temperature == 0.0
    base = Rng(config.seed)
    prefix = list(prompt.tokens)
    prompt_len = len(prefix)
    trace: list[StepTrace] = []
    passes = generated = high_steps = steps = 0

    while True:
        answer_len = len(prefix) - prompt_len
        if answer_len >= config.global_cap or (answer_len and prefix[-1] == eos):
            break
        dist = model.next_distribution(tuple(prefix))
        passes += 1
        h = confidence(dist, config.confidence_measure)
        n = policy.trials(h)
        step = steps
        steps += 1
        if n == 1:
            tok = (greedy_token(dist) if greedy else
                   sample_token(prepare_sampling_dist(dist, config), base.derive(step, 0)))
            prefix.append(tok)
            generated += 1
            trace.append(StepTrace(h, 1, None, float(dist.probs[tok])))
            continue
        high_steps += 1
        # Every trial starts from the prefix the confidence read already
        # fetched. The ledger still charges trials 1..n-1 a pass each for
        # their first token; the confidence read is trial 0's.
        passes += n - 1
        trials = []
        for i in range(n):
            trial, calls = _grow_branch(
                model, prefix, config, base.derive(step, i), answer_len, eos, stops, dist
            )
            passes += calls
            generated += len(trial.tokens)
            trials.append(trial)
        best = trials[select_best(trials)]
        prefix.extend(best.tokens)
        trace.append(StepTrace(h, n, best.ppl, None))

    cost = CostLedger(
        forward_passes=passes,
        generated_tokens=generated,
        high_entropy_steps=high_steps,
        total_steps=steps,
    )
    return DecodeOutcome(vocab.sequence(prefix), cost, tuple(trace))


def cntp_decode(model: ModelSource, prompt: Sequence, config: DecodeConfig) -> DecodeOutcome:
    """Decode with entropy-adaptive trial budgets."""
    return policy_decode(model, prompt, CntpPolicy(config))
