"""Exact verification tools for the adaptive engine.

The oracle here never samples: it walks every outcome a decoding policy can
produce on a finite scripted model and carries exact probabilities, summing
joint assignments of multi-trial steps analytically. Expected costs follow
the engine's ledger convention (one pass per sampled token per trial).

Fixture builders construct scripted models whose selection behavior is
decided by construction: at every multi-trial step the designed correct
continuation has strictly the lowest branch perplexity, and declared
low/high entropy regimes bind exactly with thresholds derived from the
actual row entropies.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DecodeConfig,
    Distribution,
    Sequence,
    TokenId,
    Vocabulary,
    config_from_dict,
    config_to_dict,
    validate_config,
)
from .engine import branch_score, confidence, entropy, stop_mask, trial_count
from .models import ModelFileError, ModelSource, ScriptedModel, load_scripted_model, save_scripted_model
from .sampling import prepare_sampling_dist

DEFAULT_NODE_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """The outcome tree outgrew the configured node budget."""


@dataclass(frozen=True)
class ReferenceSequence:
    """Ground-truth answer tokens (prompt and trailing eos excluded)."""

    tokens: tuple[TokenId, ...]
    text: str


@dataclass(frozen=True)
class SingleSamplePolicy:
    """One sampled token per step, the plain stochastic baseline."""

    config: DecodeConfig


@dataclass(frozen=True)
class CntpPolicy:
    """The adaptive engine's behavior: entropy-gated trial budgets with
    lowest-perplexity branch selection."""

    config: DecodeConfig


@dataclass(frozen=True)
class UniformMultisamplePolicy:
    """n branch trials at every step regardless of entropy."""

    config: DecodeConfig
    n: int


Policy = SingleSamplePolicy | CntpPolicy | UniformMultisamplePolicy


@dataclass(frozen=True)
class _EnumerationNode:
    """One decision point in the outcome tree: the tokens reached so far
    (prompt included) and the exact probability of reaching them."""

    tokens: tuple[TokenId, ...]
    probability: float
    answer_len: int


@dataclass(frozen=True)
class _EnumResult:
    outcomes: list
    expected_cost: float
    expected_steps: float
    expected_high: float


def _enumerate_branch_set(model, config, prefix, answer_len, stops, eos, counter, budget):
    """All branches a trial could sample from this prefix: (tokens, sampled
    probability, perplexity, length), with probabilities under the tempered
    sampling distribution and perplexities under the model's own."""
    out = []

    def grow(local, toks, qprob, model_probs, first_dist):
        counter[0] += 1
        if counter[0] > budget:
            raise EnumerationBudgetError(f"enumeration exceeded {budget} nodes")
        dist = first_dist if first_dist is not None else model.next_distribution(local)
        q = prepare_sampling_dist(dist, config).probs
        model_p = dist.probs
        for tok in np.flatnonzero(q):
            tok = int(tok)
            toks2 = toks + (tok,)
            probs2 = model_probs + (float(model_p[tok]),)
            qp2 = qprob * float(q[tok])
            if (tok == eos or stops[tok] or len(toks2) >= config.branch_cap
                    or answer_len + len(toks2) >= config.global_cap):
                nll, ppl = branch_score(probs2)
                out.append((toks2, qp2, ppl, len(toks2)))
            else:
                grow(local + (tok,), toks2, qp2, probs2, None)

    grow(prefix, (), 1.0, (), None)
    return out


def _winner_probabilities(branches, n: int) -> list[float]:
    """P(branch wins the n-trial argmin-perplexity selection), summing over
    every joint assignment of the n independent draws analytically. Ties in
    perplexity resolve to the earliest drawn trial, which makes equal-ppl
    branches exchangeable."""
    group_mass: dict[float, float] = {}
    for _, q, ppl, _ in branches:
        group_mass[ppl] = group_mass.get(ppl, 0.0) + q
    below: dict[float, float] = {}
    acc = 0.0
    for ppl in sorted(group_mass):
        below[ppl] = acc
        acc += group_mass[ppl]
    winners = []
    for _, q, ppl, _ in branches:
        mass_ge = 1.0 - below[ppl]          # P(draw ppl >= this branch's)
        mass_gt = mass_ge - group_mass[ppl]  # P(draw ppl > this branch's)
        if mass_gt < 0.0:
            mass_gt = 0.0
        winners.append(q * (mass_ge**n - mass_gt**n) / group_mass[ppl])
    return winners


def _enumerate(model: ModelSource, policy: Policy, prompt_tokens: tuple[TokenId, ...],
               max_len: int | None, node_budget: int) -> _EnumResult:
    config = policy.config
    validate_config(config)
    eos = model.vocabulary.eos_id
    stops = stop_mask(model.vocabulary, config.punctuation)
    cap = config.global_cap if max_len is None else min(max_len, config.global_cap)
    counter = [0]
    outcomes: list[tuple[tuple[TokenId, ...], float]] = []
    expected_cost = expected_steps = expected_high = 0.0

    stack = [_EnumerationNode(prompt_tokens, 1.0, 0)]
    while stack:
        node = stack.pop()
        counter[0] += 1
        if counter[0] > node_budget:
            raise EnumerationBudgetError(f"enumeration exceeded {node_budget} nodes")
        if node.answer_len >= cap or (node.answer_len and node.tokens[-1] == eos):
            outcomes.append((node.tokens, node.probability))
            continue
        dist = model.next_distribution(node.tokens)
        if isinstance(policy, SingleSamplePolicy):
            n = 1
        elif isinstance(policy, CntpPolicy):
            n = trial_count(confidence(dist, config.confidence_measure), config)
        else:
            n = policy.n
        expected_steps += node.probability
        if n == 1:
            expected_cost += node.probability
            q = prepare_sampling_dist(dist, config).probs
            for tok in np.flatnonzero(q):
                tok = int(tok)
                stack.append(_EnumerationNode(
                    node.tokens + (tok,), node.probability * float(q[tok]),
                    node.answer_len + 1,
                ))
        else:
            expected_high += node.probability
            branches = _enumerate_branch_set(
                model, config, node.tokens, node.answer_len, stops, eos, counter, node_budget
            )
            mean_len = sum(q * ln for _, q, _, ln in branches)
            expected_cost += node.probability * n * mean_len
            for (toks, _, _, ln), win in zip(branches, _winner_probabilities(branches, n)):
                if win > 0.0:
                    stack.append(_EnumerationNode(
                        node.tokens + toks, node.probability * win, node.answer_len + ln,
                    ))
    return _EnumResult(outcomes, expected_cost, expected_steps, expected_high)


def enumerate_outcomes(model: ModelSource, policy: Policy, prompt: Sequence | None = None,
                       max_len: int | None = None,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[Sequence, float]]:
    """Every complete sequence the policy can emit, with its exact
    probability. Probabilities sum to 1."""
    prompt_tokens = prompt.tokens if prompt is not None else ()
    result = _enumerate(model, policy, prompt_tokens, max_len, node_budget)
    vocab = model.vocabulary
    return [(vocab.sequence(toks), p) for toks, p in result.outcomes]


def _answer_matches(outcome_tokens, prompt_len: int, eos: TokenId, reference_tokens) -> bool:
    toks = outcome_tokens[prompt_len:]
    if toks and toks[-1] == eos:
        toks = toks[:-1]
    return toks == reference_tokens


def exact_correctness(model: ModelSource, policy: Policy, reference: ReferenceSequence,
                      prompt: Sequence | None = None, max_len: int | None = None,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Exact probability that the policy emits the reference answer (a
    trailing eos on the outcome is not part of the answer)."""
    prompt_tokens = prompt.tokens if prompt is not None else ()
    result = _enumerate(model, policy, prompt_tokens, max_len, node_budget)
    eos = model.vocabulary.eos_id
    return sum(
        p for toks, p in result.outcomes
        if _answer_matches(toks, len(prompt_tokens), eos, reference.tokens)
    )


def expected_cost(model: ModelSource, policy: Policy, prompt: Sequence | None = None,
                  max_len: int | None = None,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Probability-weighted forward passes under the engine's ledger
    convention: one pass per sampled token per trial."""
    prompt_tokens = prompt.tokens if prompt is not None else ()
    return _enumerate(model, policy, prompt_tokens, max_len, node_budget).expected_cost


def enumerate_sequences(model: ModelSource, prompt: Sequence | None = None,
                        max_answer_len: int = 16,
                        node_budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[Sequence, float]]:
    """All complete sequences under the raw model with their joint log
    probabilities, accumulated in generation order. The independent yardstick
    for beam-search optimality checks."""
    vocab = model.vocabulary
    eos = vocab.eos_id
    prompt_tokens = prompt.tokens if prompt is not None else ()
    out: list[tuple[Sequence, float]] = []
    stack = [(prompt_tokens, 0.0, 0)]
    nodes = 0
    while stack:
        tokens, lp, answer_len = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise EnumerationBudgetError(f"enumeration exceeded {node_budget} nodes")
        if answer_len >= max_answer_len or (answer_len and tokens[-1] == eos):
            out.append((vocab.sequence(tokens), lp))
            continue
        probs = model.next_distribution(tokens).probs
        for tok in np.flatnonzero(probs):
            tok = int(tok)
            stack.append((tokens + (tok,), lp + math.log(float(probs[tok])), answer_len + 1))
    return out


@dataclass(frozen=True)
class TheoremReport:
    """Exact dominance and cost numbers for one fixture.

    cost_bound is L*(1 + p*(n_max - 1)) with L the expected number of
    decision steps and p the expected multi-trial fraction, both computed by
    the same enumeration that produced expected_cost_cntp.
    """

    p_single_correct: float
    p_cntp_correct: float
    expected_cost_cntp: float
    cost_bound: float
    assumption1_holds: bool
    assumption2_note: str
    strict: bool
    expected_steps: float
    high_entropy_fraction: float
    n_max: int

    @property
    def dominance_holds(self) -> bool:
        if self.p_cntp_correct < self.p_single_correct - 1e-9:
            return False
        if self.strict:
            return self.p_cntp_correct > self.p_single_correct
        return True

    @property
    def cost_bound_holds(self) -> bool:
        return self.expected_cost_cntp <= self.cost_bound + 1e-9

    @property
    def below_max_trial_cost(self) -> bool:
        return self.expected_cost_cntp < self.expected_steps * self.n_max


@dataclass(frozen=True)
class Theorem1Fixture:
    model: ScriptedModel
    reference: ReferenceSequence
    config: DecodeConfig
    name: str = ""
    branch_style: str = "punct"


def derive_thresholds(low_entropies, high_entropies, n_max):
    """Pick (h_min, h_max) so declared regimes bind: every high entropy sits
    a clear margin above h_max (saturating to n_max trials even after the
    multiply-then-divide rounding in trial_count) and every low entropy a
    clear margin below h_min."""
    if high_entropies:
        h_max = min(high_entropies) - 0.05
    else:
        h_max = (max(low_entropies) if low_entropies else 0.0) + 1.5
    h_min = max(low_entropies) + 0.05 if low_entropies else 0.01
    if not 0 <= h_min < h_max:
        raise ConfigError(
            f"infeasible probability specification: derived h_min {h_min:.4f} "
            f"must stay below h_max {h_max:.4f}"
        )
    return h_min, h_max


def plan_vocabulary(width: int, branch_style: str,
                    extra_tokens: tuple[str, ...] = ()) -> Vocabulary:
    """Vocabulary for scripted plans: width content surfaces, the
    continuation style's terminators, any extra tokens, then eos last.

    punct style content tokens carry their own sentence punctuation, so
    every trial is a single token; continuation style letters are bare and
    stop only at an explicit terminator.
    """
    if branch_style not in ("punct", "continuation"):
        raise ValueError(f"unknown branch style {branch_style!r}")
    if not 2 <= width <= 26:
        raise ValueError("width must be in 2..26")
    letters = string.ascii_lowercase[:width]
    if branch_style == "punct":
        tokens = tuple(f"{c}." for c in letters)
    else:
        tokens = tuple(letters) + ("!", ".")
    tokens = tokens + extra_tokens + ("",)
    return Vocabulary(tokens, len(tokens) - 1)


def script_plan(vocab: Vocabulary, table: dict, plan, prefix: tuple[TokenId, ...],
                width: int, branch_style: str, rotate: int = 0):
    """Write one plan's rows into table under the given prefix.

    Each plan entry is (correct_probability, "low" | "high"). Low steps are
    two-point rows; high steps spread the remaining mass uniformly over the
    width-1 wrong tokens and must leave the correct continuation strictly
    dominant so its branch perplexity is strictly lowest once sampled. The
    full reference prefix ends in a forced-eos row. rotate offsets which
    token is correct at each step, so plans sharing a vocabulary need not
    share answers. Returns (reference_tokens, low_entropies,
    high_entropies), reference excluding the prefix. Raises ConfigError on
    an infeasible plan.
    """
    if not plan:
        raise ValueError("per-step plan must be non-empty")
    size = len(vocab)
    eos_id = vocab.eos_id
    bang_id, dot_id = (width, width + 1) if branch_style == "continuation" else (None, None)

    def row(pairs) -> Distribution:
        arr = np.zeros(size)
        for tok, p in pairs:
            arr[tok] += p
        return Distribution(arr)

    reference: list[TokenId] = []
    low_entropies: list[float] = []
    high_entropies: list[float] = []

    for step, (p_correct, regime) in enumerate(plan):
        if regime not in ("low", "high"):
            raise ValueError(f"step {step}: regime must be 'low' or 'high'")
        if not 0 < p_correct <= 1:
            raise ConfigError(f"infeasible probability specification: step {step} "
                              f"correct probability {p_correct} outside (0, 1]")
        correct = (step + rotate) % width
        key = prefix + tuple(reference)
        if regime == "low":
            filler = (correct + 1) % width
            pairs = [(correct, p_correct)]
            if p_correct < 1:
                pairs.append((filler, 1 - p_correct))
            dist = row(pairs)
            table[key] = dist
            low_entropies.append(entropy(dist))
            reference.append(correct)
        else:
            others = [t for t in range(width) if t != correct]
            share = (1 - p_correct) / len(others)
            floor = 0.9 * p_correct if branch_style == "continuation" else p_correct
            if share >= floor:
                raise ConfigError(
                    f"infeasible probability specification: step {step} correct "
                    f"probability {p_correct} does not dominate the {len(others)} "
                    f"alternatives at {share:.4f} each"
                )
            dist = row([(correct, p_correct)] + [(t, share) for t in others])
            table[key] = dist
            high_entropies.append(entropy(dist))
            if branch_style == "punct":
                reference.append(correct)
            else:
                # Correct letter: high-probability forced terminator. Wrong
                # letters: forced into one low-joint-probability branch.
                table[key + (correct,)] = row([(bang_id, 0.9), (dot_id, 0.1)])
                for t in others:
                    table[key + (t,)] = row([(dot_id, 1.0)])
                reference.extend((correct, bang_id))

    # After the full reference the model must stop; so does every wrong turn.
    table[prefix + tuple(reference)] = row([(eos_id, 1.0)])
    return tuple(reference), low_entropies, high_entropies


def validate_regimes(low_entropies, high_entropies, config: DecodeConfig) -> None:
    """The declared regimes must bind exactly under the config; a plan that
    cannot satisfy them is rejected rather than silently bent."""
    for h in low_entropies:
        if trial_count(h, config) != 1:
            raise ConfigError(f"infeasible probability specification: low-regime "
                              f"entropy {h:.4f} maps to {trial_count(h, config)} trials")
    for h in high_entropies:
        if trial_count(h, config) != config.n_max:
            raise ConfigError(f"infeasible probability specification: high-regime "
                              f"entropy {h:.4f} maps to {trial_count(h, config)} trials")


def build_theorem1_fixture(per_step, *, n_max: int = 10, width: int = 8,
                           branch_style: str = "punct", name: str = "") -> Theorem1Fixture:
    """Construct a scripted fixture from a per-step plan of
    (correct_probability, "low" | "high") entries.

    punct style: every content token carries sentence punctuation, so trials
    are single tokens and the correct token's strictly-highest probability
    makes it the strictly-lowest-perplexity candidate.

    continuation style: high steps emit a letter plus a forced terminator;
    the correct letter's follow-up has high probability while every wrong
    letter is forced into a single low-joint-probability branch, again
    giving the correct continuation strictly the lowest perplexity.

    Thresholds are derived from the actual row entropies; the decode config
    samples untempered and untruncated so enumeration matches the selection
    formula exactly. Any wrong token routes to the default row, which ends
    the sequence. Raises ConfigError on an infeasible plan.
    """
    vocab = plan_vocabulary(width, branch_style)
    table: dict[tuple[TokenId, ...], Distribution] = {}
    reference, low_entropies, high_entropies = script_plan(
        vocab, table, per_step, (), width, branch_style
    )
    h_min, h_max = derive_thresholds(low_entropies, high_entropies, n_max)
    config = validate_config(DecodeConfig(
        h_min=h_min, h_max=h_max, n_max=n_max, temperature=1.0, top_p=1.0,
    ))
    validate_regimes(low_entropies, high_entropies, config)
    eos_row = table[reference]
    model = ScriptedModel(vocab, table, eos_row)
    ref = ReferenceSequence(reference, vocab.text(reference))
    return Theorem1Fixture(model, ref, config, name=name, branch_style=branch_style)


def _assumption1_survey(fixture: Theorem1Fixture, node_budget: int):
    """Walk the reference path and verify that at every multi-trial step the
    correct continuation is present and has strictly the lowest perplexity
    among all candidate branches."""
    model, config = fixture.model, fixture.config
    eos = model.vocabulary.eos_id
    stops = stop_mask(model.vocabulary, config.punctuation)
    reference = fixture.reference.tokens
    counter = [0]
    holds = True
    any_multi = False
    correct_probs: list[float] = []
    prefix: tuple[TokenId, ...] = ()
    pos = 0
    while pos < len(reference):
        dist = model.next_distribution(prefix)
        n = trial_count(confidence(dist, config.confidence_measure), config)
        if n == 1:
            prefix += (reference[pos],)
            pos += 1
            continue
        any_multi = True
        branches = _enumerate_branch_set(
            model, config, prefix, pos, stops, eos, counter, node_budget
        )
        correct_branch = None
        for toks, q, ppl, ln in branches:
            if toks == reference[pos : pos + ln]:
                correct_branch = (toks, q, ppl, ln)
                break
        if correct_branch is None:
            holds = False
            break
        _, _, correct_ppl, ln = correct_branch
        correct_probs.append(float(dist.probs[reference[pos]]))
        for toks, _, ppl, _ in branches:
            if toks != correct_branch[0] and not ppl > correct_ppl:
                holds = False
        prefix += correct_branch[0]
        pos += ln
    return holds, any_multi, correct_probs


def check_theorem1(fixture: Theorem1Fixture,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> TheoremReport:
    """Exact dominance and cost report for one fixture. Violations are
    reported through the returned fields, never raised."""
    config = fixture.config
    single = _enumerate(fixture.model, SingleSamplePolicy(config), (), None, node_budget)
    adaptive = _enumerate(fixture.model, CntpPolicy(config), (), None, node_budget)
    eos = fixture.model.vocabulary.eos_id
    ref = fixture.reference.tokens
    p_single = sum(p for toks, p in single.outcomes if _answer_matches(toks, 0, eos, ref))
    p_cntp = sum(p for toks, p in adaptive.outcomes if _answer_matches(toks, 0, eos, ref))
    steps = adaptive.expected_steps
    frac_high = adaptive.expected_high / steps if steps else 0.0
    bound = steps * (1.0 + frac_high * (config.n_max - 1))
    holds, any_multi, correct_probs = _assumption1_survey(fixture, node_budget)
    if correct_probs:
        note = ("multi-trial steps see correct-candidate probabilities "
                + ", ".join(f"{p:.3f}" for p in correct_probs)
                + "; selection succeeds once any trial draws the candidate")
    else:
        note = "no multi-trial step on the reference path"
    return TheoremReport(
        p_single_correct=p_single,
        p_cntp_correct=p_cntp,
        expected_cost_cntp=adaptive.expected_cost,
        cost_bound=bound,
        assumption1_holds=holds,
        assumption2_note=note,
        strict=any_multi and p_single < 1.0,
        expected_steps=steps,
        high_entropy_fraction=frac_high,
        n_max=config.n_max,
    )


# The bundled fixture family: shapes cover lone high steps, mixed plans,
# all-low equality cases, and both branch styles.
BUNDLED_FIXTURE_SPECS = (
    ("case_a", [(0.9, "low"), (0.3, "high"), (0.9, "low")], 10, 8, "punct"),
    ("case_b", [(0.3, "high")], 5, 8, "punct"),
    ("case_c", [(0.95, "low"), (0.95, "low")], 10, 8, "punct"),
    ("case_d", [(0.25, "high"), (0.9, "low")], 10, 8, "punct"),
    ("case_e", [(0.9, "low"), (0.2, "high"), (0.3, "high"), (0.9, "low")], 8, 8, "punct"),
    ("case_f", [(0.5, "high")], 3, 8, "punct"),
    ("case_g", [(0.9, "low"), (0.9, "low"), (0.3, "high")], 10, 6, "punct"),
    ("case_h", [(0.35, "high"), (0.35, "high")], 6, 8, "punct"),
    ("case_i", [(0.98, "low")], 10, 4, "punct"),
    ("case_j", [(0.9, "low"), (0.15, "high"), (0.9, "low")], 10, 8, "punct"),
    ("case_k", [(0.9, "low"), (0.3, "high"), (0.9, "low")], 10, 8, "continuation"),
    ("case_l", [(0.4, "high"), (0.9, "low")], 6, 8, "continuation"),
)


def bundled_fixtures() -> list[Theorem1Fixture]:
    return [
        build_theorem1_fixture(plan, n_max=n_max, width=width, branch_style=style, name=name)
        for name, plan, n_max, width, style in BUNDLED_FIXTURE_SPECS
    ]


def write_fixture(fixture: Theorem1Fixture, model_path: str) -> None:
    """Write the .model file plus .ref and .config.json sidecars."""
    save_scripted_model(fixture.model, model_path)
    base = model_path[:-6] if model_path.endswith(".model") else model_path
    with open(base + ".ref", "w", encoding="utf-8") as fh:
        json.dump({"tokens": list(fixture.reference.tokens)}, fh)
        fh.write("\n")
    with open(base + ".config.json", "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(fixture.config), fh, indent=1)
        fh.write("\n")


def load_fixture(model_path: str, ref_path: str | None = None,
                 config_path: str | None = None, name: str = "") -> Theorem1Fixture:
    base = model_path[:-6] if model_path.endswith(".model") else model_path
    model = load_scripted_model(model_path)
    ref_path = ref_path or base + ".ref"
    config_path = config_path or base + ".config.json"
    try:
        with open(ref_path, "r", encoding="utf-8") as fh:
            ref_tokens = tuple(json.load(fh)["tokens"])
    except (OSError, ValueError, KeyError) as exc:
        raise ModelFileError(f"{ref_path}: bad reference file: {exc}") from exc
    with open(config_path, "r", encoding="utf-8") as fh:
        config = config_from_dict(json.load(fh), source=config_path)
    reference = ReferenceSequence(ref_tokens, model.vocabulary.text(ref_tokens))
    return Theorem1Fixture(model, reference, config, name=name or model_path)
