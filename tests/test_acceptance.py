"""Acceptance gate: one test per release criterion, each printing a summary
line (collected in the terminal summary) and failing hard when its bound is
not met. Tolerances are pinned here and nowhere looser."""

from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from cntp import (
    CntpPolicy,
    DecodeConfig,
    Distribution,
    ReferenceSequence,
    Rng,
    Sequence,
    SingleSamplePolicy,
    beam_search_decode,
    check_theorem1,
    cntp_decode,
    enumerate_sequences,
    exact_correctness,
    greedy_decode,
    lane_decode,
    prepare_sampling_dist,
    sample_token,
    stochastic_decode,
    trial_count,
)
from cntp.harness import RunRecord, replay, run_one, run_suite
from cntp.theory import bundled_fixtures

PROMPT = Sequence((), "")
MC_RUNS = 50_000
MC_BATCH = 1_000  # lanes decoded at once, which bounds the fixture's memory


def _mc_correctness(fixture, runs=MC_RUNS):
    """The share of seeds 0..runs-1 whose cntp decode gives the reference,
    the seeds decoded MC_BATCH at a time as lanes (lane_decode equals
    cntp_decode at each seed; see tests/test_lanes.py)."""
    eos = fixture.model.vocabulary.eos_id
    ref = fixture.reference.tokens
    policy = CntpPolicy(fixture.config)
    hits = 0
    for lo in range(0, runs, MC_BATCH):
        seeds = range(lo, min(runs, lo + MC_BATCH))
        for out in lane_decode(fixture.model, [(PROMPT, seed) for seed in seeds], policy):
            toks = out.sequence.tokens
            if toks and toks[-1] == eos:
                toks = toks[:-1]
            hits += toks == ref
    return hits / runs


@pytest.fixture(scope="session")
def mc_rates(bundled):
    """Monte Carlo full-sequence correctness of the engine on every bundled
    fixture, 50k seeded runs each; shared by criteria 3 and 4."""
    return {fixture.name: _mc_correctness(fixture) for fixture in bundled}


def test_criterion_01_success_dominance(criterion_report):
    start = time.perf_counter()
    fixtures = bundled_fixtures()
    reports = {f.name: check_theorem1(f) for f in fixtures}
    elapsed = time.perf_counter() - start

    no_high_step = {"case_c", "case_i"}
    high_step = {name for name, r in reports.items() if r.high_entropy_fraction > 0}
    assert high_step == set(reports) - no_high_step
    dominated = all(
        r.p_cntp_correct >= r.p_single_correct - 1e-9 for r in reports.values()
    )
    strict = all(
        reports[name].p_cntp_correct > reports[name].p_single_correct
        for name in high_step
    )
    ok = dominated and strict and len(fixtures) >= 10 and elapsed < 60.0
    criterion_report(
        1, ok,
        f"exact dominance on {len(fixtures)}/12 fixtures, strict on all "
        f"{len(high_step)} high-entropy-step fixtures, verified in {elapsed:.2f}s",
    )


def test_criterion_02_expected_cost_bound(criterion_report, bundled, bundled_reports):
    punct = [f for f in bundled if f.branch_style == "punct"]
    bound_ok = below_ok = 0
    worst_slack = float("inf")
    for fixture in punct:
        r = bundled_reports[fixture.name]
        bound_ok += r.expected_cost_cntp <= r.cost_bound + 1e-9
        below_ok += r.expected_cost_cntp < r.expected_steps * r.n_max
        worst_slack = min(worst_slack,
                          r.expected_steps * r.n_max - r.expected_cost_cntp)
    ok = bound_ok == len(punct) == 10 and below_ok == len(punct)
    criterion_report(
        2, ok,
        f"cost ≤ L(1+p(n_max-1)) within 1e-9 on {bound_ok}/{len(punct)} "
        f"single-token-branch fixtures, all strictly below L·n_max "
        f"(min margin {worst_slack:.3f} passes)",
    )


def test_criterion_03_per_step_selection_formula(criterion_report, bundled_reports,
                                                 mc_rates):
    exact = bundled_reports["case_b"].p_cntp_correct
    closed_form = 1 - 0.7**5
    mc = mc_rates["case_b"]
    sigma = math.sqrt(closed_form * (1 - closed_form) / MC_RUNS)
    ok = (abs(exact - closed_form) <= 1e-12
          and round(exact, 5) == 0.83193
          and abs(mc - exact) <= 3 * sigma)
    criterion_report(
        3, ok,
        f"isolated high step p=0.3, n_max=5: exact {exact:.6f} = 1-0.7^5, "
        f"50k-seed Monte Carlo {mc:.5f} within 3σ (σ={sigma:.5f})",
    )


def test_criterion_04_engine_matches_oracle(criterion_report, bundled,
                                            bundled_reports, mc_rates):
    worst_z = 0.0
    misses = []
    for fixture in bundled:
        exact = bundled_reports[fixture.name].p_cntp_correct
        mc = mc_rates[fixture.name]
        sigma = math.sqrt(exact * (1 - exact) / MC_RUNS)
        z = abs(mc - exact) / sigma if sigma else 0.0
        worst_z = max(worst_z, z)
        if z > 3:
            misses.append(f"{fixture.name}: mc={mc:.5f} exact={exact:.5f} z={z:.2f}")
    criterion_report(
        4, not misses,
        f"50k-run Monte Carlo matches exact correctness on 12/12 fixtures "
        f"(worst |z| = {worst_z:.2f})" + ("; " + "; ".join(misses) if misses else ""),
    )


def test_criterion_05_trial_count_suite(criterion_report):
    config = DecodeConfig(h_min=0.01, h_max=1.5, n_max=10)
    negative = dataclasses.replace(config, trial_scaling="negative")
    grid = np.linspace(0.0, 2.0, 1000)
    counts = [trial_count(float(h), config) for h in grid]
    ok = (trial_count(0.0, config) == 1
          and trial_count(2.0, config) == 10
          and trial_count(0.755, config) == 5
          and trial_count(0.2, negative) == 9
          and all(a <= b for a, b in zip(counts, counts[1:]))
          and all(1 <= c <= 10 for c in counts))
    criterion_report(
        5, ok,
        "trial counts: H=0→1, H=2.0→10, H=0.755→5, negative scaling H=0.2→9, "
        "monotone over a 1000-point grid",
    )


def test_criterion_06_decoder_degeneracies(criterion_report, random_model_factory):
    rng = np.random.default_rng(7)
    agreements = 0
    n_models = 100
    for _ in range(n_models):
        model = random_model_factory(rng, width=4, depth=2)
        seed = int(rng.integers(2**63))
        frozen = DecodeConfig(temperature=0.0, global_cap=6, seed=seed)
        sampled = DecodeConfig(temperature=0.9, top_p=0.85, n_max=1,
                               global_cap=6, seed=seed)
        greedy = greedy_decode(model, PROMPT, frozen)
        same = (
            stochastic_decode(model, PROMPT, frozen).sequence == greedy.sequence
            and beam_search_decode(model, PROMPT, frozen, 1).sequence == greedy.sequence
            and cntp_decode(model, PROMPT, sampled).sequence
            == stochastic_decode(model, PROMPT, sampled).sequence
        )
        agreements += same
    criterion_report(
        6, agreements == n_models,
        f"T=0 stochastic ≡ greedy ≡ B=1 beam and n_max=1 ≡ stochastic on "
        f"{agreements}/{n_models} random scripted models",
    )


def test_criterion_07_beam_search_optimality(criterion_report, random_model_factory):
    rng = np.random.default_rng(20260819)
    exact_hits = 0
    n_models = 20
    config = DecodeConfig(global_cap=3)
    for _ in range(n_models):
        model = random_model_factory(rng, width=3, depth=3)
        leaves = enumerate_sequences(model, max_answer_len=3)
        best_tokens = min(leaves, key=lambda leaf: (-leaf[1], leaf[0].tokens))[0].tokens
        wide = beam_search_decode(model, PROMPT, config, len(leaves))
        exact_hits += wide.sequence.tokens == best_tokens
    criterion_report(
        7, exact_hits == n_models,
        f"full-width beam equals the enumeration argmax joint-probability "
        f"sequence on {exact_hits}/{n_models} random depth-3 models",
    )


def test_criterion_08_synthetic_suite_dominance(criterion_report, suite_bundle):
    model, tasks, config = suite_bundle
    vocab = model.vocabulary
    stoch_config = dataclasses.replace(config, temperature=0.6)
    cntp_config = dataclasses.replace(config, temperature=1.2)
    seeds = [0, 1, 2, 3, 4]

    stoch_ps, cntp_ps = [], []
    for task in tasks:
        prompt = vocab.sequence(vocab.encode(task.prompt))
        reference = ReferenceSequence(vocab.encode(task.reference_answer),
                                      task.reference_answer)
        stoch_ps.append(exact_correctness(model, SingleSamplePolicy(stoch_config),
                                          reference, prompt))
        cntp_ps.append(exact_correctness(model, CntpPolicy(cntp_config),
                                         reference, prompt))
    gap = sum(cntp_ps) / len(tasks) - sum(stoch_ps) / len(tasks)
    denominator = len(tasks) ** 2 * len(seeds)
    sigma = math.sqrt(sum(p * (1 - p) for p in stoch_ps) / denominator
                      + sum(p * (1 - p) for p in cntp_ps) / denominator)

    stoch = run_suite(model, tasks, "stochastic", stoch_config, seeds).aggregate
    cntp = run_suite(model, tasks, "cntp", cntp_config, seeds).aggregate
    observed = cntp.accuracy_mean - stoch.accuracy_mean
    cost_ok = cntp.forward_passes_mean < config.n_max * stoch.forward_passes_mean
    ok = observed >= gap - 3 * sigma and gap > 0 and cost_ok
    criterion_report(
        8, ok,
        f"oracle gap {gap:.4f}, observed {observed:.4f} (3σ={3 * sigma:.4f}); "
        f"cntp passes {cntp.forward_passes_mean:.2f} < n_max × stochastic "
        f"{config.n_max * stoch.forward_passes_mean:.2f}",
    )


def test_criterion_09_determinism_and_replay(criterion_report, suite_bundle,
                                             kgram_bundle):
    smodel, stasks, sconfig = suite_bundle
    kmodel, ktasks, kconfig = kgram_bundle

    serial = run_suite(kmodel, ktasks[:5], "stochastic", kconfig, [0, 1])
    parallel = run_suite(kmodel, ktasks[:5], "stochastic", kconfig, [0, 1], workers=4)
    aggregates_match = serial.aggregate == parallel.aggregate

    replayed = 0
    records = list(serial.records)
    records += run_suite(smodel, stasks[:5], "cntp", sconfig, [7]).records
    records.append(run_one(kmodel, ktasks[0], "sc:3", kconfig)[0])
    for record in records:
        model = kmodel if record.task_id.startswith("kg") else smodel
        replay(record, model)  # raises ReplayMismatchError on any drift
        wire = json.dumps(record.to_dict(), sort_keys=True)
        back = RunRecord.from_dict(json.loads(wire))
        assert json.dumps(back.to_dict(), sort_keys=True) == wire
        replayed += 1
    ok = aggregates_match and replayed == len(records)
    criterion_report(
        9, ok,
        f"{replayed}/{len(records)} records replayed bit-identically across "
        f"three strategies; parallel and serial aggregates equal",
    )


def test_criterion_10_sampling_statistics(criterion_report):
    dist = Distribution((0.5, 0.3, 0.15, 0.05))
    config = DecodeConfig(temperature=1.0, top_p=0.9)
    prepared = prepare_sampling_dist(dist, config)
    expected = (0.5263, 0.3158, 0.1579, 0.0)
    nucleus_ok = all(
        abs(float(prepared.probs[i]) - expected[i]) <= 1e-4 for i in range(4)
    )

    draws = 100_000
    rng = Rng(2026)
    counts = [0, 0, 0, 0]
    for _ in range(draws):
        counts[sample_token(prepared, rng)] += 1
    freq_ok = counts[3] == 0
    worst_z = 0.0
    for tok in range(3):
        q = float(prepared.probs[tok])
        sigma = math.sqrt(q * (1 - q) / draws)
        z = abs(counts[tok] / draws - q) / sigma
        worst_z = max(worst_z, z)
        freq_ok = freq_ok and z <= 3
    criterion_report(
        10, nucleus_ok and freq_ok,
        f"nucleus (0.5,0.3,0.15,0.05)@0.9 within 1e-4; 100k draws within 3σ "
        f"per token (worst |z| = {worst_z:.2f}), truncated token never drawn",
    )
