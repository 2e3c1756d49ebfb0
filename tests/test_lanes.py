"""Lockstep lanes: lane_decode against the scalar policy_decode, run_suite's
per-seed lane decodes against the scalar strategies, and the batched keyed
draws against Rng streams."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cntp import (
    CntpPolicy,
    DecodeConfig,
    DecodeOutcome,
    Distribution,
    ModelServer,
    RemoteModel,
    Rng,
    ScriptedModel,
    Sequence,
    SingleSamplePolicy,
    UniformMultisamplePolicy,
    Vocabulary,
    derive_seed,
    keyed_uniforms,
    lane_decode,
)
from cntp import baselines, engine, models, sampling
from cntp.baselines import path_seeds
from cntp.core import load_config
from cntp.engine import TRIAL_CHUNK, policy_decode
from cntp.harness import bundled_path, load_tasks, runner
from cntp.harness.runner import (STRATEGIES, _decode_lanes, parse_strategy, resolve_model,
                                 run_one, run_suite)

from conftest import make_random_scripted


def _hexed(x):
    return None if x is None else float.hex(x)


def _exact(outcome):
    """An outcome with every float spelled exactly."""
    trace = [(_hexed(t.confidence), t.n_trials, _hexed(t.chosen_ppl), _hexed(t.chosen_prob))
             for t in outcome.per_step_trace]
    return outcome.sequence.tokens, outcome.cost, trace


def _exact_result(result):
    """A strategy result, a DecodeOutcome or a voted (answer, ledger) pair."""
    return _exact(result) if isinstance(result, DecodeOutcome) else result


def _assert_lanes_match(model, prompts, seeds, policy):
    """Each lane of one lane_decode equals policy_decode at its seed."""
    lanes = lane_decode(model, list(zip(prompts, seeds)), policy)
    assert len(lanes) == len(prompts)
    for prompt, seed, lane in zip(prompts, seeds, lanes):
        scalar = policy_decode(model, prompt,
                               dataclasses.replace(policy, config=policy.config.with_seed(seed)))
        assert _exact(lane) == _exact(scalar)
    return lanes


def _bundled(name, global_cap=None):
    model = resolve_model(f"bundled:{name}")
    tasks = load_tasks(bundled_path(f"{name}.tasks"))
    config = load_config(bundled_path(f"{name}.config.json"))
    if global_cap is not None:
        config = dataclasses.replace(config, global_cap=global_cap)
    vocab = model.vocabulary
    return model, tasks, [vocab.sequence(vocab.encode(t.prompt)) for t in tasks], config


@pytest.mark.parametrize("strategy", ["stochastic", "cntp", "sc:5", "cntp_sc:5",
                                      "best_of_n:5", "greedy", "beam:4"])
def test_suite_lanes_equal_the_scalar_strategies(strategy):
    """For every strategy on the bundled suite at suite seeds 0-2, what
    run_suite decodes per seed equals each task's scalar run, and each lane
    of the seeded ones equals policy_decode at its path seed."""
    model, tasks, prompts, config = _bundled("suite")
    root, width = parse_strategy(strategy)
    spec = STRATEGIES[root]
    for suite_seed in (0, 1, 2):
        configs = [config.with_seed(derive_seed(suite_seed, i)) for i in range(len(tasks))]
        results = _decode_lanes(model, spec, width, tasks, prompts, configs)
        for task, prompt, cfg, result in zip(tasks, prompts, configs, results):
            scalar = spec.run(model, prompt, cfg, width, task.extractor)
            assert _exact_result(result) == _exact_result(scalar)
        if spec.policy is not None:
            paths = width if spec.reduce else 1
            seeds = [seed for cfg in configs
                     for seed in (path_seeds([cfg.seed], width) if spec.reduce else [cfg.seed])]
            _assert_lanes_match(model, [p for p in prompts for _ in range(paths)], seeds,
                                spec.policy(config))


def test_a_batch_scores_each_distinct_best_of_n_outcome_once(monkeypatch):
    """Grouped lanes hand best-of-N one shared outcome for many paths, and
    lowest_whole_ppl scores each distinct outcome of a batch once: the
    3 000 paths of the bundled suite at 12 seeds are a few hundred."""
    model, tasks, prompts, config = _bundled("suite")
    scored, outcomes = [], []
    score = baselines.branch_score
    monkeypatch.setattr(baselines, "branch_score", lambda probs: scored.append(1) or score(probs))
    decode = runner.lane_decode
    monkeypatch.setattr(runner, "lane_decode",
                        lambda *args: outcomes.extend(out := decode(*args)) or out)
    root, width = parse_strategy("best_of_n:5")
    configs = [config.with_seed(derive_seed(seed, i))
               for seed in range(12) for i in range(len(tasks))]
    _decode_lanes(model, STRATEGIES[root], width, tasks, prompts, configs)
    assert len(outcomes) == 3000
    assert len(scored) == len({id(outcome) for outcome in outcomes}) < len(outcomes) / 4


@pytest.mark.parametrize("policy", [SingleSamplePolicy, CntpPolicy])
def test_kgram_lanes_at_cap_128_equal_scalar_decodes(policy):
    model, _, prompts, config = _bundled("kgram", global_cap=128)
    lanes = _assert_lanes_match(model, prompts, [derive_seed(5, i) for i in range(len(prompts))],
                                policy(config))
    assert all(len(lane.sequence.tokens) > len(prompt.tokens)
               for lane, prompt in zip(lanes, prompts))
    if policy is CntpPolicy:
        assert sum(lane.cost.high_entropy_steps for lane in lanes) > 0


def test_lanes_on_random_models_and_at_zero_temperature_equal_scalar_decodes():
    """Random scripted models under every policy, at T=0 too, where single
    steps draw nothing and multi-trial steps still draw; the lane count
    straddles NUMPY_DRAWS, so both draw paths run."""
    rng = np.random.default_rng(15)
    multi = 0
    for m in range(6):
        model = make_random_scripted(rng, width=3, depth=4, eos_floor=0.02)
        for temperature in (0.0, 0.9):
            config = DecodeConfig(h_min=0.3, h_max=1.0, n_max=4, branch_cap=3, global_cap=7,
                                  top_p=0.95, punctuation=frozenset(), temperature=temperature)
            for count in (3, sampling.NUMPY_DRAWS + 5):
                prompts = [Sequence((), "")] * count
                seeds = [derive_seed(m, i) for i in range(count)]
                for policy in (SingleSamplePolicy(config), CntpPolicy(config),
                               UniformMultisamplePolicy(config, 3)):
                    lanes = _assert_lanes_match(model, prompts, seeds, policy)
                    multi += sum(lane.cost.high_entropy_steps for lane in lanes)
    assert multi > 0


def test_a_step_past_trial_chunk_matches_the_scalar_decode(suite_bundle):
    """A step of more trials than TRIAL_CHUNK grows them chunk by chunk, and
    still keeps the lowest (ppl, trial index) of all of them."""
    model, tasks, config = suite_bundle
    vocab = model.vocabulary
    prompts = [vocab.sequence(vocab.encode(t.prompt)) for t in tasks[:4]]
    policy = UniformMultisamplePolicy(config, TRIAL_CHUNK * 2 + 3)
    lanes = _assert_lanes_match(model, prompts, [11, 12, 13, 2**64 - 1], policy)
    assert all(t.n_trials > TRIAL_CHUNK for lane in lanes for t in lane.per_step_trace)


def test_lanes_without_any_lane_return_nothing(suite_bundle):
    model, _, config = suite_bundle
    assert lane_decode(model, [], CntpPolicy(config)) == []


def _assert_lanes_through_a_server_equal_local_decodes():
    model, _, prompts, config = _bundled("kgram", global_cap=48)
    prompts = prompts[:8]
    seeds = [derive_seed(3, i) for i in range(len(prompts))]
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        for policy in (SingleSamplePolicy(config), CntpPolicy(config)):
            over_wire = lane_decode(remote, list(zip(prompts, seeds)), policy)
            for prompt, seed, lane in zip(prompts, seeds, over_wire):
                scalar = policy_decode(model, prompt, dataclasses.replace(
                    policy, config=policy.config.with_seed(seed)))
                assert _exact(lane) == _exact(scalar)


def test_lanes_through_a_server_equal_local_decodes():
    """k-gram lanes through a ModelServer, which gets each step's lanes and
    each round's trials as one batch of slots and names their rows by id,
    equal the local scalar decodes."""
    _assert_lanes_through_a_server_equal_local_decodes()


def test_lanes_through_a_server_whose_slot_table_rolls_over(monkeypatch):
    """With a 5-slot table, cleared by most batches of a decode, the lanes
    still equal the local scalar decodes."""
    monkeypatch.setattr(models, "SLOT_CAP", 5)
    sent, sizes = [], []
    ask = RemoteModel._ask_ids

    def recorded(self, batch, line):
        sent.append(json.loads(line))
        rows = ask(self, batch, line)
        sizes.append(self._table_size)
        return rows

    monkeypatch.setattr(RemoteModel, "_ask_ids", recorded)
    _assert_lanes_through_a_server_equal_local_decodes()
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # cleared
    assert any(ref >= 0 for request in sent for ref in request["slots"])


def _grouped(prompts, count=200):
    """count lanes of each prompt, the prompts in turn, so that each
    prompt's lanes start as one group and its seeds run apart."""
    return [prompt for _ in range(count) for prompt in prompts], \
        [derive_seed(17, i) for i in range(count * len(prompts))]


class _RowCount(models.ModelSource):
    """A model that counts the cursors it reads in batches."""

    def __init__(self, inner):
        self.inner, self.vocabulary, self.rows = inner, inner.vocabulary, 0

    def start(self, prefix):
        return self.inner.start(prefix)

    def advance(self, cursors, tokens):
        return self.inner.advance(cursors, tokens)

    def next_distribution(self, prefix):
        return self.inner.next_distribution(prefix)

    def next_distributions(self, cursors):
        self.rows += len(cursors)
        return self.inner.next_distributions(cursors)


def _policies(config):
    cold = config._with("temperature", 0.0)
    return [policy(c) for c in (config, cold) for policy in (
        SingleSamplePolicy, CntpPolicy, lambda c: UniformMultisamplePolicy(c, 3))]


def test_grouped_lanes_on_the_suite_equal_scalar_decodes():
    """200 seeds of each of three suite prompts under every policy, at T=0
    too: each prompt's lanes share their rows, draws and advances while
    they agree, and every lane equals policy_decode at its seed."""
    model, _, prompts, config = _bundled("suite")
    prompts, seeds = _grouped(prompts[:3])
    counted = _RowCount(model)
    for policy in _policies(config):
        lanes = _assert_lanes_match(model, prompts, seeds, policy)
        # The scalar decodes read through next_distributions too: count the
        # lanes' reads alone.
        counted.rows = 0
        assert lane_decode(counted, list(zip(prompts, seeds)), policy) == lanes
        steps = sum(lane.cost.total_steps for lane in lanes)
        # Grouped, a step reads one row per distinct prefix, not per lane.
        assert counted.rows * 5 < steps, (counted.rows, steps)


def test_grouped_lanes_past_trial_chunk_equal_scalar_decodes():
    """Groups of lanes whose steps run more trials than TRIAL_CHUNK: every
    step under a uniform policy, the uncertain steps under cntp at an n_max
    past it."""
    model, _, prompts, config = _bundled("suite")
    prompts, seeds = _grouped(prompts[3:5], 40)
    for temperature in (1.0, 0.0):
        cfg = dataclasses.replace(config, temperature=temperature, n_max=TRIAL_CHUNK + 6)
        lanes = _assert_lanes_match(model, prompts, seeds,
                                    UniformMultisamplePolicy(cfg, cfg.n_max))
        assert all(t.n_trials > TRIAL_CHUNK for lane in lanes for t in lane.per_step_trace)
        lanes = _assert_lanes_match(model, prompts, seeds, CntpPolicy(cfg))
        assert any(t.n_trials > TRIAL_CHUNK for lane in lanes for t in lane.per_step_trace)


def test_grouped_lanes_on_kgram_and_random_models_equal_scalar_decodes():
    kgram, _, kprompts, kconfig = _bundled("kgram", global_cap=12)
    rng = np.random.default_rng(18)
    scripted = make_random_scripted(rng, width=3, depth=4, eos_floor=0.02)
    sconfig = DecodeConfig(h_min=0.3, h_max=1.0, n_max=4, branch_cap=3, global_cap=7,
                           top_p=0.95, punctuation=frozenset())
    sprompts = [Sequence(t, "") for t in ((), (0,), (1, 2))]
    multi = 0
    for model, prompts, config in ((kgram, kprompts[:3], kconfig),
                                   (scripted, sprompts, sconfig)):
        prompts, seeds = _grouped(prompts)
        for policy in _policies(config):
            lanes = _assert_lanes_match(model, prompts, seeds, policy)
            multi += sum(lane.cost.high_entropy_steps for lane in lanes)
    assert multi > 0


def test_grouped_lanes_through_a_server_equal_local_decodes():
    """200 seeds of each of three k-gram prompts through a wire-5 server:
    each group's row goes as one branch of a batch."""
    model, _, prompts, config = _bundled("kgram", global_cap=12)
    prompts, seeds = _grouped(prompts[:3])
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        for policy in (SingleSamplePolicy(config), CntpPolicy(config)):
            over_wire = lane_decode(remote, list(zip(prompts, seeds)), policy)
            for prompt, seed, lane in zip(prompts, seeds, over_wire):
                scalar = policy_decode(model, prompt, dataclasses.replace(
                    policy, config=policy.config.with_seed(seed)))
                assert _exact(lane) == _exact(scalar)


@pytest.mark.parametrize("workers", [1, 2])
def test_all_seed_suites_equal_run_one_at_each_run(workers):
    """run_suite decodes every seed of a strategy in one batch (or one per
    worker); each record equals run_one's at its (task, seed), wall_time
    and timestamp aside."""
    model, tasks, _, config = _bundled("suite")
    tasks = tasks[:10]
    seeds = [4, 0, 9]
    for strategy in ("greedy", "stochastic", "cntp", "beam:2", "sc:3", "cntp_sc:3",
                     "best_of_n:3"):
        records = run_suite(model, tasks, strategy, config, seeds, workers=workers).records
        expected = [run_one(model, task, strategy, config.with_seed(derive_seed(seed, i)),
                            record_seed=seed)[0]
                    for seed in seeds for i, task in enumerate(tasks)]
        assert [_comparable(r) for r in records] == [_comparable(r) for r in expected]


def _comparable(record):
    data = record.to_dict()
    del data["wall_time"], data["timestamp"]
    return data


_SEEDS = st.one_of(st.integers(2**64 - 4096, 2**64 - 1), st.integers(0, 2**64 - 1))
_PARTS = st.integers(4096, 2**64 - 1) | st.integers(0, 4095)


@st.composite
def _streams(draw):
    """Seeds, and a key whose parts are shared or one per stream."""
    seeds = draw(st.lists(_SEEDS, min_size=1, max_size=2 * sampling.NUMPY_DRAWS))
    per_stream = st.lists(_PARTS, min_size=len(seeds), max_size=len(seeds))
    return seeds, tuple(draw(st.lists(_PARTS | per_stream, max_size=3)))


@settings(max_examples=80, deadline=None)
@given(_streams(), st.integers(0, 5))
def test_keyed_uniforms_equal_rng_streams(streams, draws):
    """Batched draws equal each stream's own sequence, on both sides of
    NUMPY_DRAWS, for key parts past the premixed table and seeds near 2**64."""
    seeds, key = streams
    bases = [derive_seed(seed) for seed in seeds]
    rngs = [Rng(seed).derive(*(p if type(p) is int else p[j] for p in key))
            for j, seed in enumerate(seeds)]
    for draw in range(draws + 1):
        expected = [rng.uniform() for rng in rngs]
        assert keyed_uniforms(bases, key, draw) == expected


def _splitmix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def _seed_written_out(seed, *key):
    """derive_seed(seed, *key) spelled out from splitmix64's finaliser: the
    salted seed mixed, then each key part, offset by the golden gamma and
    mixed, xored in and mixed again."""
    h = _splitmix(seed % 2**64 ^ 0x5851F42D4C957F2D)
    for part in key:
        h = _splitmix(h ^ _splitmix((part + 0x9E3779B97F4A7C15) % 2**64))
    return h


@settings(max_examples=80, deadline=None)
@given(_streams())
@example(([0, 2**64 - 1] * sampling.NUMPY_DRAWS,
          (4096, [2**64 - 1, 4095] * sampling.NUMPY_DRAWS, 0)))
@example(([2**64 - 1, 0, 5], ([4096, 2**63, 2**64 - 1], 4095)))
def test_batched_derivation_equals_derive_seed(streams):
    """derive_seeds equals derive_seed, written out here, seed by seed, on
    both sides of NUMPY_DRAWS, at seeds 0 and 2**64 - 1 and for key parts
    past the premixed table, and each seed is a Python int; derive_bases
    continues a derivation, and path_seeds is derive_seed(seed, path)."""
    seeds, key = streams
    keys = [tuple(p if type(p) is int else p[j] for p in key) for j in range(len(seeds))]
    expected = [_seed_written_out(seed, *k) for seed, k in zip(seeds, keys)]
    got = sampling.derive_seeds(seeds, key)
    assert got == expected and all(type(x) is int for x in got)
    assert [derive_seed(seed, *k) for seed, k in zip(seeds, keys)] == expected
    assert sampling.derive_bases(sampling.derive_seeds(seeds), key) == expected
    assert path_seeds(seeds, 3) == [_seed_written_out(seed, i) for seed in seeds for i in range(3)]


def test_batched_derivation_uses_numpy_from_the_cut_off(monkeypatch):
    calls = []
    original = sampling._mix64_np
    monkeypatch.setattr(sampling, "_mix64_np", lambda z: calls.append(z.size) or original(z))
    seeds = list(range(sampling.NUMPY_DRAWS))
    sampling.derive_seeds(seeds[:-1], (1,))
    assert calls == []
    sampling.derive_seeds(seeds, (1,))
    assert calls == [sampling.NUMPY_DRAWS] * 2


def test_keyed_uniforms_use_numpy_from_the_cut_off(monkeypatch):
    calls = []
    original = sampling._mix64_np
    monkeypatch.setattr(sampling, "_mix64_np", lambda z: calls.append(z.size) or original(z))
    bases = [derive_seed(seed) for seed in range(sampling.NUMPY_DRAWS)]
    keyed_uniforms(bases[:-1], (1, 0), 0)
    assert calls == []
    keyed_uniforms(bases, (1, 0), 0)
    assert calls == [sampling.NUMPY_DRAWS] * 3


def test_keyed_uniforms_take_a_part_per_stream_and_derived_bases():
    """A key part may differ per stream, as a trial index does, and a trial
    stream derived from its step's base draws what its Rng stream draws."""
    for count in (3, sampling.NUMPY_DRAWS + 3):
        parts = [4090 + j for j in range(count)]
        step, = sampling.derive_bases([derive_seed(9)], (7,))
        firsts = [Rng(9).derive(7, p).uniform() for p in parts]
        assert keyed_uniforms([step] * count, (parts,), 0) == firsts
        assert keyed_uniforms([derive_seed(9)] * count, (7, parts), 0) == firsts
        assert keyed_uniforms(sampling.derive_bases([step] * count, (parts,)), (), 0) == firsts


@pytest.mark.parametrize("parts", [range(0, 10), range(60, 124), range(4090, 4100),
                                   range(2**40, 2**40 + 3)])
def test_uniform_grid_draws_what_keyed_uniforms_draws(parts):
    """Row r of uniform_grid(bases, parts) is keyed_uniforms's first draw of
    (bases[r], part) for each part: for parts in the premixed table, across
    its end and past it, at bases near 2**64."""
    bases = sampling.derive_seeds([derive_seed(2, j) for j in range(20)])
    assert max(bases) >= 2**63
    grid = sampling.uniform_grid(np.array(bases, np.uint64), parts)
    assert grid.shape == (len(bases), len(parts))
    assert grid.tolist() == [keyed_uniforms([base] * len(parts), (list(parts),), 0)
                             for base in bases]


@pytest.mark.parametrize("count", [3, sampling.NUMPY_DRAWS + 3])
def test_keyed_uniforms_take_bases_and_parts_as_arrays(count):
    """Bases as a uint64 array, and a key part as an int64 array, as
    lane_decode's step blocks and first rounds pass them, draw what the
    same lists draw, on the Python int path and on the numpy one."""
    bases = sampling.derive_seeds([derive_seed(1, j) for j in range(count)])
    assert max(bases) >= 2**63
    steps = [2**33 + j for j in range(count)]
    array = np.array(bases, np.uint64)
    assert keyed_uniforms(array, (np.array(steps), 0), 0) == keyed_uniforms(bases, (steps, 0), 0)
    assert keyed_uniforms(array, (5, 0), 0) == keyed_uniforms(bases, (5, 0), 0)
    assert (keyed_uniforms(array, (np.array(steps),), range(1, 4))
            == keyed_uniforms(bases, (steps,), range(1, 4)))


def _uniform_written_out(base, draw):
    """Draw number draw of the stream whose base state is base, spelled out:
    splitmix64's state after draw + 1 golden-gamma steps, mixed, its top 53
    bits scaled into [0, 1)."""
    return (_splitmix((base + (draw + 1) * 0x9E3779B97F4A7C15) % 2**64) >> 11) * 2.0**-53


_DRAWS = st.integers(0, 5) | st.integers(2**32 - 2, 2**32 + 2) | st.integers(0, 2**64 - 2)


@st.composite
def _streams_and_draws(draw):
    """_streams, and a draw index per stream."""
    seeds, key = draw(_streams())
    return seeds, key, draw(st.lists(_DRAWS, min_size=len(seeds), max_size=len(seeds)))


@settings(max_examples=80, deadline=None)
@given(_streams_and_draws())
@example(([0, 2**64 - 1] * sampling.NUMPY_DRAWS, ([5, 2**40] * sampling.NUMPY_DRAWS, 0),
          [2**32 + 1, 0, 2**64 - 2, 5] * (sampling.NUMPY_DRAWS // 2)))
@example(([2**64 - 1, 0, 7], (3, [0, 4096, 2**64 - 1]), [2**33, 0, 2**64 - 2]))
def test_keyed_uniforms_with_a_draw_per_stream_equal_splitmix64_written_out(streams):
    """A draw list with one index per stream, as a block of rounds ahead
    passes, gives each stream's own draw of splitmix64 written out here: on
    both sides of NUMPY_DRAWS, at seeds 0 and 2**64 - 1 and at draw
    indices past 2**32."""
    seeds, key, draws = streams
    keys = [tuple(p if type(p) is int else p[j] for p in key) for j in range(len(seeds))]
    expected = [_uniform_written_out(_seed_written_out(seed, *k), d)
                for seed, k, d in zip(seeds, keys, draws)]
    bases = sampling.derive_seeds(seeds)
    assert keyed_uniforms(bases, key, draws) == expected
    assert [keyed_uniforms([b], k, d)[0] for b, k, d in zip(bases, keys, draws)] == expected


@st.composite
def _streams_and_a_range(draw):
    """_streams, and a range of draws that every stream makes."""
    seeds, key = draw(_streams())
    length = draw(st.integers(0, 2 * sampling.NUMPY_DRAWS))
    start = draw(_DRAWS.filter(lambda d: d + length < 2**64))
    return seeds, key, range(start, start + length)


@settings(max_examples=80, deadline=None)
@given(_streams_and_a_range())
@example(([0, 2**64 - 1], (), range(0)))
@example(([0, 2**64 - 1] * sampling.NUMPY_DRAWS, (7,), range(5, 5)))
@example(([0, 2**64 - 1, 3], (4096, [2**64 - 1, 0, 9]), range(2**32 - 1, 2**32 + 3)))
@example(([2**64 - 1, 0] * 3, ([5, 2**40] * 3,), range(2**64 - 4, 2**64 - 1)))
@example(([0, 2**64 - 1] * sampling.NUMPY_DRAWS, (3,), range(2**33, 2**33 + 1)))
def test_keyed_uniforms_over_a_range_equal_the_per_draw_calls(streams):
    """A range of draws, as a block of trial rounds passes, gives every
    stream's draws in turn, bit for bit those of one call per stream and
    draw and of splitmix64 written out: on both sides of NUMPY_DRAWS
    (counted as streams × draws), at seeds 0 and 2**64 - 1, at draw
    indices past 2**32 and for an empty range."""
    seeds, key, draws = streams
    keys = [tuple(p if type(p) is int else p[j] for p in key) for j in range(len(seeds))]
    bases = sampling.derive_seeds(seeds)
    got = keyed_uniforms(bases, key, draws)
    assert got == [keyed_uniforms([b], k, d)[0] for b, k in zip(bases, keys) for d in draws]
    assert got == [_uniform_written_out(_seed_written_out(seed, *k), d)
                   for seed, k in zip(seeds, keys) for d in draws]


def test_keyed_uniforms_over_a_range_use_numpy_from_the_cut_off(monkeypatch):
    """The cut-off counts a range's draws over all streams, not streams."""
    calls = []
    original = sampling._mix64_np
    monkeypatch.setattr(sampling, "_mix64_np", lambda z: calls.append(z.size) or original(z))
    bases = [derive_seed(seed) for seed in range(3)]
    keyed_uniforms(bases, (), range(1, (sampling.NUMPY_DRAWS - 1) // 3 + 1))
    assert calls == []
    keyed_uniforms(bases, (), range(1, -(-sampling.NUMPY_DRAWS // 3) + 1))
    assert calls == [3 * -(-sampling.NUMPY_DRAWS // 3)]


@pytest.mark.parametrize("lanes", [1, 3, sampling.NUMPY_DRAWS + 1])
@pytest.mark.parametrize("start, length",[(0, 1), (1, 1), (2, 2), (8, 8), (2**33, 5)])
def test_a_block_of_steps_equals_its_per_step_draws(lanes, start, length):
    """One call over the steps ([s..s+k-1], 0) of each lane's repeated base,
    as lane_decode draws a block ahead, equals k per-step calls."""
    bases = sampling.derive_seeds([derive_seed(31, j) for j in range(lanes)])
    steps = list(range(start, start + length))
    block = keyed_uniforms([b for b in bases for _ in steps], (steps * lanes, 0), 0)
    per_step = [keyed_uniforms(bases, (s, 0), 0) for s in steps]
    assert block == [per_step[t][j] for j in range(lanes) for t in range(length)]
    rounds = keyed_uniforms([b for b in bases for _ in steps], (), steps * lanes)
    assert rounds == [keyed_uniforms(bases, (), s)[j] for j in range(lanes) for s in steps]


@pytest.fixture
def short_blocks(monkeypatch):
    """Blocks of at most three draws, which roll over every step or two and
    split every call of more streams than that."""
    monkeypatch.setattr(engine, "DRAW_BLOCK", 3)


def test_short_blocks_on_the_suite_equal_scalar_decodes(short_blocks):
    """The bundled suite at 200 seeds under every policy, at T=0 too."""
    model, _, prompts, config = _bundled("suite")
    seeds = [derive_seed(29, i) for i in range(200 * len(prompts))]
    for policy in _policies(config):
        _assert_lanes_match(model, prompts * 200, seeds, policy)


@pytest.mark.parametrize("policy", [SingleSamplePolicy, CntpPolicy])
def test_short_blocks_on_long_kgram_lanes_equal_scalar_decodes(short_blocks, policy):
    model, _, prompts, config = _bundled("kgram", global_cap=700)
    lanes = _assert_lanes_match(model, prompts, [derive_seed(7, i) for i in range(len(prompts))],
                                policy(config))
    assert max(len(lane.sequence) - len(prompt) for lane, prompt in zip(lanes, prompts)) == 700


def test_plans_do_not_outlive_their_decode(short_blocks):
    """Two cntp configs that differ only in h_max give some row two trial
    counts; decoded one after the other over one model's rows, each decode
    still equals its scalar decodes."""
    model, _, prompts, config = _bundled("kgram", global_cap=96)
    seeds = [derive_seed(13, i) for i in range(len(prompts))]
    trials = []
    for h_max in (1.5, 3.0):
        lanes = _assert_lanes_match(model, prompts, seeds,
                                    CntpPolicy(dataclasses.replace(config, h_max=h_max)))
        trials.append({t.confidence: t.n_trials for lane in lanes for t in lane.per_step_trace})
    shared = trials[0].keys() & trials[1].keys()
    assert any(trials[0][h] != trials[1][h] for h in shared)


def _recorded_calls(monkeypatch):
    """The (stream count, key, draw) of each keyed_uniforms call the engine makes."""
    calls = []
    original = engine.keyed_uniforms

    def recorded(bases, key, draw):
        calls.append((len(bases), key, draw))
        return original(bases, key, draw)

    monkeypatch.setattr(engine, "keyed_uniforms", recorded)
    return calls


def test_block_calls_of_a_thousand_lanes_stay_within_the_bound(monkeypatch):
    """A 1 000-lane batch whose multi-trial steps grow up to 10 000 trials
    at once: no call draws more than DRAW_BLOCK uniforms, and the lanes
    still equal their scalar decodes."""
    calls = _recorded_calls(monkeypatch)
    model, _, prompts, config = _bundled("kgram", global_cap=24)
    count = 1000
    lanes = [(prompts[i % len(prompts)], derive_seed(41, i)) for i in range(count)]
    for policy in (SingleSamplePolicy(config), CntpPolicy(config)):
        calls.clear()
        outcomes = lane_decode(model, lanes, policy)
        assert max(size for size, *_ in calls) <= engine.DRAW_BLOCK
        assert sum(size for size, *_ in calls) > count
        if type(policy) is CntpPolicy:  # a call of more streams than the bound was split
            assert any(size == engine.DRAW_BLOCK for size, *_ in calls)
        for (prompt, seed), outcome in list(zip(lanes, outcomes))[::97]:
            scalar = policy_decode(model, prompt, dataclasses.replace(
                policy, config=policy.config.with_seed(seed)))
            assert _exact(outcome) == _exact(scalar)


def test_blocks_double_and_stop_at_the_answer_cap(monkeypatch):
    """One stochastic k-gram lane draws its steps in blocks 0, 1, 2-3, 4-7,
    ..., the last one cut at its answer cap. A block of one step keys its
    draws by that step as a shared key part, a longer one by an array of
    steps."""
    calls = _recorded_calls(monkeypatch)
    model, _, prompts, config = _bundled("kgram", global_cap=100)
    lane_decode(model, [(prompts[0], 5)], SingleSamplePolicy(config))
    assert [key[0] if type(key[0]) is int else key[0].tolist() for _, key, _ in calls] == [
        0, 1, [2, 3], list(range(4, 8)), list(range(8, 16)), list(range(16, 32)),
        list(range(32, 64)), list(range(64, 100))]
    assert all(key[1:] == (0,) and draw == 0 for _, key, draw in calls)


def test_trials_draw_their_rounds_to_the_cap_in_one_call(monkeypatch):
    """One cntp k-gram lane at answer cap 100: each multi-trial step draws
    its trials' first tokens in one call keyed by trial index, then the
    rounds 1 up to the cap of the trials that grow on in one more call.
    Ten trials of at most 64 tokens stay within DRAW_BLOCK, so no trial
    refills."""
    calls = _recorded_calls(monkeypatch)
    model, _, prompts, config = _bundled("kgram", global_cap=100)
    outcome, = lane_decode(model, [(prompts[0], 5)], CntpPolicy(config))
    # Step blocks are keyed (steps, 0); round 0 by trial index alone.
    trial_calls = [(size, key[0], draw) for size, key, draw in calls if len(key) == 1]
    firsts = [key for _, key, draw in trial_calls if draw == 0]
    assert [t.n_trials for t in outcome.per_step_trace if t.n_trials > 1] == [
        len(key) for key in firsts]
    assert firsts == [list(range(len(key))) for key in firsts]
    rounds = [(size, key, draw) for size, key, draw in trial_calls if type(draw) is range]
    assert rounds and len(rounds) + len(firsts) == len(trial_calls)
    for t, (size, key, draw) in enumerate(trial_calls):
        if type(draw) is range:
            # Right after its step's round-0 call: the trials that grew on.
            assert trial_calls[t - 1][2] == 0
            assert size == len(key) and set(key) <= set(trial_calls[t - 1][1])
            assert key == sorted(key)
            assert draw.start == 1 and 1 < draw.stop <= config.branch_cap
    # Rounds run to the branch cap, except where the answer cap cuts them.
    assert [draw.stop for _, _, draw in rounds[:-1]] == [config.branch_cap] * (len(rounds) - 1)


def _recorded_sizes(monkeypatch):
    """How many uniforms each keyed_uniforms call the engine makes returns,
    and the draw it was given."""
    sizes = []
    original = engine.keyed_uniforms

    def recorded(bases, key, draw):
        out = original(bases, key, draw)
        sizes.append((len(out), draw))
        return out

    monkeypatch.setattr(engine, "keyed_uniforms", recorded)
    return sizes


def test_block_calls_of_a_thousand_lanes_return_at_most_the_bound(monkeypatch):
    """The 1 000-lane batch above, counted by the uniforms each call
    returns: a call over a range of rounds returns rounds × streams, and
    none returns more than DRAW_BLOCK. Its cntp decode refills trials that
    the bound cut short."""
    sizes = _recorded_sizes(monkeypatch)
    model, _, prompts, config = _bundled("kgram", global_cap=24)
    lanes = [(prompts[i % len(prompts)], derive_seed(41, i)) for i in range(1000)]
    for policy in (SingleSamplePolicy(config), CntpPolicy(config)):
        sizes.clear()
        lane_decode(model, lanes, policy)
        assert max(size for size, _ in sizes) <= engine.DRAW_BLOCK
    assert any(size == engine.DRAW_BLOCK for size, _ in sizes)
    assert any(type(draw) is range and draw.start > 1 for _, draw in sizes)


def test_long_kgram_suite_lanes_run_both_round_paths(monkeypatch):
    """The suite that CI's long-decode replay step runs, cntp on the 20
    k-gram tasks at answer cap 1100 and seed 0: some multi-trial steps draw
    their trials' rounds to the cap in one call, and some grow so many
    trials at once that DRAW_BLOCK cuts their block and they refill."""
    blocks = []
    original = engine._round_block

    def recorded(trials, start, step_bases):
        block, end = original(trials, start, step_bases)
        blocks.append((start, end, max(cap for _, _, cap, *_ in trials)))
        return block, end

    monkeypatch.setattr(engine, "_round_block", recorded)
    sizes = _recorded_sizes(monkeypatch)
    model, tasks, _, config = _bundled("kgram", global_cap=1100)
    run_suite(model, tasks, "cntp", config, [0])
    assert any(start == 1 and end == cap for start, end, cap in blocks)
    assert any(start == 1 and end < cap for start, end, cap in blocks)
    assert any(start > 1 for start, _, _ in blocks)
    assert max(size for size, _ in sizes) <= engine.DRAW_BLOCK


def _first_rounds(monkeypatch):
    """Per group of each _round_zero call: its first-round trials (its lanes
    × the trials of the chunk), how many of them grew past their first
    token, and whether its step settled there."""
    seen = []
    original = engine._round_zero

    def recorded(steps, bounds, step_bases, lo, *rest):
        settled = rest[-1]
        before = set(settled)
        trials, froms, toks = original(steps, bounds, step_bases, lo, *rest)
        for k, (_, plan, _) in enumerate(steps):
            if plan[1] > lo:
                size = (bounds[k + 1] - bounds[k]) * (min(plan[1], lo + TRIAL_CHUNK) - lo)
                seen.append((size, sum(bounds[k] <= trial[0] < bounds[k + 1]
                                       for trial in trials), k in settled and k not in before))
        return trials, froms, toks

    monkeypatch.setattr(engine, "_round_zero", recorded)
    return seen


def _suite_lanes(monkeypatch):
    """The (lanes, policy, outcomes) of each lane_decode call of run_suite."""
    calls = []
    decode = runner.lane_decode

    def recorded(model, lanes, policy):
        outcomes = decode(model, lanes, policy)
        calls.append((lanes, policy, outcomes))
        return outcomes

    monkeypatch.setattr(runner, "lane_decode", recorded)
    return calls


@pytest.mark.parametrize("strategy", ["cntp", "cntp_sc:3"])
def test_wide_kgram_groups_grow_past_their_first_round_as_scalar_decodes(monkeypatch,
                                                                         strategy):
    """cntp and cntp_sc suites over the bundled k-gram tasks at 8 seeds,
    at T=1, at T=0 and at branch_cap 1. A task's lanes start as one group,
    so a multi-trial step of up to 10 trials over its 8 (24) lanes takes
    its first round by array; the groups that lanes split into, and the
    steps of few trials, take it in the loop. Trials of the groups by array
    grow past their first token, except at branch_cap 1, where every such
    group's step settles in its first round, and only a group by array
    settles. Each lane equals policy_decode at its seed: tokens, ledger,
    and every trace float by float.hex."""
    seen = _first_rounds(monkeypatch)
    calls = _suite_lanes(monkeypatch)
    model, tasks, _, config = _bundled("kgram", global_cap=16)
    for cfg in (config, config._with("temperature", 0.0),
                dataclasses.replace(config, branch_cap=1)):
        seen.clear()
        calls.clear()
        run_suite(model, tasks, strategy, cfg, list(range(8)))
        wide = [(grew, settled) for size, grew, settled in seen if size >= engine.ARRAY_TRIALS]
        assert wide and len(wide) < len(seen)
        assert any(grew for grew, _ in wide) == (cfg.branch_cap > 1)
        assert all(settled == (not grew) for grew, settled in wide)
        assert not any(settled for size, _, settled in seen if size < engine.ARRAY_TRIALS)
        for lanes, policy, outcomes in calls:
            assert policy.config.temperature == cfg.temperature
            for (prompt, seed), outcome in zip(lanes, outcomes):
                scalar = policy_decode(model, prompt, dataclasses.replace(
                    policy, config=policy.config.with_seed(seed)))
                assert _exact(outcome) == _exact(scalar)


def _tiny_token_model(root):
    """A scripted model over a, b., c. and eos: root is the row at the
    empty prefix, and eos follows every other prefix."""
    vocab = Vocabulary(("a", "b.", "c.", ""), 3)
    return ScriptedModel(vocab, {(): Distribution(np.array(root))},
                         Distribution(np.array([0.0, 0.0, 0.0, 1.0])))


@pytest.mark.parametrize("lanes", [1, 3, 40])
def test_lanes_on_tokens_below_the_float_range_equal_scalar_decodes(lanes):
    """A branch of one token of probability 1e-310 has a mean -log p past
    709.78, so its perplexity is inf; its trial loses to every finite one,
    and trials that all score inf go to the lowest index. In one narrow
    group and in one wide enough to pick its first tokens by array, every
    lane equals policy_decode at its seed."""
    config = DecodeConfig(h_min=0.1, h_max=0.5, n_max=4, top_p=1.0, global_cap=4)
    prompts = [Sequence((), "")] * lanes
    seeds = [730] + [derive_seed(3, i) for i in range(lanes - 1)]
    _assert_lanes_match(_tiny_token_model([0.4, 0.3, 0.3 - 1e-310, 1e-310]), prompts, seeds,
                        CntpPolicy(dataclasses.replace(config, temperature=100.0)))
    # At this temperature each token is about as likely, and only a stops on a finite ppl.
    tiny = _tiny_token_model([1.0, 1e-310, 1e-310, 0.0])
    outcomes = _assert_lanes_match(tiny, prompts, seeds, UniformMultisamplePolicy(
        dataclasses.replace(config, temperature=1e6), 4))
    if lanes * 4 >= engine.ARRAY_TRIALS:
        assert any(t.chosen_ppl == math.inf for o in outcomes for t in o.per_step_trace)


def test_single_token_steps_on_one_row_and_token_share_their_trace():
    """Single-token steps that take the same token of the same row append
    one StepTrace object, in a group and in the parts it splits into, at
    T=1 and at T=0; the lanes still equal their scalar decodes."""
    model, _, prompts, config = _bundled("kgram", global_cap=64)
    for temperature in (1.0, 0.0):
        policy = SingleSamplePolicy(dataclasses.replace(config, temperature=temperature))
        prompts_in = prompts[:2] * 6
        lanes = _assert_lanes_match(model, prompts_in, [derive_seed(17, i) for i in range(12)],
                                    policy)
        traces: dict = {}
        for prompt, lane in zip(prompts_in, lanes):
            cursor = model.start(prompt.tokens)
            answer = lane.sequence.tokens[len(prompt.tokens):]
            for tok, step in zip(answer, lane.per_step_trace):
                row, = model.next_distributions([cursor])
                traces.setdefault((id(row), tok), set()).add(id(step))
                cursor, = model.advance([cursor], [tok])
        assert all(len(ids) == 1 for ids in traces.values())
        # Some row and token recur within one lane's decode.
        assert any(len(set(lane.per_step_trace)) < len(lane.per_step_trace) for lane in lanes)
