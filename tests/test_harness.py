"""Evaluation harness: task files, strategy strings, suite runs, record
replay, the ablation driver, and the bundled data files."""

from __future__ import annotations

import dataclasses
import filecmp
import hashlib
import json
import math
import os
import statistics
from datetime import datetime, timedelta, timezone

import pytest

from conftest import left_to_right
from cntp import (
    AnswerExtractor,
    CostLedger,
    DecodeConfig,
    Distribution,
    KGramModel,
    ModelFileError,
    ModelSource,
    ProtocolError,
    ScriptedModel,
    Vocabulary,
    load_config,
    train_kgram,
)
from cntp.harness import (
    AblationRow,
    AblationSpec,
    ReplayMismatchError,
    RunRecord,
    Task,
    bundled_path,
    build_fixture_suite,
    build_kgram_suite,
    canonical_strategy,
    extractor_to_string,
    load_tasks,
    parse_extractor,
    parse_strategy,
    parse_values,
    render_table,
    replay,
    resolve_model,
    run_ablation,
    run_one,
    run_suite,
    save_tasks,
    write_bundled_data,
)
from cntp.harness import runner
from cntp.harness.ablation import format_count, variant
from cntp.harness.cli import main
from cntp.harness.runner import STRATEGIES, aggregate_records, match_answer, read_records
from cntp.harness.tasks import bundled_spec


def test_extractor_strings_round_trip():
    for text in ("full_text", "last_token", "text_after_marker:="):
        assert extractor_to_string(parse_extractor(text)) == text
    assert parse_extractor("text_after_marker:ans:").marker == "ans:"
    with pytest.raises(ValueError, match="non-empty marker"):
        parse_extractor("text_after_marker:")
    with pytest.raises(ValueError, match="unknown extractor"):
        parse_extractor("mystery")


def _extract(extractor, text):
    """The extractor's answer from a character-vocabulary decode of text."""
    chars = sorted(set(text))
    vocab = Vocabulary(tuple(chars) + ("",), len(chars))
    return extractor.extract(vocab.sequence(vocab.encode(text)), vocab)


def test_score_rules():
    marker = AnswerExtractor("text_after_marker", "=")
    assert match_answer(_extract(marker, "the total = 42."), "42.")
    assert not match_answer(_extract(marker, "no marker here"), "42.")
    full = AnswerExtractor("full_text")
    assert not match_answer(_extract(full, ""), "a.")
    assert not match_answer(_extract(full, "A."), "a.")  # case sensitive
    assert match_answer(_extract(full, " a.\n"), "a.")  # trimmed


def test_token_aware_last_token_skips_eos(two_token_vocab):
    seq = two_token_vocab.sequence((0, 2))
    assert AnswerExtractor("last_token").extract(seq, two_token_vocab) == "a."


def test_task_files_round_trip(tmp_path):
    tasks = [
        Task("t1", "2+2?", "4", AnswerExtractor("text_after_marker", "=")),
        Task("t2", "hi", "hi there", AnswerExtractor("full_text")),
        Task("t3", "last", "x", AnswerExtractor("last_token")),
    ]
    path = str(tmp_path / "tasks.jsonl")
    save_tasks(tasks, path)
    assert load_tasks(path) == tasks


def test_task_file_errors(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    line = json.dumps({"id": "a", "prompt": "p", "reference_answer": "r",
                       "extractor": "full_text"})
    (tmp_path / "bad.jsonl").write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ModelFileError, match="duplicate task id"):
        load_tasks(path)
    (tmp_path / "bad.jsonl").write_text(
        json.dumps({"id": "a", "prompt": "p", "reference_answer": "r",
                    "extractor": "mystery"}) + "\n", encoding="utf-8")
    with pytest.raises(ModelFileError, match="line 1"):
        load_tasks(path)
    (tmp_path / "bad.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(ModelFileError, match="no tasks found"):
        load_tasks(path)
    with pytest.raises(ModelFileError):
        load_tasks(str(tmp_path / "absent.jsonl"))


def test_task_file_skips_blank_lines(tmp_path):
    path = str(tmp_path / "gaps.jsonl")
    line = json.dumps({"id": "a", "prompt": "p", "reference_answer": "r",
                       "extractor": "full_text"})
    (tmp_path / "gaps.jsonl").write_text("\n" + line + "\n\n", encoding="utf-8")
    assert len(load_tasks(path)) == 1


def test_strategy_strings():
    assert parse_strategy("beam:8") == ("beam", 8)
    assert parse_strategy("beam") == ("beam", 4)
    assert parse_strategy("sc") == ("sc", 5)
    assert parse_strategy("cntp") == ("cntp", None)
    for bad in ("greedy:2", "beam:x", "beam:0", "mystery", "beam:1025", "sc:99999999999"):
        with pytest.raises(ValueError):
            parse_strategy(bad)
    assert canonical_strategy("sc") == "sc:5"
    assert canonical_strategy("greedy") == "greedy"
    assert canonical_strategy("beam:2") == "beam:2"
    assert STRATEGIES["cntp_sc"].preset_temperature == pytest.approx(1.2)
    assert STRATEGIES["beam"].preset_temperature == pytest.approx(0.0)
    assert STRATEGIES["stochastic"].preset_temperature == pytest.approx(0.6)


def test_strategies_look_decoders_up_at_call_time(monkeypatch, suite_bundle):
    """A decoder patched in the runner module reaches every strategy that
    runs it, self-consistency paths included."""
    model, tasks, config = suite_bundle
    calls = []
    original = runner.cntp_decode

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(runner, "cntp_decode", spy)
    run_one(model, tasks[0], "cntp", config)
    run_one(model, tasks[0], "cntp_sc:3", config)
    assert len(calls) == 4


def test_run_record_round_trip(suite_bundle):
    model, tasks, config = suite_bundle
    record, _ = run_one(model, tasks[0], "greedy", config, model_spec="bundled:suite")
    data = json.loads(json.dumps(record.to_dict()))
    assert RunRecord.from_dict(data) == record
    with pytest.raises(ModelFileError, match="unknown field 'extra'"):
        RunRecord.from_dict({**data, "extra": 1})
    short = dict(data)
    del short["seed"]
    with pytest.raises(ModelFileError, match="missing required field 'seed'"):
        RunRecord.from_dict(short)


def test_run_one_scores_the_reference_path(suite_bundle):
    model, tasks, config = suite_bundle
    record, outcome = run_one(model, tasks[0], "greedy", config)
    assert record.correct
    assert record.answer == tasks[0].reference_answer == "a.b.c."
    assert record.strategy == "greedy"
    assert record.seed == config.seed
    assert outcome is not None
    assert record.cost["forward_passes"] == outcome.cost.forward_passes


def test_run_one_wraps_backend_errors_with_task_context(suite_bundle):
    model, tasks, config = suite_bundle

    class FailingModel(ModelSource):
        vocabulary = model.vocabulary

        def next_distribution(self, prefix):
            raise ProtocolError("backend fell over")

    with pytest.raises(ProtocolError, match="task fix00: backend fell over"):
        run_one(FailingModel(), tasks[0], "greedy", config)


def test_self_consistency_records_have_no_token_stream(kgram_bundle):
    model, tasks, config = kgram_bundle
    record, outcome = run_one(model, tasks[0], "sc:3", config)
    assert outcome is None
    assert record.tokens == ()
    assert record.output == record.answer
    assert record.strategy == "sc:3"


def test_run_suite_kgram_greedy_is_perfect(kgram_bundle):
    """References are the model's own greedy continuations, so greedy is
    exact on every task and every seed."""
    model, tasks, config = kgram_bundle
    result = run_suite(model, tasks, "greedy", config, [0, 1])
    agg = result.aggregate
    assert agg.accuracy_mean == 1.0
    assert agg.accuracy_std == 0.0
    assert agg.n_tasks == 20 and agg.n_seeds == 2
    assert agg.forward_passes_mean > 0
    assert len(result.records) == 40


def test_run_suite_parallel_matches_serial(suite_bundle):
    model, tasks, config = suite_bundle
    kwargs = dict(strategy="cntp", config=config, seeds=[3, 4])
    serial = run_suite(model, tasks[:6], **kwargs)
    parallel = run_suite(model, tasks[:6], workers=4, **kwargs)

    def key_fields(records):
        return [(r.task_id, r.seed, r.tokens, r.answer, r.correct, r.cost)
                for r in records]

    assert key_fields(serial.records) == key_fields(parallel.records)
    assert serial.aggregate == parallel.aggregate


def test_unsorted_seeds_keep_their_order_and_aggregates(suite_bundle):
    """Records come back seed by seed in the order the seeds were given,
    each seed's by task id, and the aggregate equals the per-seed filter
    it replaced, float for float."""
    model, tasks, config = suite_bundle
    tasks = tasks[:6][::-1]
    seeds = [7, 2, 2**64 - 1, 0]
    result = run_suite(model, tasks, "stochastic", config, seeds)
    ids = sorted(task.id for task in tasks)
    assert [(r.seed, r.task_id) for r in result.records] == [(s, i) for s in seeds for i in ids]
    per_seed = []
    for seed in seeds:
        batch = [r for r in result.records if r.seed == seed]
        per_seed.append(sum(r.correct for r in batch) / len(batch))
    mean = left_to_right(per_seed) / len(per_seed)
    std = (left_to_right([(a - mean) ** 2 for a in per_seed]) / (len(per_seed) - 1)) ** 0.5
    agg = result.aggregate
    assert (agg.n_seeds, agg.n_tasks) == (4, 6)
    assert (float.hex(agg.accuracy_mean), float.hex(agg.accuracy_std)) == (float.hex(mean),
                                                                         float.hex(std))
    assert 0 < mean < 1  # the seeds disagree, so the order of the sum is exercised
    alone = [run_suite(model, tasks, "stochastic", config, [seed]).records for seed in seeds]
    assert [_key(r) for r in result.records] == [_key(r) for batch in alone for r in batch]


def _key(record):
    return record.seed, record.task_id, record.tokens, record.cost


def test_aggregate_sums_do_not_depend_on_the_python_version():
    """Ten seeds that each get one of ten tasks right: their accuracies of
    0.1 sum, left to right, to 0x1.fffffffffffffp-1, where the compensated
    sum of Python 3.12 and math.fsum read 1.0; the mean is the former's."""
    seeds = list(range(10))
    records = [_record(f"t{i}", seed, i == 0) for seed in seeds for i in range(10)]
    agg = aggregate_records("greedy", records, 10, seeds)
    assert left_to_right([0.1] * 10).hex() == "0x1.fffffffffffffp-1"
    assert math.fsum([0.1] * 10) == 1.0
    assert agg.accuracy_mean.hex() == (left_to_right([0.1] * 10) / 10).hex()
    assert agg.accuracy_mean != 1.0 / 10
    deviations = [(0.1 - agg.accuracy_mean) ** 2] * 10
    assert agg.accuracy_std.hex() == ((left_to_right(deviations) / 9) ** 0.5).hex()


def test_run_suite_builds_each_record_through_run_one_by_name(suite_bundle, monkeypatch):
    """run_suite calls runner.run_one once per record and looks it up by its
    module name at each call, so a wrapper patched in there sees every
    record the suite returns."""
    model, tasks, config = suite_bundle
    seen = []
    original = runner.run_one

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result[0])
        return result

    monkeypatch.setattr(runner, "run_one", counting)
    for strategy in ("greedy", "stochastic", "cntp", "beam:2", "sc:3", "cntp_sc:2",
                     "best_of_n:3"):
        seen.clear()
        records = run_suite(model, tasks[:5], strategy, config, [3, 1]).records
        assert len(seen) == len(records) == 10
        assert sorted(map(id, seen)) == sorted(map(id, records))


SEVEN_STRATEGIES = ("greedy", "stochastic", "cntp", "beam:2", "sc:3", "cntp_sc:2", "best_of_n:3")


class _Clock:
    """A stand-in for runner.datetime: each now() call is logged and reads
    one second later than the one before."""

    def __init__(self):
        self.calls = []

    def now(self, tz=None):
        self.calls.append(tz)
        return datetime(2026, 1, 1, tzinfo=tz) + timedelta(seconds=len(self.calls))


def test_run_suite_stamps_each_batch_once_and_builds_no_config_by_init(suite_bundle,
                                                                         monkeypatch):
    """A suite reads the clock once per lockstep batch, after its decode,
    and each record of the batch carries that stamp; the per-run configs
    are copies, never built through DecodeConfig.__init__."""
    model, tasks, config = suite_bundle
    clock = _Clock()
    monkeypatch.setattr(runner, "datetime", clock)
    inits = []
    init = DecodeConfig.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DecodeConfig, "__init__", counting_init)
    for strategy in SEVEN_STRATEGIES:
        for workers in (1, 3):
            clock.calls.clear()
            records = run_suite(model, tasks[:4], strategy, config, [5, 6, 7],
                                workers=workers).records
            assert clock.calls == [timezone.utc] * workers, (strategy, workers)
            assert inits == [], strategy
            batches = [[5, 6, 7]] if workers == 1 else [[5], [6], [7]]
            for batch in batches:
                stamps = {r.timestamp for r in records if r.seed in batch}
                assert len(stamps) == 1, (strategy, batch)


def test_run_one_alone_stamps_its_own_record(suite_bundle, monkeypatch):
    model, tasks, config = suite_bundle
    clock = _Clock()
    monkeypatch.setattr(runner, "datetime", clock)
    first, _ = run_one(model, tasks[0], "cntp", config)
    second, _ = run_one(model, tasks[0], "cntp", config)
    assert clock.calls == [timezone.utc] * 2
    assert first.timestamp < second.timestamp
    same_clock = {"timestamp": "", "wall_time": 0.0}
    assert dataclasses.replace(first, **same_clock) == dataclasses.replace(second, **same_clock)


def _assert_as_built_by_init(obj):
    """obj, a frozen dataclass built field by field, compares both ways,
    hashes (or fails to), stays frozen and holds its instance attributes in
    field order as the object its class's __init__ builds from its fields."""
    fields = [f.name for f in dataclasses.fields(obj)]
    built = type(obj)(**{name: getattr(obj, name) for name in fields})
    assert obj == built and built == obj and obj is not built
    assert list(vars(obj)) == list(vars(built)) == fields
    try:
        expected = hash(built)
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            hash(obj)
    else:
        assert hash(obj) == expected
    for o in (obj, built):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(o, fields[0], None)


def test_suite_records_behave_as_records_built_by_init(suite_bundle):
    """A record a suite builds field by field compares, fails to hash (its
    config and cost are dicts), stays frozen and round-trips through
    to_dict and from_dict as the record __init__ builds from its fields;
    the records of one batch share one ISO-8601 UTC stamp. So do the
    outcomes and ledgers that its lanes, their reductions and beam search
    build without __init__."""
    model, tasks, config = suite_bundle
    for strategy in SEVEN_STRATEGIES:
        records = run_suite(model, tasks[:4], strategy, config, [0, 1]).records
        stamps = {record.timestamp for record in records}
        assert len(stamps) == 1
        stamp = datetime.fromisoformat(stamps.pop())
        assert stamp.utcoffset() == timedelta(0) and stamp.isoformat() == records[0].timestamp
        for record in records:
            _assert_as_built_by_init(record)
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
            assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record
            assert list(record.cost) == [f.name for f in dataclasses.fields(CostLedger)]
    record, outcome = run_one(model, tasks[0], "cntp", config)
    assert record.cost == dataclasses.asdict(outcome.cost)
    # engine._Group.finish, baselines.vote's and lowest_whole_ppl's summed
    # ledgers, and beam_search_decode, over every strategy's runs.
    prompts = [runner._prompt(model.vocabulary, task) for task in tasks[:4]]
    configs = [config.with_seed(seed) for seed in (0, 1) for _ in prompts]
    for strategy in SEVEN_STRATEGIES:
        root, width = parse_strategy(strategy)
        for result in runner._decode_lanes(model, STRATEGIES[root], width, tasks[:4], prompts,
                                           configs):
            ledger = result[1] if type(result) is tuple else result.cost
            assert type(ledger) is CostLedger
            _assert_as_built_by_init(ledger)
            if type(result) is not tuple:
                _assert_as_built_by_init(result)


def test_run_suite_rejects_bad_inputs(suite_bundle):
    model, tasks, config = suite_bundle
    with pytest.raises(ValueError, match="no seeds"):
        run_suite(model, tasks[:1], "greedy", config, [])
    with pytest.raises(ValueError, match="unique"):
        run_suite(model, tasks[:1], "greedy", config, [1, 1])
    with pytest.raises(ValueError, match="no tasks"):
        run_suite(model, [], "greedy", config, [0])
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers must be ≥ 1"):
            run_suite(model, tasks[:1], "greedy", config, [0], workers=workers)


def test_run_suite_writes_replayable_artifacts(tmp_path, kgram_bundle):
    model, tasks, config = kgram_bundle
    result = run_suite(model, tasks[:3], "stochastic", config, [0],
                       out_dir=str(tmp_path), model_spec="bundled:kgram")
    assert result.run_dir is not None and os.path.isdir(result.run_dir)
    stored = read_records(os.path.join(result.run_dir, "records.jsonl"))
    assert stored == result.records
    with open(os.path.join(result.run_dir, "aggregate.json"), encoding="utf-8") as fh:
        agg = json.load(fh)
    assert agg["accuracy_mean"] == pytest.approx(result.aggregate.accuracy_mean)


# sha256 of the record lines of every strategy on the bundled suite at seeds
# 0-2, without wall_time and timestamp; see test_suite_records_are_pinned.
SUITE_RECORDS_SHA256 = "6ff8069ece1a001080215157d4fb656e24717a6374ffd567b9634d2416d763c0"


def test_suite_records_are_pinned():
    """Every record field but the two clock readings, for all seven
    strategies, is bit-identical to what the record builder wrote before it
    stopped copying dataclasses."""
    model = resolve_model("bundled:suite")
    tasks = load_tasks(bundled_path("suite.tasks"))
    config = load_config(bundled_path("suite.config.json"))
    lines = []
    for strategy in ("greedy", "stochastic", "cntp", "beam:4", "sc:5", "cntp_sc:5",
                     "best_of_n:5"):
        for record in run_suite(model, tasks, strategy, config, [0, 1, 2]).records:
            data = record.to_dict()
            del data["wall_time"], data["timestamp"]
            lines.append(json.dumps(data))
    assert len(lines) == 7 * len(tasks) * 3
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SUITE_RECORDS_SHA256


def test_record_to_dict_is_the_asdict_form_byte_for_byte():
    """RunRecord.to_dict reads field values by name; its JSON equals that of
    dataclasses.asdict, which it replaced, for every strategy's records on
    the bundled suite."""
    model = resolve_model("bundled:suite")
    tasks = load_tasks(bundled_path("suite.tasks"))
    config = load_config(bundled_path("suite.config.json"))
    for strategy in ("greedy", "stochastic", "cntp", "beam:4", "sc:5", "cntp_sc:5",
                     "best_of_n:5"):
        for record in run_suite(model, tasks, strategy, config, [0, 1]).records:
            data = record.to_dict()
            assert json.dumps(data) == json.dumps(dataclasses.asdict(record))
            assert data["config"] is not record.config and data["cost"] is not record.cost


def _record(task_id, seed, correct):
    return RunRecord(
        task_id=task_id, strategy="greedy", model_spec="", prompt="p",
        reference_answer="r", extractor="full_text", config={}, seed=seed,
        tokens=(0,), output="r" if correct else "x",
        answer="r" if correct else "x", correct=correct,
        cost={"forward_passes": 2, "generated_tokens": 2,
              "high_entropy_steps": 0, "total_steps": 2},
        wall_time=0.0, timestamp="",
    )


def test_aggregate_records_matches_stdlib_statistics():
    records = [_record("a", 0, True), _record("b", 0, True),
               _record("a", 1, True), _record("b", 1, False)]
    agg = aggregate_records("greedy", records, 2, [0, 1])
    assert agg.accuracy_mean == pytest.approx(0.75)
    assert agg.accuracy_std == pytest.approx(statistics.stdev([1.0, 0.5]))
    assert agg.forward_passes_mean == pytest.approx(2.0)


def test_replay_confirms_an_untouched_record(suite_bundle):
    model, tasks, config = suite_bundle
    record, _ = run_one(model, tasks[1], "cntp",
                        dataclasses.replace(config, seed=42),
                        model_spec="bundled:suite")
    assert replay(record, model) is not None
    assert replay(record) is not None  # resolves the bundled spec itself


def test_replay_catches_a_tampered_seed(kgram_bundle):
    model, tasks, config = kgram_bundle
    record, _ = run_one(model, tasks[0], "stochastic",
                        dataclasses.replace(config, seed=0))
    tampered = dataclasses.replace(record, config={**record.config, "seed": 1})
    with pytest.raises(ReplayMismatchError, match="first diverging step"):
        replay(tampered, model)


def test_replay_catches_a_tampered_trial_budget(suite_bundle):
    model, tasks, config = suite_bundle
    record, _ = run_one(model, tasks[1], "cntp", dataclasses.replace(config, seed=9))
    tampered = dataclasses.replace(record, config={**record.config, "n_max": 1})
    with pytest.raises(ReplayMismatchError):
        replay(tampered, model)


def test_replay_checks_voted_answers(kgram_bundle):
    model, tasks, config = kgram_bundle
    record, _ = run_one(model, tasks[0], "sc:3", config)
    assert replay(record, model) is None
    tampered = dataclasses.replace(record, answer="nope")
    with pytest.raises(ReplayMismatchError, match="answer"):
        replay(tampered, model)


def test_replay_reports_a_record_that_stops_short(tmp_path, kgram_bundle, capsys):
    """A record whose tokens are a strict prefix of the replayed ones agrees
    at every step it has, so only the lengths tell the two apart."""
    model, tasks, config = kgram_bundle
    record, _ = run_one(model, tasks[0], "greedy", config, model_spec="bundled:kgram")
    n = len(record.tokens)
    short = dataclasses.replace(record, tokens=record.tokens[:-1])
    with pytest.raises(ReplayMismatchError,
                       match=f"first diverging step {n - 1}: length {n - 1} became {n}"):
        replay(short, model)
    path = runner.write_run(str(tmp_path), 0, [short])
    assert main(["replay", "--record", path]) == 4
    assert f"replay mismatch: task kg00: first diverging step {n - 1}: length {n - 1} " \
           f"became {n}" in capsys.readouterr().err


def test_replay_needs_a_model_source(kgram_bundle):
    model, tasks, config = kgram_bundle
    record, _ = run_one(model, tasks[0], "greedy", config)
    assert record.model_spec == ""
    with pytest.raises(ModelFileError, match="no model spec"):
        replay(record)


def test_model_spec_expansion_and_resolution(tmp_path):
    assert bundled_spec("bundled:suite", "model") == bundled_path("suite.model")
    assert bundled_spec("bundled:kgram", "model") == "kgram:" + bundled_path("kgram.kgram")
    assert bundled_spec("bundled:theorem1_case", "model") == bundled_path("theorem1_case.model")
    assert bundled_spec("bundled:kgram", "config") == bundled_path("kgram.config.json")
    assert bundled_spec("bundled:theorem1_case", "config") == \
        bundled_path("theorem1_case.config.json")
    assert bundled_spec("bundled:suite", "tasks") == bundled_path("suite.tasks")
    # no task file ships with the theorem fixture; unknown names pass through
    assert bundled_spec("bundled:theorem1_case", "tasks") == "bundled:theorem1_case"
    assert bundled_spec("bundled:mystery", "config") == "bundled:mystery"
    assert bundled_spec("plain.model", "model") == "plain.model"

    from cntp import save_kgram_model
    path = str(tmp_path / "toy.kgram")
    save_kgram_model(train_kgram("abab", 2, 0.5), path)
    assert isinstance(resolve_model("kgram:" + path), KGramModel)
    assert isinstance(resolve_model(path), KGramModel)
    assert isinstance(resolve_model("bundled:suite"), ScriptedModel)
    with pytest.raises(ProtocolError):
        resolve_model("remote:127.0.0.1:9")


def test_ablation_spec_validation():
    with pytest.raises(ValueError, match="unknown ablation axis"):
        AblationSpec("mystery", (1,))
    with pytest.raises(ValueError, match="at least one value"):
        AblationSpec("n_max_sweep", ())
    with pytest.raises(ValueError, match="confidence_measure must be one of"):
        AblationSpec("confidence_measure", ("vibes",))
    with pytest.raises(ValueError, match="n_max must be ≥ 1"):
        AblationSpec("n_max_sweep", (0,))
    with pytest.raises(ValueError, match=r"top_p must be in \(0, 1\]"):
        AblationSpec("temperature_top_p_grid", ((0.6, 0.0),))
    with pytest.raises(ValueError, match="n_max must be an integer"):
        AblationSpec("n_max_sweep", (True,))
    with pytest.raises(ValueError, match="strategy parameter must be ≥ 1"):
        AblationSpec("best_of_n", (0,))
    with pytest.raises(ValueError, match="temperature_top_p_grid value"):
        AblationSpec("temperature_top_p_grid", ((0.6, 0.9, 1.0),))


def test_ablation_value_parsing():
    assert parse_values("n_max_sweep", "1, 5,10") == (1, 5, 10)
    assert parse_values("temperature_top_p_grid", "0.6x0.9,1.2x0.95") == \
        ((0.6, 0.9), (1.2, 0.95))
    assert parse_values("confidence_measure", "entropy,top_token") == \
        ("entropy", "top_token")
    with pytest.raises(ValueError, match="TxP"):
        parse_values("temperature_top_p_grid", "0.6")
    with pytest.raises(ValueError):
        parse_values("n_max_sweep", "1.5")
    with pytest.raises(ValueError, match="empty value list"):
        parse_values("n_max_sweep", " ,")


def test_ablation_variants_rescale_unit_thresholds():
    base = DecodeConfig(h_min=0.2, h_max=1.4, n_max=10)
    cfg, strategy = variant("confidence_measure", "max_prob", base)
    assert strategy == "cntp"
    assert (cfg.h_min, cfg.h_max) == (0.01, 0.9)
    cfg, _ = variant("confidence_measure", "entropy", base)
    assert (cfg.h_min, cfg.h_max) == (0.2, 1.4)
    cfg, _ = variant("n_max_sweep", 5, base)
    assert cfg.n_max == 5
    cfg, _ = variant("temperature_top_p_grid", (0.6, 0.9), base)
    assert (cfg.temperature, cfg.top_p) == (0.6, 0.9)
    cfg, strategy = variant("best_of_n", 7, base)
    assert cfg == base and strategy == "best_of_n:7"


def test_run_ablation_sweeps_and_logs(tmp_path, suite_bundle):
    model, tasks, config = suite_bundle
    out_path = str(tmp_path / "rows.jsonl")
    spec = AblationSpec("n_max_sweep", (1, 5))
    rows = run_ablation(spec, config, model, tasks[:4], [0], out_path=out_path)
    assert [r.value for r in rows] == [1, 5]
    assert all(0.0 <= r.accuracy_mean <= 1.0 for r in rows)
    assert rows[1].forward_passes_mean > rows[0].forward_passes_mean
    with open(out_path, encoding="utf-8") as fh:
        logged = [json.loads(line) for line in fh]
    assert [r["value"] for r in logged] == [1, 5]
    assert logged[0]["axis"] == "n_max_sweep"


def test_count_formatting_and_table_rendering():
    assert format_count(999.9) == "999.9"
    assert format_count(1000) == "1.0k"
    assert format_count(12345.6) == "12.3k"
    row = AblationRow("n_max_sweep", 5, "cntp", 0.74, 0.01, 1234.5, 2500.0)
    table = render_table([row])
    assert "value" in table and "accuracy" in table
    assert "0.7400 ± 0.0100" in table
    assert "1.2k" in table and "2.5k" in table


def test_bundled_data_files_are_current(tmp_path):
    """Regenerating every bundled data file must reproduce the packaged
    bytes exactly; a drift here means the builders and the shipped files
    disagree."""
    written = write_bundled_data(str(tmp_path))
    assert len(written) == 10
    for name in written:
        fresh = str(tmp_path / name)
        assert filecmp.cmp(fresh, bundled_path(name), shallow=False), name


def test_fixture_suite_shape(suite_bundle):
    model, tasks, config = suite_bundle
    assert len(tasks) == 50
    assert len({t.id for t in tasks}) == 50
    assert len({t.prompt for t in tasks}) == 50
    assert tasks[1].reference_answer == "b."
    assert config.h_min < config.h_max
    assert config.n_max == 10


def test_kgram_suite_shape(kgram_bundle):
    model, tasks, config = kgram_bundle
    assert len(tasks) == 20
    assert all(len(t.prompt) == 6 for t in tasks)
    assert all(t.reference_answer for t in tasks)
    assert config.global_cap == 12
    rebuilt_model, rebuilt_tasks, _ = build_kgram_suite()
    assert rebuilt_tasks == tasks


def test_suite_builders_are_deterministic(suite_bundle):
    _, tasks, config = suite_bundle
    _, again, config_again = build_fixture_suite()
    assert again == tasks
    assert config_again == config
