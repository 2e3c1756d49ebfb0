"""Suite runner: strategy dispatch, run records, replay, and aggregation.

Every run is captured as a RunRecord carrying the complete effective config
(including the per-run seed), the model spec, and the emitted token ids, so
any record replays bit-identically with no other state. Suite runs derive
one seed per (suite seed, task index) pair; otherwise tasks sharing a row
structure would succeed and fail in lockstep and the binomial error bars
would be wrong.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

from ..baselines import (
    beam_search_decode,
    best_of_n_whole_ppl,
    greedy_decode,
    greedy_policy,
    lowest_whole_ppl,
    path_seeds,
    self_consistency,
    stochastic_decode,
    vote,
)
from ..core import (CostLedger, DecodeConfig, DecodeOutcome, ModelFileError, check_fields,
                    check_seed, config_from_dict, config_to_dict, read_lines, write_json,
                    write_lines)
from ..core import validate_config  # noqa: F401  bench/tracing.py patches it here by name
from ..engine import CntpPolicy, SingleSamplePolicy, cntp_decode, lane_decode
from ..models import ModelSource, ProtocolError, RemoteModel, load_kgram_model, load_scripted_model
from ..sampling import derive_seeds
from .tasks import Task, bundled_spec, extractor_to_string, parse_extractor


class ReplayMismatchError(RuntimeError):
    """A replayed run did not reproduce the stored record."""


@dataclass(frozen=True)
class Strategy:
    """One decoding strategy: the sampling temperature suite runs default to
    (a --temperature flag or a config file wins), its default width (None
    for strategies that take none), and run(model, prompt, config, width,
    extractor), which returns a DecodeOutcome, or the voted (answer, cost)
    pair for self-consistency.

    How run_suite decodes a suite's runs in lockstep lanes (see
    engine.lane_decode): policy(config) is the policy of every lane (None:
    run each task alone); reduce(outcomes, vocabulary, prompt length,
    extractor, memo), if set, folds a run's width paths, one lane each,
    into what run returns, with memo the task's map by id(outcome) that the
    reduction keeps over a batch (baselines.vote's answers,
    baselines.lowest_whole_ppl's perplexities); a seedless strategy's
    result ignores the seed, so a suite decodes it once per task."""

    preset_temperature: float
    default_width: int | None
    run: Callable
    policy: Callable | None
    reduce: Callable | None = None
    seedless: bool = False


# The run entries look the decoders up in this module's globals at call
# time, so patching a decoder here reaches every strategy that runs it.
STRATEGIES = {
    "greedy": Strategy(0.0, None, lambda m, p, c, w, x: greedy_decode(m, p, c), greedy_policy,
                       seedless=True),
    "stochastic": Strategy(0.6, None, lambda m, p, c, w, x: stochastic_decode(m, p, c),
                           SingleSamplePolicy),
    "cntp": Strategy(1.2, None, lambda m, p, c, w, x: cntp_decode(m, p, c), CntpPolicy),
    "beam": Strategy(0.0, 4, lambda m, p, c, w, x: beam_search_decode(m, p, c, w), None,
                     seedless=True),
    "sc": Strategy(0.6, 5, lambda m, p, c, w, x:
                   self_consistency(stochastic_decode, m, p, c, w, x),
                   SingleSamplePolicy, vote),
    "cntp_sc": Strategy(1.2, 5, lambda m, p, c, w, x:
                        self_consistency(cntp_decode, m, p, c, w, x), CntpPolicy, vote),
    "best_of_n": Strategy(0.6, 5, lambda m, p, c, w, x: best_of_n_whole_ppl(m, p, c, w),
                          SingleSamplePolicy,
                          lambda outcomes, vocab, prompt_len, extractor, ppls:
                          lowest_whole_ppl(outcomes, ppls)),
}


# Largest width a strategy string may name: a suite decodes a lane per path
# and beam search scores width x |V| candidates a round.
WIDTH_CAP = 1024


def parse_int(text: str) -> int:
    """The integer text spells in ASCII decimal digits, with an optional
    leading minus. int() also reads underscores, other scripts' digits and
    surrounding spaces; those raise ValueError here."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_real(text: str) -> float:
    """The real number text spells in ASCII float syntax: an optional sign,
    then digits with an optional point and exponent, or inf, infinity or
    nan. float() also reads underscores, other scripts' digits and
    surrounding spaces; those raise ValueError here, and float() itself
    refuses the rest."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not a real number: {text!r}")
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a real number: {text!r}") from None


def parse_strategy(text: str) -> tuple[str, int | None]:
    """Strategy strings: a STRATEGIES root, with :<width> in 1..WIDTH_CAP
    for the roots that take one (beam:B, sc:n, cntp_sc:n, best_of_n:n)."""
    root, sep, arg = text.partition(":")
    strategy = STRATEGIES.get(root)
    if strategy is None:
        raise ValueError(f"unknown strategy {text!r}")
    if strategy.default_width is not None:
        try:
            width = parse_int(arg) if sep else strategy.default_width
        except ValueError as exc:
            raise ValueError(f"strategy parameter must be an integer: {text!r}") from exc
        if width < 1:
            raise ValueError(f"strategy parameter must be ≥ 1: {text!r}")
        if width > WIDTH_CAP:
            raise ValueError(f"strategy parameter must be at most {WIDTH_CAP}: {text!r}")
        return root, width
    if sep:
        raise ValueError(f"strategy {root} takes no parameter")
    return root, None


def canonical_strategy(text: str) -> str:
    return _strategy_text(*parse_strategy(text))


def _strategy_text(root: str, width: int | None) -> str:
    return f"{root}:{width}" if width is not None else root


def match_answer(answer: str, reference: str) -> bool:
    """Case-sensitive exact match after whitespace trim on both sides."""
    return answer.strip() == reference.strip()


@dataclass(frozen=True)
class RunRecord:
    task_id: str
    strategy: str
    model_spec: str
    prompt: str
    reference_answer: str
    extractor: str
    config: dict
    seed: int
    tokens: tuple[int, ...]
    output: str
    answer: str
    correct: bool
    cost: dict
    wall_time: float
    timestamp: str

    def to_dict(self) -> dict:
        """The fields by name, in field order, as dataclasses.asdict gives
        them; the config and cost dicts, which hold scalars, are copied."""
        data = {name: getattr(self, name) for name in _RECORD_KINDS}
        data["config"] = dict(self.config)
        data["cost"] = dict(self.cost)
        return data

    @staticmethod
    def from_dict(data: dict, where: str = "record") -> "RunRecord":
        """Check every field of a stored record; any fault raises ModelFileError."""
        data = check_fields(data, _RECORD_KINDS, ModelFileError, where, closed=True)
        check_fields(data["cost"], _COST_KINDS, ModelFileError, f"{where}: cost", closed=True)
        try:
            config_from_dict(data["config"])
            parse_strategy(data["strategy"])
            parse_extractor(data["extractor"])
        except ValueError as exc:  # ConfigError included
            raise ModelFileError(f"{where}: {exc}") from exc
        return RunRecord(**{**data, "tokens": tuple(data["tokens"])})


# Record fields as JSON kinds, read off the annotations above.
_JSON_KINDS = {"str": "str", "int": "int", "bool": "bool", "float": "real", "dict": "object",
               "tuple[int, ...]": "[int]"}
_RECORD_KINDS = {f.name: _JSON_KINDS[f.type] for f in dataclasses.fields(RunRecord)}
_COST_KINDS = {f.name: "int" for f in dataclasses.fields(CostLedger)}


def _prompt(vocab, task: Task):
    try:
        return vocab.sequence(vocab.encode(task.prompt))
    except ValueError as exc:
        raise ModelFileError(f"task {task.id}: prompt not encodable: {exc}") from exc


class _RecordBuilder:
    """The record builder of one task's runs under one strategy, model spec
    and config (seed aside). It builds what those records share once: the
    task's fields, its encoded prompt and the config dict, and the output,
    answer and correctness of each distinct token sequence a run emits. A
    record adds only its seeds, cost, wall time and timestamp."""

    __slots__ = ("vocab", "task", "prompt", "strategy", "model_spec", "extractor", "config",
                 "_judged")

    def __init__(self, vocab, task: Task, strategy: str, model_spec: str, config: dict):
        self.vocab = vocab
        self.task = task
        self.prompt = _prompt(vocab, task)
        self.strategy = strategy
        self.model_spec = model_spec
        self.extractor = extractor_to_string(task.extractor)
        self.config = config
        self._judged: dict[tuple, tuple[str, str, bool]] = {}

    def record(self, result, seed: int, record_seed: int, wall_time: float,
               timestamp: str) -> tuple[RunRecord, DecodeOutcome | None]:
        """The record, and the outcome if there is one, of a run whose
        config has seed seed and whose strategy returned result; the
        record's seed field holds record_seed."""
        task = self.task
        if isinstance(result, DecodeOutcome):
            outcome = result
            cost = outcome.cost
            tokens = outcome.sequence.tokens
            judged = self._judged.get(tokens)
            if judged is None:
                vocab = self.vocab
                generated = vocab.sequence(tokens[len(self.prompt.tokens):])
                answer = task.extractor.extract(generated, vocab)
                judged = self._judged[tokens] = (
                    generated.text, answer, match_answer(answer, task.reference_answer))
            output, answer, correct = judged
        else:
            # Self-consistency has no single output sequence; the voted answer
            # is the output and replay compares answers and ledgers instead.
            outcome = None
            answer, cost = result
            output = answer
            tokens = ()
            correct = match_answer(answer, task.reference_answer)
        # Built as __init__ builds it, one object.__setattr__ per field in
        # field order, but without the keyword call, which cost more than
        # these calls together; a suite builds a record per run. The cost
        # dict is one dict display. A field added to RunRecord or CostLedger
        # needs its line here; tests/test_harness.py checks these records
        # against ones built by __init__.
        record = object.__new__(RunRecord)
        put = object.__setattr__
        put(record, "task_id", task.id)
        put(record, "strategy", self.strategy)
        put(record, "model_spec", self.model_spec)
        put(record, "prompt", task.prompt)
        put(record, "reference_answer", task.reference_answer)
        put(record, "extractor", self.extractor)
        put(record, "config", {**self.config, "seed": seed})
        put(record, "seed", record_seed)
        put(record, "tokens", tokens)
        put(record, "output", output)
        put(record, "answer", answer)
        put(record, "correct", correct)
        put(record, "cost", {"forward_passes": cost.forward_passes,
                             "generated_tokens": cost.generated_tokens,
                             "high_entropy_steps": cost.high_entropy_steps,
                             "total_steps": cost.total_steps})
        put(record, "wall_time", wall_time)
        put(record, "timestamp", timestamp)
        return record, outcome


def run_one(model: ModelSource, task: Task, strategy: str, config: DecodeConfig,
            *, model_spec: str = "", record_seed: int | None = None,
            decoded: tuple | None = None) -> tuple[RunRecord, DecodeOutcome | None]:
    """Execute one strategy on one task. The record's seed field holds
    record_seed, or config.seed when it is None; suite runs pass the
    suite-level seed. decoded, if given, is the (result, wall time, record
    builder, timestamp) of a run already decoded under this config: the
    record takes that result in place of decoding it again, and the
    builder, made for this task, strategy, model spec and config, builds
    it with that timestamp, which the runs of one lockstep batch share. A
    run decoded here is stamped, in UTC, when its decode ends."""
    if decoded is None:
        root, width = parse_strategy(strategy)
        builder = _RecordBuilder(model.vocabulary, task, _strategy_text(root, width), model_spec,
                               config_to_dict(config))
        start = time.perf_counter()
        try:
            result = STRATEGIES[root].run(model, builder.prompt, config, width, task.extractor)
        except ProtocolError as exc:
            raise ProtocolError(f"task {task.id}: {exc}") from exc
        wall_time = time.perf_counter() - start
        timestamp = datetime.now(timezone.utc).isoformat()
    else:
        result, wall_time, builder, timestamp = decoded
    return builder.record(result, config.seed,
                          config.seed if record_seed is None else record_seed, wall_time,
                          timestamp)


@dataclass(frozen=True)
class SuiteAggregate:
    strategy: str
    n_tasks: int
    n_seeds: int
    accuracy_mean: float
    accuracy_std: float
    forward_passes_mean: float
    generated_tokens_mean: float


@dataclass(frozen=True)
class SuiteResult:
    records: list
    aggregate: SuiteAggregate
    run_dir: str | None


def aggregate_records(strategy: str, records, n_tasks: int, seeds) -> SuiteAggregate:
    """Mean accuracy over seeds (each seed covers every task, so this equals
    the mean of per-record correctness) plus the sample standard deviation
    across seeds; cost means are over all records."""
    position = {seed: i for i, seed in enumerate(seeds)}
    runs, hits = [0] * len(seeds), [0] * len(seeds)
    for r in records:
        i = position.get(r.seed)
        if i is not None:
            runs[i] += 1
            hits[i] += r.correct
    per_seed = [h / n for h, n in zip(hits, runs)]
    # Float sums run left to right: from Python 3.12 on, sum() of floats is
    # compensated and can differ in the last bit.
    total = 0.0
    for a in per_seed:
        total += a
    mean = total / len(per_seed)
    if len(per_seed) > 1:
        var = 0.0
        for a in per_seed:
            var += (a - mean) ** 2
        std = (var / (len(per_seed) - 1)) ** 0.5
    else:
        std = 0.0
    return SuiteAggregate(
        strategy=strategy,
        n_tasks=n_tasks,
        n_seeds=len(seeds),
        accuracy_mean=mean,
        accuracy_std=std,
        forward_passes_mean=sum(r.cost["forward_passes"] for r in records) / len(records),
        generated_tokens_mean=sum(r.cost["generated_tokens"] for r in records) / len(records),
    )


def _decode_lanes(model: ModelSource, strategy: Strategy, width: int | None, tasks, prompts,
                  configs) -> list:
    """What strategy.run returns for each config, run k being that of task
    k % len(tasks) (configs holds a run of every task per seed, seed by
    seed), decoded in lockstep lanes; a strategy without a policy runs each
    task alone. A reduction votes on or scores each task's distinct
    outcomes once."""
    n = len(tasks)
    if strategy.policy is None:
        return [strategy.run(model, prompts[k % n], config, width, tasks[k % n].extractor)
                for k, config in enumerate(configs)]
    policy = strategy.policy(configs[0])
    seeds = [config.seed for config in configs]
    if strategy.reduce is None:
        return lane_decode(model, [(prompts[k % n], seed) for k, seed in enumerate(seeds)],
                           policy)
    outcomes = lane_decode(model, [(prompts[k // width % n], seed)
                                   for k, seed in enumerate(path_seeds(seeds, width))], policy)
    vocab = model.vocabulary
    memos = [{} for _ in tasks]  # each task's answer or perplexity per distinct outcome
    return [strategy.reduce(outcomes[k * width:(k + 1) * width], vocab,
                            len(prompts[k % n].tokens), tasks[k % n].extractor, memos[k % n])
            for k in range(len(configs))]


def run_suite(model: ModelSource, tasks, strategy: str, config: DecodeConfig, seeds,
              *, model_spec: str = "", out_dir: str | None = None,
              workers: int = 1) -> SuiteResult:
    """One run per (task, seed). Per-run seeds are derive_seed(seed, task
    index), so runs are independent across tasks and reproducible
    individually. The runs of every suite seed decode as one batch of
    lockstep lanes, and a seedless strategy's once per task for every seed;
    with workers > 1 the seeds split into that many contiguous batches, one
    per thread. Each record is what run_one writes for its run, wall_time
    and timestamp aside: wall_time is its even share of the decode that
    served it, and the records of one batch share one timestamp, read when
    the batch's results are ready. run_one gets each record from one record
    builder per task. Records come back sorted by (seed, task id), so
    parallel and serial execution agree exactly."""
    if not tasks:
        raise ValueError("no tasks to run")
    if not seeds:
        raise ValueError("no seeds given")
    for seed in seeds:
        check_seed(seed)
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be unique")
    if workers < 1:
        raise ValueError("workers must be ≥ 1")
    root, width = parse_strategy(strategy)
    canonical = _strategy_text(root, width)
    spec = STRATEGIES[root]
    config_dict = config_to_dict(config)
    builders = [_RecordBuilder(model.vocabulary, task, canonical, model_spec, config_dict)
                for task in tasks]
    prompts = [builder.prompt for builder in builders]
    n = len(tasks)
    # Each batch's records come out seed by seed, and within a seed by task
    # id, ties in task order, so the batches in seed order need no sort.
    by_id = sorted(range(n), key=lambda i: tasks[i].id)

    def configs_at(batch):
        run_seeds = derive_seeds([seed for seed in batch for _ in tasks],
                                 (list(range(n)) * len(batch),))
        return [config.with_seed(seed) for seed in run_seeds]

    def decode(batch, configs):
        """Each task's result at each seed of batch, under configs, seed by
        seed, and the even share of the decode's wall time of each record
        it serves."""
        start = time.perf_counter()
        try:
            results = _decode_lanes(model, spec, width, tasks, prompts, configs)
        except ProtocolError as exc:
            raise ProtocolError(f"tasks {tasks[0].id}..{tasks[-1].id}: {exc}") from exc
        return results, (time.perf_counter() - start) / len(configs)

    if spec.seedless:  # decoded at the first seed, for every seed
        seedless, share = decode(seeds[:1], configs_at(seeds[:1]))
        share /= len(seeds)

    def execute(batch):
        configs = configs_at(batch)
        results, wall_time = ((seedless * len(batch), share) if spec.seedless
                              else decode(batch, configs))
        timestamp = datetime.now(timezone.utc).isoformat()
        return [run_one(model, tasks[i], canonical, configs[k + i], model_spec=model_spec,
                        record_seed=seed,
                        decoded=(results[k + i], wall_time, builders[i], timestamp))[0]
                for k, seed in zip(range(0, len(configs), n), batch) for i in by_id]

    if workers > 1:
        batches = [seeds[len(seeds) * w // workers:len(seeds) * (w + 1) // workers]
                   for w in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(execute, [batch for batch in batches if batch]))
    else:
        done = [execute(seeds)]
    records = [record for batch in done for record in batch]
    aggregate = aggregate_records(canonical, records, len(tasks), seeds)

    run_dir = None
    if out_dir is not None:
        run_dir = os.path.dirname(write_run(out_dir, seeds[0], records))
        write_json(os.path.join(run_dir, "aggregate.json"), dataclasses.asdict(aggregate))
    return SuiteResult(records, aggregate, run_dir)


def write_run(out_dir: str, seed: int, records) -> str:
    """Write records to out_dir/<UTC stamp>-s<seed>/records.jsonl; returns its path."""
    run_dir = os.path.join(out_dir, f"{datetime.now(timezone.utc):%Y%m%d-%H%M%S.%f}-s{seed}")
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "records.jsonl")
    write_records(path, records)
    return path


def write_records(path: str, records) -> None:
    """Append-only line-delimited record log."""
    write_lines(path, (record.to_dict() for record in records), append=True)


def read_records(path: str) -> list[RunRecord]:
    records = [RunRecord.from_dict(data, f"{path}: line {lineno}")
               for lineno, data in read_lines(path, ModelFileError)]
    if not records:
        raise ModelFileError(f"{path}: no records found")
    return records


def resolve_model(spec: str) -> ModelSource:
    """Model specs: a scripted-model path, kgram:<path> (or a .kgram path),
    remote:<host:port>, or bundled:<name>. The caller closes the model; a
    remote one holds a socket."""
    spec = bundled_spec(spec, "model")
    if spec.startswith("remote:"):
        return RemoteModel(spec[len("remote:"):])
    if spec.startswith("kgram:"):
        return load_kgram_model(spec[len("kgram:"):])
    if spec.endswith(".kgram"):
        return load_kgram_model(spec)
    return load_scripted_model(spec)


def replay(record: RunRecord, model: ModelSource | None = None) -> DecodeOutcome | None:
    """Re-run a record and demand a bit-identical result.

    Token-producing strategies compare full token sequences and report the
    first diverging step on mismatch. Self-consistency records compare the
    voted answer and the cost ledger. Returns the fresh outcome (None for
    self-consistency)."""
    if model is None:
        if not record.model_spec:
            raise ModelFileError("record carries no model spec; pass a model")
        with resolve_model(record.model_spec) as model:
            return replay(record, model)
    config = config_from_dict(record.config, source="record config")
    task = Task(record.task_id, record.prompt, record.reference_answer,
                parse_extractor(record.extractor))
    fresh, outcome = run_one(model, task, record.strategy, config,
                             model_spec=record.model_spec)
    if record.tokens or fresh.tokens:
        old, new = record.tokens, fresh.tokens
        for step, (a, b) in enumerate(zip(old, new)):
            if a != b:
                raise ReplayMismatchError(
                    f"task {record.task_id}: first diverging step {step}: "
                    f"token {a} became {b}"
                )
        if len(old) != len(new):
            raise ReplayMismatchError(
                f"task {record.task_id}: first diverging step {min(len(old), len(new))}: "
                f"length {len(old)} became {len(new)}"
            )
    for field_name in ("output", "answer", "correct", "cost"):
        a, b = getattr(record, field_name), getattr(fresh, field_name)
        if a != b:
            raise ReplayMismatchError(
                f"task {record.task_id}: replayed {field_name} {b!r} does not "
                f"match recorded {a!r}"
            )
    return outcome
