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
import json
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
    self_consistency,
    stochastic_decode,
)
from ..core import DecodeConfig, DecodeOutcome, config_from_dict, config_to_dict, validate_config
from ..engine import cntp_decode
from ..models import (
    ModelFileError,
    ModelSource,
    ProtocolError,
    RemoteModel,
    load_kgram_model,
    load_scripted_model,
)
from ..sampling import derive_seed
from .tasks import Task, bundled_spec, extractor_to_string, parse_extractor


class ReplayMismatchError(RuntimeError):
    """A replayed run did not reproduce the stored record."""


@dataclass(frozen=True)
class Strategy:
    """One decoding strategy: the sampling temperature suite runs default to
    (a --temperature flag or a config file wins), its default width (None
    for strategies that take none), and run(model, prompt, config, width,
    extractor), which returns a DecodeOutcome, or the voted (answer, cost)
    pair for self-consistency."""

    preset_temperature: float
    default_width: int | None
    run: Callable


# The entries look the decoders up in this module's globals at call time,
# so patching a decoder here reaches every strategy that runs it.
STRATEGIES = {
    "greedy": Strategy(0.0, None, lambda m, p, c, w, x: greedy_decode(m, p, c)),
    "stochastic": Strategy(0.6, None, lambda m, p, c, w, x: stochastic_decode(m, p, c)),
    "cntp": Strategy(1.2, None, lambda m, p, c, w, x: cntp_decode(m, p, c)),
    "beam": Strategy(0.0, 4, lambda m, p, c, w, x: beam_search_decode(m, p, c, w)),
    "sc": Strategy(0.6, 5, lambda m, p, c, w, x:
                   self_consistency(stochastic_decode, m, p, c, w, x)),
    "cntp_sc": Strategy(1.2, 5, lambda m, p, c, w, x:
                        self_consistency(cntp_decode, m, p, c, w, x)),
    "best_of_n": Strategy(0.6, 5, lambda m, p, c, w, x: best_of_n_whole_ppl(m, p, c, w)),
}


def parse_strategy(text: str) -> tuple[str, int | None]:
    """Strategy strings: a STRATEGIES root, with :<width> for the roots that
    take one (beam:B, sc:n, cntp_sc:n, best_of_n:n)."""
    root, sep, arg = text.partition(":")
    strategy = STRATEGIES.get(root)
    if strategy is None:
        raise ValueError(f"unknown strategy {text!r}")
    if strategy.default_width is not None:
        try:
            width = int(arg) if sep else strategy.default_width
        except ValueError as exc:
            raise ValueError(f"strategy parameter must be an integer: {text!r}") from exc
        if width < 1:
            raise ValueError(f"strategy parameter must be ≥ 1: {text!r}")
        return root, width
    if sep:
        raise ValueError(f"strategy {root} takes no parameter")
    return root, None


def canonical_strategy(text: str) -> str:
    root, width = parse_strategy(text)
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
        data = dataclasses.asdict(self)
        data["tokens"] = list(self.tokens)
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunRecord":
        fields = {f.name for f in dataclasses.fields(RunRecord)}
        unknown = set(data) - fields
        if unknown:
            raise ModelFileError(f"unknown record fields: {sorted(unknown)}")
        missing = fields - set(data)
        if missing:
            raise ModelFileError(f"missing record fields: {sorted(missing)}")
        data = dict(data)
        data["tokens"] = tuple(data["tokens"])
        return RunRecord(**data)


def run_one(model: ModelSource, task: Task, strategy: str, config: DecodeConfig,
            *, model_spec: str = "") -> tuple[RunRecord, DecodeOutcome | None]:
    """Execute one strategy on one task. The record's seed field holds
    config.seed; suite runs overwrite it with the suite-level seed."""
    root, width = parse_strategy(strategy)
    validate_config(config)
    vocab = model.vocabulary
    try:
        prompt = vocab.sequence(vocab.encode(task.prompt))
    except ValueError as exc:
        raise ModelFileError(f"task {task.id}: prompt not encodable: {exc}") from exc
    start = time.perf_counter()
    try:
        result = STRATEGIES[root].run(model, prompt, config, width, task.extractor)
    except ProtocolError as exc:
        raise ProtocolError(f"task {task.id}: {exc}") from exc
    wall_time = time.perf_counter() - start
    if isinstance(result, DecodeOutcome):
        outcome = result
        generated = vocab.sequence(outcome.sequence.tokens[len(prompt.tokens):])
        answer = task.extractor.extract(generated, vocab)
        cost = outcome.cost
        output = generated.text
        tokens = outcome.sequence.tokens
    else:
        # Self-consistency has no single output sequence; the voted answer
        # is the output and replay compares answers and ledgers instead.
        outcome = None
        answer, cost = result
        output = answer
        tokens = ()
    record = RunRecord(
        task_id=task.id,
        strategy=canonical_strategy(strategy),
        model_spec=model_spec,
        prompt=task.prompt,
        reference_answer=task.reference_answer,
        extractor=extractor_to_string(task.extractor),
        config=config_to_dict(config),
        seed=config.seed,
        tokens=tokens,
        output=output,
        answer=answer,
        correct=match_answer(answer, task.reference_answer),
        cost=dataclasses.asdict(cost),
        wall_time=wall_time,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    return record, outcome


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
    per_seed = []
    for seed in seeds:
        batch = [r for r in records if r.seed == seed]
        per_seed.append(sum(r.correct for r in batch) / len(batch))
    mean = sum(per_seed) / len(per_seed)
    if len(per_seed) > 1:
        var = sum((a - mean) ** 2 for a in per_seed) / (len(per_seed) - 1)
        std = var ** 0.5
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


def run_suite(model: ModelSource, tasks, strategy: str, config: DecodeConfig, seeds,
              *, model_spec: str = "", out_dir: str | None = None,
              workers: int = 1) -> SuiteResult:
    """One run per (task, seed). Per-run seeds are derive_seed(seed, task
    index), so runs are independent across tasks and reproducible
    individually. Records come back sorted by (seed, task id) and aggregates
    are order-independent, so parallel and serial execution agree exactly."""
    if not tasks:
        raise ValueError("no tasks to run")
    if not seeds:
        raise ValueError("no seeds given")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be unique")
    canonical = canonical_strategy(strategy)
    jobs = [(seed, idx, task) for seed in seeds for idx, task in enumerate(tasks)]

    def execute(job):
        seed, idx, task = job
        cfg = dataclasses.replace(config, seed=derive_seed(seed, idx))
        record, _ = run_one(model, task, canonical, cfg, model_spec=model_spec)
        return dataclasses.replace(record, seed=seed)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(execute, jobs))
    else:
        records = [execute(job) for job in jobs]
    records.sort(key=lambda r: (seeds.index(r.seed), r.task_id))
    aggregate = aggregate_records(canonical, records, len(tasks), seeds)

    run_dir = None
    if out_dir is not None:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S.%f")
        run_dir = os.path.join(out_dir, f"{stamp}-s{seeds[0]}")
        os.makedirs(run_dir, exist_ok=True)
        write_records(os.path.join(run_dir, "records.jsonl"), records)
        with open(os.path.join(run_dir, "aggregate.json"), "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(aggregate), fh, indent=1)
            fh.write("\n")
    return SuiteResult(records, aggregate, run_dir)


def write_records(path: str, records) -> None:
    """Append-only line-delimited record log."""
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict()) + "\n")


def read_records(path: str) -> list[RunRecord]:
    records: list[RunRecord] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(RunRecord.from_dict(json.loads(line)))
        except (ValueError, TypeError) as exc:
            raise ModelFileError(f"{path}: line {lineno}: {exc}") from exc
    if not records:
        raise ModelFileError(f"{path}: no records found")
    return records


def resolve_model(spec: str) -> ModelSource:
    """Model specs: a scripted-model path, kgram:<path> (or a .kgram path),
    remote:<host:port>, or bundled:<name>."""
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
        model = resolve_model(record.model_spec)
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
