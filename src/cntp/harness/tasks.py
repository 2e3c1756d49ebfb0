"""Task corpus: the line-delimited task-file format and the bundled
synthetic suites.

The bundled data has two halves. Fifty scripted-fixture tasks share one
model whose per-prompt plans come from the same generator as the theorem
fixtures, so expected accuracies and gaps are exactly computable before any
run. Twenty character-model continuation tasks give a stochastic,
non-scripted sanity domain: each reference is the trained model's own
greedy continuation under the bundled config, so greedy decoding scores
1.0 by construction and sampling strategies land wherever they land.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..baselines import AnswerExtractor, greedy_decode
from ..core import (DecodeConfig, Distribution, ModelFileError, TokenId, check_fields,
                    config_to_dict, read_lines, write_json, write_lines)
from ..models import KGramModel, ScriptedModel, save_kgram_model, save_scripted_model, train_kgram
from ..theory import (
    build_theorem1_fixture,
    derive_thresholds,
    plan_vocabulary,
    script_plan,
    validate_regimes,
    write_fixture,
)


@dataclass(frozen=True)
class Task:
    id: str
    prompt: str
    reference_answer: str
    extractor: AnswerExtractor


def parse_extractor(text: str) -> AnswerExtractor:
    """Extractor strings: "full_text", "last_token", or
    "text_after_marker:<marker>"."""
    if text == "full_text" or text == "last_token":
        return AnswerExtractor(text)
    if text.startswith("text_after_marker:"):
        marker = text[len("text_after_marker:"):]
        if not marker:
            raise ValueError("text_after_marker needs a non-empty marker")
        return AnswerExtractor("text_after_marker", marker)
    raise ValueError(f"unknown extractor {text!r}")


def extractor_to_string(extractor: AnswerExtractor) -> str:
    if extractor.rule == "text_after_marker":
        return f"text_after_marker:{extractor.marker}"
    return extractor.rule


def load_tasks(path: str) -> list[Task]:
    """Parse a line-delimited task file; errors carry line context."""
    tasks: dict[str, Task] = {}
    for lineno, data in read_lines(path, ModelFileError):
        where = f"{path}: line {lineno}"
        task = check_fields(data, {"id": "str", "prompt": "str", "reference_answer": "str",
                                   "extractor": "str"}, ModelFileError, where)
        if task["id"] in tasks:
            raise ModelFileError(f"{where}: duplicate task id {task['id']!r}")
        try:
            tasks[task["id"]] = Task(task["id"], task["prompt"], task["reference_answer"],
                                     parse_extractor(task["extractor"]))
        except ValueError as exc:
            raise ModelFileError(f"{where}: {exc}") from exc
    if not tasks:
        raise ModelFileError(f"{path}: no tasks found")
    return list(tasks.values())


def save_tasks(tasks, path: str) -> None:
    write_lines(path, ({"id": t.id, "prompt": t.prompt, "reference_answer": t.reference_answer,
                        "extractor": extractor_to_string(t.extractor)} for t in tasks))


# Ten plan shapes cycled over the fifty fixture tasks. Most contain a
# high-uncertainty step (where the adaptive engine's dominance is exact);
# one is pure-low to keep the equality case in the mix.
SUITE_WIDTH = 8
SUITE_N_MAX = 10
SUITE_PLANS = (
    ((0.9, "low"), (0.3, "high"), (0.9, "low")),
    ((0.3, "high"),),
    ((0.9, "low"), (0.25, "high")),
    ((0.2, "high"), (0.9, "low")),
    ((0.35, "high"), (0.35, "high")),
    ((0.95, "low"), (0.95, "low")),
    ((0.9, "low"), (0.4, "high"), (0.9, "low")),
    ((0.5, "high"),),
    ((0.15, "high"), (0.9, "low"), (0.3, "high")),
    ((0.9, "low"), (0.2, "high"), (0.2, "high")),
)
SUITE_SIZE = 50

THEOREM1_PLAN = ((0.9, "low"), (0.3, "high"), (0.9, "low"))


def suite_plan(index: int):
    return SUITE_PLANS[index % len(SUITE_PLANS)]


def build_fixture_suite() -> tuple[ScriptedModel, list[Task], DecodeConfig]:
    """The 50-task scripted suite: one shared model, prompt tokens Q00..Q49
    each routing into its own plan, thresholds derived so every task's
    declared regimes bind under the one shared config."""
    prompts = tuple(f"Q{i:02d}" for i in range(SUITE_SIZE))
    vocab = plan_vocabulary(SUITE_WIDTH, "punct", extra_tokens=prompts)
    prompt_ids = {p: vocab.encode(p)[0] for p in prompts}

    table: dict[tuple[TokenId, ...], object] = {}
    tasks: list[Task] = []
    all_low: list[float] = []
    all_high: list[float] = []
    for i, prompt in enumerate(prompts):
        reference, low, high = script_plan(
            vocab, table, suite_plan(i), (prompt_ids[prompt],),
            SUITE_WIDTH, "punct", rotate=i % SUITE_WIDTH,
        )
        all_low.extend(low)
        all_high.extend(high)
        tasks.append(Task(
            id=f"fix{i:02d}",
            prompt=prompt,
            reference_answer=vocab.text(reference),
            extractor=AnswerExtractor("full_text"),
        ))

    h_min, h_max = derive_thresholds(all_low, all_high)
    config = DecodeConfig(h_min=h_min, h_max=h_max, n_max=SUITE_N_MAX)
    validate_regimes(all_low, all_high, config)
    # Default row: forced eos, so every wrong turn ends the sequence.
    default = Distribution(np.eye(len(vocab))[vocab.eos_id])
    model = ScriptedModel(vocab, table, default)
    return model, tasks, config


KGRAM_CORPUS = (
    "the cat sat on the mat and the dog sat on the log. "
    "the cat ran to the log and the dog ran to the mat. "
    "a bird on the mat saw the cat and the bird flew to the log. "
    "the dog saw the bird and ran to the log, but the bird flew away. "
    "the cat and the dog sat by the log and the bird sat on the mat. "
    "at night the cat slept on the mat while the dog slept by the log. "
    "in the morning the bird sang, the cat stretched, and the dog barked. "
    "the mat lay by the door and the log lay by the wall. "
    "every day the cat walked past the log to sit on the warm mat. "
    "every night the dog walked past the mat to sleep by the old log."
)
KGRAM_K = 3
KGRAM_ALPHA = 0.1
KGRAM_SUITE_SIZE = 20
KGRAM_ANSWER_LEN = 12


def build_kgram_suite() -> tuple[KGramModel, list[Task], DecodeConfig]:
    """Twenty continuation tasks on a character model trained from the
    bundled corpus. Each reference is the model's own greedy continuation
    under the returned config (which caps answers at KGRAM_ANSWER_LEN
    tokens), so greedy scores 1.0 on this suite by construction."""
    model = train_kgram(KGRAM_CORPUS, KGRAM_K, KGRAM_ALPHA)
    config = DecodeConfig(global_cap=KGRAM_ANSWER_LEN)
    vocab = model.vocabulary
    tasks: list[Task] = []
    seen_prompts: set[str] = set()
    offset = 0
    while len(tasks) < KGRAM_SUITE_SIZE:
        prompt = KGRAM_CORPUS[offset : offset + 6]
        offset += 29
        if len(prompt) < 6 or prompt in seen_prompts:
            continue
        seen_prompts.add(prompt)
        prompt_seq = vocab.sequence(vocab.encode(prompt))
        outcome = greedy_decode(model, prompt_seq, config)
        answer = vocab.text(outcome.sequence.tokens[len(prompt_seq.tokens):])
        tasks.append(Task(
            id=f"kg{len(tasks):02d}",
            prompt=prompt,
            reference_answer=answer,
            extractor=AnswerExtractor("full_text"),
        ))
    return model, tasks, config


def bundled_path(name: str) -> str:
    """Absolute path of a bundled data file."""
    return str(resources.files("cntp").joinpath("data", name))


# What bundled:<name> means as each kind of spec; model specs keep their
# kgram: scheme in front of the data file's path.
BUNDLES = {
    "suite": {"model": "suite.model", "config": "suite.config.json", "tasks": "suite.tasks"},
    "kgram": {"model": "kgram:kgram.kgram", "config": "kgram.config.json", "tasks": "kgram.tasks"},
    "theorem1_case": {"model": "theorem1_case.model", "config": "theorem1_case.config.json"},
}


def bundled_spec(spec: str, kind: str) -> str:
    """Expand bundled:<name> to the packaged model spec, config file or task
    file (kind "model", "config" or "tasks") of that name; any other spec
    comes back unchanged."""
    scheme, _, name = spec.partition(":")
    if scheme != "bundled" or kind not in BUNDLES.get(name, {}):
        return spec
    prefix, sep, filename = BUNDLES[name][kind].rpartition(":")
    return prefix + sep + bundled_path(filename)


def write_bundled_data(directory: str) -> list[str]:
    """Regenerate every bundled data file into directory; returns the file
    names written. The packaged copies under cntp/data were produced by
    exactly this function, so tests can diff a fresh rebuild against them."""
    written: list[str] = []

    def path(name: str) -> str:
        written.append(name)
        return os.path.join(directory, name)

    fixture = build_theorem1_fixture(THEOREM1_PLAN, n_max=10, name="theorem1_case")
    write_fixture(fixture, path("theorem1_case.model"))
    written.extend(["theorem1_case.ref", "theorem1_case.config.json"])

    model, tasks, config = build_fixture_suite()
    save_scripted_model(model, path("suite.model"))
    save_tasks(tasks, path("suite.tasks"))
    write_json(path("suite.config.json"), config_to_dict(config))

    with open(path("kgram_corpus.txt"), "w", encoding="utf-8") as fh:
        fh.write(KGRAM_CORPUS + "\n")
    kmodel, ktasks, kconfig = build_kgram_suite()
    save_kgram_model(kmodel, path("kgram.kgram"))
    save_tasks(ktasks, path("kgram.tasks"))
    write_json(path("kgram.config.json"), config_to_dict(kconfig))
    return written
