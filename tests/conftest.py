"""Shared test fixtures: the bundled verification fixtures, the synthetic
task suites and a seeded random scripted-model factory.

Acceptance tests register one summary line per criterion; the terminal
summary hook prints them after the run so the pass/fail lines survive
pytest's output capture.

With CI set (GitHub Actions sets it), hypothesis runs the "ci" profile: its
examples are derandomized, so CI=1 replays a CI failure locally.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from cntp import DecodeConfig, Distribution, ScriptedModel, Vocabulary
from cntp.harness import build_fixture_suite, build_kgram_suite
from cntp.theory import bundled_fixtures, check_theorem1

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion_report():
    """Callable(criterion, ok, detail) that records one summary line and
    fails the test when ok is false."""

    def report(number: int, ok: bool, detail: str) -> None:
        line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return report


@pytest.fixture(scope="session")
def bundled():
    return bundled_fixtures()


@pytest.fixture(scope="session")
def bundled_reports(bundled):
    return {fixture.name: check_theorem1(fixture) for fixture in bundled}


@pytest.fixture(scope="session")
def suite_bundle():
    return build_fixture_suite()


@pytest.fixture(scope="session")
def kgram_bundle():
    return build_kgram_suite()


def left_to_right(values) -> float:
    """The float sum of values in order, one rounding per addition, as
    sum() gives it before Python 3.12 (from 3.12 on, sum() compensates)."""
    total = 0.0
    for value in values:
        total += value
    return total


def make_random_scripted(rng: np.random.Generator, *, width: int = 4, depth: int = 2,
                         eos_floor: float = 0.05) -> ScriptedModel:
    """A random scripted model with rows for every prefix shorter than
    depth and a forced-eos default, so all decoders terminate. Every row
    gives eos at least eos_floor mass, keeping early stops reachable."""
    letters = "abcdefghijklmnop"[:width]
    vocab = Vocabulary(tuple(letters) + ("",), width)

    def random_row() -> Distribution:
        raw = rng.dirichlet(np.ones(width + 1)) * (1.0 - eos_floor)
        raw[width] += eos_floor
        return Distribution(raw / raw.sum())

    table = {}
    prefixes = [()]
    for _ in range(depth):
        grown = []
        for prefix in prefixes:
            table[prefix] = random_row()
            grown.extend(prefix + (tok,) for tok in range(width))
        prefixes = grown
    return ScriptedModel(vocab, table, Distribution(np.eye(width + 1)[width]))


@pytest.fixture(scope="session")
def random_model_factory():
    return make_random_scripted


@pytest.fixture
def two_token_vocab():
    """Minimal punctuation-stopping vocabulary: two content tokens and eos."""
    return Vocabulary(("a.", "b.", ""), 2)


def one_step_model(vocab: Vocabulary, probs) -> ScriptedModel:
    """Scripted model with a single content row at the empty prefix and a
    forced-eos default, so every answer is one content token plus eos."""
    size = len(vocab)
    return ScriptedModel(
        vocab, {(): Distribution(probs)}, Distribution(np.eye(size)[vocab.eos_id])
    )


@pytest.fixture
def plain_config():
    """Untempered, untruncated config so sampled probabilities equal the
    model's rows exactly."""
    return DecodeConfig(temperature=1.0, top_p=1.0)

