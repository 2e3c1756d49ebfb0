"""Reference computations the benchmark checks the program against.

Everything here is written apart from the program: it parses the bundled
data files itself and recomputes argmax walks, add-alpha rows, nucleus
sets and outcome probabilities with its own code. Where two float
computations of the same quantity may differ in the last place, the
comparison carries a tolerance of 1e-12.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

TOL = 1e-12


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


class ScriptedTable:
    """A .model file as plain numpy rows keyed by exact prefix."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.tokens = list(data["tokens"])
        self.eos = data["eos"]
        self.rows = {tuple(r["prefix"]): np.array(r["probs"], dtype=float) for r in data["rows"]}
        self.default = np.array(data["default"], dtype=float)

    def token_id(self, surface: str) -> int:
        return self.tokens.index(surface)

    def argmax_walk(self, prompt: tuple, cap: int) -> tuple:
        """Greedy answer tokens after prompt: lowest id on ties, stop after
        eos or at cap."""
        prefix = list(prompt)
        answer = []
        while len(answer) < cap and not (answer and answer[-1] == self.eos):
            tok = int(np.argmax(self.rows.get(tuple(prefix), self.default)))
            prefix.append(tok)
            answer.append(tok)
        return tuple(answer)


class KGramReference:
    """A .kgram file with its own add-alpha rows, argmax and nucleus sets,
    cached per context."""

    def __init__(self, path: str, punctuation: str):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.k = data["k"]
        self.alpha = data["alpha"]
        self.tokens = list(data["tokens"])
        self.eos = data["eos"]
        self.counts = {
            tuple(int(t) for t in ctx.split(",")): {int(t): n for t, n in bucket.items()}
            for ctx, bucket in data["counts"].items()
        }
        self.stops = frozenset(
            i for i, t in enumerate(self.tokens)
            if i == self.eos or any(ch in punctuation for ch in t)
        )
        self._rows: dict[tuple, list[float]] = {}
        self._nuclei: dict[tuple, frozenset] = {}

    def encode(self, text: str) -> tuple:
        return tuple(self.tokens.index(ch) for ch in text)

    def row(self, context: tuple) -> list[float]:
        row = self._rows.get(context)
        if row is None:
            bucket = self.counts.get(context, {})
            total = sum(bucket.values()) + self.alpha * len(self.tokens)
            row = [(bucket.get(i, 0) + self.alpha) / total for i in range(len(self.tokens))]
            self._rows[context] = row
        return row

    def nucleus(self, context: tuple, top_p: float) -> frozenset:
        """Tokens whose preceding mass, in descending-probability order with
        ascending ids on ties, is still below top_p."""
        kept = self._nuclei.get(context)
        if kept is None:
            row = self.row(context)
            order = sorted(range(len(row)), key=lambda i: (-row[i], i))
            kept, mass = set(), 0.0
            for i in order:
                if mass >= top_p + 1e-9:
                    break
                kept.add(i)
                mass += row[i]
            kept = self._nuclei[context] = frozenset(kept)
        return kept

    def argmax_walk(self, prompt: tuple, cap: int) -> tuple:
        seq = list(prompt)
        for _ in range(cap):
            row = self.row(tuple(seq[-self.k:]))
            seq.append(max(range(len(row)), key=lambda i: (row[i], -i)))
        return tuple(seq[len(prompt):])

    def check_sampled(self, prompt: tuple, answer: tuple, trace, config: dict) -> bool:
        """Every token drawn at a single-trial step lies in its row's top-p
        nucleus and its trace probability equals the row's; multi-trial
        steps must consume exactly one branch by the engine's stopping
        rules, so the walk lines up with the trace to the last token."""
        seq = list(prompt)
        pos = 0
        for step in trace:
            if pos >= len(answer):
                return False
            if step.n_trials == 1:
                context = tuple(seq[-self.k:])
                tok = answer[pos]
                if tok not in self.nucleus(context, config["top_p"]):
                    return False
                if not close(step.chosen_prob, self.row(context)[tok]):
                    return False
                length = 1
            else:
                length = 1
                while (answer[pos + length - 1] not in self.stops
                       and length < config["branch_cap"]
                       and pos + length < config["global_cap"]):
                    length += 1
            seq.extend(answer[pos:pos + length])
            pos += length
        return pos == len(answer)


def binomial_bound_ok(successes: int, probabilities, z: float = 5.0) -> bool:
    """successes of independent Bernoulli(p_i) draws lie within z standard
    deviations of their expectation."""
    mean = sum(probabilities)
    sd = math.sqrt(sum(p * (1 - p) for p in probabilities))
    return abs(successes - mean) <= z * sd + 1e-9


# Random scripted models for the oracle: every prefix shorter than
# RANDOM_DEPTH of non-eos tokens gets its own row, so the outcome tree is complete and its
# size fixed; rows draw a Dirichlet concentration per row, so entropies
# spread on both sides of the oracle config's thresholds.
RANDOM_LETTERS = ("a", "b", "c")
RANDOM_TOKENS = (*RANDOM_LETTERS, ".", "")  # eos last
RANDOM_DEPTH = 5
RANDOM_CONCENTRATIONS = (0.3, 1.0, 3.0)


def random_tables(rng: np.random.Generator, count: int) -> list[dict]:
    """count tables of prefix -> probability row over letters, '.' and eos."""
    size = len(RANDOM_TOKENS)
    tables = []
    for _ in range(count):
        table = {}
        for depth in range(RANDOM_DEPTH):
            for prefix in itertools.product(range(size - 1), repeat=depth):
                row = rng.dirichlet(np.full(size, rng.choice(RANDOM_CONCENTRATIONS)))
                table[prefix] = row / row.sum()
        tables.append(table)
    return tables


def walk_products(table: dict, eos: int) -> dict[tuple, float]:
    """Single-sample outcomes at T=1, top_p=1: every path's product of row
    probabilities, multiplied from the root; unlisted prefixes emit eos."""
    out: dict[tuple, float] = {}
    stack = [((), 1.0)]
    while stack:
        prefix, prob = stack.pop()
        if prefix and prefix[-1] == eos:
            out[prefix] = prob
            continue
        row = table.get(prefix)
        if row is None:
            stack.append((prefix + (eos,), prob))
            continue
        for tok in np.flatnonzero(row):
            stack.append((prefix + (int(tok),), prob * float(row[tok])))
    return out
