"""The four workloads. Each is a closed loop with one caller.

A workload makes its inputs from the run's seed once, in its constructor,
together with the reference values its checks need. Every pass then calls
``setup`` ``setups_per_pass`` times (timed as set-up: a fresh model, tasks
and config, as a CLI process loads them, so the program's caches start
cold; the pass uses the last one), ``run`` (the
timed pass; it returns one Op per operation) and ``check`` (untimed; it
returns how many operations failed and whether the pass's aggregate checks
held).
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from cntp import theory
from cntp.core import DecodeConfig, Distribution, Vocabulary, load_config
from cntp.harness import runner
from cntp.harness.tasks import bundled_path, load_tasks
from cntp.models import (
    ModelServer,
    RemoteModel,
    ScriptedModel,
    load_kgram_model,
    load_scripted_model,
)

import checks

SUITE_STRATEGIES = ("greedy", "stochastic", "cntp", "beam:4", "sc:5", "cntp_sc:5", "best_of_n:5")
KGRAM_STRATEGIES = ("greedy", "stochastic", "cntp")
SUITE_SEEDS = 12        # suite seeds per pass: 7 x 50 x 12 = 4200 decodes
LONGGEN_TASKS = (0, 5, 10, 15)  # the bundled k-gram prompts longgen decodes
LONGGEN_CAP = 3072      # every longgen answer runs to this many tokens
REMOTE_CAP = 128        # answer cap of the remote workload's 20 tasks
ORACLE_MODELS = 10      # random scripted models per oracle pass
# Thresholds that put the random models' row entropies on both sides.
ORACLE_CONFIG = DecodeConfig(h_min=0.6, h_max=1.4, n_max=4, temperature=1.0, top_p=1.0)


@dataclass
class Op:
    """One timed operation: its wall time, what it was called with and what
    it returned. kind names the strategy or the oracle call."""

    seconds: float
    kind: str
    args: tuple
    result: object
    tokens: int = 0


class _RunOneTimer:
    """Times every run_one call of a pass at the name run_suite looks up."""

    def __init__(self):
        self.ops: list[Op] = []

    def __enter__(self):
        original = self._original = runner.run_one
        ops = self.ops

        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = original(*args, **kwargs)
            seconds = perf_counter() - t0
            record = result[0]
            ops.append(Op(seconds, record.strategy, args, result,
                          record.cost["generated_tokens"]))
            return result

        runner.run_one = timed
        return self

    def __exit__(self, *exc):
        runner.run_one = self._original


def _decode_pass(model, tasks, strategies, config, seeds) -> list[Op]:
    with _RunOneTimer() as timer:
        for strategy in strategies:
            runner.run_suite(model, tasks, strategy, config, seeds)
    return timer.ops


class Suite:
    """The bundled 50-task scripted suite under all seven strategies."""

    name = "suite"
    setups_per_pass = 10

    def __init__(self, seed: int):
        self.seeds = [seed * SUITE_SEEDS + i for i in range(SUITE_SEEDS)]
        self.table = checks.ScriptedTable(bundled_path("suite.model"))
        model, tasks, config = self._load()
        vocab = model.vocabulary
        self.exact = {}
        for task in tasks:
            prompt = vocab.sequence(vocab.encode(task.prompt))
            ref = theory.ReferenceSequence(vocab.encode(task.reference_answer),
                                           task.reference_answer)
            self.exact[task.id] = {
                "stochastic": theory.exact_correctness(
                    model, theory.SingleSamplePolicy(config), ref, prompt),
                "cntp": theory.exact_correctness(model, theory.CntpPolicy(config), ref, prompt),
            }

    @staticmethod
    def _load():
        return (load_scripted_model(bundled_path("suite.model")),
                load_tasks(bundled_path("suite.tasks")),
                load_config(bundled_path("suite.config.json")))

    def setup(self, tracer):
        model, tasks, config = self._load()
        return (tracer.model(model) if tracer else model), tasks, config

    def run(self, state) -> list[Op]:
        model, tasks, config = state
        return _decode_pass(model, tasks, SUITE_STRATEGIES, config, self.seeds)

    def check(self, state, ops) -> tuple[int, bool]:
        model = getattr(state[0], "inner", state[0])  # replay untraced
        failed = 0
        for op in ops:
            (_, task, strategy, cfg), (record, _) = op.args[:4], op.result
            root = strategy.partition(":")[0]
            cost = record.cost
            ok = True
            try:
                runner.replay(record, model)
            except runner.ReplayMismatchError:
                ok = False
            if root != "beam" and cost["forward_passes"] != cost["generated_tokens"]:
                ok = False
            if root in ("greedy", "stochastic") and cost["total_steps"] != cost["generated_tokens"]:
                ok = False
            if root == "greedy":
                prompt = (self.table.token_id(task.prompt),)
                walk = self.table.argmax_walk(prompt, cfg.global_cap)
                ok = ok and record.tokens[1:] == walk
            failed += not ok
        aggregate_ok = True
        for root in ("stochastic", "cntp"):
            records = [op.result[0] for op in ops if op.kind == root]
            successes = sum(r.correct for r in records)
            aggregate_ok &= checks.binomial_bound_ok(
                successes, [self.exact[r.task_id][root] for r in records])
        return failed, aggregate_ok

    def close(self, state) -> None:
        pass


class LongGen:
    """Long k-gram decodes that always run to the answer cap."""

    name = "longgen"
    setups_per_pass = 10

    def __init__(self, seed: int):
        self.seed = seed
        with open(bundled_path("kgram.config.json"), encoding="utf-8") as fh:
            self.config = json.load(fh)
        self.config["global_cap"] = LONGGEN_CAP

    def setup(self, tracer):
        model = load_kgram_model(bundled_path("kgram.kgram"))
        tasks = load_tasks(bundled_path("kgram.tasks"))
        config = dataclasses.replace(load_config(bundled_path("kgram.config.json")),
                                     global_cap=LONGGEN_CAP)
        if tracer:
            model = tracer.model(model, model.k)
        return model, [tasks[i] for i in LONGGEN_TASKS], config

    def run(self, state) -> list[Op]:
        model, tasks, config = state
        return _decode_pass(model, tasks, KGRAM_STRATEGIES, config, [self.seed])

    def check(self, state, ops) -> tuple[int, bool]:
        # Built per check and dropped after it, so its row and nucleus
        # caches never sit in memory during a timed pass.
        ref = checks.KGramReference(bundled_path("kgram.kgram"), self.config["punctuation"])
        failed = 0
        for op in ops:
            task = op.args[1]
            record, outcome = op.result
            prompt = ref.encode(task.prompt)
            answer = record.tokens[len(prompt):]
            ok = len(answer) == LONGGEN_CAP
            if op.kind == "greedy":
                ok = ok and answer == ref.argmax_walk(prompt, LONGGEN_CAP)
            else:
                ok = ok and ref.check_sampled(prompt, answer, outcome.per_step_trace,
                                              self.config)
            failed += not ok
        return failed, True

    def close(self, state) -> None:
        pass


class Remote:
    """The k-gram model behind an in-process ModelServer on 127.0.0.1, decoded
    through one RemoteModel connection."""

    name = "remote"
    setups_per_pass = 10

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer):
        model = load_kgram_model(bundled_path("kgram.kgram"))
        server = ModelServer(tracer.served_model(model, model.k) if tracer else model)
        client = RemoteModel(server.address)
        tasks = load_tasks(bundled_path("kgram.tasks"))
        config = dataclasses.replace(load_config(bundled_path("kgram.config.json")),
                                     global_cap=REMOTE_CAP)
        return (tracer.remote_client(client) if tracer else client), tasks, config, server, client

    def run(self, state) -> list[Op]:
        model, tasks, config = state[:3]
        return _decode_pass(model, tasks, KGRAM_STRATEGIES, config, [self.seed])

    def check(self, state, ops) -> tuple[int, bool]:
        # A fresh local model per check, dropped after it, like the
        # reference of LongGen.check.
        model = load_kgram_model(bundled_path("kgram.kgram"))
        failed = 0
        for op in ops:
            _, task, strategy, cfg = op.args[:4]
            record, outcome = op.result
            local_record, local = runner.run_one(model, task, strategy, cfg)
            ok = (outcome.sequence.tokens == local.sequence.tokens
                  and outcome.cost == local.cost
                  and outcome.per_step_trace == local.per_step_trace
                  and record.answer == local_record.answer)
            failed += not ok
        return failed, True

    def close(self, state) -> None:
        server, client = state[3:]
        client.close()
        server.close()
        # ModelServer.close leaves an accept thread that is blocked in
        # accept() there, with the port still listening; one more connection
        # lets the loop see that it was closed and return. A refused
        # connection means the loop had already ended.
        host, _, port = server.address.rpartition(":")
        try:
            with socket.create_connection((host, int(port)), timeout=10):
                pass
        except ConnectionRefusedError:
            pass
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(timeout=10)
                if thread.is_alive():
                    raise RuntimeError(f"server thread {thread.name} did not stop")


class Oracle:
    """The enumeration oracle on the bundled fixtures, the suite tasks and
    seeded random scripted models."""

    name = "oracle"
    setups_per_pass = 3  # a set-up takes about 65 ms, against 2-6 ms elsewhere

    def __init__(self, seed: int):
        self.tables = checks.random_tables(np.random.default_rng(seed), ORACLE_MODELS)
        eos = len(checks.RANDOM_TOKENS) - 1
        self.products = [checks.walk_products(table, eos) for table in self.tables]
        self.has_high = {name: any(regime == "high" for _, regime in plan)
                         for name, plan, *_ in theory.BUNDLED_FIXTURE_SPECS}
        self.punct = {name: style == "punct"
                      for name, _, _, _, style in theory.BUNDLED_FIXTURE_SPECS}

    def setup(self, tracer):
        wrap = tracer.model if tracer else (lambda m: m)
        fixtures = [dataclasses.replace(f, model=wrap(f.model))
                    for f in theory.bundled_fixtures()]
        model = load_scripted_model(bundled_path("suite.model"))
        tasks = load_tasks(bundled_path("suite.tasks"))
        config = load_config(bundled_path("suite.config.json"))
        vocab = model.vocabulary
        suite = [(vocab.sequence(vocab.encode(t.prompt)),
                  theory.ReferenceSequence(vocab.encode(t.reference_answer), t.reference_answer))
                 for t in tasks]
        random_vocab = Vocabulary(checks.RANDOM_TOKENS, len(checks.RANDOM_TOKENS) - 1)
        default = Distribution(np.eye(len(random_vocab))[random_vocab.eos_id])
        randoms = [ScriptedModel(random_vocab, {p: Distribution(row) for p, row in t.items()},
                                 default) for t in self.tables]
        return fixtures, wrap(model), suite, config, [wrap(m) for m in randoms]

    def run(self, state) -> list[Op]:
        fixtures, model, suite, config, randoms = state
        ops: list[Op] = []

        def call(kind, fn, *args):
            t0 = perf_counter()
            result = fn(*args)
            ops.append(Op(perf_counter() - t0, kind, args, result))

        for fixture in fixtures:
            call("check_theorem1", theory.check_theorem1, fixture)
        for prompt, ref in suite:
            for policy in (theory.SingleSamplePolicy(config), theory.CntpPolicy(config)):
                call("exact_correctness", theory.exact_correctness, model, policy, ref, prompt)
        for m in randoms:
            for policy in (theory.SingleSamplePolicy(ORACLE_CONFIG),
                           theory.CntpPolicy(ORACLE_CONFIG),
                           theory.UniformMultisamplePolicy(ORACLE_CONFIG, 1)):
                call("enumerate_outcomes", theory.enumerate_outcomes, m, policy)
                call("expected_cost", theory.expected_cost, m, policy)
        return ops

    def check(self, state, ops) -> tuple[int, bool]:
        fixtures = state[0]
        failed = 0
        i = 0
        for fixture in fixtures:
            report = ops[i].result
            ok = report.dominance_holds
            if self.has_high[fixture.name]:
                ok = ok and report.p_cntp_correct > report.p_single_correct
            if self.punct[fixture.name]:
                ok = ok and report.cost_bound_holds
            if fixture.name == "case_b":
                ok = ok and checks.close(report.p_cntp_correct, 1 - 0.7 ** 5)
            failed += not ok
            i += 1
        while ops[i].kind == "exact_correctness":
            failed += not -1e-9 <= ops[i].result <= 1 + 1e-9
            i += 1
        for products in self.products:
            single, cntp, uniform = (_outcome_map(ops[i + 2 * j].result) for j in range(3))
            costs = [ops[i + 2 * j + 1].result for j in range(3)]
            single_len = sum(p * len(toks) for toks, p in single.items())
            cntp_len = sum(p * len(toks) for toks, p in cntp.items())
            mass_ok = [abs(sum(o.values()) - 1) <= 1e-9 for o in (single, cntp, uniform)]
            failed += not (mass_ok[0] and single.keys() == products.keys()
                           and all(checks.close(p, products[t]) for t, p in single.items()))
            failed += not checks.close(costs[0], single_len, 1e-9)
            failed += not mass_ok[1]
            failed += not costs[1] >= cntp_len - 1e-9
            failed += not (mass_ok[2] and uniform.keys() == single.keys()
                           and all(checks.close(p, single[t]) for t, p in uniform.items()))
            failed += not checks.close(costs[2], costs[0])
            i += 6
        return failed, i == len(ops)

    def close(self, state) -> None:
        pass


def _outcome_map(outcomes) -> dict[tuple, float]:
    out: dict[tuple, float] = {}
    for seq, p in outcomes:
        out[seq.tokens] = out.get(seq.tokens, 0.0) + p
    return out


WORKLOADS = {w.name: w for w in (Suite, LongGen, Remote, Oracle)}
