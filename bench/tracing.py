"""Per-layer tracing from outside the program.

A Tracer replaces each layer's public callables with counting and timing
wrappers at the names where their callers look them up (the engine, for
example, binds ``sample_token`` at import time, so the wrapper goes into
``cntp.engine``'s namespace), and proxies the model objects a workload
hands to the decoders and to ``ModelServer``. Every wrapper is a span: it
records its inclusive time under its metric, and its self time (inclusive
minus the time of the spans it caused) under its layer. Only the thread
that installed the tracer records spans; the one exception is the proxy of
the model handed to ``ModelServer``, which records the server's model time
(``remote.server_model_s``) and the k-gram contexts it sees
(``models.cold_calls``). So nothing else the server thread does, such as
the ``Distribution`` rows its model builds, counts toward the caller's
layers.

Nothing is installed until ``install()``, and ``uninstall()`` restores
every name, so set-up and correctness checks always run untraced.
"""

from __future__ import annotations

import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter

from cntp import baselines, core, engine, sampling, theory
from cntp.harness import runner
from cntp.models import ModelSource

# The decoders run_one calls, by the name it looks them up under, with
# the layer each belongs to.
RUNNER_DECODERS = {
    "greedy_decode": "baselines",
    "stochastic_decode": "baselines",
    "cntp_decode": "engine",
    "beam_search_decode": "baselines",
    "best_of_n_whole_ppl": "baselines",
    "self_consistency": "baselines",
}
# The benchmark's own copy, so metric names stay put if the program's
# strategy table changes.
STRATEGY_ROOTS = ("greedy", "stochastic", "cntp", "beam", "sc", "cntp_sc", "best_of_n")
THEORY_CALLS = ("check_theorem1", "exact_correctness", "enumerate_outcomes", "expected_cost")

# Every per-layer metric a traced run reports: unit and better direction.
_COUNT, _SECONDS = ("count", "lower"), ("s", "lower")
PER_LAYER = {
    "models.calls": _COUNT,
    "models.distinct_prefixes": _COUNT,
    "models.distinct_ratio": ("ratio", "higher"),
    "models.calls_per_token": ("ratio", "lower"),
    "models.self_s": _SECONDS,
    "models.cold_calls": _COUNT,
    "remote.round_trips": _COUNT,
    "remote.rtt_us_p50": ("us", "lower"),
    "remote.server_model_s": _SECONDS,
    "remote.wire_s": _SECONDS,
    "remote.request_bytes": ("bytes", "lower"),
    "sampling.derives": _COUNT,
    "sampling.draws": _COUNT,
    "sampling.rng_s": _SECONDS,
    "sampling.sample_token_s": _SECONDS,
    "sampling.prepare_calls": _COUNT,
    "sampling.prepare_cold": _COUNT,
    "sampling.prepare_s": _SECONDS,
    "sampling.self_s": _SECONDS,
    "engine.self_s": _SECONDS,
    "engine.trials": _COUNT,
    "engine.multi_trial_steps": _COUNT,
    "engine.answer_token_ratio": ("ratio", "higher"),
    "engine.confidence_s": _SECONDS,
    "engine.stop_mask_calls": _COUNT,
    "engine.stop_mask_s": _SECONDS,
    "baselines.self_s": _SECONDS,
    **{f"baselines.decode_s.{root}": _SECONDS for root in STRATEGY_ROOTS},
    "core.validate_config_calls": _COUNT,
    "core.validate_config_s": _SECONDS,
    "core.distributions_built": _COUNT,
    "core.distribution_s": _SECONDS,
    "core.self_s": _SECONDS,
    "runner.records": ("count", "higher"),
    "runner.record_s": _SECONDS,
    "runner.self_s": _SECONDS,
    "theory.self_s": _SECONDS,
    "theory.model_calls": _COUNT,
    "theory.prepare_s": _SECONDS,
    "trace.overhead_s": _SECONDS,
}


class _Frame:
    __slots__ = ("child_s", "decode_s")

    def __init__(self):
        self.child_s = 0.0
        self.decode_s = 0.0


class Tracer:
    """Collects one pass's per-layer counters; ``reset()`` starts the next."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        self._caller = None
        self.reset()

    def reset(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.rtts: list[float] = []
        self._prefixes: set[int] = set()
        self._contexts: set[tuple] = set()
        self._prepared_keys: set[tuple] = set()
        self._pinned: dict[int, object] = {}  # keeps ids in _prepared_keys unique
        self._generated = 0
        self._theory_depth = 0

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn, layer: str, time_key: str | None = None,
              count_key: str | None = None, before=None, after=None,
              any_thread: bool = False):
        """Wrap fn as a span of layer. before(args) runs ahead of the call;
        after(args, result, frame, seconds) runs once the span closes. On
        threads other than the caller's the span records nothing, unless
        any_thread is set."""
        lock, stack_of, tracer = self._lock, self._stack, self
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if not any_thread and get_ident() != tracer._caller:
                return fn(*args, **kwargs)
            stack = stack_of()
            frame = _Frame()
            stack.append(frame)
            if before is not None:
                before(args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                values = tracer.values
                with lock:
                    values[layer + ".self_s"] += dt - frame.child_s
                    if time_key:
                        values[time_key] += dt
                    if count_key:
                        values[count_key] += 1
            if after is not None:
                after(args, result, frame, dt)
            return result

        return wrapper

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._caller = threading.get_ident()
        span, patch = self._span, self._patch

        validate = core.validate_config
        for module in (core, engine, baselines, runner, theory):
            patch(module, "validate_config", span(validate, "core", "core.validate_config_s",
                                                  "core.validate_config_calls"))
        patch(core.Distribution, "__init__",
              span(core.Distribution.__init__, "core", "core.distribution_s",
                   "core.distributions_built"))

        for name in ("__init__", "uniform"):
            patch(sampling.Rng, name, span(sampling.Rng.__dict__[name], "sampling",
                                           "sampling.rng_s"))
        patch(sampling.Rng, "derive", span(sampling.Rng.derive, "sampling", "sampling.rng_s",
                                           "sampling.derives"))
        for module in (engine, baselines):
            patch(module, "sample_token", span(sampling.sample_token, "sampling",
                                               "sampling.sample_token_s", "sampling.draws"))
        confidence, stop_mask = engine.confidence, engine.stop_mask
        for module in (engine, baselines, theory):
            after = self._theory_prepare if module is theory else None
            patch(module, "prepare_sampling_dist",
                  span(sampling.prepare_sampling_dist, "sampling", "sampling.prepare_s",
                       "sampling.prepare_calls", before=self._prepare_key, after=after))
            patch(module, "confidence", span(confidence, "engine", "engine.confidence_s"))
        for module in (engine, theory):
            patch(module, "stop_mask", span(stop_mask, "engine", "engine.stop_mask_s",
                                            "engine.stop_mask_calls"))

        patch(baselines, "stochastic_decode", span(baselines.stochastic_decode, "baselines"))
        for name, layer in RUNNER_DECODERS.items():
            after = self._cntp_done if name == "cntp_decode" else self._decoder_done
            patch(runner, name, span(getattr(runner, name), layer, after=after))
        patch(runner, "run_one", span(runner.run_one, "runner", after=self._record_done))
        for name in THEORY_CALLS:
            patch(theory, name, span(getattr(theory, name), "theory",
                                     before=self._enter_theory, after=self._leave_theory))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- hooks -----------------------------------------------------------

    def _prepare_key(self, args) -> None:
        dist, config = args[0], args[1]
        key = (id(dist), config.temperature, config.top_p)
        if key not in self._prepared_keys:
            self._prepared_keys.add(key)
            self._pinned[id(dist)] = dist
            self.values["sampling.prepare_cold"] += 1

    def _theory_prepare(self, args, result, frame, dt) -> None:
        self.values["theory.prepare_s"] += dt

    def _decoder_done(self, args, outcome, frame, dt) -> None:
        # Only the decoder run_one called counts toward run_one's decode time;
        # decodes nested inside self-consistency are part of their parent.
        stack = self._stack()
        if stack:
            stack[-1].decode_s += dt

    def _cntp_done(self, args, outcome, frame, dt) -> None:
        self._decoder_done(args, outcome, frame, dt)
        values = self.values
        prompt = args[1]
        values["engine.trials"] += sum(step.n_trials for step in outcome.per_step_trace)
        values["engine.multi_trial_steps"] += outcome.cost.high_entropy_steps
        values["engine.answer_tokens"] += len(outcome.sequence.tokens) - len(prompt.tokens)
        values["engine.generated_tokens"] += outcome.cost.generated_tokens

    def _record_done(self, args, result, frame, dt) -> None:
        record, _ = result
        root = record.strategy.partition(":")[0]
        values = self.values
        values["runner.records"] += 1
        values[f"baselines.decode_s.{root}"] += frame.decode_s
        values["runner.record_s"] += dt - frame.decode_s
        self._generated += record.cost["generated_tokens"]

    def _enter_theory(self, args) -> None:
        self._theory_depth += 1

    def _leave_theory(self, args, result, frame, dt) -> None:
        self._theory_depth -= 1

    # -- model proxies ---------------------------------------------------

    def model(self, model: ModelSource, k: int | None = None) -> "TracedModel":
        """Proxy for a model the decoders or the oracle call directly."""
        return TracedModel(self, model, k)

    def remote_client(self, model: ModelSource) -> "TracedModel":
        return TracedRemote(self, model, None)

    def served_model(self, model: ModelSource, k: int | None = None) -> "ServedModel":
        """Proxy for the model handed to ModelServer; runs in its thread."""
        return ServedModel(self, model, k)

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """This pass's per-layer values (trace.overhead_s is filled later)."""
        v = self.values
        calls = v["models.calls"]
        out = {name: float(v.get(name, 0.0)) for name in PER_LAYER}
        out["models.distinct_prefixes"] = float(len(self._prefixes))
        out["models.distinct_ratio"] = len(self._prefixes) / calls if calls else 0.0
        out["models.calls_per_token"] = calls / self._generated if self._generated else 0.0
        out["remote.rtt_us_p50"] = statistics.median(self.rtts) * 1e6 if self.rtts else 0.0
        out["remote.wire_s"] = (v["remote.client_s"] - v["remote.server_model_s"]
                                if self.rtts else 0.0)
        generated = v["engine.generated_tokens"]
        out["engine.answer_token_ratio"] = (v["engine.answer_tokens"] / generated
                                            if generated else 0.0)
        return out


class TracedModel(ModelSource):
    """Counts calls, distinct prefixes and cold k-gram contexts of a model."""

    layer = "models"

    def __init__(self, tracer: Tracer, model: ModelSource, k: int | None):
        self.vocabulary = model.vocabulary
        self.inner = model
        self._tracer = tracer
        self._k = k
        self._call = tracer._span(model.next_distribution, self.layer, after=self._seen,
                                  any_thread=self.layer == "server")

    def next_distribution(self, prefix):
        return self._call(prefix)

    def _seen(self, args, result, frame, dt) -> None:
        tracer = self._tracer
        prefix = args[0]
        key = prefix if isinstance(prefix, tuple) else tuple(getattr(prefix, "tokens", prefix))
        tracer.values["models.calls"] += 1
        if tracer._theory_depth:
            tracer.values["theory.model_calls"] += 1
        tracer._prefixes.add(hash(key))
        self._count_context(key)

    def _count_context(self, key) -> None:
        if self._k is not None:
            context = key[-self._k:]
            tracer = self._tracer
            with tracer._lock:
                if context not in tracer._contexts:
                    tracer._contexts.add(context)
                    tracer.values["models.cold_calls"] += 1


class TracedRemote(TracedModel):
    """Client-side proxy around RemoteModel: one call is one round trip."""

    def _seen(self, args, result, frame, dt) -> None:
        super()._seen(args, result, frame, dt)
        key = args[0]
        tracer = self._tracer
        tracer.values["remote.round_trips"] += 1
        tracer.values["remote.client_s"] += dt
        # Computed: the byte length of the request line RemoteModel writes.
        tracer.values["remote.request_bytes"] += len(json.dumps({"prefix": list(key)})) + 1
        tracer.rtts.append(dt)


class ServedModel(TracedModel):
    """Server-side proxy: its time is the server's model time."""

    layer = "server"

    def _seen(self, args, result, frame, dt) -> None:
        tracer = self._tracer
        with tracer._lock:
            tracer.values["remote.server_model_s"] += dt
        self._count_context(args[0])
