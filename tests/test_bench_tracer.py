"""The benchmark's tracer (bench/tracing.py) patches package names where
their callers look them up. Installing it here makes a dropped or renamed
name fail the tests, not only the traced benchmark run."""

from __future__ import annotations

import importlib.util
import pathlib

from cntp.harness import runner

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_traces_and_uninstalls(suite_bundle):
    model, tasks, config = suite_bundle
    tracer = _load_tracing().Tracer()
    try:
        # Inside the try: a partial install is undone before the next test.
        tracer.install()
        patched = list(tracer._undo)
        traced = tracer.model(model)
        for strategy in ("greedy", "stochastic", "cntp", "sc:2"):
            runner.run_one(traced, tasks[0], strategy, config)
    finally:
        tracer.uninstall()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name} not restored"
    values = tracer.snapshot()
    assert values["runner.records"] == 4
    assert values["models.calls"] > 0
    assert values["sampling.draws"] > 0
    assert values["baselines.decode_s.greedy"] > 0
