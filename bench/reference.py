"""Reference figures quoted in bench/README.md.

    python3 bench/reference.py

Prints, on this machine: the per-token cost of greedy, stochastic and cntp
on the bundled k-gram model at 1k, 4k and 16k tokens (one decode each,
fresh model, so caches start cold); one suite pass with one worker against
two; and one longgen pass on a fresh model against the same pass repeated
on the now-warm model. Timings are medians of REPEATS runs.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cntp.core import load_config  # noqa: E402
from cntp.harness import runner  # noqa: E402
from cntp.harness.tasks import bundled_path, load_tasks  # noqa: E402
from cntp.models import load_kgram_model  # noqa: E402

import workloads  # noqa: E402

REPEATS = 3
LENGTHS = (1024, 4096, 16384)  # answer caps of the per-token figures


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def per_token(lengths, repeats: int) -> None:
    tasks = load_tasks(bundled_path("kgram.tasks"))[:1]
    base = load_config(bundled_path("kgram.config.json"))
    print("k-gram per-token cost, cold model, one decode (us per generated token)")
    for cap in lengths:
        config = dataclasses.replace(base, global_cap=cap)
        row = []
        for strategy in workloads.KGRAM_STRATEGIES:
            generated = []

            def decode():
                model = load_kgram_model(bundled_path("kgram.kgram"))
                result = runner.run_suite(model, tasks, strategy, config, [0])
                generated.append(result.records[0].cost["generated_tokens"])

            seconds = _median_time(decode, repeats)
            row.append(f"{strategy} {seconds / generated[0] * 1e6:.1f}")
        print(f"  {cap:>6} tokens: " + ", ".join(row))


def suite_workers(repeats: int) -> None:
    suite = workloads.Suite(0)
    for workers in (1, 2):
        def one_pass():
            model, tasks, config = suite.setup(None)
            for strategy in workloads.SUITE_STRATEGIES:
                runner.run_suite(model, tasks, strategy, config, suite.seeds, workers=workers)

        print(f"suite pass, --workers {workers}: {_median_time(one_pass, repeats):.3f} s")


def longgen_warm(repeats: int) -> None:
    longgen = workloads.LongGen(0)
    cold, warm = [], []
    for _ in range(repeats):
        state = longgen.setup(None)
        for times in (cold, warm):
            t0 = perf_counter()
            longgen.run(state)
            times.append(perf_counter() - t0)
    print(f"longgen pass: cold model {statistics.median(cold):.3f} s, "
          f"warm model {statistics.median(warm):.3f} s")


def main() -> int:
    per_token(LENGTHS, REPEATS)
    suite_workers(REPEATS)
    longgen_warm(REPEATS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
