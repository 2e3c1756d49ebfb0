"""Benchmark of the cntp package: one workload per run, through its public API.

    python3 bench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25      # every workload in turn

A run repeats whole passes (set-up, timed pass, checks) until --seconds
have gone by. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and prints the
per-layer metrics, including the cost of tracing. The last line of
standard output is one JSON object; bench/results/ keeps a fuller copy
with the machine's details. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def pin_to_one_cpu() -> int | None:
    """Run the whole process, and every thread it starts, on one CPU.

    On remote a backend call hands control from the caller thread to the
    server thread and back. Spread over two CPUs, each hand-off waits for
    an idle CPU to wake, and that wait depends on what else the host runs:
    remote's throughput halved or doubled with the load on the other CPU.
    On one CPU the hand-off is a plain context switch. The other workloads
    have a single thread and lose nothing by it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(workload, seconds: float, tracer) -> dict:
    """Repeat passes until seconds have gone by; a traced run alternates an
    untraced and a traced pass so both see the same inputs."""
    modes = (None, tracer) if tracer else (None,)
    passes = []
    deadline = perf_counter() + seconds
    while True:
        for mode in modes:
            passes.append(_one_pass(workload, mode))
        if perf_counter() >= deadline:
            return _summarise(passes)


def _one_pass(workload, tracer) -> dict:
    setup_s = []
    # The last set-up feeds the pass; all of them feed setup_s.
    for i in range(workload.setups_per_pass):
        if i:
            workload.close(state)
        t0 = perf_counter()
        state = workload.setup(tracer)
        setup_s.append(perf_counter() - t0)
    try:
        if tracer:
            tracer.reset()
            tracer.install()
        # Start every pass from the same heap: no collection left over from
        # the set-ups or the previous pass's checks falls into the timing.
        gc.collect()
        try:
            t0, cpu0 = perf_counter(), process_time()
            ops = workload.run(state)
            pass_s, cpu_s = perf_counter() - t0, process_time() - cpu0
            rss_mb = _peak_rss_mb()
        finally:
            if tracer:
                tracer.uninstall()
        layers = tracer.snapshot() if tracer else None
        failed, aggregate_ok = workload.check(state, ops)
    finally:
        workload.close(state)
    # Keep only what the summary needs, so memory does not grow with passes.
    ops = [(op.kind, op.seconds, op.tokens) for op in ops]
    return {"traced": tracer is not None, "setup_s": setup_s, "pass_s": pass_s,
            "cpu_s": cpu_s, "rss_mb": rss_mb, "ops": ops,
            "failed": failed, "aggregate_ok": aggregate_ok, "layers": layers}


def _summarise(passes) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # Throughput is pooled over the passes rather than a median of them: the
    # machine switches between a fast and a slow state every few seconds,
    # and a median of a handful of passes jumps between the two.
    pass_s = sum(p["pass_s"] for p in plain)
    metrics = {
        "setup_s": statistics.median(s for p in plain for s in p["setup_s"]),
        "ops_per_s": sum(len(p["ops"]) for p in plain) / pass_s,
        # Read at the end of the first timed pass, before any check has run:
        # the process peak never goes down, so later readings would carry
        # the memory of the checks.
        "peak_rss_mb": plain[0]["rss_mb"],
    }
    by_kind: dict[str, list] = {}
    for p in plain:
        for kind, seconds, tokens in p["ops"]:
            entry = by_kind.setdefault(kind, [[], 0])
            entry[0].append(seconds * 1e3)
            entry[1] += tokens
    kinds = {kind: {"ops": len(ms), "ms_p50": statistics.median(ms),
                    "ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
                    "us_per_token": sum(ms) / tokens * 1e3 if tokens else None}
             for kind, (ms, tokens) in by_kind.items()}
    tokens = sum(t for p in plain for _, _, t in p["ops"])
    summary = {
        "metrics": metrics,
        "tok_per_s": tokens / pass_s if tokens else None,
        "by_kind": kinds,
        "passes": len(plain),
        "ops_per_pass": len(plain[0]["ops"]),
        "op_samples": sum(len(p["ops"]) for p in plain),
        "pass_s": [p["pass_s"] for p in plain],
        "pass_cpu_s": [p["cpu_s"] for p in plain],
        "pass_rss_mb": [p["rss_mb"] for p in passes],
        "end_rss_mb": _peak_rss_mb(),
        "setup_samples_s": [s for p in plain for s in p["setup_s"]],
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "correct": all(p["aggregate_ok"] for p in passes),
    }
    if traced:
        names = traced[0]["layers"].keys()
        layers = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
        layers["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                      - statistics.median(p["pass_s"] for p in plain))
        summary["layers"] = layers
        summary["traced_pass_s"] = [p["pass_s"] for p in traced]
    return summary


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine(pinned_cpu) -> dict:
    import numpy

    return {"cpus": os.cpu_count(), "pinned_cpu": pinned_cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("suite", "longgen", "remote", "oracle", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Benchmark the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "cntp" / "__init__.py").is_file():
        print(f"bench: no cntp source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Before numpy is imported, so that its threads start on the same CPU.
    pinned_cpu = pin_to_one_cpu()
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name](args.seed)
        summary = run_workload(workload, args.seconds, Tracer() if args.trace else None)
        if args.trace:
            metrics = {m: {"value": summary["layers"][m], "unit": unit}
                       for m, (unit, _) in PER_LAYER.items()}
        else:
            units = dict(END_TO_END)
            metrics = {m: {"value": v, "unit": units[m]} for m, v in summary["metrics"].items()}
        print(f"workload {name}: seed {args.seed}, {summary['passes']} passes, "
              f"{summary['ops_per_pass']} operations per pass, "
              f"{summary['op_samples']} timed operations")
        for m, entry in metrics.items():
            print(f"  {m} = {entry['value']:.6g} {entry['unit']}")
        if summary["tok_per_s"]:
            print(f"  tok_per_s = {summary['tok_per_s']:.6g} tokens/s")
        for kind, entry in summary["by_kind"].items():
            per_token = (f", {entry['us_per_token']:.2f} us/token"
                         if entry["us_per_token"] else "")
            print(f"  {kind}: {entry['ops']} ops, median {entry['ms_p50']:.3f} ms, "
                  f"p90 {entry['ms_p90']:.3f} ms{per_token}")
        result = {"correct": summary["correct"], "attempted": summary["attempted"],
                  "failed": summary["failed"], "metrics": metrics}
        with open(RESULTS / f"{name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "machine": machine(pinned_cpu), **result,
                       "summary": summary}, fh, indent=1)
            fh.write("\n")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
