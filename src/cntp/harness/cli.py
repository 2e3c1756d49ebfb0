"""Command-line front end.

Exit codes: 0 success, 1 usage or configuration error, 2 task/model file
error, 3 backend (remote model) error, 4 replay mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from datetime import datetime, timezone

from ..core import CONFIDENCE_MEASURES, TRIAL_SCALINGS, DecodeConfig, load_config, validate_config
from ..models import ModelFileError, ModelServer, ProtocolError, save_kgram_model, train_kgram
from ..theory import bundled_fixtures, check_theorem1, load_fixture
from .ablation import AXES, AblationSpec, parse_values, render_table, run_ablation
from .runner import (
    STRATEGIES,
    ReplayMismatchError,
    parse_strategy,
    read_records,
    replay,
    resolve_model,
    run_one,
    run_suite,
    write_records,
)
from .tasks import BUNDLES, Task, bundled_spec, load_tasks, parse_extractor


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _bundled_names(kind: str) -> str:
    return "bundled:{" + ",".join(name for name, e in BUNDLES.items() if kind in e) + "}"


def _add_model_flag(parser):
    parser.add_argument("--model", required=True,
                        help="scripted-model path, kgram:<path>, remote:<host:port>, "
                             "or " + _bundled_names("model"))


def _add_config_flags(parser):
    parser.add_argument("--config",
                        help="JSON decode-config file, or " + _bundled_names("config")
                             + " for the config paired with that bundled model")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--n-max", type=int, dest="n_max")
    parser.add_argument("--h-min", type=float, dest="h_min")
    parser.add_argument("--h-max", type=float, dest="h_max")
    parser.add_argument("--temperature", type=float,
                        help="sampling temperature; defaults to the strategy preset")
    parser.add_argument("--top-p", type=float, dest="top_p")
    parser.add_argument("--confidence-measure", dest="confidence_measure",
                        choices=CONFIDENCE_MEASURES)
    parser.add_argument("--trial-scaling", dest="trial_scaling", choices=TRIAL_SCALINGS)
    parser.add_argument("--branch-cap", type=int, dest="branch_cap")
    parser.add_argument("--global-cap", type=int, dest="global_cap")


def _add_strategy_flag(parser):
    forms = [root if s.default_width is None else f"{root}[:n]" for root, s in STRATEGIES.items()]
    defaults = [f"{root}:{s.default_width}" for root, s in STRATEGIES.items()
                if s.default_width is not None]
    parser.add_argument("--strategy", default="cntp",
                        help=" | ".join(forms) + "; n is the beam width or path count "
                             "(default " + ", ".join(defaults) + ")")


def build_parser() -> _Parser:
    parser = _Parser(prog="cntp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decode", help="decode one prompt")
    _add_model_flag(p)
    _add_strategy_flag(p)
    _add_config_flags(p)
    p.add_argument("--prompt", required=True)
    p.add_argument("--out", default="runs", help="run-log directory")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("suite", help="run a task file")
    _add_model_flag(p)
    _add_strategy_flag(p)
    _add_config_flags(p)
    p.add_argument("--tasks", required=True,
                   help="task file, or " + _bundled_names("tasks"))
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seed list")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="runs", help="run-log directory")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("ablate", help="sweep one config axis")
    _add_model_flag(p)
    _add_config_flags(p)
    p.add_argument("--tasks", required=True)
    p.add_argument("--axis", required=True, choices=AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated; grid entries as TxP, e.g. 1.2x0.9")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="JSONL output path for ablation rows")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("theorem",
                       help="exact dominance and cost report on fixtures")
    p.add_argument("--fixture",
                   help="fixture .model path (with .ref/.config.json sidecars); "
                        "default: the bundled fixture family")
    p.add_argument("--node-budget", type=int, dest="node_budget", default=10_000_000)
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("train-kgram",
                       help="train a character model from a text corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--out", required=True, help="output .kgram path")
    p.set_defaults(func=cmd_train_kgram)

    p = sub.add_parser("serve-stub",
                       help="serve a model over the line-delimited TCP protocol")
    _add_model_flag(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--duration", type=float,
                   help="serve for this many seconds, then exit (default: forever)")
    p.set_defaults(func=cmd_serve_stub)

    p = sub.add_parser("replay", help="re-run a stored record")
    p.add_argument("--record", required=True, help="records.jsonl path")
    p.add_argument("--line", type=int, default=1, help="1-based record number")
    p.add_argument("--model", help="override the record's model spec")
    p.set_defaults(func=cmd_replay)
    return parser


def _build_config(args, root: str) -> DecodeConfig:
    """Flag > config file > strategy preset, per field where applicable."""
    if getattr(args, "config", None):
        config = load_config(bundled_spec(args.config, "config"))
        temperature_pinned = True
    else:
        config = DecodeConfig()
        temperature_pinned = False
    updates = {}
    for name in ("n_max", "h_min", "h_max", "top_p", "confidence_measure",
                 "trial_scaling", "branch_cap", "global_cap", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if getattr(args, "temperature", None) is not None:
        updates["temperature"] = args.temperature
    elif not temperature_pinned:
        updates["temperature"] = STRATEGIES[root].preset_temperature
    return validate_config(dataclasses.replace(config, **updates))


def _load_model(spec: str):
    """The model a --model spec names, and the spec its records carry: a
    bundled name is stored expanded."""
    spec = bundled_spec(spec, "model")
    return resolve_model(spec), spec


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad seed list {text!r}") from exc
    if not seeds:
        raise _UsageError("empty seed list")
    return seeds


def _ledger_line(cost: dict) -> str:
    return (f"passes={cost['forward_passes']} generated={cost['generated_tokens']} "
            f"steps={cost['total_steps']} multi_trial={cost['high_entropy_steps']}")


def cmd_decode(args) -> int:
    root, _ = parse_strategy(args.strategy)
    model, model_spec = _load_model(args.model)
    config = _build_config(args, root)
    task = Task("decode", args.prompt, "", parse_extractor("full_text"))
    record, _ = run_one(model, task, args.strategy, config, model_spec=model_spec)
    print(record.output)
    print(_ledger_line(record.cost))
    if args.out:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S.%f")
        run_dir = os.path.join(args.out, f"{stamp}-s{config.seed}")
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, "records.jsonl")
        write_records(path, [record])
        print(f"record: {path}")
    return 0


def cmd_suite(args) -> int:
    root, _ = parse_strategy(args.strategy)
    model, model_spec = _load_model(args.model)
    config = _build_config(args, root)
    tasks = load_tasks(bundled_spec(args.tasks, "tasks"))
    seeds = _parse_seeds(args.seeds)
    result = run_suite(model, tasks, args.strategy, config, seeds,
                       model_spec=model_spec, out_dir=args.out or None,
                       workers=args.workers)
    agg = result.aggregate
    print(f"strategy={agg.strategy} tasks={agg.n_tasks} seeds={agg.n_seeds}")
    print(f"accuracy={agg.accuracy_mean:.4f} ± {agg.accuracy_std:.4f}")
    print(f"mean_forward_passes={agg.forward_passes_mean:.2f} "
          f"mean_generated_tokens={agg.generated_tokens_mean:.2f}")
    if result.run_dir:
        print(f"run dir: {result.run_dir}")
    return 0


def cmd_ablate(args) -> int:
    model = resolve_model(args.model)
    config = _build_config(args, "cntp")
    tasks = load_tasks(bundled_spec(args.tasks, "tasks"))
    seeds = _parse_seeds(args.seeds)
    spec = AblationSpec(args.axis, parse_values(args.axis, args.values))
    rows = run_ablation(spec, config, model, tasks, seeds,
                        workers=args.workers, out_path=args.out)
    print(f"axis: {spec.axis}")
    print(render_table(rows))
    if args.out:
        print(f"rows: {args.out}")
    return 0


def cmd_theorem(args) -> int:
    if args.fixture:
        fixtures = [load_fixture(bundled_spec(args.fixture, "model"))]
    else:
        fixtures = bundled_fixtures()
    dominance_ok = bound_ok = bound_checked = 0
    for fixture in fixtures:
        report = check_theorem1(fixture, node_budget=args.node_budget)
        name = fixture.name or "fixture"
        single_token = fixture.branch_style == "punct"
        line = (f"{name}: P_single={report.p_single_correct:.6f} "
                f"P_cntp={report.p_cntp_correct:.6f} "
                f"cost={report.expected_cost_cntp:.4f} bound={report.cost_bound:.4f} "
                f"steps={report.expected_steps:.4f} "
                f"assumption1={'yes' if report.assumption1_holds else 'NO'} "
                f"strict={'yes' if report.strict else 'no'} "
                f"dominance={'ok' if report.dominance_holds else 'VIOLATED'}")
        if single_token:
            bound_checked += 1
            bound_ok += report.cost_bound_holds and report.below_max_trial_cost
            line += f" cost_bound={'ok' if report.cost_bound_holds else 'VIOLATED'}"
        else:
            line += " cost_bound=n/a (multi-token branches)"
        dominance_ok += report.dominance_holds
        print(line)
        print(f"  {report.assumption2_note}")
    print(f"{len(fixtures)} fixtures: dominance ok on {dominance_ok}, "
          f"cost bound ok on {bound_ok} of {bound_checked} single-token-branch fixtures")
    return 0


def cmd_train_kgram(args) -> int:
    try:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            corpus = fh.read()
    except OSError as exc:
        raise ModelFileError(f"{args.corpus}: {exc}") from exc
    model = train_kgram(corpus, args.k, args.alpha)
    save_kgram_model(model, args.out)
    print(f"trained k={args.k} alpha={args.alpha} vocabulary={len(model.vocabulary)} "
          f"contexts={len(model.counts)} -> {args.out}")
    return 0


def cmd_serve_stub(args) -> int:
    model = resolve_model(args.model)
    server = ModelServer(model, host=args.host, port=args.port)
    print(f"serving {args.model} at {server.address}", flush=True)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_replay(args) -> int:
    records = read_records(args.record)
    if not 1 <= args.line <= len(records):
        raise _UsageError(f"--line must be in 1..{len(records)}")
    record = records[args.line - 1]
    model = resolve_model(args.model) if args.model else None
    replay(record, model)
    print(f"replay ok: task {record.task_id} strategy {record.strategy} "
          f"seed {record.config['seed']}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ReplayMismatchError as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 4
    except ModelFileError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
