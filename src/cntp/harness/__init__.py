"""Reproducibility surface: task corpus, suite runner, ablations. The CLI
lives in cntp.harness.cli and is imported only when run."""

from .ablation import AblationRow, AblationSpec, parse_values, render_table, run_ablation
from .runner import (
    ReplayMismatchError,
    RunRecord,
    SuiteAggregate,
    SuiteResult,
    canonical_strategy,
    parse_strategy,
    read_records,
    replay,
    resolve_model,
    run_one,
    run_suite,
    write_records,
)
from .tasks import (
    Task,
    build_fixture_suite,
    build_kgram_suite,
    bundled_path,
    extractor_to_string,
    load_tasks,
    parse_extractor,
    save_tasks,
    write_bundled_data,
)

__all__ = [
    "AblationRow",
    "AblationSpec",
    "ReplayMismatchError",
    "RunRecord",
    "SuiteAggregate",
    "SuiteResult",
    "Task",
    "build_fixture_suite",
    "build_kgram_suite",
    "bundled_path",
    "canonical_strategy",
    "extractor_to_string",
    "load_tasks",
    "parse_extractor",
    "parse_strategy",
    "parse_values",
    "read_records",
    "render_table",
    "replay",
    "resolve_model",
    "run_ablation",
    "run_one",
    "run_suite",
    "save_tasks",
    "write_bundled_data",
    "write_records",
]
