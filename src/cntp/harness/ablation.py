"""Ablation grids: sweep one axis of the engine configuration over a task
suite and report accuracy and cost per value, as a text table plus a
line-delimited machine log."""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, replace

from ..core import DecodeConfig, write_lines
from .runner import parse_strategy, run_suite

# The flipped-probability measures live on a [0, 1] uncertainty scale, so
# entropy-range thresholds would never trigger multi-trial steps; these
# replace (h_min, h_max) whenever the measure is not entropy.
UNIT_SCALE_THRESHOLDS = (0.01, 0.9)


def _measure(config: DecodeConfig, value) -> tuple[DecodeConfig, str]:
    lo, hi = (config.h_min, config.h_max) if value == "entropy" else UNIT_SCALE_THRESHOLDS
    return replace(config, confidence_measure=value, h_min=lo, h_max=hi), "cntp"


def _grid(config: DecodeConfig, value) -> tuple[DecodeConfig, str]:
    temperature, top_p = value
    return replace(config, temperature=temperature, top_p=top_p), "cntp"


def _parse_pair(text: str) -> tuple[float, float]:
    t, sep, p = text.partition("x")
    if not sep:
        raise ValueError(f"grid value {text!r} must look like TxP")
    return float(t), float(p)


# Axis name -> (parse one CLI value, apply a value to a config). apply
# returns the (config, strategy) pair that the value's cell runs.
AXES = {
    "confidence_measure": (str, _measure),
    "trial_scaling": (str, lambda c, v: (replace(c, trial_scaling=v), "cntp")),
    "n_max_sweep": (int, lambda c, v: (replace(c, n_max=v), "cntp")),
    "temperature_top_p_grid": (_parse_pair, _grid),
    "best_of_n": (int, lambda c, v: (c, f"best_of_n:{v}")),
}


def _axis(name: str) -> tuple[Callable, Callable]:
    if name not in AXES:
        raise ValueError(f"unknown ablation axis {name!r}")
    return AXES[name]


@dataclass(frozen=True)
class AblationSpec:
    """An axis and its values. Each value is checked by applying it to the
    default config, whose construction checks the config's invariants, and
    by parsing the strategy string it yields."""

    axis: str
    values: tuple

    def __post_init__(self):
        _, apply = _axis(self.axis)
        if not self.values:
            raise ValueError("ablation needs at least one value")
        for value in self.values:
            try:
                parse_strategy(apply(DecodeConfig(), value)[1])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{self.axis} value {value!r}: {exc}") from exc


def parse_values(axis: str, text: str) -> tuple:
    """CLI value lists: comma-separated; grid entries as TxP, e.g.
    "0.6x0.9,1.2x0.95"."""
    parse, _ = _axis(axis)
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty value list")
    return tuple(parse(part) for part in parts)


def variant(axis: str, value, config: DecodeConfig) -> tuple[DecodeConfig, str]:
    """The (config, strategy) pair one ablation cell runs with."""
    return _axis(axis)[1](config, value)


@dataclass(frozen=True)
class AblationRow:
    axis: str
    value: object
    strategy: str
    accuracy_mean: float
    accuracy_std: float
    forward_passes_mean: float
    generated_tokens_mean: float


def run_ablation(spec: AblationSpec, base_config: DecodeConfig, model, tasks, seeds,
                 *, workers: int = 1, out_path: str | None = None) -> list[AblationRow]:
    rows: list[AblationRow] = []
    for value in spec.values:
        cfg, strategy = variant(spec.axis, value, base_config)
        result = run_suite(model, tasks, strategy, cfg, seeds, workers=workers)
        agg = result.aggregate
        rows.append(AblationRow(
            axis=spec.axis,
            value=list(value) if isinstance(value, tuple) else value,
            strategy=agg.strategy,
            accuracy_mean=agg.accuracy_mean,
            accuracy_std=agg.accuracy_std,
            forward_passes_mean=agg.forward_passes_mean,
            generated_tokens_mean=agg.generated_tokens_mean,
        ))
    if out_path is not None:
        write_lines(out_path, map(dataclasses.asdict, rows), append=True)
    return rows


def format_count(value: float) -> str:
    """Counts print in k units once they reach 1000."""
    if value >= 1000:
        return f"{value / 1000:.1f}k"
    return f"{value:.1f}"


def render_table(rows) -> str:
    header = ("value", "strategy", "accuracy", "passes", "tokens")
    body = [
        (
            str(row.value),
            row.strategy,
            f"{row.accuracy_mean:.4f} ± {row.accuracy_std:.4f}",
            format_count(row.forward_passes_mean),
            format_count(row.generated_tokens_mean),
        )
        for row in rows
    ]
    widths = [max(len(header[i]), *(len(line[i]) for line in body)) for i in range(len(header))]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)
