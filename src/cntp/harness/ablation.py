"""Ablation grids: sweep one axis of the engine configuration over a task
suite and report accuracy and cost per value, as a text table plus a
line-delimited machine log."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from ..core import CONFIDENCE_MEASURES, TRIAL_SCALINGS, DecodeConfig
from .runner import run_suite

AXES = ("confidence_measure", "trial_scaling", "n_max_sweep",
        "temperature_top_p_grid", "best_of_n")

# The flipped-probability measures live on a [0, 1] uncertainty scale, so
# entropy-range thresholds would never trigger multi-trial steps; these
# replace (h_min, h_max) whenever the measure is not entropy.
UNIT_SCALE_THRESHOLDS = (0.01, 0.9)


@dataclass(frozen=True)
class AblationSpec:
    axis: str
    values: tuple

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown ablation axis {self.axis!r}")
        if not self.values:
            raise ValueError("ablation needs at least one value")
        for value in self.values:
            _check_value(self.axis, value)


def _check_value(axis: str, value) -> None:
    if axis == "confidence_measure" and value not in CONFIDENCE_MEASURES:
        raise ValueError(f"confidence measure must be one of {CONFIDENCE_MEASURES}, got {value!r}")
    if axis == "trial_scaling" and value not in TRIAL_SCALINGS:
        raise ValueError(f"trial scaling must be one of {TRIAL_SCALINGS}, got {value!r}")
    if axis in ("n_max_sweep", "best_of_n"):
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{axis} values must be integers ≥ 1, got {value!r}")
    if axis == "temperature_top_p_grid":
        ok = (isinstance(value, tuple) and len(value) == 2
              and value[0] >= 0 and 0 < value[1] <= 1)
        if not ok:
            raise ValueError(f"grid values must be (temperature, top_p) pairs, got {value!r}")


def parse_values(axis: str, text: str) -> tuple:
    """CLI value lists: comma-separated; grid entries as TxP, e.g.
    "0.6x0.9,1.2x0.95"."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty value list")
    values = []
    for part in parts:
        if axis in ("n_max_sweep", "best_of_n"):
            values.append(int(part))
        elif axis == "temperature_top_p_grid":
            t, sep, p = part.partition("x")
            if not sep:
                raise ValueError(f"grid value {part!r} must look like TxP")
            values.append((float(t), float(p)))
        else:
            values.append(part)
    return tuple(values)


def variant(axis: str, value, config: DecodeConfig) -> tuple[DecodeConfig, str]:
    """The (config, strategy) pair one ablation cell runs with."""
    if axis == "confidence_measure":
        cfg = dataclasses.replace(config, confidence_measure=value)
        if value != "entropy":
            lo, hi = UNIT_SCALE_THRESHOLDS
            cfg = dataclasses.replace(cfg, h_min=lo, h_max=hi)
        return cfg, "cntp"
    if axis == "trial_scaling":
        return dataclasses.replace(config, trial_scaling=value), "cntp"
    if axis == "n_max_sweep":
        return dataclasses.replace(config, n_max=value), "cntp"
    if axis == "temperature_top_p_grid":
        t, p = value
        return dataclasses.replace(config, temperature=t, top_p=p), "cntp"
    if axis == "best_of_n":
        return config, f"best_of_n:{value}"
    raise ValueError(f"unknown ablation axis {axis!r}")


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
        with open(out_path, "a", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(dataclasses.asdict(row)) + "\n")
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
