"""Shared value types for the decoding engine.

Everything here is immutable after construction and safe to share across
threads. Probability vectors are float64 numpy arrays validated on
construction; a vector that does not sum to one is rejected, never
silently renormalized.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

TokenId = int

NORMALIZATION_TOL = 1e-9

# Characters that terminate a sampled branch (the token carrying one is kept).
DEFAULT_PUNCTUATION = frozenset({".", ",", "?", "!", ":", ";", ")", "]", "}", "\n"})

ConfidenceMeasure = Literal["entropy", "max_prob", "top1_minus_top2"]
TrialScaling = Literal["positive", "fixed", "negative"]
StopReason = Literal["punctuation", "eos", "branch_cap", "global_cap"]

CONFIDENCE_MEASURES = ("entropy", "max_prob", "top1_minus_top2")
TRIAL_SCALINGS = ("positive", "fixed", "negative")


class ConfigError(ValueError):
    """A DecodeConfig field violates an invariant, or a config file is malformed."""


class Vocabulary:
    """Ordered token inventory. A token id is its position in ``tokens``.

    The end-of-sequence token has an empty surface string, so emitting it
    never changes the rendered text. All other surfaces must be unique and
    non-empty. Instances cache each punctuation set's stop mask (see
    engine.stop_mask).
    """

    __slots__ = ("tokens", "eos_id", "_by_surface", "_max_surface_len", "_stop_masks")

    def __init__(self, tokens: Iterable[str], eos_id: TokenId):
        toks = tuple(tokens)
        if not toks:
            raise ValueError("vocabulary must contain at least one token")
        if not 0 <= eos_id < len(toks):
            raise ValueError(f"eos id {eos_id} out of range for {len(toks)} tokens")
        if toks[eos_id] != "":
            raise ValueError("eos token must have an empty surface string")
        for i, t in enumerate(toks):
            if i != eos_id and t == "":
                raise ValueError(f"token {i} has an empty surface but is not eos")
        if len(set(toks)) != len(toks):
            raise ValueError("token surfaces must be unique")
        self.tokens = toks
        self.eos_id = eos_id
        self._by_surface = {t: i for i, t in enumerate(toks) if t}
        self._max_surface_len = max(len(t) for t in toks)
        self._stop_masks: dict[frozenset[str], tuple[bool, ...]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def surface(self, token: TokenId) -> str:
        return self.tokens[token]

    def text(self, tokens: Iterable[TokenId]) -> str:
        return "".join(self.tokens[t] for t in tokens)

    def sequence(self, tokens: Iterable[TokenId]) -> "Sequence":
        toks = tuple(tokens)
        return Sequence(tokens=toks, text=self.text(toks))

    def encode(self, text: str) -> tuple[TokenId, ...]:
        """Greedy longest-match lookup of surfaces; raises if the text
        cannot be written in this vocabulary."""
        out: list[TokenId] = []
        i = 0
        while i < len(text):
            for width in range(min(self._max_surface_len, len(text) - i), 0, -1):
                tid = self._by_surface.get(text[i : i + width])
                if tid is not None:
                    out.append(tid)
                    i += width
                    break
            else:
                raise ValueError(f"cannot tokenize text at position {i}: {text[i:i + 12]!r}")
        return tuple(out)


class Distribution:
    """A full-vocabulary probability vector.

    Entries must be finite, non-negative, and sum to 1 within 1e-9.
    Instances cache derived quantities (entropy, cumulative sums, prepared
    sampling vectors); the caches are idempotent so concurrent reads are safe.
    """

    __slots__ = ("probs", "_entropy", "_cumsum", "_prepared")

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("distribution must be a non-empty 1-d probability vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distribution entries must be finite")
        if np.any(arr < 0):
            raise ValueError("distribution entries must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"distribution entries sum to {total!r}, expected 1 within 1e-9")
        arr.setflags(write=False)
        self.probs = arr
        self._entropy: float | None = None
        self._cumsum = None
        self._prepared: dict[tuple[float, float], "Distribution"] = {}

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()!r})"


@dataclass(frozen=True)
class Sequence:
    """Token ids plus their rendered text. Build through Vocabulary.sequence
    so the text always equals the concatenated surfaces."""

    tokens: tuple[TokenId, ...]
    text: str

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Trial:
    """One sampled branch: its tokens, the model's (untempered) probability
    of each sampled token, the negative log likelihood summed over those
    probabilities, the length-normalized perplexity, and why it stopped."""

    tokens: tuple[TokenId, ...]
    probs: tuple[float, ...]
    nll: float
    ppl: float
    stop_reason: StopReason


@dataclass(frozen=True)
class DecodeConfig:
    """Knobs shared by every decoding strategy.

    h_min and h_max bound the confidence region that maps onto 1..n_max
    trials; temperature and top_p shape the sampling distribution (in that
    order); punctuation closes a sampled branch; branch_cap and global_cap
    bound branch length and total answer length.
    """

    h_min: float = 0.01
    h_max: float = 1.5
    n_max: int = 10
    temperature: float = 1.0
    top_p: float = 0.9
    punctuation: frozenset[str] = DEFAULT_PUNCTUATION
    branch_cap: int = 64
    global_cap: int = 1024
    seed: int = 0
    confidence_measure: ConfidenceMeasure = "entropy"
    trial_scaling: TrialScaling = "positive"


def validate_config(config: DecodeConfig) -> DecodeConfig:
    """Return the config unchanged, or raise ConfigError naming the first
    violated invariant."""
    if not math.isfinite(config.h_min) or config.h_min < 0:
        raise ConfigError("h_min must be ≥ 0")
    if not math.isfinite(config.h_max) or not config.h_min < config.h_max:
        raise ConfigError("h_min must be < h_max")
    if not isinstance(config.n_max, int) or config.n_max < 1:
        raise ConfigError("n_max must be ≥ 1")
    if not math.isfinite(config.temperature) or config.temperature < 0:
        raise ConfigError("temperature must be ≥ 0")
    if not math.isfinite(config.top_p) or not 0 < config.top_p <= 1:
        raise ConfigError("top_p must be in (0, 1]")
    if any(not isinstance(c, str) or len(c) != 1 for c in config.punctuation):
        raise ConfigError("punctuation entries must be single characters")
    if not isinstance(config.branch_cap, int) or config.branch_cap < 1:
        raise ConfigError("branch_cap must be ≥ 1")
    if not isinstance(config.global_cap, int) or config.global_cap < 1:
        raise ConfigError("global_cap must be ≥ 1")
    if not isinstance(config.seed, int) or not 0 <= config.seed < 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer")
    if config.confidence_measure not in CONFIDENCE_MEASURES:
        raise ConfigError(f"confidence_measure must be one of {CONFIDENCE_MEASURES}")
    if config.trial_scaling not in TRIAL_SCALINGS:
        raise ConfigError(f"trial_scaling must be one of {TRIAL_SCALINGS}")
    return config


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(DecodeConfig))


def config_to_dict(config: DecodeConfig) -> dict:
    """JSON-ready snapshot; the punctuation set becomes a sorted string."""
    d = dataclasses.asdict(config)
    d["punctuation"] = "".join(sorted(config.punctuation))
    return d


def config_from_dict(data: dict, source: str = "config") -> DecodeConfig:
    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"{source}: unknown config key: {unknown[0]}")
    kwargs = dict(data)
    if "punctuation" in kwargs:
        punct = kwargs["punctuation"]
        if not isinstance(punct, str):
            raise ConfigError(f"{source}: punctuation must be a string of characters")
        kwargs["punctuation"] = frozenset(punct)
    for key in ("h_min", "h_max", "temperature", "top_p"):
        if key in kwargs and isinstance(kwargs[key], int):
            kwargs[key] = float(kwargs[key])
    return validate_config(DecodeConfig(**kwargs))


def load_config(path: str) -> DecodeConfig:
    """Read a JSON config file holding exactly the DecodeConfig field names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    return config_from_dict(data, source=path)


@dataclass(frozen=True)
class CostLedger:
    """Decode cost accounting.

    forward_passes counts every next_distribution call the decoder made; at
    a branching step each trial's first token is its own call, so a step
    with N single-token trials costs N passes. generated_tokens counts every
    sampled token, including tokens of discarded trials. high_entropy_steps
    counts exactly the steps where more than one trial ran.
    """

    forward_passes: int = 0
    generated_tokens: int = 0
    high_entropy_steps: int = 0
    total_steps: int = 0

    @property
    def high_entropy_fraction(self) -> float:
        if self.total_steps == 0:
            return 0.0
        return self.high_entropy_steps / self.total_steps

    def __add__(self, other: "CostLedger") -> "CostLedger":
        return CostLedger(
            forward_passes=self.forward_passes + other.forward_passes,
            generated_tokens=self.generated_tokens + other.generated_tokens,
            high_entropy_steps=self.high_entropy_steps + other.high_entropy_steps,
            total_steps=self.total_steps + other.total_steps,
        )


@dataclass(frozen=True)
class StepTrace:
    """Record of one decision step: the confidence reading that sized the
    step, how many trials ran, and either the winning branch's perplexity
    (N > 1) or the sampled token's model probability (N = 1)."""

    confidence: float
    n_trials: int
    chosen_ppl: float | None
    chosen_prob: float | None


@dataclass(frozen=True)
class DecodeOutcome:
    sequence: Sequence
    cost: CostLedger
    per_step_trace: tuple[StepTrace, ...]
