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
import reprlib
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, NamedTuple

import numpy as np

TokenId = int

NORMALIZATION_TOL = 1e-9

# The smallest positive temperature. Sampling divides log-probabilities by
# it, and log(p) is at least log(5e-324) > -745, so above this floor every
# finite log(p) stays finite; below it a row can turn to NaN.
MIN_TEMPERATURE = 1e-300

# Characters that terminate a sampled branch (the token carrying one is kept).
DEFAULT_PUNCTUATION = frozenset({".", ",", "?", "!", ":", ";", ")", "]", "}", "\n"})

ConfidenceMeasure = Literal["entropy", "max_prob", "top1_minus_top2"]
TrialScaling = Literal["positive", "fixed", "negative"]
StopReason = Literal["punctuation", "eos", "branch_cap", "global_cap"]

CONFIDENCE_MEASURES = ("entropy", "max_prob", "top1_minus_top2")
TRIAL_SCALINGS = ("positive", "fixed", "negative")


class ConfigError(ValueError):
    """A DecodeConfig field violates an invariant, or a config file is malformed."""


class ModelFileError(ValueError):
    """A model, task, record or other data file is unreadable or malformed."""


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
        if type(eos_id) is not int:
            raise TypeError(f"eos id must be an integer, got {eos_id!r}")
        if not 0 <= eos_id < len(toks):
            raise ValueError(f"eos id {eos_id} out of range for {len(toks)} tokens")
        if toks[eos_id] != "":
            raise ValueError("eos token must have an empty surface string")
        for i, t in enumerate(toks):
            if type(t) is not str:
                raise TypeError(f"token {i} must be a string, got {t!r}")
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
        """The tokens as a Sequence whose text is rendered on first read."""
        seq = object.__new__(Sequence)
        _set = object.__setattr__
        _set(seq, "tokens", tuple(tokens))
        _set(seq, "_text", None)
        _set(seq, "_vocab", self)
        return seq

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


_UINT64 = np.dtype(np.uint64)
_TWO_BITS = np.array(2.0).view(np.uint64)[()]  # 2.0's bits as a uint64


class Distribution:
    """A full-vocabulary probability vector.

    Entries must be finite, non-negative, and sum to 1 within 1e-9.
    An owned float64 array is adopted and frozen; a view, or any other
    input, is copied, so no caller can write to a validated row.
    Instances cache derived quantities (entropy, cumulative sums, prepared
    sampling vectors); the caches are idempotent so concurrent reads are safe.
    """

    __slots__ = ("probs", "_entropy", "_cumsum", "_prepared")

    def __init__(self, probs):
        try:
            arr = np.asarray(probs, dtype=np.float64)
        except OverflowError:  # an integer past the float range
            raise ValueError("distribution entries must be finite") from None
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("distribution must be a non-empty 1-d probability vector")
        if arr.base is not None:  # a view: the caller could still write to it
            arr = arr.copy()
        # Two ufunc reductions accept a valid row. Read as unsigned ints, the
        # largest entry is at most 2.0 only if no entry has its sign bit set
        # or exceeds 2.0, inf and NaN included; the sum of such a row can
        # neither overflow nor warn. np.add.reduce is the pairwise sum
        # arr.sum() runs, so the total is bit-identical.
        if np.maximum.reduce(arr.view(_UINT64)) <= _TWO_BITS:
            total = float(np.add.reduce(arr))
        else:
            total = math.nan
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            # Any other row, and a rejected one, gets the three checks in
            # turn, which name its first fault; a row holding -0.0 passes.
            if not np.all(np.isfinite(arr)):
                raise ValueError("distribution entries must be finite")
            if np.any(arr < 0):
                raise ValueError("distribution entries must be non-negative")
            total = float(np.add.reduce(arr))
            if not abs(total - 1.0) <= NORMALIZATION_TOL:
                raise ValueError(
                    f"distribution entries sum to {total!r}, expected 1 within 1e-9")
        arr.setflags(write=False)
        self.probs = arr
        self._entropy: float | None = None
        self._cumsum = None
        self._prepared: dict[tuple[float, float], "Distribution"] = {}

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()!r})"


class Sequence:
    """Token ids plus their rendered text. Build through Vocabulary.sequence
    so the text always equals the concatenated surfaces; that text is
    rendered on first read, since most decoded sequences are never shown.
    Equality, hash and repr are those of a frozen dataclass of the two
    fields."""

    __slots__ = ("tokens", "_text", "_vocab")

    def __init__(self, tokens: tuple[TokenId, ...], text: str):
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "_text", text)
        object.__setattr__(self, "_vocab", None)

    @property
    def text(self) -> str:
        text = self._text
        if text is None:
            text = self._vocab.text(self.tokens)
            object.__setattr__(self, "_text", text)
        return text

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tokens, self.text) == (other.tokens, other.text)

    def __hash__(self) -> int:
        return hash((self.tokens, self.text))

    def __repr__(self) -> str:
        return f"Sequence(tokens={self.tokens!r}, text={self.text!r})"

    def __reduce__(self):
        return Sequence, (self.tokens, self.text)


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

    def __post_init__(self):
        validate_config(self)
        # Any iterable of characters is kept as a frozenset, so every config hashes.
        if not isinstance(self.punctuation, frozenset):
            object.__setattr__(self, "punctuation", frozenset(self.punctuation))

    def with_seed(self, seed: int) -> "DecodeConfig":
        """This config with another seed: equal to dataclasses.replace(self,
        seed=seed), but only the seed is checked, since every other field
        was checked when this config was built."""
        return self._with("seed", check_seed(seed))

    def _with(self, key: str, value) -> "DecodeConfig":
        """This config with one field set to a value the caller has checked:
        the one copy of a config that skips __init__ and validate_config,
        for with_seed and greedy_policy's temperature 0."""
        config = object.__new__(type(self))
        # One object.__setattr__ per field, written out in __init__'s order,
        # then the new value over its field. A suite copies its config once
        # per record, and a loop over the field names, a getattr each, cost
        # 1.4x this copy. Assigning __dict__ instead would give every config
        # a dict of its own, where CPython keeps the values inline: more
        # memory per config, and slower attribute reads, which the engine
        # makes per token. A field added to DecodeConfig needs its line
        # here; tests/test_core.py checks the copy against
        # dataclasses.replace field by field.
        put = object.__setattr__
        put(config, "h_min", self.h_min)
        put(config, "h_max", self.h_max)
        put(config, "n_max", self.n_max)
        put(config, "temperature", self.temperature)
        put(config, "top_p", self.top_p)
        put(config, "punctuation", self.punctuation)
        put(config, "branch_cap", self.branch_cap)
        put(config, "global_cap", self.global_cap)
        put(config, "seed", self.seed)
        put(config, "confidence_measure", self.confidence_measure)
        put(config, "trial_scaling", self.trial_scaling)
        put(config, key, value)
        return config


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(DecodeConfig))

# Typed fields. Neither kind takes a bool, and the int fields take no numpy
# integer: records serialize the config with json.
_REAL_FIELDS = ("h_min", "h_max", "temperature", "top_p")
_INT_FIELDS = ("n_max", "branch_cap", "global_cap", "seed")


def _check_int(name: str, value) -> None:
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> int:
    """Return the seed unchanged, or raise the ConfigError validate_config
    raises for it: a seed is an int, not a bool or a numpy integer, in
    0..2**64-1."""
    _check_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer")
    return seed


def validate_config(config: DecodeConfig) -> DecodeConfig:
    """Return the config unchanged, or raise ConfigError naming the first
    violated invariant: field types first, then values. DecodeConfig runs
    this on construction, dataclasses.replace included."""
    for name in _REAL_FIELDS:
        value = getattr(config, name)
        if not isinstance(value, float) and type(value) is not int:
            raise ConfigError(f"{name} must be a real number, got {value!r}")
    for name in _INT_FIELDS:
        _check_int(name, getattr(config, name))
    if not math.isfinite(config.h_min) or config.h_min < 0:
        raise ConfigError("h_min must be ≥ 0")
    if not math.isfinite(config.h_max) or not config.h_min < config.h_max:
        raise ConfigError("h_min must be < h_max")
    if config.n_max < 1:
        raise ConfigError("n_max must be ≥ 1")
    if config.n_max > sys.float_info.max:  # trial_count computes in floats
        raise ConfigError(f"n_max must be at most {sys.float_info.max!r}")
    if not math.isfinite(config.temperature) or config.temperature < 0:
        raise ConfigError("temperature must be ≥ 0")
    if 0 < config.temperature < MIN_TEMPERATURE:
        raise ConfigError(f"temperature must be 0 or at least {MIN_TEMPERATURE!r}")
    if not math.isfinite(config.top_p) or not 0 < config.top_p <= 1:
        raise ConfigError("top_p must be in (0, 1]")
    if config.punctuation is not DEFAULT_PUNCTUATION and any(
            not isinstance(c, str) or len(c) != 1 for c in config.punctuation):
        raise ConfigError("punctuation entries must be single characters")
    if config.branch_cap < 1:
        raise ConfigError("branch_cap must be ≥ 1")
    if config.global_cap < 1:
        raise ConfigError("global_cap must be ≥ 1")
    check_seed(config.seed)
    if config.confidence_measure not in CONFIDENCE_MEASURES:
        raise ConfigError(f"confidence_measure must be one of {CONFIDENCE_MEASURES}")
    if config.trial_scaling not in TRIAL_SCALINGS:
        raise ConfigError(f"trial_scaling must be one of {TRIAL_SCALINGS}")
    return config


# The one reader and writer of JSON files and wire records. A reader raises
# the caller's error class for bad content, and ModelFileError for a file it
# cannot read. A field kind maps to the types its value, its list items or
# its object values may have, and to its name in errors.
_KINDS = {
    "int": ({int}, None, "an integer"),
    "real": ({float, int}, None, "a real number"),
    "bool": ({bool}, None, "true or false"),
    "str": ({str}, None, "a string"),
    "object": ({dict}, None, "a JSON object"),
    "[int]": ({list}, {int}, "a list of integers"),
    "[real]": ({list}, {float, int}, "a list of real numbers"),
    "[str]": ({list}, {str}, "a list of strings"),
    "[object]": ({list}, {dict}, "a list of JSON objects"),
    "[list]": ({list}, {list}, "a list of lists"),
    "{object}": ({dict}, {dict}, "a JSON object of JSON objects"),
}


def check_fields(data, kinds: dict[str, str], error: type, where: str, *,
                 closed: bool = False, optional: bool = False) -> dict:
    """The fields of a JSON object that kinds declares, each of its kind; a
    real is finite, and an int given for one becomes the equal float. closed
    rejects other fields; optional lets declared ones be absent."""
    if type(data) is not dict:
        raise error(f"{where}: expected a JSON object, got {reprlib.repr(data)}")
    unknown = closed and sorted(set(data) - set(kinds))
    if unknown:
        raise error(f"{where}: unknown field {unknown[0]!r}")
    out = {}
    for name, kind in kinds.items():
        if name not in data:
            if optional:
                continue
            raise error(f"{where}: missing required field {name!r}")
        value = data[name]
        types, items, description = _KINDS[kind]
        # A bool is never a number. A container costs one pass over its item types.
        ok = type(value) in types and (items is None or items.issuperset(
            map(type, value.values() if type(value) is dict else value)))
        if not ok or kind == "real" and not abs(value) <= sys.float_info.max:
            raise error(f"{where}: {name} must be {description}, got {reprlib.repr(value)}")
        out[name] = float(value) if kind == "real" else value
    return out


def read_text(path: str, error: type = ModelFileError) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def parse_json(text, error: type, where: str):
    """The JSON value a file, a file line or a wire line (str or bytes) holds."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and deep nesting too
        raise error(f"{where}: invalid JSON: {exc}") from exc


def read_json(path: str, error: type):
    return parse_json(read_text(path, error), error, path)


def read_lines(path: str, error: type) -> Iterator[tuple[int, object]]:
    """(line number, value) for each non-blank line of a JSON-lines file."""
    for lineno, line in enumerate(read_text(path, error).split("\n"), start=1):
        if line.strip():
            yield lineno, parse_json(line, error, f"{path}: line {lineno}")


def json_line(record) -> str:
    return json.dumps(record) + "\n"


def write_json(path: str, data, indent: int | None = 1) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=indent)
        fh.write("\n")


def write_lines(path: str, records, append: bool = False) -> None:
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        fh.writelines(map(json_line, records))


_CONFIG_KINDS = {**dict.fromkeys(_REAL_FIELDS, "real"), **dict.fromkeys(_INT_FIELDS, "int"),
                 **dict.fromkeys(("punctuation", "confidence_measure", "trial_scaling"), "str")}


def config_to_dict(config: DecodeConfig) -> dict:
    """JSON-ready snapshot, in field order; the punctuation set becomes a
    sorted string. Every other field is an immutable scalar, so no copy."""
    d = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    d["punctuation"] = "".join(sorted(config.punctuation))
    return d


def config_from_dict(data: dict, source: str = "config") -> DecodeConfig:
    kwargs = check_fields(data, _CONFIG_KINDS, ConfigError, source, closed=True, optional=True)
    if "punctuation" in kwargs:
        punct = frozenset(kwargs["punctuation"])
        # Sharing the default set spares validate_config its costliest check.
        kwargs["punctuation"] = DEFAULT_PUNCTUATION if punct == DEFAULT_PUNCTUATION else punct
    try:
        return DecodeConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path: str) -> DecodeConfig:
    """Read a JSON config file holding DecodeConfig field names only."""
    return config_from_dict(read_json(path, ConfigError), source=path)


@dataclass(frozen=True)
class CostLedger:
    """Decode cost accounting.

    forward_passes is the paper's logical cost: one pass per sampled token
    per trial, so a step with N single-token trials costs N passes. It is
    not a count of backend calls; the trials of a step share the one read
    of the step's prefix. generated_tokens counts every sampled token,
    including tokens of discarded trials. high_entropy_steps counts exactly
    the steps where more than one trial ran.
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


class StepTrace(NamedTuple):
    """Record of one decision step: the confidence reading that sized the
    step, how many trials ran, and either the winning branch's perplexity
    (N > 1) or the sampled token's model probability (N = 1).

    A named tuple, so a trace is one allocation: a decode builds one per
    step, and by timeit a frozen dataclass took 1.1 us to build, this
    0.5 us, and tuple.__new__(StepTrace, fields), which the engine's step
    loop calls, 0.2 us (2-CPU VM). Its fields, keyword construction,
    equality and hash among traces, repr, immutability and pickle are those
    of the frozen dataclass it was."""

    confidence: float
    n_trials: int
    chosen_ppl: float | None
    chosen_prob: float | None

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True)
class DecodeOutcome:
    sequence: Sequence
    cost: CostLedger
    per_step_trace: tuple[StepTrace, ...]


# Built as __init__ builds them, one object.__setattr__ per field in field
# order, but without the keyword call, which cost more than these calls
# together: by timeit (2-CPU VM), 0.99-1.14 against 0.74-0.77 us a ledger,
# and 0.86-0.94 against 0.61-0.63 us an outcome. A suite pass builds
# thousands of each. A field added to either class needs its line here;
# tests/test_harness.py checks these objects against ones built by
# __init__.

def new_ledger(forward_passes: int, generated_tokens: int, high_entropy_steps: int,
               total_steps: int) -> CostLedger:
    """CostLedger(forward_passes, generated_tokens, high_entropy_steps,
    total_steps), built without the keyword call."""
    ledger = object.__new__(CostLedger)
    put = object.__setattr__
    put(ledger, "forward_passes", forward_passes)
    put(ledger, "generated_tokens", generated_tokens)
    put(ledger, "high_entropy_steps", high_entropy_steps)
    put(ledger, "total_steps", total_steps)
    return ledger


def new_outcome(sequence: Sequence, cost: CostLedger,
                per_step_trace: tuple[StepTrace, ...]) -> DecodeOutcome:
    """DecodeOutcome(sequence, cost, per_step_trace), built without the
    keyword call."""
    outcome = object.__new__(DecodeOutcome)
    put = object.__setattr__
    put(outcome, "sequence", sequence)
    put(outcome, "cost", cost)
    put(outcome, "per_step_trace", per_step_trace)
    return outcome
