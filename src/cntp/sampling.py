"""Sampling primitives: keyed deterministic RNG streams, temperature and
nucleus shaping, and categorical draws.

Temperature is applied before nucleus truncation everywhere. Both transforms
return new validated distributions; the input is never mutated.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

import numpy as np

from .core import Distribution, DecodeConfig, TokenId

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


# Key parts are step, trial and path indices, mostly small, so the mix of
# each part below 4096 is computed once. A table, unlike a cache, never grows
# or evicts, so a step of 20 000 trials holds no more memory than one of 2000.
_SMALL_PARTS = array("Q", (_mix64((part + _GOLDEN) & _M64) for part in range(4096)))


def _fold(h: int, part: int) -> int:
    mixed = _SMALL_PARTS[part] if part < 4096 else _mix64((part + _GOLDEN) & _M64)
    return _mix64(h ^ mixed)


class Rng:
    """Deterministic 64-bit generator with cheap keyed sub-streams.

    A stream is identified by (seed, stream key); identical identity and
    call sequence always reproduce the same draws. derive() children depend
    only on the identity, not on how many draws the parent has made, so
    per-step and per-trial streams can be created in any order.

    The state update is the splitmix64 sequence; stream construction is a
    few integer multiplies, which keeps per-trial derivation cheap enough
    for large Monte Carlo runs.
    """

    __slots__ = ("_base", "_state")

    def __init__(self, seed: int, stream: int | tuple[int, ...] = ()):
        if isinstance(stream, int):
            stream = (stream,)
        self._base = self._state = derive_seed(seed, *stream)

    def derive(self, *key: int) -> "Rng":
        child = object.__new__(Rng)
        base = self._base
        for part in key:
            base = _fold(base, part & _M64)
        child._base = base
        child._state = base
        return child

    def uniform(self) -> float:
        """One draw in [0, 1) with 53 random bits."""
        self._state = (self._state + _GOLDEN) & _M64
        return (_mix64(self._state) >> 11) * 1.1102230246251565e-16  # 2**-53


# Batches of at least this many draws go through numpy uint64 lanes; smaller
# ones through Python ints. numpy costs 8-25 us a call whatever the batch,
# Python ints 0.7-1.9 us a draw, both growing with the key's length; they
# broke even at 10-16 draws (2-CPU VM, Python 3.11, numpy 2.4).
NUMPY_DRAWS = 16

_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_M1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_M2 = np.uint64(0x94D049BB133111EB)
_NP_11, _NP_27, _NP_30, _NP_31 = map(np.uint64, (11, 27, 30, 31))


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """_mix64 on every lane of a uint64 array, which wraps as & _M64 does.
    Explicit np.uint64 operands keep every step in uint64 under numpy 1.x's
    casting rules too."""
    z = z ^ (z >> _NP_30)
    z *= _NP_M1
    z ^= z >> _NP_27
    z *= _NP_M2
    return z ^ (z >> _NP_31)


def _fold_keys(bases, key: tuple):
    """Each base folded by every part of key, as Rng.derive folds one; a
    part is an int every base shares or a list with one part per base. A
    list of Python ints below NUMPY_DRAWS bases, else a numpy uint64 array."""
    if len(bases) < NUMPY_DRAWS:
        out = []
        for j, h in enumerate(bases):
            for part in key:
                h = _fold(h, (part if type(part) is int else part[j]) & _M64)
            out.append(h)
        return out
    h = np.asarray(bases, dtype=np.uint64)
    for part in key:
        if type(part) is int:
            part &= _M64
            mixed = np.uint64(_SMALL_PARTS[part] if part < 4096
                              else _mix64((part + _GOLDEN) & _M64))
        else:
            mixed = _mix64_np(np.array(part, dtype=np.uint64) + _NP_GOLDEN)
        h = _mix64_np(h ^ mixed)
    return h


def keyed_uniforms(bases: list[int], key: tuple, draw: int | list[int] | range) -> list[float]:
    """Draw number draw (0 for the first) of each stream Rng(seed).derive(*key),
    given as bases, the derive_seed(seed) of each. A part of key, and draw,
    is an int every stream shares or a list with one entry per stream, so
    one call can draw a block of steps ahead: ([s, s+1, ...], 0) keys the
    single-token draws of steps s, s+1, ... of a repeated base. A range of
    draws gives those draws of every stream, grouped stream by stream, so
    one call can draw a block of rounds ahead; each stream's key is folded
    once, and each draw costs only its mix. The whole batch in one call:
    over numpy uint64 lanes for NUMPY_DRAWS draws or more, else over Python
    ints."""
    if type(draw) is range:
        return _stream_uniforms(bases, key, draw)
    shared = type(draw) is int
    if len(bases) < NUMPY_DRAWS:
        # _fold_keys's loop with the draw taken in it: a decode's per-step
        # call over few lanes is hot, and a second pass cost it 10-20 %.
        offset = (draw + 1) * _GOLDEN & _M64 if shared else 0
        out = []
        for j, h in enumerate(bases):
            for part in key:
                h = _fold(h, (part if type(part) is int else part[j]) & _M64)
            if not shared:
                offset = (draw[j] + 1) * _GOLDEN & _M64
            out.append((_mix64((h + offset) & _M64) >> 11) * 1.1102230246251565e-16)
        return out
    if shared:
        offset = np.uint64((draw + 1) * _GOLDEN & _M64)
    else:  # uint64 arithmetic wraps, as & _M64 does
        offset = (np.array(draw, dtype=np.uint64) + np.uint64(1)) * _NP_GOLDEN
    h = _mix64_np(_fold_keys(bases, key) + offset)
    return ((h >> _NP_11).astype(np.float64) * 1.1102230246251565e-16).tolist()


def _stream_uniforms(bases: list[int], key: tuple, draws: range) -> list[float]:
    """keyed_uniforms over a range of draws: each stream's draws in turn."""
    if not draws:
        return []
    if len(bases) * len(draws) < NUMPY_DRAWS:
        offsets = [(d + 1) * _GOLDEN & _M64 for d in draws]
        return [(_mix64((h + o) & _M64) >> 11) * 1.1102230246251565e-16
                for h in _fold_keys(bases, key) for o in offsets]
    # A (streams, draws) grid. Draw d adds (d + 1) * _GOLDEN to its stream's
    # state, so along the range the offsets step by draws.step * _GOLDEN;
    # uint64 array arithmetic wraps, as & _M64 does.
    offsets = (np.arange(len(draws), dtype=np.uint64) * np.uint64(draws.step * _GOLDEN & _M64)
               + np.uint64((draws.start + 1) * _GOLDEN & _M64))
    h = np.asarray(_fold_keys(bases, key), dtype=np.uint64).reshape(-1, 1)
    h = _mix64_np(h + offsets).ravel()
    return ((h >> _NP_11).astype(np.float64) * 1.1102230246251565e-16).tolist()


_SEED_SALT = 0x5851F42D4C957F2D


def derive_seeds(seeds: list[int], key: tuple = ()) -> list[int]:
    """derive_seed(seed, *key) of each seed, in one call; a part of key is an
    int every seed shares or a list with one part per seed, as in
    keyed_uniforms, whose fold it runs."""
    if len(seeds) < NUMPY_DRAWS:
        bases = [_mix64((seed & _M64) ^ _SEED_SALT) for seed in seeds]
    else:
        bases = _mix64_np(np.array([seed & _M64 for seed in seeds], dtype=np.uint64)
                          ^ np.uint64(_SEED_SALT))
    return derive_bases(bases, key)


def derive_bases(bases, key: tuple) -> list[int]:
    """The base state of the stream that derive(*key) gives from the stream
    of each base state of bases, in one call; key as in derive_seeds. So
    derive_seeds(seeds, key) equals derive_bases(derive_seeds(seeds), key)."""
    h = _fold_keys(bases, key)
    return h if type(h) is list else h.tolist()


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed deterministically derived from (seed, key); used to give
    self-consistency paths and repeated runs independent streams: the base
    state of the stream Rng(seed, key)."""
    return derive_seeds([seed], key)[0]


def apply_temperature(dist: Distribution, temperature: float) -> Distribution:
    """Probabilities proportional to p**(1/T). T=1 is the identity; T=0 is a
    one-hot on the argmax (lowest id on ties)."""
    if temperature < 0:
        raise ValueError("temperature must be ≥ 0")
    if temperature == 1.0:
        return dist
    probs = dist.probs
    if temperature == 0.0:
        out = np.zeros_like(probs)
        out[int(np.argmax(probs))] = 1.0
        return Distribution(out)
    # Log-space keeps p**(1/T) stable for small probabilities.
    with np.errstate(divide="ignore"):
        scaled = np.log(probs) / temperature
    scaled -= scaled.max()
    weights = np.exp(scaled)
    return Distribution(weights / weights.sum())


def nucleus_truncate(dist: Distribution, top_p: float) -> Distribution:
    """Keep the smallest prefix of tokens, in descending-probability order
    (ascending id on ties), whose cumulative mass reaches top_p; zero the
    rest and renormalize. top_p=1 is the identity. The argmax always
    survives."""
    if not 0 < top_p <= 1:
        raise ValueError("top_p must be in (0, 1]")
    if top_p == 1.0:
        return dist
    probs = dist.probs
    n = probs.size
    order = np.lexsort((np.arange(n), -probs))
    cum = np.cumsum(probs[order])
    k = min(int(np.searchsorted(cum, top_p, side="left")) + 1, n)
    kept = order[:k]
    out = np.zeros_like(probs)
    out[kept] = probs[kept] / cum[k - 1]
    return Distribution(out)


def prepare_sampling_dist(dist: Distribution, config: DecodeConfig) -> Distribution:
    """Temperature then nucleus, per the config; results are cached on the
    input distribution keyed by (temperature, top_p)."""
    key = (config.temperature, config.top_p)
    cached = dist._prepared.get(key)
    if cached is None:
        cached = nucleus_truncate(apply_temperature(dist, config.temperature), config.top_p)
        dist._prepared[key] = cached
    return cached


def support_cumsum(dist: Distribution) -> tuple[list[int], list[float]]:
    """The tokens a row can produce: its nonzero ids in vocabulary order and
    their running mass, as Python lists cached on the row. The sampler
    bisects the mass (a bisect over a few floats costs less than a numpy
    call); the enumeration oracle walks the ids."""
    cached = dist._cumsum
    if cached is None:
        support = np.flatnonzero(dist.probs)
        cached = (support.tolist(), np.cumsum(dist.probs[support]).tolist())
        dist._cumsum = cached
    return cached


def sample_token(dist: Distribution, rng) -> TokenId:
    """Inverse-CDF draw in vocabulary order from one uniform variate: the
    first token whose running mass reaches it (np.searchsorted's side="left"
    on the same doubles). Zero-probability tokens are never produced."""
    return token_at(dist, rng.uniform())


def token_at(dist: Distribution, u: float) -> TokenId:
    """sample_token's draw for the uniform variate u."""
    support, cum = support_cumsum(dist)
    idx = bisect_left(cum, u)
    return support[idx if idx < len(support) else -1]


def greedy_token(dist: Distribution) -> TokenId:
    """Argmax token; ties break toward the lowest id."""
    return int(dist.probs.argmax())
