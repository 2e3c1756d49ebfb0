"""Sampling primitives: keyed deterministic RNG streams, temperature and
nucleus shaping, and categorical draws.

Temperature is applied before nucleus truncation everywhere. Both transforms
return new validated distributions; the input is never mutated.
"""

from __future__ import annotations

import numpy as np

from .core import Distribution, DecodeConfig, TokenId

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _fold(h: int, part: int) -> int:
    return _mix64(h ^ _mix64((part + _GOLDEN) & _M64))


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

    __slots__ = ("seed", "stream", "_base", "_state")

    def __init__(self, seed: int, stream: int | tuple[int, ...] = ()):
        if isinstance(stream, int):
            stream = (stream,)
        base = _mix64((seed & _M64) ^ 0x5851F42D4C957F2D)
        for part in stream:
            base = _fold(base, part & _M64)
        self.seed = seed
        self.stream = stream
        self._base = base
        self._state = base

    def derive(self, *key: int) -> "Rng":
        child = object.__new__(Rng)
        base = self._base
        for part in key:
            base = _fold(base, part & _M64)
        child.seed = self.seed
        child.stream = self.stream + key
        child._base = base
        child._state = base
        return child

    def uniform(self) -> float:
        """One draw in [0, 1) with 53 random bits."""
        self._state = (self._state + _GOLDEN) & _M64
        return (_mix64(self._state) >> 11) * 1.1102230246251565e-16  # 2**-53


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed deterministically derived from (seed, key); used to give
    self-consistency paths and repeated runs independent streams: the base
    state of the stream Rng(seed, key)."""
    return Rng(seed, key)._base


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


def _support_cumsum(dist: Distribution):
    cached = dist._cumsum
    if cached is None:
        support = np.flatnonzero(dist.probs)
        cached = (support, np.cumsum(dist.probs[support]))
        dist._cumsum = cached
    return cached


def sample_token(dist: Distribution, rng) -> TokenId:
    """Inverse-CDF draw in vocabulary order from one uniform variate.
    Zero-probability tokens are never produced."""
    support, cum = _support_cumsum(dist)
    u = rng.uniform()
    idx = int(np.searchsorted(cum, u, side="left"))
    if idx >= support.size:
        idx = support.size - 1
    return int(support[idx])


def greedy_token(dist: Distribution) -> TokenId:
    """Argmax token; ties break toward the lowest id."""
    return int(np.argmax(dist.probs))
