"""Deterministic, platform-independent random numbers.

The generator is counter-based: output ``i`` is ``mix64(key + (i+1)*GOLDEN)``
where ``mix64`` is the splitmix64 finalizer.  Because each output depends only
on (key, counter) the whole stream vectorizes over numpy uint64 arrays and
replays bit-for-bit on any platform.  Gaussians come from Box-Muller applied
to consecutive uniform pairs.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class Rng:
    """Seedable splitmix64 stream with uniform/normal sampling."""

    def __init__(self, seed: int):
        self._key = np.uint64(seed & _U64_MASK)
        self._counter = 0

    def spawn(self, stream: int) -> "Rng":
        """Derive an independent child stream; deterministic in (seed, stream)."""
        child = Rng(0)
        # 1-element arrays: numpy scalar uint64 overflow warns, array ops wrap
        salt = _mix64(np.array([stream & _U64_MASK], dtype=np.uint64) + _GOLDEN)
        child._key = _mix64(np.array([self._key], dtype=np.uint64) ^ salt)[0]
        return child

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self._key + idx * _GOLDEN)

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n uniform floats in [low, high) with 53-bit resolution."""
        u = (self._raw(int(n)) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return low + (high - low) * u

    def normal(self, n: int, std: float = 1.0) -> np.ndarray:
        """n normals via Box-Muller on uniform pairs."""
        m = int(n)
        pairs = (m + 1) // 2
        raw = self._raw(2 * pairs)
        # u1 in (0, 1] so log() is finite
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:m]
        return std * z

    def complex_normal(self, n: int, std: float = 1.0) -> np.ndarray:
        """Complex samples with Re and Im i.i.d. N(0, std^2)."""
        z = self.normal(2 * n, std=std)
        return z[:n] + 1j * z[n:]
