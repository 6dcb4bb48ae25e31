"""Counter-based deterministic randomness.

Everything random in this package is a pure function of (seed, counter...)
through a SplitMix64 finalizer, so output is bit-identical across platforms,
runs, and any parallel schedule.  No stateful RNG is ever shared.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return (x ^ (x >> 31)) & _MASK


def counter_values_np(seed: int, counters: np.ndarray, *prefix: int) -> np.ndarray:
    """Uniform 64-bit values for the tuples (seed, *prefix, c), c in counters.

    The seed is mixed, then each counter in turn is added with the golden
    gamma and mixed again; the last counter runs vectorized over the array.
    """
    x = mix64(seed)
    for c in prefix:
        x = mix64((x + _GOLDEN + c) & _MASK)
    z = counters.astype(np.uint64) + np.uint64((x + _GOLDEN) & _MASK)
    mix64_inplace(z)
    return z


def counter_offsets(seed: int, count: int) -> np.ndarray:
    """Per-prefix offsets of a counter grid, as uint64.

    Hashing counters + offsets[i] with `mix64_inplace` gives
    counter_values_np(seed, counters, i): the state after prefix i is
    counter_values_np(seed, [i]), and the golden gamma is added once more.
    """
    with np.errstate(over="ignore"):
        return counter_values_np(seed, np.arange(count)) + np.uint64(_GOLDEN)


def mix64_inplace(z: np.ndarray) -> None:
    """The SplitMix64 finalizer on every word of a uint64 array, in place."""
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= np.right_shift(z, np.uint64(31), out=t)
