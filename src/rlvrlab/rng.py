"""Counter-based random streams.

Every random draw in a run is addressed by (seed, stream id, counter), so any
iteration can be replayed in isolation and independent concerns (prompt
selection, Fisher sampling, scenario construction, permutation tests) never
share a stream.  Philox is counter-based, which makes the addressing exact
rather than a convention about call order.
"""

from __future__ import annotations

import numpy as np

PROMPT_STREAM = 0
FISHER_STREAM = 1
SCENARIO_STREAM = 2
PERMUTATION_STREAM = 3
SWEEP_STREAM = 4

_MASK64 = (1 << 64) - 1


def _key(seed: int, stream: int) -> np.ndarray:
    return np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)


def _counter(t: int) -> np.ndarray:
    return np.array([int(t) & _MASK64, 0, 0, 0], dtype=np.uint64)


def stream_rng(seed: int, stream: int, t: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream, counter) address."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream), counter=_counter(t)))

