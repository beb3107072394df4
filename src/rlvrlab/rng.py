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


class StreamCursor:
    """One reusable generator for every counter of a (seed, stream) pair.

    at(t) returns the generator moved to counter t with empty output
    buffers, so its draws equal those of a fresh stream_rng(seed, stream, t).
    Building a Philox generator costs several times more than resetting the
    state of an existing one, which matters when every iteration of a loop
    draws from its own counter.  The first call builds the generator at its
    counter, so a cursor used once costs about what stream_rng does.  The
    returned generator is the same object on every call; draw from it before
    moving the cursor again.
    """

    def __init__(self, seed: int, stream: int):
        self._key = _key(seed, stream)
        self._bitgen = None
        self._start = None

    def at(self, t: int) -> np.random.Generator:
        counter = _counter(t)
        if self._bitgen is None:
            self._bitgen = np.random.Philox(key=self._key, counter=counter)
            self._generator = np.random.Generator(self._bitgen)
            return self._generator
        if self._start is None:
            # the state of a generator that has not drawn: empty buffers
            self._start = np.random.Philox(key=self._key).state
        self._start["state"]["counter"] = counter
        self._bitgen.state = self._start
        return self._generator
