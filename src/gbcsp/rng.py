"""Deterministic random streams for reproducible sampling.

Every random draw in this package comes from a SplitMix64 sequence whose
initial state is derived through SHA-256, so a run is bit-identical across
platforms, Python versions, and process boundaries.  A stream is addressed
by ``(master_seed, stream_index, label)``: the initial state is the first
8 bytes (big-endian) of ``SHA-256(master_seed_be8 || stream_index_be8 ||
label_utf8)``.  Distinct labels give decorrelated sub-streams of the same
trial (e.g. instance draws vs. solver randomness).

Bounded integers are drawn by rejection sampling on whole 64-bit words,
which is exactly uniform for any bound up to 2**64; larger bounds are
refused (no caller needs one: ranks and variable indices are 64-bit).
``below`` holds the rule for any source of words: ``Stream.randbelow``
feeds it one ``next_u64`` at a time, the unit-constraint heuristic blocks
of ``next_block``.

SplitMix64 is counter-based: its state advances by the odd constant GAMMA
on every word, so word j after state s0 is ``mix(s0 + (j+1)*GAMMA mod
2**64)`` and a whole block of words can be computed at once, of one stream
(``Stream.next_block``) or of many streams side by side (``words_at``).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

_SPAN64 = 1 << 64
_MASK64 = _SPAN64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
# next_block's constants as numpy scalars, made once rather than per call
_GAMMA_U, _MULT1_U, _MULT2_U = np.uint64(_GAMMA), np.uint64(_MULT1), np.uint64(_MULT2)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


class Stream:
    """SplitMix64 output sequence; one instance per independent draw stream."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        z = self._state = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MULT1) & _MASK64
        z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
        return z ^ (z >> 31)

    @property
    def state(self) -> int:
        return self._state

    def skip(self, count: int) -> None:
        """Move past the next ``count`` words without computing them."""
        self._state = (self._state + count * _GAMMA) & _MASK64

    def next_block(self, count: int) -> np.ndarray:
        """The next ``count`` words as a uint64 array, equal to ``count``
        calls of next_u64."""
        z = words_at(np.uint64(self._state), np.arange(1, count + 1, dtype=np.uint64))
        self.skip(count)
        return z

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound); unbiased for 0 < bound <= 2**64."""
        return below(bound, iter(self.next_u64, None))


def words_at(states, counters: np.ndarray) -> np.ndarray:
    """Word ``counters`` (1 for the next word) of the streams whose states
    are ``states``: mix(state + counter * GAMMA), where uint64 arithmetic
    wraps exactly like the mask.  Both are uint64 arrays, broadcast
    together."""
    z = states + counters * _GAMMA_U
    z ^= z >> _S30
    z *= _MULT1_U
    z ^= z >> _S27
    z *= _MULT2_U
    z ^= z >> _S31
    return z


def below(bound: int, words: Iterator[int]) -> int:
    """Uniform integer in [0, bound) from the 64-bit words of ``words``:
    the first word under the largest multiple of bound <= 2**64, mod bound.
    A bound of 1 takes no word, and a bound outside [1, 2**64] is refused
    before one is taken."""
    if 1 < bound <= _SPAN64:
        limit = _SPAN64 - _SPAN64 % bound
        for u in words:
            if u < limit:
                return u % bound
        raise ValueError("the word source ran out")
    if bound == 1:
        return 0
    raise ValueError(f"bound must be in [1, 2**64], got {bound}")


@dataclass(frozen=True)
class SeedSpec:
    """Addresses all randomness of one trial.

    The pair (master_seed, stream_index) pins every draw of the trial;
    trials with distinct stream indices are independent, so sweeps can run
    in any order (or in parallel) without correlating results.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if not 0 <= self.stream_index < 1 << 64:
            raise ValueError("stream_index must be a non-negative 64-bit integer")

    def stream(self, label: str = "") -> Stream:
        raw = (
            self.master_seed.to_bytes(8, "big")
            + self.stream_index.to_bytes(8, "big")
            + label.encode("utf-8")
        )
        return Stream(int.from_bytes(hashlib.sha256(raw).digest()[:8], "big"))
