"""Deterministic random streams for reproducible sampling.

Every random draw in this package comes from a SplitMix64 sequence whose
initial state is derived through SHA-256, so a run is bit-identical across
platforms, Python versions, and process boundaries.  A stream is addressed
by ``(master_seed, stream_index, label)``: the initial state is the first
8 bytes (big-endian) of ``SHA-256(master_seed_be8 || stream_index_be8 ||
label_utf8)``.  Distinct labels give decorrelated sub-streams of the same
trial (e.g. instance draws vs. solver randomness).

Bounded integers are drawn by rejection sampling on whole 64-bit words,
which is exactly uniform for any bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_SPAN64 = 1 << 64
_MASK64 = _SPAN64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


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

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound); unbiased for any positive bound."""
        if 1 < bound <= _SPAN64:
            # the general loop below with words == 1, minus its bookkeeping
            limit = _SPAN64 - _SPAN64 % bound
            u = self.next_u64()
            while u >= limit:
                u = self.next_u64()
            return u % bound
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        words = ((bound - 1).bit_length() + 63) // 64
        span = 1 << (64 * words)
        limit = span - span % bound  # largest multiple of bound <= span
        while True:
            u = 0
            for _ in range(words):
                u = (u << 64) | self.next_u64()
            if u < limit:
                return u % bound


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
