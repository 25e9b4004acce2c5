"""Model GB instance sampling.

Each of the t constraints is drawn independently: first a scope of k
distinct variables (uniform over k-subsets, selection without repetition),
then exactly q forbidden value tuples (uniform over q-subsets of the d**k
tuples, selection without repetition).  Constraints may repeat across the
list and are never deduplicated.

The scope comes from a sparse prefix Fisher-Yates shuffle: step j draws
``pick = j + randbelow(n - j)``, takes the value at position pick and moves
the value at position j there.  The forbidden set comes from Floyd's
subset sampling over tuple ranks in [0, d**k): step s, with
``j = d**k - q + s``, draws ``pick = randbelow(j + 1)`` and takes j instead
if pick was already chosen.  Ranks decode big-endian base d, so the first
scope position is the most significant digit.  The scalar functions below
(``sample_scope``, ``sample_incompatible``, ``sample_constraint``) draw one
constraint at a time from a ``Stream``; they define the draw order.

``constraint_blocks`` makes the same draws for many constraints at once.
A ``randbelow(b)`` call with 1 < b <= 2**64 takes words until one is at
most b's fixed limit, and b = 1 takes none, so without rejections every
constraint uses the same w words at fixed offsets.  A block of rows takes
its words from one ``Stream.next_block``; a rejected word is dropped,
which moves every later word one offset on, and as many words as were
dropped are drawn after the block.  Only words above the lowest limit can
be rejected, so only those are walked in order.  Fisher-Yates then runs as
k vector steps and Floyd as q vector steps over all rows of the block
(instances are held as arrays; see ``model.Instance``).  The result is the
scalar draw exactly.  Blocks hold at most ``BLOCK_ROWS`` rows.  The arrays
need d**k <= 2**64 (and n <= 2**63); larger parameters are refused.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .model import ConstraintSpec, Instance, Params, check_array_range
from .rng import SeedSpec, Stream

# Rows per word block, which bounds the sampler's working memory.
BLOCK_ROWS = 1 << 16

_SPAN64 = 1 << 64


def sample_scope(n: int, k: int, stream: Stream) -> tuple[int, ...]:
    """k distinct variable indices in [0, n); order is the draw order."""
    swap: dict[int, int] = {}
    out = []
    for j in range(k):
        pick = j + stream.randbelow(n - j)
        out.append(swap.get(pick, pick))
        swap[pick] = swap.get(j, j)
    return tuple(out)


def _rank_to_tuple(rank: int, d: int, k: int) -> tuple[int, ...]:
    digits = []
    for _ in range(k):
        rank, a = divmod(rank, d)
        digits.append(a)
    digits.reverse()
    return tuple(digits)


def sample_incompatible(d: int, k: int, q: int, stream: Stream) -> frozenset[tuple[int, ...]]:
    """Uniform q-subset of the d**k value tuples (Floyd's algorithm)."""
    space = d**k
    if not 1 <= q <= space:
        raise ValueError(f"q={q} outside [1, d^k={space}]")
    chosen: set[int] = set()
    for j in range(space - q, space):
        pick = stream.randbelow(j + 1)
        chosen.add(j if pick in chosen else pick)
    return frozenset([_rank_to_tuple(rank, d, k) for rank in chosen])


def sample_constraint(params: Params, stream: Stream) -> ConstraintSpec:
    scope = sample_scope(params.n, params.k, stream)
    incompatible = sample_incompatible(params.d, params.k, params.q, stream)
    return ConstraintSpec(scope, incompatible)


class _Plan(NamedTuple):
    """Word layout of one constraint."""

    width: int  # words per constraint when none is rejected
    drawn: list[int] | None  # offsets (of k + q) that take a word; None if all do
    mods: np.ndarray  # each word's bound, with 2**64 stored as 1
    whole: int | None  # word whose bound is 2**64, used as drawn
    limits: list[int]  # each word's largest accepted value
    lowest: np.uint64  # the smallest limit


@lru_cache(maxsize=64)
def _plan(n: int, d: int, k: int, q: int) -> _Plan:
    space = d**k
    bounds = [n - j for j in range(k)] + [space - q + 1 + s for s in range(q)]
    drawn = [i for i, b in enumerate(bounds) if b > 1]
    used = [bounds[i] for i in drawn]
    limits = [_SPAN64 - 1 - _SPAN64 % b for b in used]
    return _Plan(
        width=len(used),
        drawn=None if len(used) == k + q else drawn,
        mods=np.array([b if b < _SPAN64 else 1 for b in used], dtype=np.uint64),
        whole=used.index(_SPAN64) if _SPAN64 in used else None,
        limits=limits,
        lowest=np.uint64(min(limits)),
    )


def _accepted_words(plan: _Plan, count: int, stream: Stream) -> np.ndarray:
    """The next ``count`` accepted words, the first at offset 0.  As in
    ``Stream.randbelow``, a rejected word is dropped and the next word serves
    the same draw, so each rejection moves every later word one offset on."""
    chunks, start, dropped = [], 0, 0
    while count:
        u = stream.next_block(count)
        # only words above the lowest limit can be rejected; walk them in order
        maybe = np.flatnonzero(u > plan.lowest)
        bad = []
        for i, word in zip(maybe.tolist(), u[maybe].tolist()):
            if word > plan.limits[(start + i - dropped - len(bad)) % plan.width]:
                bad.append(i)
        chunks.append(np.delete(u, bad) if bad else u)
        start, dropped, count = start + count, dropped + len(bad), len(bad)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _draw(params: Params, plan: _Plan, rows: int, stream: Stream) -> tuple[np.ndarray, np.ndarray]:
    """The next ``rows`` constraints of ``stream`` as (scopes, ranks)."""
    d, k, q = params.d, params.k, params.q
    u = _accepted_words(plan, rows * plan.width, stream).reshape(rows, plan.width)
    vals = u % plan.mods
    if plan.whole is not None:
        vals[:, plan.whole] = u[:, plan.whole]
    if plan.drawn is not None:  # a bound of 1 draws 0 and takes no word
        full = np.zeros((rows, k + q), dtype=np.uint64)
        full[:, plan.drawn] = vals
        vals = full

    # Fisher-Yates: picks[i] is the position step i wrote, held[i] the value
    # written there; a later write to the same position wins.
    draws = vals[:, :k].view(np.int64)  # each below n - j <= 2**63
    scopes = np.empty((rows, k), dtype=np.int64)
    picks, held = [], []
    for j in range(k):
        pick = draws[:, j] + j
        out = pick
        for p, h in zip(picks, held):
            out = np.where(p == pick, h, out)
        scopes[:, j] = out
        if j < k - 1:
            here = j
            for p, h in zip(picks, held):
                here = np.where(p == j, h, here)
            picks.append(pick)
            held.append(here)

    # Floyd: a pick already chosen in the row is replaced by j itself.
    ranks = vals[:, k:].copy()
    for s in range(1, q):
        pick = ranks[:, s]
        hit = (ranks[:, :s] == pick[:, None]).any(axis=1)
        ranks[:, s] = np.where(hit, np.uint64(d**k - q + s), pick)
    ranks.sort(axis=1)
    return scopes, ranks


def constraint_blocks(params: Params, count: int, stream: Stream) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The next ``count`` constraints of ``stream`` as (scopes, ranks) blocks
    of at most ``BLOCK_ROWS`` rows, in the layout of ``model.Instance``: the
    same constraints, from the same words, as ``count`` calls of
    ``sample_constraint``, after which the stream stands where those calls
    would leave it."""
    check_array_range(params)
    plan = _plan(params.n, params.d, params.k, params.q)
    for start in range(0, count, BLOCK_ROWS):
        yield _draw(params, plan, min(BLOCK_ROWS, count - start), stream)


def sample_instance(params: Params, seed: SeedSpec, label: str = "instance") -> Instance:
    """Draw one instance; fully determined by (params, seed, label)."""
    blocks = list(constraint_blocks(params, params.t, seed.stream(label)))
    if len(blocks) == 1:
        scopes, ranks = blocks[0]
    else:  # t = 0, or more than BLOCK_ROWS rows
        scopes = np.concatenate([np.empty((0, params.k), np.int64)] + [s for s, _ in blocks])
        ranks = np.concatenate([np.empty((0, params.q), np.uint64)] + [r for _, r in blocks])
    return Instance._from_arrays(params, scopes, ranks)
