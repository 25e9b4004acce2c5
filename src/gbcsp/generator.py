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
scope position is the most significant digit.  The draw order is one
constraint after another from one ``Stream``, each taking its k scope draws
and then its q Floyd draws; ``tests/reference.py`` holds the scalar
one-constraint-at-a-time draw that the tests hold this module to.

``sample_batch`` makes the same draws for many trials at once, each from
its own stream, and ``sample_instance`` is a batch of one.  A
``randbelow(b)`` call with 1 < b <= 2**64 takes words until one is at most
b's fixed limit, and b = 1 takes none, so without rejections every
constraint uses the same w words at fixed offsets, and SplitMix64 being
counter-based, row j of every trial is one ``rng.words_at`` expression over
the stream states.  A rejected word is dropped, which moves every later word
of its stream one offset on.  Only words above the lowest limit can be
rejected, so only a stream that holds one is walked in order, from the row
it first appears in, with ``Stream.next_block``.  Fisher-Yates then runs as
k vector steps and Floyd as q vector steps over all rows of a block, and
each row's sorted ranks are decoded once into the forbidden tuples of
``model.Instance``; each instance's arrays are a slice of the batch's.  The
result is the scalar draw exactly.  Blocks hold at most ``BLOCK_ROWS``
rows, trial after trial; ``constraint_blocks`` yields them for one stream.
The uint64 ranks need d**k <= 2**64 (the int64 scopes n <= 2**63); larger
parameters are refused, and so is a t whose arrays would pass
``MAX_INSTANCE_BYTES``.  ``batch_bytes`` charges one trial of a batch: its
arrays, its words and the draw's temporaries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .model import Instance, Params, check_array_range
from .rng import SeedSpec, Stream, words_at

# Rows per word block, which bounds the sampler's working memory.
BLOCK_ROWS = 1 << 16
# Most bytes of scope and tuple arrays (8 per entry, k * (q + 1) entries per
# constraint) one instance may take; sample_instance refuses more up front.
MAX_INSTANCE_BYTES = 1 << 28

_SPAN64 = 1 << 64


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


def _draw(params: Params, plan: _Plan, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The constraints whose accepted words are the rows of ``u`` as
    (scopes, incompatible)."""
    d, k, q = params.d, params.k, params.q
    rows = u.shape[0]
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
    # ascending ranks decode, most significant digit first, to tuples in
    # lexicographic order
    ranks.sort(axis=1)
    powers = np.array([d**e for e in range(k - 1, -1, -1)], dtype=np.uint64)
    return scopes, ranks[:, :, None] // powers % np.uint64(d)


def _blocks(params: Params, plan: _Plan, streams: list[Stream], count: int):
    """The next ``count`` constraints of each of ``streams``, stream after
    stream, as (scopes, incompatible) blocks of at most ``BLOCK_ROWS`` rows:
    whole streams' rows, or when count > BLOCK_ROWS part of one stream's;
    every stream is left where its draws leave it.  Row j of a stream takes
    its words j * width + 1, ... from one ``words_at`` over the block, until
    a row holds a word above the lowest limit: from that row on the stream's
    rows are walked in order by ``_accepted_words``."""
    width = plan.width
    states = np.array([stream.state for stream in streams], dtype=np.uint64)[:, None]
    if count > BLOCK_ROWS:
        pieces = [(i, i + 1, j, min(j + BLOCK_ROWS, count))
                  for i in range(len(streams)) for j in range(0, count, BLOCK_ROWS)]
    else:
        per = BLOCK_ROWS // max(count, 1)
        pieces = [(i, min(i + per, len(streams)), 0, count) for i in range(0, len(streams), per)]
    walked: set[int] = set()
    for a, b, lo, hi in pieces:
        rows = hi - lo  # of each stream in the block
        u = words_at(states[a:b], np.arange(lo * width + 1, hi * width + 1, dtype=np.uint64)).reshape(-1, width)
        # a walked stream goes on at its first row here, another from its
        # first row holding a word above the lowest limit
        first = {a: 0} if a in walked else {}
        for f in np.flatnonzero(u > plan.lowest).tolist():
            first.setdefault(a + f // width // rows, f // width)
        for i, r in first.items():
            if i not in walked:
                walked.add(i)
                streams[i].skip((lo + r % rows) * width)
            end = (i - a + 1) * rows
            u[r:end] = _accepted_words(plan, (end - r) * width, streams[i]).reshape(end - r, width)
        yield _draw(params, plan, u)
    for i, stream in enumerate(streams):
        if i not in walked:
            stream.skip(count * width)


def constraint_blocks(params: Params, count: int, stream: Stream) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The next ``count`` constraints of ``stream`` as (scopes, incompatible)
    blocks of at most ``BLOCK_ROWS`` rows, in the layout of
    ``model.Instance``: the same constraints, from the same words, as
    ``count`` scalar draws in the order of the module docstring, after
    which the stream stands where those draws would leave it."""
    check_array_range(params)
    return _blocks(params, _plan(params.n, params.d, params.k, params.q), [stream], count)


def check_instance_size(params: Params) -> int:
    """Refuse a t whose scope and tuple arrays pass ``MAX_INSTANCE_BYTES``;
    return their bytes otherwise."""
    size = params.t * params.k * (params.q + 1) * 8
    if size > MAX_INSTANCE_BYTES:
        raise ValueError(f"t={params.t} needs {size} bytes of scope and tuple arrays, "
                         f"over the budget of {MAX_INSTANCE_BYTES}")
    return size


def batch_bytes(params: Params) -> int:
    """Bytes one instance of a batch takes at the draw's peak: its scope and
    tuple arrays, 48 bytes for each word and tuple entry of its constraints,
    t * (k + q + k * q), for the words and the draw's temporaries (at most
    36 measured with tracemalloc), and 1 KiB for its seed, stream and
    instance objects."""
    t, k, q = params.t, params.k, params.q
    return check_instance_size(params) + 48 * t * (k + q + k * q) + 1024


def sample_batch(params: Params, seeds: list[SeedSpec], label: str = "instance") -> list[Instance]:
    """One instance per seed, each the one ``sample_instance`` draws, from
    one pass over all their constraints."""
    check_instance_size(params)
    check_array_range(params)
    t, k, q = params.t, params.k, params.q
    streams = [seed.stream(label) for seed in seeds]
    blocks = list(_blocks(params, _plan(params.n, params.d, k, q), streams, t))
    if len(blocks) == 1:
        scopes, incompatible = blocks[0]
    else:  # t = 0, or more than BLOCK_ROWS rows
        scopes = np.concatenate([np.empty((0, k), np.int64)] + [s for s, _ in blocks])
        incompatible = np.concatenate([np.empty((0, q, k), np.uint64)] + [x for _, x in blocks])
    return [Instance._from_arrays(params, scopes[i * t : i * t + t], incompatible[i * t : i * t + t])
            for i in range(len(seeds))]


def sample_instance(params: Params, seed: SeedSpec, label: str = "instance") -> Instance:
    """Draw one instance; fully determined by (params, seed, label).  It is
    a batch of one."""
    return sample_batch(params, [seed], label)[0]
