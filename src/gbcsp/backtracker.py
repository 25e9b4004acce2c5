"""All-solutions chronological backtracking with exact node accounting.

The modelled search assigns variables 0..n-1 in a fixed order and values in
a fixed order, checks consistency of every partial assignment it creates,
and enumerates the entire consistent tree.  Every variable-value
instantiation is one search-tree node, plus the root, so

    nodes = 1 + sum_{i=0}^{n-1} d * c_i,

where c_i is the number of consistent depth-i prefixes.  Because the full
consistent tree is enumerated, that count does not depend on visit order.
The implementation walks the tree depth first over numpy blocks of
prefixes rather than one prefix at a time.  A stack holds one frame per
depth, (depth, prefixes, next offset); the driver takes the next
``BLOCK_ROWS`` prefixes (or fewer) of the top frame, tests the next
variable's checks on them, builds the surviving children value-major (all
with the first value in visit order, then the next), adds them to
c_{depth+1} and pushes them as a new frame; at the last depth a count-only
solve counts them and builds nothing.  The observable outputs (node count,
level profile, solution set) are those of the one-prefix-at-a-time
traversal, and are cross-checked against a naive re-check-everything oracle
in the test suite.  A frame holds at most d * BLOCK_ROWS prefixes, so at
most n * d * BLOCK_ROWS prefixes are live however wide the widest level is,
and a count-only solve refuses no tree size.  Counts are Python ints and
therefore exact at any size.

Each prefix is W words of b = ceil(log2 d) bits per variable.  A word
holds per = WORD_BITS // b whole fields, variables in order, its last
variable at shift 0, so ``_layout`` is arithmetic on (n, d) with no cache and
a solve builds each variable's word, v // per, and shift once.  As no field
straddles two words, assigning a variable ORs one pre-shifted value into one
word and a mask reads any field from one word.
Word-major order is lexicographic order, and when n * b <= WORD_BITS the one
word holds variable v at bits (n-1-v)*b.  Words are int32 when the widest
word's fields take at most 31 bits, min(n, WORD_BITS // b) * b <= 31, and
int64 otherwise, so the live prefixes take at most n * d * BLOCK_ROWS * W
words of 4 or 8 bytes.  A block of prefixes is a list of arrays, one per
word begun so far.  Any d the instance arrays allow fits, since d**k <= 2**64
with k >= 2 gives b <= 32.

Every check at depth i includes variable i's field, so each forbidden
pattern splits into a value v of variable i and a parent pattern that rules
out the child with value v of each parent it matches, tested on 1/d of the
rows the children have.  A solve's checks are rows of two R x W arrays in
the word dtype, ``masks`` and ``patterns``, one row per (check, blocking
tuple) and one column per prefix word: a parent matches a row iff ``word &
mask`` equals the pattern in every word, and a word the check does not test
has mask 0, so it always matches.  The rows are sorted by depth * d + value,
and ``cuts[i*d+v]:cuts[i*d+v+1]`` are the rows at depth i that rule out
value v.  A block's rows are tested at most BLOCK_ROWS // size at a time,
so a test array never holds more than BLOCK_ROWS entries: besides the
rows, a count-only solve holds at most n * d * BLOCK_ROWS * W live words
plus one test array of at most BLOCK_ROWS entries.

A constraint with sorted scope v_0 < ... < v_{k-1} is checked at depth v_j
when d**(k-1-j) <= q: a prefix violates it there iff all d**(k-1-j)
completions of its values on v_0..v_j are forbidden.  A strict instance
(q < d) thus has one check per constraint, at v_{k-1}.  ``_tables`` ORs
each row's parent fields into ``masks`` and ``patterns`` in place, its only
arrays with a word axis; ``tests/reference.py`` holds the independent
per-tuple reference the tests hold it to (``model.is_violated``, the
oracle's predicate, shares code with neither).  No check tests the empty
prefix, which is inconsistent only when t >= 1 and q = d**k.

``collect=True`` must hold every solution, so it refuses once the collected
count passes ``MAX_COLLECTED_SOLUTIONS``, before the solutions are
concatenated, sorted and decoded.  Every solve, and ``harness.run_sweep``
for each grid point it would solve, refuses an instance whose check rows
(t * q of them when q < d) and per-variable state ((d + 1) * (s + 24) +
28 * d bytes a variable for words of s bytes) would together pass
``generator.MAX_INSTANCE_BYTES``.  ``check_solve_size`` works the charge out
from the parameters alone, so even at n = 10**12 the refusal allocates
nothing of size n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Params

# Prefixes the depth-first driver extends in one kernel call, and the most
# entries one check test array holds.  At most n * d * BLOCK_ROWS prefixes
# of W words of 4 or 8 bytes are live (a block of one int32 word is
# 128 KiB); smaller blocks cost more calls, larger ones more memory and
# cache misses.
BLOCK_ROWS = 2**15
# Most solutions collect=True will hold (256 MiB per int32 word of a prefix,
# 512 MiB per int64 word).
MAX_COLLECTED_SOLUTIONS = 2**26
# Bits of fields per prefix word, at most the 63 of a signed int64.  Tests
# narrow it to reach several words at sizes the brute-force oracle can check.
WORD_BITS = 63


@dataclass(frozen=True)
class SearchStats:
    """Exact search-tree accounting for one instance."""

    nodes: int
    solution_count: int
    level_counts: tuple[int, ...]
    solutions: tuple[tuple[int, ...], ...] | None = None


def _layout(n: int, d: int):
    """(b, per, W, dtype), worked out from (n, d) at call time: b = ceil(log2 d)
    bits per field, per = WORD_BITS // b whole fields per word, W = ceil(n /
    per) words, int32 when the widest word's fields take at most 31 bits and
    int64 otherwise."""
    b = (d - 1).bit_length()
    per = WORD_BITS // b
    return b, per, -(-n // per), np.int32 if min(n, per) * b <= 31 else np.int64


def _tables(inst: Instance, word: np.ndarray, shift: np.ndarray):
    """Every check row, built from the scope and tuple arrays and each
    variable's ``word`` and ``shift``: (cuts, masks, patterns), with the rows
    at depth i that rule out value v at ``cuts[i*d+v]:cuts[i*d+v+1]`` of the
    R x W arrays ``masks`` and ``patterns`` in the word dtype."""
    params = inst.params
    n, d, k, q = params.n, params.d, params.k, params.q
    b, _, words, dtype = _layout(n, d)
    by_var = np.argsort(inst.scopes, axis=1)
    rows = np.arange(len(by_var))[:, None]
    ordered = inst.scopes[rows, by_var]
    # digits[c, j, s]: tuple s of constraint c at sorted scope position j
    digits = inst.incompatible.transpose(0, 2, 1)[rows, by_var].astype(dtype)
    # blocks[c, j, s]: tuple s blocks the parents at sorted position j
    blocks = np.zeros(digits.shape, dtype=bool)
    blocks[:, k - 1] = True  # the last scope variable: every forbidden tuple blocks
    if q >= d:
        # A tuple's rank in sorted-scope order, and rank // d**(k-1-j) its
        # projection on sorted positions 0..j.  A window of d**(k-1-j) equal
        # projections is a full run, since no projection has more completions.
        rank = np.uint64(d) ** np.arange(k - 1, -1, -1, dtype=np.uint64) @ digits.astype(np.uint64)
        by_rank, rank = np.argsort(rank, axis=1), np.sort(rank, axis=1)
        for j in range(k - 1):
            run = d ** (k - 1 - j)
            if run <= q:
                proj = rank // np.uint64(run)
                blocks[rows, j, by_rank[:, : q - run + 1]] = proj[:, : q - run + 1] == proj[:, run - 1 :]
    # a row's key is depth * d + value; n * d sorts the non-blocking last
    keys = np.where(blocks, ordered[:, :, None] * d + digits, n * d).reshape(-1)
    order = np.argsort(keys, kind="stable")
    cuts = np.searchsorted(keys[order], np.arange(n * d + 1)).tolist()
    # row (c, j, s) ORs the fields of sorted scope positions 0..j-1 into their words
    c, j, s = np.unravel_index(order[: cuts[-1]], digits.shape)
    var = ordered[c, : k - 1]
    field = ((1 << b) - 1) << shift[var]
    digit = digits[c, : k - 1, s] << shift[var]
    if q >= d:  # zero the fields at and after a row's own position
        field, digit = (x * (np.arange(k - 1) < j[:, None]) for x in (field, digit))
    masks, patterns = np.zeros((2, len(c), words), dtype)
    at = word[var] + masks.shape[1] * np.arange(len(c))[:, None]
    np.bitwise_or.at(masks.reshape(-1), at, field)
    np.bitwise_or.at(patterns.reshape(-1), at, digit)
    return cuts, masks, patterns


def check_solve_size(params: Params) -> None:
    """Refuse, from the parameters alone and so allocating nothing of size n,
    a solve whose check rows and per-variable state together pass
    ``generator.MAX_INSTANCE_BYTES``.  A row is W words of ``masks`` and of
    ``patterns``, and a constraint has at most floor(q / d**m) rows at sorted
    scope position k-1-m, m < k.  The state, built before the first block,
    takes (d + 1) * (s + 24) + 28 * d bytes a variable for words of s bytes:
    s for each of its d ``values`` and its shift, 8 for its word, 16 for its
    level count and a copy of it, and 52 for each of its d ``cuts`` entries:
    a list slot, a 28-byte int (ints above 256 are not shared), and the two
    int64 arrays it is searched from or the two lists ``_depth_first`` zips
    with it."""
    from .generator import MAX_INSTANCE_BYTES

    n, d = params.n, params.d
    _, _, words, dtype = _layout(n, d)
    size = np.dtype(dtype).itemsize
    rows = params.t * sum(params.q // d**m for m in range(params.k)) * words * 2 * size
    state = n * ((d + 1) * (size + 24) + 28 * d)
    if rows + state > MAX_INSTANCE_BYTES:
        raise ValueError(f"t={params.t} needs {rows} bytes of check rows over W={words} prefix words "
                         f"and {state} bytes of per-variable state, over the budget of {MAX_INSTANCE_BYTES}")


def _depth_first(params: Params, per: int, values: np.ndarray, slot: list[int], tables,
                 collect: bool):
    """Walk the consistent tree depth first in blocks of at most BLOCK_ROWS
    prefixes from the empty prefix.  A block at depth i, a list of word
    arrays, is tested against the rows of ``tables`` = (cuts, masks,
    patterns) at depth i: a parent matches a row when ``word & mask`` equals
    the pattern in every word, and then its child with the row's value v is
    marked in ``killed`` row ``slot[v]``.  The rest are built value-major,
    each of ``values[i]`` ORed into variable i's word i // ``per``; at the
    last depth a count-only walk just counts them.  Every word array has
    the dtype of ``values``.

    Returns (nodes, level_counts, blocks of solutions); the blocks are
    empty unless ``collect``.
    """
    n, d = params.n, params.d
    cuts, masks, patterns = tables
    # row_slot[r]: the row of ``killed`` that check row r marks
    row_slot = [s for s, a, b in zip(slot * n, cuts, cuts[1:]) for _ in range(a, b)]
    # No check tests the empty prefix, which is inconsistent only when every
    # tuple is forbidden.
    root = 0 if params.t and params.q == d**params.k else 1
    level_counts = [root] + [0] * n
    stack = [(0, [np.zeros(1, dtype=values.dtype)], 0)] if root else []
    found: list[list[np.ndarray]] = []
    collected = 0
    while stack:
        depth, rows, start = stack.pop()
        stop = start + BLOCK_ROWS
        if stop < rows[0].shape[0]:
            stack.append((depth, rows, stop))
        parent = [x[start:stop] for x in rows]
        size = parent[0].shape[0]
        killed = np.zeros((d, size), dtype=bool)
        # The depth's rows are tested step at a time, so that a test array
        # of step rows by size parents holds at most BLOCK_ROWS entries.
        lo, hi = cuts[depth * d], cuts[depth * d + d]
        step = max(1, BLOCK_ROWS // size)
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            hit = (parent[0] & masks[a:b, :1]) == patterns[a:b, :1]
            for w in range(1, len(parent)):
                hit &= (parent[w] & masks[a:b, w : w + 1]) == patterns[a:b, w : w + 1]
            for v, row in zip(row_slot[a:b], hit):
                killed[v] |= row
        if depth + 1 == n and not collect:
            level_counts[n] += d * size - int(np.count_nonzero(killed))
            continue
        w = depth // per
        # a variable that opens a new word is ORed into a zero word
        own = parent[w] if w < len(parent) else np.zeros(size, dtype=values.dtype)
        nxt = [np.broadcast_to(x, (d, size)) for x in parent[:w]] + [own | values[depth][:, None]]
        if lo < hi:
            keep = ~killed
            nxt = [x[keep] for x in nxt]
        else:
            nxt = [x.reshape(-1) for x in nxt]
        kept = nxt[0].shape[0]
        if not kept:
            continue
        level_counts[depth + 1] += kept
        if depth + 1 < n:
            stack.append((depth + 1, nxt, 0))
        else:
            collected += kept
            if collected > MAX_COLLECTED_SOLUTIONS:
                raise ValueError(
                    f"at least {collected} solutions to collect, "
                    f"over the budget of {MAX_COLLECTED_SOLUTIONS}"
                )
            found.append(nxt)
    return 1 + d * sum(level_counts[:n]), level_counts, found


def solve_all(inst: Instance, collect: bool = False, value_order=None) -> SearchStats:
    """Enumerate all solutions and count search-tree nodes exactly.

    ``value_order`` (a permutation of range(d)) only affects visit order,
    never the counts; collected solutions are always reported in
    lexicographic order.  A count-only solve holds at most
    n * d * ``BLOCK_ROWS`` prefixes; ``collect=True`` raises ValueError once
    more than ``MAX_COLLECTED_SOLUTIONS`` solutions are found, and any solve
    raises it up front for check rows over ``generator.MAX_INSTANCE_BYTES``.
    """
    n, d = inst.params.n, inst.params.d
    order = list(range(d)) if value_order is None else list(value_order)
    if sorted(order) != list(range(d)):
        raise ValueError("value_order must be a permutation of range(d)")
    check_solve_size(inst.params)
    b, per, words, dtype = _layout(n, d)
    word = np.arange(n) // per
    shift = ((np.minimum(word * per + per - 1, n - 1) - np.arange(n)) * b).astype(dtype)
    # values[i]: each value of variable i, in visit order, in its field
    values = (np.asarray(order) << shift[:, None]).astype(dtype)
    slot = np.argsort(order).tolist()
    tables = _tables(inst, word, shift)
    nodes, level_counts, found = _depth_first(inst.params, per, values, slot, tables, collect)
    solutions = None
    if collect:
        # Word-major order is lexicographic order: sort on word 0 first.
        cols = [np.concatenate(w) for w in zip(*found)] if found else [np.zeros(0, dtype)] * words
        codes = np.stack(cols, axis=1)[np.lexsort(cols[::-1])]
        fields = (codes[:, word] >> shift) & ((1 << b) - 1)
        solutions = tuple(tuple(row) for row in fields.tolist())
    return SearchStats(
        nodes=nodes,
        solution_count=level_counts[-1],
        level_counts=tuple(level_counts),
        solutions=solutions,
    )
