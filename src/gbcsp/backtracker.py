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
and a count-only solve refuses no size.  Counts are Python ints and
therefore exact at any size.

Each prefix is W words of b = ceil(log2 d) bits per variable.  A word
holds WORD_BITS // b whole fields, variables in order, its last variable at
shift 0; as no field straddles two words, assigning a variable ORs one
pre-shifted value into one word and a mask reads any field from one word.
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
rows the children have.  A check at depth i is those values and a (word,
mask, patterns) part per parent word it tests, at most min(k, W): a parent
rules out its child with values[j] iff ``word & mask`` equals patterns[j] in
every part.  The part in variable i's word, without field i, is dropped
when nothing is left in it.

A constraint with sorted scope v_0 < ... < v_{k-1} is checked at depth v_j
when d**(k-1-j) <= q: a prefix violates it there iff all d**(k-1-j)
completions of its values on v_0..v_j are forbidden.  A strict instance
(q < d) thus has one check per constraint, at v_{k-1}.  ``_tables`` builds
every check from the scope and tuple arrays in one numpy pass.
``_check_at_depth``, which no solve calls, is the reference the tests hold
``_tables`` to (``model.is_violated``, the oracle's predicate, shares code
with neither).  No check tests the empty prefix, which is inconsistent only
when t >= 1 and q = d**k.

``collect=True`` must hold every solution, so it refuses once the collected
count passes ``MAX_COLLECTED_SOLUTIONS``, before the solutions are
concatenated, sorted and decoded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import Instance, Params

# Prefixes the depth-first driver extends in one kernel call.  At most
# n * d * BLOCK_ROWS prefixes of W words of 4 or 8 bytes are live (a block
# of one int32 word is 128 KiB); smaller blocks cost more calls, larger ones
# more memory and cache misses.
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


def _check_at_depth(scope, tuples, d: int, last_var: int):
    """Blocking subcodes for rows right after ``last_var`` is assigned, for
    the constraint on ``scope`` forbidding the distinct value tuples ``tuples``.

    Returns (cols, weights, blocked) where a row is violated iff its
    weighted code over cols equals one of blocked, or None when no partial
    assignment at this depth can violate the constraint.
    """
    fixed_positions = [j for j, v in enumerate(scope) if v <= last_var]
    free = len(scope) - len(fixed_positions)
    cover = d**free
    counts: dict[int, int] = {}
    for tup in tuples:
        code = 0
        for w, j in enumerate(fixed_positions):
            code += tup[j] * d**w
        counts[code] = counts.get(code, 0) + 1
    blocked = sorted(c for c, m in counts.items() if m == cover)
    if not blocked:
        return None
    cols = [scope[j] for j in fixed_positions]
    weights = [d**w for w in range(len(cols))]
    return cols, weights, blocked


def _checks_at(inst: Instance) -> list[list]:
    """``_check_at_depth`` checks grouped by the depth of each scope variable."""
    params = inst.params
    checks_at: list[list] = [[] for _ in range(params.n)]
    for scope, rows in zip(inst.scopes.tolist(), inst.incompatible.tolist()):
        for v in scope:
            chk = _check_at_depth(scope, rows, params.d, v)
            if chk is not None:
                checks_at[v].append(chk)
    return checks_at


@functools.lru_cache(maxsize=256)
def _layout(n: int, d: int, word_bits: int):
    """Word and shift of every variable: b = ceil(log2 d) bits per field,
    word_bits // b whole fields per word, each word ending with its last
    variable at shift 0."""
    b = (d - 1).bit_length()
    per = word_bits // b
    word = np.arange(n) // per
    shift = (np.minimum(word * per + per - 1, n - 1) - np.arange(n)) * b
    word.flags.writeable = shift.flags.writeable = False
    return word, shift


def _tables(inst: Instance, word_of: np.ndarray, shift_of: np.ndarray) -> list[list]:
    """Checks grouped by depth, each (values, parts) with (word, mask,
    patterns) parts over the parent's words, built from the scope and tuple
    arrays in one numpy pass."""
    params = inst.params
    n, d, k, q = params.n, params.d, params.k, params.q
    scopes, digits = inst.scopes, inst.incompatible
    ordered = np.sort(scopes, axis=1)
    word, shift = word_of[ordered], shift_of[scopes]
    # fields[c, p]: constraint c's forbidden tuples at scope position p, each
    # in its field, and last the field's mask
    field = (1 << (d - 1).bit_length()) - 1
    fields = np.concatenate([digits.astype(np.int64).transpose(0, 2, 1),
                             np.full((len(scopes), k, 1), field)], axis=2)
    # Part i of a check holds the scope positions p whose variable is in
    # the word of sorted position i and not after it.  Fields in one word
    # occupy disjoint bits, so summing them ORs them.
    inword = (word_of[scopes][:, None, :] == word[:, :, None]) & (scopes[:, None, :] <= ordered[:, :, None])
    parts = inword @ (fields << shift[:, :, None])
    patterns, masks = parts[:, :, :q], parts[:, :, q]
    spans = np.flatnonzero(word[:, 0] != word[:, -1])
    if q >= d:
        # The rank in sorted-scope order does not depend on the layout, and
        # rank // d**(k-1-j) projects it on sorted positions 0..j.  A field's
        # digit weighs d**(number of scope variables after it).
        after = (scopes[:, None, :] > scopes[:, :, None]).sum(axis=2).astype(np.uint64)
        rank = (digits * np.uint64(d) ** after[:, None, :]).sum(axis=2)
        by_rank, rank = np.argsort(rank, axis=1), np.sort(rank, axis=1)
    tables: list[list] = [[] for _ in range(n)]
    for j in range(k):
        run = d ** (k - 1 - j)
        if run > q:
            continue
        # Sorted position j's own field: its values, and the parent part
        # (patterns and last the mask) that is part j less that field.
        at = shift_of[ordered[:, j]][:, None]
        own, parent = parts[:, j, :q] >> at & field, parts[:, j] & ~(field << at)
        # picks[c]: constraint c's tuples whose patterns block at position j
        if run == 1:  # the last scope variable: every forbidden tuple blocks
            picks = [slice(None)] * len(scopes)
            vals, pats = own.tolist(), parent[:, :q].tolist()
        else:
            # Sorted projections: a window of ``run`` equal values is a full
            # run, since no projection has more than ``run`` completions.
            proj = rank // np.uint64(run)
            starts = proj[:, : q - run + 1] == proj[:, run - 1 :]
            picks = [[s for s, start in zip(row, run_starts) if start]
                     for row, run_starts in zip(by_rank[:, : q - run + 1].tolist(), starts.tolist())]
            vals, pats = ([[row[s] for s in pick] for row, pick in zip(a.tolist(), picks)]
                          for a in (own, parent[:, :q]))
        checks = [((w, m, p),) if m else ()
                  for w, m, p in zip(word[:, j].tolist(), parent[:, q].tolist(), pats)]
        # a check spanning words has a part for each earlier word too, at
        # that word's last sorted position
        for c in spans:
            if vals[c] and word[c, 0] != word[c, j]:
                ends = np.flatnonzero(word[c, :j] != word[c, 1 : j + 1]).tolist()
                checks[c] = tuple((int(word[c, i]), int(masks[c, i]), patterns[c, i, picks[c]].tolist())
                                  for i in ends) + checks[c]
        for v, value, check in zip(ordered[:, j].tolist(), vals, checks):
            if value:
                tables[v].append((value, check))
    return tables


def _depth_first(params: Params, word: list[int], values: np.ndarray, slot: list[int], tables,
                 collect: bool):
    """Walk the consistent tree depth first in blocks of at most BLOCK_ROWS
    prefixes from the empty prefix.  A block at depth i, a list of word
    arrays, is checked against ``tables[i]``, which marks in ``killed`` the
    children each parent row rules out, value v in row ``slot[v]``.  The
    rest are built value-major, each of ``values[i]`` ORed into variable
    i's word ``word[i]``; at the last depth a count-only walk just counts them.
    Every word array has the dtype of ``values``.

    Returns (nodes, level_counts, blocks of solutions); the blocks are
    empty unless ``collect``.
    """
    n, d = params.n, params.d
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
        checks = tables[depth]
        killed = np.zeros((d, size), dtype=bool)
        for vals, parts in checks:
            keys = [parent[w] & mask for w, mask, _ in parts]
            if len(keys) == 1:  # the usual check, within variable i's word
                for v, p in zip(vals, parts[0][2]):
                    killed[slot[v]] |= keys[0] == p
                continue
            for v, *pats in zip(vals, *(p for _, _, p in parts)):
                hit = True
                for key, p in zip(keys, pats):
                    hit = hit & (key == p)
                killed[slot[v]] |= hit
        if depth + 1 == n and not collect:
            level_counts[n] += d * size - int(np.count_nonzero(killed))
            continue
        w = word[depth]
        # a variable that opens a new word is ORed into a zero word
        own = parent[w] if w < len(parent) else np.zeros(size, dtype=values.dtype)
        nxt = [np.broadcast_to(x, (d, size)) for x in parent[:w]] + [own | values[depth][:, None]]
        if checks:
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
    more than ``MAX_COLLECTED_SOLUTIONS`` solutions are found.
    """
    n, d = inst.params.n, inst.params.d
    order = list(range(d)) if value_order is None else list(value_order)
    if sorted(order) != list(range(d)):
        raise ValueError("value_order must be a permutation of range(d)")
    word_of, shift_of = _layout(n, d, WORD_BITS)
    b = (d - 1).bit_length()
    dtype = np.int32 if min(n, WORD_BITS // b) * b <= 31 else np.int64
    # values[i]: each value of variable i, in visit order, in its field
    values = (np.asarray(order) << shift_of[:, None]).astype(dtype)
    slot = np.argsort(order).tolist()
    tables = _tables(inst, word_of, shift_of)
    word = word_of.tolist()
    nodes, level_counts, found = _depth_first(inst.params, word, values, slot, tables, collect)
    solutions = None
    if collect:
        # Word-major order is lexicographic order: sort on word 0 first.
        words = [np.concatenate(w) for w in zip(*found)] if found else [np.zeros(0, dtype)] * (word[-1] + 1)
        codes = np.stack(words, axis=1)[np.lexsort(words[::-1])]
        fields = (codes[:, word_of] >> shift_of) & ((1 << b) - 1)
        solutions = tuple(tuple(row) for row in fields.tolist())
    return SearchStats(
        nodes=nodes,
        solution_count=level_counts[-1],
        level_counts=tuple(level_counts),
        solutions=solutions,
    )
