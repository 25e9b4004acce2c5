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
``BLOCK_ROWS`` prefixes (or fewer) of the top frame, extends them by one
variable, filters them, adds the survivors to c_{depth+1} and pushes them as
a new frame.  The observable outputs (node count, level profile, solution
set) are those of the one-prefix-at-a-time traversal, and are cross-checked
against a naive re-check-everything oracle in the test suite.  A frame holds
at most d * BLOCK_ROWS prefixes, so at most n * d * BLOCK_ROWS prefixes are
live however wide the widest level is, and a count-only solve refuses no
size.  Counts are Python ints and therefore exact at any size.

Each prefix is one int64 code with b = ceil(log2 d) bits per variable, and
variable v sits at bits (n-1-v)*b at every depth, so extending depth-i
prefixes is ``code | values[i]`` (each value pre-shifted into variable i's
field) and code order is lexicographic order.  A check is a (mask, patterns)
pair: a prefix violates it iff ``code & mask`` equals one of the patterns,
one mask-compare for every d.

A constraint with sorted scope v_0 < ... < v_{k-1} is checked at depth v_j
when d**(k-1-j) <= q: a prefix violates it there iff all d**(k-1-j)
completions of its values on v_0..v_j are forbidden.  A strict instance
(q < d) thus has one check per constraint, at v_{k-1}.  ``_tables`` builds
every packed check from the scope and rank arrays in one numpy pass; the
matrix layout's checks come from ``_check_at_depth``, the reference the
tests hold ``_tables`` to (``model.is_violated``, the oracle's predicate,
shares code with neither).  No check tests the empty prefix, which is
inconsistent only when t >= 1 and q = d**k.

When n * b > 63 the codes do not fit, and the same driver extends (rows,
depth) matrices of values instead, with weighted base-d codes per check.
That layout stays on purpose: dense instances get easy as r grows, so at
large n they are the tractable ones, and they sit in exactly that range.
Python-int codes on the packed kernel took 1.7-8.5 times as long there
(five instances each, best of three, 2-CPU host, numpy 2.4: n=64, d=2,
k=3, q=1 at r=10 and 20; n=40, d=3, k=2, q=2 at r=5 and 10).

``collect=True`` must hold every solution, so it refuses once the collected
count passes ``MAX_COLLECTED_SOLUTIONS``, before the solutions are
concatenated, sorted and decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Params, rank_tuples

# Prefixes the depth-first driver extends in one kernel call.  At most
# n * d * BLOCK_ROWS prefixes are live; smaller blocks cost more calls,
# larger ones more memory and cache misses.
BLOCK_ROWS = 2**14
# Most solutions collect=True will hold (512 MiB as packed int64 codes).
MAX_COLLECTED_SOLUTIONS = 2**26


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


def _codes(arr: np.ndarray, cols, weights) -> np.ndarray:
    code = arr[:, cols[0]].astype(np.int64)
    for c, w in zip(cols[1:], weights[1:]):
        code += arr[:, c].astype(np.int64) * w
    return code


def _match_any(code: np.ndarray, blocked) -> np.ndarray:
    if len(blocked) == 1:
        return code == blocked[0]
    if len(blocked) <= 8:
        bad = code == blocked[0]
        for b in blocked[1:]:
            bad |= code == b
        return bad
    return np.isin(code, np.asarray(blocked, dtype=np.int64))


def _field_bits(d: int) -> int:
    """Bits b per variable in a packed prefix code: values 0..d-1 fit in b bits."""
    return (d - 1).bit_length()


def _prepare(inst: Instance, value_order) -> list[int]:
    """The value order, after checking it and the tuple-code width."""
    params = inst.params
    if value_order is None:
        order = list(range(params.d))
    else:
        order = list(value_order)
        if sorted(order) != list(range(params.d)):
            raise ValueError("value_order must be a permutation of range(d)")
    if params.d**params.k > 2**62:
        raise ValueError("d**k too large for 64-bit tuple codes")
    return order


def _checks_at(inst: Instance) -> list[list]:
    """``_check_at_depth`` checks of the matrix layout, grouped by the depth
    of each scope variable."""
    params = inst.params
    checks_at: list[list] = [[] for _ in range(params.n)]
    tuples = rank_tuples(inst.ranks, params.d, params.k).tolist()
    for scope, rows in zip(inst.scopes.tolist(), tuples):
        for v in scope:
            chk = _check_at_depth(scope, rows, params.d, v)
            if chk is not None:
                checks_at[v].append(chk)
    return checks_at


def _tables(inst: Instance, b: int) -> list[list]:
    """Packed (mask, patterns) checks grouped by depth, built from the scope
    and rank arrays in one numpy pass."""
    params = inst.params
    n, d, k, q = params.n, params.d, params.k, params.q
    digits = rank_tuples(inst.ranks, d, k).astype(np.int64)
    full = np.bitwise_or.reduce(digits << ((n - 1 - inst.scopes) * b)[:, None, :], axis=2)
    ordered = np.sort(inst.scopes, axis=1)
    masks = np.bitwise_or.accumulate(((1 << b) - 1) << ((n - 1 - ordered) * b), axis=1)
    tables: list[list] = [[] for _ in range(n)]
    for j in range(k):
        run = d ** (k - 1 - j)
        if run > q:
            continue
        depths, mask = ordered[:, j].tolist(), masks[:, j]
        if run == 1:  # the last scope variable: every forbidden tuple blocks
            for v, m, pats in zip(depths, mask.tolist(), full.tolist()):
                tables[v].append((m, pats))
            continue
        # Sorted projections: a window of ``run`` equal values is a full run,
        # since no projection has more than ``run`` distinct completions.
        proj = np.sort(full & mask[:, None], axis=1)
        starts = proj[:, : q - run + 1]
        full_run = starts == proj[:, run - 1 :]
        for i in np.flatnonzero(full_run.any(axis=1)).tolist():
            tables[depths[i]].append((int(mask[i]), starts[i][full_run[i]].tolist()))
    return tables


def _depth_first(params: Params, root: np.ndarray, extend, collect: bool):
    """Walk the consistent tree depth first in blocks of at most BLOCK_ROWS
    prefixes from ``root``, the empty prefix; ``extend(block, depth)``
    returns the consistent one-variable extensions of a block of
    depth-``depth`` prefixes.

    Returns (nodes, level_counts, blocks of solutions); the blocks are
    empty unless ``collect``.
    """
    n, d = params.n, params.d
    # No check tests the empty prefix, which is inconsistent only when every
    # tuple is forbidden.
    if params.t and params.q == d**params.k:
        root = root[:0]
    level_counts = [0] * (n + 1)
    level_counts[0] = root.shape[0]
    stack = [(0, root, 0)] if root.shape[0] else []
    found: list[np.ndarray] = []
    collected = 0
    while stack:
        depth, rows, start = stack.pop()
        stop = start + BLOCK_ROWS
        if stop < rows.shape[0]:
            stack.append((depth, rows, stop))
        survivors = extend(rows[start:stop], depth)
        kept = survivors.shape[0]
        if not kept:
            continue
        level_counts[depth + 1] += kept
        if depth + 1 < n:
            stack.append((depth + 1, survivors, 0))
        elif collect:
            collected += kept
            if collected > MAX_COLLECTED_SOLUTIONS:
                raise ValueError(
                    f"at least {collected} solutions to collect, "
                    f"over the budget of {MAX_COLLECTED_SOLUTIONS}"
                )
            found.append(survivors)
    return 1 + d * sum(level_counts[:n]), level_counts, found


def _packed_sweep(inst: Instance, order, collect: bool):
    """Depth-first walk over one int64 code per prefix; needs n * b <= 63."""
    n = inst.params.n
    b = _field_bits(inst.params.d)
    # values[i]: each value of variable i, in visit order, in its field
    values = np.asarray(order, dtype=np.int64) << ((n - 1 - np.arange(n)) * b)[:, None]
    tables = _tables(inst, b)

    def extend(cur, i):
        nxt = (cur[:, None] | values[i]).ravel()
        bad = None
        for mask, patterns in tables[i]:
            hit = _match_any(nxt & mask, patterns)
            bad = hit if bad is None else np.logical_or(bad, hit, out=bad)
        return nxt if bad is None else nxt[~bad]

    root = np.zeros(1, dtype=np.int64)
    nodes, level_counts, found = _depth_first(inst.params, root, extend, collect)
    solutions = None
    if collect:
        # Variable 0 sits in the highest field, so code order is
        # lexicographic order.
        codes = np.sort(np.concatenate(found)) if found else np.zeros(0, np.int64)
        shifts = np.arange((n - 1) * b, -1, -b, dtype=np.int64)
        fields = (codes[:, None] >> shifts) & ((1 << b) - 1)
        solutions = tuple(tuple(row) for row in fields.tolist())
    return nodes, level_counts, solutions


def _matrix_sweep(inst: Instance, order, collect: bool):
    """Depth-first walk over (rows, depth) value matrices; the path for n * b > 63."""
    n, d = inst.params.n, inst.params.d
    order = np.asarray(order, dtype=np.min_scalar_type(d - 1))
    checks_at = _checks_at(inst)

    def extend(cur, i):
        rows = cur.shape[0]
        nxt = np.empty((rows * d, i + 1), dtype=order.dtype)
        if i:
            nxt[:, :i] = np.repeat(cur, d, axis=0)
        nxt[:, i] = np.tile(order, rows)
        keep = None
        for cols, weights, blocked in checks_at[i]:
            bad = _match_any(_codes(nxt, cols, weights), blocked)
            keep = ~bad if keep is None else np.logical_and(keep, ~bad, out=keep)
        return nxt if keep is None else nxt[keep]

    root = np.zeros((1, 0), dtype=order.dtype)
    nodes, level_counts, found = _depth_first(inst.params, root, extend, collect)
    solutions = None
    if collect:
        solutions = tuple(sorted(tuple(row) for block in found for row in block.tolist()))
    return nodes, level_counts, solutions


def solve_all(inst: Instance, collect: bool = False, value_order=None) -> SearchStats:
    """Enumerate all solutions and count search-tree nodes exactly.

    ``value_order`` (a permutation of range(d)) only affects visit order,
    never the counts; collected solutions are always reported in
    lexicographic order.  A count-only solve holds at most
    n * d * ``BLOCK_ROWS`` prefixes; ``collect=True`` raises ValueError once
    more than ``MAX_COLLECTED_SOLUTIONS`` solutions are found.
    """
    n, d = inst.params.n, inst.params.d
    order = _prepare(inst, value_order)
    # Packed codes are signed int64, so they hold at most 63 bits of fields.
    sweep = _packed_sweep if n * _field_bits(d) <= 63 else _matrix_sweep
    nodes, level_counts, solutions = sweep(inst, order, collect)
    return SearchStats(
        nodes=nodes,
        solution_count=level_counts[-1],
        level_counts=tuple(level_counts),
        solutions=solutions,
    )
