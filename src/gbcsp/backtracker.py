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

Each prefix is one int64 code with b = ceil(log2 d) bits per variable, the
most recently assigned variable in the lowest field.  Extending a block is
``(code << b) | value``, and each check is a (mask, patterns) pair: a prefix
violates it iff ``code & mask`` equals one of the patterns.  Bit fields
rather than base-d digits make that one mask-compare for every d.  When
n * b > 63 the codes do not fit, and the same driver extends (rows, depth)
matrices of values instead, with weighted base-d codes per check.

For strict instances (q < d) a constraint can only fail once its scope is
fully assigned, so each constraint is checked exactly at the depth that
completes it; the packed layout builds those checks straight from the
instance's scope and rank arrays.  Non-strict instances check a constraint
at every depth that touches it, counting how many of its forbidden tuples
agree with the assigned prefix (violated iff they cover all completions).

``collect=True`` must hold every solution, so it refuses once the collected
count passes ``MAX_COLLECTED_SOLUTIONS``, before the solutions are
concatenated, sorted and decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, is_consistent, rank_tuples

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


def _value_dtype(d: int):
    if d <= 255:
        return np.uint8
    if d <= 65535:
        return np.uint16
    return np.uint32


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


def _packed_check(cols, blocked, d: int, b: int, depth: int):
    """One ``_check_at_depth`` check as (mask, patterns) over packed codes of
    length ``depth + 1``: a code is violated iff ``code & mask`` is in patterns."""
    mask = 0
    for c in cols:
        mask |= ((1 << b) - 1) << ((depth - c) * b)
    patterns = []
    for code in blocked:
        pattern = 0
        for c in cols:
            code, v = divmod(code, d)
            pattern |= v << ((depth - c) * b)
        patterns.append(pattern)
    return mask, patterns


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


def _root_rows(inst: Instance) -> int:
    """Rows of the depth-0 frame: the empty prefix, or none when it is
    already inconsistent (every tuple forbidden, q = d**k), which the
    per-depth checks never test."""
    return 1 if inst.params.strict or is_consistent(inst, ()) else 0


def _checks_at(inst: Instance) -> list[list]:
    """``_check_at_depth`` checks grouped by depth: depth max(scope) only for
    strict instances, every scope variable otherwise."""
    params = inst.params
    checks_at: list[list] = [[] for _ in range(params.n)]
    tuples = rank_tuples(inst.ranks, params.d, params.k).tolist()
    for scope, rows in zip(inst.scopes.tolist(), tuples):
        for v in [max(scope)] if params.strict else sorted(scope):
            chk = _check_at_depth(scope, rows, params.d, v)
            if chk is not None:
                checks_at[v].append(chk)
    return checks_at


def _strict_tables(inst: Instance, b: int) -> list[list]:
    """Packed (mask, patterns) checks of a strict instance grouped by depth,
    in one numpy pass: constraint i is checked at depth max(scope), and
    each of its q forbidden tuples is one pattern."""
    params = inst.params
    scopes = inst.scopes
    depths = scopes.max(axis=1)
    shifts = (depths[:, None] - scopes) * b
    masks = np.bitwise_or.reduce(((1 << b) - 1) << shifts, axis=1)
    digits = rank_tuples(inst.ranks, params.d, params.k).astype(np.int64)
    patterns = np.bitwise_or.reduce(digits << shifts[:, None, :], axis=2)
    tables: list[list] = [[] for _ in range(params.n)]
    for v, mask, pats in zip(depths.tolist(), masks.tolist(), patterns.tolist()):
        tables[v].append((mask, pats))
    return tables


def _depth_first(n: int, d: int, root: np.ndarray, extend, collect: bool):
    """Walk the consistent tree depth first in blocks of at most BLOCK_ROWS
    prefixes; ``extend(block, depth)`` returns the consistent one-variable
    extensions of a block of depth-``depth`` prefixes.

    Returns (nodes, level_counts, blocks of solutions); the blocks are
    empty unless ``collect``.
    """
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
    n, d = inst.params.n, inst.params.d
    b = _field_bits(d)
    values = np.asarray(order, dtype=np.int64)
    if inst.params.strict:
        tables = _strict_tables(inst, b)
    else:
        tables = [
            [_packed_check(cols, blocked, d, b, i) for cols, _, blocked in checks]
            for i, checks in enumerate(_checks_at(inst))
        ]

    def extend(cur, i):
        nxt = ((cur << b)[:, None] | values).ravel()
        bad = None
        for mask, patterns in tables[i]:
            hit = _match_any(nxt & mask, patterns)
            bad = hit if bad is None else np.logical_or(bad, hit, out=bad)
        return nxt if bad is None else nxt[~bad]

    root = np.zeros(_root_rows(inst), dtype=np.int64)
    nodes, level_counts, found = _depth_first(n, d, root, extend, collect)
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
    order = np.asarray(order, dtype=_value_dtype(d))
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

    root = np.zeros((_root_rows(inst), 0), dtype=order.dtype)
    nodes, level_counts, found = _depth_first(n, d, root, extend, collect)
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
