"""All-solutions chronological backtracking with exact node accounting.

The modelled search assigns variables 0..n-1 in a fixed order and values in
a fixed order, checks consistency of every partial assignment it creates,
and enumerates the entire consistent tree.  Every variable-value
instantiation is one search-tree node, plus the root, so

    nodes = 1 + sum_{i=0}^{n-1} d * c_i,

where c_i is the number of consistent depth-i prefixes.  Because the full
consistent tree is enumerated, that count does not depend on visit order,
and the implementation below sweeps level by level over numpy arrays of
consistent prefixes instead of recursing; its observable outputs (node
count, level profile, solution set) are identical to the depth-first
traversal and are cross-checked against a naive re-check-everything oracle
in the test suite.

Each prefix is one int64 code with b = ceil(log2 d) bits per variable, the
most recently assigned variable in the lowest field.  Extending a level is
``(code << b) | value``, and each check is a (mask, patterns) pair: a prefix
violates it iff ``code & mask`` equals one of the patterns.  Bit fields
rather than base-d digits make that one mask-compare for every d.  When
n * b > 63 the codes do not fit, and the sweep falls back to a (rows, depth)
matrix of values with weighted base-d codes per check.

For strict instances (q < d) a constraint can only fail once its scope is
fully assigned, so each constraint is checked exactly at the depth that
completes it.  Non-strict instances check a constraint at every depth that
touches it, counting how many of its forbidden tuples agree with the
assigned prefix (violated iff they cover all completions).

A level is materialised whole, so ``solve_all`` refuses, before allocating,
any level of more than ``MAX_LEVEL_ROWS`` prefixes.  Counts are Python ints
and therefore exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, is_consistent, rank_tuples

# Largest level, in prefixes, that solve_all will allocate (512 MiB as
# packed int64 codes).
MAX_LEVEL_ROWS = 2**26


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


def _check_budget(depth: int, rows: int) -> None:
    if rows > MAX_LEVEL_ROWS:
        raise ValueError(
            f"depth {depth} would hold {rows} prefixes, over the budget of {MAX_LEVEL_ROWS}"
        )


def _prepare(inst: Instance, value_order):
    """Value order, per-depth checks and root consistency, shared by both sweeps."""
    params = inst.params
    n, d = params.n, params.d
    if value_order is None:
        order = list(range(d))
    else:
        order = list(value_order)
        if sorted(order) != list(range(d)):
            raise ValueError("value_order must be a permutation of range(d)")

    if params.d**params.k > 2**62:
        raise ValueError("d**k too large for 64-bit tuple codes")

    checks_at: list[list] = [[] for _ in range(n)]
    tuples = rank_tuples(inst.ranks, d, params.k).tolist()
    for scope, rows in zip(inst.scopes.tolist(), tuples):
        depths = [max(scope)] if params.strict else sorted(scope)
        for v in depths:
            chk = _check_at_depth(scope, rows, d, v)
            if chk is not None:
                checks_at[v].append(chk)

    # The level sweeps only test constraints touched by the newest variable;
    # a root-level violation (every tuple forbidden, q = d**k) must be
    # handled up front.
    root_ok = params.strict or is_consistent(inst, ())
    return order, checks_at, root_ok


def _packed_sweep(n: int, d: int, order, checks_at, root_ok: bool, collect: bool):
    """Level sweep over one int64 code per prefix; needs n * b <= 63."""
    b = _field_bits(d)
    values = np.asarray(order, dtype=np.int64)
    tables = [
        [_packed_check(cols, blocked, d, b, i) for cols, _, blocked in checks]
        for i, checks in enumerate(checks_at)
    ]
    level_counts = [1 if root_ok else 0]
    nodes = 1
    cur = np.zeros(level_counts[0], dtype=np.int64)

    for i in range(n):
        rows = cur.shape[0]
        if rows == 0:
            level_counts.append(0)
            continue
        _check_budget(i + 1, rows * d)
        nodes += rows * d
        nxt = ((cur << b)[:, None] | values).ravel()
        bad = None
        for mask, patterns in tables[i]:
            hit = _match_any(nxt & mask, patterns)
            bad = hit if bad is None else np.logical_or(bad, hit, out=bad)
        cur = nxt if bad is None else nxt[~bad]
        level_counts.append(cur.shape[0])

    solutions = None
    if collect:
        # Variable 0 sits in the highest field, so code order is
        # lexicographic order.
        shifts = np.arange((n - 1) * b, -1, -b, dtype=np.int64)
        fields = (np.sort(cur)[:, None] >> shifts) & ((1 << b) - 1)
        solutions = tuple(tuple(row) for row in fields.tolist())
    return nodes, level_counts, solutions


def _matrix_sweep(n: int, d: int, order, checks_at, root_ok: bool, collect: bool):
    """Level sweep over a (rows, depth) value matrix; the path for n * b > 63."""
    order = np.asarray(order, dtype=_value_dtype(d))
    level_counts = [1 if root_ok else 0]
    nodes = 1
    cur = np.zeros((level_counts[0], 0), dtype=order.dtype)

    for i in range(n):
        rows = cur.shape[0]
        if rows == 0:
            level_counts.append(0)
            continue
        _check_budget(i + 1, rows * d)
        nodes += rows * d
        nxt = np.empty((rows * d, i + 1), dtype=order.dtype)
        if i:
            nxt[:, :i] = np.repeat(cur, d, axis=0)
        nxt[:, i] = np.tile(order, rows)
        keep = None
        for cols, weights, blocked in checks_at[i]:
            bad = _match_any(_codes(nxt, cols, weights), blocked)
            keep = ~bad if keep is None else np.logical_and(keep, ~bad, out=keep)
        cur = nxt if keep is None else nxt[keep]
        level_counts.append(cur.shape[0])

    solutions = None
    if collect:
        solutions = tuple(sorted(tuple(int(v) for v in row) for row in cur.tolist()))
    return nodes, level_counts, solutions


def solve_all(inst: Instance, collect: bool = False, value_order=None) -> SearchStats:
    """Enumerate all solutions and count search-tree nodes exactly.

    ``value_order`` (a permutation of range(d)) only affects visit order,
    never the counts; collected solutions are always reported in
    lexicographic order.  Raises ValueError before allocating a level of
    more than ``MAX_LEVEL_ROWS`` prefixes.
    """
    n, d = inst.params.n, inst.params.d
    # Packed codes are signed int64, so they hold at most 63 bits of fields.
    sweep = _packed_sweep if n * _field_bits(d) <= 63 else _matrix_sweep
    nodes, level_counts, solutions = sweep(n, d, *_prepare(inst, value_order), collect)
    return SearchStats(
        nodes=nodes,
        solution_count=level_counts[-1],
        level_counts=tuple(level_counts),
        solutions=solutions,
    )
