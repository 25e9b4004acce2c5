"""Reference checks the tests hold ``backtracker._tables`` to.

``_check_at_depth`` works out a constraint's blocking subcodes one tuple at
a time, in plain Python; it shares no code with the solver's ``_tables``
(nor with ``model.is_violated``, the brute-force oracle's predicate).
"""

from __future__ import annotations

from gbcsp.model import Instance


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
