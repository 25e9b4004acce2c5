"""Reference paths the tests hold the package's production paths to.

Each one computes a quantity the package computes another way, in plain
Python, and shares no code with the path it checks:

- ``sample_scope``, ``sample_incompatible`` and ``sample_constraint`` draw
  one constraint at a time from a ``Stream``; they define the draw order
  that ``generator.constraint_blocks`` reproduces in blocks.
- ``extend_probability_float`` is the level survival 1 - p * prod (i-j)/(n-j)
  with float products taken in order j = 0..k-1, which
  ``analytics.log_exact_expected_nodes_at`` reproduces in numpy.
- ``exact_expected_nodes_fraction`` is the expected node count as an exact
  rational, and ``log_fraction`` its log, against which
  ``analytics.log_exact_expected_nodes`` is held.
- ``parse_csv`` reads ``harness.format_csv`` output back into rows.
- ``_check_at_depth`` works out a constraint's blocking subcodes one tuple
  at a time; it shares no code with the solver's ``_tables`` (nor with
  ``model.is_violated``, the brute-force oracle's predicate).
- ``reference_run_uc`` is the unit-constraint heuristic on the earlier
  state: a dict of assigned values, a per-tuple digit loop in the
  reduction and one scalar ``next_u64`` word at a time with its own
  rejection loop.  ``uc.run_uc`` must give the same outcomes draw for draw.
- ``reference_run_point`` is ``harness.run_point`` one trial at a time:
  ``sample_instance``, ``solve_all`` and ``run_uc`` on each trial, with no
  batch.

``one_constraint`` builds the one-constraint instances several test files
use.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gbcsp.analytics import extend_probability
from gbcsp.backtracker import solve_all
from gbcsp.generator import sample_instance
from gbcsp.harness import _FIELDS, CSV_HEADER, SummaryRow
from gbcsp.model import ConstraintSpec, Instance, Params, violated_rows
from gbcsp.rng import SeedSpec, Stream
from gbcsp.uc import SOLUTION_FOUND, UNKNOWN, run_uc


def one_constraint(scope, incompatible, n, d, k=None, q=None):
    """An instance of the one constraint on ``scope`` forbidding
    ``incompatible``; k and q default to the sizes of the two."""
    k = len(scope) if k is None else k
    q = len(incompatible) if q is None else q
    params = Params(n=n, d=d, k=k, t=1, q=q)
    return Instance(params, (ConstraintSpec(scope, frozenset(incompatible)),))


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


def extend_probability_float(i: int, n: int, k: int, p: float) -> float:
    prod = 1.0
    for j in range(k):
        prod *= (i - j) / (n - j)
    return 1.0 - p * prod


def exact_expected_nodes_fraction(params: Params) -> Fraction:
    """Expected node count as an exact rational (arbitrary precision)."""
    total = Fraction(1)
    for i in range(params.n):
        total += params.d ** (i + 1) * extend_probability(i, params) ** params.t
    return total


def log_fraction(value: Fraction) -> float:
    """ln of a positive rational, safe for huge numerators/denominators."""
    if value <= 0:
        raise ValueError("need a positive rational")
    return math.log(value.numerator) - math.log(value.denominator)


def parse_csv(text: str) -> list[SummaryRow]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_FIELDS):
            raise ValueError(f"expected {len(_FIELDS)} columns, got {len(cells)}")
        kwargs = {}
        for field, cell in zip(_FIELDS, cells):
            if cell == "":
                kwargs[field] = None
            elif field in ("t", "trials"):
                kwargs[field] = int(cell)
            else:
                kwargs[field] = float(cell)
        rows.append(SummaryRow(**kwargs))
    return rows


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


def _scalar_randbelow(stream: Stream, bound: int) -> int:
    """Uniform integer in [0, bound) from one ``next_u64`` word at a time,
    rejecting words at or above the largest multiple of bound <= 2**64."""
    if bound == 1:
        return 0
    limit = 2**64 - 2**64 % bound
    u = stream.next_u64()
    while u >= limit:
        u = stream.next_u64()
    return u % bound


class _EmptyConstraint(Exception):
    pass


@dataclass
class ReferenceUCState:
    """Mutable reduction state of one reference run: ``digits[(cid * k +
    pos) * q + j]`` is the value at scope position pos of constraint cid's
    j-th forbidden tuple, and ``assigned`` maps each assigned variable to
    its value."""

    n: int
    k: int
    q: int
    scopes: list[int]
    digits: list[int]
    var_start: list[int]
    var_entries: list[int]
    masks: list[int]
    free: list[int]
    live: int
    units: list[int]
    unset: list[int]
    assigned: dict[int, int]

    @classmethod
    def from_instance(cls, inst: Instance) -> "ReferenceUCState":
        params = inst.params
        n, k, t, q = params.n, params.k, params.t, params.q
        flat = inst.scopes.ravel()
        order = np.argsort(flat.astype(np.min_scalar_type(n - 1)), kind="stable")
        var_start = np.searchsorted(flat[order], np.arange(n + 1))
        digits = inst.incompatible.transpose(0, 2, 1)
        return cls(
            n=n, k=k, q=q,
            scopes=flat.tolist(),
            digits=digits.ravel().tolist(),
            var_start=var_start.tolist(),
            var_entries=order.tolist(),
            masks=[(1 << q) - 1] * t,
            free=[k] * t,
            live=t,
            units=[],
            unset=list(range(n)),
            assigned={},
        )

    def assign(self, var: int, value: int) -> None:
        unset = self.unset
        idx = bisect_left(unset, var)
        if idx == len(unset) or unset[idx] != var:
            raise ValueError(f"variable {var} is assigned or outside [0, {self.n})")
        del unset[idx]
        self.assigned[var] = value

    def unit(self, cid: int) -> tuple[int, set[int]]:
        """The unassigned variable of unit ``cid`` and the values it bans there."""
        k, q, mask = self.k, self.q, self.masks[cid]
        for f in range(cid * k, cid * k + k):
            var = self.scopes[f]
            if var not in self.assigned:
                return var, {self.digits[f * q + j] for j in range(q) if mask >> j & 1}
        raise ValueError(f"constraint {cid} has no unassigned variable")


def reference_reduce_after_assignment(state: ReferenceUCState, var: int, value: int) -> None:
    """Reduce every live constraint containing ``var`` after ``var <- value``:
    clear the bits of the tuples whose digit at var's position differs."""
    k, q = state.k, state.q
    masks, free, digits, units = state.masks, state.free, state.digits, state.units
    for f in state.var_entries[state.var_start[var]:state.var_start[var + 1]]:
        cid = f // k
        mask = masks[cid]
        if not mask:
            continue
        row = f * q
        for j in range(q):
            if digits[row + j] != value:
                mask &= ~(1 << j)
        left = free[cid] - 1
        if not mask:
            masks[cid] = 0
            state.live -= 1
            if not left:
                del units[bisect_left(units, cid)]
            continue
        if not left:
            raise _EmptyConstraint(var, value, cid)
        masks[cid] = mask
        free[cid] = left
        if left == 1:
            insort(units, cid)


def reference_run_uc(inst: Instance, seed: SeedSpec, label: str = "uc"):
    """(tag, assignment, conflict) of one reference run: the assignment on
    SOLUTION_FOUND, and on UNKNOWN the (var, value, cid) whose reduction
    emptied constraint cid."""
    params = inst.params
    rng = seed.stream(label)
    state = ReferenceUCState.from_instance(inst)
    d = params.d
    while state.live:
        if state.units:
            cid = state.units[_scalar_randbelow(rng, len(state.units))]
            var, banned = state.unit(cid)
            allowed = [v for v in range(d) if v not in banned]
            value = allowed[_scalar_randbelow(rng, len(allowed))]
        else:
            var = state.unset[_scalar_randbelow(rng, len(state.unset))]
            value = _scalar_randbelow(rng, d)
        state.assign(var, value)
        try:
            reference_reduce_after_assignment(state, var, value)
        except _EmptyConstraint as empty:
            return UNKNOWN, None, empty.args
    for var in state.unset:
        state.assigned[var] = _scalar_randbelow(rng, d)
    assignment = tuple(state.assigned[i] for i in range(params.n))
    assert not violated_rows(inst.scopes, inst.incompatible, assignment, params.n, d).any()
    return SOLUTION_FOUND, assignment, None


def reference_run_point(params: Params, trials: int, master_seed: int, measures, trial_offset: int = 0):
    """The (trial, nodes, sat, uc_ok) records of ``harness.run_point``, one
    trial at a time."""
    records = []
    for trial in range(trial_offset, trial_offset + trials):
        spec = SeedSpec(master_seed, trial)
        inst = sample_instance(params, spec, label=f"instance/t{params.t}")
        nodes = sat = uc_ok = None
        if "nodes" in measures or "sat" in measures:
            stats = solve_all(inst)
            nodes = stats.nodes if "nodes" in measures else None
            sat = (stats.solution_count > 0) if "sat" in measures else None
        if "uc" in measures:
            uc_ok = run_uc(inst, spec, label=f"uc/t{params.t}").found
        records.append((trial, nodes, sat, uc_ok))
    return records
