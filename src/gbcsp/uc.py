"""Unit-constraint heuristic: certify satisfiability or give up.

The solver repeatedly assigns one variable per round.  While any reduced
constraint has arity 1 ("unit"), it serves a uniformly random unit first,
giving its variable a uniformly random value outside the unit's forbidden
values; otherwise it assigns a uniformly random value to a uniformly random
unset variable.  After each assignment every constraint containing the
variable is reduced: if the assigned value appears in none of its forbidden
tuples at that variable's position the constraint is satisfied and removed;
otherwise only the forbidden tuples agreeing with the value survive and the
variable leaves the scope.  A constraint whose scope empties while forbidden
tuples survive is an empty constraint: the run stops and reports that it
cannot decide.  If every constraint gets removed, leftover variables take
uniformly random values so the result is a concrete assignment, which is
re-verified against the original instance before being returned (the
heuristic is sound but incomplete: it can answer "unknown" on satisfiable
instances, never the reverse).  The re-check is ``model.violated_rows``
on the full assignment: its values on no scope may be one of that row's
forbidden tuples.

State.  Everything is a flat list of ints built from the instance arrays by
a few numpy calls, so a run allocates no object per constraint:

- ``var_entries`` lists, for each variable, the flat scope positions
  ``cid * k + pos`` holding it, in ascending constraint id; variable v's
  entries are ``var_entries[var_start[v]:var_start[v + 1]]`` (a stable
  argsort of the flattened scopes).
- ``digits[(cid * k + pos) * q + j]`` is the value at scope position pos of
  constraint cid's j-th forbidden tuple (lexicographic order).
- ``masks[cid]`` has bit j set while forbidden tuple j survives; 0 means the
  constraint is satisfied and gone.  ``free[cid]`` counts its unassigned
  variables, its arity; ``units`` holds the ids with arity 1, ascending.

Assigning ``var <- value`` clears, in each live constraint holding var, the
bits of tuples whose digit at var's position differs from value.  This is
the same as projecting: every surviving tuple agrees with the assignment on
every assigned position, so dropping those positions maps distinct
survivors to distinct projected tuples.  Whether any tuple survives, the
arity and a unit's banned values (the survivors' digits at its one
unassigned position) are therefore read off the mask unchanged.

Draw rule (pinned by the outcome digests in the tests; any change to the
bookkeeping must keep it): a unit round draws idx = randbelow(#units) and
serves the idx-th smallest unit constraint id, then gives its variable the
j-th smallest allowed value for j = randbelow(#allowed); a free round draws
idx = randbelow(#unset) and assigns the idx-th smallest unset variable the
value randbelow(d).  The unset variables and the units live in lists kept
sorted ascending, so the idx-th smallest is one index and removing an entry
is a binary search plus one ``del``.  Leftover variables take their values
in ascending order.

Only strict instances (q < d) are accepted: a unit then always has at most
q < d forbidden values, so a satisfying value for it exists.  Empty
constraints can still arise when two units on the same variable forbid
complementary values.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

# is_consistent is not called here; it stays importable from this module
# because perfbench/tracing.py wraps uc.is_consistent.
from .model import Instance, is_consistent, violated_rows  # noqa: F401
from .rng import SeedSpec

SOLUTION_FOUND = "solution_found"
UNKNOWN = "unknown"


class EmptyConstraintSignal(Exception):
    """A reduced constraint ran out of variables with forbidden tuples left.

    Normal control flow on the "unknown" path, not an error.
    """


@dataclass
class UCState:
    """Mutable reduction state of one run (layout: module docstring)."""

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
    def from_instance(cls, inst: Instance) -> "UCState":
        params = inst.params
        n, k, t, q = params.n, params.k, params.t, params.q
        flat = inst.scopes.ravel()
        # numpy's stable sort is a radix sort for 8- and 16-bit integers, so
        # sort in the narrowest dtype holding 0..n-1
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


def reduce_after_assignment(state: UCState, var: int, value: int) -> UCState:
    """Reduce every live constraint containing ``var`` after ``var <- value``.

    Raises EmptyConstraintSignal if some constraint ends with an empty scope
    and surviving forbidden tuples; otherwise returns the mutated state.
    """
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
            # value never forbidden at var's position: constraint satisfied
            masks[cid] = 0
            state.live -= 1
            if not left:
                del units[bisect_left(units, cid)]
            continue
        if not left:
            raise EmptyConstraintSignal(f"constraint {cid} emptied by {var} <- {value}")
        masks[cid] = mask
        free[cid] = left
        if left == 1:
            insort(units, cid)
    return state


@dataclass(frozen=True)
class UCOutcome:
    tag: str
    assignment: tuple[int, ...] | None = None

    @property
    def found(self) -> bool:
        return self.tag == SOLUTION_FOUND


def run_uc(inst: Instance, seed: SeedSpec, label: str = "uc") -> UCOutcome:
    """One randomized run; SOLUTION_FOUND outcomes carry a verified assignment."""
    params = inst.params
    if not params.strict:
        raise ValueError(f"unit-constraint heuristic requires q < d, got q={params.q}, d={params.d}")
    rng = seed.stream(label)
    state = UCState.from_instance(inst)
    d = params.d

    while state.live:
        if state.units:
            cid = state.units[rng.randbelow(len(state.units))]
            var, banned = state.unit(cid)
            allowed = [v for v in range(d) if v not in banned]
            value = allowed[rng.randbelow(len(allowed))]
        else:
            var = state.unset[rng.randbelow(len(state.unset))]
            value = rng.randbelow(d)
        state.assign(var, value)
        try:
            reduce_after_assignment(state, var, value)
        except EmptyConstraintSignal:
            return UCOutcome(UNKNOWN)

    for var in state.unset:
        state.assigned[var] = rng.randbelow(d)
    assignment = tuple(state.assigned[i] for i in range(params.n))
    if violated_rows(inst.scopes, inst.incompatible, assignment, params.n, d).any():
        raise RuntimeError("unit-constraint run produced an unsatisfying assignment (bug)")
    return UCOutcome(SOLUTION_FOUND, assignment)


def uc_success_rate(params, trials: int, master_seed: int) -> float:
    """Fraction of trials certifying a solution; one fresh instance and one
    fresh run per trial, on decorrelated streams."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from .generator import sample_instance

    hits = 0
    for trial in range(trials):
        spec = SeedSpec(master_seed, trial)
        inst = sample_instance(params, spec)
        if run_uc(inst, spec).found:
            hits += 1
    return hits / trials
