"""Unit-constraint heuristic: certify satisfiability or give up.

The solver repeatedly assigns one variable per round.  While any reduced
constraint has arity 1 ("unit"), it serves a uniformly random unit first,
giving its variable a uniformly random value outside the unit's forbidden
values; otherwise it assigns a uniformly random value to a uniformly random
unset variable.  After each assignment every constraint containing the
variable is reduced: if the assigned value appears in none of its forbidden
tuples at that variable's position the constraint is satisfied and removed;
otherwise only the forbidden tuples agreeing with the value survive, the
variable is projected out of scope and tuples, and duplicates collapse.
A constraint whose scope empties while forbidden tuples survive is an empty
constraint: the run stops and reports that it cannot decide.  If every
constraint gets removed, leftover variables take uniformly random values so
the result is a concrete assignment, which is re-verified against the
original instance before being returned (the heuristic is sound but
incomplete: it can answer "unknown" on satisfiable instances, never the
reverse).

Draw rule (pinned by the outcome digests in the tests; any change to the
bookkeeping must keep it): a unit round draws idx = randbelow(#units) and
serves the idx-th smallest unit constraint id, then gives its variable the
j-th smallest allowed value for j = randbelow(#allowed); a free round draws
idx = randbelow(#unset) and assigns the idx-th smallest unset variable the
value randbelow(d).  The unset variables live in a list kept sorted
ascending, so the idx-th smallest is ``unset[idx]`` and removing a variable
is a binary search plus one ``del``.  Leftover variables take their values
in ascending order.

Only strict instances (q < d) are accepted: a unit then always has at most
q < d forbidden values, so a satisfying value for it exists.  Empty
constraints can still arise when two units on the same variable forbid
complementary values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .model import Instance, is_consistent
from .rng import SeedSpec

SOLUTION_FOUND = "solution_found"
UNKNOWN = "unknown"


class EmptyConstraintSignal(Exception):
    """A reduced constraint ran out of variables with forbidden tuples left.

    Normal control flow on the "unknown" path, not an error.
    """


@dataclass
class _Reduced:
    scope: list[int]
    tuples: set[tuple[int, ...]]


@dataclass
class UCState:
    """Mutable reduction state of one run."""

    d: int
    n: int
    assigned: dict[int, int] = field(default_factory=dict)
    live: dict[int, _Reduced] = field(default_factory=dict)
    by_var: dict[int, set[int]] = field(default_factory=dict)
    unit_pool: set[int] = field(default_factory=set)
    unset: list[int] = field(default_factory=list)

    @classmethod
    def from_instance(cls, inst: Instance) -> "UCState":
        params = inst.params
        live = {}
        by_var = {v: set() for v in range(params.n)}
        for cid, c in enumerate(inst.constraints):
            live[cid] = _Reduced(list(c.scope), set(c.incompatible))
            for v in c.scope:
                by_var[v].add(cid)
        return cls(d=params.d, n=params.n, live=live, by_var=by_var, unset=list(range(params.n)))

    def _drop(self, cid: int) -> None:
        red = self.live.pop(cid)
        for v in red.scope:
            self.by_var[v].discard(cid)
        self.unit_pool.discard(cid)

    def assign(self, var: int, value: int) -> None:
        unset = self.unset
        idx = bisect_left(unset, var)
        if idx == len(unset) or unset[idx] != var:
            raise ValueError(f"variable {var} is assigned or outside [0, {self.n})")
        del unset[idx]
        self.assigned[var] = value


def reduce_after_assignment(state: UCState, var: int, value: int) -> UCState:
    """Reduce every live constraint containing ``var`` after ``var <- value``.

    Raises EmptyConstraintSignal if some constraint ends with an empty scope
    and surviving forbidden tuples; otherwise returns the mutated state.
    """
    for cid in sorted(state.by_var.get(var, ())):
        red = state.live[cid]
        pos = red.scope.index(var)
        survivors = {t for t in red.tuples if t[pos] == value}
        if not survivors:
            # value never forbidden at var's position: constraint satisfied
            state._drop(cid)
            continue
        new_scope = red.scope[:pos] + red.scope[pos + 1 :]
        if not new_scope:
            raise EmptyConstraintSignal(f"constraint {cid} emptied by {var} <- {value}")
        red.scope = new_scope
        red.tuples = {t[:pos] + t[pos + 1 :] for t in survivors}
        if len(new_scope) == 1:
            state.unit_pool.add(cid)
    state.by_var.pop(var, None)
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
        if state.unit_pool:
            cid = sorted(state.unit_pool)[rng.randbelow(len(state.unit_pool))]
            red = state.live[cid]
            var = red.scope[0]
            banned = {t[0] for t in red.tuples}
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
    if not is_consistent(inst, assignment):
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
