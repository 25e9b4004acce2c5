"""Data model for Model GB random constraint satisfaction instances.

An instance has n variables over a common domain {0, ..., d-1} and t
constraints, each binding k distinct variables and forbidding exactly q
value tuples.  Variables are 0-indexed.  The derived tightness is
p = q / d**k and the density is r = t / n.  The "strict" regime q < d
(equivalently p < 1/d**(k-1)) is the one where a constraint with at least
one unassigned variable can always still be satisfied; all closed-form
analytics in this package require it, while solving does not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Params:
    """Integer instance parameters (n, d, k, t, q)."""

    n: int
    d: int
    k: int
    t: int
    q: int

    def __post_init__(self):
        for name in ("n", "d", "k", "t", "q"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"{name} must be an int, got {v!r}")
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"degenerate domain: d={self.d} < 2")
        if self.k < 2:
            raise ValueError(f"constraint arity must be >= 2, got k={self.k}")
        if self.k > self.n:
            raise ValueError(f"arity exceeds variables: k={self.k} > n={self.n}")
        if self.t < 0:
            raise ValueError(f"negative constraint count: t={self.t}")
        if self.q < 1:
            raise ValueError(f"zero tightness: q={self.q} < 1")
        if self.q > self.d**self.k:
            raise ValueError(f"empty relation: q={self.q} > d^k={self.d ** self.k}")

    @property
    def p(self) -> float:
        """Constraint tightness q / d**k."""
        return self.q / self.d**self.k

    @property
    def r(self) -> float:
        """Constraint density t / n."""
        return self.t / self.n

    @property
    def strict(self) -> bool:
        """True iff q < d, i.e. p < 1/d**(k-1)."""
        return self.q < self.d

    @property
    def tuple_count(self) -> int:
        return self.d**self.k


def validate(params: Params) -> Params:
    """Re-check all Params invariants and return the validated object."""
    Params(params.n, params.d, params.k, params.t, params.q)
    return params


@dataclass(frozen=True, init=False)
class ConstraintSpec:
    """One constraint: an ordered scope of distinct variables plus the set of
    forbidden value tuples, aligned with scope order."""

    scope: tuple[int, ...]
    incompatible: frozenset[tuple[int, ...]]

    def __init__(self, scope, incompatible):
        # hand-written so each normalised field is stored once; the generator
        # builds one of these per sampled constraint
        scope = tuple(map(int, scope))
        incompatible = frozenset([tuple(map(int, t)) for t in incompatible])
        k = len(scope)
        if len(set(scope)) != k:
            raise ValueError(f"scope has repeated variables: {scope}")
        for tup in incompatible:
            if len(tup) != k:
                raise ValueError(f"tuple arity {len(tup)} != scope arity {k}")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "incompatible", incompatible)

    def check_against(self, params: Params) -> None:
        if len(self.scope) != params.k:
            raise ValueError(f"scope arity {len(self.scope)} != k={params.k}")
        for v in self.scope:
            if not 0 <= v < params.n:
                raise ValueError(f"scope variable {v} outside [0, {params.n})")
        if len(self.incompatible) != params.q:
            raise ValueError(
                f"constraint has {len(self.incompatible)} forbidden tuples, expected q={params.q}"
            )
        for tup in self.incompatible:
            for a in tup:
                if not 0 <= a < params.d:
                    raise ValueError(f"tuple value {a} outside [0, {params.d})")


@dataclass(frozen=True)
class Instance:
    """Params plus t constraints (duplicates across the list are legal)."""

    params: Params
    constraints: tuple[ConstraintSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if len(self.constraints) != self.params.t:
            raise ValueError(
                f"instance has {len(self.constraints)} constraints, expected t={self.params.t}"
            )
        for c in self.constraints:
            c.check_against(self.params)


@dataclass(frozen=True)
class PartialAssignment:
    """Values of the first ``depth`` variables, in variable order."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def depth(self) -> int:
        return len(self.values)


def _prefix_of(assignment) -> Sequence[int]:
    if isinstance(assignment, PartialAssignment):
        return assignment.values
    return assignment


def is_violated(constraint: ConstraintSpec, assignment, d: int) -> bool:
    """True iff no completion of the assignment on this scope is compatible.

    Forbidden tuples agreeing with the assigned prefix are counted; the
    constraint is violated exactly when they cover all d**f completions of
    its f unassigned variables (f = 0 reduces to a plain membership test).
    """
    values = _prefix_of(assignment)
    depth = len(values)
    fixed = [(j, values[v]) for j, v in enumerate(constraint.scope) if v < depth]
    free = len(constraint.scope) - len(fixed)
    if free > 0 and len(constraint.incompatible) < d:
        # fewer forbidden tuples than completions: cannot be covered
        return False
    matching = 0
    for tup in constraint.incompatible:
        if all(tup[j] == a for j, a in fixed):
            matching += 1
    return matching == d**free


def is_consistent(instance: Instance, assignment) -> bool:
    """True iff no constraint of the instance is violated by the assignment."""
    values = _prefix_of(assignment)
    d = instance.params.d
    for c in instance.constraints:
        if is_violated(c, values, d):
            return False
    return True


# --- instance documents -----------------------------------------------------
#
# Canonical JSON schema: {"n": int, "d": int, "k": int, "constraints":
# [{"scope": [k ints], "incompatible": [[k ints], ...]}, ...]} with each
# constraint's incompatible array sorted lexicographically.  t is the length
# of the constraint array and q the (uniform) forbidden-set size; a t=0
# document reloads with q=1, which no solving or counting result depends on.


def instance_to_doc(instance: Instance) -> dict:
    return {
        "n": instance.params.n,
        "d": instance.params.d,
        "k": instance.params.k,
        "constraints": [
            {
                "scope": list(c.scope),
                "incompatible": sorted(list(t) for t in c.incompatible),
            }
            for c in instance.constraints
        ],
    }


def _doc_fields(obj, keys: tuple[str, ...], what: str) -> list:
    """The values of exactly ``keys`` in a JSON object, in key order."""
    if not isinstance(obj, dict) or set(obj) != set(keys):
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise ValueError(f"{what} must have exactly the keys {list(keys)}, got {got}")
    return [obj[key] for key in keys]


def _doc_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def require_int(value, what: str) -> int:
    """``value`` itself if it is an int and not a bool; ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")
    return value


def instance_from_doc(doc: dict) -> Instance:
    """Rebuild an instance from its canonical document.

    Anything but the exact schema (missing or extra keys, non-int or bool
    numbers, non-list arrays) raises ValueError.
    """
    n, d, k, raw = _doc_fields(doc, ("n", "d", "k", "constraints"), "instance document")
    n, d, k = require_int(n, "n"), require_int(d, "d"), require_int(k, "k")
    entries = []
    for i, entry in enumerate(_doc_list(raw, "constraints")):
        what = f"constraint {i}"
        scope, incompatible = _doc_fields(entry, ("scope", "incompatible"), what)
        scope = tuple(require_int(v, f"{what} scope entry") for v in _doc_list(scope, what))
        tuples = [
            tuple(require_int(a, f"{what} tuple entry") for a in _doc_list(tup, what))
            for tup in _doc_list(incompatible, what)
        ]
        entries.append((scope, tuples))
    sizes = {len(tuples) for _, tuples in entries}
    if len(sizes) > 1:
        raise ValueError(f"constraints disagree on forbidden-set size: {sorted(sizes)}")
    q = sizes.pop() if sizes else 1
    params = Params(n=n, d=d, k=k, t=len(entries), q=q)
    constraints = tuple(
        ConstraintSpec(scope=scope, incompatible=frozenset(tuples)) for scope, tuples in entries
    )
    return Instance(params, constraints)


def dumps_instance(instance: Instance) -> str:
    """Canonical text form; byte-stable under emit -> parse -> emit."""
    return json.dumps(instance_to_doc(instance), separators=(",", ":")) + "\n"


def loads_instance(text: str) -> Instance:
    return instance_from_doc(json.loads(text))
