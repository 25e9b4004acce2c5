"""Data model for Model GB random constraint satisfaction instances.

An instance has n variables over a common domain {0, ..., d-1} and t
constraints, each binding k distinct variables and forbidding exactly q
value tuples.  Variables are 0-indexed.  The derived tightness is
p = q / d**k and the density is r = t / n.  The "strict" regime q < d
(equivalently p < 1/d**(k-1)) is the one where a constraint with at least
one unassigned variable can always still be satisfied; all closed-form
analytics in this package require it, while solving does not.

An ``Instance`` holds its constraints as two arrays, scopes and sorted
forbidden-tuple ranks (layout and the d**k <= 2**64 bound: see
``Instance``).  The ``ConstraintSpec`` tuple that the oracle, the solver
and code reading single constraints use is built from them on first use.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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


def _entry(value) -> int:
    """A scope or tuple entry as an int; numpy integers pass, while bools,
    floats and everything else raise ValueError instead of being truncated."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"constraint entries must be ints, got {value!r}")
    return int(value)


@dataclass(frozen=True, init=False)
class ConstraintSpec:
    """One constraint: an ordered scope of distinct variables plus the set of
    forbidden value tuples, aligned with scope order."""

    scope: tuple[int, ...]
    incompatible: frozenset[tuple[int, ...]]

    def __init__(self, scope, incompatible):
        # hand-written so each normalised field is stored once
        scope = tuple(map(_entry, scope))
        incompatible = frozenset([tuple(map(_entry, t)) for t in incompatible])
        k = len(scope)
        if len(set(scope)) != k:
            raise ValueError(f"scope has repeated variables: {scope}")
        for tup in incompatible:
            if len(tup) != k:
                raise ValueError(f"tuple arity {len(tup)} != scope arity {k}")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "incompatible", incompatible)

    @classmethod
    def _unchecked(cls, scope: list, tuples: list) -> "ConstraintSpec":
        """From one row of an instance's arrays, whose ints, distinct scope
        and arities are already established."""
        spec = cls.__new__(cls)
        object.__setattr__(spec, "scope", tuple(scope))
        object.__setattr__(spec, "incompatible", frozenset(map(tuple, tuples)))
        return spec


def check_array_range(params: Params) -> None:
    """Refuse parameters whose instances the int64 scope and uint64 rank
    arrays cannot hold."""
    if params.d**params.k > 2**64:
        raise ValueError(f"d^k={params.d ** params.k} > 2^64: tuple ranks do not fit in 64 bits")
    if params.n > 2**63:
        raise ValueError(f"n={params.n} > 2^63: variables do not fit in 63 bits")


def _powers(d: int, k: int) -> np.ndarray:
    return np.array([d**e for e in range(k - 1, -1, -1)], dtype=np.uint64)


def tuple_ranks(values: np.ndarray, d: int) -> np.ndarray:
    """Big-endian base-d ranks (uint64) of the value tuples along the last
    axis; exact whenever d**k <= 2**64, as no partial sum exceeds the rank."""
    return values.astype(np.uint64) @ _powers(d, values.shape[-1])


def rank_tuples(ranks: np.ndarray, d: int, k: int) -> np.ndarray:
    """Inverse of ``tuple_ranks``: the k base-d digits (uint64) of each rank,
    most significant first, along a new last axis."""
    return ranks[..., None] // _powers(d, k) % np.uint64(d)


def _first_outside(values: np.ndarray, bound: int, what: str) -> None:
    bad = (values < 0) | (values >= bound)
    if bad.any():
        raise ValueError(f"{what} {values[bad][0]} outside [0, {bound})")


class Instance:
    """Params plus t constraints (duplicates across the list are legal).

    The canonical form is two read-only arrays.  ``scopes`` is t x k int64,
    row i the scope of constraint i in draw order.  ``ranks`` is t x q
    uint64, row i the ranks of constraint i's forbidden tuples in ascending
    order; a tuple's rank is its big-endian base-d value (``tuple_ranks``),
    so rank order is lexicographic tuple order.  The arrays bound the
    parameters: d**k <= 2**64 and n <= 2**63 (``check_array_range``).
    ``constraints``, the ConstraintSpec tuple, is built from the arrays on
    first use and cached.  Equal instances have equal params and the same
    constraint list.
    """

    __slots__ = ("params", "scopes", "ranks", "_constraints")

    def __init__(self, params: Params, constraints):
        constraints = tuple(constraints)
        t, k, q = params.t, params.k, params.q
        check_array_range(params)
        if len(constraints) != t:
            raise ValueError(f"instance has {len(constraints)} constraints, expected t={t}")
        for c in constraints:
            if len(c.scope) != k:
                raise ValueError(f"scope arity {len(c.scope)} != k={k}")
            if len(c.incompatible) != q:
                raise ValueError(
                    f"constraint has {len(c.incompatible)} forbidden tuples, expected q={q}"
                )
        # ints beyond int64 make object arrays, which compare just the same
        scopes = np.array([c.scope for c in constraints]).reshape(t, k)
        values = np.array([sorted(c.incompatible) for c in constraints]).reshape(t, q, k)
        _first_outside(scopes, params.n, "scope variable")
        _first_outside(values, params.d, "tuple value")
        self._fill(params, scopes.astype(np.int64), tuple_ranks(values, params.d), constraints)

    @classmethod
    def _from_arrays(cls, params: Params, scopes: np.ndarray, ranks: np.ndarray) -> "Instance":
        """An instance around arrays already in canonical form (not re-checked)."""
        inst = cls.__new__(cls)
        inst._fill(params, scopes, ranks, None)
        return inst

    def _fill(self, params, scopes, ranks, constraints) -> None:
        scopes.flags.writeable = False
        ranks.flags.writeable = False
        self.params, self.scopes, self.ranks = params, scopes, ranks
        self._constraints = constraints

    @property
    def constraints(self) -> tuple[ConstraintSpec, ...]:
        if self._constraints is None:
            tuples = rank_tuples(self.ranks, self.params.d, self.params.k).tolist()
            self._constraints = tuple(map(ConstraintSpec._unchecked, self.scopes.tolist(), tuples))
        return self._constraints

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.params == other.params
            and np.array_equal(self.scopes, other.scopes)
            and np.array_equal(self.ranks, other.ranks)
        )

    def __hash__(self):
        return hash((self.params, self.scopes.tobytes(), self.ranks.tobytes()))

    def __repr__(self):
        return f"Instance(params={self.params!r}, constraints={self.constraints!r})"


def is_violated(constraint: ConstraintSpec, values: Sequence[int], d: int) -> bool:
    """True iff no completion of the assignment on this scope is compatible.

    ``values`` assigns variables 0..len(values)-1.  Forbidden tuples agreeing
    with the assigned prefix are counted; the constraint is violated exactly
    when they cover all d**f completions of its f unassigned variables
    (f = 0 reduces to a plain membership test).
    """
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


def is_consistent(instance: Instance, values: Sequence[int]) -> bool:
    """True iff no constraint of the instance is violated by the assignment
    of variables 0..len(values)-1."""
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
    params = instance.params
    # ascending ranks are the lexicographically sorted tuples
    tuples = rank_tuples(instance.ranks, params.d, params.k).tolist()
    return {
        "n": params.n,
        "d": params.d,
        "k": params.k,
        "constraints": [
            {"scope": scope, "incompatible": rows}
            for scope, rows in zip(instance.scopes.tolist(), tuples)
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
