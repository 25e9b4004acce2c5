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
instances, never the reverse).  The re-check is ``_violated`` on the full
assignment: its values on no scope may be one of that row's forbidden
tuples.

State.  Everything is a flat sequence of ints built from the instance
arrays by a few numpy calls, so a run allocates no object per constraint;
the two index sequences are memoryviews of int64 arrays, which index to
ints without holding an int object per entry.  ``prepare`` builds the
states of a batch of runs on instances of one Params at once, with one
``bitwise_or.at`` for all their keep rows and one stable argsort of their
scopes, offset by instance; each run's state is slices of these:

- ``scopes[f]`` is the variable at flat scope position ``f = cid * k + pos``
  (a view of the batch's scopes).
- ``var_entries`` lists, for each variable, the flat scope positions holding
  it, in ascending constraint id; variable v's entries are
  ``var_entries[var_start[v]:var_start[v + 1]]`` (the run's slice of the
  batch's argsort, counted from its first flat position).
- ``keep[v][f]`` has bit j set when constraint cid's j-th forbidden tuple
  (lexicographic order) has value v at scope position pos: one row per
  value, one entry per flat scope position.
- ``masks[cid]`` has bit j set while forbidden tuple j survives; 0 means the
  constraint is satisfied and gone.  ``free[cid]`` counts its unassigned
  variables, its arity; ``units`` holds the ids with arity 1, ascending.
- ``value_of[v]`` is variable v's value, or -1 while v is unset; ``unset``
  lists the unset variables, ascending.

Assigning ``var <- value`` ANDs the mask of each live constraint holding var
at flat position f with ``keep[value][f]``, which clears the bits of tuples
whose value at var's position differs.  This is the same as projecting:
every surviving tuple agrees with the assignment on every assigned
position, so dropping those positions maps distinct survivors to distinct
projected tuples.  Whether any tuple survives, the arity and a unit's
banned values (v is banned at the unit's one unassigned position f exactly
when ``mask & keep[v][f]`` is not 0) are therefore read off the mask
unchanged.  The rows' dtype is the narrowest holding q bits, and Python ints
(numpy's object dtype) from q = 65 on.

Draw rule (pinned by the outcome digests in the tests; any change to the
bookkeeping must keep it): a unit round draws idx = below(#units) and
serves the idx-th smallest unit constraint id, then gives its variable the
j-th smallest allowed value for j = below(#allowed); a free round draws
idx = below(#unset) and assigns the idx-th smallest unset variable the
value below(d).  Leftover variables take their values in ascending order.
Each draw is ``rng.below``: the first word under the largest multiple of
the bound at most 2**64, mod the bound, and a bound of 1 takes no word.
The words are those of ``Stream.next_u64`` on the run's stream, computed
in chunks of min(2n, ``WORD_CHUNK``); a run takes about two words a
round, so small runs use one chunk.  A run's first chunk comes from its
batch: ``prepare`` computes the first chunk of every run in one
``rng.words_at`` over their streams' states and leaves each stream after
its chunk, and ``Stream.next_block`` computes any later chunk.  A lone
``run_uc`` prepares a batch of one, and ``harness.run_point`` prepares
each batch of trials.  The unset variables and the units live in lists
kept sorted ascending, so the idx-th smallest is one index and removing an
entry is a binary search plus one ``del``.

Only strict instances (q < d) are accepted: a unit then always has at most
q < d forbidden values, so a satisfying value for it exists.  Empty
constraints can still arise when two units on the same variable forbid
complementary values.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import generator

# is_consistent is not called here; it stays importable from this module
# because perfbench/tracing.py wraps uc.is_consistent.
from .model import Instance, Params, is_consistent  # noqa: F401
from .rng import SeedSpec, Stream, below, words_at

SOLUTION_FOUND = "solution_found"
UNKNOWN = "unknown"

# most words a run computes at once
WORD_CHUNK = 1 << 12


class EmptyConstraintSignal(Exception):
    """Assigning ``var <- value`` emptied constraint ``cid``'s scope while
    forbidden tuples survived; ``args`` is (var, value, cid).

    Normal control flow on the "unknown" path, not an error.
    """

    def __str__(self) -> str:
        var, value, cid = self.args
        return f"constraint {cid} emptied by {var} <- {value}"


def _int_bytes(bits: int) -> int:
    """Bytes an int of ``bits`` bits takes (its size rounded up to the
    allocator's 16); the ints up to 256 are shared and take none."""
    return 0 if bits <= 8 else (24 + 4 * -(-bits // 30) + 15) // 16 * 16


def check_uc_size(params: Params) -> int:
    """Refuse, from the parameters alone and so allocating nothing of size n,
    a run whose state passes ``generator.MAX_INSTANCE_BYTES``.  A list slot
    takes 8 bytes and an int ``_int_bytes``.  A variable takes three slots
    (``var_start``, ``unset``, ``value_of``) and two index ints; a flat scope
    position 16 bytes of int64 (``var_entries`` and the sorted scopes it is
    searched in) and, in each of the d ``keep`` rows, an array item, a slot
    and a q-bit int; a constraint two slots and a q-bit mask; and each of the
    min(2n, ``WORD_CHUNK``) words of a chunk 8 bytes in its block, a slot and
    a 64-bit int."""
    n, d, t, q = params.n, params.d, params.t, params.q
    entries = t * params.k
    mask = _int_bytes(q)
    # the bytes of numpy's narrowest unsigned dtype for q bits, or of a pointer
    item = 1 if q <= 8 else 2 if q <= 16 else 4 if q <= 32 else 8
    size = (n * (24 + 2 * _int_bytes(max(n, entries).bit_length()))
            + entries * (16 + d * (item + 8 + mask))
            + t * (16 + mask)
            + min(2 * n, WORD_CHUNK) * (16 + _int_bytes(64)))
    if size > generator.MAX_INSTANCE_BYTES:
        raise ValueError(f"n={n}, t={t} needs {size} bytes of unit-constraint state, "
                         f"over the budget of {generator.MAX_INSTANCE_BYTES}")
    return size


@dataclass(slots=True)
class UCState:
    """Mutable reduction state of one run (layout: module docstring)."""

    n: int
    k: int
    scopes: memoryview
    var_start: list[int]
    var_entries: memoryview
    keep: list[list[int]]
    masks: list[int]
    free: list[int]
    live: int
    units: list[int]
    unset: list[int]
    value_of: list[int]

    @classmethod
    def of_batch(cls, batch: list[Instance]) -> list["UCState"]:
        """A fresh state for each instance of ``batch`` (all of one Params),
        built from the batch's arrays at once: one ``bitwise_or.at`` for
        every run's keep rows, and one stable argsort of the scopes, offset
        by instance, for every run's ``var_entries`` and ``var_start``."""
        params = batch[0].params
        n, d, k, t, q = params.n, params.d, params.k, params.t, params.q
        runs, entries = len(batch), t * k
        if runs == 1:
            scopes, incompatible = batch[0].scopes, batch[0].incompatible
        else:
            scopes = np.concatenate([inst.scopes for inst in batch])
            incompatible = np.concatenate([inst.incompatible for inst in batch])
        flat = scopes.reshape(-1)
        # OR bit j into keep[v][g] for tuple j's value v at every batch flat
        # position g; run i's rows are keep[v][i * entries : (i + 1) * entries]
        dtype = np.min_scalar_type((1 << q) - 1)
        keep = np.zeros((d, runs * entries), dtype)
        bits = np.array([1 << j for j in range(q)], dtype)
        np.bitwise_or.at(keep, (incompatible, np.arange(runs * entries).reshape(runs * t, 1, k)), bits[:, None])
        # run i's variable v has key i * n + v; numpy's stable sort is a radix
        # sort for 8- and 16-bit integers, so sort in the narrowest dtype
        # holding the keys.  A lone run offsets nothing.
        keys = flat.astype(np.min_scalar_type(runs * n - 1))
        if runs > 1:
            keys += np.arange(0, runs * n, n, dtype=keys.dtype).repeat(entries)
        order = keys.argsort(kind="stable")
        starts = keys[order].searchsorted(np.arange(0, runs * n, n)[:, None] + np.arange(n + 1))
        del keys  # let it go before the lists are built
        if runs > 1:  # each run's positions, counted from its first
            starts -= (np.arange(runs) * entries)[:, None]
            order -= (np.arange(runs) * entries).repeat(entries)
        scopes, order, full = memoryview(flat), memoryview(order), (1 << q) - 1
        starts, keep = starts.tolist(), keep.reshape(d, runs, entries).transpose(1, 0, 2).tolist()
        return [cls(n=n, k=k,
                    scopes=scopes[i * entries : i * entries + entries],
                    var_start=starts[i],
                    var_entries=order[i * entries : i * entries + entries],
                    keep=keep[i],
                    masks=[full] * t,
                    free=[k] * t,
                    live=t,
                    units=[],
                    unset=list(range(n)),
                    value_of=[-1] * n)
                for i in range(runs)]


def reduce_after_assignment(state: UCState, var: int, value: int) -> None:
    """Assign ``var <- value`` and reduce every live constraint containing var.

    Raises ValueError if var is assigned or outside [0, n), and
    EmptyConstraintSignal if some constraint ends with an empty scope and
    surviving forbidden tuples.
    """
    unset = state.unset
    idx = bisect_left(unset, var)
    if idx == len(unset) or unset[idx] != var:
        raise ValueError(f"variable {var} is assigned or outside [0, {state.n})")
    del unset[idx]
    state.value_of[var] = value
    k, masks, free, units, keep = state.k, state.masks, state.free, state.units, state.keep[value]
    for f in state.var_entries[state.var_start[var]:state.var_start[var + 1]]:
        cid = f // k
        mask = masks[cid]
        if not mask:
            continue
        mask &= keep[f]
        left = free[cid] - 1
        if not mask:
            # value never forbidden at var's position: constraint satisfied
            masks[cid] = 0
            state.live -= 1
            if not left:
                del units[bisect_left(units, cid)]
            continue
        if not left:
            raise EmptyConstraintSignal(var, value, cid)
        masks[cid] = mask
        free[cid] = left
        if left == 1:
            insort(units, cid)


@dataclass(frozen=True)
class UCOutcome:
    """A run's tag, its verified assignment on SOLUTION_FOUND, and on UNKNOWN
    the (var, value, cid) whose assignment emptied constraint cid."""

    tag: str
    assignment: tuple[int, ...] | None = None
    conflict: tuple[int, int, int] | None = None

    @property
    def found(self) -> bool:
        return self.tag == SOLUTION_FOUND


def _violated(scopes: np.ndarray, incompatible: np.ndarray, assignment) -> np.ndarray:
    """For each row of (scopes, incompatible), whether the complete
    ``assignment`` gives its scope one of its forbidden tuples."""
    values = np.asarray(assignment, dtype=np.uint64)
    return (incompatible == values[scopes][:, None, :]).all(axis=2).any(axis=1)


def _words(stream: Stream, chunk: int, first: Iterator[int]) -> Iterator[int]:
    """The words of ``first``, then of ``stream.next_u64``, computed
    ``chunk`` at a time; an iterator over a list lets the list go once
    it is taken."""
    yield from first
    while True:
        yield from stream.next_block(chunk).tolist()


def prepare(batch: list[Instance], seeds: list[SeedSpec], label: str = "uc") -> list:
    """What the runs on ``batch`` (all of one strict Params), run i on
    ``seeds[i]``'s ``label`` stream, build before their loops: per run its
    ``UCState`` and its words, whose first chunk of min(2n, ``WORD_CHUNK``)
    comes from one ``rng.words_at`` over all the streams' states, each
    stream left after its chunk.  Each entry serves one run.  Raises
    ValueError for q >= d, a batch of mixed Params or not one seed per
    instance, and, through ``check_uc_size``, for one run's state over
    ``generator.MAX_INSTANCE_BYTES``."""
    params = batch[0].params
    if not params.strict:
        raise ValueError(f"unit-constraint heuristic requires q < d, got q={params.q}, d={params.d}")
    if any(inst.params != params for inst in batch):
        raise ValueError("a batch's instances must share one Params")
    check_uc_size(params)
    runs = UCState.of_batch(batch)
    chunk = min(2 * params.n, WORD_CHUNK)
    streams = [seed.stream(label) for seed in seeds]
    states = np.array([stream.state for stream in streams], dtype=np.uint64)[:, None]
    first = words_at(states, np.arange(1, chunk + 1, dtype=np.uint64)).tolist()
    for stream in streams:
        stream.skip(chunk)
    return [(state, _words(stream, chunk, iter(words)))
            for state, stream, words in zip(runs, streams, first, strict=True)]


def run_uc(inst: Instance, seed: SeedSpec, label: str = "uc", prepared=None) -> UCOutcome:
    """One randomized run; SOLUTION_FOUND outcomes carry a verified
    assignment.  ``prepared``, the entry of ``prepare(batch, seeds, label)``
    for ``inst`` and ``seed``, replaces building the state and first words
    here, where ``run_uc`` prepares a batch of one."""
    if prepared is None:
        (prepared,) = prepare([inst], [seed], label)
    state, words = prepared
    params = inst.params
    d, k = params.d, params.k
    scopes, keep, masks, units, unset, value_of = (
        state.scopes, state.keep, state.masks, state.units, state.unset, state.value_of)
    try:
        while state.live:
            if units:
                cid = units[below(len(units), words)]
                f = cid * k
                while value_of[scopes[f]] >= 0:
                    f += 1
                mask = masks[cid]
                allowed = [v for v in range(d) if not mask & keep[v][f]]
                var, value = scopes[f], allowed[below(len(allowed), words)]
            else:
                var = unset[below(len(unset), words)]
                value = below(d, words)
            reduce_after_assignment(state, var, value)
    except EmptyConstraintSignal as empty:
        return UCOutcome(UNKNOWN, conflict=empty.args)

    for var in unset:
        value_of[var] = below(d, words)
    if _violated(inst.scopes, inst.incompatible, value_of).any():
        raise RuntimeError("unit-constraint run produced an unsatisfying assignment (bug)")
    return UCOutcome(SOLUTION_FOUND, tuple(value_of))


def uc_success_rate(params, trials: int, master_seed: int) -> float:
    """Fraction of trials certifying a solution; one fresh instance and one
    fresh run per trial, on decorrelated streams: the uc records of
    ``harness.run_point`` on the stream labels "instance" and "uc"."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_uc_size(params)
    from .harness import run_point  # harness imports this module

    records = run_point(params, trials, master_seed, ("uc",), instance_label="instance", uc_label="uc")
    return sum(1 for rec in records if rec[3]) / trials
