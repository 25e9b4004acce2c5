import hashlib
import itertools
import tracemalloc

import pytest
from reference import reference_run_uc

from gbcsp import generator, uc
from gbcsp.generator import sample_instance
from gbcsp.model import ConstraintSpec, Instance, Params, is_consistent, violated_rows
from gbcsp.oracle import random_strict_params
from gbcsp.rng import SeedSpec, below
from gbcsp.uc import (
    SOLUTION_FOUND,
    UNKNOWN,
    EmptyConstraintSignal,
    UCState,
    _words,
    check_uc_size,
    reduce_after_assignment,
    run_uc,
    uc_success_rate,
)


def build(n, d, constraints, q=None):
    k = len(constraints[0][0])
    q = len(constraints[0][1]) if q is None else q
    params = Params(n=n, d=d, k=k, t=len(constraints), q=q)
    return Instance(
        params,
        tuple(ConstraintSpec(s, frozenset(tups)) for s, tups in constraints),
    )


def reduced(state):
    """{cid: (remaining scope, projected forbidden tuples)} for every live
    constraint, rebuilt from the flat state: the surviving tuples are the
    mask's bits, projected onto the positions of unassigned variables, where
    tuple j's value at flat position f is the row v of ``keep`` with bit j
    set at f."""
    k, d = state.k, len(state.keep)
    out = {}
    for cid, mask in enumerate(state.masks):
        if not mask:
            continue
        cells = [f for f in range(cid * k, (cid + 1) * k) if state.value_of[state.scopes[f]] < 0]
        tuples = set()
        for j in range(mask.bit_length()):
            if mask >> j & 1:
                value_at = [[v for v in range(d) if state.keep[v][f] >> j & 1] for f in cells]
                assert all(len(values) == 1 for values in value_at)
                tuples.add(tuple(values[0] for values in value_at))
        out[cid] = ([state.scopes[f] for f in cells], tuples)
    assert len(out) == state.live
    assert all(state.free[cid] == len(scope) for cid, (scope, _) in out.items())
    assert state.units == sorted(cid for cid, (scope, _) in out.items() if len(scope) == 1)
    return out


class TestReduce:
    def test_keep_and_project_to_unit(self):
        inst = build(2, 2, [((0, 1), {(0, 0), (1, 1)})])
        state = UCState.from_instance(inst)
        reduce_after_assignment(state, 0, 0)
        scope, tuples = reduced(state)[0]
        assert scope == [1]
        assert tuples == {(0,)}
        assert state.units == [0]

    def test_full_trace_serving_the_unit(self):
        # variable 0 <- 0 keeps the constraint as a unit forbidding value 0
        # of variable 1; serving it forces 1 <- 1, which removes it
        inst = build(2, 2, [((0, 1), {(0, 0)})])
        state = UCState.from_instance(inst)
        reduce_after_assignment(state, 0, 0)
        assert reduced(state)[0] == ([1], {(0,)})
        # variable 1 sits at flat position 1; run_uc's allowed values there
        mask = state.masks[0]
        allowed = [v for v in range(2) if not mask & state.keep[v][1]]
        assert allowed == [1]  # the only satisfying value
        reduce_after_assignment(state, 1, 1)
        assert reduced(state) == {}
        assert state.value_of == [0, 1]

    def test_value_absent_removes_constraint(self):
        inst = build(2, 2, [((0, 1), {(1, 1)})])
        state = UCState.from_instance(inst)
        reduce_after_assignment(state, 0, 0)
        assert reduced(state) == {}
        assert state.units == []

    def test_unit_hit_raises_empty_signal(self):
        # 0 <- 0 leaves a unit forbidding value 0 of variable 1
        state = UCState.from_instance(build(2, 2, [((0, 1), {(0, 0)})]))
        reduce_after_assignment(state, 0, 0)
        assert reduced(state) == {0: ([1], {(0,)})}
        with pytest.raises(EmptyConstraintSignal) as empty:
            reduce_after_assignment(state, 1, 0)
        assert empty.value.args == (1, 0, 0)
        assert str(empty.value) == "constraint 0 emptied by 1 <- 0"

    def test_two_units_one_variable_conflict(self):
        # serving one unit forces a value the other forbids
        inst = build(2, 2, [((0, 1), {(0, 0)}), ((0, 1), {(0, 1)})])
        state = UCState.from_instance(inst)
        reduce_after_assignment(state, 0, 0)
        assert len(state.units) == 2
        live = reduced(state)
        bans = sorted(next(iter(tuples))[0] for _, tuples in live.values())
        assert bans == [0, 1]
        # variable 1 sits at flat position 2 * cid + 1 of both units
        assert [[v for v in range(2) if not state.masks[cid] & state.keep[v][2 * cid + 1]]
                for cid in state.units] == [[1], [0]]
        # satisfies the first unit, empties the second
        with pytest.raises(EmptyConstraintSignal) as empty:
            reduce_after_assignment(state, 1, 1)
        assert empty.value.args == (1, 1, 1)

    @pytest.mark.parametrize("var", [0, 2, -1])
    def test_assign_rejects_assigned_and_unknown_variables(self, var):
        state = UCState.from_instance(build(2, 2, [((0, 1), {(0, 0)})]))
        reduce_after_assignment(state, 0, 1)
        with pytest.raises(ValueError, match="is assigned or outside"):
            reduce_after_assignment(state, var, 0)
        assert (state.unset, state.value_of) == ([1], [1, -1])

    def test_arity_never_increases(self, param_stream):
        for trial in range(20):
            params = random_strict_params(param_stream, max_n=5)
            if params.t == 0:
                continue
            inst = sample_instance(params, SeedSpec(313, trial))
            state = UCState.from_instance(inst)
            arity = {cid: len(scope) for cid, (scope, _) in reduced(state).items()}
            for var in range(params.n):
                value = param_stream.randbelow(params.d)
                try:
                    reduce_after_assignment(state, var, value)
                except EmptyConstraintSignal:
                    break
                for cid, (scope, _) in reduced(state).items():
                    assert len(scope) <= arity[cid]
                    arity[cid] = len(scope)


class TestReductionSemantics:
    def test_reduced_set_equivalent_to_original(self, param_stream):
        # solutions of the reduced constraints == restrictions of original
        # solutions agreeing with the assigned prefix (brute force, n <= 5)
        checked = 0
        trial = 0
        while checked < 20:
            trial += 1
            params = random_strict_params(param_stream, max_n=5, t_factor=2)
            if params.t == 0:
                continue
            inst = sample_instance(params, SeedSpec(414, trial))
            state = UCState.from_instance(inst)
            n_assign = 1 + param_stream.randbelow(params.n - 1)
            assigned = {}
            failed = False
            for var in range(n_assign):
                value = param_stream.randbelow(params.d)
                assigned[var] = value
                try:
                    reduce_after_assignment(state, var, value)
                except EmptyConstraintSignal:
                    failed = True
                    break
            if failed:
                continue
            checked += 1
            live = reduced(state)
            rest = [v for v in range(params.n) if v not in assigned]
            for completion in itertools.product(range(params.d), repeat=len(rest)):
                full = list(range(params.n))
                for v, a in assigned.items():
                    full[v] = a
                for v, a in zip(rest, completion):
                    full[v] = a
                reduced_ok = all(
                    tuple(full[v] for v in scope) not in tuples
                    for scope, tuples in live.values()
                )
                assert reduced_ok == is_consistent(inst, tuple(full))


class TestRunUC:
    def test_single_constraint_always_certifies(self):
        inst = build(2, 2, [((0, 1), {(0, 0)})])
        for trial in range(200):
            out = run_uc(inst, SeedSpec(515, trial))
            assert out.tag == SOLUTION_FOUND
            assert out.assignment != (0, 0)
            assert is_consistent(inst, out.assignment)

    def test_conflicting_units_sometimes_unknown(self):
        # var 0 drawn first with value 0 (probability 1/4) produces the
        # two-unit conflict; everything else certifies
        inst = build(2, 2, [((0, 1), {(0, 0)}), ((0, 1), {(0, 1)})])
        outcomes = [run_uc(inst, SeedSpec(616, trial)) for trial in range(400)]
        unknowns = sum(1 for o in outcomes if o.tag == UNKNOWN)
        assert 0.16 < unknowns / 400 < 0.34
        for o in outcomes:
            if o.tag == SOLUTION_FOUND:
                assert is_consistent(inst, o.assignment)
            else:
                assert o.assignment is None

    def test_t_zero_certifies_with_random_assignment(self):
        inst = Instance(Params(n=4, d=3, k=2, t=0, q=1), ())
        out = run_uc(inst, SeedSpec(1, 0))
        assert out.tag == SOLUTION_FOUND
        assert len(out.assignment) == 4
        assert all(0 <= v < 3 for v in out.assignment)

    def test_non_strict_rejected(self):
        inst = build(3, 2, [((0, 1), {(0, 0), (1, 1)})])
        with pytest.raises(ValueError, match="q < d"):
            run_uc(inst, SeedSpec(1, 0))

    def test_soundness_on_random_instances(self, param_stream):
        for trial in range(100):
            params = random_strict_params(param_stream, max_n=8)
            inst = sample_instance(params, SeedSpec(717, trial))
            out = run_uc(inst, SeedSpec(718, trial))
            if out.tag == SOLUTION_FOUND:
                assert is_consistent(inst, out.assignment)

    def test_determinism(self):
        params = Params(n=12, d=3, k=2, t=15, q=2)
        inst = sample_instance(params, SeedSpec(819, 0))
        a = run_uc(inst, SeedSpec(819, 0))
        b = run_uc(inst, SeedSpec(819, 0))
        assert a == b


class TestSuccessRate:
    def test_t_zero_rate_is_one(self):
        assert uc_success_rate(Params(n=5, d=2, k=2, t=0, q=1), 50, 3) == 1.0

    def test_low_density_bounded_away_from_zero(self):
        # d=2, k=3, p=1/8: density 2 sits below the heuristic's bound 8/3
        rate = uc_success_rate(Params(n=100, d=2, k=3, t=200, q=1), 2000, 42)
        assert rate > 0.3

    def test_high_density_near_zero(self):
        # density 8 is far above the unsatisfiability threshold ~5.19
        rate = uc_success_rate(Params(n=100, d=2, k=3, t=800, q=1), 2000, 42)
        assert rate < 0.05


@pytest.mark.parametrize("params, seed, found, digest", [
    (Params(n=2000, d=2, k=3, t=4000, q=1), 11, 9,
     "42b154b4f8fb7034785315d0a84010ed636ff40f92abf3e36b3eba2b296e6ab2"),
    (Params(n=2000, d=2, k=3, t=5200, q=1), 12, 2,
     "081b5ba8dcca21f735233d9173d80042d047823a6f8c7964745a5cc15cc3a462"),
    (Params(n=300, d=3, k=2, t=300, q=2), 13, 7,
     "ffc3bf15e533bc674f2f2f4307b9874e644e3cf942d0bf646082e1ec9a4e2ca4"),
    # q=3 over k=3: forbidden sets keep several tuples through two
    # reductions, and units then ban two or three values
    (Params(n=60, d=4, k=3, t=240, q=3), 14, 9,
     "b68b8535fa57deec589d36428563cc625bebfa9f31658c7dbb8e84379d74d4b1"),
], ids=["n2000-t4000", "n2000-t5200", "n300-d3-k2", "n60-d4-k3-q3"])
def test_pinned_outcomes(params, seed, found, digest):
    # sha256 over the tags and assignments of 20 runs on fresh instances
    h = hashlib.sha256()
    tags = []
    for trial in range(20):
        spec = SeedSpec(seed, trial)
        out = run_uc(sample_instance(params, spec), spec)
        tags.append(out.tag)
        h.update(f"{out.tag} {out.assignment}\n".encode("utf-8"))
    assert tags.count(SOLUTION_FOUND) == found
    assert h.hexdigest() == digest


def test_array_recheck_agrees_with_is_consistent(param_stream):
    seen = {True: 0, False: 0}
    for trial in range(60):
        params = random_strict_params(param_stream, max_n=6, t_factor=4)
        inst = sample_instance(params, SeedSpec(919, trial))
        for _ in range(10):
            values = tuple(param_stream.randbelow(params.d) for _ in range(params.n))
            expected = is_consistent(inst, values)
            violated = violated_rows(inst.scopes, inst.incompatible, values, params.n, params.d)
            assert (not violated.any()) == expected
            seen[expected] += 1
    assert min(seen.values()) > 50


def test_complete_check_agrees_with_violated_rows():
    # run_uc's final check, row by row, on random complete assignments of
    # strict and non-strict instances
    stream = SeedSpec(921, 0).stream("complete-check")
    seen = {True: 0, False: 0}
    for trial in range(80):
        d = 2 + stream.randbelow(3)
        k = 2 + stream.randbelow(2)
        n = k + stream.randbelow(5)
        q = 1 + stream.randbelow(d - 1 if trial % 2 else d**k)
        params = Params(n=n, d=d, k=k, t=stream.randbelow(4 * n + 1), q=q)
        inst = sample_instance(params, SeedSpec(921, trial))
        for _ in range(8):
            values = [stream.randbelow(d) for _ in range(n)]
            rows = uc._violated(inst.scopes, inst.incompatible, values).tolist()
            assert rows == violated_rows(inst.scopes, inst.incompatible, values, n, d).tolist()
            for row in rows:
                seen[row] += 1
    assert min(seen.values()) > 100


def test_an_assignment_that_breaks_a_constraint_raises(monkeypatch):
    # with the reduction skipped and every draw 0, the one free round ends
    # the run and both variables are left at 0, which (0, 0) forbids
    inst = build(2, 2, [((0, 1), {(0, 0)})])
    monkeypatch.setattr(uc, "reduce_after_assignment", lambda state, var, value: setattr(state, "live", 0))
    monkeypatch.setattr(uc, "below", lambda bound, words: 0)
    with pytest.raises(RuntimeError, match=r"^unit-constraint run produced an unsatisfying assignment \(bug\)$"):
        run_uc(inst, SeedSpec(1, 0))


def test_unknown_names_the_emptied_constraint():
    # var 0 <- 0 leaves two units on variable 1, banning 0 (cid 0) and 1
    # (cid 1); serving either empties the other or itself first in cid order
    inst = build(2, 2, [((0, 1), {(0, 0)}), ((0, 1), {(0, 1)})])
    conflicts = set()
    for trial in range(400):
        out = run_uc(inst, SeedSpec(616, trial))
        if out.tag == UNKNOWN:
            var, value, cid = out.conflict
            conflicts.add(out.conflict)
            # the emptied constraint forbids the values its scope was given
            assert inst.constraints[cid].incompatible == {(0, value)}
        else:
            assert out.conflict is None
    assert conflicts == {(1, 0, 0), (1, 1, 1)}


def _random_strict(stream):
    d = 2 + stream.randbelow(5)
    k = 2 + stream.randbelow(3)
    n = k + stream.randbelow(41 - k)
    return Params(n=n, d=d, k=k, t=stream.randbelow(6 * n + 1), q=1 + stream.randbelow(d - 1))


def _same_as_reference(inst, spec):
    out = run_uc(inst, spec)
    assert (out.tag, out.assignment, out.conflict) == reference_run_uc(inst, spec)
    return out.tag


def test_matches_the_reference_on_random_strict_sets():
    """Keep rows, the value list and chunked words give the outcome of the
    digit loop, the dict and one scalar word at a time, draw for draw."""
    stream = SeedSpec(23, 0).stream("uc-reference")
    tags = [_same_as_reference(sample_instance(params, SeedSpec(23, trial)), SeedSpec(24, trial))
            for trial, params in enumerate(_random_strict(stream) for _ in range(3000))]
    assert min(tags.count(SOLUTION_FOUND), tags.count(UNKNOWN)) > 500


def test_matches_the_reference_at_scale():
    # uc_large's parameters: the runs cross chunks of WORD_CHUNK words
    params = Params(n=16000, d=2, k=3, t=32000, q=1)
    tags = {_same_as_reference(sample_instance(params, SeedSpec(25, trial)), SeedSpec(25, trial))
            for trial in range(5)}
    assert SOLUTION_FOUND in tags


@pytest.mark.parametrize("q", [63, 64, 65, 80])
def test_matches_the_reference_on_wide_masks(q):
    # from q = 64 on the rows are uint64, then Python ints
    params = Params(n=30, d=100, k=2, t=150, q=q)
    tags = {_same_as_reference(sample_instance(params, SeedSpec(26, trial)), SeedSpec(26, trial))
            for trial in range(8)}
    assert tags == {SOLUTION_FOUND, UNKNOWN}


def test_chunked_words_match_randbelow():
    # 2**63 + 1 rejects about half of all words, so rejections fall across
    # the 7-word chunk boundaries
    bound = 2**63 + 1
    source = _words(SeedSpec(2024, 0).stream("chunks"), 7)
    taken = []

    def counted():
        for word in source:
            taken.append(word)
            yield word

    words = counted()
    fresh = SeedSpec(2024, 0).stream("chunks")
    assert [below(bound, words) for _ in range(200)] == [fresh.randbelow(bound) for _ in range(200)]
    assert 300 < len(taken) < 500
    assert next(source) == fresh.next_u64()


def test_run_refuses_state_over_the_budget_before_building(monkeypatch):
    params = Params(n=16000, d=2, k=3, t=32000, q=1)
    inst = sample_instance(params, SeedSpec(3, 0))
    monkeypatch.setattr(generator, "MAX_INSTANCE_BYTES", 10**6)
    for call in (lambda: run_uc(inst, SeedSpec(3, 0)), lambda: uc_success_rate(params, 5, 3)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^n=16000, t=32000 needs 5446144 bytes of "
                                                 "unit-constraint state, over the budget of 1000000$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize("params", [
    Params(n=16000, d=2, k=3, t=32000, q=1),
    Params(n=100000, d=2, k=2, t=10, q=1),
    Params(n=50, d=5, k=5, t=20000, q=4),
    Params(n=2000, d=10, k=3, t=8000, q=9),
    Params(n=300, d=100, k=2, t=2000, q=80),
], ids=["uc_large", "many-variables", "many-entries", "q9", "object-rows"])
def test_charge_covers_a_run_traced_peak(params, monkeypatch):
    inst = sample_instance(params, SeedSpec(27, 0))
    tracemalloc.start()
    try:
        run_uc(inst, SeedSpec(27, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(generator, "MAX_INSTANCE_BYTES", peak - 1)
    with pytest.raises(ValueError, match="bytes of unit-constraint state"):
        check_uc_size(params)
