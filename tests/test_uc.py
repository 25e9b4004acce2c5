import hashlib
import itertools

import pytest

from gbcsp.generator import sample_instance
from gbcsp.model import ConstraintSpec, Instance, Params, is_consistent, violated_rows
from gbcsp.oracle import random_strict_params
from gbcsp.rng import SeedSpec
from gbcsp.uc import (
    SOLUTION_FOUND,
    UNKNOWN,
    EmptyConstraintSignal,
    UCState,
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
    mask's bits, projected onto the positions of unassigned variables."""
    k, q = state.k, state.q
    out = {}
    for cid, mask in enumerate(state.masks):
        if not mask:
            continue
        cells = [f for f in range(cid * k, (cid + 1) * k) if state.scopes[f] not in state.assigned]
        tuples = {
            tuple(state.digits[f * q + j] for f in cells) for j in range(q) if mask >> j & 1
        }
        out[cid] = ([state.scopes[f] for f in cells], tuples)
    assert len(out) == state.live
    assert all(state.free[cid] == len(scope) for cid, (scope, _) in out.items())
    assert state.units == sorted(cid for cid, (scope, _) in out.items() if len(scope) == 1)
    return out


class TestReduce:
    def test_keep_and_project_to_unit(self):
        inst = build(2, 2, [((0, 1), {(0, 0), (1, 1)})])
        state = UCState.from_instance(inst)
        state.assign(0, 0)
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
        state.assign(0, 0)
        reduce_after_assignment(state, 0, 0)
        assert reduced(state)[0] == ([1], {(0,)})
        var, banned = state.unit(0)
        assert (var, banned) == (1, {0})
        allowed = [v for v in range(2) if v not in banned]
        assert allowed == [1]  # the only satisfying value
        state.assign(1, 1)
        reduce_after_assignment(state, 1, 1)
        assert reduced(state) == {}
        assert state.assigned == {0: 0, 1: 1}

    def test_value_absent_removes_constraint(self):
        inst = build(2, 2, [((0, 1), {(1, 1)})])
        state = UCState.from_instance(inst)
        state.assign(0, 0)
        reduce_after_assignment(state, 0, 0)
        assert reduced(state) == {}
        assert state.units == []

    def test_unit_hit_raises_empty_signal(self):
        # 0 <- 0 leaves a unit forbidding value 0 of variable 1
        state = UCState.from_instance(build(2, 2, [((0, 1), {(0, 0)})]))
        state.assign(0, 0)
        reduce_after_assignment(state, 0, 0)
        assert reduced(state) == {0: ([1], {(0,)})}
        state.assign(1, 0)
        with pytest.raises(EmptyConstraintSignal):
            reduce_after_assignment(state, 1, 0)

    def test_two_units_one_variable_conflict(self):
        # serving one unit forces a value the other forbids
        inst = build(2, 2, [((0, 1), {(0, 0)}), ((0, 1), {(0, 1)})])
        state = UCState.from_instance(inst)
        state.assign(0, 0)
        reduce_after_assignment(state, 0, 0)
        assert len(state.units) == 2
        live = reduced(state)
        bans = sorted(next(iter(tuples))[0] for _, tuples in live.values())
        assert bans == [0, 1]
        assert [state.unit(cid) for cid in state.units] == [(1, {0}), (1, {1})]
        state.assign(1, 1)  # satisfies the first unit, empties the second
        with pytest.raises(EmptyConstraintSignal):
            reduce_after_assignment(state, 1, 1)

    @pytest.mark.parametrize("var", [0, 2, -1])
    def test_assign_rejects_assigned_and_unknown_variables(self, var):
        state = UCState.from_instance(build(2, 2, [((0, 1), {(0, 0)})]))
        state.assign(0, 1)
        with pytest.raises(ValueError, match="is assigned or outside"):
            state.assign(var, 0)
        assert (state.unset, state.assigned) == ([1], {0: 1})

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
                state.assign(var, value)
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
                state.assign(var, value)
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
