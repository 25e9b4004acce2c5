import numpy as np
import pytest

from gbcsp import generator
from gbcsp.generator import sample_instance
from gbcsp.model import (
    ConstraintSpec,
    Instance,
    Params,
    dumps_instance,
    instance_from_doc,
    instance_to_doc,
    is_consistent,
    is_violated,
    loads_instance,
)
from gbcsp.oracle import random_strict_params
from gbcsp.rng import SeedSpec
from reference import one_constraint, sample_constraint


class TestParams:
    def test_derived_quantities(self):
        p = Params(n=10, d=3, k=2, t=10, q=2)
        assert p.p == pytest.approx(2 / 9)
        assert p.r == 1.0
        assert p.strict

    def test_boundary_of_strictness(self):
        p = Params(n=10, d=2, k=3, t=5, q=2)
        assert not p.strict  # q == d

    def test_arity_exceeds_variables(self):
        with pytest.raises(ValueError, match="arity exceeds"):
            Params(n=3, d=2, k=4, t=1, q=1)

    def test_degenerate_domain(self):
        with pytest.raises(ValueError, match="degenerate domain"):
            Params(n=3, d=1, k=2, t=1, q=1)

    def test_empty_relation(self):
        with pytest.raises(ValueError, match=r"^empty relation: q=5 > d\^k=4$"):
            Params(n=3, d=2, k=2, t=1, q=5)

    def test_huge_arity_needs_no_power(self):
        # q < 2**k settles q <= d**k without writing out 3**16000000
        assert Params(n=16_000_000, d=3, k=16_000_000, t=1, q=1).q == 1

    def test_tightness_is_q_over_d_to_the_k(self):
        # k on both sides of where Params.p returns 0.0 without dividing
        for d in (2, 3, 4, 5, 7, 8, 9, 16, 17):
            cut = 1076 // (d.bit_length() - 1)
            for k in (2, 3, 7, *range(max(2, cut - 3), cut + 4)):
                for q in sorted({1, 2, d - 1, d, d**2 - 1}):
                    params = Params(n=k, d=d, k=k, t=1, q=q)
                    assert params.p == q / d**k, (d, k, q)

    def test_tightness_underflow_needs_no_power(self):
        assert Params(n=4_000_000, d=3, k=4_000_000, t=1, q=1).p == 0.0

    def test_zero_tightness(self):
        with pytest.raises(ValueError, match="zero tightness"):
            Params(n=3, d=2, k=2, t=1, q=0)

    def test_negative_t_and_bad_types(self):
        with pytest.raises(ValueError):
            Params(n=3, d=2, k=2, t=-1, q=1)
        with pytest.raises(TypeError):
            Params(n=3.0, d=2, k=2, t=1, q=1)


class TestViolation:
    def test_open_scope_not_violated(self):
        c = ConstraintSpec((0, 1), frozenset({(0, 0)}))
        assert not is_violated(c, (0,), d=2)

    def test_completed_forbidden_tuple(self):
        c = ConstraintSpec((0, 1), frozenset({(0, 0)}))
        assert is_violated(c, (0, 0), d=2)
        assert not is_violated(c, (0, 1), d=2)

    def test_non_strict_partial_violation(self):
        c = ConstraintSpec((0, 1), frozenset({(0, 0), (0, 1)}))
        assert is_violated(c, (0,), d=2)
        assert not is_violated(c, (1,), d=2)

    def test_scope_order_matters_for_tuples(self):
        c = ConstraintSpec((1, 0), frozenset({(0, 1)}))
        # tuple position 0 belongs to variable 1
        assert is_violated(c, (1, 0), d=2)
        assert not is_violated(c, (0, 1), d=2)

    def test_violation_is_monotone_under_extension(self, param_stream):
        for trial in range(30):
            params = random_strict_params(param_stream)
            inst = sample_instance(params, SeedSpec(555, trial))
            values = tuple(
                param_stream.randbelow(params.d) for _ in range(params.n)
            )
            for c in inst.constraints:
                seen = False
                for depth in range(params.n + 1):
                    now = is_violated(c, values[:depth], params.d)
                    assert now or not seen
                    seen = now

    def test_strict_never_violated_below_arity(self, param_stream):
        for trial in range(30):
            params = random_strict_params(param_stream)
            inst = sample_instance(params, SeedSpec(556, trial))
            for c in inst.constraints:
                for depth in range(params.k):
                    values = tuple(param_stream.randbelow(params.d) for _ in range(depth))
                    assert not is_violated(c, values, params.d)


class TestConsistency:
    def test_no_constraints(self):
        inst = Instance(Params(n=2, d=2, k=2, t=0, q=1), ())
        assert is_consistent(inst, ())
        assert is_consistent(inst, (1, 0))

    def test_single_constraint(self):
        inst = one_constraint((0, 1), {(0, 0)}, n=2, d=2)
        assert not is_consistent(inst, (0, 0))
        assert is_consistent(inst, (1,))
        assert is_consistent(inst, ())

    def test_empty_assignment_consistent_when_some_tuple_allowed(self, param_stream):
        # holds whenever q < d^k; q = d^k (nothing allowed) is the one exception
        for trial in range(20):
            params = random_strict_params(param_stream)
            inst = sample_instance(params, SeedSpec(558, trial))
            assert is_consistent(inst, ())


class TestConstructionInvariants:
    def test_scope_must_be_distinct(self):
        with pytest.raises(ValueError, match="repeated"):
            ConstraintSpec((0, 0), frozenset({(0, 1)}))

    def test_values_normalised_to_int(self):
        np = pytest.importorskip("numpy")
        c = ConstraintSpec(np.array([2, 0]), frozenset({tuple(np.array([1, 0]))}))
        assert c == ConstraintSpec((2, 0), frozenset({(1, 0)}))
        assert all(type(v) is int for v in c.scope)
        assert all(type(a) is int for t in c.incompatible for a in t)

    @pytest.mark.parametrize("scope, tuples", [
        ((0, 1.7), {(0, 1)}),
        ((0, 1), {(0, 1.9)}),
        ((0, True), {(0, 1)}),
        ((0, 1), {(False, 1)}),
        (("0", 1), {(0, 1)}),
    ])
    def test_non_integral_entries_rejected(self, scope, tuples):
        with pytest.raises(ValueError, match="constraint entries must be ints"):
            ConstraintSpec(scope, frozenset(tuples))

    def test_tuple_arity_checked(self):
        with pytest.raises(ValueError, match="arity"):
            ConstraintSpec((0, 1), frozenset({(0,)}))

    def test_instance_checks_counts_and_ranges(self):
        params = Params(n=3, d=2, k=2, t=1, q=1)
        with pytest.raises(ValueError, match="expected t="):
            Instance(params, ())
        with pytest.raises(ValueError, match="outside"):
            Instance(params, (ConstraintSpec((0, 5), frozenset({(0, 0)})),))
        with pytest.raises(ValueError, match="expected q="):
            Instance(params, (ConstraintSpec((0, 1), frozenset({(0, 0), (1, 1)})),))
        with pytest.raises(ValueError, match="outside"):
            Instance(params, (ConstraintSpec((0, 1), frozenset({(0, 3)})),))
        with pytest.raises(ValueError, match=r"^scope variable 1180591620717411303424 outside"):
            Instance(params, (ConstraintSpec((0, 2**70), frozenset({(0, 0)})),))


class TestSerialization:
    def test_round_trip_identity(self, param_stream):
        for trial in range(20):
            params = random_strict_params(param_stream)
            inst = sample_instance(params, SeedSpec(777, trial))
            text = dumps_instance(inst)
            again = loads_instance(text)
            assert again == inst
            assert dumps_instance(again) == text

    def test_doc_shape_and_sorted_tuples(self):
        inst = one_constraint((2, 0), {(1, 0), (0, 1)}, n=3, d=2)
        doc = instance_to_doc(inst)
        assert set(doc) == {"n", "d", "k", "constraints"}
        entry = doc["constraints"][0]
        assert entry["scope"] == [2, 0]
        assert entry["incompatible"] == [[0, 1], [1, 0]]

    def test_empty_instance_reloads(self):
        inst = Instance(Params(n=4, d=3, k=2, t=0, q=2), ())
        again = loads_instance(dumps_instance(inst))
        assert again.params.t == 0
        assert again.params.n == 4

    def test_mixed_q_rejected(self):
        doc = {
            "n": 3,
            "d": 2,
            "k": 2,
            "constraints": [
                {"scope": [0, 1], "incompatible": [[0, 0]]},
                {"scope": [1, 2], "incompatible": [[0, 0], [1, 1]]},
            ],
        }
        with pytest.raises(ValueError, match="disagree"):
            instance_from_doc(doc)


def _doc():
    return {
        "n": 3,
        "d": 2,
        "k": 2,
        "constraints": [
            {"scope": [0, 1], "incompatible": [[0, 0]]},
            {"scope": [2, 1], "incompatible": [[1, 0]]},
        ],
    }


class TestStrictDocuments:
    def test_canonical_document_loads(self):
        inst = instance_from_doc(_doc())
        assert inst.params == Params(n=3, d=2, k=2, t=2, q=1)
        assert instance_to_doc(inst) == _doc()

    @pytest.mark.parametrize("key", ["n", "d", "k", "constraints"])
    def test_missing_top_level_key(self, key):
        doc = _doc()
        del doc[key]
        with pytest.raises(ValueError, match="instance document must have exactly the keys"):
            instance_from_doc(doc)

    def test_extra_top_level_key(self):
        doc = _doc()
        doc["extra"] = 1
        with pytest.raises(ValueError, match=r"got \['constraints', 'd', 'extra', 'k', 'n'\]"):
            instance_from_doc(doc)

    @pytest.mark.parametrize("key, value", [
        ("n", 3.9), ("n", 3.0), ("d", "2"), ("k", True), ("n", None),
    ])
    def test_non_int_parameters(self, key, value):
        doc = _doc()
        doc[key] = value
        with pytest.raises(ValueError, match=f"{key} must be an int"):
            instance_from_doc(doc)

    @pytest.mark.parametrize("entry, match", [
        ({"scope": [0, 1]}, "constraint 1 must have exactly the keys"),
        ({"scope": [0, 1], "incompatible": [[0, 0]], "w": 1}, "constraint 1 must have exactly"),
        ([[0, 1], [[0, 0]]], "constraint 1 must have exactly the keys"),
        ({"scope": [0, 1.0], "incompatible": [[0, 0]]}, "constraint 1 scope entry must be an int"),
        ({"scope": [0, False], "incompatible": [[0, 0]]}, "scope entry must be an int"),
        ({"scope": [0, 1], "incompatible": [[0, "1"]]}, "constraint 1 tuple entry must be an int"),
        ({"scope": "01", "incompatible": [[0, 0]]}, "constraint 1 must be a list"),
        ({"scope": [0, 1], "incompatible": [0]}, "constraint 1 must be a list"),
        ({"scope": [0, 1], "incompatible": [[1, 0], [0, 1], [1, 0]]},
         r"^constraint 1 repeats the forbidden tuple \[1, 0\]$"),
    ])
    def test_malformed_constraint(self, entry, match):
        doc = _doc()
        doc["constraints"][1] = entry
        with pytest.raises(ValueError, match=match):
            instance_from_doc(doc)

    def test_constraints_must_be_a_list(self):
        doc = _doc()
        doc["constraints"] = {}
        with pytest.raises(ValueError, match="constraints must be a list"):
            instance_from_doc(doc)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="got list"):
            loads_instance("[]")


@pytest.mark.parametrize("block_rows", [None, 4])
def test_every_way_in_gives_one_tuple_array(block_rows, monkeypatch):
    """Specs, a document and the sampler give the same read-only t x q x k
    uint64 array of forbidden tuples, each row in lexicographic order."""
    if block_rows is not None:
        monkeypatch.setattr(generator, "BLOCK_ROWS", block_rows)
    params = Params(n=7, d=3, k=3, t=11, q=5)
    spec = SeedSpec(4, 0)
    stream = spec.stream("instance")
    specs = [sample_constraint(params, stream) for _ in range(params.t)]
    doc = {"n": params.n, "d": params.d, "k": params.k, "constraints": [
        {"scope": list(c.scope), "incompatible": [list(tup) for tup in c.incompatible]}
        for c in specs
    ]}
    ways = [Instance(params, specs), instance_from_doc(doc), sample_instance(params, spec)]
    for inst in ways:
        tuples = inst.incompatible
        assert tuples.dtype == np.uint64
        assert tuples.shape == (params.t, params.q, params.k)
        assert not tuples.flags.writeable
        assert all(row == sorted(row) for row in tuples.tolist())
        assert np.array_equal(tuples, ways[0].incompatible)
    assert ways[0] == ways[1] == ways[2]
