import hashlib
import math
from collections import Counter

from gbcsp.generator import (
    _rank_to_tuple,
    sample_incompatible,
    sample_instance,
    sample_scope,
)
from gbcsp.model import Params, dumps_instance, is_violated
from gbcsp.rng import SeedSpec


def test_rank_decode_big_endian():
    assert _rank_to_tuple(0, 2, 3) == (0, 0, 0)
    assert _rank_to_tuple(1, 2, 3) == (0, 0, 1)
    assert _rank_to_tuple(4, 2, 3) == (1, 0, 0)
    assert _rank_to_tuple(7, 3, 2) == (2, 1)


def test_scope_forced_cases():
    s = SeedSpec(31, 0).stream()
    assert sorted(sample_scope(2, 2, s)) == [0, 1]
    assert sorted(sample_scope(5, 5, s)) == [0, 1, 2, 3, 4]


def test_scope_uniform_over_subsets():
    s = SeedSpec(32, 0).stream()
    draws = 100_000
    counts = Counter(frozenset(sample_scope(4, 2, s)) for _ in range(draws))
    assert len(counts) == 6
    expect = draws / 6
    sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
    for c in counts.values():
        assert abs(c - expect) < 4 * sigma


def test_incompatible_forced_full_set():
    s = SeedSpec(33, 0).stream()
    tuples = sample_incompatible(2, 2, 4, s)
    assert tuples == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})


def test_incompatible_uniform_single_tuple():
    s = SeedSpec(34, 0).stream()
    draws = 100_000
    counts = Counter(next(iter(sample_incompatible(2, 2, 1, s))) for _ in range(draws))
    assert len(counts) == 4
    expect = draws / 4
    sigma = math.sqrt(draws * (1 / 4) * (3 / 4))
    for c in counts.values():
        assert abs(c - expect) < 4 * sigma


def test_incompatible_subsets_uniform():
    # q=2 of 4 tuples: all 6 two-subsets equally likely
    s = SeedSpec(35, 0).stream()
    draws = 60_000
    counts = Counter(sample_incompatible(2, 2, 2, s) for _ in range(draws))
    assert len(counts) == 6
    expect = draws / 6
    sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
    for c in counts.values():
        assert abs(c - expect) < 4 * sigma


def test_instance_determinism_and_stream_separation():
    params = Params(n=8, d=3, k=2, t=6, q=2)
    a = sample_instance(params, SeedSpec(99, 3))
    b = sample_instance(params, SeedSpec(99, 3))
    c = sample_instance(params, SeedSpec(99, 4))
    assert a == b
    assert a != c


def test_trials_exchangeable():
    params = Params(n=6, d=2, k=2, t=4, q=1)
    later = sample_instance(params, SeedSpec(7, 5))
    earlier = sample_instance(params, SeedSpec(7, 2))
    assert later == sample_instance(params, SeedSpec(7, 5))
    assert earlier == sample_instance(params, SeedSpec(7, 2))


def test_t_zero_instance():
    params = Params(n=5, d=2, k=2, t=0, q=1)
    inst = sample_instance(params, SeedSpec(1, 0))
    assert inst.constraints == ()


def test_forced_scope_shape_with_duplicates_allowed():
    params = Params(n=2, d=2, k=2, t=3, q=1)
    inst = sample_instance(params, SeedSpec(5, 0))
    assert all(sorted(c.scope) == [0, 1] for c in inst.constraints)
    assert len(inst.constraints) == 3


def test_duplicates_not_removed():
    # with one possible scope and d^k=4 tuples, repeats are overwhelmingly
    # likely across 64 constraints; the list length must stay t
    params = Params(n=2, d=2, k=2, t=64, q=1)
    inst = sample_instance(params, SeedSpec(6, 0))
    assert len(inst.constraints) == 64
    assert len(set(inst.constraints)) < 64


def test_violation_probability_matches_tightness():
    # fraction of (instance, assignment) pairs violating one random
    # constraint = q / d^k
    params = Params(n=10, d=3, k=2, t=1, q=2)
    draws = 100_000
    p = params.p
    hits = 0
    for trial in range(draws):
        spec = SeedSpec(2024, trial)
        inst = sample_instance(params, spec)
        values_stream = spec.stream("assignment")
        values = tuple(values_stream.randbelow(params.d) for _ in range(params.n))
        if is_violated(inst.constraints[0], values, params.d):
            hits += 1
    stderr = math.sqrt(p * (1 - p) / draws)
    assert abs(hits / draws - p) < 4 * stderr


def test_pinned_instance_documents():
    # sha256 over canonical documents for a grid of (n, d, k, t, q), seeds and
    # trials; any change to a draw, its order or the document format shows here
    grid = [(10, 3, 2, 10, 2), (12, 2, 3, 12, 1), (30, 2, 3, 90, 1),
            (8, 3, 3, 20, 5), (50, 4, 2, 60, 3), (6, 5, 4, 9, 17)]
    h = hashlib.sha256()
    for n, d, k, t, q in grid:
        params = Params(n=n, d=d, k=k, t=t, q=q)
        for seed in (0, 1, 2**64 - 1):
            for trial in range(4):
                inst = sample_instance(params, SeedSpec(seed, trial), label=f"instance/t{t}")
                h.update(dumps_instance(inst).encode("utf-8"))
    assert h.hexdigest() == "60a1c321f8c96e2ca273df599733c191a6de45705cd39fb08887ddd910a6cd77"
