import hashlib
import math
from collections import Counter

import pytest

from gbcsp import generator
from gbcsp.generator import MAX_INSTANCE_BYTES, check_instance_size, sample_instance
from gbcsp.model import Instance, Params, dumps_instance, is_violated
from gbcsp.rng import _GAMMA, SeedSpec
from reference import _rank_to_tuple, sample_constraint, sample_incompatible, sample_scope


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


def scalar_instance(params, spec, label):
    """The reference draw, one sample_constraint call per constraint, and the
    number of words it consumed."""
    stream = spec.stream(label)
    start = stream._state
    constraints = [sample_constraint(params, stream) for _ in range(params.t)]
    words = (stream._state - start) * pow(_GAMMA, -1, 2**64) % 2**64
    return Instance(params, constraints), words


@pytest.mark.parametrize("n, d, k, t, q, block_rows", [
    (10, 3, 2, 20, 2, None),   # q > 1
    (6, 5, 4, 9, 17, None),    # (d, k, q) = (5, 4, 17), non-strict
    (5, 2, 2, 0, 1, None),     # t = 0
    (30, 2, 3, 90, 1, 7),      # 13 blocks, the last one short
    (3, 2, 3, 12, 8, None),    # k = n and q = d**k: bounds of 1 take no word
    (64, 2, 64, 6, 3, None),   # d**k = 2**64: the last Floyd word is used whole
], ids=["q2", "d5-k4-q17", "t0", "multi-block", "unit-bounds", "dk-2-64"])
def test_block_draws_match_scalar_draws(n, d, k, t, q, block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(generator, "BLOCK_ROWS", block_rows)
    params = Params(n=n, d=d, k=k, t=t, q=q)
    for seed in (0, 2**64 - 1):
        for trial in range(3):
            spec = SeedSpec(seed, trial)
            inst = sample_instance(params, spec, label="x")
            ref, _ = scalar_instance(params, spec, "x")
            assert dumps_instance(inst) == dumps_instance(ref)
            assert inst == ref and inst.constraints == ref.constraints


@pytest.mark.parametrize("q, block_rows", [(1, None), (2, None), (2, 4)])
def test_block_draws_drop_rejected_words(q, block_rows, monkeypatch):
    # d**k = 3**39 ~ 4.05e18 rejects about 12% of Floyd's words
    if block_rows is not None:
        monkeypatch.setattr(generator, "BLOCK_ROWS", block_rows)
    params = Params(n=40, d=3, k=39, t=30, q=q)
    rejected = 0
    for trial in range(3):
        spec = SeedSpec(5, trial)
        ref, words = scalar_instance(params, spec, "x")
        rejected += words - params.t * (params.k + params.q)
        assert dumps_instance(sample_instance(params, spec, label="x")) == dumps_instance(ref)
        # the blocks leave the stream where the scalar draws do
        block_stream, scalar_stream = spec.stream("y"), spec.stream("y")
        list(generator.constraint_blocks(params, params.t, block_stream))
        for _ in range(params.t):
            sample_constraint(params, scalar_stream)
        assert block_stream.next_u64() == scalar_stream.next_u64()
    assert rejected > 0


@pytest.mark.parametrize("block_rows", [None, 5, 37])
def test_batch_draws_match_scalar_draws(block_rows, monkeypatch):
    # batches of one to seven trials on random parameters, strict or not and
    # some with t = 0; lowered BLOCK_ROWS puts a block boundary inside
    # trials and a block across several
    if block_rows is not None:
        monkeypatch.setattr(generator, "BLOCK_ROWS", block_rows)
    stream = SeedSpec(61, block_rows or 0).stream("batch")
    empty = crossing = 0
    for case in range(40):
        d = 2 + stream.randbelow(4)
        k = 2 + stream.randbelow(3)
        n = k + stream.randbelow(20)
        q = 1 + stream.randbelow(d - 1 if case % 2 else d**k)
        params = Params(n=n, d=d, k=k, t=0 if case % 5 == 0 else stream.randbelow(30), q=q)
        seeds = [SeedSpec(61, 100 * case + j) for j in range(1 + stream.randbelow(7))]
        batch = generator.sample_batch(params, seeds, label="x")
        assert len(batch) == len(seeds)
        for seed, inst in zip(seeds, batch):
            ref, _ = scalar_instance(params, seed, "x")
            assert dumps_instance(inst) == dumps_instance(ref)
            assert inst == ref
        empty += params.t == 0
        crossing += block_rows is not None and params.t % block_rows != 0 and len(seeds) > 1
    assert empty
    assert block_rows is None or crossing


@pytest.mark.parametrize("block_rows", [None, 4, 7])
def test_batch_draws_walk_rejected_words(block_rows, monkeypatch):
    # d**k = 3**39 rejects about 12% of Floyd's words and n = 2**62 + 1
    # about 25% of the first scope word's, so nearly every trial is walked
    # from the block its first suspect word falls in; at n = 2**62 + 1 a row
    # has 3 words, and a walked trial's later block may hold no suspect word
    if block_rows is not None:
        monkeypatch.setattr(generator, "BLOCK_ROWS", block_rows)
    for params in (Params(n=40, d=3, k=39, t=30, q=1), Params(n=40, d=3, k=39, t=30, q=2),
                   Params(n=2**62 + 1, d=2, k=2, t=30, q=1)):
        seeds = [SeedSpec(5, j) for j in range(4)]
        for seed, inst in zip(seeds, generator.sample_batch(params, seeds, label="x")):
            ref, _ = scalar_instance(params, seed, "x")
            assert dumps_instance(inst) == dumps_instance(ref)


def test_batch_walks_a_stream_across_blocks_beside_skipped_ones(monkeypatch):
    # n = 2**64 / 50.5 rejects about 1% of scope words, and blocks of 4 rows
    # cut each trial's 30 rows into 8 blocks: with these seeds one stream is
    # walked in three blocks, another in two, and the other two never, so
    # they skip every block
    monkeypatch.setattr(generator, "BLOCK_ROWS", 4)
    params = Params(n=365282060865535680, d=2, k=2, t=30, q=1)
    seeds = [SeedSpec(7, j) for j in range(48, 52)]
    walks = Counter()
    accepted_words = generator._accepted_words

    def spy(plan, count, stream):
        walks[id(stream)] += 1
        return accepted_words(plan, count, stream)

    monkeypatch.setattr(generator, "_accepted_words", spy)
    for seed, inst in zip(seeds, generator.sample_batch(params, seeds, label="x")):
        ref, _ = scalar_instance(params, seed, "x")
        assert dumps_instance(inst) == dumps_instance(ref)
    assert sorted(walks.values()) == [2, 3]
    for seed in seeds:
        # one stream's blocks leave it where the scalar draws do
        block_stream, scalar_stream = seed.stream("x"), seed.stream("x")
        list(generator.constraint_blocks(params, params.t, block_stream))
        for _ in range(params.t):
            sample_constraint(params, scalar_stream)
        assert block_stream.next_u64() == scalar_stream.next_u64()


def test_arrays_refuse_parameters_they_cannot_hold():
    with pytest.raises(ValueError, match=r"^d\^k=36893488147419103232 > 2\^64: tuple ranks"):
        sample_instance(Params(n=70, d=2, k=65, t=1, q=1), SeedSpec(1, 0))
    with pytest.raises(ValueError, match=r"> 2\^64"):
        Instance(Params(n=3, d=2**33, k=2, t=0, q=1), ())
    with pytest.raises(ValueError, match=r"^n=9223372036854775809 > 2\^63"):
        sample_instance(Params(n=2**63 + 1, d=2, k=2, t=1, q=1), SeedSpec(1, 0))


def test_instance_budget_counts_scope_and_tuple_bytes():
    # k = 3, q = 1: 3 scope and 3 tuple entries of 8 bytes per constraint
    largest = MAX_INSTANCE_BYTES // 48
    assert largest == 5_592_405
    check_instance_size(Params(n=3, d=2, k=3, t=largest, q=1))
    with pytest.raises(ValueError, match=f"^t={largest + 1} needs {(largest + 1) * 48} bytes "
                                         "of scope and tuple arrays, over the budget of 268435456$"):
        check_instance_size(Params(n=3, d=2, k=3, t=largest + 1, q=1))
