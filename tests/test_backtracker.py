import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gbcsp import backtracker, generator
from gbcsp.backtracker import SearchStats, solve_all
from gbcsp.generator import sample_instance
from gbcsp.model import ConstraintSpec, Instance, Params, is_consistent
from gbcsp.oracle import brute_force, random_strict_params
from gbcsp.rng import SeedSpec
from reference import _checks_at, one_constraint


def unconstrained(n, d, k=2):
    return Instance(Params(n=n, d=d, k=k, t=0, q=1), ())


def chain(n, d, extra_t=0):
    """Each (j, j+1) forbids every descending pair, so the solutions are the
    non-decreasing assignments; extra_t random constraints prune further."""
    descending = frozenset((a, b) for a in range(d) for b in range(a))
    q = len(descending)
    constraints = [ConstraintSpec((j, j + 1), descending) for j in range(n - 1)]
    if extra_t:
        extra = sample_instance(Params(n=n, d=d, k=2, t=extra_t, q=q), SeedSpec(98, n))
        constraints += extra.constraints
    return Instance(Params(n=n, d=d, k=2, t=len(constraints), q=q), tuple(constraints))


def layout(inst):
    """Word and shift of each variable of ``inst`` in the solver's layout,
    worked out from ``_layout``'s scalars as ``solve_all`` does."""
    n = inst.params.n
    b, per, _, dtype = backtracker._layout(n, inst.params.d)
    word = np.arange(n) // per
    return word, ((np.minimum(word * per + per - 1, n - 1) - np.arange(n)) * b).astype(dtype)


def word_count(inst):
    return int(layout(inst)[0][-1]) + 1


def spy_dtypes(monkeypatch):
    """A list that collects the dtype of the value table and of every
    collected word array of each solve from now on."""
    seen = []
    depth_first = backtracker._depth_first

    def spy(params, per, values, slot, tables, collect):
        nodes, counts, found = depth_first(params, per, values, slot, tables, collect)
        seen.extend([values.dtype] + [x.dtype for block in found for x in block])
        return nodes, counts, found

    monkeypatch.setattr(backtracker, "_depth_first", spy)
    return seen


def oracle_stats(inst):
    report = brute_force(inst)
    return SearchStats(report.node_count, report.level_counts[-1],
                       report.level_counts, report.solutions)


def test_seven_node_example():
    inst = one_constraint((0, 1), {(0, 0)}, n=2, d=2)
    stats = solve_all(inst, collect=True)
    assert stats.nodes == 7
    assert stats.solution_count == 3
    assert stats.level_counts == (1, 2, 3)
    assert stats.solutions == ((0, 1), (1, 0), (1, 1))


def test_unconstrained_complete_tree():
    stats = solve_all(unconstrained(2, 2))
    assert stats.nodes == 7
    assert stats.solution_count == 4
    assert solve_all(unconstrained(3, 2)).level_counts == (1, 2, 4, 8)
    # nodes of the full tree: 1 + d (d^n - 1) / (d - 1)
    assert solve_all(unconstrained(3, 2)).nodes == 15
    assert solve_all(unconstrained(4, 3)).nodes == 1 + 3 * (3**4 - 1) // 2


def test_fixed_seed_medium_instance_matches_brute_force():
    params = Params(n=6, d=3, k=2, t=6, q=2)
    inst = sample_instance(params, SeedSpec(123456, 0))
    stats = solve_all(inst, collect=True)
    # a strict solve reads the arrays and never builds the ConstraintSpec tuple
    assert inst._constraints is None
    report = brute_force(inst)
    assert set(stats.solutions) == set(report.solutions)
    assert stats.nodes == 1 + sum(3 * c for c in report.level_counts[:-1])


def test_matches_brute_force_on_seeded_instances(param_stream):
    for trial in range(40):
        params = random_strict_params(param_stream)
        inst = sample_instance(params, SeedSpec(91, trial))
        stats = solve_all(inst, collect=True)
        report = brute_force(inst)
        assert stats.nodes == report.node_count
        assert stats.level_counts == report.level_counts
        assert set(stats.solutions) == set(report.solutions)


def test_profile_reconstructs_nodes(param_stream):
    for trial in range(25):
        params = random_strict_params(param_stream)
        inst = sample_instance(params, SeedSpec(92, trial))
        stats = solve_all(inst)
        d = params.d
        assert stats.nodes == 1 + sum(d * c for c in stats.level_counts[:-1])
        assert stats.nodes % d == 1
        assert stats.solution_count == stats.level_counts[-1]


def test_monotone_pruning(param_stream):
    for trial in range(25):
        params = random_strict_params(param_stream)
        inst = sample_instance(params, SeedSpec(93, trial))
        counts = solve_all(inst).level_counts
        for i in range(params.n):
            assert counts[i + 1] <= params.d * counts[i]


def test_value_order_does_not_change_counts(param_stream):
    for trial in range(15):
        params = random_strict_params(param_stream)
        inst = sample_instance(params, SeedSpec(94, trial))
        base = solve_all(inst, collect=True)
        rev = solve_all(inst, collect=True, value_order=list(reversed(range(params.d))))
        assert rev.nodes == base.nodes
        assert rev.level_counts == base.level_counts
        assert rev.solutions == base.solutions  # both lexicographically sorted


def test_value_order_must_be_permutation():
    inst = unconstrained(3, 2)
    with pytest.raises(ValueError, match="permutation"):
        solve_all(inst, value_order=[0, 0])


def test_solutions_sorted_lexicographically():
    inst = one_constraint((1, 0), {(0, 1), (1, 1)}, n=3, d=2)
    sols = solve_all(inst, collect=True).solutions
    assert list(sols) == sorted(sols)


def test_non_strict_partial_pruning():
    # both tuples share value 0 for variable 0: assigning 0 kills the branch
    # immediately, before variable 1 is reached
    inst = one_constraint((0, 1), {(0, 0), (0, 1)}, n=3, d=2)
    stats = solve_all(inst, collect=True)
    report = brute_force(inst)
    assert stats.nodes == report.node_count
    assert stats.level_counts == report.level_counts
    assert stats.level_counts[1] == 1
    assert set(stats.solutions) == set(report.solutions)


def test_non_strict_random_instances(param_stream):
    for trial in range(15):
        k = 2
        n = 2 + param_stream.randbelow(4)
        d = 2 + param_stream.randbelow(2)
        q = d + param_stream.randbelow(d**k - d + 1)  # non-strict by construction
        t = 1 + param_stream.randbelow(2 * n)
        params = Params(n=n, d=d, k=k, t=t, q=q)
        inst = sample_instance(params, SeedSpec(95, trial))
        stats = solve_all(inst, collect=True)
        report = brute_force(inst)
        assert stats.nodes == report.node_count
        assert stats.level_counts == report.level_counts
        assert set(stats.solutions) == set(report.solutions)


def test_all_tuples_forbidden_blocks_root():
    # q = d^k: even the empty assignment is inconsistent, only the root exists
    inst = one_constraint((0, 1), {(0, 0), (0, 1), (1, 0), (1, 1)}, n=2, d=2)
    stats = solve_all(inst, collect=True)
    assert stats == SearchStats(nodes=1, solution_count=0, level_counts=(0, 0, 0), solutions=())


def test_all_tuples_forbidden_blocks_root_on_two_words():
    inst = one_constraint((0, 1), {(0, 0), (0, 1), (1, 0), (1, 1)}, n=64, d=2)
    assert word_count(inst) == 2
    stats = solve_all(inst, collect=True)
    assert stats == SearchStats(nodes=1, solution_count=0, level_counts=(0,) * 65, solutions=())
    # q = d^k forbids nothing when there is no constraint
    assert solve_all(Instance(Params(n=3, d=2, k=2, t=0, q=4), ())).level_counts == (1, 2, 4, 8)


@pytest.mark.parametrize("n, d, k, q, t, words", [
    (6, 3, 2, 2, 6, 1),
    (6, 3, 2, 5, 6, 1),
    (6, 3, 2, 9, 3, 1),
    (64, 2, 3, 3, 300, 2),
    (32, 3, 2, 4, 64, 2),
])
def test_solve_never_builds_the_constraint_tuple(n, d, k, q, t, words):
    # solves read the scope and rank arrays, strict or not, on one word or two
    inst = sample_instance(Params(n=n, d=d, k=k, t=t, q=q), SeedSpec(123457, 0))
    assert word_count(inst) == words
    stats = solve_all(inst, collect=True)
    assert inst._constraints is None
    assert stats.nodes == 1 + d * sum(stats.level_counts[:-1])


def test_stats_are_plain_data():
    stats = solve_all(unconstrained(2, 2))
    assert isinstance(stats.nodes, int)
    assert isinstance(stats.level_counts, tuple)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_multi_word_matches_oracle(d, monkeypatch):
    # 8-bit words hold 8, 4, 4 and 2 fields at d = 2, 3, 4, 5, so oracle
    # sizes span one to three words
    monkeypatch.setattr(backtracker, "WORD_BITS", 8)
    stream = SeedSpec(97, d).stream("multi-word")
    max_n = {2: 13, 3: 8, 4: 7, 5: 6}[d]
    words = set()
    for trial in range(12):
        k = 2 + stream.randbelow(2)
        n = k + stream.randbelow(max_n - k + 1)
        if trial % 2:
            q = d + stream.randbelow(d**k - d + 1)  # non-strict
        else:
            q = 1 + stream.randbelow(d - 1)
        t = stream.randbelow(2 * n + 1)
        inst = sample_instance(Params(n=n, d=d, k=k, t=t, q=q), SeedSpec(97, trial))
        words.add(word_count(inst))
        expected = oracle_stats(inst)
        for order in (None, list(reversed(range(d)))):
            assert solve_all(inst, collect=True, value_order=order) == expected
            assert solve_all(inst, value_order=order) == replace(expected, solutions=None)
    assert max(words) >= 2


@pytest.mark.parametrize("n, d", [(63, 2), (31, 3)])
def test_packed_path_up_to_63_bits(n, d, monkeypatch):
    stats = solve_all(chain(n, d), collect=True)
    assert word_count(chain(n, d)) == 1
    assert stats.level_counts == tuple(math.comb(i + d - 1, d - 1) for i in range(n + 1))
    assert stats.solutions == tuple(itertools.combinations_with_replacement(range(d), n))
    inst = chain(n, d, extra_t=n)
    one_word = [solve_all(inst, collect=True, value_order=order)
                for order in (None, list(reversed(range(d))))]
    monkeypatch.setattr(backtracker, "WORD_BITS", 8)
    assert word_count(inst) > 1
    for order, expected in zip((None, list(reversed(range(d)))), one_word):
        assert solve_all(inst, collect=True, value_order=order) == expected


@pytest.mark.parametrize("n, d, dtype", [
    (31, 2, np.int32),  # the top field at bit 30
    (15, 3, np.int32),  # 30 bits
    (32, 2, np.int64),
    (16, 3, np.int64),
])
def test_word_dtype_boundary(n, d, dtype, monkeypatch):
    # one word either side of 31 bits of fields
    inst = chain(n, d)
    assert word_count(inst) == 1
    dtypes = spy_dtypes(monkeypatch)
    for order in (None, list(reversed(range(d)))):
        stats = solve_all(inst, collect=True, value_order=order)
        assert stats.level_counts == tuple(math.comb(i + d - 1, d - 1) for i in range(n + 1))
        assert stats.solutions == tuple(itertools.combinations_with_replacement(range(d), n))
    assert set(dtypes) == {np.dtype(dtype)}


# nodes and level counts of sample_instance(params, SeedSpec(5, 0)) with n * b
# from 29 to 33 bits, strict and not, as the all-int64 solver computed them
BOUNDARY_PINS = [
    (Params(n=29, d=2, k=3, t=100, q=1), np.int32, 43731,
     (1, 2, 4, 8, 16, 32, 52, 104, 208, 416, 616, 856, 944, 796, 1259, 2287, 2537, 1527, 1636,
      1280, 1048, 940, 1046, 1391, 1244, 402, 403, 568, 242, 198)),
    (Params(n=30, d=2, k=3, t=45, q=2), np.int32, 509935,
     (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 768, 1024, 2048, 3072, 6144, 8064, 13440, 15360,
      23040, 36864, 33504, 16624, 28008, 38288, 12888, 2292, 4320, 4800, 1362, 2034, 156)),
    (Params(n=31, d=2, k=3, t=62, q=2), np.int32, 90401,
     (1, 2, 4, 8, 16, 24, 48, 96, 144, 216, 312, 528, 704, 896, 1088, 1552, 3104, 3104, 4656,
      5064, 4976, 6336, 1490, 2146, 1846, 1858, 854, 1168, 1436, 1334, 189, 67)),
    (Params(n=32, d=2, k=3, t=128, q=1), np.int64, 328359,
     (1, 2, 4, 8, 16, 32, 64, 112, 224, 384, 688, 1376, 2408, 4816, 8568, 10192, 15628, 17088,
      16174, 17002, 15139, 7760, 6097, 9833, 4732, 4765, 6941, 5794, 4062, 1908, 1992, 369, 192)),
    (Params(n=33, d=2, k=3, t=150, q=1), np.int64, 606411,
     (1, 2, 4, 8, 16, 28, 56, 112, 200, 400, 624, 1248, 2112, 3936, 5832, 5028, 10056, 17020,
      23580, 25502, 26868, 30170, 29606, 26812, 37965, 28378, 11887, 6961, 3302, 3746, 842, 796,
      107, 36)),
    (Params(n=15, d=3, k=2, t=37, q=2), np.int32, 16252,
     (1, 3, 7, 21, 63, 171, 291, 489, 171, 332, 593, 853, 1050, 619, 753, 257)),
    (Params(n=16, d=3, k=2, t=24, q=4), np.int64, 5401,
     (1, 3, 9, 27, 18, 30, 90, 162, 288, 210, 420, 156, 84, 88, 124, 90, 45)),
    (Params(n=10, d=5, k=2, t=70, q=3), np.int32, 26471,
     (1, 5, 25, 110, 379, 567, 726, 864, 1079, 1538, 491)),
    (Params(n=11, d=5, k=2, t=40, q=7), np.int64, 4171,
     (1, 5, 18, 39, 62, 153, 96, 100, 160, 88, 112, 109)),
]


@pytest.mark.parametrize("params, dtype, nodes, levels", BOUNDARY_PINS)
def test_boundary_solves_match_pinned_counts(params, dtype, nodes, levels, monkeypatch):
    # d**n is past the brute-force oracle here: the counts are pinned, and
    # each collected solution is checked with the oracle's predicate
    inst = sample_instance(params, SeedSpec(5, 0))
    dtypes = spy_dtypes(monkeypatch)
    solutions = set()
    for order in (None, list(reversed(range(params.d)))):
        stats = solve_all(inst, collect=True, value_order=order)
        assert (stats.nodes, stats.level_counts) == (nodes, levels)
        assert list(stats.solutions) == sorted(set(stats.solutions))
        solutions.add(stats.solutions)
    (collected,) = solutions
    assert all(is_consistent(inst, s) for s in collected)
    assert set(dtypes) == {np.dtype(dtype)}


@pytest.mark.parametrize("n, d", [(64, 2), (32, 3)])
def test_two_words_beyond_63_bits(n, d):
    stats = solve_all(chain(n, d), collect=True)
    assert word_count(chain(n, d)) == 2
    assert stats.level_counts == tuple(math.comb(i + d - 1, d - 1) for i in range(n + 1))
    assert stats.solutions == tuple(itertools.combinations_with_replacement(range(d), n))


@pytest.mark.parametrize("n, words", [(4, 1), (64, 2)])
def test_level_budget_is_checked_before_allocating(n, words, monkeypatch):
    """A count-only solve has no size budget; collecting has a solution budget.

    Both instances have levels over 8 prefixes, which the old level budget
    of 8 refused: 16 solutions at n=4, levels of up to 65 prefixes at n=64.
    """
    monkeypatch.setattr(backtracker, "MAX_COLLECTED_SOLUTIONS", 8)
    inst = unconstrained(4, 2) if n == 4 else chain(64, 2)
    assert word_count(inst) == words
    counts = (1, 2, 4, 8, 16) if n == 4 else tuple(range(1, 66))
    stats = solve_all(inst)
    assert stats.level_counts == counts
    assert stats.nodes == 1 + 2 * sum(counts[:-1])
    with pytest.raises(ValueError, match=f"^at least {counts[-1]} solutions to collect, "
                                         "over the budget of 8$"):
        solve_all(inst, collect=True)
    monkeypatch.setattr(backtracker, "MAX_COLLECTED_SOLUTIONS", counts[-1])
    assert solve_all(inst, collect=True).solution_count == counts[-1]


def test_check_fields_are_charged_before_allocating(monkeypatch):
    """solve_all charges the check rows, t * q of them for a strict
    instance, each W words of ``masks`` and ``patterns``, and the
    per-variable state against MAX_INSTANCE_BYTES before building them.  A
    budget of two int64 words a row refuses n = 64 (W = 2 int64 words) and
    passes n = 10 (one int32)."""
    t = 20_000
    wide = sample_instance(Params(n=64, d=2, k=3, t=t, q=1), SeedSpec(3, 0))
    narrow = sample_instance(Params(n=10, d=2, k=3, t=t, q=1), SeedSpec(3, 0))
    assert (word_count(wide), word_count(narrow)) == (2, 1)
    solved = solve_all(narrow)
    budget = t * 2 * 8
    monkeypatch.setattr(generator, "MAX_INSTANCE_BYTES", budget)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^t={t} needs {2 * budget} bytes of check rows "
                                             "over W=2 prefix words and 9728 bytes of per-variable state, "
                                             f"over the budget of {budget}$"):
            solve_all(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building the rows would have taken 2 * budget bytes
    assert peak < 2**16
    assert solve_all(narrow) == solved


def test_charge_is_the_rows_bound(monkeypatch):
    """check_solve_size charges rows_bound * W * 2 * itemsize bytes of rows,
    where rows_bound = t * sum_{m<k} floor(q / d**m) is at least the R rows
    ``_tables`` builds, and equal to R when q < d, plus (d + 1) *
    (itemsize + 24) + 28 * d bytes of state per variable."""
    stream = SeedSpec(95, 0).stream("charge")
    budget = generator.MAX_INSTANCE_BYTES
    strict = 0
    for trial in range(160):
        word_bits = (63, 8, 5, 3)[trial % 4]
        monkeypatch.setattr(backtracker, "WORD_BITS", word_bits)
        d = 2 + stream.randbelow(3)
        k = 2 + stream.randbelow(3)
        n = k + stream.randbelow(40)
        q = 1 + stream.randbelow(d - 1 if trial % 2 else d**k)
        params = Params(n=n, d=d, k=k, t=stream.randbelow(3 * n + 1), q=q)
        inst = sample_instance(params, SeedSpec(95, trial))
        masks = backtracker._tables([inst], *layout(inst))[0][1]
        rows_bound = params.t * sum(q // d**m for m in range(k))
        assert rows_bound >= len(masks)
        if q < d:
            assert rows_bound == len(masks)
            strict += 1
        rows = rows_bound * word_count(inst) * 2 * masks.itemsize
        charge = rows + n * ((d + 1) * (masks.itemsize + 24) + 28 * d)
        monkeypatch.setattr(generator, "MAX_INSTANCE_BYTES", charge)
        backtracker.check_solve_size(params)
        monkeypatch.setattr(generator, "MAX_INSTANCE_BYTES", charge - 1)
        with pytest.raises(ValueError, match=f"^t={params.t} needs {rows} bytes of check rows "):
            backtracker.check_solve_size(params)
        monkeypatch.setattr(generator, "MAX_INSTANCE_BYTES", budget)
    assert strict >= 80


def test_charge_at_a_huge_n_allocates_nothing():
    params = Params(n=10**12, d=2, k=3, t=4, q=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            backtracker.check_solve_size(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # W = 15,873,015,874 int64 words; (d + 1) * (8 + 24) + 28 * d = 152 bytes a variable
    assert str(refused.value) == ("t=4 needs 1015873015936 bytes of check rows over W=15873015874 "
                                  "prefix words and 152000000000000 bytes of per-variable state, "
                                  "over the budget of 268435456")
    assert peak < 2**16


@pytest.mark.parametrize("d, t", [(2, 1), (3, 1), (5, 1), (9, 1), (2, 200)])
def test_charge_covers_a_solve_traced_peak(d, t, monkeypatch):
    """At n = 10**5 and q = d**2 every constraint forbids every tuple, so the
    tree is the root alone and a solve's traced peak is its check rows and
    its per-variable state; at t = 200 the 1,200 rows put cuts entries above
    256.  The charge refuses any budget below that peak."""
    inst = sample_instance(Params(n=10**5, d=d, k=2, t=t, q=d * d), SeedSpec(4, t))
    peaks = []
    for collect in (False, True):
        tracemalloc.start()
        try:
            assert solve_all(inst, collect=collect).nodes == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    monkeypatch.setattr(generator, "MAX_INSTANCE_BYTES", max(peaks) - 1)
    with pytest.raises(ValueError, match="bytes of per-variable state"):
        backtracker.check_solve_size(inst.params)


def test_tables_peak_is_the_rows():
    """``_tables`` writes its R x W rows in place: with W = 32 int64 words
    its traced peak stays near the bytes of ``masks`` and ``patterns``."""
    inst = sample_instance(Params(n=2000, d=2, k=3, t=8000, q=1), SeedSpec(3, 0))
    assert word_count(inst) == 32
    tracemalloc.start()
    try:
        _, masks, patterns = backtracker._tables([inst], *layout(inst))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * (masks.nbytes + patterns.nbytes)


# nodes and level counts of sample_instance(params, SeedSpec(1, 0)), as the
# earlier (rows, depth) value-matrix solver for n * b > 63 computed them
WIDE_PINS = [
    (Params(n=64, d=2, k=3, t=1280, q=1), 111505,
     (1, 2, 4, 8, 16, 32, 64, 112, 200, 336, 672, 824, 1648, 2920, 3844, 3810, 6092, 5061,
      5946, 5590, 4670, 3313, 3941, 2980, 1560, 1233, 258, 164, 158, 152, 60, 60, 21)),
    (Params(n=40, d=3, k=2, t=400, q=2), 2965,
     (1, 3, 9, 15, 45, 72, 90, 214, 142, 62, 65, 97, 49, 48, 52, 24)),
    (Params(n=64, d=2, k=3, t=300, q=3), 339,
     (1, 2, 3, 6, 9, 6, 6, 12, 18, 32, 44, 2, 4, 6, 3, 3, 6, 6)),
    (Params(n=33, d=4, k=2, t=200, q=5), 37773,
     (1, 4, 11, 19, 48, 138, 552, 1518, 1399, 892, 1296, 3121, 80, 112, 136, 40, 56, 20)),
]


@pytest.mark.parametrize("params, nodes, nonzero", WIDE_PINS)
def test_wide_solves_match_pinned_counts(params, nodes, nonzero):
    inst = sample_instance(params, SeedSpec(1, 0))
    assert word_count(inst) == 2
    levels = nonzero + (0,) * (params.n + 1 - len(nonzero))
    for order in (None, list(reversed(range(params.d)))):
        stats = solve_all(inst, value_order=order)
        assert (stats.nodes, stats.level_counts) == (nodes, levels)


def reference_checks(inst):
    """``_check_at_depth`` checks per depth in the word layout, worked out
    here: with per = WORD_BITS // b fields a word, variable v lies in word
    v // per, whose last variable sits at shift 0.  A depth's checks are the
    sorted multiset of their rows, one per blocked code: the mask and the
    pattern in each of the W words."""
    n, d = inst.params.n, inst.params.d
    b = (d - 1).bit_length()
    per = backtracker.WORD_BITS // b
    words = range(word_count(inst))

    def place(v):
        w = v // per
        return w, (min(n, (w + 1) * per) - 1 - v) * b

    tables = []
    for checks in _checks_at(inst):
        rows = []
        for cols, weights, blocked in checks:
            masks = tuple(sum(((1 << b) - 1) << place(c)[1] for c in cols if place(c)[0] == w)
                          for w in words)
            rows += [(masks, tuple(sum((code // wt % d) << place(c)[1] for c, wt in zip(cols, weights)
                                       if place(c)[0] == w) for w in words))
                     for code in blocked]
        tables.append(sorted(rows))
    return tables


def canonical_tables(tables, inst):
    """``_tables``'s rows in ``reference_checks``'s form: at depth i each
    parent mask and pattern is joined back with the row's value in variable
    i's field, which no parent mask may touch, as no mask may touch a later
    word; a pattern lies within its mask."""
    cuts, masks, patterns = tables
    n, d = inst.params.n, inst.params.d
    assert len(cuts) == n * d + 1 and cuts[0] == 0 and cuts[-1] == len(masks) == len(patterns)
    assert masks.shape == patterns.shape == (len(masks), word_count(inst))
    assert not (patterns & ~masks).any()
    word_of, shift_of = layout(inst)
    field = (1 << (d - 1).bit_length()) - 1
    canonical = []
    for i in range(n):
        own, shift = int(word_of[i]), int(shift_of[i])
        joined = []
        for v in range(d):
            for mask, pattern in zip(masks[cuts[i * d + v] : cuts[i * d + v + 1]].tolist(),
                                     patterns[cuts[i * d + v] : cuts[i * d + v + 1]].tolist()):
                assert not any(mask[own + 1 :]) and not mask[own] & field << shift
                mask[own] |= field << shift
                pattern[own] |= v << shift
                joined.append((tuple(mask), tuple(pattern)))
        canonical.append(sorted(joined))
    return canonical


def test_tables_match_the_generic_checks(monkeypatch):
    stream = SeedSpec(96, 0).stream("tables")
    for trial in range(120):
        word_bits = (63, 8, 12)[trial // 4 % 3]
        monkeypatch.setattr(backtracker, "WORD_BITS", word_bits)
        d = 2 + stream.randbelow(4)
        k = 2 + stream.randbelow(3)
        b = (d - 1).bit_length()
        n = k + stream.randbelow(3 * (word_bits // b) - k + 1)  # one to three words
        kind = trial % 4
        if kind == 0:
            q = 1 + stream.randbelow(d - 1)  # strict
        elif kind == 1:
            q = d + stream.randbelow(d**k - d + 1)  # non-strict
        elif kind == 2:
            q = d ** (k - 1) + stream.randbelow(d**k - d ** (k - 1) + 1)  # checks before the last variable
        else:
            q = d**k
        params = Params(n=n, d=d, k=k, t=stream.randbelow(2 * n + 1), q=q)
        inst = sample_instance(params, SeedSpec(96, trial))
        canonical = canonical_tables(backtracker._tables([inst], *layout(inst))[0], inst)
        assert len(canonical) == n
        assert canonical == reference_checks(inst)
    # d**k > 2**62, past the range of int64 tuple codes: two words at
    # n = k = 27, d = 5 and n = k = 64, d = 2
    monkeypatch.setattr(backtracker, "WORD_BITS", 63)
    for n, d in ((27, 5), (64, 2)):
        for q in (1, d - 1, d, d**2 + 3):
            inst = sample_instance(Params(n=n, d=d, k=n, t=3, q=q), SeedSpec(96, q))
            assert word_count(inst) == 2
            tables = backtracker._tables([inst], *layout(inst))[0]
            assert canonical_tables(tables, inst) == reference_checks(inst)
    # a full run of ranks above 2**63: both tuples set variables 0..62 to 1
    ones = (1,) * 63
    inst = one_constraint(tuple(range(63, -1, -1)), {(0,) + ones, (1,) + ones}, n=64, d=2)
    tables = backtracker._tables([inst], *layout(inst))[0]
    assert canonical_tables(tables, inst) == reference_checks(inst)
    # variable 63 alone is in word 1: its check tests word 0 only, for values 0, 1
    cuts, masks, _ = tables
    assert [([v for v in range(2) for _ in range(cuts[2 * i + v], cuts[2 * i + v + 1])],
             np.flatnonzero(masks[cuts[2 * i] : cuts[2 * i + 2]].any(axis=0)).tolist())
            for i in (62, 63)] == [([1], [0]), ([0, 1], [0])]


@pytest.mark.parametrize("word_bits", [63, 8, 5, 3])
def test_batched_rows_match_single_rows(word_bits, monkeypatch):
    # a batch's rows, built at once, are each instance's own: strict and
    # non-strict batches of one to six instances, some with t = 0
    monkeypatch.setattr(backtracker, "WORD_BITS", word_bits)
    stream = SeedSpec(97, word_bits).stream("batched-rows")
    multi = 0
    for case in range(30):
        d = 2 + stream.randbelow(4)
        k = 2 + stream.randbelow(3)
        n = k + stream.randbelow(16)
        q = 1 + stream.randbelow(d - 1 if case % 2 else d**k)
        params = Params(n=n, d=d, k=k, t=0 if case % 7 == 0 else stream.randbelow(3 * n), q=q)
        batch = generator.sample_batch(params, [SeedSpec(97, 10 * case + j) for j in range(1 + stream.randbelow(6))])
        for inst, (cuts, masks, patterns) in zip(batch, backtracker._tables(batch, *layout(batch[0]))):
            one_cuts, one_masks, one_patterns = backtracker._tables([inst], *layout(inst))[0]
            assert cuts == one_cuts
            assert masks.dtype == one_masks.dtype and np.array_equal(masks, one_masks)
            assert np.array_equal(patterns, one_patterns)
        multi += word_count(batch[0]) > 1
    assert word_bits == 63 or multi


def test_prepared_solves_match_solve_all():
    params = Params(n=9, d=3, k=2, t=12, q=4)
    batch = generator.sample_batch(params, [SeedSpec(7, j) for j in range(5)])
    for order in (None, [2, 0, 1]):
        for inst, prepared in zip(batch, backtracker.prepare(batch, order)):
            for collect in (False, True):
                assert (solve_all(inst, collect=collect, prepared=prepared)
                        == solve_all(inst, collect=collect, value_order=order))
    with pytest.raises(ValueError, match="^a prepared solve takes its batch's value_order$"):
        solve_all(batch[0], value_order=[0, 1, 2], prepared=backtracker.prepare(batch)[0])
    other = sample_instance(replace(params, t=3), SeedSpec(7, 0))
    with pytest.raises(ValueError, match="^a batch's instances must share one Params$"):
        backtracker.prepare([batch[0], other])


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_block_splits_are_exact(block_rows, monkeypatch):
    # each instance on one word and on 8-bit words, where d >= 3 and n >= 5
    # put variables 4 and 5 in a second word and checks on them span both
    monkeypatch.setattr(backtracker, "BLOCK_ROWS", block_rows)
    stream = SeedSpec(99, block_rows).stream("block-splits")
    spanning = 0
    for trial in range(16):
        d = 2 + stream.randbelow(3)
        k = 2 + stream.randbelow(2)
        n = k + stream.randbelow(7 - k)
        if trial % 2:
            q = d + stream.randbelow(d**k - d + 1)  # non-strict
        else:
            q = 1 + stream.randbelow(d - 1)
        t = stream.randbelow(2 * n + 1)
        inst = sample_instance(Params(n=n, d=d, k=k, t=t, q=q), SeedSpec(99, trial))
        expected = oracle_stats(inst)
        for word_bits in (63, 8):
            monkeypatch.setattr(backtracker, "WORD_BITS", word_bits)
            word_of = layout(inst)[0]
            cuts, masks, _ = backtracker._tables([inst], *layout(inst))[0]
            depth = np.repeat(np.arange(n), np.diff(cuts[::d]))
            earlier = np.arange(masks.shape[1]) < word_of[depth, None]
            spanning += int(((masks != 0) & earlier).any(axis=1).sum())
            for order in (None, list(reversed(range(d)))):
                assert solve_all(inst, collect=True, value_order=order) == expected
                assert solve_all(inst, value_order=order) == replace(expected, solutions=None)
    assert spanning
    for word_bits in (63, 8):  # two words, and eight
        monkeypatch.setattr(backtracker, "WORD_BITS", word_bits)
        stats = solve_all(chain(64, 2), collect=True)
        assert stats.level_counts == tuple(range(1, 66))
        assert stats.nodes == 1 + 2 * sum(range(1, 65))
        assert stats.solutions == tuple(itertools.combinations_with_replacement(range(2), 64))


def tied(free, tied):
    """Variables 1..``tied`` must each equal variable 0, and the ``free`` - 1
    variables after them are unconstrained."""
    equal = ConstraintSpec((0, 1), frozenset({(0, 1), (1, 0)}))
    constraints = tuple(replace(equal, scope=(0, v)) for v in range(1, tied + 1))
    return Instance(Params(n=free + tied, d=2, k=2, t=tied, q=2), constraints)


def crowded(t):
    """t constraints (v, 5), v = 0..4 in turn, each forbidding (0, 1), (1, 2)
    and (2, 3) at d = 4: 3t check rows at depth 5, whose level is all 4**5
    prefixes."""
    forbidden = frozenset({(0, 1), (1, 2), (2, 3)})
    constraints = tuple(ConstraintSpec((v % 5, 5), forbidden) for v in range(t))
    return Instance(Params(n=6, d=4, k=2, t=t, q=3), constraints)


def test_count_only_memory_is_bounded_by_the_block(monkeypatch):
    # The first three instances have a level of 2**20 prefixes (4 or 8 MiB a
    # word); the walk may hold at most n * d * BLOCK_ROWS prefixes of W
    # words of 4 bytes (int32) or 8 (int64), plus a margin for the
    # temporaries of one extension and Python objects.  10-bit words split
    # the prefixes into W = 2 words; 33 bits of fields take int64.  The last
    # tests 600 check rows on blocks of 256 parents: tested at once they
    # would take 600 * 256 entries, so it holds the checks to a test array of
    # at most BLOCK_ROWS entries.  A value is killed when an earlier variable
    # takes the value before it, so 3**5 prefixes keep values 1..3.
    block_rows = 2**8
    monkeypatch.setattr(backtracker, "BLOCK_ROWS", block_rows)
    crowd = crowded(200)
    cuts = backtracker._tables([crowd], *layout(crowd))[0][0]
    assert cuts[6 * 4] - cuts[5 * 4] == 600 > 2 * block_rows
    dtypes = spy_dtypes(monkeypatch)
    for inst, word_bits, words, itemsize, levels in (
        (unconstrained(20, 2), 63, 1, 4, tuple(2**i for i in range(21))),
        (unconstrained(20, 2), 10, 2, 4, tuple(2**i for i in range(21))),
        (tied(21, 12), 63, 1, 8, (1,) + tuple(2 ** max(1, i - 12) for i in range(1, 34))),
        (crowd, 63, 1, 4, (1, 4, 16, 64, 256, 1024, 1024 + 3 * 3**5)),
    ):
        monkeypatch.setattr(backtracker, "WORD_BITS", word_bits)
        n, d = inst.params.n, inst.params.d
        assert word_count(inst) == words
        bound = n * d * block_rows * itemsize * words + 64 * 2**10
        tracemalloc.start()
        try:
            stats = solve_all(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.level_counts == levels
        assert dtypes.pop() == np.dtype(np.int32 if itemsize == 4 else np.int64)
        assert peak < bound
