"""Independent brute-force ground truth, for tiny scales only.

Nothing here shares code paths with the production solver beyond the data
model and the consistency predicate: every level is enumerated from scratch
and every constraint re-checked naively, so agreement with the solver is
meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytics import extend_probability
from .model import Instance, Params, is_consistent, rank_tuples
from .rng import SeedSpec

BRUTE_FORCE_LIMIT = 10**7


@dataclass(frozen=True)
class OracleReport:
    """Level counts, solutions and node count from exhaustive enumeration."""

    level_counts: tuple[int, ...]
    solutions: tuple[tuple[int, ...], ...]
    node_count: int
    matches: dict[str, bool] | None = None


def brute_force(inst: Instance, limit: int = BRUTE_FORCE_LIMIT) -> OracleReport:
    """Enumerate all d**i prefixes of every level with naive re-checking."""
    params = inst.params
    n, d = params.n, params.d
    if d**n > limit:
        raise ValueError(f"search space d^n = {d ** n} exceeds oracle limit {limit}")
    level_counts = []
    solutions = []
    for depth in range(n + 1):
        count = 0
        for prefix in itertools.product(range(d), repeat=depth):
            if is_consistent(inst, prefix):
                count += 1
                if depth == n:
                    solutions.append(prefix)
        level_counts.append(count)
    # one child node per domain value of every consistent prefix, plus root
    node_count = 1 + sum(d * c for c in level_counts[:-1])
    return OracleReport(tuple(level_counts), tuple(solutions), node_count)


def compare_with_solver(inst: Instance, limit: int = BRUTE_FORCE_LIMIT) -> OracleReport:
    """Brute-force report with per-quantity agreement flags vs. the solver."""
    from .backtracker import solve_all

    report = brute_force(inst, limit)
    stats = solve_all(inst, collect=True)
    matches = {
        "nodes": stats.nodes == report.node_count,
        "level_counts": stats.level_counts == report.level_counts,
        "solutions": set(stats.solutions) == set(report.solutions),
    }
    return OracleReport(report.level_counts, report.solutions, report.node_count, matches)


def extend_probability_binomial(n: int, k: int, p: Fraction, i: int) -> Fraction:
    """Binomial-coefficient form 1 - p * C(i,k)/C(n,k) of the level survival
    probability, exact in rational arithmetic."""
    if n > 30:
        raise ValueError(f"binomial oracle capped at n <= 30, got n={n}")
    if not 0 <= i <= n - 1:
        raise ValueError(f"level {i} outside [0, {n - 1}]")
    return 1 - Fraction(p) * Fraction(math.comb(i, k), math.comb(n, k))


def _violated_rows(scopes: np.ndarray, ranks: np.ndarray, prefix, n: int, d: int) -> np.ndarray:
    """``is_violated`` for every row of (scopes, ranks) at once: a row is
    violated iff its forbidden tuples agreeing with ``prefix`` (the values of
    variables 0..len(prefix)-1) cover all d**f completions of its f free
    variables."""
    k = scopes.shape[1]
    values = np.zeros(n, dtype=np.uint64)
    values[: len(prefix)] = prefix
    fixed = scopes < len(prefix)
    agree = (rank_tuples(ranks, d, k) == values[scopes][:, None, :]) | ~fixed[:, None, :]
    matching = agree.all(axis=2).sum(axis=1)
    # d**f for f free variables; a count above q can never be matched
    cover = np.array([d**f if d**f <= ranks.shape[1] else -1 for f in range(k + 1)])
    return matching == cover[k - fixed.sum(axis=1)]


def empirical_extend_probability(
    n: int,
    d: int,
    k: int,
    q: int,
    i: int,
    samples: int,
    master_seed: int,
    prefix: tuple[int, ...] | None = None,
) -> float:
    """Monte Carlo estimate of the level-i survival probability.

    Samples fresh random constraints and reports the fraction not violated
    by a fixed depth-i assignment (all zeros unless given); by symmetry of
    the uniform tuple selection the choice of assignment is immaterial.
    The constraints are those of ``samples`` consecutive ``sample_constraint``
    calls on one stream, drawn and checked in blocks of rows.
    """
    from .generator import constraint_blocks

    params = Params(n=n, d=d, k=k, t=1, q=q)
    if not 0 <= i <= n - 1:
        raise ValueError(f"level {i} outside [0, {n - 1}]")
    if prefix is None:
        prefix = (0,) * i
    if len(prefix) != i or any(not 0 <= v < d for v in prefix):
        raise ValueError("prefix must assign exactly i in-domain values")
    stream = SeedSpec(master_seed, 0).stream("empirical-extend")
    survived = 0
    for scopes, ranks in constraint_blocks(params, samples, stream):
        survived += len(scopes) - int(_violated_rows(scopes, ranks, prefix, n, d).sum())
    return survived / samples


def exact_expected_nodes_fraction(params: Params) -> Fraction:
    """Expected node count as an exact rational (arbitrary precision)."""
    total = Fraction(1)
    for i in range(params.n):
        total += params.d ** (i + 1) * extend_probability(i, params) ** params.t
    return total


def log_fraction(value: Fraction) -> float:
    """ln of a positive rational, safe for huge numerators/denominators."""
    if value <= 0:
        raise ValueError("need a positive rational")
    return math.log(value.numerator) - math.log(value.denominator)


def verification_report(
    master_seed: int = 1,
    instances: int = 50,
    max_n: int = 6,
) -> list[tuple[str, bool, str]]:
    """Cross-check the solver against the oracle on small seeded instances.

    Returns (check name, passed, detail) triples; backs the `verify` CLI.
    """
    from .backtracker import solve_all
    from .generator import sample_instance

    stream = SeedSpec(master_seed, 0).stream("verify-params")
    results: list[tuple[str, bool, str]] = []

    nodes_ok = counts_ok = sols_ok = order_ok = True
    detail = ""
    for idx in range(instances):
        k = 2 + stream.randbelow(2)
        n = k + stream.randbelow(max_n - k + 1)
        d = 2 + stream.randbelow(2)
        q = 1 + stream.randbelow(d - 1)
        t = stream.randbelow(3 * n + 1)
        params = Params(n=n, d=d, k=k, t=t, q=q)
        inst = sample_instance(params, SeedSpec(master_seed, idx + 1))
        report = compare_with_solver(inst)
        if not report.matches["nodes"]:
            nodes_ok = False
            detail = f"instance {idx}: node counts differ"
        if not report.matches["level_counts"]:
            counts_ok = False
            detail = f"instance {idx}: level counts differ"
        if not report.matches["solutions"]:
            sols_ok = False
            detail = f"instance {idx}: solution sets differ"
        sols = solve_all(inst, collect=True).solutions
        if list(sols) != sorted(sols):
            order_ok = False
            detail = f"instance {idx}: solutions not in lexicographic order"
        rev = solve_all(inst, value_order=list(reversed(range(d))))
        if rev.nodes != report.node_count:
            nodes_ok = False
            detail = f"instance {idx}: node count depends on value order"
    results.append(("node counts match brute force", nodes_ok, detail if not nodes_ok else ""))
    results.append(("level profiles match brute force", counts_ok, detail if not counts_ok else ""))
    results.append(("solution sets match brute force", sols_ok, detail if not sols_ok else ""))
    results.append(("solutions in lexicographic order", order_ok, detail if not order_ok else ""))

    g_ok = True
    g_detail = ""
    for n in range(2, 11):
        for k in (2, 3):
            if k > n:
                continue
            for d in (2, 3):
                for q in range(1, d):
                    params = Params(n=n, d=d, k=k, t=1, q=q)
                    p = Fraction(q, d**k)
                    for i in range(n):
                        lhs = extend_probability(i, params)
                        rhs = extend_probability_binomial(n, k, p, i)
                        if lhs != rhs:
                            g_ok = False
                            g_detail = f"n={n} d={d} k={k} q={q} i={i}: {lhs} != {rhs}"
    results.append(("survival probability matches binomial form exactly", g_ok, g_detail))
    return results
