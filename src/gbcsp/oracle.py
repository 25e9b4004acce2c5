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


def brute_force(inst: Instance) -> OracleReport:
    """Enumerate all d**i prefixes of every level with naive re-checking."""
    params = inst.params
    n, d = params.n, params.d
    if d**n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"search space d^n = {d ** n} exceeds oracle limit {BRUTE_FORCE_LIMIT}")
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


def compare_with_solver(inst: Instance) -> OracleReport:
    """Brute-force report with per-quantity agreement flags vs. the solver."""
    from .backtracker import solve_all

    report = brute_force(inst)
    stats = solve_all(inst, collect=True)
    matches = {
        "nodes": stats.nodes == report.node_count,
        "level_counts": stats.level_counts == report.level_counts,
        "solutions": set(stats.solutions) == set(report.solutions),
        "order": list(stats.solutions) == sorted(stats.solutions),
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


def random_strict_params(stream, max_n: int = 6, max_d: int = 3, t_factor: int = 3) -> Params:
    """Small strict parameter set drawn from ``stream``: k, n, d, q, t in turn."""
    k = 2 + stream.randbelow(2)
    n = k + stream.randbelow(max_n - k + 1)
    d = 2 + stream.randbelow(max_d - 1)
    q = 1 + stream.randbelow(d - 1)
    t = stream.randbelow(t_factor * n + 1)
    return Params(n=n, d=d, k=k, t=t, q=q)


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
    checks = {
        "nodes": "node counts match brute force",
        "level_counts": "level profiles match brute force",
        "solutions": "solution sets match brute force",
        "order": "solutions in lexicographic order",
        "binomial": "survival probability matches binomial form exactly",
    }
    first_failure: dict[str, str] = {}
    for idx in range(instances):
        params = random_strict_params(stream, max_n=max_n)
        inst = sample_instance(params, SeedSpec(master_seed, idx + 1))
        report = compare_with_solver(inst)
        rev = solve_all(inst, value_order=list(reversed(range(params.d))))
        for key, failed, what in (
            ("nodes", not report.matches["nodes"], "node counts differ"),
            ("level_counts", not report.matches["level_counts"], "level counts differ"),
            ("solutions", not report.matches["solutions"], "solution sets differ"),
            ("order", not report.matches["order"], "solutions not in lexicographic order"),
            ("nodes", rev.nodes != report.node_count, "node count depends on value order"),
        ):
            if failed:
                first_failure.setdefault(key, f"instance {idx}: {what}")
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
                            first_failure.setdefault(
                                "binomial", f"n={n} d={d} k={k} q={q} i={i}: {lhs} != {rhs}")
    return [(name, key not in first_failure, first_failure.get(key, ""))
            for key, name in checks.items()]
