import math
from dataclasses import replace
from fractions import Fraction

import pytest

from gbcsp import backtracker, generator, oracle
from gbcsp.model import Instance, Params, is_violated
from gbcsp.rng import SeedSpec
from gbcsp.oracle import (
    brute_force,
    compare_with_solver,
    empirical_extend_probability,
    extend_probability_binomial,
    verification_report,
)
from reference import exact_expected_nodes_fraction, log_fraction, one_constraint, sample_constraint


class TestBruteForce:
    def test_seven_node_instance(self):
        report = brute_force(one_constraint((0, 1), {(0, 0)}, n=2, d=2))
        assert report.node_count == 7
        assert report.level_counts == (1, 2, 3)
        assert report.solutions == ((0, 1), (1, 0), (1, 1))

    def test_unconstrained(self):
        inst = Instance(Params(n=3, d=2, k=2, t=0, q=1), ())
        report = brute_force(inst)
        assert report.level_counts == (1, 2, 4, 8)
        assert report.node_count == 15
        assert len(report.solutions) == 8

    def test_size_guard(self):
        inst = Instance(Params(n=30, d=2, k=2, t=0, q=1), ())
        with pytest.raises(ValueError, match="exceeds oracle limit"):
            brute_force(inst)

    def test_node_identity(self):
        report = brute_force(one_constraint((0, 2), {(1, 1)}, n=3, d=3))
        d = 3
        assert report.node_count == 1 + sum(d * c for c in report.level_counts[:-1])
        assert len(report.solutions) == report.level_counts[-1]


class TestBinomialForm:
    def test_below_arity_is_one(self):
        assert extend_probability_binomial(10, 3, Fraction(1, 8), 2) == 1

    def test_values(self):
        assert extend_probability_binomial(10, 2, Fraction(1, 5), 5) == Fraction(43, 45)
        assert extend_probability_binomial(5, 2, Fraction(1, 4), 4) == Fraction(17, 20)

    def test_guards(self):
        with pytest.raises(ValueError, match="capped"):
            extend_probability_binomial(31, 2, Fraction(1, 4), 3)
        with pytest.raises(ValueError, match="outside"):
            extend_probability_binomial(10, 2, Fraction(1, 4), 10)


class TestEmpirical:
    def test_exactly_one_below_arity(self):
        value = empirical_extend_probability(8, 3, 3, 2, 2, samples=2000, master_seed=5)
        assert value == 1.0

    def test_matches_formula_with_noise(self):
        exact = 1 - (2 / 9) * (20 / 90)
        samples = 100_000
        value = empirical_extend_probability(10, 3, 2, 2, 5, samples, master_seed=6)
        stderr = math.sqrt(exact * (1 - exact) / samples)
        assert abs(value - exact) < 4 * stderr

    def test_prefix_choice_immaterial(self):
        samples = 100_000
        exact = 1 - (2 / 9) * (20 / 90)
        stderr = math.sqrt(exact * (1 - exact) / samples)
        a = empirical_extend_probability(10, 3, 2, 2, 5, samples, master_seed=7)
        b = empirical_extend_probability(
            10, 3, 2, 2, 5, samples, master_seed=7, prefix=(2, 1, 0, 2, 1)
        )
        assert abs(a - exact) < 4 * stderr
        assert abs(b - exact) < 4 * stderr

    @pytest.mark.parametrize("n, d, k, q, i, prefix", [
        (10, 3, 2, 2, 5, None),
        (12, 2, 3, 1, 11, None),
        (6, 2, 2, 3, 3, (1, 0, 1)),   # non-strict: one assigned variable can violate
        (7, 3, 3, 20, 4, (2, 0, 1, 1)),
        (5, 2, 2, 4, 0, None),        # every tuple forbidden: violated at the root
    ])
    def test_survivor_count_matches_scalar_loop(self, n, d, k, q, i, prefix, monkeypatch):
        # several blocks, so the stream state carries from one to the next
        monkeypatch.setattr(generator, "BLOCK_ROWS", 4096)
        samples = 20_000
        params = Params(n=n, d=d, k=k, t=1, q=q)
        stream = SeedSpec(8, 0).stream("empirical-extend")
        values = (0,) * i if prefix is None else prefix
        survived = sum(
            not is_violated(sample_constraint(params, stream), values, d) for _ in range(samples)
        )
        value = empirical_extend_probability(n, d, k, q, i, samples, master_seed=8, prefix=prefix)
        assert round(value * samples) == survived

    def test_prefix_validation(self):
        with pytest.raises(ValueError, match="prefix"):
            empirical_extend_probability(6, 2, 2, 1, 3, 10, 1, prefix=(0, 1))


class TestExactNodeFraction:
    def test_unconstrained(self):
        assert exact_expected_nodes_fraction(Params(n=2, d=2, k=2, t=0, q=1)) == 7

    def test_hand_computed_value(self):
        # n=3, d=2, k=2, q=1, t=1: survival 1, 1, 11/12 per level
        params = Params(n=3, d=2, k=2, t=1, q=1)
        assert exact_expected_nodes_fraction(params) == Fraction(43, 3)

    def test_log_fraction(self):
        assert log_fraction(Fraction(43, 3)) == pytest.approx(math.log(43 / 3), rel=1e-14)
        big = Fraction(10**400, 3**200)
        assert log_fraction(big) == pytest.approx(400 * math.log(10) - 200 * math.log(3), rel=1e-14)
        with pytest.raises(ValueError):
            log_fraction(Fraction(0))


def test_compare_with_solver_flags():
    report = compare_with_solver(one_constraint((0, 1), {(0, 0)}, n=2, d=2))
    assert report.matches == {"nodes": True, "level_counts": True, "solutions": True, "order": True}
    assert report.node_count == 7


def test_verification_report_all_green():
    results = verification_report(master_seed=3, instances=25)
    assert results
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"


def test_verification_report_solves_each_instance_twice(monkeypatch):
    # one collecting solve for the oracle comparison and the order check,
    # one count-only solve in reversed value order
    real = backtracker.solve_all
    collects = []

    def counting(inst, collect=False, value_order=None):
        collects.append(collect)
        return real(inst, collect, value_order)

    monkeypatch.setattr(backtracker, "solve_all", counting)
    verification_report(master_seed=1, instances=10)
    assert len(collects) == 20
    assert sum(collects) == 10


def test_verification_report_keeps_each_checks_own_failure(monkeypatch):
    # node counts fail on instance 0 and level counts on instance 1
    real = oracle.compare_with_solver
    calls = []

    def broken(inst, *args):
        report = real(inst, *args)
        wrong = {0: "nodes", 1: "level_counts"}.get(len(calls))
        calls.append(inst)
        return replace(report, matches={**report.matches, **({wrong: False} if wrong else {})})

    monkeypatch.setattr(oracle, "compare_with_solver", broken)
    results = {name: (ok, detail) for name, ok, detail in verification_report(master_seed=3, instances=4)}
    assert len(calls) == 4
    assert results["node counts match brute force"] == (False, "instance 0: node counts differ")
    assert results["level profiles match brute force"] == (False, "instance 1: level counts differ")
    assert results["solution sets match brute force"] == (True, "")
    assert results["solutions in lexicographic order"] == (True, "")
