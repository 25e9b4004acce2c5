"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Criterion 5 includes a sub-check (the decay bound
F(1000 * r0) < 1e-2 on the full parameter grid) that is mathematically
unattainable for arity k >= 3, where F decays only like r**(-1/(k-1)); it
is asserted as stated and fails honestly, with the failing combinations in
the message.  All other criteria pass.
"""

import hashlib
import math
import time

import pytest

from gbcsp.analytics import (
    AnalyticParams,
    log_asymptotic_nodes_at,
    log_exact_expected_nodes_at,
    r_regime_boundary,
    rate_argmax,
    rate_max,
    rate_max_stationary_form,
    rate_prime,
)
from gbcsp.backtracker import solve_all
from gbcsp.generator import sample_instance
from gbcsp.harness import ExperimentConfig, format_csv, run_sweep
from gbcsp.model import Params
from gbcsp.oracle import (
    brute_force,
    empirical_extend_probability,
    extend_probability_binomial,
    random_strict_params,
)
from gbcsp.analytics import extend_probability
from gbcsp.rng import SeedSpec
from fractions import Fraction

MASTER = 20260809

GRID = [
    (d, k, factor * d ** (1 - k))
    for d in (2, 3, 4)
    for k in (2, 3, 4)
    for factor in (0.25, 0.5, 0.9)
]


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweep_one():
    config = ExperimentConfig(
        n=10, d=3, k=2, q=2, t_grid=(10,), trials=20_000,
        master_seed=MASTER, measures=("nodes",),
    )
    rows = run_sweep(config)
    return config, rows, format_csv(rows)


def test_criterion_1_counting_semantics():
    t0 = time.time()
    stream = SeedSpec(MASTER, 0).stream("acceptance-c1")
    checked = 0
    drawn = hashlib.sha256()
    for idx in range(200):
        params = random_strict_params(stream)
        drawn.update(repr(params).encode("utf-8"))
        inst = sample_instance(params, SeedSpec(MASTER, idx), label="c1")
        stats = solve_all(inst, collect=True)
        oracle = brute_force(inst)
        assert stats.nodes == oracle.node_count, f"instance {idx}: node counts differ"
        assert stats.level_counts == oracle.level_counts, f"instance {idx}: profiles differ"
        assert set(stats.solutions) == set(oracle.solutions), f"instance {idx}: solutions differ"
        checked += 1
    elapsed = time.time() - t0
    report("C1 counting semantics", True,
           f"{checked} instances match brute force exactly in {elapsed:.1f}s")
    assert checked >= 200
    # the same 200 parameter sets, whichever code draws them
    assert drawn.hexdigest() == "c357c854e2fc7943c998957063c2ea5b5909cb11280256b823a9d60c2718899d"
    assert elapsed < 60.0


def test_criterion_2_monte_carlo_vs_exact_formula(sweep_one):
    _, rows, _ = sweep_one
    (row,) = rows
    ok1 = abs(row.z_score) <= 3.0
    report("C2 mean nodes vs formula (n=10,d=3,k=2,q=2,t=10)", ok1,
           f"mean={row.mean_nodes:.1f} expected={math.exp(row.log_T_exact):.1f} z={row.z_score:+.2f}")
    assert ok1, f"z-score {row.z_score} outside +-3"

    t0 = time.time()
    config = ExperimentConfig(
        n=12, d=2, k=3, q=1, t_grid=(12,), trials=20_000,
        master_seed=MASTER, measures=("nodes",),
    )
    (row2,) = run_sweep(config)
    elapsed = time.time() - t0
    ok2 = abs(row2.z_score) <= 3.0
    report("C2 mean nodes vs formula (n=12,d=2,k=3,q=1,t=12)", ok2,
           f"mean={row2.mean_nodes:.1f} expected={math.exp(row2.log_T_exact):.1f} "
           f"z={row2.z_score:+.2f} in {elapsed:.0f}s")
    assert ok2, f"z-score {row2.z_score} outside +-3"
    assert elapsed < 300.0


def test_criterion_3_survival_probability_exact_and_empirical():
    t0 = time.time()
    for n in range(2, 11):
        for k in (2, 3):
            if k > n:
                continue
            for d in (2, 3, 4):
                for q in range(1, d):
                    params = Params(n=n, d=d, k=k, t=1, q=q)
                    p = Fraction(q, d**k)
                    for i in range(n):
                        assert extend_probability(i, params) == extend_probability_binomial(
                            n, k, p, i
                        ), f"mismatch at n={n} d={d} k={k} q={q} i={i}"

    spots = [
        (10, 3, 2, 2, 5),
        (10, 3, 2, 2, 9),
        (12, 2, 3, 1, 11),
    ]
    samples = 1_000_000
    for n, d, k, q, i in spots:
        exact = float(extend_probability(i, Params(n=n, d=d, k=k, t=1, q=q)))
        est = empirical_extend_probability(n, d, k, q, i, samples, MASTER)
        stderr = math.sqrt(exact * (1 - exact) / samples)
        assert abs(est - exact) < 4 * stderr, (
            f"spot (n={n},d={d},k={k},q={q},i={i}): {est} vs {exact} (4se={4 * stderr:.2e})"
        )
    elapsed = time.time() - t0
    report("C3 survival probability", True,
           f"exact rational equality on n<=10 grid; 3 Monte Carlo spots within "
           f"4 standard errors at 1e6 samples; {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_4_root_finder_contract():
    sets = 0
    worst = 0.0
    for d, k, p in GRID:
        r0 = r_regime_boundary(d, k, p)
        for mult in (2.0, 10.0):
            ap = AnalyticParams(float(d), k, p, mult * r0)
            z = rate_argmax(ap)
            residual = abs(rate_prime(z, ap))
            worst = max(worst, residual)
            assert residual <= 1e-10, f"(d={d},k={k},p={p},r={mult}*r0): residual {residual}"
            assert 0.0 < z < 1.0
            sets += 1
    assert sets >= 50

    for d, k, p in GRID:
        r0 = r_regime_boundary(d, k, p)
        zs = [
            rate_argmax(AnalyticParams(float(d), k, p, r0 * (1 + delta)))
            for delta in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        assert zs == sorted(zs), f"(d={d},k={k},p={p}): maximizer not monotone toward 1"
        assert zs[-1] > zs[0]
    report("C4 root finder", True,
           f"{sets} supercritical sets, max |f'(argmax)| = {worst:.2e} <= 1e-10; "
           "argmax increases toward 1 as density drops to r0")


def test_criterion_5_theorem_suite():
    # growth positivity
    t2_ok = True
    for d, k, p in GRID:
        r0 = r_regime_boundary(d, k, p)
        for mult in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            if rate_max(AnalyticParams(float(d), k, p, mult * r0)) <= 0.0:
                t2_ok = False

    # strict decrease and derivative identity
    t3_ok = True
    t3_worst = 0.0
    for d, k, p in GRID:
        r0 = r_regime_boundary(d, k, p)
        delta = 1e-3 * r0
        for mult in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            r = mult * r0
            f_here = rate_max(AnalyticParams(float(d), k, p, r))
            f_next = rate_max(AnalyticParams(float(d), k, p, r + delta))
            if not f_next < f_here:
                t3_ok = False
        h = 1e-5 * r0
        for mult in (2.0, 5.0, 10.0, 50.0):
            r = mult * r0
            ap = AnalyticParams(float(d), k, p, r)
            z = rate_argmax(ap)
            analytic = math.log1p(-p * z**k)
            fd = (
                rate_max(AnalyticParams(float(d), k, p, r + h))
                - rate_max(AnalyticParams(float(d), k, p, r - h))
            ) / (2 * h)
            t3_worst = max(t3_worst, abs(fd - analytic))
            if abs(fd - analytic) > 1e-6:
                t3_ok = False

    # decay toward zero
    t4_monotone_ok = True
    t4_bound_ok = True
    t4_failures = []
    for d, k, p in GRID:
        r0 = r_regime_boundary(d, k, p)
        values = [rate_max(AnalyticParams(float(d), k, p, mult * r0)) for mult in (10.0, 100.0, 1000.0)]
        if not (values[0] > values[1] > values[2]):
            t4_monotone_ok = False
        if not values[2] < 1e-2:
            t4_bound_ok = False
            t4_failures.append((d, k, round(p, 6), round(values[2], 5)))

    # continuity at the regime boundary
    cont_ok = True
    cont_worst = 0.0
    for d, k, p in GRID:
        r0 = r_regime_boundary(d, k, p)
        eps = 1e-8 * r0
        below = rate_max(AnalyticParams(float(d), k, p, r0 - eps))
        above = rate_max(AnalyticParams(float(d), k, p, r0 + eps))
        gap = abs(below - above)
        cont_worst = max(cont_worst, gap)
        if gap > 1e-6:
            cont_ok = False

    ok = t2_ok and t3_ok and t4_monotone_ok and t4_bound_ok and cont_ok
    report(
        "C5 theorem suite",
        ok,
        f"positivity={'ok' if t2_ok else 'FAIL'}; "
        f"decrease+derivative={'ok' if t3_ok else 'FAIL'} (max dev {t3_worst:.2e}); "
        f"decay monotone={'ok' if t4_monotone_ok else 'FAIL'}; "
        f"decay bound F(1e3*r0)<1e-2={'ok' if t4_bound_ok else 'FAIL'} "
        f"({len(t4_failures)} of {len(GRID)} combos exceed it); "
        f"continuity at r0={'ok' if cont_ok else 'FAIL'} (max gap {cont_worst:.2e})",
    )
    assert t2_ok, "growth exponent not positive somewhere on the grid"
    assert t3_ok, f"decrease/derivative check failed (max deviation {t3_worst})"
    assert t4_monotone_ok, "growth exponent not decreasing along 10x grid"
    assert cont_ok, f"growth exponent discontinuous at r0 (max gap {cont_worst})"
    # Unattainable as stated for k >= 3: the exponent decays like
    # r**(-1/(k-1)), so at r = 1000*r0 it is still ~0.015..0.10 there.
    # Asserted faithfully; see notes for the full analysis.
    assert t4_bound_ok, (
        "F(1000*r0) < 1e-2 fails for every k >= 3 grid combination "
        f"(d, k, p, F): {t4_failures}"
    )


def test_criterion_6_asymptote_convergence():
    d, k, p = 2.0, 3, 1 / 8
    r0 = r_regime_boundary(d, k, p)
    details = []
    for mult in (0.5, 1.0, 2.0):
        ap = AnalyticParams(d, k, p, mult * r0)
        gaps = []
        regime = None
        for n in (100, 200, 400, 800):
            exact = log_exact_expected_nodes_at(n, ap)
            _, asym, regime = log_asymptotic_nodes_at(n, ap)
            gaps.append(abs(math.exp(asym - exact) - 1.0))
        decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        details.append(f"{regime}: gaps {'/'.join(f'{g:.4f}' for g in gaps)}")
        assert decreasing, f"{regime}: |ratio-1| not decreasing in n: {gaps}"
        assert gaps[-1] < 0.05, f"{regime}: |ratio-1| at n=800 is {gaps[-1]}"
    report("C6 asymptote convergence", True, "; ".join(details))


def test_criterion_7_growth_exponent_identities():
    worst_identity = 0.0
    for d, k, p in GRID:
        r0 = r_regime_boundary(d, k, p)
        for mult in (1.5, 2.0, 5.0, 20.0):
            ap = AnalyticParams(float(d), k, p, mult * r0)
            dev = abs(rate_max(ap) - rate_max_stationary_form(ap))
            worst_identity = max(worst_identity, dev)
            assert dev < 1e-10, f"(d={d},k={k},p={p},r={mult}*r0): forms differ by {dev}"

    worst_boundary = 0.0
    for d, k, p in GRID:
        r0 = r_regime_boundary(d, k, p)
        boundary = rate_max(AnalyticParams(float(d), k, p, r0))
        closed = (1 - (1 - p) / (k * p) * math.log1p(p / (1 - p))) * math.log(d)
        dev = abs(boundary - closed)
        worst_boundary = max(worst_boundary, dev)
        assert dev < 1e-12, f"(d={d},k={k},p={p}): boundary closed form differs by {dev}"
    report("C7 exponent identities", True,
           f"stationary form max dev {worst_identity:.2e} < 1e-10; "
           f"boundary closed form max dev {worst_boundary:.2e} < 1e-12")


def test_criterion_8_phase_transition_sanity():
    t0 = time.time()
    sat_config = ExperimentConfig(
        n=30, d=2, k=3, q=1, t_grid=(90, 180), trials=500,
        master_seed=MASTER, measures=("sat",),
    )
    low, high = run_sweep(sat_config)
    ok_sat = low.sat_fraction > 0.7 and high.sat_fraction < 0.3
    uc_config = ExperimentConfig(
        n=30, d=2, k=3, q=1, t_grid=(60, 180), trials=500,
        master_seed=MASTER, measures=("uc",),
    )
    uc_low, uc_high = run_sweep(uc_config)
    p1, p2 = uc_low.uc_success, uc_high.uc_success
    pooled = (p1 + p2) / 2
    se = math.sqrt(max(pooled * (1 - pooled) * (2 / 500), 1e-12))
    z = (p1 - p2) / se
    ok_uc = z >= 3.0
    elapsed = time.time() - t0
    report("C8 phase transition", ok_sat and ok_uc,
           f"sat(r=3)={low.sat_fraction:.3f} (>0.7), sat(r=6)={high.sat_fraction:.3f} (<0.3); "
           f"uc(r=2)={p1:.3f} vs uc(r=6)={p2:.3f}, z={z:.1f}; {elapsed:.0f}s")
    assert low.sat_fraction > 0.7, f"satisfiable fraction at r=3 is {low.sat_fraction}"
    assert high.sat_fraction < 0.3, f"satisfiable fraction at r=6 is {high.sat_fraction}"
    assert ok_uc, f"uc success margin not significant: {p1} vs {p2} (z={z})"
    assert elapsed < 600.0


def test_criterion_9_reproducibility(sweep_one):
    config, _, csv_first = sweep_one
    rows_again = run_sweep(config)
    csv_again = format_csv(rows_again)
    ok = csv_again.encode() == csv_first.encode()
    report("C9 reproducibility", ok,
           "criterion-2 sweep replay produced byte-identical CSV"
           if ok else "CSV bytes differ between replays")
    assert ok
