"""The benchmark's workloads.

Each workload turns the seed into inputs, runs one block of work per call of
``run`` (the timed part), inspects each block's output in ``observe`` and
checks everything in ``check`` after timing ends.  Calls go through module
attributes (``harness.run_sweep``, ``uc.run_uc``, ...) so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import random

from gbcsp import analytics, generator, harness, uc
from gbcsp.analytics import r_regime_boundary
from gbcsp.backtracker import solve_all
from gbcsp.model import Params
from gbcsp.rng import SeedSpec

import checks

# A sweep point's pooled mean node count may sit this many pooled standard
# errors from exp(log_T_exact).
Z_BOUND = 5.0


def derive(*parts) -> int:
    """A 64-bit master seed determined by ``parts``."""
    return int.from_bytes(hashlib.sha256(repr(parts).encode("utf-8")).digest()[:8], "big")


class Sweep:
    """``harness.run_sweep`` on one configuration; a block is one sweep."""

    def __init__(self, name, seed, *, n, d, k, q, t_grid, trials, measures, sampled_per_point,
                 warm_up_trials, warm_up_index=0):
        self.name, self.seed = name, seed
        self.warm_up_trials, self.warm_up_index = warm_up_trials, warm_up_index
        self.base = dict(n=n, d=d, k=k, q=q, t_grid=t_grid, measures=measures)
        self.trials = trials
        self.sampled_per_point = sampled_per_point
        self.items_per_block = trials * len(t_grid)
        self.blocks: list[tuple[int, list]] = []

    def config(self, master_seed, trials):
        return harness.ExperimentConfig(trials=trials, master_seed=master_seed, **self.base)

    def warm_up(self):
        harness.run_sweep(self.config(derive(self.name, "warm-up", self.warm_up_index), self.warm_up_trials))

    def input(self, j):
        return derive(self.name, self.seed, j)

    def run(self, master_seed):
        return harness.run_sweep(self.config(master_seed, self.trials))

    def observe(self, master_seed, rows, _checks):
        self.blocks.append((master_seed, rows))

    def done(self):
        return True

    def check(self, chk: checks.Checks):
        b = self.base
        measures = b["measures"]
        for i, t in enumerate(b["t_grid"]):
            point = [rows[i] for _, rows in self.blocks]
            chk.expect(all(r.t == t and r.trials == self.trials for r in point), f"t={t}: unexpected rows")
            if "nodes" in measures:
                total = sum(r.trials for r in point)
                mean = sum(r.mean_nodes * r.trials for r in point) / total
                stderr = math.sqrt(sum((r.stderr_nodes * r.trials) ** 2 for r in point)) / total
                z = (mean - math.exp(point[0].log_T_exact)) / stderr
                chk.expect(abs(z) <= Z_BOUND, f"t={t}: pooled mean {mean} is {z:+.2f} stderr from exp(log_T_exact)")

        # The first block again through run_point, trial by trial.
        master_seed, rows = self.blocks[0]
        step = max(1, self.trials // self.sampled_per_point)
        for i, t in enumerate(b["t_grid"]):
            params = Params(n=b["n"], d=b["d"], k=b["k"], t=t, q=b["q"])
            records = harness.run_point(params, self.trials, master_seed, measures)
            chk.expect(harness.summarize_point(params, records, measures) == rows[i],
                       f"t={t}: run_point records do not reproduce the run_sweep row")
            for trial, nodes, sat, uc_ok in records:
                if uc_ok:
                    chk.expect(sat is not False, f"t={t} trial {trial}: UC succeeded on an instance without solutions")
                if trial % step:
                    continue
                inst = generator.sample_instance(params, SeedSpec(master_seed, trial), label=f"instance/t{t}")
                stats = solve_all(inst)
                counts, ref_nodes, ref_solutions = checks.enumerate_levels(inst)
                where = f"t={t} trial {trial}"
                chk.expect(stats.nodes == 1 + params.d * sum(stats.level_counts[:-1]),
                           f"{where}: nodes != 1 + d * sum(c_i)")
                chk.expect(stats.level_counts == counts, f"{where}: level counts differ from the reference")
                chk.expect(stats.nodes == ref_nodes, f"{where}: nodes {stats.nodes} != reference {ref_nodes}")
                chk.expect(stats.solution_count == ref_solutions, f"{where}: solution count differs")
                if nodes is not None:
                    chk.expect(nodes == ref_nodes, f"{where}: sweep record has nodes {nodes}")
                if sat is not None:
                    chk.expect(sat == (ref_solutions > 0), f"{where}: sweep record has sat={sat}")
                if uc_ok:
                    chk.expect(ref_solutions > 0, f"{where}: UC succeeded but the reference finds no solution")
        checks.check_fingerprints(self.name, chk)


class UCLarge:
    """One trial of ``uc.uc_success_rate`` per block: the same two calls with
    the same seeds, made here so that each found assignment can be checked."""

    name = "uc_large"
    params = Params(n=16000, d=2, k=3, t=32000, q=1)
    items_per_block = 1

    def __init__(self, seed):
        self.master_seed = derive(self.name, seed)
        self.found = 0

    def warm_up(self):
        small = Params(n=4000, d=2, k=3, t=8000, q=1)
        spec = SeedSpec(derive(self.name, "warm-up"), 0)
        inst = generator.sample_instance(small, spec)
        outcome = uc.run_uc(inst, spec)
        if outcome.found:
            checks.violated_constraints(inst, outcome.assignment)

    def input(self, j):
        return SeedSpec(self.master_seed, j)

    def run(self, spec):
        inst = generator.sample_instance(self.params, spec)
        return inst, uc.run_uc(inst, spec)

    def observe(self, spec, out, chk: checks.Checks):
        inst, outcome = out
        if outcome.found:
            self.found += 1
            bad = checks.violated_constraints(inst, outcome.assignment)
            chk.expect(len(outcome.assignment) == self.params.n
                       and set(outcome.assignment) <= set(range(self.params.d)),
                       f"trial {spec.stream_index}: malformed assignment")
            chk.expect(bad == 0, f"trial {spec.stream_index}: UC assignment violates {bad} constraints")

    def done(self):
        return self.found > 0

    def check(self, chk: checks.Checks):
        chk.expect(self.found > 0, "no UC success at r = 2")
        # The timed loop mirrors uc_success_rate: compare on a small size.
        small = Params(n=400, d=2, k=3, t=800, q=1)
        seed = derive(self.name, "mirror")
        hits = sum(uc.run_uc(generator.sample_instance(small, SeedSpec(seed, j)), SeedSpec(seed, j)).found
                   for j in range(20))
        chk.expect(uc.uc_success_rate(small, 20, seed) == hits / 20,
                   "uc_success_rate disagrees with its own trials")
        checks.check_fingerprints(self.name, chk)


class PredictGrid:
    """``analytics.predict`` over strict (d, k, q), three densities and three n;
    block j is the nine points of combination j mod 6, so six blocks make one
    pass over the grid."""

    name = "predict_grid"
    combos = ((2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2))
    sizes = (100, 1000, 10000)
    bands = {"below": (0.3, 0.7), "near": (0.95, 1.05), "above": (1.5, 3.0)}

    def __init__(self, seed):
        rng = random.Random(derive(self.name, seed))
        self.points = []
        for d, k, q in self.combos:
            r0 = r_regime_boundary(d, k, q / d**k)
            for band, (lo, hi) in self.bands.items():
                factor = rng.uniform(lo, hi)
                for n in self.sizes:
                    params = Params(n=n, d=d, k=k, t=max(1, round(factor * r0 * n)), q=q)
                    self.points.append(((d, k, q), band, params))
        self.items_per_block = len(self.points) // len(self.combos)
        self.predictions = {}

    def warm_up(self):
        self.run(self.input(0))

    def input(self, j):
        size = self.items_per_block
        start = j % len(self.combos) * size
        return self.points[start:start + size]

    def run(self, points):
        return [analytics.predict(params) for _, _, params in points]

    def observe(self, points, predictions, _checks):
        for (combo, band, params), pred in zip(points, predictions):
            self.predictions.setdefault((combo, band, params.n), (params, pred))

    def done(self):
        return len(self.predictions) == len(self.points)

    def check(self, chk: checks.Checks):
        got = self.predictions
        for combo in self.combos:
            for n in self.sizes:
                grid = [got[combo, band, n] for band in self.bands]
                fs = [pred.F for _, pred in grid]
                chk.expect(all(f > 0 for f in fs) and all(a > b for a, b in zip(fs, fs[1:])),
                           f"{combo} n={n}: F along the r grid is {fs}, not positive and falling")
                chk.expect(grid[0][1].regime == "subcritical" and grid[2][1].regime == "supercritical",
                           f"{combo} n={n}: regimes {[pred.regime for _, pred in grid]}")
            for band in self.bands:
                params, pred = got[combo, band, self.sizes[0]]
                exact = checks.exact_log_expected_nodes(params)
                chk.expect(abs(pred.log_T_exact - exact) <= 1e-9 * max(1.0, abs(exact)),
                           f"{combo} {params}: log_T_exact {pred.log_T_exact} != exact {exact}")
            for band in ("below", "above"):
                gaps = [abs(math.expm1(p.log_T_asym - p.log_T_exact))
                        for _, p in (got[combo, band, n] for n in self.sizes)]
                chk.expect(all(a > b for a, b in zip(gaps, gaps[1:])),
                           f"{combo} {band} r0: asymptote gaps {gaps} do not shrink with n")


def make(name: str, seed: int):
    if name == "sweep_small":
        return Sweep(name, seed, n=10, d=3, k=2, q=2, t_grid=(5, 10, 15, 20), trials=100,
                     measures=("nodes", "sat", "uc"), sampled_per_point=10, warm_up_trials=100)
    if name == "sweep_deep":
        # Peak memory is set by the widest level any solved instance holds, a
        # heavy-tailed draw (median 6e4 rows, 1 in 1000 above 4.8e5).  The
        # warm-up solves the widest r=3 instance among warm-up indices
        # 0..3999 (6.5e5 rows), so every run holds that level and peak_rss_mb
        # measures memory per row rather than the luck of the draw.
        return Sweep(name, seed, n=30, d=2, k=3, q=1, t_grid=(90, 180), trials=10,
                     measures=("nodes", "sat"), sampled_per_point=2, warm_up_trials=1, warm_up_index=2329)
    if name == "uc_large":
        return UCLarge(seed)
    if name == "predict_grid":
        return PredictGrid(seed)
    raise ValueError(f"unknown workload {name!r}")
