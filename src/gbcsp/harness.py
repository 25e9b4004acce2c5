"""Seeded Monte Carlo sweeps over constraint density, with CSV output.

Each grid point draws ``trials`` independent instances (one stream per
trial index, decorrelated across points by a per-point stream label),
optionally measures search-tree nodes, satisfiability, and unit-constraint
success, and lines the sample statistics up against the exact and
asymptotic expected-node formulas.  Runs are bit-reproducible: per-trial
records depend only on (master_seed, trial index, point), aggregation is a
deterministic fold in trial order, and floats are rendered with shortest
round-trip repr.  With ``jobs > 1`` a sweep runs pieces of every point's
trials through ``run_point`` on one pool of at most ``jobs`` workers (and
no more than the machine's CPUs), so the worker count never changes a row.

``run_point`` runs its trials in batches, each phase by phase: it draws
all the batch's instances in one ``generator.sample_batch``; when nodes or
sat are measured it builds all their check rows in one
``backtracker.prepare`` and solves each trial with ``solve_all``; when uc
is measured it builds all their UC states and first words in one
``uc.prepare`` and runs each trial with ``run_uc``; then it lines the
records up in trial order.  A batch is charged as a whole before it is
drawn: each trial its arrays, words and draw temporaries
(``generator.batch_bytes``), its check rows and solver state when solved
(``backtracker.batch_bytes``) and its UC state when uc is measured
(``uc.check_uc_size``), against ``generator.MAX_INSTANCE_BYTES``, and it
holds at most ``BATCH_ROWS`` constraints.  A batch shrinks to one trial
at the least, so ``run_sweep`` skips just the points whose batch of one
trial that charge refuses.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from dataclasses import dataclass

from . import analytics, backtracker, generator, uc
from .backtracker import solve_all

# sample_instance is not called here; perfbench/tracing.py wraps harness.sample_instance.
from .generator import sample_batch, sample_instance  # noqa: F401
from .model import Params, require_int
from .rng import SeedSpec
from .uc import check_uc_size, run_uc

CSV_HEADER = "t,r,trials,mean_nodes,stderr_nodes,sat_fraction,uc_success,log_T_exact,log_T_asym,z_score"

MEASURES = ("nodes", "sat", "uc")

# Most constraint rows in one run_point batch; larger batches run no faster.
BATCH_ROWS = 1 << 12


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: base parameters, a grid of constraint counts, and flags."""

    n: int
    d: int
    k: int
    q: int
    t_grid: tuple[int, ...]
    trials: int
    master_seed: int
    measures: tuple[str, ...] = ("nodes",)
    out: str | None = None
    jobs: int = 1

    def __post_init__(self):
        for name, kind in (("t_grid", "ints"), ("measures", "strings")):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list of {kind}, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        for name in ("n", "d", "k", "q", "trials", "master_seed", "jobs"):
            require_int(getattr(self, name), name)
        for t in self.t_grid:
            require_int(t, "t_grid entry")
        # base parameters no grid point can repair; a bad t only skips its point
        Params(n=self.n, d=self.d, k=self.k, t=0, q=self.q)
        SeedSpec(self.master_seed)  # refused here, not at the first trial
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string or null, got {self.out!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        for m in self.measures:
            if m not in MEASURES:
                raise ValueError(f"unknown measure {m!r}; choose from {MEASURES}")
        if not self.measures:
            raise ValueError("at least one measure is required")
        if "uc" in self.measures and self.q >= self.d:
            raise ValueError(f"measure 'uc' requires q < d, got q={self.q}, d={self.d}")

    def to_doc(self) -> dict:
        doc = dataclasses.asdict(self)
        return {**doc, "t_grid": list(self.t_grid), "measures": list(self.measures)}

    @classmethod
    def from_doc(cls, doc, overrides=None) -> "ExperimentConfig":
        """The config of a JSON object, with the keys of ``overrides`` replaced."""
        if not isinstance(doc, dict):
            raise ValueError(f"a sweep config must be a JSON object, got {type(doc).__name__}")
        doc = {**doc, **(overrides or {})}
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        unknown = sorted(set(doc) - set(names))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; choose from {names}")
        missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in doc]
        if missing:
            raise ValueError(f"missing config keys {missing}")
        return cls(**doc)


@dataclass(frozen=True)
class SummaryRow:
    """Aggregates for one grid point; None marks an unmeasured field."""

    t: int
    r: float
    trials: int
    mean_nodes: float | None
    stderr_nodes: float | None
    sat_fraction: float | None
    uc_success: float | None
    log_T_exact: float | None
    log_T_asym: float | None
    z_score: float | None


def _batch_size(params: Params, measures) -> int:
    """Trials one batch of ``run_point`` holds: as many as fit
    ``generator.MAX_INSTANCE_BYTES`` and whose constraints fit
    ``BATCH_ROWS``, and at least one.  A trial is charged
    ``generator.batch_bytes``, ``backtracker.batch_bytes`` when it is
    solved and its UC state (``uc.check_uc_size``) when uc is measured.
    Each charge refuses a point that one trial passes the budget on."""
    trial = generator.batch_bytes(params)
    if "nodes" in measures or "sat" in measures:
        trial += backtracker.batch_bytes(params)
    if "uc" in measures:
        trial += check_uc_size(params)
    return max(1, min(generator.MAX_INSTANCE_BYTES // trial, BATCH_ROWS // max(params.t, 1)))


def _run_batch(params: Params, seeds: list[SeedSpec], measures, instance_label: str, uc_label: str):
    """The records of one batch, made phase by phase: draw every instance,
    build their check rows and solve each, then prepare their UC runs and
    run each."""
    batch = sample_batch(params, seeds, label=instance_label)
    nodes = sat = uc_ok = [None] * len(batch)
    if "nodes" in measures or "sat" in measures:
        stats = [solve_all(inst, prepared=rows) for inst, rows in zip(batch, backtracker.prepare(batch))]
        if "nodes" in measures:
            nodes = [s.nodes for s in stats]
        if "sat" in measures:
            sat = [s.solution_count > 0 for s in stats]
    if "uc" in measures:
        uc_ok = [run_uc(inst, seed, label=uc_label, prepared=entry).found
                 for inst, seed, entry in zip(batch, seeds, uc.prepare(batch, seeds, uc_label))]
    return list(zip([seed.stream_index for seed in seeds], nodes, sat, uc_ok))


def run_point(params: Params, trials: int, master_seed: int, measures, trial_offset: int = 0, *,
              instance_label: str | None = None, uc_label: str | None = None):
    """Per-trial records, in trial order, for one grid point.

    Trial j's draws depend only on (master_seed, trial_offset + j, point), so
    one 2N-trial run splits into two N-trial runs that pool identically.
    The point's streams carry ``instance_label`` and ``uc_label``, by
    default ``instance/t{t}`` and ``uc/t{t}``.  The trials run in batches
    of ``_batch_size`` (module docstring).
    """
    instance_label = f"instance/t{params.t}" if instance_label is None else instance_label
    uc_label = f"uc/t{params.t}" if uc_label is None else uc_label
    size = _batch_size(params, measures)
    records = []
    for start in range(trial_offset, trial_offset + trials, size):
        seeds = [SeedSpec(master_seed, trial) for trial in range(start, min(start + size, trial_offset + trials))]
        records += _run_batch(params, seeds, measures, instance_label, uc_label)
    return records


def _mean_stderr(values: list[int]) -> tuple[float, float | None]:
    count = len(values)
    total = sum(values)  # exact integer arithmetic
    mean = total / count
    if count < 2:
        return mean, None
    sq = sum(v * v for v in values)
    var = (sq - total * total / count) / (count - 1)
    return mean, math.sqrt(max(var, 0.0) / count)


def summarize_point(params: Params, records, measures) -> SummaryRow:
    measures = tuple(measures)
    mean = stderr = sat_fraction = uc_success = z_score = None
    log_t_exact = log_t_asym = None
    if params.strict:
        log_t_exact = analytics.log_exact_expected_nodes(params)
        if params.t >= 1:
            ap = analytics.AnalyticParams.from_params(params)
            _, log_t_asym, _ = analytics.log_asymptotic_nodes_at(params.n, ap)
    if "nodes" in measures:
        values = [rec[1] for rec in records]
        mean, stderr = _mean_stderr(values)
        if stderr is not None and stderr > 0.0 and log_t_exact is not None:
            z_score = (mean - math.exp(log_t_exact)) / stderr
    if "sat" in measures:
        sat_fraction = sum(1 for rec in records if rec[2]) / len(records)
    if "uc" in measures:
        uc_success = sum(1 for rec in records if rec[3]) / len(records)
    return SummaryRow(
        t=params.t,
        r=params.t / params.n,
        trials=len(records),
        mean_nodes=mean,
        stderr_nodes=stderr,
        sat_fraction=sat_fraction,
        uc_success=uc_success,
        log_T_exact=log_t_exact,
        log_T_asym=log_t_asym,
        z_score=z_score,
    )


def run_sweep(config: ExperimentConfig) -> list[SummaryRow]:
    """All grid points; invalid points and points ``_batch_size`` refuses
    are reported and skipped.  A pool of ``workers = min(jobs, CPUs)`` runs
    pieces of ``max(1, trials // (workers * 8))`` trials, joined in order."""
    points = []
    for t in config.t_grid:
        try:
            params = Params(n=config.n, d=config.d, k=config.k, t=t, q=config.q)
            _batch_size(params, config.measures)
            points.append(params)
        except (ValueError, TypeError) as exc:
            print(f"skipping grid point t={t}: {exc}", file=sys.stderr)
    trials, seed, measures = config.trials, config.master_seed, config.measures
    if config.jobs == 1 or not points:
        return [summarize_point(p, run_point(p, trials, seed, measures), measures) for p in points]
    # imported here: multiprocessing costs every jobs == 1 run its import time
    from concurrent.futures import ProcessPoolExecutor

    workers = min(config.jobs, os.cpu_count() or 1)
    size = max(1, trials // (workers * 8))
    starts = range(0, trials, size)
    pieces = [(p, min(size, trials - start), seed, measures, start) for p in points for start in starts]
    with ProcessPoolExecutor(max_workers=min(workers, len(pieces))) as pool:
        done = pool.map(run_point, *zip(*pieces))
        return [summarize_point(p, [rec for _ in starts for rec in next(done)], measures) for p in points]


# --- output ----------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


_FIELDS = tuple(CSV_HEADER.split(","))


def format_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, f)) for f in _FIELDS))
    return "\n".join(lines) + "\n"


def _write_table(rows, path: str, text_of, what: str) -> None:
    if not rows:
        raise ValueError("refusing to emit an empty table")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text_of(rows))
    except OSError as exc:
        raise OSError(f"could not write {what} to {path}: {exc}") from exc


def emit_csv(rows, path: str) -> None:
    _write_table(rows, path, format_csv, "CSV")


def format_plotdata(rows) -> str:
    lines = ["# " + " ".join(_FIELDS)]
    for row in rows:
        cells = [_cell(getattr(row, f)) or "nan" for f in _FIELDS]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def emit_plotdata(rows, path: str) -> None:
    _write_table(rows, path, format_plotdata, "plot data")
