import concurrent.futures
import dataclasses
import itertools
import math
import tracemalloc

import pytest

from gbcsp import harness
from gbcsp.harness import (
    CSV_HEADER,
    MEASURES,
    ExperimentConfig,
    SummaryRow,
    emit_csv,
    emit_plotdata,
    format_csv,
    format_plotdata,
    run_point,
    run_sweep,
    summarize_point,
)
from gbcsp import backtracker, generator, uc
from gbcsp.model import Params
from reference import parse_csv, reference_run_point


@pytest.fixture
def pools(monkeypatch):
    """Replaces ProcessPoolExecutor with a recorder that starts no process
    and runs ``map`` in this process; gives the list of pools made, on a
    machine that reports 8 CPUs."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            self.pieces = list(zip(*iterables))
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    return made


def small_config(**overrides):
    base = dict(
        n=6, d=2, k=2, q=1, t_grid=(0, 4), trials=8, master_seed=77,
        measures=("nodes", "sat", "uc"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_doc_round_trip(self):
        config = small_config()
        assert ExperimentConfig.from_doc(config.to_doc()) == config

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            small_config(measures=("nodes", "time"))

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            small_config(trials=0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            small_config(jobs=jobs)

    @pytest.mark.parametrize("key, value", [
        ("trials", "5"), ("trials", 2.5), ("trials", True), ("t_grid", [5.5]),
        ("t_grid", 5), ("n", None), ("master_seed", 1.0), ("jobs", False),
    ])
    def test_from_doc_rejects_non_int_fields(self, key, value):
        doc = small_config().to_doc()
        doc[key] = value
        with pytest.raises(ValueError, match="must be .*int"):
            ExperimentConfig.from_doc(doc)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_from_doc_rejects_a_seed_outside_64_bits(self, seed):
        doc = small_config().to_doc()
        doc["master_seed"] = seed
        with pytest.raises(ValueError, match="^master_seed must fit in 64 unsigned bits$"):
            ExperimentConfig.from_doc(doc)
        assert ExperimentConfig.from_doc(doc, {"master_seed": 2**64 - 1}).master_seed == 2**64 - 1

    def test_from_doc_rejects_uc_when_q_is_not_below_d(self):
        doc = {**small_config().to_doc(), "q": 2}
        with pytest.raises(ValueError, match=r"^measure 'uc' requires q < d, got q=2, d=2$"):
            ExperimentConfig.from_doc(doc)
        assert ExperimentConfig.from_doc(doc, {"measures": ["nodes", "sat"]}).q == 2

    def test_rejects_non_string_out(self):
        with pytest.raises(ValueError, match="out must be"):
            small_config(out=5)

    def test_from_doc_rejects_unknown_keys(self):
        doc = small_config().to_doc()
        del doc["measures"]
        doc["mesures"] = ["uc"]
        with pytest.raises(ValueError, match=r"unknown config keys \['mesures'\]"):
            ExperimentConfig.from_doc(doc)

    def test_from_doc_rejects_missing_keys(self):
        doc = small_config().to_doc()
        del doc["t_grid"], doc["trials"]
        with pytest.raises(ValueError, match=r"missing config keys \['t_grid', 'trials'\]"):
            ExperimentConfig.from_doc(doc)


class TestSweep:
    def test_unconstrained_point_is_deterministic(self):
        config = ExperimentConfig(
            n=3, d=2, k=2, q=1, t_grid=(0,), trials=5, master_seed=3,
            measures=("nodes",),
        )
        (row,) = run_sweep(config)
        assert row.mean_nodes == 15.0
        assert row.stderr_nodes == 0.0
        assert row.z_score is None
        assert row.sat_fraction is None and row.uc_success is None
        assert row.log_T_exact == pytest.approx(math.log(15), abs=1e-14)
        assert row.log_T_asym is None  # no density: no asymptote

    def test_replay_is_bit_identical(self):
        config = small_config()
        a = run_sweep(config)
        b = run_sweep(config)
        assert a == b
        assert format_csv(a) == format_csv(b)

    def test_split_and_pool_equals_single_run(self):
        params = Params(n=6, d=2, k=2, t=4, q=1)
        full = run_point(params, 10, 5, ("nodes", "sat", "uc"))
        first = run_point(params, 5, 5, ("nodes", "sat", "uc"))
        second = run_point(params, 5, 5, ("nodes", "sat", "uc"), trial_offset=5)
        assert first + second == full

    @pytest.mark.parametrize("n, d, k, q", [(10, 3, 2, 2), (7, 2, 3, 1), (8, 3, 2, 4), (6, 2, 3, 5)])
    def test_run_point_matches_the_per_trial_loop(self, n, d, k, q):
        # every measure combination the point allows, at t = 0, below and
        # above its density, with and without an offset
        names = MEASURES if q < d else ("nodes", "sat")
        combos = [m for size in range(1, len(names) + 1) for m in itertools.combinations(names, size)]
        for t, offset in ((0, 3), (n // 2, 0), (3 * n, 17)):
            params = Params(n=n, d=d, k=k, t=t, q=q)
            for measures in combos:
                records = run_point(params, 23, 41, measures, trial_offset=offset)
                assert records == reference_run_point(params, 23, 41, measures, trial_offset=offset)

    @pytest.mark.parametrize("params, measures", [
        (Params(n=10, d=3, k=2, t=40, q=2), ("nodes", "sat", "uc")),
        (Params(n=30, d=2, k=3, t=300, q=1), ("nodes",)),
        (Params(n=10, d=2, k=5, t=30, q=20), ("sat",)),
        (Params(n=12, d=4, k=2, t=80, q=3), ("uc",)),
    ])
    def test_batches_split_under_a_lowered_budget(self, params, measures, monkeypatch):
        # A budget of 3.5 trials' charge, beside one UC run's state, runs 10
        # trials in batches of 3, 3, 3 and 1 with the same records, and the
        # traced peak of run_point stays under it.  These dense points have
        # trees of a few prefixes: the walk's prefixes are bounded apart.
        expected = run_point(params, 10, 8, measures)
        trial = generator.batch_bytes(params)
        if "nodes" in measures or "sat" in measures:
            trial += backtracker.batch_bytes(params)
        budget = int(3.5 * trial) + (uc.check_uc_size(params) if "uc" in measures else 0)
        monkeypatch.setattr(generator, "MAX_INSTANCE_BYTES", budget)
        sizes = []
        sample_batch = harness.sample_batch

        def spy(params, seeds, label):
            sizes.append(len(seeds))
            return sample_batch(params, seeds, label)

        monkeypatch.setattr(harness, "sample_batch", spy)
        tracemalloc.start()
        try:
            records = run_point(params, 10, 8, measures)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [3, 3, 3, 1]
        assert records == expected
        assert peak < budget

    def test_invalid_grid_point_skipped(self, capsys):
        config = small_config(t_grid=(-1, 0))
        rows = run_sweep(config)
        assert len(rows) == 1
        assert rows[0].t == 0
        assert "skipping grid point t=-1" in capsys.readouterr().err

    def test_point_over_the_row_budget_skipped(self, capsys, monkeypatch):
        # one-bit words put n = 12 in W = 12 int32 words: 960 bytes of check
        # rows at t = 10 on top of 1,680 bytes of per-variable state, over a
        # budget of 2,180 that the state alone and the 480 bytes of instance
        # arrays fit
        monkeypatch.setattr("gbcsp.backtracker.WORD_BITS", 1)
        monkeypatch.setattr("gbcsp.generator.MAX_INSTANCE_BYTES", 2180)
        config = ExperimentConfig(n=12, d=2, k=3, q=1, t_grid=(0, 10), trials=2, master_seed=5,
                                  measures=("nodes",))
        assert [row.t for row in run_sweep(config)] == [0]
        assert capsys.readouterr().err == ("skipping grid point t=10: t=10 needs 960 bytes of check rows "
                                           "over W=12 prefix words and 1680 bytes of per-variable state, "
                                           "over the budget of 2180\n")
        # a uc sweep builds no check rows: it is charged for its own state,
        # 3,004 bytes at t = 10
        rows = run_sweep(dataclasses.replace(config, measures=("uc",)))
        assert [row.t for row in rows] == [0]
        assert capsys.readouterr().err == ("skipping grid point t=10: n=12, t=10 needs 3004 bytes of "
                                           "unit-constraint state, over the budget of 2180\n")
        monkeypatch.setattr("gbcsp.generator.MAX_INSTANCE_BYTES", 3004)
        rows = run_sweep(dataclasses.replace(config, measures=("uc",)))
        assert [row.t for row in rows] == [0, 10]
        assert capsys.readouterr().err == ""

    def test_jobs_do_not_change_results(self, capsys):
        serial = run_sweep(small_config(trials=6))
        parallel = run_sweep(small_config(trials=6, jobs=2))
        assert serial == parallel
        # a real pool: 53 trials cut into pieces of 53 // 16 = 3, the last one
        # of 2, over three valid points and one invalid one
        config = small_config(t_grid=(-1, 0, 4, 8), trials=53)
        serial = run_sweep(config)
        assert len(serial) == 3
        assert run_sweep(dataclasses.replace(config, jobs=2)) == serial
        assert capsys.readouterr().err.count("skipping grid point t=-1") == 2

    def test_one_pool_per_sweep(self, pools):
        config = small_config(t_grid=(0, 4, 8), trials=40)
        rows = run_sweep(dataclasses.replace(config, jobs=2))
        (pool,) = pools
        # pieces of 40 // 16 = 2 trials; the 8 CPUs do not bind
        assert pool.max_workers == 2
        assert [(p.t, count, start) for p, count, _, _, start in pool.pieces] == [
            (t, 2, start) for t in (0, 4, 8) for start in range(0, 40, 2)
        ]
        assert rows == run_sweep(config)

    @pytest.mark.parametrize("jobs, cpus, trials, workers, size", [
        pytest.param(*case, id="-".join(map(str, case[:4])))
        for case in ((100_000, 8, 40, 8, 1), (100_000, None, 40, 1, 5), (4, 8, 1, 2, 1),
                     (3, 8, 40, 3, 1), (64, 2, 40, 2, 2))
    ])
    def test_workers_are_capped(self, pools, monkeypatch, jobs, cpus, trials, workers, size):
        # never more workers than CPUs or pieces (two points of one trial
        # each make two pieces), and pieces sized for the workers started
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        config = small_config(t_grid=(0, 4), trials=trials, jobs=jobs)
        rows = run_sweep(config)
        (pool,) = pools
        assert pool.max_workers == workers
        assert [count for _, count, _, _, _ in pool.pieces] == [
            min(size, trials - start) for _ in (0, 4) for start in range(0, trials, size)]
        assert rows == run_sweep(dataclasses.replace(config, jobs=1))

    def test_non_strict_point_reports_no_formulas(self):
        config = ExperimentConfig(
            n=4, d=2, k=2, q=2, t_grid=(2,), trials=3, master_seed=9,
            measures=("nodes",),
        )
        (row,) = run_sweep(config)
        assert row.mean_nodes is not None
        assert row.log_T_exact is None
        assert row.log_T_asym is None
        assert row.z_score is None


class TestCsv:
    def test_header_is_pinned(self):
        assert CSV_HEADER == (
            "t,r,trials,mean_nodes,stderr_nodes,sat_fraction,uc_success,"
            "log_T_exact,log_T_asym,z_score"
        )

    def test_round_trip(self):
        rows = run_sweep(small_config())
        text = format_csv(rows)
        assert parse_csv(text) == rows
        assert format_csv(parse_csv(text)) == text

    def test_missing_measures_render_empty(self):
        config = small_config(measures=("sat",), t_grid=(2,))
        text = format_csv(run_sweep(config))
        line = text.splitlines()[1]
        cells = line.split(",")
        assert cells[3] == "" and cells[4] == ""  # mean, stderr unmeasured
        assert cells[5] != ""  # sat fraction present
        assert cells[6] == ""  # uc unmeasured
        assert cells[9] == ""  # no z-score without node counts

    def test_golden_row_layout(self, tmp_path):
        row = SummaryRow(
            t=4, r=0.5, trials=2, mean_nodes=10.5, stderr_nodes=0.5,
            sat_fraction=None, uc_success=None, log_T_exact=2.25,
            log_T_asym=None, z_score=-1.0,
        )
        assert format_csv([row]).splitlines()[1] == "4,0.5,2,10.5,0.5,,,2.25,,-1.0"
        path = tmp_path / "out.csv"
        emit_csv([row], str(path))
        assert path.read_text(encoding="utf-8") == format_csv([row])

    def test_emit_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], str(tmp_path / "no.csv"))
        with pytest.raises(ValueError):
            emit_plotdata([], str(tmp_path / "no.dat"))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_csv("not,a,header\n1,2,3\n")


class TestPlotData:
    def test_comment_header_and_nan_fill(self, tmp_path):
        rows = run_sweep(small_config(measures=("nodes",), t_grid=(0,)))
        text = format_plotdata(rows)
        lines = text.splitlines()
        assert lines[0].startswith("# t r trials")
        assert " nan" in lines[1]  # unmeasured fields become nan, not 0
        path = tmp_path / "plot.dat"
        emit_plotdata(rows, str(path))
        assert path.read_text(encoding="utf-8") == text


class TestDensitySweep:
    def test_mean_nodes_decreasing_and_z_scores_in_range(self):
        # denser instances prune harder: sample means must fall strictly
        # with t, and each sample mean must sit within 3 standard errors of
        # the exact expectation
        config = ExperimentConfig(
            n=10, d=3, k=2, q=2, t_grid=(5, 10, 15, 20), trials=20_000,
            master_seed=424242, measures=("nodes",),
        )
        rows = run_sweep(config)
        means = [row.mean_nodes for row in rows]
        assert means == sorted(means, reverse=True)
        assert len(set(means)) == len(means)
        for row in rows:
            assert abs(row.z_score) <= 3.0, f"t={row.t}: z={row.z_score}"


class TestSummaries:
    def test_z_score_definition(self):
        params = Params(n=4, d=2, k=2, t=2, q=1)
        records = [(0, 20, None, None), (1, 24, None, None), (2, 30, None, None)]
        row = summarize_point(params, records, ("nodes",))
        mean = (20 + 24 + 30) / 3
        var = ((20 - mean) ** 2 + (24 - mean) ** 2 + (30 - mean) ** 2) / 2
        stderr = math.sqrt(var / 3)
        assert row.mean_nodes == pytest.approx(mean)
        assert row.stderr_nodes == pytest.approx(stderr)
        expected_nodes = math.exp(row.log_T_exact)
        assert row.z_score == pytest.approx((mean - expected_nodes) / stderr)
