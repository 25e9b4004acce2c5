import concurrent.futures
import json
import math
import tracemalloc

import pytest

from gbcsp import analytics
from gbcsp.cli import main
from gbcsp.harness import CSV_HEADER, format_plotdata
from gbcsp.model import loads_instance
from reference import parse_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GEN = ["generate", "--n", "6", "--d", "3", "--k", "2", "--t", "5", "--q", "2",
       "--seed", "11", "--trial", "0"]


def test_generate_stdout_and_determinism(capsys):
    code, out, _ = run(capsys, *GEN)
    assert code == 0
    inst = loads_instance(out)
    assert inst.params.n == 6 and inst.params.t == 5
    code, out2, _ = run(capsys, *GEN)
    assert out2 == out


def test_generate_to_file_then_solve(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, *GEN, "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--in", str(path), "--collect", "--profile")
    assert code == 0
    assert "nodes" in out and "solutions" in out and "levels" in out
    nodes = int(out.splitlines()[0].split()[1])
    assert nodes % 3 == 1


def test_uc_subcommand(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, *GEN, "--out", str(path))
    code, out, _ = run(capsys, "uc", "--in", str(path), "--seed", "5")
    assert code == 0
    assert out.startswith("outcome")


def test_ucrate_subcommand(capsys):
    code, out, _ = run(
        capsys, "ucrate", "--n", "10", "--d", "2", "--k", "3", "--t", "5",
        "--q", "1", "--trials", "20", "--seed", "4"
    )
    assert code == 0
    assert "success_rate" in out


def test_predict_subcommand(capsys):
    code, out, _ = run(
        capsys, "predict", "--n", "10", "--d", "3", "--k", "2", "--t", "10", "--q", "2"
    )
    assert code == 0
    for field in ("regime", "r0", "r_cr", "zeta", "F_per_var", "log_T_exact",
                  "log_T_asym", "log_EN", "log10"):
        assert field in out
    assert "subcritical" in out


PREDICT = ["predict", "--n", "200", "--d", "2", "--k", "3", "--t", "1000", "--q", "1"]


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0", "1"])
def test_predict_rejects_a_bad_tol(capsys, tol):
    code, out, err = run(capsys, *PREDICT, f"--tol={tol}")
    assert code == 2
    assert out == ""
    reason = f"tol must be a finite number in (0, 1), got {float(tol)!r}"
    assert err == f"gbcsp predict: error: {reason}\n"


def test_predict_default_tol_is_the_analytics_default(capsys, monkeypatch):
    default = run(capsys, *PREDICT)
    assert default == run(capsys, *PREDICT, "--tol", "1e-12")
    monkeypatch.setattr(analytics, "DEFAULT_TOL", 1e-3)
    assert run(capsys, *PREDICT) == run(capsys, *PREDICT, "--tol", "1e-3") != default


def test_predict_coarse_tol_still_runs(capsys):
    code, out, err = run(capsys, *PREDICT, "--tol", "1e-3")
    assert code == 0 and err == ""
    assert "supercritical" in out


def test_sweep_with_config_and_overrides(tmp_path, capsys):
    config = {
        "n": 5, "d": 2, "k": 2, "q": 1, "t_grid": [0, 3], "trials": 4,
        "master_seed": 8, "measures": ["nodes", "sat"],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_path = tmp_path / "rows.csv"
    plot_path = tmp_path / "rows.dat"
    code, out, _ = run(
        capsys, "sweep", "--config", str(cfg_path), "--trials", "6",
        "--out", str(out_path), "--plotdata", str(plot_path),
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 3
    assert ",6," in text.splitlines()[1]  # trials override applied
    assert plot_path.exists()


def test_sweep_stdout_without_out(capsys):
    code, out, _ = run(
        capsys, "sweep", "--n", "4", "--d", "2", "--k", "2", "--q", "1",
        "--t-grid", "0,2", "--trials", "3", "--seed", "2", "--measure", "nodes"
    )
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_sweep_plotdata_without_out(tmp_path, capsys):
    argv = ["sweep", "--n", "4", "--d", "2", "--k", "2", "--q", "1",
            "--t-grid", "0,2", "--trials", "3", "--seed", "2", "--measure", "nodes"]
    plot_path = tmp_path / "rows.dat"
    code, out, err = run(capsys, *argv, "--plotdata", str(plot_path))
    assert code == 0 and err == ""
    assert run(capsys, *argv) == (0, out, "")  # stdout is the CSV alone
    assert plot_path.read_text(encoding="utf-8") == format_plotdata(parse_csv(out))


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "2", "--instances", "8")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("instances", ["0", "-5"])
def test_verify_refuses_fewer_than_one_instance(capsys, instances):
    code, out, err = run(capsys, "verify", "--instances", instances)
    assert (code, out) == (2, "")
    assert err == f"gbcsp verify: error: need at least one instance to verify, got {instances}\n"


def test_huge_k_is_refused_without_writing_out_d_to_the_k(capsys):
    code, out, err = run(capsys, "generate", "--n", "3000000", "--d", "2", "--k", "3000000",
                         "--t", "1", "--q", "1", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == "gbcsp generate: error: d^k=2^3000000 > 2^64: tuple ranks do not fit in 64 bits\n"


def test_invalid_params_surface_as_errors(capsys):
    code, out, err = run(
        capsys, "predict", "--n", "2", "--d", "2", "--k", "3", "--t", "1", "--q", "1"
    )
    assert code == 2
    assert out == ""
    assert err == "gbcsp predict: error: arity exceeds variables: k=3 > n=2\n"


def test_predict_refuses_a_tightness_that_underflows(capsys):
    code, out, err = run(
        capsys, "predict", "--n", "2000", "--d", "2", "--k", "1100", "--t", "1", "--q", "1"
    )
    assert (code, out) == (2, "")
    assert err == "gbcsp predict: error: float tightness q/d^k = 1/2^1100 underflows to 0\n"


@pytest.mark.parametrize("k, p", [(1060, "8.095e-320"), (1070, "8e-323")])
def test_predict_refuses_a_subnormal_tightness(k, p, capsys):
    # r0 overflows to inf at k=1060 and the second rate underflows to 0 at
    # k=1070; both are refused before any rate is computed
    code, out, err = run(
        capsys, "predict", "--n", "2000", "--d", "2", "--k", str(k), "--t", "1", "--q", "1"
    )
    assert (code, out) == (2, "")
    assert err == (f"gbcsp predict: error: tightness p={p} is subnormal (below 2^-1022), "
                   "too small for analytics\n")


def test_predict_accepts_the_smallest_normal_tightness(capsys):
    # p = 2^-1022 is the smallest normal float
    code, out, err = run(
        capsys, "predict", "--n", "2000", "--d", "2", "--k", "1022", "--t", "1", "--q", "1"
    )
    assert (code, err) == (0, "")
    fields = dict(line.split(None, 1) for line in out.splitlines())
    for key in ("log_T_exact", "log_T_asym", "log_EN"):
        assert math.isfinite(float(fields[key].split()[0]))


def test_bad_sweep_config_is_a_one_line_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "sweep", "--n", "4", "--d", "2", "--k", "2", "--q", "1",
        "--t-grid", "0", "--trials", "3", "--seed", "2", "--jobs", "0",
    )
    assert code == 2
    assert err == "gbcsp sweep: error: jobs must be >= 1, got 0\n"
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("gbcsp sweep: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value, reason", [
    ("trials", "5", "trials must be an int, got '5'"),
    ("trials", 2.5, "trials must be an int, got 2.5"),
    ("trials", True, "trials must be an int, got True"),
    ("t_grid", [5.5], "t_grid entry must be an int, got 5.5"),
    ("n", -5, "need at least one variable, got n=-5"),
    ("q", 5, "empty relation: q=5 > d^k=4"),
])
def test_config_field_types_are_a_one_line_error(tmp_path, capsys, key, value, reason):
    config = {"n": 4, "d": 2, "k": 2, "q": 1, "t_grid": [2], "trials": 3, "master_seed": 2}
    config[key] = value
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"gbcsp sweep: error: {reason}\n"


@pytest.mark.parametrize("text, extra, reason", [
    ("5", [], "a sweep config must be a JSON object, got int"),
    ("[1]", ["--n", "5"], "a sweep config must be a JSON object, got list"),
    ('{"n": 4, "d": 2, "k": 2, "q": 1, "t_grid": [2], "trials": 3, "master_seed": 2, '
     '"measures": 5}', [], "measures must be a list of strings, got 5"),
], ids=["int", "list-with-flag", "measures-int"])
def test_malformed_sweep_config_is_a_one_line_error(tmp_path, capsys, text, extra, reason):
    path = tmp_path / "sweep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "sweep", "--config", str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == f"gbcsp sweep: error: {reason}\n"


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.pop("k"),
     "instance document must have exactly the keys ['n', 'd', 'k', 'constraints'], "
     "got ['constraints', 'd', 'n']"),
    (lambda doc: doc.update(n=3.9), "n must be an int, got 3.9"),
    (lambda doc: doc["constraints"][3].update(incompatible=[[0, 0], [0, 0]]),
     "constraint 3 repeats the forbidden tuple [0, 0]"),
])
def test_malformed_instance_is_a_one_line_error(tmp_path, capsys, edit, reason):
    path = tmp_path / "inst.json"
    run(capsys, *GEN, "--out", str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "solve", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"gbcsp solve: error: {reason}\n"


def test_solve_over_budget_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    run(capsys, *GEN, "--out", str(path))
    code, out, _ = run(capsys, "solve", "--in", str(path))
    assert code == 0 and "solutions      210\n" in out
    monkeypatch.setattr("gbcsp.backtracker.MAX_COLLECTED_SOLUTIONS", 8)
    assert run(capsys, "solve", "--in", str(path)) == (0, out, "")
    code, out, err = run(capsys, "solve", "--in", str(path), "--collect")
    assert code == 2
    assert out == ""
    assert err == "gbcsp solve: error: at least 210 solutions to collect, over the budget of 8\n"


def test_solve_refuses_check_fields_over_budget(tmp_path, capsys, monkeypatch):
    # n = 64 takes W = 2 int64 prefix words: 64,000 bytes of check rows and
    # 9,728 of per-variable state
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "64", "--d", "2", "--k", "3", "--t", "2000", "--q", "1",
        "--seed", "3", "--out", str(path))
    monkeypatch.setattr("gbcsp.generator.MAX_INSTANCE_BYTES", 32_000)
    code, out, err = run(capsys, "solve", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == ("gbcsp solve: error: t=2000 needs 64000 bytes of check rows over W=2 prefix words "
                   "and 9728 bytes of per-variable state, over the budget of 32000\n")


HUGE_T = 10**20
HUGE_T_ERROR = (f"t={HUGE_T} needs {HUGE_T * 2 * (1 + 1) * 8} bytes of scope and tuple arrays, "
                "over the budget of 268435456")


def traced_run(capsys, *argv):
    """``run`` plus the peak of the memory Python allocated meanwhile."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_generate_refuses_a_huge_t_before_drawing(capsys):
    argv = ["generate", "--n", "6", "--d", "2", "--k", "2", "--q", "1", "--seed", "3"]
    (code, out, err), peak = traced_run(capsys, *argv, "--t", str(HUGE_T))
    assert (code, out) == (2, "")
    assert err == f"gbcsp generate: error: {HUGE_T_ERROR}\n"
    assert peak < 2**20


def test_sweep_skips_a_huge_t(capsys):
    argv = ["sweep", "--n", "6", "--d", "2", "--k", "2", "--q", "1", "--trials", "7",
            "--seed", "3", "--measure", "nodes,uc"]
    (code, out, err), peak = traced_run(capsys, *argv, "--t-grid", f"0,4,8,{HUGE_T}")
    assert code == 0
    assert err == f"skipping grid point t={HUGE_T}: {HUGE_T_ERROR}\n"
    assert peak < 2**20
    assert run(capsys, *argv, "--t-grid", "0,4,8") == (0, out, "")


@pytest.mark.parametrize("command, extra", [
    ("solve", []),
    ("uc", ["--seed", "5"]),
])
@pytest.mark.parametrize("content, reason", [
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"[" * 10**5 + b"]" * 10**5,
     "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
], ids=["text", "binary", "deep"])
def test_invalid_instance_json_names_the_file(tmp_path, capsys, command, extra, content, reason):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, "--in", str(path), *extra)
    assert (code, out) == (2, "")
    assert err == f"gbcsp {command}: error: {path} is not valid JSON: {reason}\n"


def test_invalid_sweep_config_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text('{"n": 4,', encoding="utf-8")
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"gbcsp sweep: error: {path} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_refuses_a_bad_seed_before_any_point(capsys, jobs):
    # the huge t would print a "skipping grid point" line if a point were tried
    code, out, err = run(capsys, "sweep", "--n", "4", "--d", "2", "--k", "2", "--q", "1",
                         "--t-grid", "5,100000000000", "--trials", "3", "--seed", "-1",
                         "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == "gbcsp sweep: error: master_seed must fit in 64 unsigned bits\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_skips_a_point_over_the_row_budget(capsys, jobs):
    # W = 159 int64 words: 120,000 rows take 305,280,000 bytes, over 2**28
    # with the 1,520,000 bytes of per-variable state; the instance's own
    # arrays, 5,760,000 bytes, are never drawn
    (code, out, err), peak = traced_run(capsys, "sweep", "--n", "10000", "--d", "2", "--k", "3",
                                        "--q", "1", "--t-grid", "120000", "--trials", "2",
                                        "--seed", "1", "--jobs", jobs)
    assert (code, out) == (1, "")
    assert err == ("skipping grid point t=120000: t=120000 needs 305280000 bytes of check rows "
                   "over W=159 prefix words and 1520000 bytes of per-variable state, "
                   "over the budget of 268435456\nno valid grid points\n")
    assert peak < 2**20


def test_solve_and_sweep_refuse_a_huge_n_in_one_line(tmp_path, capsys):
    # n = 10**12: the solver's charge is worked out from the parameters, so
    # neither command builds anything of size n before refusing
    path = tmp_path / "inst.json"
    huge = ["--n", str(10**12), "--d", "2", "--k", "3", "--q", "1", "--seed", "1"]
    (code, out, err), peak = traced_run(capsys, "generate", *huge, "--t", "4", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert peak < 2**20
    (code, out, err), peak = traced_run(capsys, "solve", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("gbcsp solve: error: t=4 needs ") and err.count("\n") == 1
    assert peak < 2**20
    (code, out, err), peak = traced_run(capsys, "sweep", *huge, "--t-grid", "4", "--trials", "1",
                                        "--jobs", "1")
    assert (code, out) == (1, "")
    skipped, rest = err.split("\n", 1)
    assert skipped.startswith("skipping grid point t=4: t=4 needs ")
    assert rest == "no valid grid points\n"
    assert peak < 2**20


def test_uc_and_ucrate_refuse_a_huge_n_in_one_line(tmp_path, capsys):
    # the unit-constraint state is charged from the parameters: n = 10**12
    # takes 88 bytes a variable, and n = 10**9 at t = 2n 324 bytes a variable
    path = tmp_path / "inst.json"
    (code, out, err), _ = traced_run(capsys, "generate", "--n", str(10**12), "--d", "2", "--k", "3",
                                     "--q", "1", "--seed", "1", "--t", "4", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    (code, out, err), peak = traced_run(capsys, "uc", "--in", str(path), "--seed", "5")
    assert (code, out) == (2, "")
    assert err == (f"gbcsp uc: error: n={10**12}, t=4 needs 88000000262616 bytes of unit-constraint "
                   "state, over the budget of 268435456\n")
    assert peak < 2**20
    (code, out, err), peak = traced_run(capsys, "ucrate", "--n", str(10**9), "--d", "2", "--k", "3",
                                        "--t", str(2 * 10**9), "--q", "1", "--trials", "3", "--seed", "4")
    assert (code, out) == (2, "")
    assert err.startswith(f"gbcsp ucrate: error: n={10**9}, t={2 * 10**9} needs ")
    assert err.count("\n") == 1
    assert peak < 2**20


def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def predict(params, tol):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                          "and data type float64")

    monkeypatch.setattr(analytics, "predict", predict)
    code, out, err = run(capsys, "predict", "--n", str(10**12), "--d", "2", "--k", "3", "--t", "4",
                         "--q", "1")
    assert (code, out) == (2, "")
    assert err == ("gbcsp predict: error: out of memory: Unable to allocate 7.28 TiB for an array "
                   "with shape (1000000000000,) and data type float64\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_refuses_uc_when_q_is_not_below_d(capsys, monkeypatch, jobs):
    # refused while the config is read: no pool is started (one would fail)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    code, out, err = run(capsys, "sweep", "--n", "10", "--d", "2", "--k", "2", "--q", "2",
                         "--t-grid", "5,10", "--trials", "3", "--seed", "1", "--measure", "uc",
                         "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == "gbcsp sweep: error: measure 'uc' requires q < d, got q=2, d=2\n"


def test_bad_t_grid_names_the_flag(capsys):
    code, out, err = run(capsys, "sweep", "--n", "4", "--d", "2", "--k", "2", "--q", "1",
                         "--t-grid", "1,a", "--trials", "3", "--seed", "2")
    assert (code, out) == (2, "")
    assert err == "gbcsp sweep: error: --t-grid must be comma-separated integers, got '1,a'\n"
