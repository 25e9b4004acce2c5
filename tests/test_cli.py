import json

import pytest

from gbcsp.cli import main
from gbcsp.harness import CSV_HEADER
from gbcsp.model import loads_instance


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


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "2", "--instances", "8")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_invalid_params_surface_as_errors(capsys):
    code, out, err = run(
        capsys, "predict", "--n", "2", "--d", "2", "--k", "3", "--t", "1", "--q", "1"
    )
    assert code == 2
    assert out == ""
    assert err == "gbcsp predict: error: arity exceeds variables: k=3 > n=2\n"


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


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.pop("k"),
     "instance document must have exactly the keys ['n', 'd', 'k', 'constraints'], "
     "got ['constraints', 'd', 'n']"),
    (lambda doc: doc.update(n=3.9), "n must be an int, got 3.9"),
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
    monkeypatch.setattr("gbcsp.backtracker.MAX_LEVEL_ROWS", 8)
    code, out, err = run(capsys, "solve", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == "gbcsp solve: error: depth 2 would hold 9 prefixes, over the budget of 8\n"
