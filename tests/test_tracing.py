"""The benchmark's modules reach package attributes by name from outside
the package; these tests keep those names and the per-round hook in place."""

import ast
import importlib
from pathlib import Path

import pytest

import gbcsp
from gbcsp import uc
from gbcsp.generator import sample_instance
from gbcsp.model import Params
from gbcsp.rng import SeedSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for owner, attr, name in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


@pytest.mark.parametrize("name", ["checks", "workloads"])
def test_benchmark_modules_import(monkeypatch, name):
    """The module imports, and every ``module.attribute`` it reads from a
    module imported from ``gbcsp`` resolves."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    owners = {alias.asname or alias.name: getattr(gbcsp, alias.name)
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "gbcsp"
              for alias in node.names}
    reached = {(node.value.id, node.attr) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in owners}
    assert reached
    for owner, attr in sorted(reached):
        assert hasattr(owners[owner], attr), f"{name}: {owner}.{attr}"


def test_one_reduction_per_round(monkeypatch):
    # every round calls the module-level reduce_after_assignment once, and
    # that call takes one variable out of the run's unset list
    states = []
    reduce = uc.reduce_after_assignment

    def counting_reduce(state, var, value):
        states.append(state)
        return reduce(state, var, value)

    monkeypatch.setattr(uc, "reduce_after_assignment", counting_reduce)
    params = Params(n=60, d=4, k=3, t=240, q=3)
    tags = set()
    for trial in range(20):
        spec = SeedSpec(21, trial)
        states.clear()
        out = uc.run_uc(sample_instance(params, spec), spec)
        tags.add(out.tag)
        assert states and all(state is states[0] for state in states)
        assert len(states) == params.n - len(states[0].unset)
    assert tags == {uc.SOLUTION_FOUND, uc.UNKNOWN}
