"""The traced benchmark run (``bench/spans.py``) wraps hopfk functions by
looking them up in their owner's namespace.  A refactor that renames or
moves one of them must fail here, not halfway through a traced run."""

import ast
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

from hopfk import invariant, tensors
from hopfk.groups import GroupTable
from hopfk.heegaard import lens_diagram
from hopfk.hopf import build_kac_paljutkin
from hopfk.scalars import Scalar
from hopfk.tensors import GradedTensor

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def test_wrapped_sites_exist():
    # run_path compiles the source in memory: nothing is written under bench/.
    spans = runpy.run_path(str(SPANS))
    for module_name, attr, _ in spans["SPAN_SITES"]:
        assert attr in vars(importlib.import_module(module_name)), (module_name, attr)
    for attr in ("contract", "size"):
        assert attr in vars(GradedTensor), attr
    for attr, _ in spans["SCALAR_COUNTERS"]:
        assert attr in vars(Scalar), attr


def test_invariant_reaches_integral_data_through_its_module(monkeypatch):
    # The ``invariant.integral`` span wraps ``hopfk.invariant.derive_integral_data``;
    # a call that bypasses that attribute would leave the span empty.
    H = build_kac_paljutkin()
    calls = []
    derive = invariant.derive_integral_data

    def counted(A):
        calls.append(A)
        return derive(A)

    monkeypatch.setattr(invariant, "derive_integral_data", counted)
    D = lens_diagram(2).with_colors(H.pi, (1,))
    for _ in range(3):
        invariant.contract_invariant(H, D)
    assert calls == [H] * 3


def _workloads():
    """The syntax tree of bench/workloads.py, which is only parsed, and the
    hopfk modules it imports by name (``from hopfk import hopf``)."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"hopfk.{alias.name}")
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "hopfk"
               for alias in node.names}
    return tree, modules


def test_workloads_read_only_existing_attributes():
    # Every name bench/workloads.py imports from hopfk, and every
    # ``module.attr`` it reads from an imported hopfk module, found in its
    # syntax tree; the source is only parsed.
    tree, modules = _workloads()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hopfk."):
            for alias in node.names:
                assert hasattr(importlib.import_module(node.module), alias.name), (node.module, alias.name)
    assert modules
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert reads
    missing = sorted((name, attr) for name, attr in reads if not hasattr(modules[name], attr))
    assert not missing, missing
    # Read by bench/ only, so no caller in src/ would catch a move.
    assert callable(GroupTable.power) and callable(tensors.entry_cap)


def test_workloads_call_hopfk_with_accepted_arguments():
    # Every ``module.attr(...)`` call bench/workloads.py makes on a hopfk
    # module binds its positional count and keyword names to the callee's
    # signature, so a src change that drops a parameter the benchmark
    # still passes fails here, not in the benchmark run.
    tree, modules = _workloads()
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
             and node.func.value.id in modules]
    assert calls
    for call in calls:
        f = getattr(modules[call.func.value.id], call.func.attr)
        args = [None] * len(call.args) if not any(isinstance(a, ast.Starred) for a in call.args) else []
        kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(f).bind_partial(*args, **kwargs)
        except TypeError as exc:
            raise AssertionError(f"line {call.lineno}: {call.func.value.id}.{call.func.attr}: {exc}") from None


@pytest.mark.parametrize("workload", ["lens", "walk", "validate"])
def test_benchmark_answers_hold_at_seed_2(workload):
    # One pass of the workload's ops, checked by its own ``expect`` (closed
    # forms, lift counts and K along each walk, verdicts), as bench/run.py
    # checks them.  run_path compiles in memory: nothing is written under bench/.
    setup, expect = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"][workload]
    ops = setup(2)
    answers = [op.run() for op in ops]
    expected = expect(ops, answers)
    wrong = [(op.label, answer, exp) for op, answer, exp in zip(ops, answers, expected)
             if any(answer.get(k) != v for k, v in exp.items())]
    assert ops and not wrong, wrong
