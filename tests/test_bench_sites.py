"""The traced benchmark run (``bench/spans.py``) wraps hopfk functions by
looking them up in their owner's namespace.  A refactor that renames or
moves one of them must fail here, not halfway through a traced run."""

import ast
import importlib
import runpy
from pathlib import Path

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


def test_workloads_read_only_existing_attributes():
    # Every name bench/workloads.py imports from hopfk, and every
    # ``module.attr`` it reads from an imported hopfk module, found in its
    # syntax tree; the source is only parsed.
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (node.module or "").startswith("hopfk"):
            continue
        for alias in node.names:
            if node.module == "hopfk":
                modules[alias.asname or alias.name] = importlib.import_module(f"hopfk.{alias.name}")
            else:
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
