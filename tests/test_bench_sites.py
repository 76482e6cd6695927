"""The traced benchmark run (``bench/spans.py``) wraps hopfk functions by
looking them up in their owner's namespace.  A refactor that renames or
moves one of them must fail here, not halfway through a traced run."""

import importlib
import runpy
from pathlib import Path

from hopfk import invariant
from hopfk.heegaard import lens_diagram
from hopfk.hopf import build_kac_paljutkin
from hopfk.scalars import Scalar
from hopfk.tensors import GradedTensor

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
