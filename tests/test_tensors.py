import ast
import functools
import pathlib
import random

import pytest

import hopfk
from hopfk import tensors
from hopfk.cli import main
from hopfk.fuzz import random_diagram
from hopfk.heegaard import connected_sum, enumerate_colorings, lens_diagram, mirror_diagram
from hopfk.invariant import diagram_nodes
from hopfk.scalars import Scalar, ZERO
from hopfk.tensors import (
    DEFAULT_ENTRY_CAP,
    EntryCapExceeded,
    GradedTensor,
    Leg,
    contract_network,
    entry_cap,
)


def vec(label, values):
    return GradedTensor(
        (Leg(label, len(values)),),
        {(i,): Scalar(v) for i, v in enumerate(values)},
    )


def matrix(l1, l2, rows):
    return GradedTensor(
        (Leg(l1, len(rows)), Leg(l2, len(rows[0]))),
        {
            (i, j): Scalar(v)
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
        },
    )


def test_zero_entries_not_stored():
    t = vec("a", [1, 0, 2])
    assert len(t.data) == 2
    assert t.entry((1,)) == ZERO


def test_scalar_tensor():
    assert GradedTensor.scalar(Scalar(5)).as_scalar() == Scalar(5)
    assert GradedTensor.scalar(ZERO).as_scalar() == ZERO
    with pytest.raises(ValueError):
        vec("a", [1]).as_scalar()


def test_contract_inner_product():
    a = vec("x", [1, 2, 3])
    b = vec("x", [4, 5, 6])
    assert a.contract(b).as_scalar() == Scalar(32)


def test_contract_matrix_vector():
    m = matrix("r", "c", [[1, 2], [3, 4]])
    v = vec("c", [1, 1])
    out = m.contract(v)
    assert out.labels == ("r",)
    assert out.entry((0,)) == Scalar(3) and out.entry((1,)) == Scalar(7)


def test_contract_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        vec("x", [1, 2]).contract(vec("x", [1, 2, 3]))


def test_relabel_permute():
    m = matrix("r", "c", [[1, 2], [3, 4]])
    t = m.relabel({"r": "row"}).permute([1, 0])
    assert t.labels == ("c", "row")
    assert t.entry((1, 0)) == Scalar(2)


def test_entry_cap(monkeypatch):
    big = matrix("a", "b", [[1] * 4] * 4)
    other = matrix("b", "c", [[1] * 4] * 4)
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "8")
    with pytest.raises(EntryCapExceeded) as exc:
        big.contract(other)
    # the join stops at the third row of ``big``: 3 rows x 4 hits > 8
    assert str(exc.value) == (
        "contraction would compute at least 12 products (cap 8); "
        "open legs 'a' (dim 4), 'c' (dim 4); contracted over 'b'"
    )
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "12345")
    assert entry_cap() == 12345
    # a result with no open legs says so, like an outer product says
    # "contracted over nothing"
    monkeypatch.setattr(tensors, "entry_cap", lambda: 0)
    with pytest.raises(EntryCapExceeded) as exc:
        vec("x", [1, 2]).contract(vec("x", [3, 4]))
    assert str(exc.value) == (
        "contraction would compute at least 1 products (cap 0); "
        "open legs none; contracted over 'x'"
    )


def test_entry_cap_counts_join_products(monkeypatch):
    # The cap bounds the products the hash join computes, not the dense
    # size of the result: two diagonal 4x4 matrices make 4 products into a
    # dense size of 16, two all-ones ones make 64.
    diagonal = [[int(i == j) for j in range(4)] for i in range(4)]
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "8")
    product = matrix("a", "b", diagonal).contract(matrix("b", "c", diagonal))
    assert product == matrix("a", "c", diagonal)
    ones = [[1] * 4] * 4
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "32")
    with pytest.raises(EntryCapExceeded, match="cap 32"):
        matrix("a", "b", ones).contract(matrix("b", "c", ones))
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "64")
    assert matrix("a", "b", ones).contract(matrix("b", "c", ones)) == matrix("a", "c", [[4] * 4] * 4)
    # F(S3) graded by the trivial group: the largest join of its validation
    # is 216 products, its largest dense size 6^4 = 1,296
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "500")
    assert main(["validate-algebra", "fun-trivial-s3"]) == 0


def test_entry_cap_must_be_positive(monkeypatch):
    monkeypatch.delenv("HOPFK_ENTRY_CAP", raising=False)
    assert entry_cap() == DEFAULT_ENTRY_CAP
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "")
    assert entry_cap() == DEFAULT_ENTRY_CAP
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "1")
    assert entry_cap() == 1
    for bad in ("abc", "0", "-5", "2.5"):
        monkeypatch.setenv("HOPFK_ENTRY_CAP", bad)
        message = f"HOPFK_ENTRY_CAP must be a positive integer, got '{bad}'"
        with pytest.raises(ValueError) as exc:
            entry_cap()
        assert str(exc.value) == message
        with pytest.raises(ValueError):
            vec("x", [1]).contract(vec("x", [1]))


def test_network_multiplies_components():
    n1 = [vec("x", [1, 2]), vec("x", [1, 1])]  # 3
    n2 = [GradedTensor.scalar(Scalar(7))]
    assert contract_network(n1 + n2).as_scalar() == Scalar(21)


def test_network_order_independent(scan_network, contraction_log):
    # a uniformly random order (the reference planner fed rng.choice) must
    # give the planner's tensor, and on some seed by other contract calls
    nodes = [
        matrix("a", "b", [[1, 2], [3, 4]]),
        matrix("b", "c", [[0, 1], [1, 1]]),
        vec("a", [1, -1]),
        vec("c", [2, 5]),
    ]
    base, plan = contraction_log(contract_network, nodes)
    replans = []
    for seed in range(5):
        pick = random.Random(seed).choice
        got, log = contraction_log(functools.partial(scan_network, pick=pick), nodes)
        assert got == base
        replans.append(log)
    assert any(log != plan for log in replans)


def test_contract_called_only_in_tensors():
    # contract_network is the only place tensors are multiplied: no other
    # module of the package calls an attribute named ``contract``.
    package = pathlib.Path(hopfk.__file__).parent
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "tensors.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "contract"
    ]
    assert not callers


def test_no_rng_parameter_outside_fuzz():
    # the contraction order is the planner's: outside the seeded generators
    # of fuzz.py, no function of the package takes a random source ``rng``
    package = pathlib.Path(hopfk.__file__).parent
    takers = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "fuzz.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == "rng"
    ]
    assert not takers


# -- the greedy planner against the all-pairs scan it replaced ----------------------


def assert_same_plan(scan_network, contraction_log, nodes):
    want = contraction_log(scan_network, nodes)
    got = contraction_log(contract_network, nodes)
    assert got[1] == want[1]
    assert got[0] == want[0]


def test_planner_matches_the_pair_scan(kp, fs3, scan_network, contraction_log):
    rng = random.Random(2024)
    fuzzed = [random_diagram(rng, genus_max=3, max_crossings=10) for _ in range(30)]
    assert {c.sign for D in fuzzed for c in D.crossings} == {1, -1}
    lenses = [lens_diagram(p) for p in range(1, 41)]
    lenses += [
        mirror_diagram(connected_sum(lens_diagram(p), lens_diagram(q)))
        for p, q in ((2, 3), (4, 6), (5, 8), (9, 2))
    ]
    for H, diagrams in ((kp, lenses + fuzzed), (fs3, fuzzed)):
        for D in diagrams:
            for colors in enumerate_colorings(D, H.pi):
                nodes = diagram_nodes(H, D.with_colors(H.pi, colors))
                assert_same_plan(scan_network, contraction_log, nodes)


def test_planner_matches_the_pair_scan_on_components_and_ties(scan_network, contraction_log):
    # two components, each a cycle of equal-size matrices, plus a lone
    # vector: every connected pair ties on open size
    ring = [matrix(i, (i + 1) % 4, [[1, 2], [3, 4]]) for i in range(4)]
    path = [matrix(("p", i), ("p", i + 1), [[1, 1], [0, 1]]) for i in range(3)]
    lone = vec("z", [5, 7])
    for nodes in (ring, ring + path, path + [lone] + ring, [lone] + path):
        assert_same_plan(scan_network, contraction_log, nodes)
