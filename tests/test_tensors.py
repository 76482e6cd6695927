import ast
import functools
import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hopfk
from hopfk import tensors
from hopfk.cli import main
from hopfk.fuzz import random_diagram
from hopfk.heegaard import connected_sum, enumerate_colorings, lens_diagram, mirror_diagram
from hopfk.invariant import diagram_nodes
from hopfk.scalars import I, ONE, Scalar, ZERO
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
    assert GradedTensor((), {(): Scalar(5)}).as_scalar() == Scalar(5)
    assert GradedTensor((), {(): ZERO}).as_scalar() == ZERO
    with pytest.raises(ValueError):
        vec("a", [1]).as_scalar()


def test_given_unit_entries_are_stored_as_the_shared_one():
    legs = (Leg("a", 3),)
    t = GradedTensor(legs, {(0,): Scalar(1), (1,): I * -I, (2,): -ONE})
    assert t.data[(0,)] is ONE and t.data[(1,)] is ONE
    assert t.data[(2,)] == -ONE
    # Stored entries are taken as they are: a computed product equal to 1 stays.
    product = GradedTensor(legs, {(0,): I}).contract(GradedTensor((Leg("b", 1),), {(0,): -I}))
    assert product.data[(0, 0)] == ONE and product.data[(0, 0)] is not ONE
    assert GradedTensor.from_stored(legs, {(0,): Scalar(1)}).data[(0,)] is not ONE


def test_equality_compares_legs_and_entries():
    assert GradedTensor((Leg("a", 3),), {}) != GradedTensor((Leg("a", 4),), {})
    assert GradedTensor((Leg("a", 3),), {}) == GradedTensor((Leg("a", 3),), {})
    assert vec("a", [1, 2]) != vec("b", [1, 2])
    assert vec("a", [1, 2]) != vec("a", [1, 3])
    assert (GradedTensor((), {(): Scalar(3)}) == 3) is False


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


def test_relabel_permute(permute):
    m = matrix("r", "c", [[1, 2], [3, 4]])
    t = permute(m.relabel(["row", "c"]), [1, 0])
    assert t.labels == ("c", "row")
    assert t.entry((1, 0)) == Scalar(2)


# -- the hash join against a dense reference ------------------------------------------

# Entries from {+-1, +-i, +-1/2}, the unit both as the shared ONE and as a
# fresh Scalar(1), so that sums cancel and both product paths run.
ENTRY_VALUES = (ONE, Scalar(1), Scalar(-1), I, -I, Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 2)))


@st.composite
def join_operands(draw):
    """Two sparse tensors over legs of dimension 1..3 that share 0, 1 or 2
    legs, or all of them, each with its legs in a drawn order."""
    if draw(st.booleans()):
        shared, mine, theirs = draw(st.integers(1, 3)), 0, 0
    else:
        shared, mine, theirs = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    dims = {label: draw(st.integers(1, 3)) for label in
            [("s", i) for i in range(shared)] + [("a", i) for i in range(mine)] + [("b", i) for i in range(theirs)]}

    def tensor(side, count):
        labels = draw(st.permutations([("s", i) for i in range(shared)] + [(side, i) for i in range(count)]))
        legs = tuple(Leg(label, dims[label]) for label in labels)
        keys = list(itertools.product(*(range(leg.dim) for leg in legs)))
        values = draw(st.lists(st.sampled_from((None,) + ENTRY_VALUES), min_size=len(keys), max_size=len(keys)))
        # from_stored keeps a fresh Scalar(1), which the constructor would store as ONE.
        return GradedTensor.from_stored(legs, {k: v for k, v in zip(keys, values) if v is not None})

    return tensor("a", mine), tensor("b", theirs)


def dense_contract(a, b):
    """``a.contract(b)``'s entries, summed over every value of the shared legs."""
    shared = [leg for leg in a.legs if leg.label in b.labels]
    legs = [leg for leg in a.legs + b.legs if leg not in shared]
    out = {}
    for open_key in itertools.product(*(range(leg.dim) for leg in legs)):
        total = ZERO
        for shared_key in itertools.product(*(range(leg.dim) for leg in shared)):
            at = dict(zip([leg.label for leg in legs + shared], open_key + shared_key))
            total = total + a.entry(at[x] for x in a.labels) * b.entry(at[x] for x in b.labels)
        out[open_key] = total
    return tuple(legs), out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(join_operands())
def test_contract_matches_dense_reference(operands):
    a, b = operands
    got = a.contract(b)
    legs, want = dense_contract(a, b)
    assert got.legs == legs
    assert {k: got.entry(k) for k in want} == want
    assert not any(v.is_zero() for v in got.data.values())


def test_contract_tests_only_sums_for_zero(is_zero_count, vector):
    # An outer product writes each key once: no zero test at all.
    x, y = vec("x", [1, 2, 3]), vector("y", (ONE, I))
    outer, calls = is_zero_count(x.contract, y)
    assert calls == 0
    assert outer == GradedTensor(x.legs + y.legs, {(i, j): Scalar(i + 1) * v for i in range(3) for j, v in enumerate((ONE, I))})
    # Two terms that cancel: one sum, tested, and the key is dropped.
    cancelled, calls = is_zero_count(vec("x", [1, 1]).contract, vec("x", [1, -1]))
    assert calls == 1
    assert cancelled.data == {} and cancelled.as_scalar() == ZERO
    # A dropped key is fresh again: 1 - 1 is tested and dropped, + 1 is not tested.
    again, calls = is_zero_count(vec("x", [1, 1, 1]).contract, matrix("x", "y", [[1], [-1], [1]]))
    assert calls == 1
    assert again == vec("y", [1])


def test_relabel_shares_data():
    m = matrix("r", "c", [[1, 2], [3, 4]])
    assert m.relabel(["row", "c"]).data is m.data


@pytest.mark.parametrize("labels", ["r", "rcx", (), ["row", "col", "x"]],
                         ids=["one-char", "three-chars", "none", "three-items"])
def test_relabel_needs_one_label_per_leg(labels):
    m = matrix("r", "c", [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 legs"):
        m.relabel(labels)


def test_relabel_refuses_a_mapping():
    # a dict would be read as its keys: {"in": "x"} on a one-leg tensor
    # would rename the leg to "in"
    trace = GradedTensor((Leg("in", 2),), {(0,): ONE})
    with pytest.raises(TypeError, match="not a mapping"):
        trace.relabel({"in": "x"})


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
    n2 = [GradedTensor((), {(): Scalar(7)})]
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


def test_relabel_never_takes_a_mapping():
    # every network is built by position: no ``.relabel(...)`` call of the
    # package passes a dict display, a dict comprehension or ``dict(...)``,
    # so the stored leg names stay in hopf.py's LAYOUT.
    package = pathlib.Path(hopfk.__file__).parent

    def is_mapping(arg):
        return isinstance(arg, (ast.Dict, ast.DictComp)) or (
            isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "dict")

    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "relabel"
        and any(map(is_mapping, [*node.args, *(k.value for k in node.keywords)]))
    ]
    assert not calls


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
