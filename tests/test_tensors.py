import ast
import functools
import gc
import itertools
import math
import pathlib
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hopfk
from hopfk import tensors
from hopfk.cli import main
from hopfk.fuzz import random_diagram
from hopfk.heegaard import Crossing, Diagram, connected_sum, enumerate_colorings, lens_diagram, mirror_diagram
from hopfk.invariant import diagram_nodes
from hopfk.scalars import I, ONE, Scalar, ZERO
from hopfk.tensors import (
    DEFAULT_ENTRY_CAP,
    EntryCapExceeded,
    GradedTensor,
    contract_network,
    entry_cap,
    projection,
)


def vec(label, values):
    return GradedTensor(
        (label,),
        (len(values),),
        {(i,): Scalar(v) for i, v in enumerate(values)},
    )


def matrix(l1, l2, rows):
    return GradedTensor(
        (l1, l2),
        (len(rows), len(rows[0])),
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
    assert repr(t) == "GradedTensor(legs=('a',), nnz=2)"


def test_scalar_tensor():
    assert GradedTensor((), (), {(): Scalar(5)}).as_scalar() == Scalar(5)
    assert GradedTensor((), (), {(): ZERO}).as_scalar() == ZERO
    with pytest.raises(ValueError):
        vec("a", [1]).as_scalar()


def test_given_unit_entries_are_stored_as_the_shared_one():
    labels, dims = ("a",), (3,)
    t = GradedTensor(labels, dims, {(0,): Scalar(1), (1,): I * -I, (2,): -ONE})
    assert t.data[(0,)] is ONE and t.data[(1,)] is ONE
    assert t.data[(2,)] == -ONE
    # Stored entries are taken as they are: a computed product equal to 1 stays.
    product = GradedTensor(labels, dims, {(0,): I}).contract(GradedTensor(("b",), (1,), {(0,): -I}), entry_cap())
    assert product.data[(0, 0)] == ONE and product.data[(0, 0)] is not ONE
    assert GradedTensor.from_stored(labels, dims, {(0,): Scalar(1)}).data[(0,)] is not ONE


def test_equality_compares_legs_and_entries():
    assert GradedTensor(("a",), (3,), {}) != GradedTensor(("a",), (4,), {})
    assert GradedTensor(("a",), (3,), {}) == GradedTensor(("a",), (3,), {})
    assert vec("a", [1, 2]) != vec("b", [1, 2])
    assert vec("a", [1, 2]) != vec("a", [1, 3])
    assert (GradedTensor((), (), {(): Scalar(3)}) == 3) is False


def test_contract_inner_product():
    a = vec("x", [1, 2, 3])
    b = vec("x", [4, 5, 6])
    assert a.contract(b, entry_cap()).as_scalar() == Scalar(32)


def test_contract_matrix_vector():
    m = matrix("r", "c", [[1, 2], [3, 4]])
    v = vec("c", [1, 1])
    out = m.contract(v, entry_cap())
    assert out.labels == ("r",)
    assert out.entry((0,)) == Scalar(3) and out.entry((1,)) == Scalar(7)
    assert m.axis("c") == 1
    with pytest.raises(KeyError, match="no leg labeled 'x'"):
        m.axis("x")


def test_contract_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        vec("x", [1, 2]).contract(vec("x", [1, 2, 3]), entry_cap())


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
    """Two sparse tensors over legs of dimension 0..3 that share 0, 1 or 2
    legs, or all of them, each with its legs in a drawn order; or two
    ``relabel`` views of one stored tensor, as ``validate_hopf`` contracts
    ``mul.relabel("xym")`` with ``mul.relabel("mzo")``.  Each operand is
    then kept as drawn, stored; or made a ``relabel`` view of a stored
    tensor on other labels; or a ``contract`` result, which keeps no index."""

    def entries(sizes):
        keys = list(itertools.product(*map(range, sizes)))
        values = draw(st.lists(st.sampled_from((None,) + ENTRY_VALUES), min_size=len(keys), max_size=len(keys)))
        return {k: v for k, v in zip(keys, values) if v is not None}

    def form(t):
        kind = draw(st.sampled_from(["stored", "view", "result"]))
        if kind == "view":
            return GradedTensor.from_stored([("v", i) for i in range(len(t.dims))], t.dims, t.data).relabel(t.labels)
        if kind == "result":
            # an outer product with the scalar ONE takes each entry as it is
            return t.contract(GradedTensor((), (), {(): ONE}), entry_cap())
        return t

    kind = draw(st.sampled_from(["all-shared", "some-shared", "views"]))
    if kind == "views":
        sizes = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
        # from_stored keeps a fresh Scalar(1), which the constructor would store as ONE.
        stored = GradedTensor.from_stored(range(len(sizes)), sizes, entries(sizes))
        mine = [("a", i) for i in range(len(sizes))]
        theirs = []
        for k, size in enumerate(sizes):
            partners = [label for label, dim in zip(mine, sizes) if dim == size and label not in theirs]
            theirs.append(draw(st.sampled_from([("b", k)] + partners)))
        return form(stored.relabel(mine)), form(stored.relabel(theirs))
    if kind == "all-shared":
        shared, mine, theirs = draw(st.integers(1, 3)), 0, 0
    else:
        shared, mine, theirs = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    dims = {label: draw(st.integers(0, 3)) for label in
            [("s", i) for i in range(shared)] + [("a", i) for i in range(mine)] + [("b", i) for i in range(theirs)]}

    def tensor(side, count):
        labels = draw(st.permutations([("s", i) for i in range(shared)] + [(side, i) for i in range(count)]))
        sizes = tuple(dims[label] for label in labels)
        return form(GradedTensor.from_stored(labels, sizes, entries(sizes)))

    return tensor("a", mine), tensor("b", theirs)


def dense_contract(a, b):
    """``a.contract(b)``'s entries, summed over every value of the shared legs."""
    dims = dict(zip(a.labels + b.labels, a.dims + b.dims))
    shared = [label for label in a.labels if label in b.labels]
    labels = [label for label in a.labels + b.labels if label not in shared]
    out = {}
    for open_key in itertools.product(*(range(dims[x]) for x in labels)):
        total = ZERO
        for shared_key in itertools.product(*(range(dims[x]) for x in shared)):
            at = dict(zip(labels + shared, open_key + shared_key))
            total = total + a.entry(at[x] for x in a.labels) * b.entry(at[x] for x in b.labels)
        out[open_key] = total
    return tuple(labels), tuple(dims[x] for x in labels), out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(join_operands())
def test_contract_matches_dense_reference(permute, operands):
    a, b = operands
    labels, dims, want = dense_contract(a, b)
    # The first join builds the index of a stored operand, the second reads it.
    for _ in range(2):
        got = a.contract(b, entry_cap())
        assert (got.labels, got.dims) == (labels, dims)
        assert {k: got.entry(k) for k in want} == want
        assert not any(v.is_zero() for v in got.data.values())
        assert got._index is None
    # The other way round the other operand may be the indexed one; the
    # result is the same tensor with its legs in the other order.
    for _ in range(2):
        swapped = b.contract(a, entry_cap())
        assert not any(v.is_zero() for v in swapped.data.values())
        assert permute(swapped, [swapped.labels.index(x) for x in got.labels]) == got


# -- the memoized join set-up against the reference join ------------------------------

# Leg labels of three types; none is a bool, so no two drawn labels are equal.
LABELS = st.one_of(
    st.text("abc", min_size=1, max_size=2),
    st.tuples(st.sampled_from("uvx"), st.integers(0, 3)),
    st.integers(-2, 9),
)


@st.composite
def join_shapes(draw):
    """Two operands, each ``(labels, dims, form, (entries, more entries))``:
    0-4 legs of dims 0-4 that share 0-3 legs, each in a drawn order, the
    form ``stored`` or ``result``, and two sparse sets of entries.  Then a
    renaming of every label to a label of any type, and an entry cap, or
    None for ``entry_cap()``."""
    shared = draw(st.integers(0, 3))
    mine, theirs = draw(st.integers(0, 4 - shared)), draw(st.integers(0, 4 - shared))
    n = shared + mine + theirs
    names = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
    dims = dict(zip(names, draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))))

    def entries(sizes):
        if not all(sizes):
            return {}
        keys = st.tuples(*(st.integers(0, size - 1) for size in sizes))
        return draw(st.dictionaries(keys, st.sampled_from(ENTRY_VALUES), max_size=8))

    def operand(own):
        labels = tuple(draw(st.permutations(names[:shared] + own)))
        sizes = tuple(dims[label] for label in labels)
        return labels, sizes, draw(st.sampled_from(["stored", "result"])), (entries(sizes), entries(sizes))

    a = operand(names[shared:shared + mine])
    b = operand(names[shared + mine:])
    renamed = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
    return a, b, dict(zip(names, renamed)), draw(st.one_of(st.none(), st.integers(1, 12)))


def join_outcome(join, a, b, limit):
    """The labels and dims of ``join(a, b, limit)`` as their reprs, so that
    ``1`` and ``True`` differ, and its entries; or the type and message of
    the error it raised."""
    try:
        t = join(a, b, limit)
    except (ValueError, EntryCapExceeded) as exc:
        return type(exc), str(exc)
    return repr(t.labels), repr(t.dims), t.data


TRUE_IS_ONE = (
    # a keeps its leg 1, which the renaming makes True: equal labels, so
    # the renamed pair hits the shape memo, but its result keeps True
    (((1, "k"), (2, 3), "stored", ({(0, 0): ONE, (1, 2): I}, {(1, 1): -I})),
     (("k", "z"), (3, 1), "result", ({(2, 0): Scalar(2)}, {(0, 0): ONE})),
     {1: True, "k": "k", "z": "z"}, None),
    # the shared leg is 1 in a and True in b: equal labels, so one leg
    (((1, "k"), (2, 2), "stored", ({(0, 0): ONE, (1, 1): I}, {})),
     (("z", True), (2, 2), "stored", ({(0, 1): Scalar(3), (1, 1): ONE}, {(1, 0): I})),
     {1: 1.0, "k": ("k", 0), "z": 7}, 1),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(join_shapes())
@example(TRUE_IS_ONE[0])
@example(TRUE_IS_ONE[1])
def test_contract_matches_the_reference_join_cold_and_warm(reference_contract, case):
    a_operand, b_operand, rename, cap = case
    unit = GradedTensor((), (), {(): ONE})

    def build(operand, k):
        labels, dims, form, entries = operand
        t = GradedTensor.from_stored(labels, dims, entries[k])
        return t if form == "stored" else t.contract(unit, entry_cap())

    a, b = build(a_operand, 0), build(b_operand, 0)
    # the same shapes with other entries: the shape memo hits
    same_shape = build(a_operand, 1), build(b_operand, 1)
    # the same positions on other labels: the shape memo misses, the pattern memo hits
    renamed = [t.relabel([rename[label] for label in t.labels]) for t in (a, b)]
    pairs = [(a, b), (a, b), same_shape, renamed, (b, a), renamed[::-1]]
    # one shared leg of another dim in b: refused, whatever the memos hold
    shared = [label for label in b.labels if label in a.labels]
    if shared:
        k = b.labels.index(shared[0])
        dims = b.dims[:k] + (b.dims[k] + 1,) + b.dims[k + 1:]
        wrong = build((b.labels, dims, b_operand[2], ({},)), 0)
        pairs += [(a, wrong), (wrong, a), (renamed[0], wrong.relabel([rename[label] for label in b.labels]))]
    memos = tensors._join_setup, tensors._join_pattern
    limit = cap or entry_cap()
    for memo in memos:
        memo.cache_clear()
    for n, (x, y) in enumerate(pairs):
        assert join_outcome(GradedTensor.contract, x, y, limit) == join_outcome(reference_contract, x, y, limit)
        if n < 2:  # cold, then warm
            assert memos[0].cache_info()[:2] == (n, 1)
            assert memos[1].cache_info()[:2] == (0, 1)


def test_the_join_memos_miss_once_per_diagram_are_bounded_and_hold_no_tensor(kp):
    class Entries(dict):  # a dict subclass, so a weakref can watch one
        pass

    memos = tensors._join_setup, tensors._join_pattern
    refs = []

    def watched(t):
        out = GradedTensor.from_stored(t.labels, t.dims, Entries(t.data))
        refs.extend([weakref.ref(out), weakref.ref(out.data)])
        return out

    for memo in memos:
        memo.cache_clear()
    for p in range(1, 13):
        D = lens_diagram(p)
        for n, colors in enumerate(enumerate_colorings(D, kp.pi)):
            nodes = [watched(t) for t in diagram_nodes(kp, D.with_colors(kp.pi, colors))]
            misses = [memo.cache_info().misses for memo in memos]
            result = contract_network(nodes)
            refs.append(weakref.ref(result))
            if n:  # a later coloring of the diagram: every shape and pattern is memoized
                assert [memo.cache_info().misses for memo in memos] == misses
    # more distinct shapes than the shape memo holds, all of one pattern;
    # then more patterns than the pattern memo holds: one shared leg at
    # the front of n legs and of m legs
    for n in range(memos[0].cache_info().maxsize + 5):
        result = watched(vec(("x", n), [1, 2])).contract(watched(vec(("x", n), [3, 4])), entry_cap())
        refs.append(weakref.ref(result))
    for n, m in itertools.product(range(1, 20), repeat=2):
        x = watched(GradedTensor(["s"] + [("a", i) for i in range(1, n)], (1,) * n, {(0,) * n: ONE}))
        y = watched(GradedTensor(["s"] + [("b", i) for i in range(1, m)], (1,) * m, {(0,) * m: I}))
        result = x.contract(y, entry_cap())
        refs.append(weakref.ref(result))
    for memo in memos:
        info = memo.cache_info()
        assert info.misses > info.maxsize and info.currsize == info.maxsize
    del nodes, x, y, result
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


@st.composite
def key_and_indices(draw):
    # a key of 0-8 values and an index list into it: empty, one index, a
    # contiguous run, a permutation of some positions, or with a repeat
    key = tuple(draw(st.lists(st.integers(-2, 9), max_size=8)))
    n = len(key)
    kinds = ["empty", "single", "contiguous", "permuted", "repeated"] if n else ["empty"]
    kind = draw(st.sampled_from(kinds))
    position = st.integers(0, n - 1)
    if kind == "empty":
        return key, []
    if kind == "single":
        return key, [draw(position)]
    if kind == "contiguous":
        start = draw(position)
        return key, list(range(start, draw(st.integers(start, n))))
    if kind == "permuted":
        return key, draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    indices = draw(st.lists(position, min_size=1, max_size=8))
    return key, indices + [draw(st.sampled_from(indices))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(key_and_indices())
def test_projection_reads_a_tuple_in_index_order(case):
    key, indices = case
    assert projection(indices)(key) == tuple(key[i] for i in indices)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_merged_size_is_the_open_dense_size(data):
    # the planner's key, read from two nodes as the planner keeps them (legs
    # as a dict from label code to dim, and the dense size), against the
    # product the reference planner takes: labels overlap at random, in any
    # order, and some legs have dimension 0.  One more shared label, -1,
    # has a different dim in each shape, so a key that read one dim per
    # label for both nodes would be off.
    dims = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=24))
    legs = st.lists(st.integers(0, len(dims) - 1), unique=True, max_size=12)
    a, b = ((tuple(labels), tuple(dims[x] for x in labels)) for labels in (data.draw(legs), data.draw(legs)))
    odd = data.draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True))
    a, b = ((labels[:at] + (-1,) + labels[at:], sizes[:at] + (dim,) + sizes[at:])
            for (labels, sizes), dim in zip((a, b), odd)
            for at in [data.draw(st.integers(0, len(labels)))])
    shared = set(a[0]) & set(b[0])
    size = 1
    for label, dim in zip(a[0] + b[0], a[1] + b[1]):
        if label not in shared:
            size *= dim
    nodes = [(dict(zip(*shape)), math.prod(shape[1])) for shape in (a, b)]
    assert tensors._open_size(*nodes[0], *nodes[1]) == size
    assert tensors._open_size(*nodes[1], *nodes[0]) == size


def test_contract_tests_only_sums_for_zero(is_zero_count, vector):
    # An outer product writes each key once: no zero test at all.
    x, y = vec("x", [1, 2, 3]), vector("y", (ONE, I))
    outer, calls = is_zero_count(x.contract, y, entry_cap())
    assert calls == 0
    assert outer == GradedTensor(x.labels + y.labels, x.dims + y.dims, {(i, j): Scalar(i + 1) * v for i in range(3) for j, v in enumerate((ONE, I))})
    # Two terms that cancel: one sum, tested, and the key is dropped.
    cancelled, calls = is_zero_count(vec("x", [1, 1]).contract, vec("x", [1, -1]), entry_cap())
    assert calls == 1
    assert cancelled.data == {} and cancelled.as_scalar() == ZERO
    # A dropped key is fresh again: 1 - 1 is tested and dropped, + 1 is not tested.
    again, calls = is_zero_count(vec("x", [1, 1, 1]).contract, matrix("x", "y", [[1], [-1], [1]]), entry_cap())
    assert calls == 1
    assert again == vec("y", [1])


def test_relabel_shares_data():
    m = matrix("r", "c", [[1, 2], [3, 4]])
    assert m.relabel(["row", "c"]).data is m.data
    assert m.relabel(["row", "c"]).dims is m.dims


@pytest.mark.parametrize("labels", ["r", "rcx", (), ["row", "col", "x"]],
                         ids=["one-char", "three-chars", "none", "three-items"])
def test_relabel_needs_one_label_per_leg(labels):
    m = matrix("r", "c", [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 legs"):
        m.relabel(labels)


@pytest.mark.parametrize("build", [
    lambda: GradedTensor(("x", "x"), (2, 2)),
    lambda: GradedTensor(("x",), (2, 3)),
    lambda: GradedTensor.identity("x", "y", 2).relabel("xx"),
], ids=["repeated-label", "more-dims-than-labels", "relabel-repeats"])
def test_a_tensor_has_one_distinct_label_per_dim(build):
    # a repeated label would contract as a diagonal sum that no network means
    with pytest.raises(ValueError, match="repeated leg label|1 labels for 2 legs"):
        build()


def test_relabel_refuses_a_mapping():
    # a dict would be read as its keys: {"in": "x"} on a one-leg tensor
    # would rename the leg to "in"
    trace = GradedTensor(("in",), (2,), {(0,): ONE})
    with pytest.raises(TypeError, match="not a mapping"):
        trace.relabel({"in": "x"})


def test_entry_cap(monkeypatch):
    big = matrix("a", "b", [[1] * 4] * 4)
    other = matrix("b", "c", [[1] * 4] * 4)
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "8")
    with pytest.raises(EntryCapExceeded) as exc:
        contract_network([big, other])
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
        contract_network([vec("x", [1, 2]), vec("x", [3, 4])])
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
    product = contract_network([matrix("a", "b", diagonal), matrix("b", "c", diagonal)])
    assert product == matrix("a", "c", diagonal)
    ones = [[1] * 4] * 4
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "32")
    with pytest.raises(EntryCapExceeded, match="cap 32"):
        contract_network([matrix("a", "b", ones), matrix("b", "c", ones)])
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "64")
    assert contract_network([matrix("a", "b", ones), matrix("b", "c", ones)]) == matrix("a", "c", [[4] * 4] * 4)
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
    # Python converts at most 4,300 digits to an int (by default); a longer
    # value is refused by its length, not quoted
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "9" * 4000)
    assert entry_cap() == 10 ** 4000 - 1
    limit = sys.get_int_max_str_digits()
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "9" * limit)
    assert entry_cap() == 10 ** limit - 1
    for digits in (limit + 1, 5000):
        monkeypatch.setenv("HOPFK_ENTRY_CAP", "9" * digits)
        message = (f"HOPFK_ENTRY_CAP has {digits} digits, more than the {limit} "
                   "Python converts to an integer")
        with pytest.raises(ValueError) as exc:
            entry_cap()
        assert str(exc.value) == message
    for bad in ("abc", "0", "-5", "2.5", "+5", "1_000", " 7 ", "\u0663"):
        monkeypatch.setenv("HOPFK_ENTRY_CAP", bad)
        message = f"HOPFK_ENTRY_CAP must be a positive integer, got '{bad}'"
        with pytest.raises(ValueError) as exc:
            entry_cap()
        assert str(exc.value) == message
        with pytest.raises(ValueError):
            contract_network([vec("x", [1]), vec("x", [1])])


def test_network_multiplies_components(monkeypatch):
    n1 = [vec("x", [1, 2]), vec("x", [1, 1])]  # 3
    n2 = [GradedTensor((), (), {(): Scalar(7)})]
    assert contract_network(n1 + n2).as_scalar() == Scalar(21)
    # two components of two nodes: each planned merge makes 4 products,
    # under a cap of 8; their outer product makes 16, and the cap holds
    # there too
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    nodes = [matrix("a", "b", identity), vec("b", [1, 2, 3, 4]),
             matrix("c", "d", identity), vec("d", [1, 1, 1, 1])]
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "8")
    with pytest.raises(EntryCapExceeded) as exc:
        contract_network(nodes)
    assert str(exc.value) == (
        "contraction would compute at least 12 products (cap 8); "
        "open legs 'a' (dim 4), 'c' (dim 4); contracted over nothing"
    )
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "16")
    assert contract_network(nodes) == matrix("a", "c", [[i + 1] * 4 for i in range(4)])


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


def test_no_unused_imports():
    # every module of the package but __init__.py, which re-exports, uses
    # each name it imports
    package = pathlib.Path(hopfk.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        ]
    assert not unused


def test_no_unread_private_helpers():
    # every module-level private name of the package (a ``_name`` def,
    # class or assignment) is read, or imported, somewhere in the package
    package = pathlib.Path(hopfk.__file__).parent
    defined, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(path.name, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert len(defined) > 40
    assert [f"{name}:{line} {helper}" for name, line, helper in defined if helper not in read] == []


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


def test_the_entry_cap_is_an_argument_of_every_join():
    # contract_network reads HOPFK_ENTRY_CAP and hands it to each join: no
    # module of the package imports contextvars, and only contract_network
    # calls entry_cap
    package = pathlib.Path(hopfk.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                modules = []
            if "contextvars" in modules:
                found.append(f"{path.name}:{node.lineno} imports contextvars")
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "entry_cap":
                callers = [f.name for f in scopes if f.lineno <= node.lineno <= f.end_lineno]
                if (path.name, callers) != ("tensors.py", ["contract_network"]):
                    found.append(f"{path.name}:{node.lineno} calls entry_cap in {callers}")
    assert not found


# -- the greedy planner against the all-pairs scan it replaced ----------------------


def assert_same_plan(scan_network, contraction_log, nodes, warm=False):
    # Cold, the plan is built for this network; warm, it is the cached plan
    # of an earlier call on the same shapes, so a stale cache cannot hide a
    # planner change in either.
    want = contraction_log(scan_network, nodes)
    tensors.plan_network.cache_clear()
    if warm:
        contract_network(nodes)
    got = contraction_log(contract_network, nodes)
    assert got[1] == want[1]
    assert got[0] == want[0]
    if len(nodes) > 2:
        assert tensors.plan_network.cache_info()[:2] == (int(warm), 1)


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
                for warm in (False, True):
                    assert_same_plan(scan_network, contraction_log, nodes, warm)


def test_planner_matches_the_pair_scan_on_components_and_ties(scan_network, contraction_log):
    # two components, each a cycle of equal-size matrices, plus a lone
    # vector: every connected pair ties on open size
    ring = [matrix(i, (i + 1) % 4, [[1, 2], [3, 4]]) for i in range(4)]
    path = [matrix(("p", i), ("p", i + 1), [[1, 1], [0, 1]]) for i in range(3)]
    lone = vec("z", [5, 7])
    for nodes in (ring, ring + path, path + [lone] + ring, [lone] + path):
        assert_same_plan(scan_network, contraction_log, nodes)


def test_one_plan_per_diagram(kp, contraction_log):
    # Every coloring of a diagram gives a network of the same shape: the
    # first is planned, the others reuse its plan, with the contract calls
    # and the value of a cold cache.
    diagrams = [lens_diagram(p) for p in (4, 6, 9)]
    diagrams.append(connected_sum(lens_diagram(4), lens_diagram(6)))
    counts = []
    for D in diagrams:
        networks = [diagram_nodes(kp, D.with_colors(kp.pi, c)) for c in enumerate_colorings(D, kp.pi)]
        tensors.plan_network.cache_clear()
        warm = [contraction_log(contract_network, nodes) for nodes in networks]
        info = tensors.plan_network.cache_info()
        assert (info.misses, info.hits) == (1, len(networks) - 1)
        counts.append(len(networks))
        for nodes, (result, log) in zip(networks, warm):
            tensors.plan_network.cache_clear()
            assert contraction_log(contract_network, nodes) == (result, log)
    assert counts == [2, 2, 1, 4]


def test_a_dimension_is_part_of_the_shape(scan_network, contraction_log):
    # Two chains with equal labels; a larger open leg 0 on the first node
    # moves the first merge from (0, 1) to (1, 2).
    square = [[1, 2], [3, 4]]
    rest = [matrix(i, i + 1, square) for i in (1, 2, 3)]
    narrow = [matrix(0, 1, square)] + rest
    wide = [matrix(0, 1, [[1, 2], [3, 4], [5, 6]])] + rest
    plans = [tensors.plan_network(tuple((t.labels, t.dims) for t in nodes)) for nodes in (narrow, wide)]
    assert plans == [(((0, 1), (2, 3), (4, 5)), (6,)), (((1, 2), (3, 4), (0, 5)), (6,))]
    for nodes in (narrow, wide):
        assert_same_plan(scan_network, contraction_log, nodes, warm=True)


# Labels of two kinds, as the package has both: short strings and tuples.
PLAN_LABELS = ("x", "y", "z", "w", ("u", 0, 1), ("l", 2, 0), ("u", 1, 1), (0, "in"))


@st.composite
def network_shapes(draw):
    """The shapes of a network: each label held by one, two or three nodes,
    some nodes holding none, dims 0..4 per label or per leg, each node's
    legs in a drawn order, and some nodes' shapes repeated."""
    count = draw(st.integers(1, 8))
    held = {i: [] for i in range(count)}
    dims = {}
    for label in draw(st.lists(st.sampled_from(PLAN_LABELS), unique=True, max_size=len(PLAN_LABELS))):
        dims[label] = draw(st.integers(0, 4))
        for i in draw(st.lists(st.integers(0, count - 1), unique=True, min_size=1, max_size=min(3, count))):
            held[i].append(label)
    per_leg = draw(st.booleans())
    shapes = []
    for labels in held.values():
        labels = tuple(draw(st.permutations(labels)))
        shapes.append((labels, tuple(draw(st.integers(0, 4)) if per_leg else dims[x] for x in labels)))
    for _ in range(draw(st.integers(0, 2))):
        shapes.append(draw(st.sampled_from(shapes)))
    return tuple(shapes)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(network_shapes())
def test_planner_matches_the_reference_planner(reference_plan, shapes):
    assert tensors.plan_network.__wrapped__(shapes) == reference_plan(shapes)


def test_planner_matches_the_reference_planner_on_lens_spaces(kp, reference_plan):
    # L(p, q) for every p <= 64: one upper and one lower circle meeting p
    # times, the lower one in the order k q mod p, whose networks merge into
    # tensors with many open legs for q far from 1.  At most about eight q
    # prime to p, spread over 1..p, keep the two planners near a second.
    for p in range(1, 65):
        coprime = [q for q in range(1, p + 1) if math.gcd(p, q) == 1]
        for q in coprime[::max(1, p // 8)]:
            D = Diagram(1, tuple(Crossing(k, 0, 0, 1) for k in range(p)),
                        (tuple(range(p)),), (tuple(k * q % p for k in range(p)),))
            nodes = diagram_nodes(kp, D.with_colors(kp.pi, (kp.pi.identity,)))
            shapes = tuple((t.labels, t.dims) for t in nodes)
            assert tensors.plan_network.__wrapped__(shapes) == reference_plan(shapes), (p, q)


@pytest.mark.parametrize("shapes, message", [
    ([(("b",), (1,)), (("e", "c", "d"), (4, 2, 2)), (("d", "b"), (1, 1)), (("d",), (2,))],
     "leg 'd' dimension mismatch: 2 vs 1"),
    ([(("c", "a"), (4, 1)), (("a", "e", "b"), (2, 2, 1)), (("b",), (1,)), (("c",), (4,))],
     "leg 'a' dimension mismatch: 2 vs 1"),
], ids=["d", "a"])
def test_a_dimension_mismatch_is_refused_cold_and_warm(shapes, message):
    # A shared leg with two dims is refused by the contraction that joins
    # it, whichever that is; the plan decides which, and so which dim is
    # named first.  A planner that kept one dim per label would merge in
    # another order here and name them the other way round.
    nodes = [GradedTensor(labels, dims, {(0,) * len(dims): ONE}) for labels, dims in shapes]
    tensors.plan_network.cache_clear()
    for warm in (False, True):
        with pytest.raises(ValueError) as exc:
            contract_network(nodes)
        assert str(exc.value) == message
        assert tensors.plan_network.cache_info()[:2] == (int(warm), 1)


def test_the_plan_cache_is_bounded_and_holds_no_tensor():
    maxsize = tensors.plan_network.cache_info().maxsize
    tensors.plan_network.cache_clear()
    for n in range(1, maxsize + 6):
        contract_network([vec("x", [1] * n), vec("x", [1] * n), vec("y", [2])])
    assert tensors.plan_network.cache_info().currsize == maxsize

    class Entries(dict):  # a dict subclass, so a weakref can watch one
        pass

    node = GradedTensor.from_stored(("a", "b"), (2, 2), Entries({(0, 1): ONE, (1, 0): I}))
    refs = weakref.ref(node), weakref.ref(node.data)
    contract_network([node, vec("b", [1, 2]), vec("a", [3, 4])])
    del node
    assert [ref() for ref in refs] == [None, None]


# -- the hash-join indexes a stored tensor keeps -------------------------------------


def assert_index_is_true(t):
    # each kept index is keyed by increasing leg positions and files every
    # stored entry once, under its values there, as its kept part
    assert len(t._index) <= 2 ** len(t.dims)
    for positions, buckets in t._index.items():
        assert list(positions) == sorted(set(positions)) and all(0 <= i < len(t.dims) for i in positions)
        rest = [i for i in range(len(t.dims)) if i not in positions]
        filed = {}
        for bucket, hits in buckets.items():
            for part, value in hits:
                key = [None] * len(t.dims)
                for i, v in zip(positions, bucket if isinstance(bucket, tuple) else (bucket,)):
                    key[i] = v
                for i, v in zip(rest, part):
                    key[i] = v
                assert tuple(key) not in filed
                filed[tuple(key)] = value
        assert filed == t.data


def test_relabel_views_share_one_index_per_leg_pattern():
    m = matrix("r", "c", [[1, 2], [3, 4], [5, 6]])
    views = [m.relabel("rc"), m.relabel("xy"), m.relabel("yx")]
    assert all(view._index is m._index for view in views)
    assert m._index == {}
    # a stored tensor joined with a result is indexed: one index for leg 1,
    # read in every later join on that leg, whatever its label there
    column = vec("c", [1, -1]).contract(GradedTensor((), (), {(): ONE}), entry_cap())
    assert column._index is None
    views[0].contract(column, entry_cap())
    buckets = m._index[(1,)]
    assert set(buckets) == {0, 1}  # one joined leg: a bucket key is the value itself
    assert views[1].contract(column.relabel("y"), entry_cap()) == vec("x", [-1, -1, -1])
    assert views[2].contract(column.relabel("x"), entry_cap()) == vec("y", [-1, -1, -1])
    assert list(m._index) == [(1,)] and m._index[(1,)] is buckets
    assert_index_is_true(m)
    # two legs, scanned in either order, share the index of their positions
    unit = GradedTensor((), (), {(): ONE})
    mask = matrix("x", "y", [[1, 0], [0, 1], [1, 1]]).contract(unit, entry_cap())
    assert views[1].contract(mask, entry_cap()).as_scalar() == Scalar(1 + 4 + 5 + 6)
    transposed = matrix("x", "y", [[1, 0, 1], [0, 1, 1]]).contract(unit, entry_cap())
    assert views[2].contract(transposed, entry_cap()).as_scalar() == Scalar(1 + 4 + 5 + 6)
    assert list(m._index) == [(1,), (0, 1)]
    assert_index_is_true(m)
    # a result keeps no index, nor do its views
    result = m.contract(vec("c", [1, 1]), entry_cap())
    assert result._index is None and result.relabel("z")._index is None


def test_the_second_pass_over_a_family_builds_no_index():
    # every coloring of L(p), p <= 24, under a fresh kp, twice: the first
    # pass indexes the structure tensors, the second reads those indexes
    kp = hopfk.build_kac_paljutkin()
    networks = [
        lambda D=D, colors=colors: diagram_nodes(kp, D.with_colors(kp.pi, colors))
        for D in map(lens_diagram, range(1, 25))
        for colors in enumerate_colorings(D, kp.pi)
    ]

    def one_pass():
        values, kept = [], {}
        for build in networks:
            nodes = build()
            values.append(contract_network(nodes).as_scalar())
            kept.update((id(t._index), t) for t in nodes if t._index is not None)
        return values, kept

    first, stored = one_pass()
    built = {key: {positions: id(b) for positions, b in t._index.items()} for key, t in stored.items()}
    assert sum(map(len, built.values())) > 0
    second, again = one_pass()
    assert second == first
    assert again.keys() <= stored.keys()
    assert {key: {positions: id(b) for positions, b in t._index.items()} for key, t in stored.items()} == built
    for t in stored.values():
        assert_index_is_true(t)


def test_an_index_is_freed_with_its_tensor_and_holds_no_operand():
    class Entries(dict):  # a dict subclass, so a weakref can watch one
        pass

    class Watched(Scalar):  # a Scalar subclass, so a weakref can watch one
        pass

    # node has more entries than its partner, so node is the indexed side;
    # the partner's entries are ONE, so the join takes node's values as they are
    node = GradedTensor.from_stored(("a", "b"), (2, 2), Entries({(0, 0): Watched(1), (0, 1): Watched(2), (1, 0): Watched(3)}))
    partner = GradedTensor.from_stored(("b",), (2,), Entries({(0,): ONE, (1,): ONE}))
    assert node.contract(partner, entry_cap()) == vec("a", [3, 3])
    assert list(node._index) == [(1,)] and partner._index == {}
    refs = weakref.ref(partner), weakref.ref(partner.data)
    del partner
    assert [ref() for ref in refs] == [None, None]
    # a network: node, stored, is indexed against the results it meets
    assert contract_network([node, vec("b", [1, 2]), vec("a", [3, 4])]).as_scalar() == Scalar(1 * 1 * 3 + 2 * 2 * 3 + 3 * 1 * 4)
    assert_index_is_true(node)
    refs = weakref.ref(node), weakref.ref(node.data), weakref.ref(node.data[(0, 1)])
    del node
    assert [ref() for ref in refs] == [None, None, None]


@pytest.mark.parametrize("shapes", [(4, 4, 4), (4, 4, 2)], ids=["other-indexed", "self-indexed"])
def test_a_warm_index_never_skips_the_entry_cap(monkeypatch, shapes):
    # 4x4 times 4x4: a tie, so other is indexed, 4 hits per row of self;
    # 4x4 times 4x2: self has more entries and is indexed, 4 hits per row
    # of other.  Either way the third scanned row passes a cap of 8.
    a, b, c = shapes
    message = ("contraction would compute at least 12 products (cap 8); "
               "open legs 'a' (dim 4), 'c' (dim %d); contracted over 'b'" % c)
    for warm in (False, True):
        left, right = matrix("a", "b", [[1] * b] * a), matrix("b", "c", [[1] * c] * b)
        if warm:
            monkeypatch.delenv("HOPFK_ENTRY_CAP", raising=False)
            assert left.contract(right, entry_cap()) == matrix("a", "c", [[4] * c] * a)
            assert len(left._index) + len(right._index) == 1
        monkeypatch.setenv("HOPFK_ENTRY_CAP", "8")
        for join in (lambda: left.contract(right, entry_cap()), lambda: contract_network([left, right])):
            with pytest.raises(EntryCapExceeded) as exc:
                join()
            assert str(exc.value) == message


def test_a_network_reads_the_entry_cap_once(monkeypatch):
    reads = []

    def counted():
        reads.append(1)
        return DEFAULT_ENTRY_CAP

    monkeypatch.setattr(tensors, "entry_cap", counted)
    chain = [matrix(i, i + 1, [[1, 2], [3, 4]]) for i in range(5)] + [vec("z", [1])]
    for nodes, want in ((chain, 1), (chain[:2], 1), (chain[:1], 0), ([], 0)):
        reads.clear()
        contract_network(nodes)
        assert len(reads) == want
    # a direct join is given its limit and reads nothing
    reads.clear()
    chain[0].contract(chain[1], DEFAULT_ENTRY_CAP).contract(chain[2], DEFAULT_ENTRY_CAP)
    assert reads == []
    # a network that makes no contraction does not read a bad cap
    monkeypatch.undo()
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "0")
    assert contract_network(chain[:1]) is chain[0]
    with pytest.raises(ValueError, match="HOPFK_ENTRY_CAP must be a positive integer"):
        contract_network(chain[:3])


@pytest.mark.parametrize("color", [0, 1])
def test_a_join_result_is_not_checked_again(kp, monkeypatch, color):
    # contract builds its result without GradedTensor.__init__: no label
    # check runs on a join, in the network loop of a large lens space
    nodes = diagram_nodes(kp, lens_diagram(64).with_colors(kp.pi, (color,)))
    built = []
    init = GradedTensor.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedTensor, "__init__", counted)
    Z = contract_network(nodes).as_scalar()
    assert built == []
    assert Z == Scalar(16)  # K of L(64) is 4 under either color, and dim H_1 = 4
    GradedTensor.identity("x", "y", 2)  # the counter does see a tensor being built
    assert len(built) == 1
