import random

import pytest

from hopfk.scalars import Scalar, ZERO
from hopfk.tensors import (
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
    with pytest.raises(EntryCapExceeded):
        big.contract(other)
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "12345")
    assert entry_cap() == 12345


def test_network_multiplies_components():
    n1 = [vec("x", [1, 2]), vec("x", [1, 1])]  # 3
    n2 = [GradedTensor.scalar(Scalar(7))]
    assert contract_network(n1 + n2).as_scalar() == Scalar(21)


def test_network_order_independent():
    rngs = [random.Random(s) for s in range(5)]
    nodes = [
        matrix("a", "b", [[1, 2], [3, 4]]),
        matrix("b", "c", [[0, 1], [1, 1]]),
        vec("a", [1, -1]),
        vec("c", [2, 5]),
    ]
    base = contract_network(list(nodes))
    for rng in rngs:
        assert contract_network(list(nodes), rng=rng) == base
