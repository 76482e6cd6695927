import functools
import heapq
import itertools
import math
from dataclasses import replace

import pytest

from hopfk import (
    build_function_hopf,
    build_kac_paljutkin,
    cyclic_group,
    mod_hom,
    sign_hom_s3,
    symmetric_group,
    trivial_hom,
)
from hopfk.hopf import coproduct_chain, product_chain
from hopfk.scalars import ONE, Scalar
from hopfk.tensors import GradedTensor, contract_network


@pytest.fixture(scope="session")
def kp():
    return build_kac_paljutkin()


@pytest.fixture(scope="session")
def fs3():
    return build_function_hopf(sign_hom_s3())


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def oracle_homs():
    return [
        ("sign-s3", sign_hom_s3()),
        ("mod2-z4", mod_hom(4, 2)),
        ("trivial-z2", trivial_hom(cyclic_group(2))),
        ("trivial-z3", trivial_hom(cyclic_group(3))),
        ("trivial-z5", trivial_hom(cyclic_group(5))),
    ]


# -- a reference planner for contract_network ---------------------------------------


def _scan_network(nodes, pick=min):
    """Reference planner: before each step, list every connected pair of the
    pool as (open size, position, position), in position order, and contract
    the one ``pick`` returns; the merged tensor goes to the end of the pool.
    Leftover components are joined in pool order.  ``pick=min`` is the
    order ``contract_network`` must follow; ``pick=rng.choice`` is a
    uniformly random order, whose value must be the same."""
    pool = list(nodes)
    while True:
        candidates = []
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                shared = set(pool[a].labels) & set(pool[b].labels)
                if not shared:
                    continue
                size = 1
                for label, dim in zip(pool[a].labels + pool[b].labels, pool[a].dims + pool[b].dims):
                    if label not in shared:
                        size *= dim
                candidates.append((size, a, b))
        if not candidates:
            break
        _, a, b = pick(candidates)
        merged = pool[a].contract(pool[b])
        pool = [t for i, t in enumerate(pool) if i not in (a, b)]
        pool.append(merged)
    result = pool[0] if pool else GradedTensor((), (), {(): ONE})
    for t in pool[1:]:
        result = result.contract(t)
    return result


@pytest.fixture(scope="session")
def scan_network():
    return _scan_network


def _reference_open_size(a, b):
    """Dense size of the legs left open by contracting the shapes ``a`` and
    ``b``, each a pair (labels, dims)."""
    open_b = dict(zip(*b))
    size = 1
    for label, dim in zip(*a):
        if label in open_b:
            del open_b[label]
        else:
            size *= dim
    return math.prod(open_b.values(), start=size)


def _reference_plan(shapes):
    """``tensors.plan_network`` as it was before labels were coded as ints:
    the same heap and tie-break, keyed on label tuples, and each pair's
    open size built afresh from the two shapes."""
    live = dict(enumerate(shapes))
    index = {}
    for i, (labels, _) in live.items():
        for label in labels:
            index.setdefault(label, set()).add(i)
    heap = [
        (_reference_open_size(live[i], live[j]), i, j)
        for i, j in {(i, j) for ids in index.values() for i in ids for j in ids if i < j}
    ]
    heapq.heapify(heap)
    merges = []
    next_id = len(shapes)
    while heap:
        _, a, b = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        (a_labels, a_dims), (b_labels, b_dims) = live.pop(a), live.pop(b)
        for i, labels in ((a, a_labels), (b, b_labels)):
            for label in labels:
                index[label].discard(i)
        open_b = dict(zip(b_labels, b_dims))
        labels, dims = [], []
        for label, dim in zip(a_labels, a_dims):
            if label in open_b:
                del open_b[label]
            else:
                labels.append(label)
                dims.append(dim)
        merged = (*labels, *open_b), (*dims, *open_b.values())
        neighbours = set()
        for label in merged[0]:
            neighbours |= index[label]
            index[label].add(next_id)
        for j in neighbours:
            heapq.heappush(heap, (_reference_open_size(live[j], merged), j, next_id))
        live[next_id] = merged
        merges.append((a, b))
        next_id += 1
    return tuple(merges), tuple(live)


@pytest.fixture(scope="session")
def reference_plan():
    return _reference_plan


@pytest.fixture()
def contraction_log(monkeypatch):
    """``log(planner, nodes)``: the planner's result and the operand labels
    of every ``contract`` call it made."""

    def log(planner, nodes):
        calls = []
        contract = GradedTensor.contract

        def logged(self, other):
            calls.append((self.labels, other.labels))
            return contract(self, other)

        with monkeypatch.context() as m:
            m.setattr(GradedTensor, "contract", logged)
            result = planner(list(nodes))
        return result, calls

    return log


def _vector(label, values):
    """One leg labeled ``label`` carrying the coefficient sequence ``values``."""
    return GradedTensor((label,), (len(values),), {(i,): v for i, v in enumerate(values)})


@pytest.fixture(scope="session")
def vector():
    return _vector


def _permute(t, order):
    """``t`` with its legs reordered; ``order`` lists old axis positions."""
    return GradedTensor(
        tuple(t.labels[i] for i in order),
        tuple(t.dims[i] for i in order),
        {tuple(key[i] for i in order): v for key, v in t.data.items()},
    )


@pytest.fixture(scope="session")
def permute():
    return _permute


# -- the unit shortcut and the zero tests of GradedTensor.contract ---------------------


@pytest.fixture()
def mul_count(monkeypatch):
    """``count(f, *args)``: ``f(*args)`` and the number of ``Scalar.__mul__``
    calls it made."""

    def count(f, *args):
        calls = 0
        mul = Scalar.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        with monkeypatch.context() as m:
            m.setattr(Scalar, "__mul__", counted)
            result = f(*args)
        return result, calls

    return count


@pytest.fixture()
def is_zero_count(monkeypatch):
    """``count(f, *args)``: ``f(*args)`` and the number of ``Scalar.is_zero``
    calls it made."""

    def count(f, *args):
        calls = 0
        is_zero = Scalar.is_zero

        def counted(self):
            nonlocal calls
            calls += 1
            return is_zero(self)

        with monkeypatch.context() as m:
            m.setattr(Scalar, "is_zero", counted)
            result = f(*args)
        return result, calls

    return count


def _fresh_units(H):
    """``H`` with every stored ``ONE`` replaced by a fresh ``Scalar(1)``: the
    same values, but ``GradedTensor.contract`` multiplies by each of them.
    The copies are built with ``from_stored``; the constructor would store
    each fresh ``Scalar(1)`` as ``ONE`` again."""

    def fresh(t):
        return GradedTensor.from_stored(t.labels, t.dims, {k: Scalar(1) if v is ONE else v for k, v in t.data.items()})

    blocks = {
        field: {key: fresh(t) for key, t in getattr(H, field).items()}
        for field in ("mul", "unit", "delta", "antipode", "crossing")
        if getattr(H, field) is not None
    }
    return replace(H, counit=fresh(H.counit), **blocks)


@pytest.fixture(scope="session")
def fresh_units():
    return _fresh_units


# -- a reference of the cyclic lemmas at every arity ----------------------------------


def _cyclic_failures(H, integral, arity):
    """The arity-n cyclic check that ``check_structural_lemmas`` once made
    for every n up to a bound, built from ``product_chain`` and
    ``coproduct_chain`` one component at a time: T_a(x_0 ... x_{n-1})
    against T_a(x_1 ... x_{n-1} x_0) in each H_a, and the n-fold coproduct
    of C along each grading (g_0, ..., g_{n-1}) against the one along
    (g_1, ..., g_{n-1}, g_0), its legs shifted back by one.  Returns the
    subset of {"trace", "cotrace"} that fails."""
    legs = range(arity)

    def rotate(t):
        return t.relabel([(leg + 1) % arity for leg in t.labels])

    def entries(t):
        return {tuple(key[t.axis(leg)] for leg in legs): v for key, v in t.data.items()}

    failures = set()
    for a, T in enumerate(integral.trace):
        chain, out = product_chain(H, a, legs, ("p",))
        word = contract_network(chain + [T.relabel([out])])
        if entries(word) != entries(rotate(word)):
            failures.add("trace")
    pi = H.pi
    splits = {}
    for grading in itertools.product(range(pi.order), repeat=arity):
        if functools.reduce(lambda s, g: pi.mul[s][g], grading, pi.identity) == pi.identity:
            chain, root = coproduct_chain(H, grading, legs, ("q",))
            splits[grading] = contract_network(chain + [integral.cotrace.relabel([root])])
    for grading, split in splits.items():
        if entries(split) != entries(rotate(splits[grading[1:] + grading[:1]])):
            failures.add("cotrace")
    return failures


@pytest.fixture(scope="session")
def cyclic_failures():
    return _cyclic_failures
