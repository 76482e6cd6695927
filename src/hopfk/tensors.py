"""Sparse exact tensors with labeled legs.

A ``GradedTensor`` holds Q(i) entries indexed by tuples of basis indices,
one per leg.  Legs carry a label (used to match contraction partners) and
a dimension.  Entries equal to zero are never stored, which matters
because the structure-constant tensors of the algebras we contract are
very sparse.
"""

from __future__ import annotations

import heapq
import os
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter

from .scalars import ONE, ZERO, Scalar

DEFAULT_ENTRY_CAP = 10_000_000
ENTRY_CAP_ENV = "HOPFK_ENTRY_CAP"


class EntryCapExceeded(RuntimeError):
    """A contraction would compute more products than the entry cap."""


def entry_cap() -> int:
    """The cap from ``HOPFK_ENTRY_CAP``: unset or empty means the default,
    anything but a positive integer is a ``ValueError``."""
    value = os.environ.get(ENTRY_CAP_ENV)
    if not value:
        return DEFAULT_ENTRY_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{ENTRY_CAP_ENV} must be a positive integer, got {value!r}")
    return cap


@dataclass(frozen=True)
class Leg:
    label: object
    dim: int


def projection(indices):
    """The C-level getter ``key -> tuple(key[i] for i in indices)``.

    A contiguous run, which includes one index and none, is a slice, so it
    still returns a tuple; any other run has two or more indices, for which
    ``itemgetter`` returns a tuple too."""
    start = indices[0] if indices else 0
    if list(indices) == list(range(start, start + len(indices))):
        return itemgetter(slice(start, start + len(indices)))
    return itemgetter(*indices)


class GradedTensor:
    """Dense-by-contract, sparse-by-storage multi-index array over Q(i).

    A tensor is not mutated after construction.  One built from given
    entries stores no zero, and stores each entry equal to 1 as the shared
    ``ONE``, so ``contract`` takes its products without a multiply.
    ``from_stored`` and ``relabel`` take entries that are already stored,
    and share their ``data`` dict.  ``contract`` stores its products as
    computed (see there)."""

    def __init__(self, legs, data=None):
        self.legs = tuple(legs)
        self.labels = tuple(leg.label for leg in self.legs)
        self.data = {}
        if data:
            for key, value in data.items():
                if not value.is_zero():
                    self.data[key] = ONE if value == ONE else value

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_stored(cls, legs, data) -> "GradedTensor":
        """A tensor on ``legs`` that takes the dict ``data`` as it is: its
        entries are stored entries of other tensors, so nonzero, and are not
        tested again."""
        out = cls(legs)
        out.data = data
        return out

    @classmethod
    def identity(cls, x, y, dim) -> "GradedTensor":
        """The identity matrix with rows on leg ``x`` and columns on leg ``y``."""
        return cls((Leg(x, dim), Leg(y, dim)), {(i, i): ONE for i in range(dim)})

    # -- basic queries -----------------------------------------------------

    def size(self) -> int:
        n = 1
        for leg in self.legs:
            n *= leg.dim
        return n

    def axis(self, label) -> int:
        for i, leg in enumerate(self.legs):
            if leg.label == label:
                return i
        raise KeyError(f"no leg labeled {label!r}")

    def entry(self, key) -> Scalar:
        return self.data.get(tuple(key), ZERO)

    def as_scalar(self) -> Scalar:
        if self.legs:
            raise ValueError("tensor still has open legs")
        return self.data.get((), ZERO)

    # -- structural operations ----------------------------------------------

    def relabel(self, labels) -> "GradedTensor":
        """Rename the legs, in stored order, to ``labels`` (a string gives one per character)."""
        if isinstance(labels, Mapping):
            raise TypeError("relabel takes the new labels in stored leg order, not a mapping")
        labels = tuple(labels)
        if len(labels) != len(self.legs):
            raise ValueError(f"{len(labels)} labels for {len(self.legs)} legs")
        return GradedTensor.from_stored(map(Leg, labels, (leg.dim for leg in self.legs)), self.data)

    # -- contraction ---------------------------------------------------------

    def contract(self, other: "GradedTensor") -> "GradedTensor":
        """Contract all legs whose labels appear in both tensors.

        Matching legs must agree in dimension; the result keeps the
        remaining legs of ``self`` followed by those of ``other``.  The
        hash join computes one product per pair of stored entries that
        agree on the shared legs, and raises ``EntryCapExceeded`` as soon
        as their count passes ``entry_cap()``; so the cap bounds both the
        time of a contraction and the entries of its result.  A product
        with a stored ``ONE`` is the other factor, taken without a multiply
        (it still counts towards the cap).  A product equal to 1, such as
        I * -I, is stored as computed, not as ``ONE``.

        A product written to a key for the first time is stored untested:
        both factors are stored entries, so nonzero, and Q(i) has no zero
        divisors.  Only a sum onto a stored key can cancel; it is tested,
        and a cancelled key is deleted, so the result stores no zero either.
        """
        shared = set(self.labels) & set(other.labels)
        my_keep = [i for i, leg in enumerate(self.legs) if leg.label not in shared]
        my_pair = [i for i, leg in enumerate(self.legs) if leg.label in shared]
        ot_keep = [i for i, leg in enumerate(other.legs) if leg.label not in shared]
        ot_pair = {other.legs[i].label: i for i in range(len(other.legs)) if other.legs[i].label in shared}
        pair_ot = [ot_pair[self.legs[i].label] for i in my_pair]
        for i, j in zip(my_pair, pair_ot):
            if self.legs[i].dim != other.legs[j].dim:
                raise ValueError(
                    f"leg {self.legs[i].label!r} dimension mismatch: "
                    f"{self.legs[i].dim} vs {other.legs[j].dim}"
                )
        legs = tuple(self.legs[i] for i in my_keep) + tuple(other.legs[j] for j in ot_keep)
        limit = entry_cap()
        out = GradedTensor(legs)
        # Hash-join on the shared index values.  The two bucket keys need only
        # agree with each other; the kept parts are concatenated, so tuples.
        my_bucket, ot_bucket = (itemgetter(*pair) if pair else projection(pair)
                                for pair in (my_pair, pair_ot))
        my_part, ot_part = projection(my_keep), projection(ot_keep)
        buckets = {}
        for key, value in other.data.items():
            buckets.setdefault(ot_bucket(key), []).append((ot_part(key), value))
        acc = out.data
        products = 0
        for key, value in self.data.items():
            hits = buckets.get(my_bucket(key))
            if not hits:
                continue
            products += len(hits)
            if products > limit:
                open_legs = ", ".join(f"{leg.label!r} (dim {leg.dim})" for leg in legs)
                summed = ", ".join(repr(self.legs[i].label) for i in my_pair)
                raise EntryCapExceeded(
                    f"contraction would compute at least {products} products (cap {limit}); "
                    f"open legs {open_legs or 'none'}; contracted over {summed or 'nothing'}"
                )
            base = my_part(key)
            for rest, other_value in hits:
                new_key = base + rest
                term = other_value if value is ONE else value if other_value is ONE else value * other_value
                prev = acc.get(new_key)
                if prev is None:
                    acc[new_key] = term
                    continue
                total = prev + term
                if total.is_zero():
                    del acc[new_key]
                else:
                    acc[new_key] = total
        return out

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedTensor):
            return NotImplemented
        return self.legs == other.legs and self.data == other.data

    def __repr__(self):
        return f"GradedTensor(legs={self.labels}, nnz={len(self.data)})"


def contract_network(nodes) -> GradedTensor:
    """Contract a list of tensors into one, keeping the open legs.

    Repeatedly contracts a pair of tensors sharing a leg, chosen greedily:
    smallest resulting open size, ties broken by insertion order, where a
    merged tensor counts as inserted last.  The value of a closed network
    does not depend on the order, so the order is not the caller's to
    choose.  Disconnected components are joined last, in that order, by
    outer product; a network with no open legs yields a tensor whose
    ``as_scalar`` is its value.

    The planner is incremental.  Every live tensor has an id, and a
    merged tensor gets a fresh id larger than all before it, so id order
    is insertion order.  An index maps each label to the ids of the live
    tensors carrying it, and a heap holds ``(merged open size, id_a,
    id_b)`` with ``id_a < id_b`` for every connected pair; its minimum is
    the next contraction.  Entries naming a tensor already merged are
    skipped when popped, and a new tensor pushes entries only for its
    neighbours, found through the index.  A network of at most two
    tensors needs no plan: it is ``nodes[0].contract(nodes[1])``.
    """
    pool = list(nodes)
    if len(pool) > 2:
        pool = _contract_greedy(pool)
    result = pool[0] if pool else GradedTensor((), {(): ONE})
    for t in pool[1:]:
        result = result.contract(t)
    return result


def _merged_size(a: GradedTensor, b: GradedTensor) -> int:
    """Dense size of the legs ``a.contract(b)`` leaves open."""
    shared = set(a.labels) & set(b.labels)
    size = 1
    for leg in a.legs + b.legs:
        if leg.label not in shared:
            size *= leg.dim
    return size


def _contract_greedy(pool):
    """Contract connected pairs in greedy order; return the tensors left,
    one per component, in id order."""
    live = dict(enumerate(pool))
    index = {}
    for i, t in live.items():
        for label in t.labels:
            index.setdefault(label, set()).add(i)

    def neighbours(i, t):
        return {j for label in t.labels for j in index[label] if j != i}

    heap = [
        (_merged_size(t, live[j]), i, j)
        for i, t in live.items()
        for j in neighbours(i, t)
        if j > i
    ]
    heapq.heapify(heap)
    next_id = len(pool)
    while heap:
        _, a, b = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        ta, tb = live.pop(a), live.pop(b)
        for i, t in ((a, ta), (b, tb)):
            for label in t.labels:
                index[label].discard(i)
        merged = ta.contract(tb)
        for label in merged.labels:
            index.setdefault(label, set()).add(next_id)
        for j in neighbours(next_id, merged):
            heapq.heappush(heap, (_merged_size(live[j], merged), j, next_id))
        live[next_id] = merged
        next_id += 1
    return list(live.values())

