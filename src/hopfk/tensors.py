"""Sparse exact tensors with labeled legs.

A ``GradedTensor`` is its ``labels`` and ``dims``, two tuples with one
entry per leg, and its Q(i) entries, indexed by tuples of basis indices in
leg order.  A label matches contraction partners; no two legs of a tensor
share one.  Entries equal to zero are never stored, which matters because
the structure-constant tensors of the algebras we contract are very sparse.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
import sys
from collections.abc import Mapping
from contextvars import ContextVar
from operator import itemgetter

from .scalars import ONE, ZERO, Scalar

DEFAULT_ENTRY_CAP = 10_000_000
ENTRY_CAP_ENV = "HOPFK_ENTRY_CAP"
# The cap ``contract_network`` read for the network it is contracting, if any.
_network_cap = ContextVar("network_cap", default=None)


class EntryCapExceeded(RuntimeError):
    """A contraction would compute more products than the entry cap."""


def entry_cap() -> int:
    """The cap from ``HOPFK_ENTRY_CAP``: unset or empty means the default,
    anything but a positive integer in ASCII digits is a ``ValueError``; a
    sign, an underscore, a space or another script's digits are refused,
    though ``int`` would read them, and so are more digits than ``int``
    converts (``sys.get_int_max_str_digits()``)."""
    value = os.environ.get(ENTRY_CAP_ENV)
    if not value:
        return DEFAULT_ENTRY_CAP
    try:
        cap = int(value) if value.isdigit() and value.isascii() else 0
    except ValueError:  # more digits than int() converts
        raise ValueError(
            f"{ENTRY_CAP_ENV} has {len(value)} digits, more than the "
            f"{sys.get_int_max_str_digits()} Python converts to an integer"
        ) from None
    if cap < 1:
        raise ValueError(f"{ENTRY_CAP_ENV} must be a positive integer, got {value!r}")
    return cap


def projection(indices):
    """The C-level getter ``key -> tuple(key[i] for i in indices)``:
    ``itemgetter(*indices)`` for two or more indices, and a slice, which
    returns a tuple too, for one or none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


def _bucket(positions):
    """The bucket getter on ``positions``: the value itself for one, a
    tuple for two or more, and () for none."""
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


# Bounded above the 61 patterns a seed-1 pass of bench/run.py's walk meets.
@functools.lru_cache(maxsize=256)
def _join_pattern(my_keep, ot_keep, pairs):
    """The getters of a join whose kept positions are ``my_keep`` in
    ``self`` and ``ot_keep`` in ``other`` and whose shared legs are the
    ``(self position, other position)`` pairs ``pairs``, in ``self``'s
    order: ``(my_part, ot_part, my_index, ot_index)``.  ``my_index`` is
    ``(ix_pos, ix_bucket, scan_bucket)`` for ``self`` indexed, and
    ``ot_index`` the same for ``other`` indexed.  Each side's pairs read
    (indexed position, scanned position) in increasing indexed position,
    so one index serves every order of those legs, and the scan reads its
    partners in the same order."""
    index = []
    for side_pairs in (pairs, sorted([(j, i) for i, j in pairs])):
        ix_pos = tuple(i for i, _ in side_pairs)
        index.append((ix_pos, _bucket(ix_pos), _bucket([j for _, j in side_pairs])))
    return projection(my_keep), projection(ot_keep), index[0], index[1]


# Bounded above the 1,555 shapes a seed-1 pass of bench/run.py's walk meets.
@functools.lru_cache(maxsize=2048)
def _join_setup(my_labels, my_dims, ot_labels, ot_dims):
    """``_join_pattern``'s getters for ``self`` on ``my_labels`` and
    ``my_dims`` contracted with ``other`` on ``ot_labels`` and ``ot_dims``;
    a shared leg of two dims is a ``ValueError``."""
    # The positions left in ``where`` are other's kept legs, in order.
    where = dict(zip(ot_labels, range(len(ot_labels))))
    keep, pairs = [], []
    for i, label in enumerate(my_labels):
        j = where.pop(label, None)
        if j is None:
            keep.append(i)
            continue
        if my_dims[i] != ot_dims[j]:
            raise ValueError(f"leg {label!r} dimension mismatch: "
                             f"{my_dims[i]} vs {ot_dims[j]}")
        pairs.append((i, j))
    return _join_pattern(tuple(keep), tuple(where.values()), tuple(pairs))


class GradedTensor:
    """Dense-by-contract, sparse-by-storage multi-index array over Q(i).

    A tensor is not mutated after construction.  One built from given
    entries stores no zero, and stores each entry equal to 1 as the shared
    ``ONE``, so ``contract`` takes its products without a multiply.
    ``from_stored`` and ``relabel`` take entries that are already stored,
    and share their ``data`` dict.  ``contract`` stores its products as
    computed (see there).

    A stored tensor, one made by the constructor or ``from_stored``, also
    keeps the hash-join indexes ``contract`` builds over its entries, one
    per tuple of joined leg positions, in a private dict that its
    ``relabel`` views share, as they share ``data``: an index reads
    positions, not labels.  That nothing mutates a tensor is what keeps
    an index true to its entries.  A ``contract`` result keeps none."""

    def __init__(self, labels, dims, data=None):
        self.labels, self.dims = tuple(labels), tuple(dims)
        if len(self.labels) != len(self.dims):
            raise ValueError(f"{len(self.labels)} labels for {len(self.dims)} legs")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"repeated leg label in {self.labels!r}")
        self.data = {}
        self._index = {}
        if data:
            for key, value in data.items():
                if not value.is_zero():
                    self.data[key] = ONE if value == ONE else value

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_stored(cls, labels, dims, data) -> "GradedTensor":
        """A tensor on ``labels`` and ``dims`` that takes the dict ``data`` as
        it is: its entries are stored entries of other tensors, so nonzero,
        and are not tested again."""
        out = cls(labels, dims)
        out.data = data
        return out

    @classmethod
    def identity(cls, x, y, dim) -> "GradedTensor":
        """The identity matrix with rows on leg ``x`` and columns on leg ``y``."""
        return cls((x, y), (dim, dim), {(i, i): ONE for i in range(dim)})

    # -- basic queries -----------------------------------------------------

    def size(self) -> int:
        return math.prod(self.dims)

    def axis(self, label) -> int:
        if label not in self.labels:
            raise KeyError(f"no leg labeled {label!r}")
        return self.labels.index(label)

    def entry(self, key) -> Scalar:
        return self.data.get(tuple(key), ZERO)

    def as_scalar(self) -> Scalar:
        if self.labels:
            raise ValueError("tensor still has open legs")
        return self.data.get((), ZERO)

    # -- structural operations ----------------------------------------------

    def relabel(self, labels) -> "GradedTensor":
        """Rename the legs, in stored order, to ``labels`` (a string gives one per character)."""
        if isinstance(labels, Mapping):
            raise TypeError("relabel takes the new labels in stored leg order, not a mapping")
        out = GradedTensor.from_stored(labels, self.dims, self.data)
        out._index = self._index
        return out

    # -- contraction ---------------------------------------------------------

    def contract(self, other: "GradedTensor") -> "GradedTensor":
        """Contract all legs whose labels appear in both tensors.

        Matching legs must agree in dimension; the result keeps the
        remaining legs of ``self`` followed by those of ``other``.  The
        hash join computes one product per pair of stored entries that
        agree on the shared legs, and raises ``EntryCapExceeded`` as soon
        as their count passes the cap: the one ``contract_network`` read
        for the network being contracted, else ``entry_cap()``.  So the cap
        bounds both the time of a contraction and the entries of its
        result.  A product with a stored ``ONE`` is the other factor, taken
        without a multiply (it still counts towards the cap).  A product
        equal to 1, such as I * -I, is stored as computed, not as ``ONE``.

        A product written to a key for the first time is stored untested:
        both factors are stored entries, so nonzero, and Q(i) has no zero
        divisors.  Only a sum onto a stored key can cancel; it is tested,
        and a cancelled key is deleted, so the result stores no zero either.

        The join indexes one side, a map from the values on the shared legs
        to the kept parts and values of its entries, and scans the other
        side's entries against it; the product count is taken over the
        scanned side.  A stored side is indexed, the one with more entries
        if both are (``other`` on a tie), and the index is kept with it
        (see the class docstring), so a stored tensor joined again on the
        same legs is not indexed again; a result of ``contract`` is joined
        once, so if neither side is stored, ``other`` is indexed for this
        call only.  A kept index never skips the count.

        The set-up, ``_join_setup``, is a pure function of the operands'
        labels and dims, memoized by them in a bounded ``lru_cache`` of
        2,048 shapes.  On a miss it walks the legs of ``self`` once against
        a dict of ``other``'s positions: it lists ``self``'s kept positions
        and one ``(self position, other position)`` pair per shared leg,
        checking their dimensions (a mismatch raises, so it is never
        memoized).  Its getters come from a second memo, of 256 patterns,
        keyed by those positions (``_join_pattern``): the kept-part getters,
        built by ``projection``, and for each choice of indexed side the
        index's positions, its bucket getter and the scan's, bare
        ``itemgetter``s, so one shared leg gives a scalar bucket key.  Both
        memos hold only tuples of labels, dims and positions, and getters:
        never a tensor or an entry.  The result's labels and dims are read
        from this call's operands, so labels equal across types (``1``,
        ``True``) keep their own.  The result skips the constructor's
        repeated-label check: its legs are those of ``self`` that ``other``
        lacks, then the rest of ``other``'s, so no label repeats.
        """
        my_part, ot_part, my_index, ot_index = _join_setup(self.labels, self.dims, other.labels, other.dims)
        labels = my_part(self.labels) + ot_part(other.labels)
        dims = my_part(self.dims) + ot_part(other.dims)
        limit = _network_cap.get() or entry_cap()
        # Hash-join on the shared index values; ``mine`` says self is the
        # indexed side (see above for which side that is).
        mine = self._index is not None and (other._index is None or len(self.data) > len(other.data))
        if mine:
            indexed, ix_part, scanned, scan_part = self, my_part, other, ot_part
            ix_pos, ix_bucket, scan_bucket = my_index
        else:
            indexed, ix_part, scanned, scan_part = other, ot_part, self, my_part
            ix_pos, ix_bucket, scan_bucket = ot_index
        cache = indexed._index
        buckets = None if cache is None else cache.get(ix_pos)
        if buckets is None:
            buckets = {}
            for key, value in indexed.data.items():
                buckets.setdefault(ix_bucket(key), []).append((ix_part(key), value))
            if cache is not None:  # kept as tuples: fixed, and no spare list slots held
                buckets = cache[ix_pos] = {k: tuple(v) for k, v in buckets.items()}
        # The result keys are self's kept part, then other's.
        acc = {}
        products = 0
        for key, value in scanned.data.items():
            hits = buckets.get(scan_bucket(key))
            if not hits:
                continue
            products += len(hits)
            if products > limit:
                open_legs = ", ".join(f"{label!r} (dim {dim})" for label, dim in zip(labels, dims))
                summed = ", ".join(repr(x) for x in self.labels if x not in labels)
                raise EntryCapExceeded(
                    f"contraction would compute at least {products} products (cap {limit}); "
                    f"open legs {open_legs or 'none'}; contracted over {summed or 'nothing'}"
                )
            base = scan_part(key)
            for rest, ix_value in hits:
                new_key = rest + base if mine else base + rest
                term = ix_value if value is ONE else value if ix_value is ONE else value * ix_value
                prev = acc.get(new_key)
                if prev is None:
                    acc[new_key] = term
                    continue
                total = prev + term
                if total.is_zero():
                    del acc[new_key]
                else:
                    acc[new_key] = total
        out = GradedTensor.__new__(GradedTensor)  # no label check, see above
        out.labels, out.dims, out.data, out._index = labels, dims, acc, None
        return out

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedTensor):
            return NotImplemented
        return (self.labels, self.dims, self.data) == (other.labels, other.dims, other.data)

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

    That order is ``plan_network``'s, the only order policy.  It reads the
    nodes' labels and dims alone, never their entries, so every coloring
    of a diagram, whose networks differ only in entries, has one plan; the
    plans are memoized per shape in a bounded cache.  This function
    replays the plan's merges with ``contract``, then joins the leftover
    components.  A network of at most two tensors needs no plan: it is
    ``nodes[0].contract(nodes[1])``.  The entry cap is read once, before
    the first contraction, and bounds every contraction of the network.
    """
    pool = list(nodes)
    if len(pool) < 2:
        return pool[0] if pool else GradedTensor((), (), {(): ONE})
    token = _network_cap.set(entry_cap())
    try:
        if len(pool) > 2:
            merges, left = plan_network(tuple([(t.labels, t.dims) for t in pool]))
            live = dict(enumerate(pool))
            for new, (a, b) in enumerate(merges, len(pool)):
                live[new] = live.pop(a).contract(live.pop(b))
            pool = [live[i] for i in left]
        result = pool[0]
        for t in pool[1:]:
            result = result.contract(t)
    finally:
        _network_cap.reset(token)
    return result


def _open_size(x_legs, x_size, y_legs, y_size) -> int:
    """Dense size of the legs left open by contracting two planner nodes,
    each given as its legs, a dict from label code to dim, and its size,
    the product of those dims.

    Each node's own dims over the legs the two share divide its size, so
    the open size is ``(x_size // x_shared) * (y_size // y_shared)``, with
    both ``shared`` products found in one pass over the node with fewer
    legs.  A size of 0 has no such quotient; then the open dims are
    multiplied out."""
    if not (x_size and y_size):
        return (math.prod([d for c, d in x_legs.items() if c not in y_legs])
                * math.prod([d for c, d in y_legs.items() if c not in x_legs]))
    if len(x_legs) > len(y_legs):
        x_legs, x_size, y_legs, y_size = y_legs, y_size, x_legs, x_size
    x_shared = y_shared = 1
    for code, dim in x_legs.items():
        if code in y_legs:
            x_shared *= dim
            y_shared *= y_legs[code]
    return (x_size // x_shared) * (y_size // y_shared)


@functools.lru_cache(maxsize=32)
def plan_network(shapes):
    """The greedy contraction order of a network whose nodes have the given
    shapes, a tuple of (labels, dims) pairs, one per node in order.

    Returns ``(merges, left)``.  ``merges`` lists the pairs ``(a, b)``, with
    ``a < b``, in the order to contract them as ``a.contract(b)``: node ids
    are positions in ``shapes``, and the k-th merge makes the node with id
    ``len(shapes) + k``.  ``left`` lists the ids left over, one per
    component, in id order.

    Each distinct label is hashed once, to an int code in order of first
    appearance, and the rest of the work is on codes.  A live node's legs
    are a dict from code to dim, in leg order, and its dense size is kept
    beside them.  Each node has an id, and a merged node gets a fresh id
    larger than all before it, so id order is insertion order.  An index
    maps each code to the ids of the live nodes carrying it, and a heap
    holds ``(merged open size, id_a, id_b)`` with ``id_a < id_b`` for every
    connected pair; its minimum is the next merge, and its open size is the
    merged node's dense size.  A pair's open size comes from the two kept
    sizes and one pass over the smaller node, or from the open dims where
    a size is 0 (see ``_open_size``).  Entries naming a node already merged
    are skipped when popped, and a merged node pushes entries only for its
    neighbours, the other live nodes its codes reach through the index.
    A merged node's legs are those ``contract`` gives: the legs of ``a``
    that ``b`` lacks, then the rest of ``b``'s.  The cache key holds
    labels and dims only, so it keeps no tensor alive.
    """
    codes, index, live, sizes = {}, [], {}, []
    for i, (labels, dims) in enumerate(shapes):
        legs = live[i] = {}
        for label, dim in zip(labels, dims):
            code = codes.get(label)
            if code is None:
                code = codes[label] = len(index)
                index.append({i})
            else:
                index[code].add(i)
            legs[code] = dim
        sizes.append(math.prod(dims))
    heap = [
        (_open_size(live[i], sizes[i], live[j], sizes[j]), i, j)
        for i, j in {(i, j) for ids in index for i in ids for j in ids if i < j}
    ]
    heapq.heapify(heap)
    merges = []
    next_id = len(shapes)
    while heap:
        size, a, b = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        a_legs, b_legs = live.pop(a), live.pop(b)
        legs = {}
        for code, dim in a_legs.items():
            index[code].discard(a)
            if code not in b_legs:
                legs[code] = dim
        for code, dim in b_legs.items():
            index[code].discard(b)
            if code not in a_legs:
                legs[code] = dim
        neighbours = set()
        for code in legs:
            neighbours |= index[code]
            index[code].add(next_id)
        for j in neighbours:
            heapq.heappush(heap, (_open_size(live[j], sizes[j], legs, size), j, next_id))
        live[next_id] = legs
        sizes.append(size)
        merges.append((a, b))
        next_id += 1
    return tuple(merges), tuple(live)
