"""Sparse exact tensors with labeled legs.

A ``GradedTensor`` holds Q(i) entries indexed by tuples of basis indices,
one per leg.  Legs carry a label (used to match contraction partners) and
a dimension.  Entries equal to zero are never stored, which matters
because the structure-constant tensors of the algebras we contract are
very sparse.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .scalars import ONE, ZERO, Scalar

DEFAULT_ENTRY_CAP = 10_000_000
ENTRY_CAP_ENV = "HOPFK_ENTRY_CAP"


class EntryCapExceeded(RuntimeError):
    """An intermediate tensor would exceed the configured entry cap."""


def entry_cap() -> int:
    value = os.environ.get(ENTRY_CAP_ENV)
    return int(value) if value else DEFAULT_ENTRY_CAP


@dataclass(frozen=True)
class Leg:
    label: object
    dim: int


class GradedTensor:
    """Dense-by-contract, sparse-by-storage multi-index array over Q(i)."""

    def __init__(self, legs, data=None):
        self.legs = tuple(legs)
        self.labels = tuple(leg.label for leg in self.legs)
        self.data = {}
        if data:
            for key, value in data.items():
                if not value.is_zero():
                    self.data[key] = value

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, value: Scalar) -> "GradedTensor":
        t = cls(())
        if not value.is_zero():
            t.data[()] = value
        return t

    @classmethod
    def vector(cls, label, values) -> "GradedTensor":
        """One leg labeled ``label`` carrying the coefficient sequence ``values``."""
        return cls((Leg(label, len(values)),), {(i,): v for i, v in enumerate(values)})

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

    def relabel(self, mapping) -> "GradedTensor":
        legs = tuple(
            Leg(mapping.get(leg.label, leg.label), leg.dim)
            for leg in self.legs
        )
        out = GradedTensor(legs)
        out.data = dict(self.data)
        return out

    def permute(self, order) -> "GradedTensor":
        """Reorder legs; ``order`` lists old axis positions."""
        legs = tuple(self.legs[i] for i in order)
        out = GradedTensor(legs)
        out.data = {tuple(key[i] for i in order): v for key, v in self.data.items()}
        return out

    def inverse(self) -> "GradedTensor":
        """Exact inverse of a square two-leg tensor, read as a matrix with
        rows on the first leg; raises ZeroDivisionError if it is singular."""
        n = self.legs[0].dim
        if self.legs[1].dim != n:
            raise ValueError("matrix is not square")
        # Gauss-Jordan on sparse rows, augmented by the identity in columns n..2n-1.
        rows = [{n + i: ONE} for i in range(n)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        for col in range(n):
            pivot = next((r for r in range(col, n) if col in rows[r]), None)
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            rows[col], rows[pivot] = rows[pivot], rows[col]
            scale = ONE / rows[col][col]
            rows[col] = {k: v * scale for k, v in rows[col].items()}
            for r in range(n):
                factor = rows[r].get(col)
                if r != col and factor is not None:
                    for k, v in rows[col].items():
                        rows[r][k] = rows[r].get(k, ZERO) - factor * v
                    rows[r] = {k: v for k, v in rows[r].items() if not v.is_zero()}
        inverse = {(i, k - n): v for i, row in enumerate(rows) for k, v in row.items() if k >= n}
        return GradedTensor(self.legs, inverse)

    # -- contraction ---------------------------------------------------------

    def contract(self, other: "GradedTensor") -> "GradedTensor":
        """Contract all legs whose labels appear in both tensors.

        Matching legs must agree in dimension; the result keeps the
        remaining legs of ``self`` followed by those of ``other``.  Raises
        ``EntryCapExceeded`` if its dense size exceeds ``entry_cap()``.
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
        n = 1
        for leg in legs:
            n *= leg.dim
        if n > limit:
            raise EntryCapExceeded(
                f"contraction would allocate {n} entries (cap {limit})"
            )
        out = GradedTensor(legs)
        # Hash-join on the shared index values.
        buckets = {}
        for key, value in other.data.items():
            pk = tuple(key[j] for j in pair_ot)
            buckets.setdefault(pk, []).append(
                (tuple(key[j] for j in ot_keep), value)
            )
        acc = out.data
        for key, value in self.data.items():
            pk = tuple(key[i] for i in my_pair)
            hits = buckets.get(pk)
            if not hits:
                continue
            base = tuple(key[i] for i in my_keep)
            for rest, other_value in hits:
                new_key = base + rest
                term = value * other_value
                prev = acc.get(new_key)
                total = term if prev is None else prev + term
                if total.is_zero():
                    acc.pop(new_key, None)
                else:
                    acc[new_key] = total
        return out

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedTensor):
            return NotImplemented
        return self.labels == other.labels and self.data == other.data

    def __repr__(self):
        return f"GradedTensor(legs={self.labels}, nnz={len(self.data)})"


def contract_network(nodes, rng=None) -> GradedTensor:
    """Contract a list of tensors into one, keeping the open legs.

    Repeatedly contracts a pair of tensors sharing a leg.  By default the
    pair is chosen greedily (smallest resulting open-size, deterministic
    tie-break on insertion order); pass ``rng`` to pick uniformly among the
    connected pairs instead (used to test order independence).
    Disconnected components are joined last, by outer product; a network
    with no open legs yields a tensor whose ``as_scalar`` is its value.
    """
    pool = list(nodes)
    while True:
        candidates = []
        for a in range(len(pool)):
            labels_a = set(pool[a].labels)
            for b in range(a + 1, len(pool)):
                shared = labels_a & set(pool[b].labels)
                if not shared:
                    continue
                size = 1
                seen = shared
                for leg in pool[a].legs + pool[b].legs:
                    if leg.label not in seen:
                        size *= leg.dim
                candidates.append((size, a, b))
        if not candidates:
            break
        if rng is None:
            _, a, b = min(candidates)
        else:
            _, a, b = candidates[rng.randrange(len(candidates))]
        merged = pool[a].contract(pool[b])
        pool = [t for i, t in enumerate(pool) if i not in (a, b)]
        pool.append(merged)
    result = pool[0] if pool else GradedTensor.scalar(ONE)
    for t in pool[1:]:
        result = result.contract(t)
    return result
