"""Brute-force lift counting, independent of all tensor machinery.

For the function algebra on a group G graded through a homomorphism
phi: G -> pi, the diagram invariant equals the number of representations
of the fundamental group into G lying over the coloring.  This module
computes that number by direct enumeration over the fibers of phi, and
deliberately shares no code with the contraction engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupHom, word_solutions


@dataclass(frozen=True)
class LiftCountQuery:
    words: tuple  # relators, one per lower circle
    colors: tuple  # one target-group element per generator
    phi: GroupHom

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "colors", tuple(self.colors))


def count_lifts(q: LiftCountQuery) -> int:
    """#{(g_1..g_n) with phi(g_k) = colors[k] and every relator = 1 in G}."""
    for w in q.words:
        for k, _ in w:
            if k >= len(q.colors):
                raise ValueError(
                    f"word references generator {k + 1} but only "
                    f"{len(q.colors)} colors were given"
                )
    fibers = [q.phi.fiber(a) for a in q.colors]
    return sum(1 for _ in word_solutions(q.words, fibers, q.phi.source))
