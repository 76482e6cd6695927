"""Randomized generators for testing: diagrams, move sequences, and
structure-constant mutations.

Everything is driven by an explicit ``random.Random`` so campaigns are
reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import replace

from .heegaard import (
    Crossing,
    Diagram,
    MoveError,
    MoveSpec,
    apply_move,
    cancelling_pairs,
    lens_diagram,
    validate_diagram,
)
from .hopf import LAYOUT, HopfPiCoalgebra, component_key, structure_legs
from .scalars import ONE, ZERO
from .tensors import GradedTensor


# Rejected samples ``random_diagram`` draws before it falls back to a lens.
DIAGRAM_TRIES = 200


def random_diagram(rng, genus_max=3, max_crossings=12) -> Diagram:
    """A random valid uncolored diagram, by rejection sampling plus a
    fallback to a small lens diagram when the sampler is unlucky."""
    for _ in range(DIAGRAM_TRIES):
        g = rng.randint(1, genus_max)
        n = rng.randint(g, max_crossings)
        crossings = tuple(
            Crossing(i, rng.randrange(g), rng.randrange(g), rng.choice((1, -1)))
            for i in range(n)
        )
        upper = [[] for _ in range(g)]
        lower = [[] for _ in range(g)]
        for c in crossings:
            upper[c.upper].append(c.id)
            lower[c.lower].append(c.id)
        for bucket in (*upper, *lower):
            rng.shuffle(bucket)
        D = Diagram(
            g,
            crossings,
            tuple(tuple(o) for o in upper),
            tuple(tuple(o) for o in lower),
        )
        if validate_diagram(D).passed:
            return D
    return lens_diagram(rng.randint(1, 4))


def random_move(rng, D: Diagram) -> MoveSpec:
    """A random move spec whose parameters reference the diagram; the
    parameters may still be rejected by apply_move (bad band positions)."""
    g = D.genus
    kinds = ["relabel", "reverse", "two_point_insert", "stabilize"]
    if g >= 2:
        kinds += ["destabilize", "slide"]
    if cancelling_pairs(D):
        kinds.append("two_point_remove")
    kind = rng.choice(kinds)
    if kind == "relabel":
        up, lp = list(range(g)), list(range(g))
        rng.shuffle(up)
        rng.shuffle(lp)
        rots = (
            tuple(rng.randrange(8) for _ in range(g)),
            tuple(rng.randrange(8) for _ in range(g)),
        )
        return MoveSpec(
            "relabel", upper_perm=tuple(up), lower_perm=tuple(lp), rotations=rots
        )
    if kind == "reverse":
        return MoveSpec(
            "reverse", circle=rng.choice(("upper", "lower")), index=rng.randrange(g)
        )
    if kind == "two_point_insert":
        return MoveSpec(
            "two_point_insert",
            upper=rng.randrange(g),
            lower=rng.randrange(g),
            pos_upper=rng.randrange(24),
            pos_lower=rng.randrange(24),
            sign=rng.choice((1, -1)),
        )
    if kind == "two_point_remove":
        return MoveSpec(
            "two_point_remove", pair=rng.choice(cancelling_pairs(D))
        )
    if kind == "stabilize":
        return MoveSpec("stabilize", sign=rng.choice((1, -1)))
    if kind == "destabilize":
        return MoveSpec("destabilize", index=rng.randrange(g))
    i = rng.randrange(g)
    j = (i + 1 + rng.randrange(g - 1)) % g
    return MoveSpec(
        "slide",
        circle=rng.choice(("upper", "lower")),
        index=i,
        other=j,
        band_self=rng.randrange(8),
        band_other=rng.randrange(8),
    )


def random_move_walk(rng, D: Diagram, steps: int, max_crossings: int = 28):
    """Apply up to ``steps`` random applicable moves, capping growth; returns
    the list of ``(move, diagram)`` pairs, the diagram each move gives, in order."""
    out = []
    for _ in range(steps):
        for _attempt in range(30):
            m = random_move(rng, D)
            if (
                m.kind in ("two_point_insert", "stabilize", "slide")
                and len(D.crossings) >= max_crossings - 1
            ):
                continue
            try:
                E = apply_move(D, m)
            except MoveError:
                continue
            if len(E.crossings) <= max_crossings:
                D = E
                out.append((m, D))
                break
    return out


# -- algebra mutations ---------------------------------------------------------


def _bump(t: GradedTensor, key) -> GradedTensor:
    """``t`` with the entry at ``key`` increased by one."""
    data = dict(t.data)
    data[key] = data.get(key, ZERO) + ONE
    return GradedTensor(t.legs, data)


def mutate_algebra(H: HopfPiCoalgebra, rng) -> tuple:
    """Perturb one random structure constant by +1; returns (description,
    mutated algebra).  Used to confirm the validators actually bite."""
    support = H.support()
    field = rng.choice(("mul", "unit", "delta", "counit", "antipode"))
    _, arity, _ = LAYOUT[field]
    key = component_key([rng.choice(support) for _ in range(arity)])
    legs = structure_legs(H.pi, H.dim, field, key)
    if not all(leg.dim for leg in legs):
        return mutate_algebra(H, rng)
    path = tuple(rng.randrange(leg.dim) for leg in legs)
    stored = getattr(H, field)
    bumped = _bump(stored if key is None else stored[key], path)
    mutated = bumped if key is None else {**stored, key: bumped}
    # Seeded campaigns key their cases by this text: a pair key is written
    # without spaces, a one-index path in brackets.
    where = "" if key is None else f"[({key[0]},{key[1]})]" if isinstance(key, tuple) else f"[{key}]"
    entry = f"[{path[0]}]" if len(path) == 1 else str(path)
    return f"{field}{where}{entry} += 1", replace(H, **{field: mutated})
