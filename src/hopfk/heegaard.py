"""Combinatorial group-colored Heegaard diagrams and their move calculus.

A diagram is stored purely combinatorially: crossing incidences between
upper and lower circles, a sign per crossing, cyclic traversal orders per
circle, and a group color per upper circle.  Realizability on a genus-g
surface is certified through the rotation system induced by the signs
(see ``euler_certificate``): a rotation system always describes an
orientable surface, so its Euler characteristic is even and gives a genus
with one count over the whole diagram.  Everything downstream consumes
only the combinatorial data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .groups import GroupTable, Report, Word, evaluate_word, word_solutions


@dataclass(frozen=True)
class Crossing:
    id: int
    upper: int
    lower: int
    sign: int  # +1 or -1


@dataclass(frozen=True)
class Diagram:
    genus: int
    crossings: tuple
    upper_orders: tuple  # per upper circle, cyclic tuple of crossing ids
    lower_orders: tuple
    colors: tuple = None  # per upper circle, group element index
    pi: GroupTable = None

    def crossing_map(self):
        return {c.id: c for c in self.crossings}

    def fresh_id(self) -> int:
        return max((c.id for c in self.crossings), default=-1) + 1

    @property
    def colored(self) -> bool:
        return self.colors is not None

    def with_colors(self, pi: GroupTable, colors) -> "Diagram":
        return replace(self, colors=tuple(colors), pi=pi)

    def uncolored(self) -> "Diagram":
        return replace(self, colors=None, pi=None)

    def families(self) -> tuple:
        """The traversal orders of the upper circles, then of the lower ones."""
        return self.upper_orders, self.lower_orders


# -- validation ---------------------------------------------------------------


def extract_words(D: Diagram):
    """One word per lower circle: letter x_k^sign per crossing with upper
    circle k, read along the stored traversal order."""
    cmap = D.crossing_map()
    words = []
    for order in D.lower_orders:
        words.append(Word(tuple((cmap[i].upper, cmap[i].sign) for i in order)))
    return words


# Counterclockwise slot order of the four arc-ends at a crossing; derived
# from the sign convention (lower-then-upper tangents positively oriented
# at sign +1).
_SLOTS_POS = (("l", "out"), ("u", "out"), ("l", "in"), ("u", "in"))
_SLOTS_NEG = (("l", "out"), ("u", "in"), ("l", "in"), ("u", "out"))


# Dart s of a crossing, for s = 0..3, is the arc-end _ENDS[s]; the dart s
# of the k-th crossing is numbered 4k + s.
_ENDS = (("u", "out"), ("u", "in"), ("l", "out"), ("l", "in"))


def _turn(slots):
    """Per dart s, the dart next counterclockwise in ``slots``."""
    where = [_ENDS.index(slot) for slot in slots]
    turn = [0] * 4
    for t, s in enumerate(where):
        turn[s] = where[(t + 1) % 4]
    return tuple(turn)


_TURN_POS, _TURN_NEG = _turn(_SLOTS_POS), _turn(_SLOTS_NEG)


def euler_certificate(D: Diagram):
    """Total genus demanded by the rotation system, summed over connected
    components of the crossing graph, plus the component count.

    The faces are the orbits of rho after theta.  A rotation system always
    gives an orientable surface (Heffter-Edmonds), so each of the c
    components has an even Euler characteristic 2 - 2 g_i, and the total
    genus is c - chi/2 for chi = V - E + F counted once over all darts.
    Circles without crossings do not constrain the surface and are ignored
    here.

    The k-th crossing is numbered k, and its darts 4k + s (see ``_ENDS``),
    so theta and rho are lists, the union-find parents a list, and the
    visited darts a bytearray; each crossing id is hashed once per order
    it appears in.  The count assumes what ``validate_diagram`` checks
    first: distinct crossing ids, each in one upper and one lower order.
    A crossing in neither counts only as a vertex and a component.
    """
    n = len(D.crossings)
    number = {c.id: k for k, c in enumerate(D.crossings)}
    rho = [
        4 * k + s
        for k, c in enumerate(D.crossings)
        for s in (_TURN_POS if c.sign == 1 else _TURN_NEG)
    ]
    theta = [None] * (4 * n)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # The "out" dart of each family; its "in" dart is one more.
    for out, orders in zip((0, 2), D.families()):
        for order in orders:
            ks = [number[cid] for cid in order]
            for k, nxt in zip(ks, ks[1:] + ks[:1]):
                theta[4 * k + out] = 4 * nxt + out + 1
                theta[4 * nxt + out + 1] = 4 * k + out
            # Connected components of the crossing graph (via shared circles).
            for a, b in zip(ks, ks[1:]):
                parent[find(a)] = find(b)
    components = len({find(k) for k in range(n)})

    seen = bytearray(4 * n)
    faces = 0
    for start, image in enumerate(theta):
        if seen[start] or image is None:
            continue
        faces += 1
        d = start
        while not seen[d]:
            seen[d] = 1
            d = rho[theta[d]]
    chi = n - (4 * n - theta.count(None)) // 2 + faces
    return components - chi // 2, components


def validate_diagram(D: Diagram) -> Report:
    report = Report()
    g = D.genus
    if g < 1:
        report.fail("genus must be positive")
        return report
    if len(D.upper_orders) != g or len(D.lower_orders) != g:
        report.fail(
            f"expected {g} upper and {g} lower circles, got "
            f"{len(D.upper_orders)} and {len(D.lower_orders)}"
        )
        return report
    ids = [c.id for c in D.crossings]
    if len(set(ids)) != len(ids):
        report.fail("duplicate crossing ids")
        return report
    cmap = D.crossing_map()
    for c in D.crossings:
        if c.sign not in (1, -1):
            report.fail(f"crossing {c.id} has sign {c.sign}, expected +-1")
        if not (0 <= c.upper < g):
            report.fail(f"crossing {c.id} references upper circle {c.upper}")
        if not (0 <= c.lower < g):
            report.fail(f"crossing {c.id} references lower circle {c.lower}")
    if not report.passed:
        return report
    for kind, orders in zip(("upper", "lower"), D.families()):
        seen = {}
        for circle, order in enumerate(orders):
            for cid in order:
                if cid not in cmap:
                    report.fail(f"{kind} order references unknown crossing {cid}")
                    return report
                if cid in seen:
                    report.fail(
                        f"crossing {cid} appears twice in {kind} orders "
                        f"(circles {seen[cid]} and {circle})"
                    )
                elif getattr(cmap[cid], kind) != circle:
                    report.fail(
                        f"crossing {cid} listed on {kind} circle {circle} "
                        f"but declares {getattr(cmap[cid], kind)}"
                    )
                seen[cid] = circle
        missing = set(cmap) - set(seen)
        if missing:
            report.fail(f"crossings {sorted(missing)} missing from {kind} orders")
    if not report.passed:
        return report

    if D.colored:
        if D.pi is None:
            report.fail("colored diagram carries no group")
            return report
        if len(D.colors) != g:
            report.fail("color vector length differs from genus")
            return report
        for k, a in enumerate(D.colors):
            if not (isinstance(a, int) and 0 <= a < D.pi.order):
                report.fail(f"color of upper circle {k} out of range")
                return report
        for i, w in enumerate(extract_words(D)):
            value = evaluate_word(w, D.colors, D.pi)
            if value != D.pi.identity:
                report.fail(
                    f"color condition fails on lower circle {i}: "
                    f"word {w} evaluates to {D.pi.names[value]!r}"
                )

    demanded, _ = euler_certificate(D)
    if demanded > g:
        report.fail(
            f"rotation system demands genus {demanded}, diagram declares {g}"
        )
    elif demanded < g:
        report.warn(
            f"rotation system only certifies genus {demanded} of {g}; "
            "surface is not filled cellularly"
        )
    return report


def enumerate_colorings(D: Diagram, pi: GroupTable):
    """All color vectors satisfying the word condition, in lexicographic
    index order."""
    return list(word_solutions(extract_words(D), [range(pi.order)] * D.genus, pi))


# -- generators ----------------------------------------------------------------


def lens_diagram(p: int) -> Diagram:
    """Genus-1 diagram with one upper and one lower circle meeting p times
    positively; the single word is x^p.  p=1 is the 3-sphere, p=2 real
    projective 3-space."""
    if p < 1:
        raise ValueError("need at least one crossing; p >= 1")
    order = tuple(range(p))
    crossings = tuple(Crossing(i, 0, 0, 1) for i in range(p))
    return Diagram(1, crossings, (order,), (order,))


def connected_sum(D1: Diagram, D2: Diagram) -> Diagram:
    if D1.colored != D2.colored:
        raise ValueError("cannot sum a colored and an uncolored diagram")
    if D1.colored and D1.pi is not D2.pi and D1.pi != D2.pi:
        raise ValueError("colored summands must share the coloring group")
    shift = D1.fresh_id()
    crossings = D1.crossings + tuple(
        Crossing(c.id + shift, c.upper + D1.genus, c.lower + D1.genus, c.sign)
        for c in D2.crossings
    )
    upper, lower = (
        first + tuple(tuple(i + shift for i in order) for order in second)
        for first, second in zip(D1.families(), D2.families())
    )
    colors = D1.colors + D2.colors if D1.colored else None
    return Diagram(D1.genus + D2.genus, crossings, upper, lower, colors, D1.pi)


def mirror_diagram(D: Diagram) -> Diagram:
    """The diagram with every crossing sign flipped and, if colored, every
    color inverted.

    Flipping every sign inverts every letter of every relator, so x_k is
    carried to x_k^-1; inverting each upper color, as reversing one upper
    circle does, keeps the color condition.  Mirroring twice gives D back."""
    flipped = tuple(
        Crossing(c.id, c.upper, c.lower, -c.sign) for c in D.crossings
    )
    colors = tuple(D.pi.inverse[a] for a in D.colors) if D.colored else None
    return replace(D, crossings=flipped, colors=colors)


# -- moves --------------------------------------------------------------------


@dataclass(frozen=True)
class MoveSpec:
    """Parameters of one diagram move.

    kinds: relabel, reverse, two_point_insert, two_point_remove,
    stabilize, destabilize, slide.
    """

    kind: str
    circle: str = "upper"  # reverse / slide: which family
    index: int = 0  # reverse / destabilize / slide: the moving circle
    other: int = 0  # slide: the circle slid past
    upper: int = 0  # two_point: upper circle
    lower: int = 0  # two_point: lower circle
    pos_upper: int = 0  # two_point insert positions
    pos_lower: int = 0
    sign: int = 1  # two_point insert / stabilize: sign of (first) crossing
    pair: tuple = None  # two_point_remove: the two crossing ids
    upper_perm: tuple = None  # relabel
    lower_perm: tuple = None
    rotations: tuple = None  # relabel: (upper offsets, lower offsets)
    band_self: int = 0  # slide: splice position in the moving circle's order
    band_other: int = 0  # slide: starting rotation of the copied order


class MoveError(ValueError):
    """Move parameters do not apply to the diagram."""


def _insert(seq, pos, items):
    pos %= len(seq) + 1 if seq else 1
    return tuple(seq[:pos]) + tuple(items) + tuple(seq[pos:])


def _rotate(order, r):
    """The cyclic order started at position r (taken modulo its length)."""
    r = r % len(order) if order else 0
    return order[r:] + order[:r]


def _permuted(seq, perm):
    """``seq`` with item k moved to position ``perm[k]``."""
    out = [None] * len(seq)
    for k, item in enumerate(seq):
        out[perm[k]] = item
    return tuple(out)


def _apply_relabel(D, m):
    g = D.genus
    perms = (m.upper_perm or tuple(range(g)), m.lower_perm or tuple(range(g)))
    if any(sorted(perm) != list(range(g)) for perm in perms):
        raise MoveError("relabel permutations must permute the circles")
    # up[k] = new index of old upper circle k.
    up, lp = perms
    crossings = tuple(
        Crossing(c.id, up[c.upper], lp[c.lower], c.sign) for c in D.crossings
    )
    rotations = ((0,) * g,) * 2 if m.rotations is None else m.rotations
    if len(rotations) != 2 or any(len(r) != g for r in rotations):
        raise MoveError("relabel rotations must give one offset per circle in each family")
    upper, lower = (
        tuple(_rotate(o, r) for o, r in zip(_permuted(orders, perm), rots))
        for orders, perm, rots in zip(D.families(), perms, rotations)
    )
    colors = _permuted(D.colors, up) if D.colored else None
    return Diagram(g, crossings, upper, lower, colors, D.pi)


def _family(m) -> int:
    """The position in ``families()`` of the circles a move runs along."""
    try:
        return ("upper", "lower").index(m.circle)
    except ValueError:
        raise MoveError(f"unknown circle family {m.circle!r}") from None


def _apply_reverse(D, m):
    k = m.index
    f = _family(m)
    if not (0 <= k < D.genus):
        raise MoveError(f"no {m.circle} circle {k}")
    on_circle = set(D.families()[f][k])
    upper, lower = (
        tuple(tuple(reversed(o)) if (t, c) == (f, k) else o for c, o in enumerate(orders))
        for t, orders in enumerate(D.families())
    )
    crossings = tuple(
        Crossing(c.id, c.upper, c.lower, -c.sign if c.id in on_circle else c.sign)
        for c in D.crossings
    )
    colors = D.colors
    if D.colored and m.circle == "upper":
        # Only an upper circle carries a color; reversing it inverts the color.
        colors = tuple(D.pi.inverse[a] if i == k else a for i, a in enumerate(D.colors))
    return Diagram(D.genus, crossings, upper, lower, colors, D.pi)


def _apply_two_point_insert(D, m):
    k, i = m.upper, m.lower
    if not (0 <= k < D.genus and 0 <= i < D.genus):
        raise MoveError("two-point move references missing circles")
    if m.sign not in (1, -1):
        raise MoveError("two-point sign must be +-1")
    a = D.fresh_id()
    b = a + 1
    # The positive-sign crossing comes first in both traversal orders;
    # this is the bigon shape whose removal is the inverse move.
    first, second = (a, b) if m.sign == 1 else (b, a)
    crossings = D.crossings + (
        Crossing(a, k, i, m.sign),
        Crossing(b, k, i, -m.sign),
    )
    upper, lower = (
        tuple(_insert(o, pos, (first, second)) if c == circle else o for c, o in enumerate(orders))
        for orders, circle, pos in zip(D.families(), (k, i), (m.pos_upper, m.pos_lower))
    )
    return Diagram(D.genus, crossings, upper, lower, D.colors, D.pi)


def cancelling_pairs(D: Diagram):
    """All crossing-id pairs removable by the two-point move: same circles,
    opposite signs, the positive one directly followed by the negative one
    in both traversal orders.  Listed in ``D.crossings`` order of the
    positive crossing."""
    upper_next, lower_next = (
        {x: order[(t + 1) % len(order)] for order in orders for t, x in enumerate(order)}
        for orders in D.families()
    )
    cmap = D.crossing_map()
    return [
        (a.id, b)
        for a in D.crossings
        if a.sign == 1
        and (b := upper_next.get(a.id)) in cmap
        and cmap[b].sign == -1
        and lower_next.get(a.id) == b
    ]


def _apply_two_point_remove(D, m):
    if m.pair is None:
        raise MoveError("two_point_remove needs the crossing pair")
    pair = tuple(m.pair)
    options = cancelling_pairs(D)
    if pair not in options and tuple(reversed(pair)) not in options:
        raise MoveError(f"crossings {pair} are not a removable two-point pair")
    drop = set(pair)
    crossings = tuple(c for c in D.crossings if c.id not in drop)
    upper, lower = (
        tuple(tuple(i for i in o if i not in drop) for o in orders) for orders in D.families()
    )
    return Diagram(D.genus, crossings, upper, lower, D.colors, D.pi)


def _apply_stabilize(D, m):
    if m.sign not in (1, -1):
        raise MoveError("stabilize sign must be +-1")
    handle = Diagram(1, (Crossing(0, 0, 0, m.sign),), ((0,),), ((0,),))
    if D.colored:
        handle = handle.with_colors(D.pi, (D.pi.identity,))
    return connected_sum(D, handle)


def _apply_destabilize(D, m):
    k = m.index
    if D.genus < 2:
        raise MoveError("cannot destabilize a genus-1 diagram")
    if not (0 <= k < D.genus):
        raise MoveError(f"no upper circle {k}")
    order = D.upper_orders[k]
    if len(order) != 1:
        raise MoveError("handle not standard: upper circle has several crossings")
    cid = order[0]
    c = D.crossing_map()[cid]
    if D.lower_orders[c.lower] != (cid,):
        raise MoveError("handle not standard: lower circle has extra crossings")
    if D.colored and D.colors[k] != D.pi.identity:
        raise MoveError("handle upper circle is not colored by the identity")
    j = c.lower
    # Circles after the dropped ones move down by one.
    crossings = tuple(
        Crossing(x.id, x.upper - (x.upper > k), x.lower - (x.lower > j), x.sign)
        for x in D.crossings
        if x.id != cid
    )
    upper, lower = (
        tuple(o for t, o in enumerate(orders) if t != drop)
        for orders, drop in zip(D.families(), (k, j))
    )
    colors = None
    if D.colored:
        colors = tuple(a for t, a in enumerate(D.colors) if t != k)
    return Diagram(D.genus - 1, crossings, upper, lower, colors, D.pi)


def _apply_slide(D, m):
    i, j = m.index, m.other
    if i == j:
        raise MoveError("a circle cannot slide past itself")
    g = D.genus
    if not (0 <= i < g and 0 <= j < g):
        raise MoveError("slide references missing circles")
    f = _family(m)
    orders = list(D.families())
    slid = orders[f][j]
    if not slid:
        raise MoveError("cannot slide past a circle without crossings")
    cmap = D.crossing_map()
    base = D.fresh_id()
    copied = _rotate(slid, m.band_other)
    twin_of = {cid: base + t for t, cid in enumerate(copied)}
    # A twin lies on the moving circle i and on its original's transverse circle.
    crossings = D.crossings + tuple(
        replace(cmap[cid], id=twin_of[cid], **{m.circle: i}) for cid in copied
    )

    def beside(cid):
        # The copy runs parallel to the slid circle, so on the transverse
        # circle the twin precedes its original at a positive crossing and
        # follows it at a negative one.
        if cid not in twin_of:
            return (cid,)
        return (twin_of[cid], cid) if cmap[cid].sign == 1 else (cid, twin_of[cid])

    band = tuple(twin_of[cid] for cid in copied)
    orders[f] = tuple(
        _insert(o, m.band_self, band) if c == i else o for c, o in enumerate(orders[f])
    )
    orders[1 - f] = tuple(tuple(x for cid in o for x in beside(cid)) for o in orders[1 - f])
    upper, lower = orders
    colors = D.colors
    if D.colored and m.circle == "upper":
        # The slid copy keeps color a_i^-1 a_j; the moving circle keeps a_i.
        ai, aj = D.colors[i], D.colors[j]
        new_aj = D.pi.mul[D.pi.inverse[ai]][aj]
        colors = tuple(
            new_aj if t == j else a for t, a in enumerate(D.colors)
        )
    return Diagram(g, crossings, upper, lower, colors, D.pi)


_MOVES = {
    "relabel": _apply_relabel,
    "reverse": _apply_reverse,
    "two_point_insert": _apply_two_point_insert,
    "two_point_remove": _apply_two_point_remove,
    "stabilize": _apply_stabilize,
    "destabilize": _apply_destabilize,
    "slide": _apply_slide,
}


def apply_move(D: Diagram, m: MoveSpec) -> Diagram:
    try:
        handler = _MOVES[m.kind]
    except KeyError:
        raise MoveError(f"unknown move kind {m.kind!r}") from None
    result = handler(D, m)
    # Insertion/band positions are free parameters; combinations that force
    # extra genus do not correspond to a move on the declared surface.
    demanded, _ = euler_certificate(result)
    if demanded > result.genus:
        raise MoveError(
            f"{m.kind} parameters are not realizable on a genus-"
            f"{result.genus} surface (certificate demands {demanded})"
        )
    return result
