import random
from dataclasses import replace

import pytest

from hopfk.fuzz import random_diagram, random_move_walk
from hopfk.groups import GroupHom, cyclic_group, format_word, symmetric_group
from hopfk import heegaard
from hopfk.heegaard import (
    _SLOTS_NEG,
    _SLOTS_POS,
    Crossing,
    Diagram,
    MoveError,
    MoveSpec,
    apply_move,
    cancelling_pairs,
    connected_sum,
    enumerate_colorings,
    euler_certificate,
    extract_words,
    lens_diagram,
    mirror_diagram,
    validate_diagram,
)
from hopfk.homcount import LiftCountQuery, count_lifts
from hopfk.hopf import build_function_hopf
from hopfk.invariant import contract_invariant
from hopfk.scalars import Scalar


def free_reduce(w):
    """The word with every adjacent pair x x^-1 cancelled."""
    out = []
    for k, e in w:
        if out and out[-1] == (k, -e):
            out.pop()
        else:
            out.append((k, e))
    return tuple(out)


def test_lens_family():
    with pytest.raises(ValueError):
        lens_diagram(0)
    for p in (1, 2, 3, 4):
        D = lens_diagram(p)
        report = validate_diagram(D)
        assert report.passed and not report.warnings
        (w,) = extract_words(D)
        assert format_word(w) == ".".join(["x1"] * p)
        assert w == ((0, 1),) * p
        assert euler_certificate(D) == (1, 1)


def test_color_condition(z2):
    assert validate_diagram(lens_diagram(2).with_colors(z2, (1,))).passed
    report = validate_diagram(lens_diagram(3).with_colors(z2, (1,)))
    assert not report.passed
    assert any("color condition" in v for v in report.violations)


def test_malformed_diagrams_rejected():
    D = lens_diagram(2)
    # same crossing in two upper orders
    bad = Diagram(2, D.crossings + (Crossing(9, 1, 1, 1),),
                  (D.upper_orders[0], D.upper_orders[0] + (9,)),
                  (D.lower_orders[0], (9,)))
    assert not validate_diagram(bad).passed
    # crossing missing from the orders
    bad = Diagram(1, D.crossings, ((0,),), ((0,),))
    assert not validate_diagram(bad).passed
    # bad sign
    bad = Diagram(1, (Crossing(0, 0, 0, 2),), ((0,),), ((0,),))
    assert not validate_diagram(bad).passed
    # color vector too short
    bad = connected_sum(lens_diagram(1), lens_diagram(1))
    bad = Diagram(bad.genus, bad.crossings, bad.upper_orders, bad.lower_orders,
                  (0,), cyclic_group(2))
    assert not validate_diagram(bad).passed


@pytest.mark.parametrize("diagram, violations", [
    (lambda z2: Diagram(0, (), (), ()), ["genus must be positive"]),
    (lambda z2: replace(lens_diagram(2), genus=2),
     ["expected 2 upper and 2 lower circles, got 1 and 1"]),
    (lambda z2: Diagram(1, (Crossing(0, 0, 0, 1), Crossing(0, 0, 0, -1)), ((0,),), ((0,),)),
     ["duplicate crossing ids"]),
    (lambda z2: Diagram(1, (Crossing(0, 1, 0, 1), Crossing(1, 0, -1, 1)), ((0, 1),), ((0, 1),)),
     ["crossing 0 references upper circle 1", "crossing 1 references lower circle -1"]),
    (lambda z2: Diagram(1, (Crossing(0, 0, 0, 1),), ((0, 7),), ((0,),)),
     ["upper order references unknown crossing 7"]),
    (lambda z2: Diagram(2, (Crossing(0, 0, 0, 1), Crossing(1, 1, 1, 1)),
                        ((0,), (1,)), ((1,), (0,))),
     ["crossing 1 listed on lower circle 0 but declares 1",
      "crossing 0 listed on lower circle 1 but declares 0"]),
    (lambda z2: lens_diagram(2).with_colors(z2, (2,)), ["color of upper circle 0 out of range"]),
], ids=["genus", "circle-count", "duplicate-id", "circle-range", "unknown-crossing",
        "wrong-circle", "color-range"])
def test_validate_diagram_violations(z2, diagram, violations):
    report = validate_diagram(diagram(z2))
    assert report.violations == violations


def test_euler_flags_overcrowded_torus():
    # two crossings interleaved on one handle pair demand genus 2 when the
    # traversal orders disagree in a non-planar pattern
    D = lens_diagram(2)
    twisted = Diagram(
        1,
        (Crossing(0, 0, 0, 1), Crossing(1, 0, 0, -1)),
        ((0, 1),),
        ((0, 1),),
    )
    report = validate_diagram(twisted)
    # whatever the verdict, the certificate must be computed consistently
    demanded, comps = euler_certificate(twisted)
    assert comps == 1
    assert report.passed == (demanded <= 1)


@pytest.mark.parametrize("colors, pi, violation", [
    ((0,), None, "colored diagram carries no group"),
    (("0",), cyclic_group(2), "color of upper circle 0 out of range"),
], ids=["no-group", "string-color"])
def test_bad_colors_are_reported_not_raised(colors, pi, violation):
    report = validate_diagram(replace(lens_diagram(2), colors=colors, pi=pi))
    assert not report.passed and report.violations == [violation]


def test_colorings(z2, s3):
    assert enumerate_colorings(lens_diagram(2), z2) == [(0,), (1,)]
    assert enumerate_colorings(lens_diagram(3), z2) == [(0,)]
    assert enumerate_colorings(lens_diagram(1), s3) == [(s3.identity,)]
    # lexicographic order over higher genus
    D = connected_sum(lens_diagram(2), lens_diagram(2))
    assert enumerate_colorings(D, z2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_connected_sum_words(z2):
    D = connected_sum(lens_diagram(2), lens_diagram(3))
    w1, w2 = extract_words(D)
    assert format_word(w1) == "x1.x1" and format_word(w2) == "x2.x2.x2"
    assert validate_diagram(D).passed
    C = connected_sum(
        lens_diagram(1).with_colors(z2, (0,)),
        lens_diagram(2).with_colors(z2, (1,)),
    )
    assert C.colors == (0, 1)
    assert validate_diagram(C).passed
    with pytest.raises(ValueError):
        connected_sum(lens_diagram(1), lens_diagram(1).with_colors(z2, (0,)))


def test_connected_sum_refuses_two_coloring_groups(z2):
    z3 = cyclic_group(3)
    with pytest.raises(ValueError, match="^colored summands must share the coloring group$"):
        connected_sum(lens_diagram(2).with_colors(z2, (1,)), lens_diagram(3).with_colors(z3, (1,)))


def test_mirror(z2):
    D = lens_diagram(3).with_colors(z2, (0,))
    M = mirror_diagram(D)
    assert all(c.sign == -1 for c in M.crossings)
    assert mirror_diagram(M) == D
    assert M.genus == D.genus and len(M.crossings) == len(D.crossings)
    assert validate_diagram(M).passed


def test_mirror_inverts_every_color(s3):
    # Flipping every sign inverts every letter of every relator, so under a
    # non-abelian group a mirror that kept its colors could break the color
    # condition; inverting each color keeps it, and keeps K of F(id-S3).
    idhom = GroupHom(s3, s3, tuple(range(s3.order)))
    H = build_function_hopf(idhom)
    rng = random.Random(1)
    mirrored = 0
    for _ in range(60):
        D = random_diagram(rng, 3, 10)
        for colors in enumerate_colorings(D, s3):
            E = D.with_colors(s3, colors)
            M = mirror_diagram(E)
            assert validate_diagram(M).passed, (E, validate_diagram(M).violations)
            assert M.colors == tuple(s3.inverse[a] for a in colors)
            assert mirror_diagram(M) == E
            K = contract_invariant(H, E)[1]
            assert contract_invariant(H, M)[1] == K
            assert Scalar(count_lifts(LiftCountQuery(extract_words(M), M.colors, idhom))) == K
            mirrored += 1
    assert mirrored > 300


# -- moves -------------------------------------------------------------------


def test_reverse_upper(z2):
    D = lens_diagram(2).with_colors(z2, (1,))
    E = apply_move(D, MoveSpec("reverse", circle="upper", index=0))
    assert E.colors == (1,)  # self-inverse color
    (w,) = extract_words(E)
    assert format_word(w) == "x1^-1.x1^-1"
    assert validate_diagram(E).passed


def test_reverse_lower(z2):
    D = lens_diagram(2).with_colors(z2, (1,))
    E = apply_move(D, MoveSpec("reverse", circle="lower", index=0))
    (w,) = extract_words(E)
    assert format_word(w) == "x1^-1.x1^-1"
    assert E.colors == (1,)
    assert validate_diagram(E).passed


def test_stabilize_destabilize(z2):
    D = lens_diagram(2).with_colors(z2, (1,))
    E = apply_move(D, MoveSpec("stabilize"))
    assert E.genus == 2
    assert E.colors == (1, 0)
    words = extract_words(E)
    assert format_word(words[1]) == "x2"
    assert validate_diagram(E).passed
    back = apply_move(E, MoveSpec("destabilize", index=1))
    assert back == D
    with pytest.raises(MoveError):
        apply_move(D, MoveSpec("destabilize", index=0))  # genus 1
    with pytest.raises(MoveError):
        apply_move(E, MoveSpec("destabilize", index=0))  # not a 1-crossing handle


def test_two_point_insert_remove(z2):
    D = lens_diagram(2).with_colors(z2, (1,))
    m = MoveSpec("two_point_insert", upper=0, lower=0, pos_upper=1, pos_lower=1)
    E = apply_move(D, m)
    assert len(E.crossings) == 4
    (w,) = extract_words(E)
    assert format_word(free_reduce(w)) == "x1.x1"
    assert validate_diagram(E).passed
    pairs = cancelling_pairs(E)
    assert pairs
    back = apply_move(E, MoveSpec("two_point_remove", pair=pairs[0]))
    assert back == D
    with pytest.raises(MoveError):
        apply_move(D, MoveSpec("two_point_remove", pair=(0, 1)))


def test_two_point_colorings_stable(z2):
    D = lens_diagram(3)
    before = enumerate_colorings(D, z2)
    E = apply_move(D, MoveSpec("two_point_insert", upper=0, lower=0,
                               pos_upper=2, pos_lower=2, sign=-1))
    assert enumerate_colorings(E, z2) == before


def test_relabel(z2):
    D = connected_sum(
        lens_diagram(2).with_colors(z2, (1,)),
        lens_diagram(4).with_colors(z2, (0,)),
    )
    E = apply_move(
        D,
        MoveSpec(
            "relabel",
            upper_perm=(1, 0),
            lower_perm=(1, 0),
            rotations=((1, 2), (0, 3)),
        ),
    )
    assert E.colors == (0, 1)
    assert validate_diagram(E).passed
    w1, w2 = extract_words(E)
    assert format_word(w1).startswith("x1") and format_word(w2).startswith("x2")
    with pytest.raises(MoveError):
        apply_move(D, MoveSpec("relabel", upper_perm=(0, 0)))


def test_relabel_needs_a_rotation_per_circle():
    D = connected_sum(lens_diagram(2), lens_diagram(3))
    for rotations in (((1,), (1,)), ((0, 0),), ((0, 0), (0, 0), (0, 0))):
        with pytest.raises(MoveError, match="one offset per circle"):
            apply_move(D, MoveSpec("relabel", upper_perm=(1, 0), lower_perm=(0, 1),
                                   rotations=rotations))


def test_slide_upper_color_rule():
    z4 = cyclic_group(4)
    D = connected_sum(
        lens_diagram(1).with_colors(z4, (0,)),
        lens_diagram(1).with_colors(z4, (0,)),
    )
    # recolor by hand to (a, b) satisfying the (trivial) words x1, x2 — only
    # identity colors are valid here, so check the rule on the word level
    E = apply_move(D, MoveSpec("slide", circle="upper", index=0, other=1))
    words = [format_word(free_reduce(w)) for w in extract_words(E)]
    assert words[0] == "x1"
    assert words[1] in ("x1.x2", "x2.x1")
    assert validate_diagram(E).passed


def test_slide_lower_inserts_relator_copy(z2):
    D = connected_sum(
        lens_diagram(2).with_colors(z2, (1,)),
        lens_diagram(2).with_colors(z2, (1,)),
    )
    E = apply_move(D, MoveSpec("slide", circle="lower", index=0, other=1))
    assert E.colors == D.colors
    w1, w2 = extract_words(E)
    assert format_word(w2) == "x2.x2"
    assert len(w1) == 4
    assert validate_diagram(E).passed


def test_slide_errors(z2):
    D = lens_diagram(2).with_colors(z2, (1,))
    with pytest.raises(MoveError):
        apply_move(D, MoveSpec("slide", circle="upper", index=0, other=0))
    with pytest.raises(MoveError):
        apply_move(D, MoveSpec("unknown_kind"))


@pytest.mark.parametrize("move, message", [
    (MoveSpec("reverse", circle="middle"), "unknown circle family 'middle'"),
    (MoveSpec("reverse", circle="lower", index=2), "no lower circle 2"),
    (MoveSpec("two_point_insert", lower=2), "two-point move references missing circles"),
    (MoveSpec("two_point_insert", sign=0), "two-point sign must be +-1"),
    (MoveSpec("two_point_remove"), "two_point_remove needs the crossing pair"),
    (MoveSpec("stabilize", sign=0), "stabilize sign must be +-1"),
    (MoveSpec("destabilize", index=2), "no upper circle 2"),
    (MoveSpec("destabilize", index=1), "handle upper circle is not colored by the identity"),
    (MoveSpec("slide", index=0, other=2), "slide references missing circles"),
], ids=["family", "reverse-missing", "insert-missing", "insert-sign", "remove-no-pair",
        "stabilize-sign", "destabilize-missing", "destabilize-color", "slide-missing"])
def test_move_errors(z2, move, message):
    # The second summand is a standard handle, but colored 1, not the identity.
    D = connected_sum(lens_diagram(2).with_colors(z2, (1,)), lens_diagram(1).with_colors(z2, (1,)))
    with pytest.raises(MoveError) as exc:
        apply_move(D, move)
    assert str(exc.value) == message


def test_moves_always_yield_valid_diagrams(z2):
    rng = random.Random(5)
    for _ in range(20):
        D = random_diagram(rng, genus_max=2, max_crossings=8)
        colorings = enumerate_colorings(D, z2)
        D = D.with_colors(z2, rng.choice(colorings))
        for m, E in random_move_walk(rng, D, steps=6, max_crossings=20):
            report = validate_diagram(E)
            assert report.passed, (m, report.violations)
            D = E


def test_certificate_adds_over_components():
    # A connected sum adds genus and components; mirroring changes neither.
    # Random diagrams often have several components, which no other test
    # reaches.
    rng = random.Random(11)
    counts = set()
    for _ in range(1500):
        A, B = (random_diagram(rng, genus_max=3, max_crossings=12) for _ in range(2))
        (ga, ca), (gb, cb) = euler_certificate(A), euler_certificate(B)
        assert euler_certificate(connected_sum(A, B)) == (ga + gb, ca + cb)
        assert euler_certificate(mirror_diagram(A)) == (ga, ca)
        counts.add(ca)
    assert {2, 3} <= counts


# -- the Euler certificate against the dict-of-tuples count it replaced -------------


def reference_certificate(D):
    """``euler_certificate`` as it was before the darts were numbered: theta
    and rho map darts (crossing id, "u" or "l", "in" or "out") to darts,
    the union-find and the visited darts are a dict and a set."""
    theta = {}
    for kind, orders in zip("ul", D.families()):
        for order in orders:
            for cid, nxt in zip(order, order[1:] + order[:1]):
                theta[(cid, kind, "out")] = (nxt, kind, "in")
                theta[(nxt, kind, "in")] = (cid, kind, "out")
    rho = {}
    for c in D.crossings:
        slots = _SLOTS_POS if c.sign == 1 else _SLOTS_NEG
        for t, (kind, way) in enumerate(slots):
            nk, nw = slots[(t + 1) % 4]
            rho[(c.id, kind, way)] = (c.id, nk, nw)
    parent = {c.id: c.id for c in D.crossings}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for orders in D.families():
        for order in orders:
            for a, b in zip(order, order[1:]):
                parent[find(a)] = find(b)
    components = len({find(c.id) for c in D.crossings})
    seen = set()
    faces = 0
    for start in theta:
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = rho[theta[d]]
    chi = len(D.crossings) - len(theta) // 2 + faces
    return components - chi // 2, components


def test_certificate_matches_the_dict_reference(monkeypatch):
    # Every diagram apply_move certifies during the seeded walks, the
    # candidates it refuses too, is checked through a wrapper.
    checked = []
    certificate = heegaard.euler_certificate

    def compared(D):
        got = certificate(D)
        assert got == reference_certificate(D), D
        checked.append(got)
        return got

    monkeypatch.setattr(heegaard, "euler_certificate", compared)
    rng = random.Random(29)
    for _ in range(250):
        D = random_diagram(rng, genus_max=4, max_crossings=12)
        compared(D)
        random_move_walk(rng, D, steps=8, max_crossings=20)
    for p in range(1, 101):
        L = lens_diagram(p)
        compared(L)
        compared(mirror_diagram(L))
        compared(connected_sum(L, lens_diagram(p % 7 + 1)))
        compared(mirror_diagram(connected_sum(random_diagram(rng, genus_max=3), L)))
    twisted = Diagram(1, (Crossing(0, 0, 0, 1), Crossing(1, 0, 0, -1)), ((0, 1),), ((0, 1),))
    compared(twisted)
    # A crossing on no circle has no darts to walk but counts as a vertex
    # and a component, in both.
    for p in (1, 2, 5):
        L = lens_diagram(p)
        compared(replace(L, crossings=(Crossing(p, 0, 0, -1),) + L.crossings))
    # Refused moves demand more genus than the diagram has; several
    # components come from the random diagrams and the sums.
    assert any(g > 4 for g, _ in checked)
    assert {1, 2, 3} <= {c for _, c in checked}
    assert len(checked) > 3000
