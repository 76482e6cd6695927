import ast
import functools
import itertools
import pathlib
import random
from dataclasses import replace

import pytest

from hopfk import hopf, invariant
from hopfk.fuzz import random_diagram, random_move_walk
from hopfk.groups import (
    GroupHom,
    cyclic_group,
    group_from_table,
    mod_hom,
    sign_hom_s3,
    symmetric_group,
    trivial_hom,
    validate_hom,
)
from hopfk.heegaard import (
    Diagram,
    MoveSpec,
    apply_move,
    connected_sum,
    enumerate_colorings,
    extract_words,
    lens_diagram,
    mirror_diagram,
    validate_diagram,
)
from hopfk.homcount import LiftCountQuery, count_lifts
from hopfk.hopf import (
    build_function_hopf,
    build_kac_paljutkin,
    conjugation_crossing,
    dual_variants,
    validate_hopf,
)
from hopfk.invariant import contract_invariant, diagram_nodes
from hopfk.scalars import Scalar
from hopfk.tensors import EntryCapExceeded, contract_network, plan_network


def s3_diagram(z2):
    return lens_diagram(1).with_colors(z2, (0,))


def test_sphere(kp, z2):
    D = lens_diagram(1).with_colors(z2, (0,))
    Z, K = contract_invariant(kp, D)
    assert Z == Scalar(4)
    assert K == Scalar(1)


def test_rp3(kp, z2):
    D = lens_diagram(2)
    Z0, K0 = contract_invariant(kp, D.with_colors(z2, (0,)))
    Z1, K1 = contract_invariant(kp, D.with_colors(z2, (1,)))
    assert K0 == Scalar(4)
    assert K1 == Scalar(2)


def test_lens_table_pins(kp, z2):
    # trivially colored: 4 for every even-crossing lens space
    # nontrivially colored: 2, 0, 2, 4 repeating in the half-length n
    want1 = {1: 2, 2: 0, 3: 2, 4: 4, 5: 2, 6: 0}
    for n, expect in want1.items():
        D = lens_diagram(2 * n)
        _, K0 = contract_invariant(kp, D.with_colors(z2, (0,)))
        _, K1 = contract_invariant(kp, D.with_colors(z2, (1,)))
        assert K0 == Scalar(4), n
        assert K1 == Scalar(expect), n


def test_odd_lens_trivial_color(kp, z2):
    for p in (1, 3, 5):
        _, K = contract_invariant(kp, lens_diagram(p).with_colors(z2, (0,)))
        assert K == Scalar(1), p


def test_fs3_lens2(fs3, z2):
    D = lens_diagram(2)
    _, K0 = contract_invariant(fs3, D.with_colors(z2, (0,)))
    _, K1 = contract_invariant(fs3, D.with_colors(z2, (1,)))
    assert K0 == Scalar(1)
    assert K1 == Scalar(3)


def test_zero_crossing_circles(fs3, z2):
    # a stabilized sphere has a handle whose circles meet one crossing,
    # plus the invariant must survive genuinely crossing-free handles
    D = lens_diagram(1).with_colors(z2, (0,))
    E = apply_move(D, MoveSpec("stabilize"))
    Z, K = contract_invariant(fs3, E)
    assert K == Scalar(1)


def test_crossing_free_circles(kp, z2, s3):
    # S^1 x S^2: one handle whose circles meet nothing, so the upper circle
    # gives trace . unit and the lower one cotrace . counit
    D = Diagram(1, (), ((),), ((),))
    E = D.with_colors(z2, (0,))
    assert contract_invariant(kp, E) == (Scalar(16), Scalar(4))
    for phi, K in ((sign_hom_s3(), 3), (trivial_hom(s3), 6)):
        E = D.with_colors(phi.target, (0,))
        assert contract_invariant(build_function_hopf(phi), E)[1] == Scalar(K)
        assert count_lifts(LiftCountQuery(extract_words(E), (0,), phi)) == K
    # next to a handle with crossings
    S = connected_sum(lens_diagram(4), D)
    for colors in enumerate_colorings(S, z2):
        K = contract_invariant(kp, S.with_colors(z2, colors))[1]
        assert K == Scalar(16 if colors[0] == 0 else 0), colors


def test_requires_colors(kp):
    with pytest.raises(ValueError):
        contract_invariant(kp, lens_diagram(2))


def test_requires_the_algebras_group(kp, z2):
    # Colors over another group: Z/3 passes validate_diagram on L(3) but is
    # not kp's Z/2, and 2 in Z/4 names no component of kp.
    for D in (lens_diagram(3).with_colors(cyclic_group(3), (1,)),
              lens_diagram(4).with_colors(cyclic_group(4), (2,))):
        with pytest.raises(ValueError, match="colored over the algebra's group"):
            contract_invariant(kp, D)
    # An equal group built separately is the same group.
    assert z2 is not kp.pi and z2 == kp.pi
    D = lens_diagram(2)
    for a in (0, 1):
        ours = contract_invariant(kp, D.with_colors(kp.pi, (a,)))
        assert contract_invariant(kp, D.with_colors(z2, (a,))) == ours


def test_rejects_invalid_coloring(kp, z2):
    D = lens_diagram(3).with_colors(z2, (1,))
    with pytest.raises(ValueError, match="invalid diagram: color condition fails on lower circle 0"):
        contract_invariant(kp, D)


def test_order_independence(kp, z2, scan_network, contraction_log):
    D = connected_sum(lens_diagram(2), lens_diagram(4)).with_colors(z2, (1, 1))
    # the mirror's negative crossings add antipode nodes to the random order;
    # warm, each network replays the plan cached by an earlier call
    replans = []
    for E, warm in itertools.product((D, mirror_diagram(D)), (False, True)):
        nodes = diagram_nodes(kp, E)
        plan_network.cache_clear()
        if warm:
            contract_network(nodes)
        base, plan = contraction_log(contract_network, nodes)
        assert plan_network.cache_info().hits == int(warm)
        assert base.as_scalar() == contract_invariant(kp, E)[0]
        for seed in range(5):
            pick = random.Random(seed).choice
            got, log = contraction_log(functools.partial(scan_network, pick=pick), nodes)
            assert got == base
            replans.append(log != plan)
    assert any(replans)


def test_rotation_and_relabel_independence(kp, z2):
    D = lens_diagram(4).with_colors(z2, (1,))
    base = contract_invariant(kp, D)[1]
    for r in range(1, 4):
        E = apply_move(D, MoveSpec("relabel", rotations=((r,), (0,))))
        assert contract_invariant(kp, E)[1] == base
        E = apply_move(D, MoveSpec("relabel", rotations=((0,), (r,))))
        assert contract_invariant(kp, E)[1] == base


def test_move_invariance_sample(kp, z2):
    rng = random.Random(11)
    for _ in range(8):
        D = random_diagram(rng, genus_max=2, max_crossings=6)
        D = D.with_colors(z2, rng.choice(enumerate_colorings(D, z2)))
        base = contract_invariant(kp, D)[1]
        for m, E in random_move_walk(rng, D, steps=5, max_crossings=16):
            assert contract_invariant(kp, E)[1] == base, m
            D = E


def test_connected_sum_multiplicative(kp, z2):
    rng = random.Random(7)
    for _ in range(10):
        D1 = random_diagram(rng, genus_max=2, max_crossings=5)
        D2 = random_diagram(rng, genus_max=1, max_crossings=5)
        D1 = D1.with_colors(z2, rng.choice(enumerate_colorings(D1, z2)))
        D2 = D2.with_colors(z2, rng.choice(enumerate_colorings(D2, z2)))
        K1 = contract_invariant(kp, D1)[1]
        K2 = contract_invariant(kp, D2)[1]
        K = contract_invariant(kp, connected_sum(D1, D2))[1]
        assert K == K1 * K2


def test_mirror_and_duals_agree(kp, z2):
    op = dual_variants(kp, "opposite")
    cop = dual_variants(kp, "coopposite")
    rng = random.Random(13)
    for _ in range(6):
        D = random_diagram(rng, genus_max=2, max_crossings=6)
        D = D.with_colors(z2, rng.choice(enumerate_colorings(D, z2)))
        K = contract_invariant(kp, mirror_diagram(D))[1]
        assert contract_invariant(op, D)[1] == K
        assert contract_invariant(cop, D)[1] == K


def test_total_algebra_sums_the_flat_bundles(kp, fs3):
    # The pi = 1 case: K_H summed over the colorings of D is Kuperberg's
    # invariant of the total algebra, D colored by the trivial group.
    rng = random.Random(5)
    diagrams = [lens_diagram(p) for p in range(1, 7)] + [mirror_diagram(lens_diagram(4))]
    diagrams += [random_diagram(rng, genus_max=2, max_crossings=6) for _ in range(10)]
    assert kp.total[0].dim == (8,)
    for H in (kp, fs3, build_function_hopf(mod_hom(4, 2))):
        Ht, _ = H.total
        assert validate_hopf(Ht).passed
        for D in diagrams:
            colored = (contract_invariant(H, D.with_colors(H.pi, c))[1]
                       for c in enumerate_colorings(D, H.pi))
            trivial = D.with_colors(Ht.pi, (0,) * D.genus)
            assert sum(colored, Scalar(0)) == contract_invariant(Ht, trivial)[1], D


def test_unit_shortcut_keeps_every_answer(kp, z2, fresh_units):
    # Differential oracle: kp with each ONE swapped for an equal fresh
    # Scalar(1), which contract multiplies by, gives the same Z and K.
    slow = fresh_units(kp)
    rng = random.Random(15)
    diagrams = [lens_diagram(p) for p in range(1, 21)]
    diagrams += [random_diagram(rng, genus_max=2, max_crossings=6) for _ in range(20)]
    for D in diagrams:
        for colors in enumerate_colorings(D, z2):
            colored = D.with_colors(z2, colors)
            assert contract_invariant(slow, colored) == contract_invariant(kp, colored), colored


def test_integral_data_is_derived_once_per_algebra(z2, monkeypatch):
    # The trace and cotrace are properties of the algebra: many invariants
    # on one algebra object derive them once, one network per trace T_a and
    # one for C.  The invariant contracts through its own binding of
    # contract_network, so hopf's binding counts only the derivation.
    H = build_kac_paljutkin()
    derived = []
    contract = hopf.contract_network

    def counted(nodes):
        derived.append(nodes)
        return contract(nodes)

    monkeypatch.setattr(hopf, "contract_network", counted)
    rng = random.Random(17)
    diagrams = [lens_diagram(p) for p in range(1, 6)]
    diagrams += [random_diagram(rng, genus_max=2, max_crossings=6) for _ in range(5)]
    calls = 0
    for D in diagrams:
        for colors in enumerate_colorings(D, z2):
            contract_invariant(H, D.with_colors(z2, colors))
            calls += 1
    assert calls > 10 and len(derived) == H.pi.order + 1


def test_diagram_nodes_relabel_the_stored_tensors(kp, fs3, z2, is_zero_count):
    # Every node, the trace and cotrace included, shares the entries of a
    # stored tensor, so once the algebra's data is derived, building a
    # network tests no entry for zero.
    rng = random.Random(19)
    diagrams = [connected_sum(lens_diagram(2), mirror_diagram(lens_diagram(3)))]
    diagrams += [random_diagram(rng, genus_max=3, max_crossings=8) for _ in range(5)]
    for H in (kp, fs3):
        integral = hopf.derive_integral_data(H)
        stored = {id(t.data) for t in (*integral.trace, integral.cotrace)}
        for D in diagrams:
            for colors in enumerate_colorings(D, z2):
                nodes, calls = is_zero_count(diagram_nodes, H, D.with_colors(z2, colors))
                assert calls == 0
                shared = [n for n in nodes if id(n.data) in stored]
                assert len(shared) == 2 * D.genus


def test_diagram_nodes_build_one_crossing_map(kp, z2, monkeypatch):
    # one crossing map per diagram, not one per lower circle
    D = connected_sum(lens_diagram(2), lens_diagram(2)).with_colors(z2, (1, 1))
    calls = []
    crossing_map = Diagram.crossing_map
    monkeypatch.setattr(Diagram, "crossing_map", lambda self: calls.append(1) or crossing_map(self))
    diagram_nodes(kp, D)
    assert len(calls) == 1


def test_diagram_nodes_come_in_a_fixed_order(s3):
    # The plan cache and every contraction count read the node list, so its
    # order is pinned: per upper circle the product chain then the trace,
    # per lower circle the cotrace, the coproduct chain, then one antipode
    # per negative letter.  Over S3 a negative letter's grading a^-1 is not
    # a, and the third summand has circles without crossings.
    idhom = GroupHom(s3, s3, tuple(range(s3.order)))
    H = build_function_hopf(idhom)
    empty = Diagram(1, (), ((),), ((),))
    D = connected_sum(connected_sum(lens_diagram(2), mirror_diagram(lens_diagram(3))), empty)
    a, b, e = (s3.names.index(name) for name in ("(1 2)", "(1 2 3)", "e"))
    c = s3.inverse[b]
    E = D.with_colors(s3, (a, b, e))
    report = validate_diagram(E)
    assert report.passed and report.warnings
    integral = hopf.derive_integral_data(H)
    T, C = integral.trace, integral.cotrace
    x, s = (lambda k: ("x", k)), (lambda k: ("s", k))
    expected = [
        (H.mul[a], (x(0), x(1), ("u", 0, 1))), (T[a], (("u", 0, 1),)),
        (H.mul[b], (x(2), x(3), ("u", 1, 1))), (H.mul[b], (("u", 1, 1), x(4), ("u", 1, 2))),
        (T[b], (("u", 1, 2),)),
        (H.unit[e], (("u", 2, 0),)), (T[e], (("u", 2, 0),)),
        (C, (("d", 0, 0),)), (H.delta[(a, a)], (("d", 0, 0), x(0), x(1))),
        (C, (("d", 1, 0),)), (H.delta[(c, b)], (("d", 1, 0), s(2), ("d", 1, 1))),
        (H.delta[(c, c)], (("d", 1, 1), s(3), s(4))),
        (H.antipode[c], (s(2), x(2))), (H.antipode[c], (s(3), x(3))), (H.antipode[c], (s(4), x(4))),
        (C, (("d", 2, 0),)), (H.counit, (("d", 2, 0),)),
    ]
    nodes = diagram_nodes(H, E)
    assert len(nodes) == 17
    assert [n.labels for n in nodes] == [labels for _, labels in expected]
    assert all(n.data is stored.data for n, (stored, _) in zip(nodes, expected))
    assert contract_invariant(H, E)[1] == Scalar(1)
    assert count_lifts(LiftCountQuery(extract_words(E), E.colors, idhom)) == 1


def test_invariant_names_no_stored_leg():
    # the network is built by position: invariant.py holds no leg label of
    # hopf.LAYOUT, so only hopf.py knows the stored names
    stored = {label for labels, _, _ in hopf.LAYOUT.values() for label in labels}
    source = pathlib.Path(invariant.__file__).read_text()
    assert not [node.value for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Constant) and node.value in stored]


def test_vanishing_on_empty_support(z2):
    # grading hom with an empty odd fiber: odd-colored diagrams give zero
    phi = GroupHom(cyclic_group(3), cyclic_group(2), (0, 0, 0))
    H = build_function_hopf(phi)
    D = lens_diagram(2).with_colors(z2, (1,))
    Z, K = contract_invariant(H, D)
    assert K == Scalar(0)


def test_conjugate_colors_s3():
    s3 = symmetric_group(3)
    idhom = GroupHom(s3, s3, tuple(range(6)))
    H = replace(
        build_function_hopf(idhom), crossing=conjugation_crossing(idhom)
    )
    D = connected_sum(lens_diagram(2), lens_diagram(2))
    a = s3.names.index("(1 2)")
    b = s3.names.index("(1 3)")
    g = s3.names.index("(1 2 3)")
    colors = (a, b)
    conj = (s3.conjugate(g, a), s3.conjugate(g, b))
    assert conj != colors
    K1 = contract_invariant(H, D.with_colors(s3, colors))[1]
    K2 = contract_invariant(H, D.with_colors(s3, conj))[1]
    assert K1 == K2
    # cross-check against the lift count oracle
    q = LiftCountQuery(extract_words(D), colors, idhom)
    assert K1 == Scalar(count_lifts(q))


def test_entry_cap_enforced(kp, z2, monkeypatch):
    D = lens_diagram(6).with_colors(z2, (1,))
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "3")
    with pytest.raises(EntryCapExceeded):
        contract_invariant(kp, D)


def lens_k(p, color):
    """Closed form of K_kp(L(p)) colored by color in Z/2."""
    if p % 2:
        return 1
    if color == 0:
        return 4
    half = p // 2
    if half % 2:
        return 2
    return 0 if half % 4 == 2 else 4


def table_group(elements, mul):
    """The group of ``elements`` under ``mul``, named by their strs."""
    elements = list(elements)
    where = {x: i for i, x in enumerate(elements)}
    return group_from_table([str(x) for x in elements], [[where[mul(x, y)] for y in elements] for x in elements])


def quaternion(x, y):
    """The product of two quaternions given as (1, i, j, k) coefficients."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def test_kp_is_not_a_function_algebra_on_lens_spaces(kp, z2):
    # The invariant is not trivial: on the flat Z/2-bundles of L(p), p <= 16,
    # kp's table is not that of any F(G)^phi with kp's dim H_1 = 4, that is
    # |G| = 8 and phi onto Z/2.  The 17 such phi give 7 distinct tables.
    units = [tuple(s if i == k else 0 for i in range(4)) for k in range(4) for s in (1, -1)]
    groups = {
        "Z/8": table_group(range(8), lambda x, y: (x + y) % 8),
        "Z/2xZ/4": table_group(itertools.product(range(2), range(4)),
                               lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4)),
        "(Z/2)^3": table_group(itertools.product(range(2), repeat=3),
                               lambda x, y: tuple((a + b) % 2 for a, b in zip(x, y))),
        # r^k s^e as (k, e)
        "D4": table_group(itertools.product(range(4), range(2)),
                          lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2)),
        "Q8": table_group(units, quaternion),
    }
    diagrams = [lens_diagram(p) for p in range(1, 17)]

    def table(H):
        return tuple(contract_invariant(H, D.with_colors(z2, colors))[1]
                     for D in diagrams for colors in enumerate_colorings(D, z2))

    onto = {}
    for name, G in groups.items():
        assert G.order == 8 and G.is_abelian() == (name not in ("D4", "Q8"))
        homs = [GroupHom(G, z2, image) for image in itertools.product(range(2), repeat=8)]
        onto[name] = [table(build_function_hopf(phi)) for phi in homs if 1 in phi.image and validate_hom(phi).passed]
    assert {name: len(tables) for name, tables in onto.items()} == {"Z/8": 1, "Z/2xZ/4": 3, "(Z/2)^3": 7, "D4": 3, "Q8": 3}
    tables = {t for ts in onto.values() for t in ts}
    assert len(tables) == 7
    assert table(kp) not in tables


def test_large_lens_closed_form(kp, z2):
    # a few thousand chain nodes per network: the planner must not rescan
    # every pair at every step
    for p in range(509, 513):
        D = lens_diagram(p)
        for colors in enumerate_colorings(D, z2):
            K = contract_invariant(kp, D.with_colors(z2, colors))[1]
            assert K == Scalar(lens_k(p, colors[0])), (p, colors)
