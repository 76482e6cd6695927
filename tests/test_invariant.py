import random
from dataclasses import replace

import pytest

from hopfk.fuzz import random_diagram, random_move_walk
from hopfk.groups import (
    GroupHom,
    cyclic_group,
    sign_hom_s3,
    symmetric_group,
    trivial_hom,
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
)
from hopfk.homcount import LiftCountQuery, count_lifts
from hopfk.hopf import build_function_hopf, conjugation_crossing, dual_variants
from hopfk.invariant import contract_invariant
from hopfk.scalars import Scalar
from hopfk.tensors import EntryCapExceeded


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


def test_rejects_invalid_coloring(kp, z2):
    D = lens_diagram(3).with_colors(z2, (1,))
    with pytest.raises(ValueError):
        contract_invariant(kp, D)


def test_order_independence(kp, z2):
    D = connected_sum(lens_diagram(2), lens_diagram(4)).with_colors(z2, (1, 1))
    # the mirror's negative crossings add antipode nodes for rng to shuffle
    for E in (D, mirror_diagram(D)):
        base = contract_invariant(kp, E)
        for seed in range(5):
            assert contract_invariant(kp, E, rng=random.Random(seed)) == base


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
    a = s3.index("(1 2)")
    b = s3.index("(1 3)")
    g = s3.index("(1 2 3)")
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
