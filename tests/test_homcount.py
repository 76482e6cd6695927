import random

import pytest

from hopfk.fuzz import random_diagram
from hopfk.groups import GroupHom, SearchSpaceExceeded, cyclic_group, symmetric_group, trivial_hom
from hopfk.heegaard import connected_sum, enumerate_colorings, extract_words, lens_diagram
from hopfk.homcount import LiftCountQuery, count_lifts
from hopfk.hopf import build_function_hopf
from hopfk.invariant import contract_invariant
from hopfk.scalars import Scalar


def query(D, colors, phi):
    return LiftCountQuery(extract_words(D), colors, phi)


def test_sphere_counts(oracle_homs):
    D = lens_diagram(1)
    for _, phi in oracle_homs:
        assert count_lifts(query(D, (phi.target.identity,), phi)) == 1


def test_rp3_sign_hom(oracle_homs):
    phi = next(p for _, p in oracle_homs if p.source.order == 6)
    D = lens_diagram(2)
    # even-colored: squares of even permutations landing at e: e, both 3-cycles
    assert count_lifts(query(D, (0,), phi)) == 1
    # odd-colored: transpositions square to e
    assert count_lifts(query(D, (1,), phi)) == 3


def test_trivial_target_counts_all_homs():
    s3 = symmetric_group(3)
    phi = trivial_hom(s3)
    D = lens_diagram(2)
    # x^2 = e has 4 solutions in S3
    assert count_lifts(query(D, (0,), phi)) == 4


def test_empty_fiber_gives_zero():
    phi = GroupHom(cyclic_group(3), cyclic_group(2), (0, 0, 0))
    D = lens_diagram(2)
    assert count_lifts(query(D, (1,), phi)) == 0


def test_agrees_with_contraction(oracle_homs):
    rng = random.Random(41)
    for _, phi in oracle_homs:
        H = build_function_hopf(phi)
        for _ in range(6):
            D = random_diagram(rng, genus_max=2, max_crossings=6)
            colorings = enumerate_colorings(D, phi.target)
            D = D.with_colors(phi.target, rng.choice(colorings))
            _, K = contract_invariant(H, D)
            n = count_lifts(query(D, D.colors, phi))
            assert K == Scalar(n), (phi.target.order, D.colors)


def test_search_space_cap():
    # 24^6 (about 1.9e8) assignments of S4 lie over the trivial coloring of
    # a genus-6 sum, more than the cap of 1e8: refused before enumerating.
    phi = trivial_hom(symmetric_group(4))
    D = lens_diagram(2)
    for _ in range(5):
        D = connected_sum(D, lens_diagram(2))
    q = LiftCountQuery(extract_words(D), (0,) * D.genus, phi)
    with pytest.raises(SearchSpaceExceeded, match="exceeds 100000000 tuples"):
        count_lifts(q)


def test_color_length_mismatch():
    phi = trivial_hom(cyclic_group(2))
    D = connected_sum(lens_diagram(2), lens_diagram(2))
    with pytest.raises(ValueError):
        count_lifts(LiftCountQuery(extract_words(D), (0,), phi))
