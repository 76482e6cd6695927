"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single summary
line (visible with ``pytest -s`` or in captured output).  All randomness
is seeded so reruns are byte-identical.
"""

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from hopfk.cli import main
from hopfk.diagio import dump_diagram
from hopfk.fuzz import mutate_algebra, random_diagram, random_move_walk
from hopfk.groups import GroupHom, cyclic_group, symmetric_group, trivial_hom
from hopfk.heegaard import (
    connected_sum,
    enumerate_colorings,
    extract_words,
    lens_diagram,
    mirror_diagram,
)
from hopfk.homcount import LiftCountQuery, count_lifts
from hopfk.hopf import (
    build_function_hopf,
    build_kac_paljutkin,
    check_structural_lemmas,
    conjugation_crossing,
    derive_integral_data,
    dual_variants,
    validate_crossing,
    validate_hopf,
)
from hopfk.invariant import contract_invariant, diagram_nodes
from hopfk.scalars import Scalar


def report(num, name, ok):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def constructors():
    return [
        ("kac-paljutkin", build_kac_paljutkin()),
        ("fun-sign-s3", build_function_hopf(__import__("hopfk").sign_hom_s3())),
        ("fun-mod2-z4", build_function_hopf(__import__("hopfk").mod_hom(4, 2))),
        ("fun-trivial-z3", build_function_hopf(trivial_hom(cyclic_group(3)))),
        (
            "fun-collapse-z2",
            build_function_hopf(GroupHom(cyclic_group(2), cyclic_group(1), (0, 0))),
        ),
    ]


def expected_nontrivial_K(n):
    if n % 2 == 1:
        return 2
    return 0 if n % 4 == 2 else 4


def test_criterion_01_lens_table(kp, z2):
    ok = True
    for n in range(1, 9):
        D = lens_diagram(2 * n)
        _, K0 = contract_invariant(kp, D.with_colors(z2, (0,)))
        _, K1 = contract_invariant(kp, D.with_colors(z2, (1,)))
        ok = ok and K0 == Scalar(4) and K1 == Scalar(expected_nontrivial_K(n))
    report(1, "lens family values, both colors, n=1..8", ok)


def test_criterion_02_periodicity(kp, z2):
    ok = True
    for n in range(1, 5):
        for c in (0, 1):
            _, Ka = contract_invariant(kp, lens_diagram(2 * n).with_colors(z2, (c,)))
            _, Kb = contract_invariant(
                kp, lens_diagram(2 * (n + 4)).with_colors(z2, (c,))
            )
            ok = ok and Ka == Kb
    report(2, "lens family is 4-periodic in the half-length", ok)


def test_criterion_03_function_algebra_lens2(fs3, z2):
    D = lens_diagram(2)
    _, K0 = contract_invariant(fs3, D.with_colors(z2, (0,)))
    _, K1 = contract_invariant(fs3, D.with_colors(z2, (1,)))
    report(3, "S3 function algebra distinguishes the two colors", K0 == Scalar(1) and K1 == Scalar(3))


def test_criterion_04_oracle_equivalence(oracle_homs):
    rng = random.Random(20240)
    cases = 0
    ok = True
    for _, phi in oracle_homs:
        H = build_function_hopf(phi)
        for _ in range(40):
            D = random_diagram(rng, genus_max=3, max_crossings=12)
            colorings = enumerate_colorings(D, phi.target)
            D = D.with_colors(phi.target, rng.choice(colorings))
            _, K = contract_invariant(H, D)
            n = count_lifts(LiftCountQuery(extract_words(D), D.colors, phi))
            ok = ok and K == Scalar(n)
            cases += 1
    report(4, f"contraction equals lift count on {cases} colored diagrams", ok and cases >= 200)


def test_criterion_05_move_invariance(kp, fs3, z2):
    rng = random.Random(555)
    sequences = 0
    kinds_seen = set()
    ok = True
    for H in (kp, fs3):
        for _ in range(100):
            D = random_diagram(rng, genus_max=2, max_crossings=6)
            D = D.with_colors(z2, rng.choice(enumerate_colorings(D, z2)))
            base = contract_invariant(H, D)[1]
            steps = rng.randint(1, 10)
            for m, E in random_move_walk(rng, D, steps, max_crossings=18):
                kinds_seen.add(m.kind)
                ok = ok and contract_invariant(H, E)[1] == base
                D = E
            sequences += 1
    families = {
        "relabel",
        "reverse",
        "slide",
    } <= kinds_seen and kinds_seen & {"two_point_insert", "two_point_remove"} and kinds_seen & {
        "stabilize",
        "destabilize",
    }
    report(
        5,
        f"K constant over {sequences} random move sequences covering all move families",
        ok and sequences >= 200 and bool(families),
    )


def test_criterion_06_axioms_and_mutations(kp):
    ok = all(validate_hopf(H).passed for _, H in constructors())
    rng = random.Random(909)
    detected = 0
    for _ in range(20):
        desc, mutated = mutate_algebra(kp, rng)
        broken = not validate_hopf(mutated).passed
        if not broken:
            broken = not check_structural_lemmas(
                mutated, derive_integral_data(mutated), cyclic_bound=2
            ).passed
        detected += broken
    report(6, f"axioms hold on all builders; {detected}/20 mutations detected", ok and detected == 20)


def test_criterion_07_structural_identities():
    ok = True
    for _, H in constructors():
        integral = derive_integral_data(H)
        ok = ok and check_structural_lemmas(H, integral, cyclic_bound=4).passed
    report(7, "integral and trace identities hold on all builders", ok)


def test_criterion_08_sums_and_duals(kp, z2):
    rng = random.Random(77)
    ok = True
    for _ in range(50):
        D1 = random_diagram(rng, genus_max=2, max_crossings=5)
        D2 = random_diagram(rng, genus_max=1, max_crossings=5)
        D1 = D1.with_colors(z2, rng.choice(enumerate_colorings(D1, z2)))
        D2 = D2.with_colors(z2, rng.choice(enumerate_colorings(D2, z2)))
        K1 = contract_invariant(kp, D1)[1]
        K2 = contract_invariant(kp, D2)[1]
        ok = ok and contract_invariant(kp, connected_sum(D1, D2))[1] == K1 * K2
    op = dual_variants(kp, "opposite")
    cop = dual_variants(kp, "coopposite")
    for _ in range(50):
        D = random_diagram(rng, genus_max=2, max_crossings=6)
        D = D.with_colors(z2, rng.choice(enumerate_colorings(D, z2)))
        K = contract_invariant(kp, mirror_diagram(D))[1]
        ok = ok and contract_invariant(op, D)[1] == K
        ok = ok and contract_invariant(cop, D)[1] == K
    report(8, "connected sums multiply; duals match the mirror", ok)


def test_criterion_09_conjugate_colors(kp, z2):
    # abelian case: conjugation is trivial, but the crossing must validate
    ok = validate_crossing(kp).passed
    s3 = symmetric_group(3)
    idhom = GroupHom(s3, s3, tuple(range(6)))
    H = replace(build_function_hopf(idhom), crossing=conjugation_crossing(idhom))
    ok = ok and validate_crossing(H).passed
    D = connected_sum(lens_diagram(2), lens_diagram(2))
    rng = random.Random(42)
    checked = 0
    for colors in enumerate_colorings(D, s3):
        K = contract_invariant(H, D.with_colors(s3, colors))[1]
        for _ in range(3):
            g = rng.randrange(6)
            conj = tuple(s3.conjugate(g, a) for a in colors)
            ok = ok and contract_invariant(H, D.with_colors(s3, conj))[1] == K
            checked += 1
    report(9, f"K unchanged under {checked} color conjugations", ok and checked > 0)


def test_criterion_10_determinism(kp, z2, tmp_path, scan_network):
    D = connected_sum(lens_diagram(2), lens_diagram(4)).with_colors(z2, (1, 1))
    # Z in four uniformly random contraction orders, and in the planner's
    nodes = diagram_nodes(kp, D)
    runs = {scan_network(nodes, pick=random.Random(s).choice).as_scalar() for s in range(4)}
    runs.add(contract_invariant(kp, D)[0])
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dump_diagram(D)))
    outputs = set()
    for _ in range(3):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["invariant", "--algebra", "kp", "--diagram", str(path), "--json"])
        outputs.add((rc, buf.getvalue()))
    report(10, "repeated runs produce identical results", len(runs) == 1 and len(outputs) == 1)
