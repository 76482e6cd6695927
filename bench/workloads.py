"""The benchmark's seeded workloads: input generation, ops and answer checks.

Each workload turns a seed into a fixed op list.  An op is a closure that
calls into ``hopfk`` and returns its answer as a dict of strings; each op
also carries the answer expected of it, either fixed at set-up (closed
forms, verdicts) or derived after the timed loop (lift counts, constancy
along a move walk).  Calls go through module attributes (``invariant.
contract_invariant``, not an imported name) so the traced run can wrap them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from hopfk import diagio, fuzz, groups, heegaard, homcount, hopf, invariant
from hopfk.scalars import format_scalar

# Validation ops check cyclic symmetry of the trace and of the iterated
# coproduct up to this arity (the CLI default is 4, which makes F(sign-S4)
# alone take ~40 s).
CYCLIC_BOUND = 3


@dataclass
class Op:
    label: str  # short description, printed in the report
    key: str  # full input text, hashed into the op-list digest
    run: object  # () -> dict answer
    expect: dict = None  # expected answer entries, or None until derived
    meta: dict = field(default_factory=dict)


# -- lens: one large chain network per op ------------------------------------------

# Every valid coloring of each diagram below is one op.  The seed picks each
# p inside a narrow window, and the summands of a connected sum add up to a
# fixed total, so the seed moves every input while the cost of a pass (which
# grows with the total p of a diagram) stays nearly fixed.  Most of a pass
# goes to the large single lens spaces; the sums supply many mid-size ops.
# Windows are [lo, hi) with a parity, True = even.  The seven ops of the
# first four windows are the slowest; four copies of L(45) come next, so
# op_tail_ms (the op with ten slower ones) is one of them, whatever the seed.
LENS_SINGLES = (
    (90, 93, True),
    (74, 77, True),
    (56, 61, True),
    (57, 62, False),
    (45, 46, False),
    (45, 46, False),
    (45, 46, False),
    (45, 46, False),
    (24, 29, True),
    (17, 22, False),
)
# (total p, windows of every summand but the last, which takes the rest)
LENS_SUMS = (
    (28, ((10, 19, True),)),
    (35, ((18, 27, True),)),
    (33, ((6, 15, True), (6, 15, True))),
    (32, ((6, 15, True), (6, 15, True))),
)


def lens_K(p, color):
    """Closed form of K_kp(L(p)) for the Z/2 color 0 or 1."""
    if p % 2:
        return 1
    if color == 0:
        return 4
    half = p // 2
    if half % 2:
        return 2
    return 0 if half % 4 == 2 else 4


def _pick(rng, lo, hi, even):
    """A seeded p in [lo, hi) of the given parity."""
    start = lo if (lo % 2 == 0) == even else lo + 1
    return rng.randrange(start, hi, 2)


def lens_setup(seed):
    rng = random.Random(seed)
    H = hopf.build_kac_paljutkin()
    z2 = H.pi
    diagrams = [(_pick(rng, *window),) for window in LENS_SINGLES]
    for total, windows in LENS_SUMS:
        ps = [_pick(rng, *window) for window in windows]
        diagrams.append((*ps, total - sum(ps)))
    ops = []
    for ps in diagrams:
        D = heegaard.lens_diagram(ps[0])
        for p in ps[1:]:
            D = heegaard.connected_sum(D, heegaard.lens_diagram(p))
        for colors in heegaard.enumerate_colorings(D, z2):
            K = 1
            for p, c in zip(ps, colors):
                K *= lens_K(p, c)
            label = "#".join(f"L({p})" for p in ps) + f" color={''.join(map(str, colors))}"
            ops.append(Op(label, label, _lens_op(H, D.with_colors(z2, colors)), {"K": str(K)}))
    rng.shuffle(ops)
    return ops


def _lens_op(H, D):
    def run():
        Z, K = invariant.contract_invariant(H, D)
        return {"Z": format_scalar(Z), "K": format_scalar(K)}

    return run


# -- walk: many small networks, d up to 24 ----------------------------------------

# Per algebra: the (genus, crossings) of each walk's start diagram, drawn
# from fuzz.random_diagram until it has exactly that size, and the number of
# random moves after it.  Walks never grow past their start's crossing
# count.  The cost of an op varies several-fold between diagrams of one
# size, so a pass holds many short walks; the S4 algebras get the smallest
# diagrams, where building their d^3 nodes, not contracting, sets the cost.
# The median op falls among the trivial-S3 and sign-S4 ops, above the
# cheaper kp, sign-S3 and mod2-Z4 ones; those two algebras get twice the
# walks of the others, so that the median moves little with the seed.
WALK_STEPS = 2
_SMALL = ((1, 4), (2, 5), (3, 6)) * 4
_TINY = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))
WALK_PLAN = {
    "kp": _SMALL,
    "fun-sign-s3": _SMALL,
    "fun-mod2-z4": _SMALL,
    "fun-trivial-s3": _SMALL * 2,
    "fun-sign-s4": _TINY * 4,
    "fun-trivial-s4": _TINY * 4,
}
# The F(trivial-S4) ops are the slowest, and their cost varies most between
# diagrams (fourfold between diagrams of one size), so they set op_tail_ms
# and most of wall_s; the F(trivial-S3) ops hold the median op.  Both draw
# their diagrams from a generator of their own with a fixed seed, so that
# these metrics measure the code, not the seed's draw; the seed picks the
# diagrams of the other four algebras and the order of all ops.
FIXED_WALK_SEEDS = {"fun-trivial-s3": 2, "fun-trivial-s4": 0}


def sign_hom_s4():
    """S4 -> Z/2 with kernel A4, the subgroup generated by the squares."""
    s4, z2 = groups.symmetric_group(4), groups.cyclic_group(2)
    kernel = {s4.power(g, 2) for g in range(s4.order)}
    while True:
        closure = kernel | {s4.mul[a][b] for a in kernel for b in kernel}
        if closure == kernel:
            break
        kernel = closure
    return groups.GroupHom(s4, z2, tuple(0 if g in kernel else 1 for g in range(s4.order)))


def walk_algebras():
    """(name, algebra, grading homomorphism or None)."""
    out = [("kp", hopf.build_kac_paljutkin(), None)]
    for name, phi in (
        ("fun-sign-s3", groups.sign_hom_s3()),
        ("fun-mod2-z4", groups.mod_hom(4, 2)),
        ("fun-trivial-s3", groups.trivial_hom(groups.symmetric_group(3))),
        ("fun-sign-s4", sign_hom_s4()),
        ("fun-trivial-s4", groups.trivial_hom(groups.symmetric_group(4))),
    ):
        out.append((name, hopf.build_function_hopf(phi), phi))
    return out


def _random_diagram_of_size(rng, genus, crossings):
    for _ in range(1000):
        D = fuzz.random_diagram(rng, genus_max=genus, max_crossings=crossings)
        if D.genus == genus and len(D.crossings) == crossings:
            break
    return D


def walk_setup(seed):
    rng = random.Random(seed)
    ops = []
    walk = 0
    for name, H, phi in walk_algebras():
        draw = random.Random(FIXED_WALK_SEEDS[name]) if name in FIXED_WALK_SEEDS else rng
        for genus, crossings in WALK_PLAN[name]:
            D = _random_diagram_of_size(draw, genus, crossings)
            D = D.with_colors(H.pi, draw.choice(heegaard.enumerate_colorings(D, H.pi)))
            steps = fuzz.random_move_walk(draw, D, WALK_STEPS, max_crossings=crossings)
            for step, E in enumerate([D] + [E for _, E in steps]):
                text = json.dumps(diagio.dump_diagram(E), sort_keys=True)
                label = f"{name} walk={walk} step={step} genus={E.genus} crossings={len(E.crossings)}"
                meta = {"walk": walk, "step": step}
                if step == 0 and phi is not None:
                    meta["oracle"] = (phi, E)
                ops.append(Op(label, f"{name}\n{text}", _walk_op(H, text), None, meta))
            walk += 1
    rng.shuffle(ops)
    return ops


def _walk_op(H, text):
    """The ``hopfk invariant --json`` path, without process start or file I/O."""

    def run():
        D = diagio.parse_diagram(json.loads(text), H.pi)
        Z, K = invariant.contract_invariant(H, D)
        record = diagio.result_record(D, Z, K)
        json.dumps(record, sort_keys=True)
        return {"Z": record["Z"], "K": record["K"]}

    return run


def walk_expect(ops, answers):
    """A function algebra's K must equal the lift count at the start of each
    walk; every algebra's K must stay the same along the walk.  For kp the
    start diagram's own answer is the reference."""
    reference = {}
    for op, answer in zip(ops, answers):
        if op.meta["step"] != 0:
            continue
        if "oracle" in op.meta:
            phi, D = op.meta["oracle"]
            words = tuple(heegaard.extract_words(D))
            n = homcount.count_lifts(homcount.LiftCountQuery(words, D.colors, phi))
            reference[op.meta["walk"]] = {"K": str(n)}
        else:
            reference[op.meta["walk"]] = {"K": answer.get("K")}
    return [reference[op.meta["walk"]] for op in ops]


# -- validate: dense axiom checks, no contraction network -----------------------------


def validate_setup(seed):
    rng = random.Random(seed)
    kp = hopf.build_kac_paljutkin()
    s3, s4 = groups.symmetric_group(3), groups.symmetric_group(4)
    id_s3 = groups.GroupHom(s3, s3, tuple(range(s3.order)))
    sign_s3 = hopf.build_function_hopf(groups.sign_hom_s3())
    valid = [
        ("kp", kp),
        ("kp-opposite", hopf.dual_variants(kp, "opposite")),
        ("kp-coopposite", hopf.dual_variants(kp, "coopposite")),
        ("fun-sign-s3", sign_s3),
        ("fun-mod2-z4", hopf.build_function_hopf(groups.mod_hom(4, 2))),
        ("fun-trivial-s3", hopf.build_function_hopf(groups.trivial_hom(s3))),
        ("fun-sign-s4", hopf.build_function_hopf(sign_hom_s4())),
        ("fun-id-s4", hopf.build_function_hopf(groups.GroupHom(s4, s4, tuple(range(s4.order))))),
        (
            "fun-id-s3+conjugation",
            replace(hopf.build_function_hopf(id_s3), crossing=hopf.conjugation_crossing(id_s3)),
        ),
    ]
    ops = [Op(name, name, _validate_op(H), {"verdict": "pass"}) for name, H in valid]
    # Mutants of kp outnumber every other kind of op, so that the median op,
    # and the tail op too, fall inside one block of ops of nearly equal cost.
    for base_name, base, count in (("kp", kp, 24), ("fun-sign-s3", sign_s3, 8)):
        for _ in range(count):
            desc, H = fuzz.mutate_algebra(base, rng)
            label = f"{base_name} mutant {desc}"
            ops.append(Op(label, label, _validate_op(H), {"verdict": "reject"}))
    rng.shuffle(ops)
    return ops


def _validate_op(H):
    """One verdict, as ``hopfk validate-algebra`` reaches it: the structural
    lemmas and the crossing are checked only if the axioms hold."""

    def run():
        if not hopf.validate_hopf(H).passed:
            return {"verdict": "reject"}
        lemmas = hopf.check_structural_lemmas(H, hopf.derive_integral_data(H), cyclic_bound=CYCLIC_BOUND)
        crossing = hopf.validate_crossing(H)
        return {"verdict": "pass" if lemmas.passed and crossing.passed else "reject"}

    return run


def fixed_expect(ops, answers):
    """Answers fixed at set-up: closed forms and verdicts."""
    return [op.expect for op in ops]


# name -> (seed -> op list, (ops, first-pass answers) -> expected answers)
WORKLOADS = {
    "lens": (lens_setup, fixed_expect),
    "walk": (walk_setup, walk_expect),
    "validate": (validate_setup, fixed_expect),
}
