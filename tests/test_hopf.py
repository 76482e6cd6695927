import itertools
import json
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from hopfk import hopf
from hopfk.cli import main
from hopfk.diagio import builtin_algebra, dump_algebra, parse_algebra
from hopfk.fuzz import mutate_algebra
from hopfk.groups import GroupHom, Report, cyclic_group, mod_hom, symmetric_group, trivial_hom
from hopfk.hopf import (
    HopfPiCoalgebra,
    StructureError,
    _checker,
    build_function_hopf,
    build_kac_paljutkin,
    check_shapes,
    check_structural_lemmas,
    conjugation_crossing,
    coproduct_chain,
    derive_integral_data,
    dual_variants,
    identity_crossing_data,
    product_chain,
    structure_maps,
    structure_tensor,
    validate_crossing,
    validate_hopf,
)
from hopfk.scalars import I, ONE, Scalar, ZERO
from hopfk.tensors import EntryCapExceeded, GradedTensor, contract_network


def all_constructors():
    return [
        build_kac_paljutkin(),
        build_function_hopf(__import__("hopfk").sign_hom_s3()),
        build_function_hopf(__import__("hopfk").mod_hom(4, 2)),
        build_function_hopf(trivial_hom(cyclic_group(3))),
        build_function_hopf(
            GroupHom(cyclic_group(2), cyclic_group(1), (0, 0))
        ),
    ]


def dense(t):
    """Nested lists of a tensor's entries, zeros included."""

    def nest(index):
        if len(index) == len(t.dims):
            return t.entry(index)
        return [nest(index + (i,)) for i in range(t.dims[len(index)])]

    return nest(())


def collect(terms):
    """Sum (key, value) terms into {key: nonzero total}."""
    out = {}
    for key, v in terms:
        out[key] = out.get(key, ZERO) + v
    return {key: v for key, v in out.items() if v}


class Dense:
    """Plain loops over the dense arrays of an algebra: a reference for the
    axioms that shares no code with the contraction engine."""

    def __init__(self, H):
        self.pi, self.dim = H.pi, H.dim
        self.mul = {a: dense(t) for a, t in H.mul.items()}
        self.unit = {a: dense(t) for a, t in H.unit.items()}
        self.S = {a: dense(t) for a, t in H.antipode.items()}
        self.eps = dense(H.counit)
        # Delta of each basis vector, as {(j, k): nonzero coefficient}.
        self.cop = {
            key: [
                {(j, k): c for j, row in enumerate(block) for k, c in enumerate(row) if c}
                for block in dense(t)
            ]
            for key, t in H.delta.items()
        }

    def basis(self, a, i):
        return [ONE if k == i else ZERO for k in range(self.dim[a])]

    def prod(self, a, x, y):
        out = [ZERO] * self.dim[a]
        for i, j, k in itertools.product(range(self.dim[a]), repeat=3):
            if x[i] and y[j] and self.mul[a][i][j][k]:
                out[k] += x[i] * y[j] * self.mul[a][i][j][k]
        return out

    def antipode(self, a, x):
        out = [ZERO] * self.dim[self.pi.inverse[a]]
        for i, j in itertools.product(range(len(x)), range(len(out))):
            if x[i] and self.S[a][i][j]:
                out[j] += x[i] * self.S[a][i][j]
        return out

    def failures(self):
        """Which of associativity, coassociativity, the antipode law and
        multiplicativity of Delta fail, checked on basis vectors."""
        pi, dim, e = self.pi, self.dim, self.pi.identity
        mul, S, cop = self.mul, self.S, self.cop
        els = range(pi.order)
        failed = set()
        for a in els:
            m, d = mul[a], range(dim[a])
            for i, j, k in itertools.product(d, repeat=3):
                # (e_i e_j) e_k and e_i (e_j e_k), as {p: coefficient of e_p}
                lhs = collect(
                    (p, m[i][j][q] * r) for q in d if m[i][j][q] for p, r in enumerate(m[q][k])
                )
                rhs = collect(
                    (p, m[j][k][q] * r) for q in d if m[j][k][q] for p, r in enumerate(m[i][q])
                )
                if lhs != rhs:
                    failed.add("associativity")
        for a, b, c in itertools.product(els, repeat=3):
            ab, bc = pi.mul[a][b], pi.mul[b][c]
            for i in range(dim[pi.mul[ab][c]]):
                lhs = collect(
                    ((j, k, l), v * w)
                    for (m, l), v in cop[(ab, c)][i].items()
                    for (j, k), w in cop[(a, b)][m].items()
                )
                rhs = collect(
                    ((j, k, l), v * w)
                    for (j, m), v in cop[(a, bc)][i].items()
                    for (k, l), w in cop[(b, c)][m].items()
                )
                if lhs != rhs:
                    failed.add("coassociativity")
        for a in els:
            ai, d = pi.inverse[a], range(dim[a])
            for i in range(dim[e]):
                want = collect((p, self.eps[i] * u) for p, u in enumerate(self.unit[a]))
                left = collect(
                    (p, c * S[ai][j][q] * r)
                    for (j, k), c in cop[(ai, a)][i].items()
                    for q in d
                    if S[ai][j][q]
                    for p, r in enumerate(mul[a][q][k])
                )
                right = collect(
                    (p, c * S[ai][k][q] * r)
                    for (j, k), c in cop[(a, ai)][i].items()
                    for q in d
                    if S[ai][k][q]
                    for p, r in enumerate(mul[a][j][q])
                )
                if not left == right == want:
                    failed.add("antipode law")
        for a, b in itertools.product(els, repeat=2):
            ab, dd = pi.mul[a][b], cop[(a, b)]
            for i1, i2 in itertools.product(range(dim[ab]), repeat=2):
                lhs = collect(
                    (key, c * w)
                    for q, c in enumerate(mul[ab][i1][i2])
                    if c
                    for key, w in dd[q].items()
                )
                rhs = collect(
                    ((j, k), c1 * c2 * v * w)
                    for (j1, k1), c1 in dd[i1].items()
                    for (j2, k2), c2 in dd[i2].items()
                    for j, v in enumerate(mul[a][j1][j2])
                    if v
                    for k, w in enumerate(mul[b][k1][k2])
                    if w
                )
                if lhs != rhs:
                    failed.add("Delta multiplicative")
        return failed


# Violation text of validate_hopf for each axiom the dense reference checks.
AXIOM_TEXT = {
    "associativity": "associativity fails in",
    "coassociativity": "coassociativity fails at",
    "antipode law": "antipode law",
    "Delta multiplicative": "is not multiplicative at basis pair",
}


# -- constructors -----------------------------------------------------------


def test_kp_basic_structure(kp):
    assert kp.dim == (4, 4)
    # coproduct of the first idempotent starts with 1/2 e11 (x) e11
    half = Scalar(1) / Scalar(2)
    assert kp.delta[(1, 1)].entry((0, 0, 0)) == half
    # antipode on the matrix component is transposition: e12 -> e21
    assert kp.antipode[1].entry((1, 2)) == ONE and kp.antipode[1].entry((1, 1)) == ZERO


def test_kp_validates(kp):
    assert validate_hopf(kp).passed


def test_kp_involutory_explicitly(kp):
    ref = Dense(kp)
    for a in (0, 1):
        for i in range(4):
            x = ref.basis(a, i)
            assert ref.antipode(a, ref.antipode(a, x)) == x


def test_function_hopf_dims(fs3):
    assert fs3.dim == (3, 3)
    assert validate_hopf(fs3).passed
    phi_id = GroupHom(cyclic_group(2), cyclic_group(2), (0, 1))
    assert build_function_hopf(phi_id).dim == (1, 1)
    collapsed = build_function_hopf(trivial_hom(cyclic_group(2)))
    assert collapsed.dim == (2,)


def test_function_hopf_rejects_bad_hom():
    bad = GroupHom(cyclic_group(2), cyclic_group(2), (0, 0))
    # 1 -> 0 but 1+1=0 -> 0 is fine; break multiplicativity instead
    worse = GroupHom(cyclic_group(4), cyclic_group(2), (0, 1, 1, 0))
    with pytest.raises(ValueError):
        build_function_hopf(worse)
    assert validate_hopf(build_function_hopf(bad)).passed  # constant hom is a hom


def test_all_constructors_validate():
    for H in all_constructors():
        report = validate_hopf(H)
        assert report.passed, report.violations[:3]


def test_empty_components_allowed():
    # non-surjective grading: component at 1 is empty
    phi = GroupHom(cyclic_group(3), cyclic_group(2), (0, 0, 0))
    H = build_function_hopf(phi)
    assert H.dim == (3, 0)
    assert validate_hopf(H).passed
    assert H.support() == [0]


def _validators_refuse(bad, integral):
    """Each validator raises StructureError on ``bad``, twice in a row: a
    failed shape check leaves no H_tot behind, so every read checks again."""
    for _ in range(2):
        for validate in (validate_hopf, lambda H: check_structural_lemmas(H, integral), validate_crossing):
            with pytest.raises(StructureError):
                validate(bad)


def test_shape_check_catches_malformed(kp):
    bad = replace(kp, counit=GradedTensor(("in",), (3,), {(0,): ONE}))
    with pytest.raises(StructureError):
        check_shapes(bad)
    _validators_refuse(bad, derive_integral_data(kp))
    stray = GradedTensor(kp.mul[1].labels, kp.mul[1].dims, {**kp.mul[1].data, (0, 0, 4): ONE})
    bad = replace(kp, mul={0: kp.mul[0], 1: stray})
    with pytest.raises(StructureError):
        validate_hopf(bad)
    _validators_refuse(bad, derive_integral_data(kp))


def test_shape_check_catches_partial_crossing(kp):
    partial = dict(kp.crossing)
    del partial[0, 1]
    row_1 = {ba: t for ba, t in kp.crossing.items() if ba[0] == 1}
    for crossing, key in ((partial, r"\(0, 1\)"), (row_1, r"\(0, 0\)")):
        bad = replace(kp, crossing=crossing)
        with pytest.raises(StructureError, match="missing crossing component at " + key):
            check_shapes(bad)
        with pytest.raises(StructureError):
            validate_crossing(bad)
        _validators_refuse(bad, derive_integral_data(kp))
    wide = GradedTensor(("in", "out"), (4, 5), {})
    bad = replace(kp, crossing={**kp.crossing, (1, 0): wide})
    with pytest.raises(StructureError, match="crossing shape mismatch"):
        check_shapes(bad)
    _validators_refuse(bad, derive_integral_data(kp))


def test_total_is_derived_once_per_algebra(monkeypatch, fresh_units):
    # Every validator reads the algebra's one H_tot; check_shapes opens
    # each derivation, so it counts them.
    builds = []

    def counted(H):
        builds.append(H)
        check_shapes(H)

    monkeypatch.setattr(hopf, "check_shapes", counted)
    kp = build_kac_paljutkin()
    assert validate_hopf(kp).passed
    assert check_structural_lemmas(kp, derive_integral_data(kp)).passed
    assert validate_crossing(kp).passed
    assert builds == [kp]
    Ht, offsets = kp.total
    assert kp.total[0] is Ht and offsets == (0, 4, 8)
    # A replaced copy, here with kp's matrix product doubled, or fresh_units,
    # is a new object and derives its own.
    t = kp.mul[1]
    doubled = replace(kp, mul={**kp.mul, 1: GradedTensor(t.labels, t.dims, {k: v + v for k, v in t.data.items()})})
    slow = fresh_units(kp)
    for H in (doubled, slow):
        assert H.total[0] is not Ht
    assert builds == [kp, doubled, slow]
    assert doubled.total[0].mul[0].entry((4, 4, 4)) == Scalar(2)
    assert Ht.mul[0].entry((4, 4, 4)) == ONE
    assert slow.total[0].mul[0].data == Ht.mul[0].data


# -- integral data -----------------------------------------------------------


def _bumped(t, i):
    """The vector ``t`` with 1 added to its entry i."""
    return GradedTensor(t.labels, t.dims, {**t.data, (i,): t.entry((i,)) + ONE})


def test_kp_integral_data(kp, vector):
    integral = derive_integral_data(kp)
    assert integral.trace[0] == vector("in", (ONE, ONE, ONE, ONE))
    assert integral.trace[1] == vector("in", (Scalar(2), ZERO, ZERO, Scalar(2)))
    assert integral.cotrace == vector("out", (Scalar(4), ZERO, ZERO, ZERO))
    assert [(t.labels, t.dims) for t in integral.trace] == [(("in",), (4,))] * 2
    assert (integral.cotrace.labels, integral.cotrace.dims) == (("out",), (4,))


def test_fs3_integral_data(fs3, vector):
    integral = derive_integral_data(fs3)
    assert integral.trace[0] == vector("in", (ONE, ONE, ONE))
    assert integral.trace[1] == vector("in", (ONE, ONE, ONE))
    assert integral.cotrace == vector("out", (Scalar(3), ZERO, ZERO))
    assert [(t.labels, t.dims) for t in integral.trace] == [(("in",), (3,))] * 2
    assert (integral.cotrace.labels, integral.cotrace.dims) == (("out",), (3,))


def test_integral_data_is_read_only(vector):
    # One IntegralData is shared by every caller on an algebra.
    H = build_kac_paljutkin()
    integral = derive_integral_data(H)
    assert derive_integral_data(H) is integral
    with pytest.raises(FrozenInstanceError):
        integral.trace = {}
    with pytest.raises(FrozenInstanceError):
        integral.cotrace = ()
    with pytest.raises(TypeError):
        integral.trace[0] = vector("in", (ZERO,) * 4)
    # A bumped copy is a new, equally read-only object; the shared one is unchanged.
    bumped = replace(integral, trace=(vector("in", (ONE + ONE,) * 4),) + integral.trace[1:])
    assert bumped.trace[0] == vector("in", (Scalar(2),) * 4)
    assert integral.trace[0] == vector("in", (ONE,) * 4)
    with pytest.raises(TypeError):
        bumped.trace[0] = integral.trace[0]


def test_replaced_algebra_derives_its_own_integral_data(vector):
    # The data is stored on the algebra object, so a copy with a changed
    # product (here kp's matrix product doubled) gets a new trace, not the
    # one already derived for kp.
    H = build_kac_paljutkin()
    assert derive_integral_data(H).trace[1] == vector("in", (Scalar(2), ZERO, ZERO, Scalar(2)))
    t = H.mul[1]
    doubled = replace(H, mul={**H.mul, 1: GradedTensor(t.labels, t.dims, {k: v + v for k, v in t.data.items()})})
    assert derive_integral_data(doubled).trace[1] == vector("in", (Scalar(4), ZERO, ZERO, Scalar(4)))
    assert derive_integral_data(H).trace[1] == vector("in", (Scalar(2), ZERO, ZERO, Scalar(2)))


def test_structural_lemmas_all_constructors():
    for H in all_constructors():
        integral = derive_integral_data(H)
        report = check_structural_lemmas(H, integral)
        assert report.passed, report.violations[:3]


def test_lemmas_file_a_component_dimension_unlike_the_identity_one():
    # Z/2 with dim (1, 2): the pointwise algebra in each component, every
    # coproduct zero and every antipode the identity.
    z2, dim = cyclic_group(2), (1, 2)

    def tensor(field, key, data):
        return structure_tensor(z2, dim, field, key, data)

    H = HopfPiCoalgebra(
        z2, dim,
        mul={a: tensor("mul", a, {(i, i, i): ONE for i in range(dim[a])}) for a in range(2)},
        unit={a: tensor("unit", a, {(i,): ONE for i in range(dim[a])}) for a in range(2)},
        delta={(a, b): tensor("delta", (a, b), {}) for a in range(2) for b in range(2)},
        counit=tensor("counit", None, {(0,): ONE}),
        antipode={a: tensor("antipode", a, {(i, i): ONE for i in range(dim[a])}) for a in range(2)},
    )
    violations = check_structural_lemmas(H, derive_integral_data(H)).violations
    assert "dim H_1 = 2 differs from identity component dimension 1" in violations


def test_bumped_identity_trace_is_one_violation(kp, fs3):
    # T(1) on H_1 is checked once, by the loop over the support
    for H in (kp, fs3):
        integral = derive_integral_data(H)
        e = H.pi.identity
        trace = list(integral.trace)
        trace[e] = _bumped(trace[e], 0)
        bumped = replace(integral, trace=tuple(trace))
        violations = check_structural_lemmas(H, bumped).violations
        assert [v for v in violations if v.startswith("T(1)")] == [
            f"T(1) in H_{H.pi.names[e]} differs from dim of H at identity"
        ]


def test_cyclic_lemmas_detect_a_bumped_trace_and_cotrace(kp):
    # kp's T_1 and C are both bumped at basis 1 (e12 in the matrix
    # component, the second idempotent in the other); each breaks its
    # cyclic word on H_tot, and names it by its components
    integral = derive_integral_data(kp)
    T0, T1 = integral.trace
    bumped_trace = replace(integral, trace=(T0, _bumped(T1, 1)))
    bumped_cotrace = replace(integral, cotrace=_bumped(integral.cotrace, 1))
    violations = check_structural_lemmas(kp, bumped_trace).violations
    assert "trace product not cyclically symmetric in H_1 at (0, 1) (arity 2)" in violations
    assert not any(v.startswith("iterated coproduct of C") for v in violations)
    violations = check_structural_lemmas(kp, bumped_cotrace).violations
    assert "iterated coproduct of C not cyclically symmetric for grading ('1', '1')" in violations
    assert not any(v.startswith("trace product") for v in violations)


def test_cyclic_symmetry_at_arity_2_implies_every_arity(kp, fs3, s3, cyclic_failures):
    # check_structural_lemmas checks arity 2 only; the reference checks each
    # arity n on its own.  Valid algebras pass at every n, and on seeded +1
    # bumps of the trace and the cotrace every arity-n failure comes with
    # the arity-2 violation of its kind.
    rng = random.Random(21)
    prefixes = {"trace": "trace product not cyclically", "cotrace": "iterated coproduct of C not cyclically"}
    higher = 0
    for H in (kp, fs3, build_function_hopf(mod_hom(4, 2)), build_function_hopf(trivial_hom(s3))):
        integral = derive_integral_data(H)
        assert all(not cyclic_failures(H, integral, n) for n in range(2, 6))
        e, bumps = H.pi.identity, []
        for _ in range(4):
            a = rng.choice(H.support())
            trace = list(integral.trace)
            trace[a] = _bumped(trace[a], rng.randrange(H.dim[a]))
            bumps.append(replace(integral, trace=tuple(trace)))
            bumps.append(replace(integral, cotrace=_bumped(integral.cotrace, rng.randrange(H.dim[e]))))
        for bumped in bumps:
            violations = check_structural_lemmas(H, bumped).violations
            filed = {kind for kind, prefix in prefixes.items() if any(v.startswith(prefix) for v in violations)}
            assert cyclic_failures(H, bumped, 2) == filed
            for n in range(3, 6):
                failed = cyclic_failures(H, bumped, n)
                assert failed <= filed, (n, failed, filed)
                higher += bool(failed)
    assert higher  # some bump breaks a higher arity, so the implication is exercised


def test_structural_lemmas_hold_no_tensor_above_two_open_legs(monkeypatch):
    # The largest tensor the lemmas build is a matrix on H_tot, at most
    # dim(H_tot)^2 entries: no contraction leaves more than two open legs.
    H = builtin_algebra("fun-trivial-s4")
    integral = derive_integral_data(H)
    dim = H.total[0].dim[0]  # H_tot is derived before the count
    results = []
    contract = GradedTensor.contract

    def logged(self, other, limit):
        results.append(contract(self, other, limit))
        return results[-1]

    monkeypatch.setattr(GradedTensor, "contract", logged)
    assert check_structural_lemmas(H, integral).passed
    assert results and max(len(t.labels) for t in results) <= 2
    assert max(t.size() for t in results) <= dim ** 2


def test_trace_symmetry_randomized(kp):
    rng = random.Random(1)
    integral = derive_integral_data(kp)
    ref = Dense(kp)
    for a in (0, 1):
        T = [integral.trace[a].entry((i,)) for i in range(4)]
        for _ in range(25):
            x = tuple(Scalar(rng.randint(-3, 3)) for _ in range(4))
            y = tuple(Scalar(rng.randint(-3, 3)) for _ in range(4))
            xy = ref.prod(a, x, y)
            yx = ref.prod(a, y, x)
            t = lambda v: sum((T[i] * v[i] for i in range(4)), ZERO)
            assert t(xy) == t(yx)
            sx = ref.antipode(a, x)
            Ti = [integral.trace[kp.pi.inverse[a]].entry((i,)) for i in range(4)]
            assert sum((Ti[i] * sx[i] for i in range(4)), ZERO) == t(x)


# -- iterated coproduct ---------------------------------------------------------


@pytest.fixture()
def split(permute, vector):
    def split(H, grading, x):
        """The iterated coproduct of the vector ``x`` along ``grading``, legs 0..n-1."""
        chain, root = coproduct_chain(H, grading, range(len(grading)), ("q",))
        t = contract_network(chain + [vector(root, x)])
        return permute(t, [t.axis(i) for i in range(len(grading))])

    return split


def test_iterated_delta_single_is_identity(kp, split):
    x = (ONE, Scalar(2), ZERO, I)
    t = split(kp, (1,), x)
    assert t.labels == (0,)
    assert tuple(t.entry((i,)) for i in range(4)) == x


def test_iterated_delta_function_algebra(fs3, split):
    # coproduct of a delta function over the even fiber splits over factorizations
    phi = __import__("hopfk").sign_hom_s3()
    fiber0 = phi.fiber(0)
    g = fiber0[1]
    x = tuple(ONE if h == g else ZERO for h in fiber0)
    t = split(fs3, (0, 0), x)
    G = phi.source
    for j, h in enumerate(fiber0):
        for k, kk in enumerate(fiber0):
            expected = ONE if G.mul[h][kk] == g else ZERO
            assert t.entry((j, k)) == expected


def test_empty_and_single_chains(kp):
    # The empty product is the unit and the empty coproduct the counit, each
    # on the fresh leg (*tag, 0); one leg needs no node and is its own end.
    assert product_chain(kp, 1, [], ("u", 0)) == ([kp.unit[1].relabel([("u", 0, 0)])], ("u", 0, 0))
    assert coproduct_chain(kp, (), [], ("d", 0)) == ([kp.counit.relabel([("d", 0, 0)])], ("d", 0, 0))
    assert product_chain(kp, 1, ["a"], ("u", 0)) == ([], "a")
    assert coproduct_chain(kp, (1,), ["a"], ("d", 0)) == ([], "a")
    # Three legs: two nodes, fresh legs (*tag, 1), (*tag, 2) and (*tag, 0), (*tag, 1).
    chain, out = product_chain(kp, 0, "abc", ("u", 0))
    assert [t.labels for t in chain] == [("a", "b", ("u", 0, 1)), (("u", 0, 1), "c", ("u", 0, 2))]
    assert out == ("u", 0, 2)
    chain, root = coproduct_chain(kp, (1, 1, 0), "abc", ("d", 0))
    assert [t.labels for t in chain] == [(("d", 0, 0), "a", ("d", 0, 1)), (("d", 0, 1), "b", "c")]
    assert chain[0] == kp.delta[(1, 1)].relabel([("d", 0, 0), "a", ("d", 0, 1)])
    assert root == ("d", 0, 0)


# -- mutations ------------------------------------------------------------------


def test_single_mutation_example(kp):
    d00 = kp.delta[(0, 0)]
    bumped = GradedTensor(d00.labels, d00.dims, {**d00.data, (0, 0, 0): d00.entry((0, 0, 0)) + ONE})
    mutated = replace(kp, delta={**kp.delta, (0, 0): bumped})
    assert not validate_hopf(mutated).passed


def test_mutation_sensitivity(kp):
    rng = random.Random(2024)
    for _ in range(20):
        desc, mutated = mutate_algebra(kp, rng)
        broken = not validate_hopf(mutated).passed
        if not broken:
            integral = derive_integral_data(mutated)
            broken = not check_structural_lemmas(mutated, integral).passed
        assert broken, f"mutation went undetected: {desc}"


def test_dense_reference_agrees(kp, fs3, s3):
    rng = random.Random(2024)
    algebras = [kp, dual_variants(kp, "opposite"), dual_variants(kp, "coopposite"), fs3]
    algebras += [mutate_algebra(kp, rng)[1] for _ in range(20)]
    # F(id-S3) has one-dimensional components: each basis vector of H_tot
    # is a component of its own.
    fid = build_function_hopf(GroupHom(s3, s3, tuple(range(s3.order))))
    for H in (fs3, fid):
        algebras += [mutate_algebra(H, rng)[1] for _ in range(20)]
    for H in algebras:
        violations = validate_hopf(H).violations
        engine = {
            axiom for axiom, text in AXIOM_TEXT.items() if any(text in v for v in violations)
        }
        assert engine == Dense(H).failures()


def test_coassociativity_files_one_violation(kp):
    d01 = kp.delta[(0, 1)]
    bumped = GradedTensor(d01.labels, d01.dims, {**d01.data, (0, 0, 0): d01.entry((0, 0, 0)) + ONE})
    violations = validate_hopf(replace(kp, delta={**kp.delta, (0, 1): bumped})).violations
    coassociativity = [v for v in violations if v.startswith("coassociativity fails at ")]
    assert coassociativity == ["coassociativity fails at (0,1,1) basis 0"]


# Each case adds 1 to one entry of one structure map (or of T or C) and
# lists messages the validator must file, verbatim.  Together with the
# messages pinned elsewhere in this file, every check of the three
# validators is pinned once.  kp has two 4-dimensional components, so an
# index of H_1 differs from its index in H_tot; F(id-S3) names its
# components by permutations, and its inverses differ.
PINNED_MESSAGES = [
    ("kp", "mul", 1, (1, 2, 0), ["associativity fails in H_1 at (1,2,1)"]),
    ("kp", "mul", 1, (0, 1, 0), ["left unit fails in H_1 at basis 1"]),
    ("kp", "mul", 1, (1, 0, 0), ["right unit fails in H_1 at basis 1"]),
    ("conj", "delta", (1, 1), (0, 0, 0), ["coassociativity fails at ((2 3),(1 2),(1 2 3)) basis 0"]),
    ("kp", "delta", (1, 0), (1, 0, 0), ["counit law (id x eps) fails in H_1 at 1"]),
    ("kp", "delta", (0, 1), (1, 0, 0), ["counit law (eps x id) fails in H_1 at 1"]),
    ("kp", "mul", 1, (0, 3, 0), ["antipode law (S x id) fails in H_1 at 1",
                                 "antipode law (id x S) fails in H_1 at 1"]),
    ("conj", "delta", (3, 1), (0, 0, 0), ["Delta((1 2 3),(2 3)) does not preserve the unit"]),
    ("kp", "delta", (1, 1), (1, 0, 3), ["Delta(1,1) is not multiplicative at basis pair (1,1)"]),
    ("kp", "unit", 0, (0,), ["counit of the unit is not 1"]),
    ("kp", "mul", 0, (1, 1, 0), ["counit is not multiplicative at (1,1)"]),
    ("kp", "antipode", 1, (1, 0), ["S_1 S_1 != id at basis 1"]),
    ("conj", "antipode", 3, (0, 0), ["S_(1 3 2) S_(1 2 3) != id at basis 0"]),
    ("conj", "unit", 3, (0,), ["S_(1 3 2) does not preserve the unit"]),
    ("kp", "mul", 1, (1, 1, 0), ["S_1 is not anti-multiplicative at (1,1)"]),
    ("kp", "antipode", 0, (1, 0), ["eps o S != eps at basis 1"]),
    ("kp", "delta", (1, 1), (1, 0, 1), ["antipode is not anti-comultiplicative at (1,1) basis 1"]),
    ("conj", "delta", (1, 3), (0, 0, 0), ["antipode is not anti-comultiplicative at ((1 3 2),(2 3)) basis 0"]),
    ("kp", "trace", 1, (1,), ["(id x T) integral equation fails at basis pair (0 in H_0, 1 in H_1)",
                              "(T x id) integral equation fails at basis pair (0 in H_0, 1 in H_1)",
                              "T o S != T at basis 1 in H_1"]),
    ("kp", "cotrace", None, (1,), ["C is not a left integral at basis 0 in H_0",
                                   "C is not a right integral at basis 0 in H_0"]),
    ("fs3", "cotrace", None, (1,), ["S(C) != C"]),
    ("kp", "cotrace", None, (0,), ["eps(C) != dim of identity component"]),
    ("kp", "trace", 0, (0,), ["T(C) != dim of identity component"]),
    ("kp", "trace", 1, (0,), ["T(1) in H_1 differs from dim of H at identity",
                              "trace product not cyclically symmetric in H_1 at (1, 2) (arity 2)"]),
    ("kp", "crossing", (1, 1), (0, 1), ["phi_1 does not preserve the unit at basis 1 in H_1"]),
    ("kp", "crossing", (1, 1), (1, 1), ["phi_1 is not multiplicative at basis pair (1 in H_1, 2 in H_1)"]),
    ("kp", "crossing", (1, 1), (1, 0), ["phi_1 does not commute with S at basis 1 in H_1"]),
    ("kp", "crossing", (1, 0), (1, 0), ["phi_1 does not preserve the counit at basis 1 in H_0"]),
    ("kp", "crossing", (1, 0), (0, 0), ["phi_1 does not preserve Delta at basis 0 in H_0"]),
    ("conj", "crossing", (1, 3), (0, 0),
     ["crossing not multiplicative: phi_(2 3) o phi_(1 2) != phi_(1 3 2) at basis 0 in H_(1 3 2)"]),
    ("kp", "crossing", (0, 1), (1, 0), ["phi_0 is not the identity at basis 1 in H_1"]),
]


@pytest.mark.parametrize("algebra, field, component, entry, messages", PINNED_MESSAGES)
def test_violation_messages_verbatim(kp, fs3, s3, algebra, field, component, entry, messages):
    idhom = GroupHom(s3, s3, tuple(range(s3.order)))
    H = {"kp": kp, "fs3": fs3,
         "conj": replace(build_function_hopf(idhom), crossing=conjugation_crossing(idhom))}[algebra]

    def bump(t):
        return GradedTensor(t.labels, t.dims, {**t.data, entry: t.entry(entry) + ONE})

    integral = derive_integral_data(H)
    if field == "trace":
        trace = list(integral.trace)
        trace[component] = bump(trace[component])
        violations = check_structural_lemmas(H, replace(integral, trace=tuple(trace))).violations
    elif field == "cotrace":
        violations = check_structural_lemmas(H, replace(integral, cotrace=bump(integral.cotrace))).violations
    else:
        stored = getattr(H, field)
        mutant = replace(H, **{field: {**stored, component: bump(stored[component])}})
        violations = (validate_crossing if field == "crossing" else validate_hopf)(mutant).violations
    assert set(messages) <= set(violations), violations


def test_violation_messages_verbatim_with_an_empty_identity_component():
    # Z/2 with dim (0, 1): H_tot's basis vector 0 lies in H_1, past the
    # empty H_0, and every coproduct is zero.
    z2, dim = cyclic_group(2), (0, 1)

    def tensor(field, key, data):
        return structure_tensor(z2, dim, field, key, data)

    H = HopfPiCoalgebra(
        z2, dim,
        mul={a: tensor("mul", a, {(i, i, i): ONE for i in range(dim[a])}) for a in range(2)},
        unit={a: tensor("unit", a, {(i,): ONE for i in range(dim[a])}) for a in range(2)},
        delta={(a, b): tensor("delta", (a, b), {}) for a in range(2) for b in range(2)},
        counit=tensor("counit", None, {}),
        antipode={a: tensor("antipode", a, {(i, i): ONE for i in range(dim[a])}) for a in range(2)},
    )
    assert validate_hopf(H).violations == [
        "counit law (id x eps) fails in H_1 at 0",
        "counit law (eps x id) fails in H_1 at 0",
        "Delta(1,1) does not preserve the unit",
        "identity component has dimension 0",
    ]
    assert check_structural_lemmas(H, derive_integral_data(H)).violations == [
        "(id x T) integral equation fails at basis pair (0 in H_1, 0 in H_1)",
        "(T x id) integral equation fails at basis pair (0 in H_1, 0 in H_1)",
        "dim H_1 = 1 differs from identity component dimension 0",
        "T(1) in H_1 differs from dim of H at identity",
    ]
    assert validate_crossing(H).warnings == ["crossing data not provided"]


def test_validation_contracts_at_most_g_squared_entries(monkeypatch):
    # F(trivial-S4) is one component of dimension 24: no contraction of its
    # validation may hold more than 24^2 entries, as checking coassociativity
    # on all of H_tot at once would (24^3).
    H = build_function_hopf(trivial_hom(symmetric_group(4)))
    sizes = []
    contract = GradedTensor.contract

    def logged(self, other, limit):
        out = contract(self, other, limit)
        sizes.append(len(out.data))
        return out

    monkeypatch.setattr(GradedTensor, "contract", logged)
    assert validate_hopf(H).passed
    assert max(sizes) <= 24 ** 2


def test_validators_share_the_entry_cap(kp, monkeypatch, capsys):
    monkeypatch.setenv("HOPFK_ENTRY_CAP", "3")
    with pytest.raises(EntryCapExceeded):
        validate_hopf(kp)
    assert main(["validate-algebra", "kp"]) == 1
    assert "resource error" in capsys.readouterr().err


# -- the unit shortcut of contract -----------------------------------------------


def test_validation_multiplies_no_unit_entry(kp, mul_count):
    # Every structure constant of F(G) is 0 or the shared ONE, so checking
    # it multiplies nothing; kp also stores -1, +-i, +-1/2 and +-i/2.
    s4 = symmetric_group(4)
    for phi in (GroupHom(s4, s4, tuple(range(s4.order))), trivial_hom(s4)):
        report, calls = mul_count(validate_hopf, build_function_hopf(phi))
        assert report.passed and calls == 0
    report, calls = mul_count(validate_hopf, kp)
    assert report.passed and calls <= 292


def test_builtin_unit_entries_are_the_shared_one(kp, s3):
    # Stored structure constants, and the trace and cotrace derived from them.
    s4 = symmetric_group(4)
    idhom = GroupHom(s3, s3, tuple(range(s3.order)))
    algebras = [kp, dual_variants(kp, "opposite"), dual_variants(kp, "coopposite"),
                replace(build_function_hopf(idhom), crossing=conjugation_crossing(idhom)),
                build_function_hopf(GroupHom(s4, s4, tuple(range(s4.order)))),
                parse_algebra(json.loads(json.dumps(dump_algebra(builtin_algebra("fun-trivial-s4"))))),
                parse_algebra(json.loads(json.dumps(dump_algebra(kp))))]
    # A mutant's bumped entry is a sum, 0 + 1 among them.
    rng = random.Random(19)
    algebras += [mutate_algebra(kp, rng)[1] for _ in range(10)]
    algebras += [builtin_algebra(f"fun-{name}") for name in (
        "sign-s3", "mod2-z4", "mod3-z6", "trivial-z1", "trivial-z2", "trivial-z3",
        "trivial-z5", "trivial-s3", "trivial-s4")]
    algebras += [H.total[0] for H in algebras]
    for H in algebras:
        for field, key, t in structure_maps(H):
            assert all(v is ONE for v in t.data.values() if v == ONE), (field, key)
        integral = derive_integral_data(H)
        derived = [v for t in (*integral.trace, integral.cotrace) for v in t.data.values()]
        assert ONE in derived
        assert all(v is ONE for v in derived if v == ONE), derived


def test_total_tests_no_stored_entry_for_zero(is_zero_count):
    # H.total re-files stored, so nonzero, structure constants: no zero test.
    s4 = symmetric_group(4)
    H = build_function_hopf(GroupHom(s4, s4, tuple(range(s4.order))))
    (Ht, offsets), calls = is_zero_count(lambda: H.total)
    assert calls == 0
    assert offsets[-1] == 24 and len(Ht.delta[(0, 0)].data) == 24 ** 2


def test_unit_shortcut_keeps_every_violation(kp, fs3, s3, fresh_units):
    # Differential oracle: the same checks with each ONE swapped for an
    # equal fresh Scalar(1), which contract multiplies by.
    rng = random.Random(15)
    idhom = GroupHom(s3, s3, tuple(range(s3.order)))
    conj = replace(build_function_hopf(idhom), crossing=conjugation_crossing(idhom))
    algebras = []
    for H in (kp, fs3, conj):
        algebras += [H] + [mutate_algebra(H, rng)[1] for _ in range(10)]
    for H in algebras:
        slow = fresh_units(H)
        assert not any(v is ONE for _, _, t in structure_maps(slow) for v in t.data.values())
        assert validate_hopf(slow).violations == validate_hopf(H).violations
        lemmas = [check_structural_lemmas(A, derive_integral_data(A)) for A in (slow, H)]
        assert lemmas[0].violations == lemmas[1].violations
        assert validate_crossing(slow) == validate_crossing(H)


# -- duals ------------------------------------------------------------------------


def test_duals_validate():
    for H in all_constructors():
        for kind in ("opposite", "coopposite"):
            assert validate_hopf(dual_variants(H, kind)).passed, kind


def test_opposite_of_commutative_is_same(fs3):
    op = dual_variants(fs3, "opposite")
    assert op.mul == fs3.mul
    assert op.antipode == fs3.antipode  # involutory: S^-1 = S


def test_coopposite_twice_roundtrip(kp):
    twice = dual_variants(dual_variants(kp, "coopposite"), "coopposite")
    assert twice.dim == kp.dim
    assert twice.mul == kp.mul
    assert twice.delta == kp.delta
    assert twice.antipode == kp.antipode


def test_dual_kind_rejected(kp):
    with pytest.raises(ValueError):
        dual_variants(kp, "transpose")


# -- crossing -----------------------------------------------------------------------


def test_identity_crossing(kp):
    assert kp.crossing is not None
    assert validate_crossing(kp).passed


def test_crossing_absent_is_warning(fs3):
    stripped = replace(fs3, crossing=None)
    report = validate_crossing(stripped)
    assert report.passed and report.warnings


def test_identity_crossing_requires_abelian(s3):
    with pytest.raises(ValueError):
        identity_crossing_data(s3, (1,) * 6)


def test_crossing_mutation_detected(kp):
    cr = dict(kp.crossing)
    m = cr[1, 1]
    flipped = dict(m.data)
    flipped[0, 1], flipped[0, 0] = m.entry((0, 0)), m.entry((0, 1))
    cr[1, 1] = GradedTensor(m.labels, m.dims, flipped)
    bad = replace(kp, crossing=cr)
    assert not validate_crossing(bad).passed


def test_crossing_singular_and_named(kp, s3):
    # phi_1(x) = eps(x) 1 is an idempotent Hopf map of F(S3) over the trivial
    # group, so every check but invertibility passes.
    H = build_function_hopf(trivial_hom(s3))
    collapse = {(0, j): ONE for j in range(6)}
    singular = replace(H, crossing={(0, 0): GradedTensor(H.crossing[0, 0].labels, H.crossing[0, 0].dims, collapse)})
    assert validate_hopf(H).passed and not validate_crossing(singular).passed
    # A bumped entry of phi_1 on the matrix component of kp is named there.
    m = kp.crossing[1, 1]
    bumped = GradedTensor(m.labels, m.dims, {**m.data, (0, 1): ONE})
    violations = validate_crossing(replace(kp, crossing={**kp.crossing, (1, 1): bumped})).violations
    assert violations[0] == "phi_1 does not preserve the unit at basis 1 in H_1"


def test_conjugation_crossing_s3(s3):
    idhom = GroupHom(s3, s3, tuple(range(6)))
    H = replace(
        build_function_hopf(idhom), crossing=conjugation_crossing(idhom)
    )
    assert validate_crossing(H).passed
    with pytest.raises(ValueError):
        conjugation_crossing(__import__("hopfk").sign_hom_s3())


def test_with_identity_crossing(fs3):
    # build_function_hopf attaches the identity crossing when pi is abelian
    assert validate_crossing(fs3).passed


def test_checker_reads_both_leg_orders_and_keys_only_on_the_right(permute):
    left = GradedTensor(("x", "y"), (2, 2), {(0, 1): ONE, (1, 0): Scalar(2)})
    report = Report()
    check = _checker(report)
    message = "differ at {}".format
    # The same tensor stored with its legs swapped, or with a fresh Scalar(1)
    # for the shared ONE.
    assert check(message, "xy", [left], [permute(left, (1, 0))])
    assert check(message, "xy", [left], [GradedTensor.from_stored(left.labels, left.dims, {(0, 1): Scalar(1), (1, 0): Scalar(2)})])
    # Stored (y, x): (1, 0) agrees, x=1 y=0 is only on the left, and the
    # first difference in x, y order, x=0 y=0, is only on the right.
    right = GradedTensor(("y", "x"), (2, 2), {(1, 0): ONE, (0, 0): ONE})
    assert not check(message, "xy", [left], [right])
    # Every left key agrees; the right holds one more.
    more = GradedTensor(("y", "x"), (2, 2), {(1, 0): ONE, (0, 1): Scalar(2), (1, 1): I})
    assert not check(message, "yx", [left], [more])
    assert report.violations == ["differ at (0, 0)", "differ at (1, 1)"]


@pytest.mark.parametrize("right_data, first", [
    ({(0, 1): ONE}, "(1, 0)"),  # a key only on the left
    ({(0, 1): ONE, (1, 0): Scalar(2), (1, 1): I}, "(1, 1)"),  # a key only on the right
    ({(0, 1): ONE, (1, 0): Scalar(3)}, "(1, 0)"),  # a differing value
])
def test_checker_same_leg_order_reports_like_the_keyed_compare(permute, right_data, first):
    # Sides with the same leg order fail the one compare and then file the
    # violation filed when one side's legs are swapped; only the right side
    # is re-keyed, so each case runs with the sides swapped too.
    left = GradedTensor(("x", "y"), (2, 2), {(0, 1): ONE, (1, 0): Scalar(2)})
    right = GradedTensor(left.labels, left.dims, right_data)
    message = "differ at {}".format
    reports = []
    for rhs in (right, permute(right, (1, 0))):
        for sides in (([left], [rhs]), ([rhs], [left])):
            report = Report()
            assert not _checker(report)(message, "xy", *sides)
            reports.append(report.violations)
    assert reports == [[f"differ at {first}"]] * 4
