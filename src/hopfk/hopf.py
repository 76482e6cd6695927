"""Hopf group-coalgebras given by exact structure constants.

A ``HopfPiCoalgebra`` stores, for a finite group pi, the per-component
multiplication, unit, comultiplication, counit, and antipode, plus an
optional crossing.  Each structure map is one sparse ``GradedTensor``
holding only its nonzero entries, with fixed leg labels.  Everything the
invariant needs is derived from these tensors, and every defining
identity is checked exactly by ``validate_hopf`` as the equality of two
small tensor networks, contracted by the same engine as the invariant.

In-memory leg labels, in stored order, and what an entry means:

  mul[a]             (in1, in2, out)    e_i e_j = sum_k [i,j,k] e_k       in H_a
  unit[a]            (out,)             coefficients of the unit of H_a
  delta[(a,b)]       (in, out1, out2)   Delta_{a,b}(e_i) = sum [i,j,k] e_j (x) e_k,
                                        e_i in H_{ab}, e_j in H_a, e_k in H_b
  counit             (in,)              counit on the identity component
  antipode[a]        (in, out)          S_a(e_i) = sum_j [i,j] e_j        in H_{a^-1}
  crossing[b][a]     (in, out)          phi_b(e_i in H_a) = sum_j [i,j] e_j in H_{bab^-1}

The key of an entry lists its indices in leg order, so ``t.entry(key)``
is the coefficient the dense JSON format (docs/formats.md) writes at the
same nested position; ``diagio`` converts between the two.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

from .groups import GroupHom, GroupTable, Report, cyclic_group, validate_hom
from .scalars import ONE, ZERO, I, Scalar
from .tensors import GradedTensor, Leg, contract_network


class StructureError(ValueError):
    """Tensor shapes are inconsistent with the declared dimensions."""


@dataclass(eq=False)
class HopfPiCoalgebra:
    pi: GroupTable
    dim: tuple
    mul: dict
    unit: dict
    delta: dict
    counit: GradedTensor
    antipode: dict
    crossing: dict | None = None

    @property
    def dim_identity(self) -> int:
        return self.dim[self.pi.identity]

    def support(self):
        return [a for a in range(self.pi.order) if self.dim[a] > 0]


# -- tensor layout of the structure maps ---------------------------------------

# Per structure map: its leg labels, in stored order, and the leg
# dimensions as a function of (pi, dim, key), where key is the component a
# (mul, unit, antipode), the pair (a, b) (delta), the pair (b, a)
# (crossing) or None (counit).
LAYOUT = {
    "mul": (("in1", "in2", "out"), lambda pi, d, a: (d[a],) * 3),
    "unit": (("out",), lambda pi, d, a: (d[a],)),
    "delta": (("in", "out1", "out2"), lambda pi, d, k: (d[pi.mul[k[0]][k[1]]], d[k[0]], d[k[1]])),
    "counit": (("in",), lambda pi, d, _: (d[pi.identity],)),
    "antipode": (("in", "out"), lambda pi, d, a: (d[a], d[pi.inverse[a]])),
    "crossing": (("in", "out"), lambda pi, d, k: (d[k[1]], d[pi.conjugate(*k)])),
}


def structure_legs(pi: GroupTable, dim, field, key=None) -> tuple:
    """The legs ``LAYOUT`` gives the structure map ``field`` at ``key``."""
    labels, dims = LAYOUT[field]
    return tuple(map(Leg, labels, dims(pi, dim, key)))


def structure_tensor(pi: GroupTable, dim, field, key, data) -> GradedTensor:
    """A structure map with its fixed legs; ``data`` maps keys to entries."""
    return GradedTensor(structure_legs(pi, dim, field, key), data)


def check_shapes(H: HopfPiCoalgebra):
    """Raise StructureError if a structure map is missing, has legs other
    than ``structure_legs`` prescribes, or stores a key out of range."""
    pi, order = H.pi, range(H.pi.order)
    if len(H.dim) != pi.order:
        raise StructureError("dim list length differs from group order")
    maps = [("counit", None)] + [(f, a) for f in ("mul", "unit", "antipode") for a in order]
    maps += [("delta", ab) for ab in itertools.product(order, repeat=2)]
    for field, key in maps:
        t = getattr(H, field)
        if key is not None:
            if key not in t:
                raise StructureError(f"missing {field} component at {key}")
            t = t[key]
        legs = structure_legs(pi, H.dim, field, key)
        if t.legs != legs or not all(
            len(k) == len(legs) and all(0 <= i < leg.dim for i, leg in zip(k, legs))
            for k in t.data
        ):
            raise StructureError(f"{field} shape mismatch at {key}")


# -- network identities --------------------------------------------------------


def _at(t: GradedTensor, labels) -> GradedTensor:
    """``t`` with its legs, in stored order, renamed to ``labels``; a string
    names one leg per character."""
    return t.relabel(dict(zip(t.labels, labels)))


def _value(*nodes) -> Scalar:
    return contract_network(nodes).as_scalar()


def _checker(report):
    """``check(message, order, lhs, rhs)`` contracts the two networks, which
    have the same open legs, and files ``message(key)`` as a violation for
    the first key, over the legs named in ``order``, where they differ."""

    def check(message, order, lhs, rhs):
        left, right = (contract_network(side) for side in (lhs, rhs))
        left, right = (t.permute([t.axis(x) for x in order]).data for t in (left, right))
        keys = [k for k in left.keys() | right.keys() if left.get(k) != right.get(k)]
        if keys:
            report.fail(message(min(keys)))
        return not keys

    return check


def _ix(key) -> str:
    return "(" + ",".join(map(str, key)) + ")"


# -- structural validation ---------------------------------------------------


def validate_hopf(H: HopfPiCoalgebra) -> Report:
    """Check every defining identity of an involutory Hopf pi-coalgebra.

    Each identity is a pair of networks of relabelled structure tensors,
    one letter per leg, that must agree on their open legs.
    """
    check_shapes(H)
    report = Report()
    check = _checker(report)
    pi, names = H.pi, H.pi.names
    n, e = pi.order, pi.identity
    mul, unit, delta, S, eps = H.mul, H.unit, H.delta, H.antipode, H.counit

    # Associativity and unit of each component algebra.
    for a in range(n):
        mu, one = mul[a], GradedTensor.identity("x", "y", H.dim[a])
        check(lambda k: f"associativity fails in H_{names[a]} at {_ix(k[:3])}", "xyzo",
              [_at(mu, "xym"), _at(mu, "mzo")], [_at(mu, "yzm"), _at(mu, "xmo")])
        check(lambda k: f"left unit fails in H_{names[a]} at basis {k[0]}", "xy",
              [_at(unit[a], "u"), _at(mu, "uxy")], [one])
        check(lambda k: f"right unit fails in H_{names[a]} at basis {k[0]}", "xy",
              [_at(mu, "xuy"), _at(unit[a], "u")], [one])

    # Coassociativity over all triples; each Delta block plays four roles.
    role = {r: {k: _at(t, r) for k, t in delta.items()} for r in ("xml", "mjk", "xjm", "mkl")}
    for a, b, c in itertools.product(range(n), repeat=3):
        ab, bc = pi.mul[a][b], pi.mul[b][c]
        check(lambda k: f"coassociativity fails at ({names[a]},{names[b]},{names[c]}) "
              f"basis {k[0]}", "xjkl",
              [role["xml"][(ab, c)], role["mjk"][(a, b)]],
              [role["xjm"][(a, bc)], role["mkl"][(b, c)]])

    # Counit law.
    for a in range(n):
        one = GradedTensor.identity("x", "y", H.dim[a])
        check(lambda k: f"counit law (id x eps) fails in H_{names[a]} at {k[0]}", "xy",
              [_at(delta[(a, e)], "xyp"), _at(eps, "p")], [one])
        check(lambda k: f"counit law (eps x id) fails in H_{names[a]} at {k[0]}", "xy",
              [_at(delta[(e, a)], "xpy"), _at(eps, "p")], [one])

    # Antipode law, both sides.
    for a in range(n):
        ai = pi.inverse[a]
        eps_unit = [_at(eps, "x"), _at(unit[a], "p")]
        check(lambda k: f"antipode law (S x id) fails in H_{names[a]} at {k[0]}", "xp",
              [_at(delta[(ai, a)], "xjk"), _at(S[ai], "jm"), _at(mul[a], "mkp")], eps_unit)
        check(lambda k: f"antipode law (id x S) fails in H_{names[a]} at {k[0]}", "xp",
              [_at(delta[(a, ai)], "xjk"), _at(S[ai], "km"), _at(mul[a], "jmp")], eps_unit)

    # Comultiplication and counit are algebra homomorphisms.
    for a, b in itertools.product(range(n), repeat=2):
        ab, dd = pi.mul[a][b], delta[(a, b)]
        check(lambda k: f"Delta({names[a]},{names[b]}) does not preserve the unit", "jk",
              [_at(unit[ab], "i"), _at(dd, "ijk")], [_at(unit[a], "j"), _at(unit[b], "k")])
        check(lambda k: f"Delta({names[a]},{names[b]}) is not multiplicative "
              f"at basis pair {_ix(k[:2])}", "xyjk",
              [_at(mul[ab], "xym"), _at(dd, "mjk")],
              [_at(dd, "xac"), _at(dd, "ybd"), _at(mul[a], "abj"), _at(mul[b], "cdk")])
    if H.dim[e] and _value(_at(eps, "i"), _at(unit[e], "i")) != ONE:
        report.fail("counit of the unit is not 1")
    check(lambda k: f"counit is not multiplicative at {_ix(k)}", "xy",
          [_at(mul[e], "xym"), _at(eps, "m")], [_at(eps, "x"), _at(eps, "y")])

    # Involutory antipode.
    for a in range(n):
        ai = pi.inverse[a]
        check(lambda k: f"S_{names[ai]} S_{names[a]} != id at basis {k[0]}", "xy",
              [_at(S[a], "xm"), _at(S[ai], "my")], [GradedTensor.identity("x", "y", H.dim[a])])

    # Antipode anti-multiplicative with S(1) = 1.
    for a in range(n):
        ai = pi.inverse[a]
        check(lambda k: f"S_{names[a]} does not preserve the unit", "y",
              [_at(unit[a], "m"), _at(S[a], "my")], [_at(unit[ai], "y")])
        check(lambda k: f"S_{names[a]} is not anti-multiplicative at {_ix(k[:2])}", "xyo",
              [_at(mul[a], "xym"), _at(S[a], "mo")],
              [_at(S[a], "yq"), _at(S[a], "xp"), _at(mul[ai], "qpo")])

    # Antipode anti-comultiplicative; eps o S_1 = eps.
    check(lambda k: f"eps o S != eps at basis {k[0]}", "x",
          [_at(S[e], "xm"), _at(eps, "m")], [_at(eps, "x")])
    for a, b in itertools.product(range(n), repeat=2):
        ainv, binv = pi.inverse[a], pi.inverse[b]
        check(lambda k: f"antipode is not anti-comultiplicative at ({names[a]},{names[b]}) "
              f"basis {k[0]}", "xqp",
              [_at(S[pi.mul[a][b]], "xm"), _at(delta[(binv, ainv)], "mqp")],
              [_at(delta[(a, b)], "xjk"), _at(S[a], "jp"), _at(S[b], "kq")])

    # Support is a subgroup; identity component is non-trivial.
    support = set(H.support())
    for a in support:
        if pi.inverse[a] not in support:
            report.fail(f"support not closed under inverse at {names[a]}")
        for b in support:
            if pi.mul[a][b] not in support:
                report.fail(
                    f"support not closed under product at ({names[a]},{names[b]})"
                )
    if H.dim_identity == 0:
        report.fail("identity component has dimension 0")

    return report


# -- iterated comultiplication -----------------------------------------------


def iterated_delta(H: HopfPiCoalgebra, grading, x) -> GradedTensor:
    """Left-nested iterate of Delta along the given grading sequence.

    ``x`` is a coefficient vector in the component graded by the product of
    ``grading``; the result has legs labeled 0..n-1.
    """
    grading = tuple(grading)
    if not grading:
        raise ValueError("grading sequence must be non-empty")
    pi = H.pi
    prefix = [pi.identity]
    for a in grading:
        prefix.append(pi.mul[prefix[-1]][a])
    if len(x) != H.dim[prefix[-1]]:
        raise ValueError("vector length does not match graded component")
    n = len(grading)
    cur = GradedTensor.vector(("pend", n), x)
    # Peel the last grading off the pending leg, one Delta per step.
    for t in range(n - 1, 0, -1):
        node = _at(H.delta[(prefix[t], grading[t])], (("pend", t + 1), ("pend", t), t))
        cur = cur.contract(node)
    cur = cur.relabel({("pend", 1): 0})
    return cur.permute([cur.axis(t) for t in range(n)])


# -- integral data -------------------------------------------------------------


@dataclass(eq=False)
class IntegralData:
    """Trace forms T_a and the cotrace C used by the diagram invariant."""

    trace: dict  # a -> covector on H_a
    cotrace: tuple  # vector in the identity component


def derive_integral_data(H: HopfPiCoalgebra) -> IntegralData:
    """T_a(x) is the trace of right multiplication by x on H_a; C is the
    image of the trace of the identity under Delta_{1,1}."""
    pi = H.pi
    trace = {}
    for a in range(pi.order):
        T = [ZERO] * H.dim[a]
        for (k, i, m), v in H.mul[a].data.items():
            if k == m:
                T[i] += v
        trace[a] = tuple(T)
    e = pi.identity
    C = [ZERO] * H.dim[e]
    for (i, j, k), v in H.delta[(e, e)].data.items():
        if i == j:
            C[k] += v
    return IntegralData(trace, tuple(C))


def check_structural_lemmas(
    H: HopfPiCoalgebra, integral: IntegralData, cyclic_bound: int = 4
) -> Report:
    """Verify the integral and symmetry identities the invariant relies on."""
    report = Report()
    check = _checker(report)
    pi, names = H.pi, H.pi.names
    e = pi.identity
    de = H.dim[e]
    mul, unit, delta, S, eps = H.mul, H.unit, H.delta, H.antipode, H.counit
    T = {a: GradedTensor.vector("in", integral.trace[a]) for a in range(pi.order)}
    C = GradedTensor.vector("out", integral.cotrace)

    # T is a two-sided pi-integral: both sides of the defining equation.
    for a, b in itertools.product(range(pi.order), repeat=2):
        ab, dd = pi.mul[a][b], _at(delta[(a, b)], "xjk")
        check(lambda k: f"(id x T) integral equation fails at ({names[a]},{names[b]}) "
              f"basis {k[0]}", "xj",
              [dd, _at(T[b], "k")], [_at(T[ab], "x"), _at(unit[a], "j")])
        check(lambda k: f"(T x id) integral equation fails at ({names[a]},{names[b]}) "
              f"basis {k[0]}", "xk",
              [dd, _at(T[a], "j")], [_at(T[ab], "x"), _at(unit[b], "k")])

    # C is a two-sided integral for the identity component.
    eps_C = [_at(eps, "x"), _at(C, "y")]
    check(lambda k: f"C is not a left integral at basis {k[0]}", "xy",
          [_at(mul[e], "xcy"), _at(C, "c")], eps_C)
    check(lambda k: f"C is not a right integral at basis {k[0]}", "xy",
          [_at(C, "c"), _at(mul[e], "cxy")], eps_C)

    # Scalar identities.
    dim_scalar = Scalar(de)
    if _value(_at(T[e], "i"), _at(unit[e], "i")) != dim_scalar:
        report.fail("T(1) != dim of identity component")
    if _value(_at(eps, "i"), _at(C, "i")) != dim_scalar:
        report.fail("eps(C) != dim of identity component")
    if _value(_at(T[e], "i"), _at(C, "i")) != dim_scalar:
        report.fail("T(C) != dim of identity component")
    check(lambda k: "S(C) != C", "y", [_at(C, "m"), _at(S[e], "my")], [_at(C, "y")])
    for a in range(pi.order):
        check(lambda k: f"T o S != T in H_{names[a]} at basis {k[0]}", "x",
              [_at(S[a], "xm"), _at(T[pi.inverse[a]], "m")], [_at(T[a], "x")])

    # dim H_a = dim H_1 on the support (characteristic-zero statement),
    # and the semisimplicity criterion T_a(1_a) = dim H_1 != 0.
    for a in H.support():
        if H.dim[a] != de:
            report.fail(
                f"dim H_{names[a]} = {H.dim[a]} differs from identity "
                f"component dimension {de}"
            )
        if _value(_at(T[a], "i"), _at(unit[a], "i")) != dim_scalar:
            report.fail(f"T(1) in H_{names[a]} differs from dim of H at identity")

    # Cyclic symmetry of T o m^(n) for n up to the bound: the word
    # T(x_0 x_1 ... x_{n-1}) must equal T(x_1 ... x_{n-1} x_0).
    for a in H.support():
        for arity in range(2, cyclic_bound + 1):
            chain = [_at(mul[a], (0, 1, ("p", 1)))]
            chain += [_at(mul[a], (("p", t - 1), t, ("p", t))) for t in range(2, arity)]
            word = contract_network(chain + [_at(T[a], [("p", arity - 1)])])
            rotated = word.relabel({t: (t + 1) % arity for t in range(arity)})
            if not check(lambda k: f"trace product not cyclically symmetric in "
                         f"H_{names[a]} at {k} (arity {arity})",
                         range(arity), [word], [rotated]):
                break

    # Cyclic symmetry of the iterated coproduct of C: the coproduct along
    # the rotated grading, its legs shifted back by one, must give it back.
    support = H.support()
    for arity in range(2, cyclic_bound + 1):
        for grading in itertools.product(support, repeat=arity - 1):
            last = pi.inverse[functools.reduce(lambda x, g: pi.mul[x][g], grading, e)]
            if last not in support:
                continue
            full = grading + (last,)
            rotated = iterated_delta(H, full[1:] + full[:1], integral.cotrace)
            check(lambda k: f"iterated coproduct of C not cyclically symmetric for grading "
                  f"{tuple(names[g] for g in full)}", range(arity),
                  [iterated_delta(H, full, integral.cotrace)],
                  [rotated.relabel({t: (t + 1) % arity for t in range(arity)})])

    return report


# -- constructors -----------------------------------------------------------


def _fibers(phi: GroupHom):
    """Per element a of the target: the fiber of a (the basis of the
    component at a), and the position of each fiber element in it."""
    fibers = {a: phi.fiber(a) for a in range(phi.target.order)}
    return fibers, {a: {g: i for i, g in enumerate(f)} for a, f in fibers.items()}


def build_function_hopf(phi: GroupHom) -> HopfPiCoalgebra:
    """Functions on a finite group G, graded over pi by a homomorphism phi.

    Basis of the component at a: delta functions e_g for g in the fiber of
    a.  Multiplication is pointwise, the coproduct is convolution-style,
    and the antipode is induced by inversion.
    """
    report = validate_hom(phi)
    if not report.passed:
        raise ValueError("invalid group homomorphism: " + "; ".join(report.violations))
    G, pi = phi.source, phi.target
    fibers, pos = _fibers(phi)
    dim = tuple(len(fibers[a]) for a in range(pi.order))
    tensor = functools.partial(structure_tensor, pi, dim)
    mul, unit, antipode, delta = {}, {}, {}, {}
    for a, fiber in fibers.items():
        mul[a] = tensor("mul", a, {(i, i, i): ONE for i in range(dim[a])})
        unit[a] = tensor("unit", a, {(i,): ONE for i in range(dim[a])})
        inverse = pos[pi.inverse[a]]
        antipode[a] = tensor("antipode", a, {
            (i, inverse[G.inverse[g]]): ONE for i, g in enumerate(fiber)
        })
        for b in range(pi.order):
            product = pos[pi.mul[a][b]]
            delta[(a, b)] = tensor("delta", (a, b), {
                (product[G.mul[g][h]], i, j): ONE
                for i, g in enumerate(fiber)
                for j, h in enumerate(fibers[b])
            })
    counit = tensor("counit", None, {(pos[pi.identity][G.identity],): ONE})
    crossing = identity_crossing_data(pi, dim) if pi.is_abelian() else None
    return HopfPiCoalgebra(pi, dim, mul, unit, delta, counit, antipode, crossing)


def conjugation_crossing(phi: GroupHom, section=None):
    """Crossing data for the function algebra graded through phi, induced
    by conjugation along a multiplicative section of phi.

    ``section[b]`` must be a source element over b with section[b b'] =
    section[b] section[b']; when phi is the identity the canonical choice
    ``section[b] = b`` is used.
    """
    G, pi = phi.source, phi.target
    if section is None:
        if G is not pi and G != pi:
            raise ValueError("no canonical section; provide one explicitly")
        section = tuple(range(pi.order))
    for b in range(pi.order):
        if phi(section[b]) != b:
            raise ValueError(f"section does not lie over element {pi.names[b]!r}")
        for b2 in range(pi.order):
            if section[pi.mul[b][b2]] != G.mul[section[b]][section[b2]]:
                raise ValueError("section is not multiplicative")
    fibers, pos = _fibers(phi)
    dim = tuple(len(fibers[a]) for a in range(pi.order))

    def phi_b(b, a):
        image = pos[pi.conjugate(b, a)]
        data = {(i, image[G.conjugate(section[b], g)]): ONE for i, g in enumerate(fibers[a])}
        return structure_tensor(pi, dim, "crossing", (b, a), data)

    return {b: {a: phi_b(b, a) for a in range(pi.order)} for b in range(pi.order)}


def identity_crossing_data(pi: GroupTable, dim):
    """The identity crossing, available whenever pi is abelian."""
    if not pi.is_abelian():
        raise ValueError("identity crossing requires an abelian group")
    return {
        b: {a: structure_tensor(pi, dim, "crossing", (b, a), {(i, i): ONE for i in range(dim[a])})
            for a in range(pi.order)}
        for b in range(pi.order)
    }


def with_identity_crossing(H: HopfPiCoalgebra) -> HopfPiCoalgebra:
    return replace(H, crossing=identity_crossing_data(H.pi, H.dim))


def build_kac_paljutkin() -> HopfPiCoalgebra:
    """The 8-dimensional Kac-Paljutkin algebra as a Z/2-graded coalgebra.

    Component 0 is Q(i)^4 with pointwise product, component 1 is the 2x2
    matrix algebra with basis (e11, e12, e21, e22).  The coproduct blocks
    are hard-coded; ``validate_hopf`` re-derives all axioms from them.
    """
    pi = cyclic_group(2)
    dim = (4, 4)
    half = Scalar(1) / Scalar(2)
    tensor = functools.partial(structure_tensor, pi, dim)
    # Matrix units in order e11, e12, e21, e22: e_{ab} e_{cd} = [b==c] e_{ad}.
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    pidx = {p: i for i, p in enumerate(pairs)}
    matrix_units = {
        (i, j, pidx[(a1, b2)]): ONE
        for i, (a1, b1) in enumerate(pairs)
        for j, (a2, b2) in enumerate(pairs)
        if b1 == a2
    }
    pointwise = {(i, i, i): ONE for i in range(4)}
    mul = {0: tensor("mul", 0, pointwise), 1: tensor("mul", 1, matrix_units)}
    unit = {0: {(i,): ONE for i in range(4)}, 1: {(0,): ONE, (3,): ONE}}
    unit = {a: tensor("unit", a, data) for a, data in unit.items()}
    counit = tensor("counit", None, {(0,): ONE})

    # Coproduct blocks, row i listing the terms (j, k, c) of Delta(e_i) =
    # sum c e_j (x) e_k; the rows of the blocks into component 1 are indexed
    # by the matrix-unit basis e11, e12, e21, e22.
    blocks = {
        (0, 0): [
            [(0, 0, ONE), (1, 1, ONE), (2, 2, ONE), (3, 3, ONE)],
            [(0, 1, ONE), (1, 0, ONE), (2, 3, ONE), (3, 2, ONE)],
            [(0, 2, ONE), (2, 0, ONE), (1, 3, ONE), (3, 1, ONE)],
            [(0, 3, ONE), (3, 0, ONE), (1, 2, ONE), (2, 1, ONE)],
        ],
        (0, 1): [
            [(0, 0, ONE), (1, 3, ONE), (2, 0, ONE), (3, 3, ONE)],
            [(0, 1, ONE), (1, 2, -I), (2, 1, -ONE), (3, 2, I)],
            [(0, 2, ONE), (1, 1, I), (2, 2, -ONE), (3, 1, -I)],
            [(0, 3, ONE), (1, 0, ONE), (2, 3, ONE), (3, 0, ONE)],
        ],
        (1, 0): [
            [(0, 0, ONE), (3, 1, ONE), (0, 2, ONE), (3, 3, ONE)],
            [(1, 0, ONE), (2, 1, I), (1, 2, -ONE), (2, 3, -I)],
            [(2, 0, ONE), (1, 1, -I), (2, 2, -ONE), (1, 3, I)],
            [(3, 0, ONE), (0, 1, ONE), (3, 2, ONE), (0, 3, ONE)],
        ],
        (1, 1): [
            [(0, 0, half), (3, 3, half), (1, 1, half), (2, 2, half)],
            [(0, 3, half), (3, 0, half), (1, 2, half * I), (2, 1, -half * I)],
            [(0, 0, half), (3, 3, half), (1, 1, -half), (2, 2, -half)],
            [(0, 3, half), (3, 0, half), (1, 2, -half * I), (2, 1, half * I)],
        ],
    }
    delta = {
        key: tensor("delta", key, {(i, j, k): c for i, row in enumerate(rows) for j, k, c in row})
        for key, rows in blocks.items()
    }
    antipode = {
        0: tensor("antipode", 0, {(i, i): ONE for i in range(4)}),
        1: tensor("antipode", 1, {(i, pidx[(q, p)]): ONE for i, (p, q) in enumerate(pairs)}),
    }
    crossing = identity_crossing_data(pi, dim)
    return HopfPiCoalgebra(pi, dim, mul, unit, delta, counit, antipode, crossing)


def dual_variants(H: HopfPiCoalgebra, kind: str) -> HopfPiCoalgebra:
    """The opposite (reversed products) or coopposite (regraded, flipped
    coproducts) coalgebra; both need the inverse antipode, which exists in
    finite type."""
    pi, inv, els = H.pi, H.pi.inverse, range(H.pi.order)
    if kind == "opposite":
        mul = {a: GradedTensor(t.legs, {(j, i, k): v for (i, j, k), v in t.data.items()})
               for a, t in H.mul.items()}
        antipode = {a: H.antipode[inv[a]].inverse() for a in els}
        return HopfPiCoalgebra(pi, H.dim, mul, dict(H.unit), dict(H.delta), H.counit, antipode)
    if kind == "coopposite":
        dim = tuple(H.dim[inv[a]] for a in els)
        delta = {
            (a, b): structure_tensor(pi, dim, "delta", (a, b), {
                (i, k, j): v for (i, j, k), v in H.delta[(inv[b], inv[a])].data.items()
            })
            for a, b in itertools.product(els, repeat=2)
        }
        mul, unit = ({a: block[inv[a]] for a in els} for block in (H.mul, H.unit))
        antipode = {a: H.antipode[a].inverse() for a in els}
        return HopfPiCoalgebra(pi, dim, mul, unit, delta, H.counit, antipode)
    raise ValueError(f"unknown dual kind {kind!r}")


def validate_crossing(H: HopfPiCoalgebra) -> Report:
    """Check the optional crossing: algebra isomorphisms conjugating the
    grading, multiplicative in the crossing index, preserving Delta, eps,
    and (hence, checked anyway) S."""
    report = Report()
    if H.crossing is None:
        report.warn("crossing data not provided")
        return report
    check = _checker(report)
    pi, names = H.pi, H.pi.names
    n, e = pi.order, pi.identity
    phi, mul, unit, delta, S, eps = H.crossing, H.mul, H.unit, H.delta, H.antipode, H.counit

    for b in range(n):
        if b not in phi:
            report.fail(f"crossing missing component for {names[b]}")
            return report
        for a in range(n):
            t = pi.conjugate(b, a)
            if H.dim[a] != H.dim[t]:
                report.fail(f"crossing phi_{names[b]} cannot be iso on H_{names[a]}")
                continue
            try:
                phi[b][a].inverse()
            except ZeroDivisionError:
                report.fail(f"phi_{names[b]} is singular on H_{names[a]}")
            check(lambda k: f"phi_{names[b]} does not preserve the unit of H_{names[a]}", "y",
                  [_at(unit[a], "m"), _at(phi[b][a], "my")], [_at(unit[t], "y")])
            check(lambda k: f"phi_{names[b]} not multiplicative on H_{names[a]} "
                  f"at {_ix(k[:2])}", "xyo",
                  [_at(mul[a], "xym"), _at(phi[b][a], "mo")],
                  [_at(phi[b][a], "xp"), _at(phi[b][a], "yq"), _at(mul[t], "pqo")])
            # Antipode compatibility.
            check(lambda k: f"phi_{names[b]} does not commute with S on H_{names[a]} "
                  f"at {k[0]}", "xo",
                  [_at(S[a], "xm"), _at(phi[b][pi.inverse[a]], "mo")],
                  [_at(phi[b][a], "xm"), _at(S[t], "mo")])

    # Counit and coproduct preservation.
    for b in range(n):
        check(lambda k: f"phi_{names[b]} does not preserve the counit at {k[0]}", "x",
              [_at(phi[b][e], "xm"), _at(eps, "m")], [_at(eps, "x")])
        for a, g in itertools.product(range(n), repeat=2):
            ta, tg = pi.conjugate(b, a), pi.conjugate(b, g)
            check(lambda k: f"phi_{names[b]} does not preserve Delta on "
                  f"({names[a]},{names[g]}) at basis {k[0]}", "xpq",
                  [_at(delta[(a, g)], "xjk"), _at(phi[b][a], "jp"), _at(phi[b][g], "kq")],
                  [_at(phi[b][pi.mul[a][g]], "xm"), _at(delta[(ta, tg)], "mpq")])

    # Multiplicativity in the crossing index.
    for b1, b2, a in itertools.product(range(n), repeat=3):
        check(lambda k: f"crossing not multiplicative: phi_{names[b1]} o "
              f"phi_{names[b2]} != phi on H_{names[a]} at basis {k[0]}", "xy",
              [_at(phi[b2][a], "xm"), _at(phi[b1][pi.conjugate(b2, a)], "my")],
              [_at(phi[pi.mul[b1][b2]][a], "xy")])
    return report
