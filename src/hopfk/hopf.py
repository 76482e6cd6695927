"""Hopf group-coalgebras given by exact structure constants.

A ``HopfPiCoalgebra`` stores, for a finite group pi, the per-component
multiplication, unit, comultiplication, counit, and antipode, plus an
optional crossing.  Each structure map is one sparse ``GradedTensor``
holding only its nonzero entries, with fixed leg labels.  Everything the
invariant needs is derived from these tensors, and every defining
identity is checked exactly by ``validate_hopf`` as the equality of two
small tensor networks, contracted by the same engine as the invariant.
Every network renames its legs by position (``GradedTensor.relabel``), so
the stored labels below, defined in ``LAYOUT``, are read only here.

In-memory leg labels, in stored order, and what an entry means:

  mul[a]             (in1, in2, out)    e_i e_j = sum_k [i,j,k] e_k       in H_a
  unit[a]            (out,)             coefficients of the unit of H_a
  delta[(a,b)]       (in, out1, out2)   Delta_{a,b}(e_i) = sum [i,j,k] e_j (x) e_k,
                                        e_i in H_{ab}, e_j in H_a, e_k in H_b
  counit             (in,)              counit on the identity component
  antipode[a]        (in, out)          S_a(e_i) = sum_j [i,j] e_j        in H_{a^-1}
  crossing[(b,a)]    (in, out)          phi_b(e_i in H_a) = sum_j [i,j] e_j in H_{bab^-1}

The key of an entry lists its indices in leg order, so ``t.entry(key)``
is the coefficient the dense JSON format (docs/formats.md) writes at the
same nested position; ``diagio`` converts between the two.

``HopfPiCoalgebra.total`` adds the components up to the total algebra
H_tot, an ordinary Hopf algebra, and the validators check each identity
once there: a graded identity is one block of the matching identity of
H_tot.  That holds for every axiom, coassociativity included (checked
one basis vector of H_tot at a time), and for the integral identities
and the cyclic lemmas.  A crossing is an action of pi on H_tot by Hopf
automorphisms phi_b sending H_a to H_{bab^-1}, and is checked as such.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, replace

from .groups import GroupHom, GroupTable, Report, cyclic_group, trivial_group, validate_hom
from .scalars import ONE, I, Scalar
from .tensors import GradedTensor, Leg, contract_network, projection


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

    @functools.cached_property
    def integral_data(self) -> IntegralData:
        """T_a(x) is the trace of right multiplication by x on H_a; C is the
        image of the trace of the identity under Delta_{1,1}: each a structure
        tensor closed over two legs by the identity matrix, contracted by the
        engine; ``trace`` is indexed by group element, like ``dim``.  Derived
        once per algebra object, like ``total``; a ``replace``d copy derives
        its own.  Each is rebuilt from its entries, so an entry equal to 1 is
        the shared ``ONE`` (see ``GradedTensor``)."""
        e = self.pi.identity
        # Each tensor with its legs i and j closed by the identity matrix.
        closed = [(self.mul[a], ("i", "in", "j"), self.dim[a]) for a in range(self.pi.order)]
        closed.append((self.delta[(e, e)], ("i", "j", "out"), self.dim[e]))
        derived = (contract_network([t.relabel(labels), GradedTensor.identity("i", "j", dim)])
                   for t, labels, dim in closed)
        *trace, cotrace = (GradedTensor(t.legs, t.data) for t in derived)
        return IntegralData(tuple(trace), cotrace)

    @functools.cached_property
    def total(self):
        """H_tot, the sum of the H_a, over the trivial group, and the offsets:
        H_a is spanned by basis vectors offsets[a] to offsets[a + 1] - 1.  The
        product is block-diagonal, the unit and Delta are the sums of the
        graded ones, eps is eps on H_1 and S is the sum of the S_a.  Derived
        once, like ``integral_data``; a failed ``check_shapes`` raises on every read."""
        check_shapes(self)
        offsets = tuple(itertools.accumulate(self.dim, initial=0))
        blocks = {}
        for field, key, t in structure_maps(replace(self, crossing=None)):
            blocks.setdefault(field, []).append((LAYOUT[field][2](self.pi, key), t))
        tot = {field: _direct_sum(offsets, LAYOUT[field][0], b) for field, b in blocks.items()}
        return HopfPiCoalgebra(trivial_group(), (offsets[-1],), {0: tot["mul"]}, {0: tot["unit"]},
                               {(0, 0): tot["delta"]}, tot["counit"], {0: tot["antipode"]}), offsets


# -- tensor layout of the structure maps ---------------------------------------

# Per structure map, in the order of the ``HopfPiCoalgebra`` fields: its
# leg labels, in stored order; how many group elements key a component;
# and the component each leg runs over, as a function of (pi, key), where
# key is the component a (mul, unit, antipode), the pair (a, b) (delta),
# the pair (b, a) (crossing) or None (counit).
LAYOUT = {
    "mul": (("in1", "in2", "out"), 1, lambda pi, a: (a, a, a)),
    "unit": (("out",), 1, lambda pi, a: (a,)),
    "delta": (("in", "out1", "out2"), 2, lambda pi, k: (pi.mul[k[0]][k[1]], *k)),
    "counit": (("in",), 0, lambda pi, _: (pi.identity,)),
    "antipode": (("in", "out"), 1, lambda pi, a: (a, pi.inverse[a])),
    "crossing": (("in", "out"), 2, lambda pi, k: (k[1], pi.conjugate(*k))),
}


def component_key(elements):
    """The key of the component named by the group elements ``elements``:
    None for none, the element for one, the tuple for a pair."""
    return elements[0] if len(elements) == 1 else tuple(elements) or None


def structure_maps(H: HopfPiCoalgebra):
    """``(field, key, component)`` for every component of every structure
    map, in ``LAYOUT`` order; the component is None where it is missing.
    The crossing is listed only when it is given."""
    elements = range(H.pi.order)
    for field, (_, arity, _) in LAYOUT.items():
        stored = getattr(H, field)
        if stored is None:
            continue
        if not arity:
            yield field, None, stored
            continue
        for key in itertools.product(elements, repeat=arity):
            key = component_key(key)
            yield field, key, stored.get(key)


def structure_legs(pi: GroupTable, dim, field, key=None) -> tuple:
    """The legs ``LAYOUT`` gives the structure map ``field`` at ``key``."""
    if len(dim) != pi.order:
        raise StructureError("dim list length differs from group order")
    labels, _, grades = LAYOUT[field]
    return tuple(Leg(label, dim[a]) for label, a in zip(labels, grades(pi, key)))


def structure_tensor(pi: GroupTable, dim, field, key, data) -> GradedTensor:
    """A structure map with its fixed legs; ``data`` maps keys to entries."""
    return GradedTensor(structure_legs(pi, dim, field, key), data)


def check_shapes(H: HopfPiCoalgebra):
    """Raise StructureError if ``dim`` does not fit the group, or if a
    component of ``structure_maps`` is missing, has legs other than
    ``structure_legs`` prescribes, or stores a key out of range."""
    for field, key, t in structure_maps(H):
        legs = structure_legs(H.pi, H.dim, field, key)
        if t is None:
            raise StructureError(f"missing {field} component at {key}")
        if t.legs != legs or not all(
            len(k) == len(legs) and all(0 <= i < leg.dim for i, leg in zip(k, legs))
            for k in t.data
        ):
            raise StructureError(f"{field} shape mismatch at {key}")


# -- the total algebra ---------------------------------------------------------


def _direct_sum(offsets, labels, blocks) -> GradedTensor:
    """The tensor on H_tot, with legs ``labels``, made of the ``blocks``
    ``(components, t)``: leg i of t runs over H_{components[i]}."""
    data = {}
    for components, t in blocks:
        shift = [offsets[a] for a in components]
        data.update({tuple(i + s for i, s in zip(key, shift)): v for key, v in t.data.items()})
    return GradedTensor.from_stored([Leg(label, offsets[-1]) for label in labels], data)


def _namer(H: HopfPiCoalgebra):
    """How a violation names the basis vectors of H_tot (see ``H.total``):
    ``name(i)`` is the name of the component of basis vector i, or with
    ``invert`` of its inverse; ``local(key)`` the indices of the basis
    vectors ``key`` in their components; ``at(i)`` the text "j in H_a"."""
    offsets, names, inv = H.total[1], H.pi.names, H.pi.inverse

    def grade(i):
        return bisect.bisect_right(offsets, i) - 1

    def name(i, invert=False):
        return names[inv[grade(i)] if invert else grade(i)]

    def local(key):
        return tuple(i - offsets[grade(i)] for i in key)

    def at(i):
        return f"{local((i,))[0]} in H_{name(i)}"

    return name, local, at


# -- network identities --------------------------------------------------------


def _value(*nodes) -> Scalar:
    return contract_network(nodes).as_scalar()


def _checker(report):
    """``check(message, order, lhs, rhs)`` contracts the two networks, which
    have the same open legs, and files ``message(key)`` as a violation for
    the first key, over the legs named in ``order``, where they differ.

    There is one path.  Each right key is read in the left side's leg order
    through one projection, and the left's values at those keys are
    compared with the right's in one C-level list compare (which takes a
    shared ``ONE`` by identity).  No re-keyed copy of the right is built: a
    one-node side is its node, a stored tensor renamed by ``relabel``, which
    shares the stored dict.  Only a failing check builds one."""

    def check(message, order, lhs, rhs):
        left, right = (contract_network(side) for side in (lhs, rhs))
        ldata, rdata = left.data, right.data
        to_left = projection([right.axis(x) for x in left.labels])
        if len(ldata) == len(rdata) and [*map(ldata.get, map(to_left, rdata))] == [*rdata.values()]:
            return True
        rdata = dict(zip(map(to_left, rdata), rdata.values()))
        to_order = projection([left.axis(x) for x in order])
        report.fail(message(min(to_order(k) for k in ldata.keys() | rdata.keys()
                                if ldata.get(k) != rdata.get(k))))
        return False

    return check


def _ix(key) -> str:
    return "(" + ",".join(map(str, key)) + ")"


# -- structural validation ---------------------------------------------------


def validate_hopf(H: HopfPiCoalgebra) -> Report:
    """Check every defining identity of an involutory Hopf pi-coalgebra.

    Each identity is a pair of networks of relabelled structure tensors,
    one letter per leg, that must agree on their open legs.  Each is
    checked once on H_tot (see ``H.total``): each graded identity is one
    block of the matching identity of H_tot, and a violation names the
    components of its first differing entry.  That the support is a
    subgroup follows: Delta_{a,b}(1_ab) = 1_a (x) 1_b is nonzero when H_a
    and H_b are, and a finite set closed under products is a subgroup.
    """
    Ht, offsets = H.total
    report = Report()
    check = _checker(report)
    name, local, _ = _namer(H)
    mul, unit, delta, S, eps = Ht.mul[0], Ht.unit[0], Ht.delta[(0, 0)], Ht.antipode[0], Ht.counit
    one = GradedTensor.identity("x", "y", offsets[-1])

    # Associativity and unit.
    check(lambda k: f"associativity fails in H_{name(k[0])} at {_ix(local(k[:3]))}", "xyzo",
          [mul.relabel("xym"), mul.relabel("mzo")], [mul.relabel("yzm"), mul.relabel("xmo")])
    check(lambda k: f"left unit fails in H_{name(k[0])} at basis {local(k)[0]}", "xy",
          [unit.relabel("u"), mul.relabel("uxy")], [one])
    check(lambda k: f"right unit fails in H_{name(k[0])} at basis {local(k)[0]}", "xy",
          [mul.relabel("xuy"), unit.relabel("u")], [one])

    # Coassociativity, one basis vector x of H_tot at a time, so each side holds
    # only the terms of Delta(x) split three ways (|G|^2 for F(G), not |G|^3).
    # The row Delta(x) goes second: the hash join buckets it, not all of Delta.
    rows = {}
    for key, v in delta.data.items():
        rows.setdefault(key[0], {})[key] = v
    for x in sorted(rows):
        row = GradedTensor.from_stored(delta.legs, rows[x])
        if not check(lambda k: f"coassociativity fails at ({name(k[1])},{name(k[2])},"
                     f"{name(k[3])}) basis {local(k)[0]}", "xjkl",
                     [delta.relabel("mjk"), row.relabel("xml")],
                     [delta.relabel("mkl"), row.relabel("xjm")]):
            break

    # Counit law.
    check(lambda k: f"counit law (id x eps) fails in H_{name(k[0])} at {local(k)[0]}", "xy",
          [delta.relabel("xyp"), eps.relabel("p")], [one])
    check(lambda k: f"counit law (eps x id) fails in H_{name(k[0])} at {local(k)[0]}", "xy",
          [delta.relabel("xpy"), eps.relabel("p")], [one])

    # Antipode law, both sides.
    eps_unit = [eps.relabel("x"), unit.relabel("p")]
    check(lambda k: f"antipode law (S x id) fails in H_{name(k[1])} at {local(k)[0]}", "xp",
          [delta.relabel("xjk"), S.relabel("jm"), mul.relabel("mkp")], eps_unit)
    check(lambda k: f"antipode law (id x S) fails in H_{name(k[1])} at {local(k)[0]}", "xp",
          [delta.relabel("xjk"), S.relabel("km"), mul.relabel("jmp")], eps_unit)

    # Comultiplication and counit are algebra homomorphisms.
    check(lambda k: f"Delta({name(k[0])},{name(k[1])}) does not preserve the unit", "jk",
          [unit.relabel("i"), delta.relabel("ijk")], [unit.relabel("j"), unit.relabel("k")])
    check(lambda k: f"Delta({name(k[2])},{name(k[3])}) is not multiplicative "
          f"at basis pair {_ix(local(k[:2]))}", "xyjk",
          [mul.relabel("xym"), delta.relabel("mjk")],
          [delta.relabel("xac"), delta.relabel("ybd"), mul.relabel("abj"), mul.relabel("cdk")])
    if H.dim_identity and _value(eps.relabel("i"), unit.relabel("i")) != ONE:
        report.fail("counit of the unit is not 1")
    check(lambda k: f"counit is not multiplicative at {_ix(local(k))}", "xy",
          [mul.relabel("xym"), eps.relabel("m")], [eps.relabel("x"), eps.relabel("y")])

    # Involutory antipode.
    check(lambda k: f"S_{name(k[0], True)} S_{name(k[0])} != id at basis {local(k)[0]}", "xy",
          [S.relabel("xm"), S.relabel("my")], [one])

    # Antipode anti-multiplicative with S(1) = 1.
    check(lambda k: f"S_{name(k[0], True)} does not preserve the unit", "y",
          [unit.relabel("m"), S.relabel("my")], [unit.relabel("y")])
    check(lambda k: f"S_{name(k[0])} is not anti-multiplicative at {_ix(local(k[:2]))}", "xyo",
          [mul.relabel("xym"), S.relabel("mo")], [S.relabel("yq"), S.relabel("xp"), mul.relabel("qpo")])

    # Antipode anti-comultiplicative; eps o S = eps.
    check(lambda k: f"eps o S != eps at basis {local(k)[0]}", "x",
          [S.relabel("xm"), eps.relabel("m")], [eps.relabel("x")])
    check(lambda k: f"antipode is not anti-comultiplicative at ({name(k[2], True)},"
          f"{name(k[1], True)}) basis {local(k)[0]}", "xqp",
          [S.relabel("xm"), delta.relabel("mqp")], [delta.relabel("xjk"), S.relabel("jp"), S.relabel("kq")])

    if H.dim_identity == 0:
        report.fail("identity component has dimension 0")

    return report


# -- iterated products and coproducts -------------------------------------------


def product_chain(H: HopfPiCoalgebra, a, legs, tag):
    """The ``mul[a]`` nodes that multiply the vectors on ``legs`` from left
    to right, and the leg that carries the product.  Fresh legs are named
    ``(*tag, t)``; the empty product is the unit of H_a, on ``(*tag, 0)``."""
    legs = list(legs)
    if not legs:
        return [H.unit[a].relabel([(*tag, 0)])], (*tag, 0)
    # pending[t] carries the product of the first t + 1 legs.
    pending = legs[:1] + [(*tag, t) for t in range(1, len(legs))]
    nodes = [H.mul[a].relabel((pending[t - 1], legs[t], pending[t])) for t in range(1, len(legs))]
    return nodes, pending[-1]


def coproduct_chain(H: HopfPiCoalgebra, grading, legs, tag):
    """The right-nested ``delta`` nodes that split one vector over ``legs``,
    leg t graded ``grading[t]``, and the leg that takes the vector.  Node t
    is ``delta[(g_t, g_{t+1} ... g_{m-1})]``; fresh legs are named
    ``(*tag, t)``; the empty coproduct is the counit, on ``(*tag, 0)``."""
    legs, mul = list(legs), H.pi.mul
    if not legs:
        return [H.counit.relabel([(*tag, 0)])], (*tag, 0)
    # suffix[t] = g_t ... g_{m-1} grades pending leg t.
    suffix = list(itertools.accumulate(reversed(grading), lambda s, g: mul[g][s]))[::-1]
    pending = [(*tag, t) for t in range(len(legs) - 1)] + legs[-1:]
    nodes = [
        H.delta[(g, s)].relabel((p, leg, q))
        for g, s, p, leg, q in zip(grading, suffix[1:], pending, legs, pending[1:])
    ]
    return nodes, pending[0]


# -- integral data -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntegralData:
    """Trace forms T_a and the cotrace C used by the diagram invariant (see
    ``HopfPiCoalgebra.integral_data``).  One object is shared by every caller on an
    algebra, so it is read-only; ``replace`` makes a changed copy."""

    trace: tuple  # a -> T_a, a covector on H_a with leg "in"
    cotrace: GradedTensor  # C, a vector in H_1 with leg "out"


def derive_integral_data(H: HopfPiCoalgebra) -> IntegralData:
    """``H.integral_data``: the same object on every call on one algebra."""
    return H.integral_data


def check_structural_lemmas(
    H: HopfPiCoalgebra, integral: IntegralData,
    cyclic_bound: int = 4,  # unread: kept while bench/workloads.py still passes it
) -> Report:
    """Verify the integral and symmetry identities the invariant relies on.

    Cyclic symmetry of T and C is checked at arity 2, which implies every
    arity given (co)associativity (``validate_hopf`` checks it first):
    T(x_0 (x_1...x_n)) = T((x_1...x_n) x_0), and swapping the factors of
    Delta(C) in (id x Delta^(n-1)) Delta(C) gives (Delta^(n-1) x id) Delta(C),
    with leg 0 moved last.  Neither step needs T or C derived from H."""
    report = Report()
    check = _checker(report)
    names, e = H.pi.names, H.pi.identity
    de, unit, eps = H.dim[e], H.unit, H.counit
    T, C = integral.trace, integral.cotrace

    # The linear identities hold on H_tot (see ``H.total``), block by block,
    # with T_tot the sum of the T_a and C in the block of H_1.
    Ht, offsets = H.total
    name, local, at = _namer(H)
    mul, delta, S = Ht.mul[0], Ht.delta[(0, 0)], Ht.antipode[0]
    T_tot = _direct_sum(offsets, ("in",), [((a,), t) for a, t in enumerate(T)])
    C_tot = _direct_sum(offsets, ("out",), [((e,), C)])

    # T is a two-sided pi-integral: both sides of the defining equation.
    dd = delta.relabel("xjk")
    check(lambda k: f"(id x T) integral equation fails at basis pair ({at(k[0])}, {at(k[1])})",
          "xj", [dd, T_tot.relabel("k")], [T_tot.relabel("x"), Ht.unit[0].relabel("j")])
    check(lambda k: f"(T x id) integral equation fails at basis pair ({at(k[0])}, {at(k[1])})",
          "xk", [dd, T_tot.relabel("j")], [T_tot.relabel("x"), Ht.unit[0].relabel("k")])

    # C is a two-sided integral for the identity component.
    eps_C = [Ht.counit.relabel("x"), C_tot.relabel("y")]
    check(lambda k: f"C is not a left integral at basis {at(k[0])}", "xy",
          [mul.relabel("xcy"), C_tot.relabel("c")], eps_C)
    check(lambda k: f"C is not a right integral at basis {at(k[0])}", "xy",
          [C_tot.relabel("c"), mul.relabel("cxy")], eps_C)
    check(lambda k: "S(C) != C", "y", [C_tot.relabel("m"), S.relabel("my")], [C_tot.relabel("y")])
    check(lambda k: f"T o S != T at basis {at(k[0])}", "x",
          [S.relabel("xm"), T_tot.relabel("m")], [T_tot.relabel("x")])

    # Scalar identities.
    dim_scalar = Scalar(de)
    if _value(eps.relabel("i"), C.relabel("i")) != dim_scalar:
        report.fail("eps(C) != dim of identity component")
    if _value(T[e].relabel("i"), C.relabel("i")) != dim_scalar:
        report.fail("T(C) != dim of identity component")

    # dim H_a = dim H_1 on the support (characteristic-zero statement),
    # and T_a(1_a) = dim H_1: at a = 1, the semisimplicity criterion.
    for a in H.support():
        if H.dim[a] != de:
            report.fail(
                f"dim H_{names[a]} = {H.dim[a]} differs from identity "
                f"component dimension {de}"
            )
        if _value(T[a].relabel("i"), unit[a].relabel("i")) != dim_scalar:
            report.fail(f"T(1) in H_{names[a]} differs from dim of H at identity")

    # Cyclic symmetry at arity 2 on H_tot; block by block, T_a(xy) = T_a(yx)
    # in each H_a, and Delta_{a,b}(C) against Delta_{b,a}(C), legs swapped.
    check(lambda k: f"trace product not cyclically symmetric in H_{name(k[0])} at {local(k)} (arity 2)",
          "xy", [mul.relabel("xym"), T_tot.relabel("m")], [mul.relabel("yxm"), T_tot.relabel("m")])
    check(lambda k: f"iterated coproduct of C not cyclically symmetric for grading {tuple(map(name, k))}",
          "xy", [C_tot.relabel("c"), delta.relabel("cxy")], [C_tot.relabel("c"), delta.relabel("cyx")])

    return report


# -- constructors -----------------------------------------------------------


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
    # The fiber of a is the basis of the component at a.
    fibers = {a: phi.fiber(a) for a in range(pi.order)}
    pos = {a: {g: i for i, g in enumerate(f)} for a, f in fibers.items()}
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


def conjugation_crossing(phi: GroupHom):
    """Crossing data for the function algebra graded by the identity phi
    of a group: phi_b sends the one basis vector of H_a, the delta function
    at a, to that of H_{bab^-1}."""
    pi = phi.target
    if phi.source != pi or phi.image != tuple(range(pi.order)):
        raise ValueError("conjugation crossing needs phi to be the identity of one group")
    return _identity_matrices(pi, (1,) * pi.order)


def identity_crossing_data(pi: GroupTable, dim):
    """The identity crossing, available whenever pi is abelian."""
    if not pi.is_abelian():
        raise ValueError("identity crossing requires an abelian group")
    return _identity_matrices(pi, dim)


def _identity_matrices(pi: GroupTable, dim):
    """The crossing phi_b sending basis vector i of H_a to i of H_{bab^-1}."""
    return {
        (b, a): structure_tensor(pi, dim, "crossing", (b, a), {(i, i): ONE for i in range(dim[a])})
        for b, a in itertools.product(range(pi.order), repeat=2)
    }


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
    coproducts) coalgebra.  Both need the inverse antipode; for an
    involutory algebra it is stored already, as S_a^-1 = S_{a^-1}."""
    pi, inv, els = H.pi, H.pi.inverse, range(H.pi.order)
    if kind == "opposite":
        mul = {a: GradedTensor(t.legs, {(j, i, k): v for (i, j, k), v in t.data.items()})
               for a, t in H.mul.items()}
        return replace(H, mul=mul, crossing=None)
    if kind == "coopposite":
        dim = tuple(H.dim[inv[a]] for a in els)
        delta = {
            (a, b): structure_tensor(pi, dim, "delta", (a, b), {
                (i, k, j): v for (i, j, k), v in H.delta[(inv[b], inv[a])].data.items()
            })
            for a, b in itertools.product(els, repeat=2)
        }
        mul, unit, S = ({a: block[inv[a]] for a in els} for block in (H.mul, H.unit, H.antipode))
        return HopfPiCoalgebra(pi, dim, mul, unit, delta, H.counit, S)
    raise ValueError(f"unknown dual kind {kind!r}")


def validate_crossing(H: HopfPiCoalgebra) -> Report:
    """Check the optional crossing as an action of pi on H_tot (see
    ``H.total``): each phi_b preserves the unit, the product, S, eps and
    Delta; phi_{b1} phi_{b2} = phi_{b1 b2}; and phi_1 = id.  Given the
    second, the third holds exactly when every phi_b is invertible, with
    inverse phi_{b^-1}."""
    report = Report()
    if H.crossing is None:
        report.warn("crossing data not provided")
        return report
    Ht, offsets = H.total
    check = _checker(report)
    pi, names = H.pi, H.pi.names
    _, _, at = _namer(H)
    mul, unit, delta, S, eps = Ht.mul[0], Ht.unit[0], Ht.delta[(0, 0)], Ht.antipode[0], Ht.counit
    els, grades = range(pi.order), LAYOUT["crossing"][2]
    phi = [_direct_sum(offsets, ("in", "out"), [(grades(pi, (b, a)), H.crossing[b, a])
                                                for a in els]) for b in els]

    for b, f in enumerate(phi):
        check(lambda k: f"phi_{names[b]} does not preserve the unit at basis {at(k[0])}", "y",
              [unit.relabel("m"), f.relabel("my")], [unit.relabel("y")])
        check(lambda k: f"phi_{names[b]} is not multiplicative at basis pair "
              f"({at(k[0])}, {at(k[1])})", "xyo",
              [mul.relabel("xym"), f.relabel("mo")],
              [f.relabel("xp"), f.relabel("yq"), mul.relabel("pqo")])
        check(lambda k: f"phi_{names[b]} does not commute with S at basis {at(k[0])}", "xo",
              [S.relabel("xm"), f.relabel("mo")], [f.relabel("xm"), S.relabel("mo")])
        check(lambda k: f"phi_{names[b]} does not preserve the counit at basis {at(k[0])}", "x",
              [f.relabel("xm"), eps.relabel("m")], [eps.relabel("x")])
        check(lambda k: f"phi_{names[b]} does not preserve Delta at basis {at(k[0])}", "xpq",
              [delta.relabel("xjk"), f.relabel("jp"), f.relabel("kq")],
              [f.relabel("xm"), delta.relabel("mpq")])

    # Multiplicativity in the crossing index, and phi_1 = id.
    for b1, b2 in itertools.product(els, repeat=2):
        b = pi.mul[b1][b2]
        check(lambda k: f"crossing not multiplicative: phi_{names[b1]} o phi_{names[b2]} "
              f"!= phi_{names[b]} at basis {at(k[0])}", "xy",
              [phi[b2].relabel("xm"), phi[b1].relabel("my")], [phi[b].relabel("xy")])
    check(lambda k: f"phi_{names[pi.identity]} is not the identity at basis {at(k[0])}", "xy",
          [phi[pi.identity].relabel("xy")], [GradedTensor.identity("x", "y", offsets[-1])])
    return report
