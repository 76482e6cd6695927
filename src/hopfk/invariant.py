"""The scalar diagram invariant: circle tensors and their contraction.

Each upper circle contributes the trace form composed with the iterated
product of its component algebra; each lower circle contributes the
iterated coproduct of the cotrace.  ``hopf.product_chain`` and
``hopf.coproduct_chain`` build those chains, so a circle without
crossings gets the unit or the counit like any empty chain.  Crossings
pair the corresponding legs; a negative crossing's leg passes through its
own antipode node.  The nodes are the stored structure tensors and the
algebra's trace and cotrace (see ``hopf.derive_integral_data``), only
relabelled, and ``contract_network`` contracts them a pair at a time, so
memory stays proportional to the largest open frontier, not the full
circle tensors.
"""

from __future__ import annotations

from .heegaard import Diagram, validate_diagram
from .hopf import HopfPiCoalgebra, coproduct_chain, derive_integral_data, product_chain
from .scalars import Scalar
from .tensors import contract_network


def _upper_nodes(H, integral, D, k):
    """Node chain for upper circle k: the ``product_chain`` of its crossing
    legs in traversal order (the unit if there are none), then the trace."""
    a = D.colors[k]
    chain, out = product_chain(H, a, [("x", c) for c in D.upper_orders[k]], ("u", k))
    return chain + [integral.trace[a].relabel({"in": out})]


def _lower_nodes(H, integral, D, i):
    """Node chain for lower circle i: the cotrace, then the
    ``coproduct_chain`` that splits it over the crossing legs (the counit
    if there are none).  The leg of a negative crossing c is named
    ("s", c) and reaches ("x", c) through its own antipode node."""
    pi = H.pi
    cmap = D.crossing_map()
    crossings = [cmap[cid] for cid in D.lower_orders[i]]
    gradings = [
        D.colors[c.upper] if c.sign == 1 else pi.inverse[D.colors[c.upper]]
        for c in crossings
    ]
    legs = [("x", c.id) if c.sign == 1 else ("s", c.id) for c in crossings]
    chain, root = coproduct_chain(H, gradings, legs, ("d", i))
    # S maps the component graded a^-1 into the one graded a.
    return [integral.cotrace.relabel({"out": root})] + chain + [
        H.antipode[g].relabel({"in": ("s", c.id), "out": ("x", c.id)})
        for c, g in zip(crossings, gradings)
        if c.sign == -1
    ]


def diagram_nodes(H: HopfPiCoalgebra, D: Diagram):
    """The nodes of D's network: the chain of each upper circle, then that
    of each lower circle.  D must be colored and pass ``validate_diagram``,
    whose color condition makes each lower circle's gradings multiply to
    the identity.  The trace and cotrace nodes relabel the algebra's
    ``derive_integral_data``, derived on the first diagram and shared by
    every later one."""
    integral = derive_integral_data(H)
    nodes = []
    for k in range(D.genus):
        nodes.extend(_upper_nodes(H, integral, D, k))
    for i in range(D.genus):
        nodes.extend(_lower_nodes(H, integral, D, i))
    return nodes


def contract_invariant(H: HopfPiCoalgebra, D: Diagram):
    """Return (Z, K) for a colored diagram; K = Z / (dim H_1)^genus.  Z is
    the value of the closed network ``diagram_nodes(H, D)``, in any order."""
    if not D.colored:
        raise ValueError("diagram must be colored")
    if H.dim_identity == 0:
        raise ValueError("identity component must have nonzero dimension")
    report = validate_diagram(D)
    if not report.passed:
        raise ValueError("invalid diagram: " + "; ".join(report.violations))
    Z = contract_network(diagram_nodes(H, D)).as_scalar()
    norm = Scalar(H.dim_identity ** D.genus)
    return Z, Z / norm
