"""The scalar diagram invariant: circle tensors and their contraction.

Each upper circle contributes the trace form composed with the iterated
product of its component algebra; each lower circle contributes the
iterated coproduct of the cotrace.  Crossings pair the corresponding
legs; a negative crossing's leg passes through its own antipode node.
The nodes are the stored structure tensors, only relabelled, and
``contract_network`` contracts them a pair at a time, so memory stays
proportional to the largest open frontier, not the full circle tensors.
"""

from __future__ import annotations

from .heegaard import Diagram, validate_diagram
from .hopf import HopfPiCoalgebra, derive_integral_data
from .scalars import Scalar
from .tensors import GradedTensor, contract_network


def _upper_nodes(H, integral, D, k):
    """Node chain for upper circle k: the trace of the ordered product of
    the crossing legs."""
    a = D.colors[k]
    order = D.upper_orders[k]
    if not order:
        # The empty product is the unit, joined to the trace on a fresh leg.
        unit = H.unit[a].relabel({"out": ("u", k, 0)})
        return [unit, GradedTensor.vector(("u", k, 0), integral.trace[a])]
    # pending[t] carries the product of the first t + 1 crossing legs.
    pending = [("x", order[0])] + [("u", k, t) for t in range(1, len(order))]
    nodes = [
        H.mul[a].relabel(
            {"in1": pending[t - 1], "in2": ("x", order[t]), "out": pending[t]}
        )
        for t in range(1, len(order))
    ]
    nodes.append(GradedTensor.vector(pending[-1], integral.trace[a]))
    return nodes


def _lower_nodes(H, integral, D, i):
    """Node chain for lower circle i: the iterated coproduct of the
    cotrace, one comultiplication per node.  The leg of a negative
    crossing c is named ("s", c) and reaches ("x", c) through its own
    antipode node."""
    pi = H.pi
    cmap = D.crossing_map()
    order = D.lower_orders[i]
    m = len(order)
    if m == 0:
        # The empty coproduct is the counit, joined to the cotrace on a fresh leg.
        counit = H.counit.relabel({"in": ("d", i, 0)})
        return [GradedTensor.vector(("d", i, 0), integral.cotrace), counit]
    crossings = [cmap[cid] for cid in order]
    gradings = [
        D.colors[c.upper] if c.sign == 1 else pi.inverse[D.colors[c.upper]]
        for c in crossings
    ]
    # Suffix products: pending leg t carries gradings[t] * ... * gradings[m-1].
    suffix = [pi.identity] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = pi.mul[gradings[t]][suffix[t + 1]]
    if suffix[0] != pi.identity:
        raise ValueError(
            f"lower circle {i} grading product is not the identity; "
            "diagram colors are inconsistent"
        )
    legs = [("x", c.id) if c.sign == 1 else ("s", c.id) for c in crossings]
    # The final pending leg is the last crossing leg itself.
    pending = [("d", i, t) for t in range(m - 1)] + [legs[-1]]
    nodes = [GradedTensor.vector(pending[0], integral.cotrace)]
    nodes += [
        H.delta[(gradings[t], suffix[t + 1])].relabel(
            {"in": pending[t], "out1": legs[t], "out2": pending[t + 1]}
        )
        for t in range(m - 1)
    ]
    # S maps the component graded a^-1 into the one graded a.
    return nodes + [
        H.antipode[g].relabel({"in": ("s", c.id), "out": ("x", c.id)})
        for c, g in zip(crossings, gradings)
        if c.sign == -1
    ]


def diagram_nodes(H: HopfPiCoalgebra, D: Diagram):
    integral = derive_integral_data(H)
    nodes = []
    for k in range(D.genus):
        nodes.extend(_upper_nodes(H, integral, D, k))
    for i in range(D.genus):
        nodes.extend(_lower_nodes(H, integral, D, i))
    return nodes


def contract_invariant(H: HopfPiCoalgebra, D: Diagram, rng=None):
    """Return (Z, K) for a colored diagram; K = Z / (dim H_1)^genus."""
    if not D.colored:
        raise ValueError("diagram must be colored")
    if H.dim_identity == 0:
        raise ValueError("identity component must have nonzero dimension")
    report = validate_diagram(D)
    if not report.passed:
        raise ValueError("invalid diagram: " + "; ".join(report.violations))
    Z = contract_network(diagram_nodes(H, D), rng=rng).as_scalar()
    norm = Scalar(H.dim_identity ** D.genus)
    return Z, Z / norm
