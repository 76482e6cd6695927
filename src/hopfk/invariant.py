"""The scalar diagram invariant: circle tensors and their contraction.

Each upper circle contributes the trace form composed with the iterated
product of its component algebra; each lower circle contributes the
iterated coproduct of the cotrace.  Crossings pair the corresponding
legs, with the antipode interposed at negative crossings.  The network
is contracted one small node at a time, so memory stays proportional to
the largest open frontier instead of the full circle tensors.
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
        trace = GradedTensor.vector("out", integral.trace[a])
        return [trace.contract(H.unit[a])]
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
    cotrace, one comultiplication per node, with the antipode folded into
    negatively-signed crossing legs."""
    pi = H.pi
    cmap = D.crossing_map()
    order = D.lower_orders[i]
    m = len(order)
    if m == 0:
        cotrace = GradedTensor.vector("in", integral.cotrace)
        return [cotrace.contract(H.counit)]
    gradings = []
    for cid in order:
        c = cmap[cid]
        a = D.colors[c.upper]
        gradings.append(a if c.sign == 1 else pi.inverse[a])
    # Suffix products: pending leg t carries gradings[t-1] * ... * gradings[m-1].
    suffix = [pi.identity] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = pi.mul[gradings[t]][suffix[t + 1]]
    if suffix[0] != pi.identity:
        raise ValueError(
            f"lower circle {i} grading product is not the identity; "
            "diagram colors are inconsistent"
        )

    def finish_leg(node, label, t):
        """Fold the antipode into a negative crossing leg and name it."""
        c = cmap[order[t]]
        if c.sign == 1:
            return node.relabel({label: ("x", c.id)})
        # S maps the component graded a^-1 into the one graded a.
        S = H.antipode[pi.inverse[D.colors[c.upper]]]
        return node.contract(S.relabel({"in": label, "out": ("x", c.id)}))

    nodes = [GradedTensor.vector(("d", i, 0), integral.cotrace)]
    for t in range(m - 1):
        node = H.delta[(gradings[t], suffix[t + 1])].relabel(
            {"in": ("d", i, t), "out1": ("tmp", i, t), "out2": ("d", i, t + 1)}
        )
        nodes.append(finish_leg(node, ("tmp", i, t), t))
    # The final pending leg is the last crossing leg itself.
    nodes[-1] = finish_leg(nodes[-1], ("d", i, m - 1), m - 1)
    return nodes


def diagram_nodes(H: HopfPiCoalgebra, D: Diagram, integral=None):
    if integral is None:
        integral = derive_integral_data(H)
    nodes = []
    for k in range(D.genus):
        nodes.extend(_upper_nodes(H, integral, D, k))
    for i in range(D.genus):
        nodes.extend(_lower_nodes(H, integral, D, i))
    return nodes


def contract_invariant(H: HopfPiCoalgebra, D: Diagram, cap=None, rng=None):
    """Return (Z, K) for a colored diagram; K = Z / (dim H_1)^genus."""
    if not D.colored:
        raise ValueError("diagram must be colored")
    if H.dim_identity == 0:
        raise ValueError("identity component must have nonzero dimension")
    report = validate_diagram(D)
    if not report.passed:
        raise ValueError("invalid diagram: " + "; ".join(report.violations))
    Z = contract_network(diagram_nodes(H, D), cap=cap, rng=rng).as_scalar()
    norm = Scalar(H.dim_identity ** D.genus)
    return Z, Z / norm

