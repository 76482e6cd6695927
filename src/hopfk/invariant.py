"""The scalar diagram invariant: circle tensors and their contraction.

``diagram_nodes`` builds the network in one pass over the circles.  Each
upper circle k gives the iterated product of H_a, a its color, over its
crossing legs, closed by the trace T_a.  Each lower circle gives the
cotrace, split by the iterated coproduct over its relator word from
``extract_words``: the letter x_k^e of a crossing grades its leg a, or
a^-1 when e = -1, in which case the leg reaches the crossing through its
own antipode node.  ``hopf.product_chain`` and ``hopf.coproduct_chain``
build the chains, so a circle without crossings gets the unit or the
counit like any empty chain.  The nodes are the stored structure tensors
and the algebra's trace and cotrace (see ``hopf.derive_integral_data``),
only relabelled, by position, so no stored leg name is used here; and
``contract_network`` contracts them a pair at a time, so memory stays
proportional to the largest open frontier, not the full circle tensors.
"""

from __future__ import annotations

from .heegaard import Diagram, extract_words, validate_diagram
from .hopf import HopfPiCoalgebra, coproduct_chain, derive_integral_data, product_chain
from .scalars import Scalar
from .tensors import contract_network


def diagram_nodes(H: HopfPiCoalgebra, D: Diagram):
    """The nodes of D's network: per upper circle its ``product_chain``,
    then the trace; per lower circle the cotrace, its ``coproduct_chain``,
    then one antipode node per negative letter.  D must be colored and
    pass ``validate_diagram``, whose color condition makes each lower
    circle's gradings multiply to the identity.  The trace and cotrace
    nodes relabel the algebra's ``derive_integral_data``, derived on the
    first diagram and shared by every later one."""
    integral, inverse, colors = derive_integral_data(H), H.pi.inverse, D.colors
    nodes = []
    for k, order in enumerate(D.upper_orders):
        chain, out = product_chain(H, colors[k], [("x", c) for c in order], ("u", k))
        nodes += chain + [integral.trace[colors[k]].relabel([out])]
    for i, (order, word) in enumerate(zip(D.lower_orders, extract_words(D))):
        gradings = [colors[k] if e == 1 else inverse[colors[k]] for k, e in word]
        legs = [("x" if e == 1 else "s", c) for c, (_, e) in zip(order, word)]
        chain, root = coproduct_chain(H, gradings, legs, ("d", i))
        # S maps the component graded a^-1 into the one graded a.
        nodes += [integral.cotrace.relabel([root])] + chain + [
            H.antipode[g].relabel((("s", c), ("x", c)))
            for c, g, (_, e) in zip(order, gradings, word) if e == -1
        ]
    return nodes


def contract_invariant(H: HopfPiCoalgebra, D: Diagram):
    """Return (Z, K) for a diagram colored over ``H.pi``; K = Z / (dim H_1)^genus.
    Z is the value of the closed network ``diagram_nodes(H, D)``, in any order."""
    if not D.colored:
        raise ValueError("diagram must be colored")
    if D.pi is not H.pi and D.pi != H.pi:
        raise ValueError("diagram must be colored over the algebra's group")
    if H.dim_identity == 0:
        raise ValueError("identity component must have nonzero dimension")
    report = validate_diagram(D)
    if not report.passed:
        raise ValueError("invalid diagram: " + "; ".join(report.violations))
    Z = contract_network(diagram_nodes(H, D)).as_scalar()
    norm = Scalar(H.dim_identity ** D.genus)
    return Z, Z / norm
