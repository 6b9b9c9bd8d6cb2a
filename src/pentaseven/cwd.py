"""The width-12 certificate of an accepted simplicial-free graph: the
thickening expression (see expr) of its recognized twin quotient under its
universal clique.  The expression algebra lives in expr, which needs no
pipeline; this module adds the recognition that the construction reads.
"""

from __future__ import annotations

from .core import Graph
from .decompose import least_simplicial
from .expr import Expr, thickening_expr
# the algebra names perfbench/ reads as cwd.<name>; drop with those pins
from .expr import eval_to_graph, from_sexpr, iter_nodes, to_sexpr, width  # noqa: F401
from .recognize import NotInClassError, recognize


class ExpressionRefusal(Exception):
    """The width-bounded construction does not apply to this input."""


def expr_for_class_graph(g: Graph) -> Expr:
    """Width <= 12 expression that re-evaluates to g, vertex for vertex.

    Applies only to accepted graphs with no simplicial vertices: those are
    exactly thickenings of a catalog base under extra universal vertices.
    """
    v = least_simplicial(g)
    if v is not None:
        raise ExpressionRefusal(
            f"graph has a simplicial vertex ({v}); "
            "the width bound only covers simplicial-free graphs"
        )
    report = recognize(g)
    if not report.in_class:
        raise NotInClassError(report)
    return thickening_expr(report.quotient, report.class_ids, report.universal_w)
