"""Exact triangle packing and covering in edge-weighted multigraphs.

The package computes the integer optima (maximum packing, minimum
transversal), the exact fractional optimum via rational simplex, and three
constructive bounds with verified certificates: a transversal within
``2*nustar - sqrt(nustar)/4``, a transversal within ``(3 - 2/25)*nu``, and,
for planar inputs, a packing/transversal pair witnessing
``weight(cover) <= 2*packing``.
"""

from .core import (
    BudgetExceeded,
    Edge,
    FractionalAssignment,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    Rational,
    TransversalCertificate,
    Triangle,
    dominates_sqrt,
    is_fractional_packing,
    is_fractional_transversal,
    verify_packing,
    verify_transversal,
    weight,
)
from .exact import LPSolution, TightSets, lp_optimal, nu_exact, tau_exact, tight_sets
from .graphio import ParseError, emit_graph, parse_graph

__all__ = [
    "BudgetExceeded",
    "Edge",
    "FractionalAssignment",
    "InvariantViolation",
    "LPSolution",
    "Multigraph",
    "PackingCertificate",
    "ParseError",
    "Rational",
    "TightSets",
    "TransversalCertificate",
    "Triangle",
    "dominates_sqrt",
    "emit_graph",
    "is_fractional_packing",
    "is_fractional_transversal",
    "lp_optimal",
    "nu_exact",
    "parse_graph",
    "tau_exact",
    "tight_sets",
    "verify_packing",
    "verify_transversal",
    "weight",
]

__version__ = "0.1.0"
