"""algseries: exact computation with algebraic power series.

Coefficient extraction from fixed-point equations, diagonal representations
of algebraic series, Cartier kernel closures of rational functions, digit
automata with output, Frobenius annihilating relations, and series roots of
polynomials over finite fields — all in exact arithmetic.
"""

from .algebra import (GF, QQ, BiPoly, Field, TruncSeries1, TruncSeries2,
                      UniPoly, derivative_y, eval_bipoly_at_series,
                      series_expand_ratio, substitute_xy)
from .annihilator import (FrobeniusRelation, frobenius_relation,
                          null_left_vector, verify_relation)
from .automaton import DFAO, export_dot, from_json, to_json
from .cartier import degree_bound, kernel_output, rational_kernel
from .diagrat import DiagonalRep, diagonal_coeffs, furstenberg_rep
from .exprparse import parse_poly
from .extract import (FixedPointProblem, fixed_point_coefficients,
                      fs_coefficients, fs_partial_sum, is_fixed_point)
from .roots import (BranchRoot, RootsOutcome, attach_outputs, cartier_closure,
                    frobenius_from_poly, hensel_root, residue_roots,
                    roots_automata)

__version__ = "0.1.0"

__all__ = [
    "GF", "QQ", "BiPoly", "TruncSeries1", "TruncSeries2", "UniPoly",
    "derivative_y", "eval_bipoly_at_series", "series_expand_ratio",
    "substitute_xy", "Field", "FrobeniusRelation", "frobenius_relation",
    "null_left_vector", "verify_relation", "DFAO", "export_dot", "from_json",
    "to_json", "degree_bound", "kernel_output", "rational_kernel",
    "DiagonalRep", "diagonal_coeffs", "furstenberg_rep", "parse_poly",
    "FixedPointProblem", "fixed_point_coefficients", "fs_coefficients",
    "fs_partial_sum", "is_fixed_point",
    "BranchRoot", "RootsOutcome", "attach_outputs", "cartier_closure",
    "frobenius_from_poly", "hensel_root", "residue_roots", "roots_automata",
    "__version__",
]
