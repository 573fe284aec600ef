"""Exact arithmetic kernel: fields, polynomials, series."""

from .fields import GF, QQ, ExtensionField, Field, PrimeField, RationalField
from .polys import BiPoly, UniPoly, derivative_y, substitute_xy
from .series import (TruncSeries1, TruncSeries2, eval_bipoly_at_series,
                     poly_to_series, series_expand_ratio)

__all__ = [
    "GF", "QQ", "Field", "PrimeField", "ExtensionField",
    "RationalField", "BiPoly", "UniPoly", "derivative_y",
    "substitute_xy", "TruncSeries1", "TruncSeries2",
    "eval_bipoly_at_series", "poly_to_series", "series_expand_ratio",
]
