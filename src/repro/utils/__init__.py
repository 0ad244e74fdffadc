"""Small shared utilities: CDFs, seeded randomness, text tables."""

from repro.utils.cdf import EmpiricalCDF, quantile
from repro.utils.rand import derive_rng, make_rng
from repro.utils.tables import format_table

__all__ = [
    "EmpiricalCDF",
    "quantile",
    "derive_rng",
    "make_rng",
    "format_table",
]
