"""Exact half-up rounding of rationals for display and serialization.

Ratios and densities are carried as Fractions and rounded to 3 decimal
places only when rendered. Half-up rounding is done in integer arithmetic;
binary floats would misround exact ties such as 71/80 = 0.8875.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


def round3(value: Fraction) -> Fraction:
    """Round a nonnegative rational to 3 decimals, ties away from zero."""
    scaled = value * 1000
    units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return Fraction(units, 1000)


def round3_float(value: Optional[Fraction]) -> Optional[float]:
    """3-decimal half-up value as a float (floats below 1000 are exact)."""
    if value is None:
        return None
    return float(round3(value))


def format3(value: Optional[Fraction]) -> str:
    """Fixed three-decimal rendering, or "N/A" for None."""
    if value is None:
        return "N/A"
    units = round3(value) * 1000
    whole, frac = divmod(int(units), 1000)
    return f"{whole}.{frac:03d}"
