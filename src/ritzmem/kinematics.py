"""Geometry of the deformed meridian.

A material point at radius s (0 <= s <= 1, undeformed disk of unit radius)
moves to (r(s), z(s)).  Meridional stretch follows the arc length, the
circumferential one the radius ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LoadParams:
    """Hydrostatic load Q(z) = c - d*z, with d >= 0."""

    c: float
    d: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.d)):
            raise ValueError(f"load c and d must be finite, got {self.c}, {self.d}")
        if self.d < 0.0:
            raise ValueError("hydrostatic gradient d must be >= 0")


@dataclass
class ShapeEval:
    """Trial shape and its s-derivatives at one or more points."""

    z: np.ndarray
    r: np.ndarray
    dz: np.ndarray
    dr: np.ndarray
    d2z: np.ndarray | None = None
    d2r: np.ndarray | None = None


def stretches(s, r, dz, dr, pole_limit: bool = False):
    """Principal stretches (lambda1, lambda2, lambda3) at points s.

    lambda2 = r/s is singular at the pole, so s = 0 is rejected unless
    pole_limit is set, in which case those entries take the limit dr(0)
    (exact, since r(s) = dr(0)*s + O(s**3) there).
    """
    s = np.asarray(s, dtype=float)
    if not pole_limit and np.any(s <= 0.0):
        raise ValueError("lambda2 = r/s needs s > 0; pass pole_limit=True "
                         "to use the dr(0) limit at the pole")
    l1 = np.hypot(np.asarray(dz, dtype=float), np.asarray(dr, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        l2 = np.where(s > 0.0, np.asarray(r) / np.where(s > 0.0, s, 1.0), dr)
    l3 = 1.0 / (l1 * l2)
    return l1, l2, l3


def curvatures(s, shape: ShapeEval):
    """Principal curvatures (k1, k2) of the deformed surface.

    k1 = (r'' z' - r' z'') / lambda1**3 along the meridian,
    k2 = -z' / (r * lambda1) along the parallel.  At the pole both reduce
    to -z'' r' / lambda1**3 (z'(0) = 0, r(0) = 0 assumed there).
    """
    if shape.d2z is None or shape.d2r is None:
        raise ValueError("curvatures need second derivatives")
    s = np.asarray(s, dtype=float)
    dz, dr = np.asarray(shape.dz), np.asarray(shape.dr)
    at_pole = s <= 0.0
    if np.any((np.asarray(shape.r) == 0.0) & ~at_pole):
        raise ValueError("r = 0 away from the pole; curvature undefined")
    l1 = np.hypot(dz, dr)
    l13 = l1 ** 3
    k1 = (shape.d2r * dz - dr * shape.d2z) / l13
    r_safe = np.where(at_pole, 1.0, shape.r)
    k2 = np.where(at_pole, -shape.d2z * dr / l13, -dz / (r_safe * l1))
    return k1, k2


def hydro_load(z, c, d, out=None):
    """Pressure Q at height z for the load Q = c - d*z.

    With `out`, a float64 array of z's shape (z itself, say), d*z and
    then Q are written into it, which makes no array: the evaluator of a
    Newton solve forms z in its Q and passes c and d as 0-d arrays, so no
    Python float reaches the ufuncs.  Without it, z is read as a float
    array and Q is a new one; the bits are the same either way.
    """
    if out is None:
        z = np.asarray(z, dtype=float)
    return np.subtract(c, np.multiply(d, z, out), out)

