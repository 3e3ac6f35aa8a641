"""Reference forms the tests share.

`stiffness_scalar` and `stiffness_derivs` evaluate the tension coefficient
and its partials one argument order at a time, expression by expression;
`material.tension_values` and `tension_partials` must agree with them bit
for bit.  `defect` is the equilibrium defect of a lone pass over the points
it is given, which `solver.delta_diagnostic` must give bit for bit at its
probes and grid.  `fold_count` counts the folds of a load path.
"""

from __future__ import annotations

import numpy as np

from ritzmem.material import MaterialParams, energy_derivs
from ritzmem.solver import _defect_terms


def stiffness_scalar(la, lb, mat: MaterialParams):
    """Tension coefficient U(la, lb) = (1 - la**-4 lb**-2) (W1 + lb**2 W2)."""
    la = np.asarray(la, dtype=float)
    lb = np.asarray(lb, dtype=float)
    las = la * la
    lbs = lb * lb
    i1 = las + lbs + 1.0 / (las * lbs)
    w1, w2, _ = energy_derivs(i1, mat)
    return (1.0 - 1.0 / (las * las * lbs)) * (w1 + lbs * w2)


def stiffness_derivs(la, lb, mat: MaterialParams):
    """Analytic partials (dU/dla, dU/dlb) of the tension coefficient."""
    la = np.asarray(la, dtype=float)
    lb = np.asarray(lb, dtype=float)
    las = la * la
    lbs = lb * lb
    i1 = las + lbs + 1.0 / (las * lbs)
    w1, w2, w11 = energy_derivs(i1, mat)
    a = 1.0 - 1.0 / (las * las * lbs)
    b = w1 + lbs * w2
    di1_dla = 2.0 * la - 2.0 / (las * la * lbs)
    di1_dlb = 2.0 * lb - 2.0 / (las * lbs * lb)
    da_dla = 4.0 / (las * las * la * lbs)
    da_dlb = 2.0 / (las * las * lbs * lb)
    du_dla = da_dla * b + a * w11 * di1_dla
    du_dlb = da_dlb * b + a * (w11 * di1_dlb + 2.0 * lb * w2)
    return du_dla, du_dlb


def defect(state, mat: MaterialParams, s):
    """delta at the points s alone, from a shape evaluated at them only."""
    return _defect_terms(state, mat, np.asarray(s, dtype=float))[-1]


def fold_count(points) -> int:
    """Folds of a continuation path: the reversals of its load c.

    Past its second fold the gas d = 1 curve also turns in f while c keeps
    rising, which is not a fold, so sign changes of dc/df would overcount.
    """
    dc = np.sign(np.diff([pt.c_value for pt in points]))
    return int(np.count_nonzero(np.diff(dc[dc != 0.0])))
