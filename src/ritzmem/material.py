"""Incompressible hyperelastic membrane material.

Strain energy is the three-term Bidermann form, written per unit volume and
scaled by 2*C1 so the leading neo-Hookean coefficient is 1:

    W = (I1 - 3) + gamma1*(I2 - 3) + gamma2*(I1 - 3)**2 + gamma3*(I1 - 3)**3

All stresses returned here are membrane tensions scaled the same way,
T_i = T_i_physical / (2*C1*h0).  Incompressibility ties the thickness
stretch to the in-plane ones, lambda3 = 1/(lambda1*lambda2).

With gamma2 = gamma3 = 0 (a Mooney-Rivlin material, the paper's heavy-liquid
case) W is linear in I1: W1 = 1 + 0*e1 + 0*e1**2 is exactly 1 and W11 is a
signed zero at any finite I1.  `tension_values` and `tension_partials` then
form neither I1 nor the W11 terms of the partials, each a signed zero added
to a non-zero term, so every value they return keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _const(value) -> np.ndarray:
    """`value` as a read-only float64 0-d array.  As a ufunc operand it has
    the bits of the Python float, without the conversion numpy makes of a
    Python float on every call (NEP 50)."""
    out = np.array(value, dtype=float)
    out.setflags(write=False)
    return out


ONE, TWO, THREE, FOUR = map(_const, (1.0, 2.0, 3.0, 4.0))


@dataclass(frozen=True)
class MaterialParams:
    """Dimensionless Bidermann coefficients (gamma_i = C_i / C_1 ratios)."""

    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma1, self.gamma2, self.gamma3))):
            raise ValueError(f"material coefficients must be finite, got {self}")

    @cached_property
    def _w_coefs(self):
        """(gamma1, 2 gamma2, 3 gamma3, 6 gamma3) as read-only 0-d arrays,
        made once per material.  Each product is rounded as a Python float
        product, as in the expression 2.0 * gamma2 * e1."""
        return tuple(map(_const, (self.gamma1, 2.0 * self.gamma2,
                                  3.0 * self.gamma3, 6.0 * self.gamma3)))

    @cached_property
    def _mooney_rivlin(self) -> bool:
        """Whether gamma2 = gamma3 = 0 (either zero's sign): W is then
        linear in I1, so W1 is 1 and W11 is 0 at any finite I1."""
        return self.gamma2 == 0.0 and self.gamma3 == 0.0


def energy(i1, i2, mat: MaterialParams):
    """Strain energy density at the given invariants."""
    e1 = i1 - 3.0
    e2 = i2 - 3.0
    return e1 + mat.gamma1 * e2 + mat.gamma2 * e1 * e1 + mat.gamma3 * e1 ** 3


def energy_derivs(i1, mat: MaterialParams):
    """The nonzero first and second partials of the energy in the invariants.

    Returns (W1, W2, W11).  The Bidermann form is linear in I2, so W2 is
    gamma1 whatever I2 is, as a read-only 0-d array, and the cross and
    I2-squared partials W12 and W22 vanish.
    """
    g1, g2x2, g3x3, g3x6 = mat._w_coefs
    e1 = i1 - THREE
    w1 = ONE + g2x2 * e1 + g3x3 * e1 * e1
    w11 = g2x2 + g3x6 * e1
    return w1, g1, w11


def principal_stresses(lambda1, lambda2, mat: MaterialParams):
    """Membrane tensions (T1, T2) along the principal directions.

    T_i = lambda3 * (lambda_i**2 - lambda3**2) * (W1 + lambda_other**2 * W2)
    with lambda_other the in-plane stretch orthogonal to direction i.
    """
    l1s = np.asarray(lambda1, dtype=float) ** 2
    l2s = np.asarray(lambda2, dtype=float) ** 2
    l3 = 1.0 / (lambda1 * lambda2)
    l3s = l3 * l3
    i1 = l1s + l2s + l3s
    w1, w2, _ = energy_derivs(i1, mat)
    t1 = l3 * (l1s - l3s) * (w1 + l2s * w2)
    t2 = l3 * (l2s - l3s) * (w1 + l1s * w2)
    return t1, t2


# The arrays of `tension_values` and of `tension_partials` as groups of
# rows of the stretches' shape: a group of two is a stacked array, its rows
# the two argument orders.
_VALUE_ROWS = (2, 2, 2, 1, 1, 1, 2, 2, 2, 2, 2)
_PARTIAL_ROWS = (2, 2, 1, 1, 2, 2)


def _split(block: np.ndarray, groups) -> tuple:
    """Consecutive row groups of `block`, (sum(groups), ...), as arrays
    that share its memory: a group of one row without its leading axis
    (0-d for a 1-d block), of k > 1 rows with it."""
    out, i = [], 0
    for k in groups:
        out.append(block[i, ...] if k == 1 else block[i:i + k])
        i += k
    return tuple(out)


def _value_work(block: np.ndarray) -> tuple:
    """The workspace of `tension_values` in `block`, of sum(_VALUE_ROWS)
    rows: its arrays, then the views of their rows that it and
    `tension_partials` read, made here once."""
    la, las, lbs, l12s, i1, inv, las2, den, a, b, su = _split(block, _VALUE_ROWS)
    return (la, las, lbs, l12s, i1, inv, las2, den, a, b, su, las[::-1],
            la[1, ...], den[0, ...], a[0, ...], b[0, ...], su[0, ...], su[1, ...])


def _partial_work(block: np.ndarray) -> tuple:
    """The workspace of `tension_partials` in `block`, of
    sum(_PARTIAL_ROWS) rows: its arrays, then the views of their rows."""
    two_l, du_a, db_dlb, du2, t1, t2 = _split(block, _PARTIAL_ROWS)
    return (two_l, du_a, db_dlb, du2, t1, t2, two_l[1, ...], du_a[0, ...],
            du_a[1, ...])


def tension_values(l1, l2, mat: MaterialParams, work=None):
    """Tension coefficients U(l1, l2) and U(l2, l1), and the intermediates
    their partials reuse.

    U(a, b) = (1 - a**-4 b**-2) (W1 + b**2 W2).  The argument order is
    significant: U(lambda1, lambda2) weighs the meridional terms of the
    equilibrium forms, U(lambda2, lambda1) the circumferential ones, and
    T1 = (lambda1/lambda2) * U(lambda1, lambda2).  The invariants are
    symmetric in the stretch pair, so one energy evaluation serves both
    orders, and the two orders run as the rows of one stacked (2, n) pass.
    A Mooney-Rivlin material (gamma2 = gamma3 = 0) makes no energy
    evaluation: it forms no I1 and takes W1 = 1, W2 = gamma1, and no W11.

    Every intermediate is written into the arrays of `work`, a
    `_value_work` workspace whose first array holds l1 and l2 as its rows:
    an evaluator passes the workspace it keeps, into which it wrote the
    stretches, so an iterate allocates no array of the stretches' length
    here (but W1 and W11 of a material that is not Mooney-Rivlin) and
    makes no view.  Without `work` the stretches are copied into a new
    one.  The operations and their order, and so the bits, are the same.

    Returns (U(l1,l2), U(l2,l1), parts), with `parts` what
    `tension_partials` reads.
    """
    if work is None:
        # row 0 is the order (a, b) = (l1, l2), row 1 the swapped order
        la = np.array([l1, l2], dtype=float)
        work = _value_work(np.empty((sum(_VALUE_ROWS), *la.shape[1:])))
        work[0][...] = la
    (la, las, lbs, l12s, i1, inv, las2, den, a, b, su,
     las_swap, l2, den0, a0, b0, su0, su1) = work
    np.multiply(la, la, las)
    np.copyto(lbs, las_swap)  # contiguous: a reversed view is slower to read
    if mat._mooney_rivlin:
        l12s, w1, w2, w11 = None, ONE, mat._w_coefs[0], None
    else:
        np.multiply(las[0], las[1], l12s)
        np.divide(ONE, l12s, inv)
        np.add(las[0], las[1], i1)
        i1 += inv
        w1, w2, w11 = energy_derivs(i1, mat)
    np.multiply(las, las, las2)
    np.multiply(las2, lbs, den)
    np.divide(ONE, den, a)
    np.subtract(ONE, a, a)
    np.multiply(lbs, w2, b)
    np.add(w1, b, b)
    np.multiply(a, b, su)
    return su0, su1, (la, las, lbs, l12s, las2, a, b, w2, w11, l2, den0, a0, b0)


def tension_partials(parts, work=None):
    """Partials (dU/da(l1,l2), dU/db(l1,l2), dU/da(l2,l1)) from the `parts`
    of `tension_values` at the same stretches.

    dU/db obeys the swap identity dU/db(a, b) = (b/a) * dU/db(b, a), which
    is what makes the assembled tangent matrix symmetric, so one order of
    it serves.  Each partial reuses the products its value already formed.
    Without W11 (a Mooney-Rivlin material) the terms it multiplies, the
    I1-curvature terms a W11 dI1/da and a W11 dI1/db, are not formed.
    Every intermediate is written into the arrays of `work`, a
    `_partial_work` workspace, or of a new one without it.
    """
    la, las, lbs, l12s, las2, a, b, w2, w11, l2, den0, a0, b0 = parts
    if work is None:
        work = _partial_work(np.empty((sum(_PARTIAL_ROWS), *la.shape[1:])))
    two_l, du_a, db_dlb, du2, t1, t2, two_l1, du_a0, du_a1 = work
    np.multiply(TWO, la, two_l)
    np.multiply(las2, la, du_a)        # 4 / (a**5 b**2) (W1 + b**2 W2)
    du_a *= lbs
    np.divide(FOUR, du_a, du_a)
    du_a *= b
    np.multiply(two_l1, w2, db_dlb)
    if w11 is not None:
        np.multiply(las, la, t1)       # + a W11 (2 a - 2 / (a**3 b**2))
        t1 *= lbs
        np.divide(TWO, t1, t1)
        np.subtract(two_l, t1, t1)
        np.multiply(a, w11, t2)
        t2 *= t1
        du_a += t2
        t = du2                        # W11 dI1/db, before 2 b W2, in du2's row
        np.multiply(l12s, l2, t)
        np.divide(TWO, t, t)
        np.subtract(two_l1, t, t)
        np.multiply(w11, t, t)
        np.add(t, db_dlb, db_dlb)
    np.multiply(den0, l2, du2)         # 2 / (a**4 b**3) (W1 + b**2 W2) + a db
    np.divide(TWO, du2, du2)
    du2 *= b0
    np.multiply(a0, db_dlb, db_dlb)
    du2 += db_dlb
    return du_a0, du2, du_a1
