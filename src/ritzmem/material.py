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


def tension_values(l1, l2, mat: MaterialParams):
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

    Returns (U(l1,l2), U(l2,l1), parts), with `parts` what
    `tension_partials` reads.
    """
    # row 0 is the order (a, b) = (l1, l2), row 1 the swapped order
    la = np.array([l1, l2], dtype=float)
    las = la * la
    lbs = las[::-1].copy()  # contiguous: a reversed view is slower to read
    if mat._mooney_rivlin:
        l12s, w1, w2, w11 = None, ONE, mat._w_coefs[0], None
    else:
        l12s = las[0] * las[1]
        w1, w2, w11 = energy_derivs(las[0] + las[1] + ONE / l12s, mat)
    las2 = las * las
    den = las2 * lbs
    a = ONE - ONE / den
    b = w1 + lbs * w2
    su = a * b
    return su[0], su[1], (la, las, lbs, l12s, las2, den, a, b, w2, w11)


def tension_partials(parts):
    """Partials (dU/da(l1,l2), dU/db(l1,l2), dU/da(l2,l1)) from the `parts`
    of `tension_values` at the same stretches.

    dU/db obeys the swap identity dU/db(a, b) = (b/a) * dU/db(b, a), which
    is what makes the assembled tangent matrix symmetric, so one order of
    it serves.  Each partial reuses the products its value already formed.
    Without W11 (a Mooney-Rivlin material) the terms it multiplies, the
    I1-curvature terms a W11 dI1/da and a W11 dI1/db, are not formed.
    """
    la, las, lbs, l12s, las2, den, a, b, w2, w11 = parts
    two_l = TWO * la
    l2 = la[1]
    du_a = FOUR / (las2 * la * lbs) * b
    db_dlb = two_l[1] * w2
    if w11 is not None:
        du_a = du_a + a * w11 * (two_l - TWO / (las * la * lbs))
        db_dlb = w11 * (two_l[1] - TWO / (l12s * l2)) + db_dlb
    du2 = TWO / (den[0] * l2) * b[0] + a[0] * db_dlb
    return du_a[0], du2, du_a[1]
