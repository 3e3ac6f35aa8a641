"""Weighted-residual assembly for the membrane equilibrium.

With U(a, b) the tension coefficient and Q = c - d*z the local pressure,
the stationarity conditions of the potential energy in the Ritz
coefficients are

  g_i     = int [ U(l1,l2) z' u_i' - Q l2 r' u_i ] s ds
  g_{m+i} = int [ U(l1,l2) r' v_i' + (U(l2,l1) l2 / s + Q l2 z') v_i ] s ds

and the tangent matrix is their exact coefficient Jacobian, which is
symmetric because g is the gradient of a scalar.  All integrals run over
the open interval, so the 1/s factors never hit the pole.

An iterate's `node_terms` hold the nodal shape and the tension
coefficients U; the partials of U are evaluated only by `jacobian`, so an
iterate that assembles no tangent (a converged one, or a corrector that
gave up) and `p_gradient` evaluate none.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import BasisTables, SolutionState, _shape_p
from .kinematics import hydro_load
from .material import MaterialParams, energy, tension_partials, tension_values


def _nodal(state: SolutionState, tables: BasisTables):
    """Trial shape and stretches at the quadrature nodes."""
    m = state.spec.m
    xu, xv = state.x[:m], state.x[m:]
    z = xu @ tables.u
    dz = xu @ tables.du
    r = tables.s + xv @ tables.v
    dr = 1.0 + xv @ tables.dv
    l1 = np.hypot(dz, dr)
    l2 = r / tables.s
    q = hydro_load(z, state.load.c, state.load.d)
    return z, r, dz, dr, l1, l2, q


def _tables(state, rule, tables):
    if tables is None:
        return BasisTables.build(state.spec, rule)
    return tables


class NodeTerms(NamedTuple):
    """Everything the residual, tangent and dg/dc read at one iterate.

    The trial shape, stretches and load at the quadrature nodes, and the
    tension coefficients of `material.tension_values` with the parts their
    partials reuse, on the tables they were evaluated with.
    """

    tables: BasisTables
    z: np.ndarray
    r: np.ndarray
    dz: np.ndarray
    dr: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    q: np.ndarray
    su12: np.ndarray
    su21: np.ndarray
    tension_parts: tuple


def node_terms(state: SolutionState, mat: MaterialParams,
               tables: BasisTables) -> NodeTerms:
    """Evaluate the nodal shape and the material once for one iterate."""
    nodal = _nodal(state, tables)
    return NodeTerms(tables, *nodal, *tension_values(nodal[4], nodal[5], mat))


def _terms(state, mat, rule, tables, terms):
    if terms is None:
        return node_terms(state, mat, _tables(state, rule, tables))
    return terms


def functional_value(state: SolutionState, mat: MaterialParams, rule,
                     tables: BasisTables | None = None) -> float:
    """Potential energy of the trial shape.

    One half of int [ W s + Q r**2 z' ] ds; its gradient in the Ritz
    coefficients is exactly the residual vector, for any d.
    """
    t = _tables(state, rule, tables)
    z, r, dz, dr, l1, l2, q = _nodal(state, t)
    l3 = 1.0 / (l1 * l2)
    i1 = l1 * l1 + l2 * l2 + l3 * l3
    i2 = 1.0 / (l1 * l1) + 1.0 / (l2 * l2) + 1.0 / (l3 * l3)
    w = energy(i1, i2, mat)
    return 0.5 * float(t.w @ (w * t.s + q * r * r * dz))


def residual(state: SolutionState, mat: MaterialParams, rule,
             tables: BasisTables | None = None,
             terms: NodeTerms | None = None) -> np.ndarray:
    """Equilibrium residual g (length 2m) at the current coefficients.

    `terms` from `node_terms` at the same state skips the nodal and
    material evaluation.
    """
    t, z, r, dz, dr, l1, l2, q, su12, su21, _ = _terms(
        state, mat, rule, tables, terms)
    ws = t.ws
    wsu = ws * su12
    wql = ws * q * l2
    g_u = t.du @ (wsu * dz) - t.u @ (wql * dr)
    g_v = t.dv @ (wsu * dr) + t.v @ (t.w * su21 * l2 + wql * dz)
    return np.concatenate([g_u, g_v])


def jacobian(state: SolutionState, mat: MaterialParams, rule,
             tables: BasisTables | None = None,
             terms: NodeTerms | None = None) -> np.ndarray:
    """Tangent matrix H = dg/dx, assembled symmetric.

    Nine row-weighted products A diag(c) B^T, one batched matmul over the
    generator pairs of `BasisTables.left` and `right_t`, summed block by
    block.  The coupling block is built once and set in both places, and
    the whole matrix is mirrored as (h + h^T) / 2, which symmetrizes the
    diagonal blocks and leaves the coupling blocks exact.  The v-v curvature
    coefficient uses the swap identity dU/db(a,b) = (b/a) dU/db(b,a), so
    the mirrored matrix equals the exact coefficient Jacobian of `residual`
    up to quadrature error.  The partials of U are evaluated here, once.
    """
    t, z, r, dz, dr, l1, l2, q, su12, su21, parts = _terms(
        state, mat, rule, tables, terms)
    du1, du2, du1_swap = tension_partials(parts)
    d = state.load.d
    w, s, ws = t.w, t.s, t.ws
    wdl = ws * d * l2
    sq = s * q
    mid = w * du2 * dr
    # one weight row per generator pair (A, B), in the order of the tables
    c = np.array([
        ws * (du1 * dz * dz / l1 + su12),                # u'  u'
        wdl * dr,                                        # u   u
        ws * du1 * dz * dr / l1,                         # u'  v'
        w * (du2 * dz + sq * l2),                        # u'  v
        wdl * dz,                                        # u   v
        ws * (du1 * dr * dr / l1 + su12),                # v'  v'
        mid,                                             # v'  v
        mid,                                             # v   v'
        w * (l2 * du1_swap + su21 + sq * dz) / s,        # v   v
    ])
    p = (t.left * c[:, None, :]) @ t.right_t

    m = state.spec.m
    h = np.empty((2 * m, 2 * m))
    h[:m, :m] = p[0] + p[1]
    h[:m, m:] = p[2] + p[3] - p[4]
    h[m:, :m] = h[:m, m:].T
    h[m:, m:] = p[5] + (p[6] + p[7]) + p[8]
    h += h.T
    h *= 0.5
    return h


def load_derivative(state: SolutionState, mat: MaterialParams, rule,
                    tables: BasisTables | None = None,
                    terms: NodeTerms | None = None) -> np.ndarray:
    """dg/dc at fixed coefficients, for load-parametrized continuation.

    Reads only the nodal shape, so without `terms` the material is not
    evaluated.
    """
    if terms is None:
        t = _tables(state, rule, tables)
        z, r, dz, dr, l1, l2, q = _nodal(state, t)
    else:
        t, dz, dr, l2 = terms.tables, terms.dz, terms.dr, terms.l2
    wl = t.ws * l2
    gc_u = -(t.u @ (wl * dr))
    gc_v = t.v @ (wl * dz)
    return np.concatenate([gc_u, gc_v])


def p_gradient(state: SolutionState, mat: MaterialParams, rule,
               tables: BasisTables | None = None) -> np.ndarray:
    """Partial of the potential energy in the steepness parameters.

    Same integrand structure as the residual with the basis generators
    replaced by the parameter derivatives of the trial shape.  At a
    converged state this is also the total derivative of the energy along
    the optimized family, which is what the outer parameter search zeroes.
    The tension coefficients come from `node_terms`, as for the residual,
    and the parameter derivatives of the profile from the tables
    (`BasisTables.rho_p`), which must be those of the state's basis.
    """
    t, z, r, dz, dr, l1, l2, q, su12, su21, _ = _terms(
        state, mat, rule, tables, None)
    dz_dp, dr_dp, dzp_dp, drp_dp = _shape_p(state, t.s, t.rho_p)
    w, s, ws = t.w, t.s, t.ws
    wsu = ws * su12
    wql = ws * q * l2
    out = (
        dzp_dp @ (wsu * dz)
        - dz_dp @ (wql * dr)
        + drp_dp @ (wsu * dr)
        + dr_dp @ (w * (su21 * l2 + s * q * l2 * dz))
    )
    return np.asarray(out, dtype=float)
