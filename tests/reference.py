"""Reference forms the tests share.

`stiffness_scalar` and `stiffness_derivs` evaluate the tension coefficient
and its partials one argument order at a time, expression by expression;
`material.tension_values` and `tension_partials` must agree with them bit
for bit.  `per_product_forms` assembles the residual, the tangent and dg/dc
from them one weighted product at a time, and `newton_reference` runs
`solver.newton_solve`'s iteration on those forms; the assembly and Newton
must agree with them bit for bit.  `strong_form` evaluates the shape, the
stretches, the tensions and the equilibrium defect at the points it is
given, from `eval_shape` and the kinematics and material functions, apart
from the solver's strong-form pass; `solver.delta_diagnostic` must give its
`defect` bit for bit at its probes and grid, and `cli.profile_rows` its
columns.  `fold_count` counts the folds of a load path.
"""

from __future__ import annotations

import math

import numpy as np

from ritzmem import solver
from ritzmem.basis import SolutionState, eval_shape
from ritzmem.kinematics import LoadParams, curvatures, hydro_load, stretches
from ritzmem.material import MaterialParams, energy_derivs, principal_stresses


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


def nodal(state, t):
    """Trial shape, stretches and load (z, r, z', r', l1, l2, Q) at the
    nodes of the tables t."""
    m = state.spec.m
    xu, xv = state.x[:m], state.x[m:]
    z = xu @ t.u
    dz = xu @ t.du
    r = t.s + xv @ t.v
    dr = 1.0 + xv @ t.dv
    return (z, r, dz, dr, np.hypot(dz, dr), r / t.s,
            hydro_load(z, state.load.c, state.load.d))


def _sandwich(a, c, b):
    return (a * c) @ b.T


def per_product_forms(state, mat: MaterialParams, t):
    """Residual, tangent and dg/dc product by product, on the reference
    material.

    The tension coefficients come from `stiffness_scalar` and
    `stiffness_derivs`; each of the tangent's nine weighted products is its
    own 2-D matmul, summed in assembly order.
    """
    _, _, dz, dr, l1, l2, q = nodal(state, t)
    su12, su21 = stiffness_scalar(l1, l2, mat), stiffness_scalar(l2, l1, mat)
    du1, du2 = stiffness_derivs(l1, l2, mat)
    du1_swap = stiffness_derivs(l2, l1, mat)[0]
    d = state.load.d
    w, s = t.w, t.s
    ws = w * s
    g = np.concatenate([
        t.du @ (ws * su12 * dz) - t.u @ (ws * q * l2 * dr),
        t.dv @ (ws * su12 * dr) + t.v @ (w * su21 * l2 + ws * q * l2 * dz)])
    h_uu = (_sandwich(t.du, ws * (du1 * dz * dz / l1 + su12), t.du)
            + _sandwich(t.u, ws * d * l2 * dr, t.u))
    h_uv = (_sandwich(t.du, ws * du1 * dz * dr / l1, t.dv)
            + _sandwich(t.du, w * (du2 * dz + s * q * l2), t.v)
            - _sandwich(t.u, ws * d * l2 * dz, t.v))
    mid = w * du2 * dr
    h_vv = (_sandwich(t.dv, ws * (du1 * dr * dr / l1 + su12), t.dv)
            + (_sandwich(t.dv, mid, t.v) + _sandwich(t.v, mid, t.dv))
            + _sandwich(t.v, w * (l2 * du1_swap + su21 + q * s * dz) / s, t.v))
    h = np.block([[0.5 * (h_uu + h_uu.T), h_uv],
                  [h_uv.T, 0.5 * (h_vv + h_vv.T)]])
    gc = np.concatenate([-(t.u @ (ws * l2 * dr)), t.v @ (ws * l2 * dz)])
    return g, h, gc


def newton_reference(x0, ctx, border=None, corrector=False):
    """`solver.newton_solve` from x0, written plainly on `per_product_forms`.

    Each iterate builds its state, its forms and, with `border` = (a, b,
    rhs), the bordered system anew; the stop rules are newton_solve's.
    Returns (x, c, residual history, iterations, message).
    """
    x = np.array(x0, dtype=float)
    n = x.size
    c = ctx.load.c
    e = np.concatenate([ctx.tables.u0, np.zeros(n // 2)])
    hist, growth, steps, message = [], 0, 0, ""
    limit = solver.CORRECTOR_ITERS if corrector else solver.NEWTON_MAX_ITER
    while True:
        state = SolutionState(x, ctx.spec, LoadParams(c, ctx.load.d))
        g, h, gc = per_product_forms(state, ctx.mat, ctx.tables)
        if border is not None:
            a, b, rhs = border
            g = np.append(g, a * float(e @ x) + b * c - rhs)
            h = np.block([[h, gc[:, None]], [a * e, b]])
        gn = float(np.abs(g).max())
        if not math.isfinite(gn):
            hist.append(math.inf)
            message = "residual not finite"
            break
        hist.append(gn)
        if gn <= solver.NEWTON_TOL:
            l2_min = float(nodal(state, ctx.tables)[5].min())
            if l2_min <= 0.0:
                message = f"lambda2 = r/s down to {l2_min:.6g} <= 0 at c = {c}"
            break
        if corrector and len(hist) > 1 and gn > solver.CONTRACTION * hist[-2]:
            message = "residual not halving"
            break
        growth = growth + 1 if len(hist) > 1 and gn > hist[-2] else 0
        if growth >= 3:
            message = "residual diverging"
            break
        if steps >= limit:
            message = "max_iter exceeded"
            break
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            message = "singular tangent matrix"
            break
        x = x - step[:n]
        c_next = c - float(step[n]) if border is not None else c
        steps += 1
        if not (np.isfinite(x).all() and math.isfinite(c_next)):
            message = "iterate not finite"
            break
        c = c_next
    return x, c, hist, steps, message


def strong_form(state, mat: MaterialParams, s):
    """(shape, lambda1, lambda2, T1, T2, delta) at the points s alone.

    delta = |k1 T1 + k2 T2 - Q| / |c|, raw at zero load, with the pole
    limits of lambda2 and k2.
    """
    s = np.asarray(s, dtype=float)
    shape = eval_shape(state, s, second=True)
    l1, l2, _ = stretches(s, shape.r, shape.dz, shape.dr, pole_limit=True)
    t1, t2 = principal_stresses(l1, l2, mat)
    k1, k2 = curvatures(s, shape)
    c = state.load.c
    delta = np.abs(k1 * t1 + k2 * t2 - hydro_load(shape.z, c, state.load.d))
    return shape, l1, l2, t1, t2, delta / abs(c) if c != 0.0 else delta


def defect(state, mat: MaterialParams, s):
    """delta at the points s alone, from a shape evaluated at them only."""
    return strong_form(state, mat, s)[-1]


def fold_count(points) -> int:
    """Folds of a continuation path: the reversals of its load c.

    Past its second fold the gas d = 1 curve also turns in f while c keeps
    rising, which is not a fold, so sign changes of dc/df would overcount.
    """
    dc = np.sign(np.diff([pt.c_value for pt in points]))
    return int(np.count_nonzero(np.diff(dc[dc != 0.0])))
