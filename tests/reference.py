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
columns.  `bvp_state` solves the strong form as a boundary value problem,
apart from the Ritz method, for the error of a Ritz state, and `bvp_curve`
the load at given pole sags, for the load-sag curve and its folds.
`fold_count` counts the folds of a load path.

The p step has plain forms too, one expression per array: `steep_profile`
(the scaled Bessel profile rho, rho' and its partials in p, on scipy's
i0e and i1e), `ladder` and `steep_tables` (the steep generators at the
nodes and the pole, and the stacks a table build derives from them),
`shape_p` (the partials of the trial shape in p), `psi` and `energy_value`
(the energy's gradient in p and the energy itself); `BasisTables.build`,
`BasisTables.rho_p`, `Evaluator.p_gradient` and
`Evaluator.functional_value` must agree with them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ritzmem import solver
from ritzmem.basis import SolutionState, eval_shape
from ritzmem.kinematics import LoadParams, curvatures, hydro_load, stretches
from ritzmem.material import (MaterialParams, energy_derivs, principal_stresses,
                               tension_partials, tension_values)


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


def _strong_rhs(mat: MaterialParams, s, y, c: float, d: float):
    """(z', z'', r', r'') of the strong form at the points s, from the rows
    (z, z', r, r') of y at the load (c, d).

    The weak form in the `assembly` docstring, integrated by parts, is
    (s U(l1,l2) z')' = -s Q l2 r' and (s U(l1,l2) r')' = U(l2,l1) l2 +
    s Q l2 z'; a 2 x 2 system gives z'' and r''.
    """
    z, dz, r, dr = y
    l1, l2 = np.hypot(dz, dr), r / s
    u12, u21, parts = tension_values(l1, l2, mat)
    ua, ub, _ = tension_partials(parts)
    q = hydro_load(z, c, d)
    # s U' z' and s U' r' carry U_a l1' = U_a (z' z'' + r' r'') / l1
    a11, a12, a22 = (s * (u12 + ua * dz * dz / l1), s * ua * dz * dr / l1,
                     s * (u12 + ua * dr * dr / l1))
    grow = ub * (dr - l2)  # s U_b l2'
    b1 = -s * q * l2 * dr - (u12 + grow) * dz
    b2 = u21 * l2 + s * q * l2 * dz - (u12 + grow) * dr
    det = a11 * a22 - a12 * a12
    return np.array([dz, (a22 * b1 - a12 * b2) / det,
                     dr, (a11 * b2 - a12 * b1) / det])


# the pole end of the reference interval [EPS, 1]
EPS = 1e-3


def _pole_and_edge(mat: MaterialParams, ya, yb, c: float, d: float):
    """The pole series conditions z' - eps z'' = 0 and r - eps r' = 0, both
    O(eps**3), and the clamped edge z = 0, r = 1."""
    d2z = _strong_rhs(mat, np.array([EPS]), ya[:, None], c, d)[1, 0]
    return [ya[1] - EPS * d2z, ya[2] - EPS * ya[3], yb[0], yb[2] - 1.0]


def bvp_state(mat: MaterialParams, load: LoadParams, guess):
    """The equilibrium near the state `guess`, from the strong form alone.

    `scipy.integrate.solve_bvp` solves `_strong_rhs` to a tolerance of 1e-8
    on [eps, 1], eps = 1e-3, from the shape of `guess`, with the pole and
    edge conditions of `_pole_and_edge`.  Returns the mesh s and the rows
    (z, z', r, r') on it.
    """
    from scipy.integrate import solve_bvp

    s = np.linspace(EPS, 1.0, 101)
    shape = eval_shape(guess, s)
    res = solve_bvp(lambda s, y: _strong_rhs(mat, s, y, load.c, load.d),
                    lambda ya, yb: np.array(_pole_and_edge(mat, ya, yb, load.c, load.d)),
                    s, np.array([shape.z, shape.dz, shape.r, shape.dr]), tol=1e-8)
    if not res.success:
        raise RuntimeError(f"reference solve failed: {res.message}")
    return res.x, res.y


def bvp_curve(mat: MaterialParams, d: float, sags, guess):
    """The loads c at the pole sags `sags` of the load-sag curve at the load
    gradient d, from the strong form alone.

    As `bvp_state`, with c an unknown parameter of `solve_bvp` and the
    extra condition z(eps) - eps z'(eps)/2 = f, the pole sag f to O(eps**4)
    as z'(0) = 0.  The first sag starts from the shape and load of the
    state `guess`, and each next one from the solution at the last, so the
    sags are steps along one branch of the curve; a fold in c is passed
    like any other point, since the sag is fixed.  Past the second fold
    (f ~ 2.5 on the gas curve) the mesh outgrows `solve_bvp`'s default of
    1000 nodes, so it may take 5000.  Returns the loads, one per sag.
    """
    from scipy.integrate import solve_bvp

    s = np.linspace(EPS, 1.0, 101)
    shape = eval_shape(guess, s)
    y, c = np.array([shape.z, shape.dz, shape.r, shape.dr]), guess.load.c
    loads = []
    for f in sags:
        res = solve_bvp(
            lambda s, y, p: _strong_rhs(mat, s, y, p[0], d),
            lambda ya, yb, p: np.array(_pole_and_edge(mat, ya, yb, p[0], d)
                                       + [ya[0] - 0.5 * EPS * ya[1] - f]),
            s, y, p=[c], tol=1e-8, max_nodes=5000)
        if not res.success:
            raise RuntimeError(f"reference solve failed at f = {f}: {res.message}")
        s, y, c = res.x, res.y, float(res.p[0])
        loads.append(c)
    return np.array(loads)


def fold_count(points) -> int:
    """Folds of a continuation path: the reversals of its load c.

    Past its second fold the gas d = 1 curve also turns in f while c keeps
    rising, which is not a fold, so sign changes of dc/df would overcount.
    """
    dc = np.sign(np.diff([pt.c_value for pt in points]))
    return int(np.count_nonzero(np.diff(dc[dc != 0.0])))


def steep_profile(s, p):
    """rho, rho' and the partials (d rho/dp, d rho'/dp), (n_p,) + s.shape
    each, of the steep profile rho = I0(y(s))/I0(y(1)), y = sum p[i]
    s**(2i+1), at the 1-d points s."""
    from scipy.special import i0e, i1e

    y, dy = np.zeros_like(s), np.zeros_like(s)
    for i, pi in enumerate(p):
        e = 2 * i + 1
        y += pi * s ** e
        dy += pi * e * s ** (e - 1)
    y1 = float(sum(p))
    ys = np.append(y, y1)
    i0, i1 = i0e(ys)[:-1], i1e(ys)[:-1]
    i0_1, i1_1 = i0e(y1), i1e(y1)
    beta1 = i1_1 / i0_1
    scale = np.exp(np.abs(y) - abs(y1)) / i0_1
    rho = scale * i0
    drho = scale * i1 * dy
    small = np.abs(y) < 1e-4
    series = np.exp(-np.abs(y)) * (0.5 + y * y / 16.0 + y ** 4 / 384.0)
    db1 = i0 - np.where(small, series, i1 / np.where(small, 1.0, y))
    beta = i1 / i0
    drho_dp, ddrho_dp = np.empty((2, len(p)) + s.shape)
    for i in range(len(p)):
        e = 2 * i + 1
        se = s ** e
        drho_dp[i] = rho * (beta * se - beta1)
        ddrho_dp[i] = scale * (db1 * se * dy + i1 * e * s ** (e - 1)) - drho * beta1
    return rho, drho, drho_dp, ddrho_dp


def ladder(u1, du1, a, da, s, m: int):
    """(u, u', v, v') of the steep ladder: u_1 = u1, u_2 = a (s**2 - 1),
    u_k = s**2 u_{k-1} for k >= 3, v_k = s u_k, with the s-derivatives du1
    and da of u1 and a; k leads."""
    u = np.empty((m,) + np.shape(u1))
    du = np.empty_like(u)
    ss, s2 = s * s, 2.0 * s
    u[0] = u1
    du[0] = du1
    if m >= 2:
        w = ss - 1.0
        u[1] = a * w
        du[1] = da * w + s2 * a
    for k in range(2, m):
        u[k] = ss * u[k - 1]
        du[k] = s2 * u[k - 1] + ss * du[k - 1]
    return u, du, s * u, u + s * du


# the generator pairs (A, B) of the tangent's products, as rows of the
# (u, u', v, v') stack
LEFT = [1, 1, 1, 3, 3, 2, 2, 0, 0]
RIGHT = [1, 3, 2, 3, 2, 3, 2, 0, 2]


def steep_tables(spec, rule):
    """The arrays of a steep table build: u, u', v, v' at the nodes, u at
    the pole, w s, the stacked pairs (left, right_t) and the partials of
    rho and rho' in p at the nodes, (2, n_p, n)."""
    s = np.append(rule.nodes, 0.0)
    rho, drho, drho_dp, ddrho_dp = steep_profile(s, spec.p)
    u, du, v, dv = ladder(1.0 - rho, -drho, rho, drho, s, spec.m)
    gen = np.array([u[:, :-1], du[:, :-1], v[:, :-1], dv[:, :-1]])
    return {"u": gen[0], "du": gen[1], "v": gen[2], "dv": gen[3],
            "u0": u[:, -1].copy(), "ws": rule.weights * rule.nodes,
            "left": gen[LEFT], "right_t": gen[RIGHT].transpose(0, 2, 1),
            "rho_p": np.array([drho_dp, ddrho_dp])[:, :, :-1]}


def shape_p(x, s, rho_p):
    """(dz/dp, dr/dp, dz'/dp, dr'/dp) of the coefficients x at the nodes s
    from the partials rho_p there."""
    drho_dp, ddrho_dp = rho_p
    m = len(x) // 2
    u_p, du_p, v_p, dv_p = ladder(-drho_dp, -ddrho_dp, drho_dp, ddrho_dp, s, m)
    return tuple(c @ g.reshape(m, -1) for c, g in
                 ((x[:m], u_p), (x[m:], v_p), (x[:m], du_p), (x[m:], dv_p)))


def psi(state, mat: MaterialParams, t):
    """The energy's partials in p of the state on the steep tables t."""
    _, r, dz, dr, l1, l2, q = nodal(state, t)
    su12, su21 = stiffness_scalar(l1, l2, mat), stiffness_scalar(l2, l1, mat)
    dz_dp, dr_dp, dzp_dp, drp_dp = (
        g.reshape(-1, t.s.size) for g in shape_p(state.x, t.s, t.rho_p))
    w, s = t.w, t.s
    ws = w * s
    wsu = ws * su12
    wql = ws * q * l2
    return (dzp_dp @ (wsu * dz) - dz_dp @ (wql * dr) + drp_dp @ (wsu * dr)
            + dr_dp @ (w * (su21 * l2 + s * q * l2 * dz)))


def energy_value(state, mat: MaterialParams, t) -> float:
    """The potential energy, one half of int [ W s + Q r**2 z' ] ds."""
    _, r, dz, _, l1, l2, q = nodal(state, t)
    l3 = 1.0 / (l1 * l2)
    i1 = l1 * l1 + l2 * l2 + l3 * l3
    i2 = 1.0 / (l1 * l1) + 1.0 / (l2 * l2) + 1.0 / (l3 * l3)
    e1, e2 = i1 - 3.0, i2 - 3.0
    w = e1 + mat.gamma1 * e2 + mat.gamma2 * e1 * e1 + mat.gamma3 * e1 ** 3
    return 0.5 * float(t.w @ (w * t.s + q * r * r * dz))
