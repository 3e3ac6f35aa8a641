"""Weighted-residual assembly for the membrane equilibrium.

With U(a, b) the tension coefficient and Q = c - d*z the local pressure,
the stationarity conditions of the potential energy in the Ritz
coefficients are

  g_i     = int [ U(l1,l2) z' u_i' - Q l2 r' u_i ] s ds
  g_{m+i} = int [ U(l1,l2) r' v_i' + (U(l2,l1) l2 / s + Q l2 z') v_i ] s ds

and the tangent matrix is their exact coefficient Jacobian, which is
symmetric because g is the gradient of a scalar.  All integrals run over
the open interval, so the 1/s factors never hit the pole.

The residual, the tangent and dg/dc have one form each, in `Evaluator`.
A Newton solve evaluates every iterate through one evaluator, and a sweep
keeps one for all its correctors (`set_border`): the nodal shape and the
tension coefficients U once per iterate, the partials of U only for an
iterate that assembles a tangent, so a converged iterate, a corrector that
gave up and `p_gradient` evaluate none.  The public functions evaluate one
state each, on an evaluator of their own.  Its matrix-vector products call
`ndarray.dot`, which makes the BLAS call of `@` with less dispatch, bit for
bit.  An iterate passes no Python float to a ufunc: the literals, the
energy coefficients and d are read-only float64 0-d arrays
(`material._const`), with the same bits and without numpy's conversion of
a Python float on every call.  Nor does it slice: the evaluator makes the
views it writes through once and keeps them from solve to solve.

Nor does an iterate allocate an array of the nodes' length.  On the steep
rules (192 and 384 nodes) each such temporary, 1.5 or 3 KB, is past numpy's
1 KB small-block cache, so it would cost a malloc and a free; the 64-node
arrays of the polynomial rule are served from that cache.  Each evaluator
keeps one workspace of node-length rows, made with it in one block (the
tangent's in a second, by its first tangent), and the shape, Q, U and its
partials, the residual's weighted rows, the tangent's weight rows and the
row-weighted generators of its batched product are written into it, in
place or through the output argument of each ufunc and of `ndarray.dot`
(passed positionally, which numpy parses faster than `out=`).  Every
element goes through the operations of the plain expression in the same
order, so every value keeps its bits.  What still allocates is the iterator
buffer numpy makes for the broadcast of the weight rows over the
generators, and a few views (the halves of x) and tuples per call.

An evaluator with d = 0 (a gas load) forms no hydrostatic term: not z, since
Q = c - 0*z is the load c at any finite z, nor the two tangent products
weighted by w s d l2, u u and u v, each a signed zero added to a non-zero
block.  The tables keep those two generator pairs last, so the batched
product runs on the leading seven.  Every value keeps its bits.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables, SolutionState, _shape_p
from .kinematics import hydro_load
from .material import (_PARTIAL_ROWS, _VALUE_ROWS, ONE, MaterialParams, _const,
                       _partial_work, _value_work, energy, tension_partials,
                       tension_values)

HALF = _const(0.5)
# the evaluator's own n-length rows in its block, ahead of the arrays of
# `tension_values`: z', r', r, Q (z before it) and three rows of scratch
_NODAL_ROWS = 7


class Evaluator:
    """Residual, tangent and dg/dc of the iterates of Newton solves.

    Built once per solve, or per sweep, from the tables, the material and
    the load gradient d, with what no iterate changes: w*s*d and, with
    `border` = (a, b, rhs), the bordered row a (e.x) + b c = rhs, where e.x
    is the pole sag.  `at(x, c)` evaluates the nodal shape and U of one
    iterate; `residual` and `tangent` then write into arrays the evaluator
    keeps, so each call overwrites what the last one returned: the residual
    g (the bordered row last) and the tangent H = dg/dx (bordered by the
    column dg/dc and the row).  The tangent is nine row-weighted
    products A diag(c) B^T, one batched matmul over the generator pairs of
    `BasisTables.left` and `right_t` with the weight rows c of one (9, n)
    array, summed block by block; at d = 0 the two hydrostatic products,
    the last two, are left out, and Q is the load c as a 0-d array.  Those
    rows, the partials' arrays, the (k, m, n) row-weighted generators, the
    (9, m, m) products and every view of them and of H are made by the
    first tangent and kept (`_buffers`), so a lone residual makes none of
    them.  The arrays an iterate writes, the shape, the stretches (stacked
    as `tension_values` reads them), Q, the arrays of `tension_values` and
    the residual's scratch rows, are one block made with the evaluator; the
    next iterate overwrites them, as it does g and H, so an evaluator is
    never shared by two solves in flight.  The coupling
    block is built once and set in both places, and the matrix is mirrored
    as (H + H^T) / 2, which symmetrizes the diagonal blocks and leaves the
    coupling blocks exact.  The v-v curvature coefficient uses the swap
    identity dU/db(a,b) = (b/a) dU/db(b,a), so the mirrored matrix equals
    the exact coefficient Jacobian of the residual up to quadrature error.
    """

    def __init__(self, tables: BasisTables, mat: MaterialParams, d: float,
                 border: tuple | None = None):
        m = tables.u.shape[0]
        n = 2 * m + (border is not None)
        self.tables, self.mat, self.m, self.border = tables, mat, m, border
        self.d = _const(d)
        self._hydrostatic = bool(d != 0.0)
        self.wd = tables.ws * self.d if self._hydrostatic else None
        self.g = np.empty(n)
        self.h = np.empty((n, n))
        self.g_halves = self.g[:m], self.g[m:2 * m]
        rows = np.empty((_NODAL_ROWS + sum(_VALUE_ROWS), tables.s.size))
        self.dz, self.dr, self.r, q, *self.scratch = rows[:_NODAL_ROWS]
        self.values = _value_work(rows[_NODAL_ROWS:])
        self.l1, self.l2 = self.values[0]  # the stacked stretches
        self.c0 = np.empty(())  # the iterate's load c
        self.q = q if self._hydrostatic else self.c0
        self.gm = np.empty(m)  # one matrix-vector product of length m
        self.buffers = None  # the tangent's, made by its first call
        if border is not None:
            self.e = np.concatenate([tables.u0, np.zeros(m)])
            self.set_border(border)

    def set_border(self, border: tuple) -> None:
        """Make `border` = (a, b, rhs) the bordered row, in place."""
        self.border = border
        self.h[-1, :-1] = border[0] * self.e
        self.h[-1, -1] = border[1]

    def nodal(self, x, c):
        """Trial shape, stretches and load (r, z', r', l1, l2, Q) at the
        quadrature nodes, written into the evaluator's arrays; at d = 0, Q
        is the 0-d array of c and z is not formed."""
        t, m, r, dz, dr = self.tables, self.m, self.r, self.dz, self.dr
        xu, xv = x[:m], x[m:]
        self.c0[()] = c
        if self._hydrostatic:
            hydro_load(xu.dot(t.u, self.q), self.c0, self.d, self.q)
        xu.dot(t.du, dz)
        np.add(t.s, xv.dot(t.v, r), r)
        np.add(ONE, xv.dot(t.dv, dr), dr)
        np.hypot(dz, dr, self.l1)
        np.divide(r, t.s, self.l2)
        return r, dz, dr, self.l1, self.l2, self.q

    def at(self, x, c) -> None:
        """Evaluate the iterate (x, c): its nodal shape and U, once."""
        self.x, self.c = x, c
        self.nodal(x, c)
        self.su12, self.su21, self.parts = tension_values(
            self.l1, self.l2, self.mat, self.values)

    def residual(self) -> np.ndarray:
        """The residual g at the iterate of `at`, the bordered row last."""
        t, g, dz, dr, l2, gm = self.tables, self.g, self.dz, self.dr, self.l2, self.gm
        g_u, g_v = self.g_halves
        wsu, wql, tmp = self.scratch
        np.multiply(t.ws, self.su12, wsu)
        np.multiply(t.ws, self.q, wql)
        wql *= l2
        # g_u = u'.(ws U12 z') - u.(ws Q l2 r')
        t.du.dot(np.multiply(wsu, dz, tmp), g_u)
        t.u.dot(np.multiply(wql, dr, tmp), gm)
        g_u -= gm
        # g_v = v'.(ws U12 r') + v.(w U21 l2 + ws Q l2 z')
        t.dv.dot(np.multiply(wsu, dr, tmp), g_v)
        np.multiply(t.w, self.su21, tmp)
        tmp *= l2
        tmp += np.multiply(wql, dz, wsu)
        g_v += t.v.dot(tmp, gm)
        if self.border is not None:
            a, b, rhs = self.border
            g[-1] = a * float(self.e.dot(self.x)) + b * self.c - rhs
        return g

    def _buffers(self) -> tuple:
        """The tangent's arrays and its views of them, made once: the nine
        weight rows, the nine products with their blocks, the operands of
        the batched product (the leading seven pairs at d = 0) and the
        row-weighted generators it multiplies, the blocks of H with the
        square part and its transpose, the halves of the bordered column,
        two rows of scratch and the arrays of `tension_partials`; the
        n-length rows are one block."""
        t, m, h = self.tables, self.m, self.h
        n = 2 * m
        k = 9 if self._hydrostatic else 7
        rows = np.empty((11 + sum(_PARTIAL_ROWS), t.s.size))
        prod = np.empty((9, m, m))
        h_uv, hx = h[:m, m:n], h[:n, :n]
        column = (h[:m, n], h[m:n, n]) if self.border is not None else None
        return (*rows[:9], *prod, t.left[:k], rows[:k, None, :],
                np.empty((k, m, t.s.size)), t.right_t[:k], prod[:k], h[:m, :m],
                h_uv, h[m:n, :m], h_uv.T, h[m:n, m:n], hx, hx.T, column,
                rows[9], rows[10], _partial_work(rows[11:]))

    def tangent(self) -> np.ndarray:
        """The tangent at the iterate of `at`, bordered if the solve is;
        the partials of U are evaluated here, once."""
        if self.buffers is None:
            self.buffers = self._buffers()
        (c0, c1, c2, c3, c4, c5, c6, c7, c8,
         p0, p1, p2, p3, p4, p5, p6, p7, p8, left, rows_3d, weighted, right_t,
         prod, h_uu, h_uv, h_vu, h_uv_t, h_vv, hx, hx_t, column, sq, tmp,
         partials) = self.buffers
        du1, du2, du1_swap = tension_partials(self.parts, partials)
        t = self.tables
        dz, dr, l1, l2, su12 = self.dz, self.dr, self.l1, self.l2, self.su12
        w, s, ws = t.w, t.s, t.ws
        np.multiply(s, self.q, sq)
        # one weight row per generator pair (A, B), in the order of the
        # tables, each formed in place in the order of its formula
        np.multiply(du1, dz, c0)            # u'  u': ws (dU/da z'^2 / l1 + U12)
        c0 *= dz
        c0 /= l1
        c0 += su12
        np.multiply(ws, c0, c0)
        np.multiply(ws, du1, c1)            # u'  v': ws dU/da z' r' / l1
        c1 *= dz
        c1 *= dr
        c1 /= l1
        np.multiply(du2, dz, c2)            # u'  v:  w (dU/db z' + s Q l2)
        c2 += np.multiply(sq, l2, tmp)
        np.multiply(w, c2, c2)
        np.multiply(du1, dr, c3)            # v'  v': ws (dU/da r'^2 / l1 + U12)
        c3 *= dr
        c3 /= l1
        c3 += su12
        np.multiply(ws, c3, c3)
        np.multiply(w, du2, c4)             # v'  v:  w dU/db r'
        c4 *= dr
        c5[...] = c4                        # v   v'
        np.multiply(l2, du1_swap, c6)       # v   v:  w (l2 dU/da(l2,l1) + U21 + s Q z') / s
        c6 += self.su21
        c6 += np.multiply(sq, dz, tmp)
        np.multiply(w, c6, c6)
        c6 /= s
        if self._hydrostatic:
            np.multiply(self.wd, l2, c8)
            np.multiply(c8, dr, c7)         # u   u:  w s d l2 r'
            c8 *= dz                        # u   v:  w s d l2 z'
        np.matmul(np.multiply(left, rows_3d, weighted), right_t, prod)

        if self._hydrostatic:
            np.add(p0, p7, h_uu)
            np.add(p1, p2, h_uv)
            h_uv -= p8
        else:
            h_uu[...] = p0
            np.add(p1, p2, h_uv)
        h_vu[...] = h_uv_t
        np.add(p4, p5, h_vv)
        np.add(p3, h_vv, h_vv)
        h_vv += p6
        hx += hx_t
        hx *= HALF
        if column is not None:
            self.dg_dc(dz, dr, l2, column)
        return self.h

    def dg_dc(self, dz, dr, l2, out) -> None:
        """dg/dc at the nodal shape (z', r', l2), written into the pair of
        arrays `out`, its u and v halves, through the residual's scratch."""
        t, gm = self.tables, self.gm
        wl, _, tmp = self.scratch
        np.multiply(t.ws, l2, wl)
        np.negative(t.u.dot(np.multiply(wl, dr, tmp), gm), out[0])
        out[1][...] = t.v.dot(np.multiply(wl, dz, tmp), gm)


def _evaluator(state: SolutionState, mat: MaterialParams, rule,
               tables: BasisTables | None) -> Evaluator:
    """An evaluator of the state's basis, on `tables` or on a build on the rule."""
    if tables is None:
        tables = BasisTables.build(state.spec, rule)
    return Evaluator(tables, mat, state.load.d)


def _at(state: SolutionState, mat: MaterialParams, rule, tables) -> Evaluator:
    """An evaluator that has evaluated the state (`Evaluator.at`)."""
    ev = _evaluator(state, mat, rule, tables)
    ev.at(state.x, state.load.c)
    return ev


def functional_value(state: SolutionState, mat: MaterialParams, rule,
                     tables: BasisTables | None = None) -> float:
    """Potential energy of the trial shape.

    One half of int [ W s + Q r**2 z' ] ds; its gradient in the Ritz
    coefficients is exactly the residual vector, for any d.
    """
    ev = _evaluator(state, mat, rule, tables)
    r, dz, dr, l1, l2, q = ev.nodal(state.x, state.load.c)
    l3 = 1.0 / (l1 * l2)
    i1 = l1 * l1 + l2 * l2 + l3 * l3
    i2 = 1.0 / (l1 * l1) + 1.0 / (l2 * l2) + 1.0 / (l3 * l3)
    w = energy(i1, i2, mat)
    t = ev.tables
    return 0.5 * float(t.w @ (w * t.s + q * r * r * dz))


def residual(state: SolutionState, mat: MaterialParams, rule,
             tables: BasisTables | None = None) -> np.ndarray:
    """Equilibrium residual g (length 2m) at the current coefficients."""
    return _at(state, mat, rule, tables).residual()


def jacobian(state: SolutionState, mat: MaterialParams, rule,
             tables: BasisTables | None = None) -> np.ndarray:
    """Tangent matrix H = dg/dx, assembled symmetric (see `Evaluator`)."""
    return _at(state, mat, rule, tables).tangent()


def load_derivative(state: SolutionState, mat: MaterialParams, rule,
                    tables: BasisTables | None = None) -> np.ndarray:
    """dg/dc at fixed coefficients, for load-parametrized continuation.

    Reads only the nodal shape, so the material is not evaluated.
    """
    ev = _evaluator(state, mat, rule, tables)
    _, dz, dr, _, l2, _ = ev.nodal(state.x, state.load.c)
    out = np.empty(state.x.size)
    ev.dg_dc(dz, dr, l2, (out[:ev.m], out[ev.m:]))
    return out


def p_gradient(state: SolutionState, mat: MaterialParams, rule,
               tables: BasisTables | None = None) -> np.ndarray:
    """Partial of the potential energy in the steepness parameters.

    Same integrand structure as the residual with the basis generators
    replaced by the parameter derivatives of the trial shape.  At a
    converged state this is also the total derivative of the energy along
    the optimized family, which is what the outer parameter search zeroes.
    The nodal shape and U come from `Evaluator.at`, as for the residual,
    and the parameter derivatives of the profile from the tables
    (`BasisTables.rho_p`), which must be those of the state's basis.
    """
    ev = _at(state, mat, rule, tables)
    t, dz, dr, l2, q = ev.tables, ev.dz, ev.dr, ev.l2, ev.q
    dz_dp, dr_dp, dzp_dp, drp_dp = _shape_p(state, t.s, t.rho_p)
    w, s, ws = t.w, t.s, t.ws
    wsu = ws * ev.su12
    wql = ws * q * l2
    out = (
        dzp_dp @ (wsu * dz)
        - dz_dp @ (wql * dr)
        + drp_dp @ (wsu * dr)
        + dr_dp @ (w * (ev.su21 * l2 + s * q * l2 * dz))
    )
    return np.asarray(out, dtype=float)
