"""Weighted-residual assembly for the membrane equilibrium.

With U(a, b) the tension coefficient and Q = c - d*z the local pressure,
the stationarity conditions of the potential energy in the Ritz
coefficients are

  g_i     = int [ U(l1,l2) z' u_i' - Q l2 r' u_i ] s ds
  g_{m+i} = int [ U(l1,l2) r' v_i' + (U(l2,l1) l2 / s + Q l2 z') v_i ] s ds

and the tangent matrix is their exact coefficient Jacobian, which is
symmetric because g is the gradient of a scalar.  All integrals run over
the open interval, so the 1/s factors never hit the pole.

The residual, the tangent, dg/dc, the energy and its gradient in the
steepness parameters have one form each, in `Evaluator`.  A Newton solve
evaluates every iterate through one evaluator, a sweep keeps one for all
its correctors (`set_border`), and a p search one for all its inner solves,
pointed at the tables of each p (`use`): the nodal shape and U once per
iterate, the partials of U only for a tangent.  The search reads the
energy and its gradient in p at the converged iterate its evaluator has
just evaluated; the public functions run an evaluator of their own.

An iterate, and the energy and its gradient in p, pass no Python float to
a ufunc (literals, energy coefficients and d are read-only 0-d arrays,
`material._const`, which numpy need not convert on every call), make no
view, and allocate no array of the nodes' length: on the steep rules (192
and 384 nodes) such a temporary is past numpy's 1 KB small-block cache,
so it would cost a malloc and a free.  The evaluator keeps its views and
node-length rows (a block made with it, one for the tangent and one for
the gradient in p made by their first calls) and writes the shape, Q, U,
its partials, the weighted rows, the invariants, the weight rows and the
shape's partials in p into them, in place or through the output argument
of each ufunc and of `ndarray.dot` (passed positionally, which numpy
parses faster than `out=`; it makes the BLAS call of `@` with less
dispatch).  Every element goes through the operations of the plain
expression in the same order, so every value keeps its bits.  What still
allocates: numpy's iterator buffer for the tangent's broadcast, and a few
views and tuples.

An evaluator with d = 0 (a gas load) forms no hydrostatic term: not z, since
Q = c - 0*z is the load c at any finite z, nor the two tangent products
weighted by w s d l2, u u and u v, each a signed zero added to a non-zero
block.  The tables keep those two generator pairs last, so the batched
product runs on the leading seven.  Every value keeps its bits.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables, SolutionState, _powers, _shape_p, _shape_p_work
from .kinematics import hydro_load
from .material import (_PARTIAL_ROWS, _VALUE_ROWS, ONE, MaterialParams, _const,
                       _partial_work, _value_work, energy, tension_partials,
                       tension_values)

HALF = _const(0.5)
# the evaluator's own n-length rows in its block, ahead of the arrays of
# `tension_values`: z', r', r, Q (z before it) and four rows of scratch
_NODAL_ROWS = 8


class Evaluator:
    """Residual, tangent and dg/dc of the iterates of Newton solves, and
    the energy and its gradient in p at an iterate.

    Built once per solve, per sweep or per p search, from the tables, the
    material and the load gradient d, with what no iterate changes: w*s*d
    and, with `border` = (a, b, rhs), the bordered row a (e.x) + b c = rhs,
    where e.x is the pole sag.  `use` points it at other tables of its rule
    and size.  `at(x, c)` evaluates the nodal shape and U of one iterate;
    `residual` and `tangent` then write into arrays the evaluator keeps, so
    each call overwrites what the last one returned: the residual g (the
    bordered row last) and the tangent H = dg/dx (bordered by the column
    dg/dc and the row); `functional_value` and `p_gradient` read the same
    evaluation.  The tangent is nine row-weighted products A diag(c) B^T,
    one batched matmul over the generator pairs of `BasisTables.left` and
    `right_t` with the weight rows c of one (9, n) array, summed block by
    block; at d = 0 the two hydrostatic products, the last two, are left
    out, and Q is the load c as a 0-d array.  The tangent's arrays and
    views (`_buffers`) and those of `p_gradient` (`p_work`) are made by
    their first calls, the rest with the evaluator; the next iterate
    overwrites them all, so an evaluator is never shared by two solves in
    flight.  The coupling block is built once and set in both places, and
    the matrix is mirrored as (H + H^T) / 2, which symmetrizes the diagonal
    blocks and leaves the coupling blocks exact.  The v-v curvature
    coefficient uses the swap identity dU/db(a,b) = (b/a) dU/db(b,a), so
    the mirrored matrix equals the exact coefficient Jacobian of the
    residual up to quadrature error.
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
        self.p_work = None  # p_gradient's, made by its first call
        if border is not None:
            self.e = np.concatenate([tables.u0, np.zeros(m)])
            self.set_border(border)

    def set_border(self, border: tuple) -> None:
        """Make `border` = (a, b, rhs) the bordered row, in place."""
        self.border = border
        self.h[-1, :-1] = border[0] * self.e
        self.h[-1, -1] = border[1]

    def use(self, tables: BasisTables) -> None:
        """Evaluate on `tables` from now on: tables of the same rule (the
        same node and weight arrays) and size, say at another p.  What the
        evaluator made from its tables follows them: the generator pairs of
        the tangent and, bordered, the pole row e of the bordered row.
        w*s*d stays, as w*s is the same product of the same arrays."""
        if tables is self.tables:
            return
        self.tables = tables
        if self.buffers is not None:
            self.buffers = self.buffers[:-2] + self._pairs()
        if self.border is not None:
            self.e[:self.m] = tables.u0
            self.set_border(self.border)

    def nodal(self, x, c):
        """Trial shape, stretches and load (r, z', r', l1, l2, Q) of the
        iterate (x, c) at the quadrature nodes, written into the evaluator's
        arrays; at d = 0, Q is the 0-d array of c and z is not formed."""
        t, m, r, dz, dr = self.tables, self.m, self.r, self.dz, self.dr
        xu, xv = x[:m], x[m:]
        self.x, self.c = x, c
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
        self.nodal(x, c)
        self.su12, self.su21, self.parts = tension_values(
            self.l1, self.l2, self.mat, self.values)

    def residual(self) -> np.ndarray:
        """The residual g at the iterate of `at`, the bordered row last."""
        t, g, dz, dr, l2, gm = self.tables, self.g, self.dz, self.dr, self.l2, self.gm
        g_u, g_v = self.g_halves
        wsu, wql, tmp, _ = self.scratch
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
        weight rows, the nine products with their blocks, the weight rows
        and the row-weighted generators of the batched product (the leading
        seven pairs at d = 0), the blocks of H with the square part and its
        transpose, the halves of the bordered column, two rows of scratch,
        the arrays of `tension_partials` and, last, the generator pairs of
        the tables (`_pairs`), which `use` replaces; the n-length rows are
        one block."""
        t, m, h = self.tables, self.m, self.h
        n = 2 * m
        k = 9 if self._hydrostatic else 7
        rows = np.empty((11 + sum(_PARTIAL_ROWS), t.s.size))
        prod = np.empty((9, m, m))
        h_uv, hx = h[:m, m:n], h[:n, :n]
        column = (h[:m, n], h[m:n, n]) if self.border is not None else None
        return (*rows[:9], *prod, rows[:k, None, :], np.empty((k, m, t.s.size)),
                prod[:k], h[:m, :m], h_uv, h[m:n, :m], h_uv.T, h[m:n, m:n], hx,
                hx.T, column, rows[9], rows[10], _partial_work(rows[11:]),
                *self._pairs())

    def _pairs(self) -> tuple:
        """The generator pairs of the batched product, as views of the
        tables: the leading seven at d = 0, else all nine."""
        k = 9 if self._hydrostatic else 7
        return self.tables.left[:k], self.tables.right_t[:k]

    def tangent(self) -> np.ndarray:
        """The tangent at the iterate of `at`, bordered if the solve is;
        the partials of U are evaluated here, once."""
        if self.buffers is None:
            self.buffers = self._buffers()
        (c0, c1, c2, c3, c4, c5, c6, c7, c8,
         p0, p1, p2, p3, p4, p5, p6, p7, p8, rows_3d, weighted, prod, h_uu,
         h_uv, h_vu, h_uv_t, h_vv, hx, hx_t, column, sq, tmp, partials, left,
         right_t) = self.buffers
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
        wl, _, tmp, _ = self.scratch
        np.multiply(t.ws, l2, wl)
        np.negative(t.u.dot(np.multiply(wl, dr, tmp), gm), out[0])
        out[1][...] = t.v.dot(np.multiply(wl, dz, tmp), gm)

    def functional_value(self) -> float:
        """Potential energy of the iterate of the last `at` or `nodal`:
        one half of int [ W s + Q r**2 z' ] ds, its invariants and W
        formed in the scratch rows.  Its gradient in the Ritz coefficients
        is exactly the residual vector, for any d."""
        t, r, l1, l2, (a, b, c, i1) = self.tables, self.r, self.l1, self.l2, self.scratch
        np.divide(ONE, np.multiply(l1, l2, c), c)  # l3
        np.multiply(c, c, c)
        np.add(np.multiply(l1, l1, a), np.multiply(l2, l2, b), i1)
        i1 += c
        np.divide(ONE, a, a)  # I2 = 1/l1**2 + 1/l2**2 + 1/l3**2
        a += np.divide(ONE, b, b)
        a += np.divide(ONE, c, b)
        np.multiply(energy(i1, a, self.mat, (b, i1, a)), t.s, a)
        a += np.multiply(np.multiply(np.multiply(self.q, r, c), r, c), self.dz, c)
        return 0.5 * float(t.w.dot(a))

    def p_gradient(self) -> np.ndarray:
        """Partial of the potential energy in the steepness parameters at
        the iterate of the last `at`.

        Same integrand structure as the residual with the basis generators
        replaced by the parameter derivatives of the trial shape.  At a
        converged state this is also the total derivative of the energy
        along the optimized family, which is what the outer parameter
        search zeroes.  The nodal shape and U are those of `at`, and the
        parameter derivatives of the profile come from the tables
        (`BasisTables.rho_p`); tables without steepness parameters raise
        `ValueError`.  The shape's partials and their ladder go into arrays
        made by the first call (`p_work`), the weighted rows into scratch.
        """
        t, dz, dr, l2, q, (a, b, *_) = (self.tables, self.dz, self.dr, self.l2,
                                        self.q, self.scratch)
        shape = t.rho_p.shape[1:]
        if self.p_work is None or self.p_work[0][2].shape[1:] != shape:
            self.p_work = (_shape_p_work(self.m, shape), np.empty((4, shape[0])),
                           _powers(t.s, self.m))
        work, prod, pts = self.p_work
        dz_dp, dr_dp, dzp_dp, drp_dp = _shape_p(self.x, pts, t.rho_p, work)
        np.multiply(t.ws, self.su12, a)  # ws U12 z', ws U12 r'
        dzp_dp.dot(np.multiply(a, dz, b), prod[0])
        drp_dp.dot(np.multiply(a, dr, b), prod[2])
        np.multiply(np.multiply(np.multiply(t.ws, q, a), l2, a), dr, a)  # ws Q l2 r'
        dz_dp.dot(a, prod[1])
        np.multiply(np.multiply(np.multiply(t.s, q, b), l2, b), dz, b)  # s Q l2 z'
        np.multiply(t.w, np.add(np.multiply(self.su21, l2, a), b, a), a)
        dr_dp.dot(a, prod[3])
        return np.subtract(prod[0], prod[1]) + prod[2] + prod[3]


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
    """Potential energy of the trial shape (`Evaluator.functional_value`)."""
    ev = _evaluator(state, mat, rule, tables)
    ev.nodal(state.x, state.load.c)
    return ev.functional_value()


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
    """Partial of the potential energy in the steepness parameters
    (`Evaluator.p_gradient`); the tables, if given, must be those of the
    state's basis."""
    return _at(state, mat, rule, tables).p_gradient()
