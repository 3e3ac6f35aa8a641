"""Ritz trial families for the membrane meridian.

The displacement expansion is

    z(s) = sum_k x[k] * u_k(s),      r(s) = s + sum_k x[m+k] * v_k(s)

with u_k'(0) = u_k(1) = 0 and v_k(0) = v_k(1) = 0, so every trial shape
satisfies the clamped-edge and pole conditions identically.

Two families are provided.  The polynomial one,

    u_k = (s**2 - 1) * s**(2k-2),    v_k = (s**2 - 1) * s**(2k-1),

works well for smooth profiles.  When the hydrostatic gradient d is large
the solution develops an edge layer of width ~ 1/sqrt(d) that polynomials
cannot track; the steep family replaces the generators by a modified
Bessel profile

    phi(s) = I0(y(s)),   y(s) = sum_i p[i] * s**(2i+1),
    u_1 = 1 - phi(s)/phi(1),   u_2 = phi(s)/phi(1) * (s**2 - 1),
    u_k = s**2 * u_{k-1} (k >= 3),   v_k = s * u_k,

whose interior-to-edge contrast is controlled by the free parameters p.
Internally only the ratio phi(s)/phi(1) is ever formed, evaluated as
exp(|y(s)| - |y(1)|) * i0e(y(s)) / i0e(y(1)) so that arbitrarily steep
parameters never overflow (I0 alone overflows near y ~ 713).

The scaled Bessel functions i0e and i1e are those of the Cephes Math
Library (which scipy.special also uses), ported to numpy bit for bit in
`_i0e_i1e`.  Their Chebyshev coefficients live in `_data`: the order-0
tables are numpy's own `i0` tables, and the order-1 tables were
regenerated with mpmath by the recipe given there.  One profile
evaluation serves the generators and their partials in p; a table build
forms first derivatives only, and the partials in p when they are first
read (`BasisTables.rho_p`), both as an iterate runs (`assembly`): in
place, on 0-d literals and on the rule's ladder factors (`_rule_points`).

No load, material or state changes the polynomial generators at given
points, so a polynomial table depends on m and the bits of its points
alone, and is kept per process by them, -0.0 and 0.0 apart, in bounded
read-only stores: the tables on a rule (`_kept_tables`) and the generator
blocks of the strong-form pass (`_generator_blocks`).  Steep tables change
with p and are made on every call, by `BasisTables.build`, which with
`eval_generators` is all that builds or evaluates generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

from ._data import I0E_LARGE, I0E_SMALL, I1E_LARGE, I1E_SMALL
from .kinematics import LoadParams, ShapeEval
from .material import ONE, TWO, _const
from .quadrature import QuadratureRule

FAMILIES = ("polynomial", "adaptive")

# Below this the first two steep generators become numerically parallel.
P_MIN = 1e-3

# Largest basis size: past it neither family gains, and gas sweeps stall.
MAX_M = 12

# Generator pairs (A, B) of the nine weighted products A diag(c) B^T that
# the tangent assembles, as rows of the (u, u', v, v') stack: the rows A
# of the nine, then the rows B.  The two hydrostatic pairs, u u and u v,
# come last, so a load with d = 0 runs on the leading seven.
_PAIRS = np.array([1, 1, 1, 3, 3, 2, 2, 0, 0] + [1, 3, 2, 3, 2, 3, 2, 0, 2])


def _padded(table):
    """The table led by zeros to the length of the longest, I0E_SMALL; a
    zero step leaves the recurrence where it starts."""
    return (0.0,) * (len(I0E_SMALL) - len(table)) + table


ZERO, HALF, EIGHT, THIRTY_TWO, SERIES_X = map(_const, (0.0, 0.5, 8.0, 32.0, 1e-4))

# Chebyshev coefficients, one (order, argument range) block per step: i0e
# on |x| <= 8 and above, then i1e on the same two.
_CHEB = np.array([_padded(I0E_SMALL), _padded(I0E_LARGE),
                  _padded(I1E_SMALL), _padded(I1E_LARGE)]).T.reshape(-1, 2, 2)


def _i0e_i1e(x):
    """cephes i0e(x) and i1e(x), bit for bit, as rows 0 and 1 of one array.

    One Clenshaw recurrence (cephes `chbevl`, in its order of roundings)
    runs both orders at every point, each point on the coefficients of its
    argument range: t = |x|/2 - 2 up to |x| = 8, t = 32/|x| - 2 above,
    where the sum is divided by sqrt|x|.  The order-1 sum is multiplied by
    |x| below 8 and takes the sign of x; both orders in flat rows, in place.
    """
    x = np.asarray(x, dtype=float)
    z = np.abs(x).ravel()
    n, large = z.size, np.greater(z, EIGHT)
    t, b0, b1, b2 = np.empty((4, 2 * n))
    np.divide(THIRTY_TWO, z, np.multiply(HALF, z, t[:n]), where=large)
    t[n:] = np.subtract(t[:n], TWO, t[:n])
    c = _CHEB[:, :, large.astype(np.intp)].reshape(len(_CHEB), 2 * n)
    b0[...], b1[...] = c[0], 0.0
    for ck in c[1:]:  # b0, b1, b2 of chbevl trade buffers every step
        b0, b1, b2 = b2, b0, b1
        np.multiply(t, b1, b0)
        np.subtract(b0, b2, b0)
        np.add(b0, ck, b0)
    out = np.multiply(np.subtract(b0, b2, b1), HALF).reshape(2, n)
    np.divide(out, np.sqrt(z, t[:n]), out, where=large)
    np.multiply(out[1], z, out[1], where=np.logical_not(large, large))
    np.negative(out[1], out[1], where=np.less(x.ravel(), ZERO, large))
    return out.reshape((2,) + x.shape)


def _i1e_over_x(x, i1, out):
    """Exponentially scaled I1(x)/x from i1 = i1e(x), into `out`: below
    |x| = 1e-4 a series, formed there only if such an x is not 0 (limit 1/2)."""
    small = np.less(np.abs(x), SERIES_X)
    np.divide(i1, x, out, where=np.logical_not(small))
    xs = x[small]
    out[small] = (np.exp(-np.abs(xs)) * (0.5 + xs * xs / 16.0 + xs ** 4 / 384.0)
                  if xs.any() else HALF)
    return out


def _poly_y(s, p, second: bool, y):
    """Steepness polynomial y(s) = sum p[i] s**(2i+1), into y; returns y'
    (p[0] as a 0-d array for one parameter) and, with `second`, y''."""
    dy = np.array(float(p[0]) if p else 0.0)
    np.multiply(dy, s, y)
    d2y = np.zeros_like(s) if second else None
    for i, pi in enumerate(p[1:], 1):
        e = 2 * i + 1
        y += pi * s ** e
        dy = dy + pi * e * s ** (e - 1)
        if second:
            d2y += pi * e * (e - 1) * s ** (e - 2)
    return dy, d2y


def _powers(s, m: int):
    """The steep ladder's factors at the 1-d points s: s in m rows, s*s, 2 s, s*s - 1."""
    ss = s * s
    return np.tile(s, (m, 1)), ss, 2.0 * s, ss - 1.0


@lru_cache(maxsize=2)
def _rule_points(nodes: bytes):
    """`_powers` at the nodes of float64 bytes `nodes` and the pole, the
    points of a build, for any m: kept for the last two rules, read-only."""
    pts = _powers(np.append(np.frombuffer(nodes), 0.0), MAX_M)
    for arr in pts:
        arr.flags.writeable = False
    return pts


@dataclass(frozen=True)
class BasisSpec:
    """Trial family selector: family name, size m, steepness parameters p."""

    family: str
    m: int
    p: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")
        if not 1 <= self.m <= MAX_M:
            raise ValueError(f"basis size m must be in [1, {MAX_M}], got {self.m}")
        try:  # p: a real number, or a sequence of them that is not a string
            p = tuple((self.p,) if isinstance(self.p, Real) else self.p)
        except TypeError:  # not iterable, a 0-d array included
            p = (None,)
        if isinstance(self.p, (str, bytes)) or not all(
                isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)
                for v in p):
            raise ValueError(f"p must be a finite number or a sequence of them: {self.p!r}")
        object.__setattr__(self, "p", tuple(map(float, p)))
        if self.family == "adaptive":
            if len(self.p) < 1:
                raise ValueError("steep family needs at least one parameter")
            if self.p[0] < P_MIN:
                raise ValueError(
                    f"p[0] = {self.p[0]!r} below {P_MIN}; generators degenerate"
                )

    @property
    def n_p(self) -> int:
        return len(self.p)

    def with_p(self, p) -> "BasisSpec":
        return BasisSpec(self.family, self.m, p)


class _Profile:
    """rho = phi(s)/phi(1) at points s, with the parts its derivatives share.

    rho  = exp(|y| - |y1|) * i0e(y) / i0e(y1)
    rho' = exp(|y| - |y1|) * i1e(y) * y' / i0e(y1)
    rho'' uses I1'(y) = I0(y) - I1(y)/y in the same scaling; it is formed
    only with `second` (else None).  One `_i0e_i1e` call serves the points
    and y1 = y(1), which follows y in one array.
    """

    def __init__(self, s, p, second: bool):
        self.s, self.p = s, p
        ys = np.empty(s.size + 1)
        self.y, ys[-1] = ys[:-1], sum(p)
        self.dy, d2y = _poly_y(s, p, second, self.y)
        bessel = _i0e_i1e(ys)
        (self.i0, self.i1), (i0_1, i1_1) = bessel[:, :-1], bessel[:, -1]
        self.beta1 = i1_1 / i0_1
        ays = np.abs(ys)
        self.scale = np.exp(np.subtract(ays[:-1], ays[-1, ...], ays[:-1]), ays[:-1])
        self.scale /= bessel[0, -1, ...]
        self.rho = np.multiply(self.scale, self.i0)
        self.drho = np.multiply(self.scale, self.i1) * self.dy
        self.d2rho = None
        if second:  # I1'(y) = I0(y) - I1(y)/y in the scaling of i0e
            di1 = self.i0 - _i1e_over_x(self.y, self.i1, np.empty_like(self.y))
            self.d2rho = self.scale * (di1 * self.dy * self.dy + self.i1 * d2y)

    def p_derivs(self):
        """Partials of rho and rho' in each steepness parameter, (2, n_p, n).

        d(rho)/dp_i = rho * (beta(s) s**(2i+1) - beta(1)) with
        beta = I1(y)/I0(y) evaluated from the scaled functions.
        """
        s, rho, i1 = self.s, self.rho, self.i1
        out = np.empty((2, len(self.p), s.size))
        beta, db1, drho_b1 = np.empty((3, s.size))
        np.divide(i1, self.i0, beta)
        np.subtract(self.i0, _i1e_over_x(self.y, i1, db1), db1)  # I1'(y)
        np.multiply(self.drho, self.beta1, drho_b1)
        for i, (d, dd) in enumerate(zip(*out)):
            e = 2 * i + 1
            se = s if e == 1 else s ** e
            np.multiply(beta, se, d)
            d -= self.beta1
            d *= rho
            np.multiply(db1, se, dd)
            dd *= self.dy
            dd += i1 if e == 1 else i1 * e * s ** (e - 1)  # i1 * 1 * s**0 is i1
            dd *= self.scale
            dd -= drho_b1
        return out


def _poly_uv(spec: BasisSpec, s, second: bool):
    """Polynomial ladder from one table of the powers s**j, j = 0..2m+1.

    Each power is formed once, by the same `s ** j` the per-k formulas
    use, and every generator row is a fixed combination of two of them.
    """
    m = spec.m
    pw = np.array([s ** j for j in range(2 * m + 2)])
    k2 = np.arange(2, 2 * m + 1, 2).reshape((m,) + (1,) * s.ndim)  # 2k
    even, odd = pw[0:2 * m + 1:2], pw[1:2 * m + 2:2]  # s**(2k-2), s**(2k-1)
    u = even[1:] - even[:-1]
    du = k2 * odd[:-1]
    du[1:] -= (k2[1:] - 2) * odd[:m - 1]
    v = odd[1:] - odd[:-1]
    dv = (k2 + 1) * even[1:] - (k2 - 1) * even[:-1]
    if not second:
        return u, du, None, v, dv, None
    d2u = k2 * (k2 - 1) * even[:-1]
    d2u[1:] -= (k2[1:] - 2) * (k2[1:] - 3) * even[:m - 1]
    d2v = k2 * (k2 + 1) * odd[:-1]
    d2v[1:] -= (k2[1:] - 2) * (k2[1:] - 1) * odd[:m - 1]
    return u, du, d2u, v, dv, d2v


def _rungs(g):
    """The ladder g = (u, u', v, v') with its row views (u_k, u_k', v_k')."""
    return g, tuple(zip(g[0], g[1], g[3]))


def _ladder(rungs, a, da, pts, unit: bool):
    """The steep ladder (u, u', v, v') of `rungs`, from u_1 = 1 - a (with
    `unit`, else -a), u_2 = a (s**2 - 1), u_k = s**2 u_{k-1} for k >= 3 and
    v_k = s u_k, with the s-derivative da of a, at the points of `pts` =
    `_powers(s, k >= m)`, in place (v' holds the scratch), and returned.
    The generators take a = rho, their partials in p the partials of rho."""
    (u, du, v, dv), rows = rungs
    s, ss, s2, sw = pts
    if unit:
        np.subtract(ONE, a, rows[0][0])
    else:
        np.negative(a, rows[0][0])
    np.negative(da, rows[0][1])
    if len(rows) >= 2:
        u1, du1, tmp = rows[1]
        np.multiply(a, sw, u1)
        np.multiply(da, sw, du1)
        np.add(du1, np.multiply(s2, a, tmp), du1)
    for (u_prev, du_prev, _), (u_k, du_k, tmp) in zip(rows[1:], rows[2:]):
        np.multiply(ss, u_prev, u_k)
        np.multiply(s2, u_prev, du_k)
        np.add(du_k, np.multiply(ss, du_prev, tmp), du_k)
    np.multiply(s[:len(rows)], u, v)
    np.add(np.multiply(s[:len(rows)], du, dv), u, dv)
    return u, du, v, dv


def _steep_uv(m: int, pts, prof: _Profile):
    """Steep ladder from the profile at the points of `pts`; second
    derivatives if `prof` has rho''."""
    rho, drho, d2rho = prof.rho, prof.drho, prof.d2rho
    u, du, v, dv = _ladder(_rungs(np.empty((4, m) + rho.shape)), rho, drho, pts, True)
    if d2rho is None:
        return u, du, None, v, dv, None
    s, ss, sw = pts[0][0], pts[1], pts[3]
    d2u = np.empty_like(u)
    d2u[0] = -d2rho
    if m >= 2:
        d2u[1] = d2rho * sw + 4.0 * s * drho + 2.0 * rho
    for k in range(2, m):
        d2u[k] = 2.0 * u[k - 1] + 4.0 * s * du[k - 1] + ss * d2u[k - 1]
    d2v = 2.0 * du + s * d2u
    return u, du, d2u, v, dv, d2v


def _generators(spec: BasisSpec, s, second: bool, pts=None):
    """The generators at the 1-d points s, as `eval_generators` returns
    them but with u'' and v'' None and not evaluated without `second`, and
    the steep family's profile there (None for the polynomial family), on
    `pts` = `_powers(s, k >= m)` if given."""
    if spec.family == "polynomial":
        return _poly_uv(spec, s, second), None
    pts = _powers(s, spec.m) if pts is None else pts
    prof = _Profile(s, spec.p, second)
    return _steep_uv(spec.m, pts, prof), prof


def eval_generators(spec: BasisSpec, s):
    """Axial and radial generators with two s-derivatives each.

    Returns (u, u', u'', v, v', v''), arrays shaped (m,) + s.shape.
    """
    s = np.asarray(s, dtype=float)
    gen = _generators(spec, s.ravel(), second=True)[0]
    return tuple(g.reshape((spec.m,) + s.shape) for g in gen)


@dataclass
class SolutionState:
    """Ritz coefficients x (length 2m) with their basis and load."""

    x: np.ndarray
    spec: BasisSpec
    load: LoadParams

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.shape != (2 * self.spec.m,):
            raise ValueError(
                f"coefficient vector must have length {2 * self.spec.m}"
            )

    def sag(self) -> float:
        """Pole deflection z(0)."""
        u0 = eval_generators(self.spec, np.array(0.0))[0]
        return float(self.x[: self.spec.m] @ u0)


def eval_shape(state: SolutionState, s, second: bool = False) -> ShapeEval:
    """Trial shape at points s; second derivatives on request."""
    s = np.asarray(s, dtype=float)
    return _shape(state, s, eval_generators(state.spec, s), second)


def _shape(state: SolutionState, s, gen, second: bool) -> ShapeEval:
    """Trial shape at points s from the generators `gen` evaluated there."""
    m = state.spec.m
    xu = state.x[:m]
    xv = state.x[m:]
    u, du, d2u, v, dv, d2v = gen
    shape = ShapeEval(z=xu @ u, r=s + xv @ v, dz=xu @ du, dr=1.0 + xv @ dv)
    if second:
        shape.d2z = xu @ d2u
        shape.d2r = xv @ d2v
    return shape


def _shape_p(x, pts, rho_p, work=None):
    """Partials of the trial shape of the coefficients x in the steepness
    parameters at the points s of `pts` = `_powers(s, k >= m)`, from the
    partials (d rho/dp, d rho'/dp) there.

    Returns (dz_dp, dr_dp, dzp_dp, drp_dp) as one (4, n_p, n) array, where
    dzp_dp is the parameter derivative of dz/ds, in the arrays of `work`
    (`_shape_p_work`) or new ones.  Partials of no parameter raise
    `ValueError`.
    """
    drho_dp, ddrho_dp = rho_p
    if len(drho_dp) == 0:
        raise ValueError("shape parameter derivatives exist only for the steep family")
    m = len(x) // 2
    rungs, dots, out = work or _shape_p_work(m, drho_dp.shape)
    for r, a, da in zip(rungs, drho_dp, ddrho_dp):  # one parameter at a time
        _ladder(r, a, da, pts, False)
    for c, (g, o) in zip((x[:m], x[m:], x[:m], x[m:]), dots):
        c.dot(g, o)
    return out


def _shape_p_work(m: int, shape):
    """The arrays `_shape_p` writes for (n_p, n) partials: the rungs of each
    parameter's ladder, its (u, v, u', v') as (m, n_p n) matrices paired
    with the flat rows of the result, and the result."""
    g, out = np.empty((4, m) + shape), np.empty((4,) + shape)
    return ([_rungs(g[:, :, i]) for i in range(shape[0])],
            [(g[k].reshape(m, -1), o.reshape(-1)) for k, o in zip((0, 2, 1, 3), out)], out)


@dataclass
class BasisTables:
    """Generator values cached at the quadrature nodes.

    Assembly is a handful of weighted outer products against these tables,
    so they are built once per (spec, rule) pair and reused across Newton
    iterations.  The generators u, u', v, v' at the nodes s are (m, n)
    rows of one stack, and `u0` holds the axial generators at the pole.  A
    steep build keeps its `profile` at the nodes and the pole, from which
    the first read of `rho_p`, the partials of rho and rho' in p at the
    nodes, (2, n_p, n), forms them (empty for the polynomial family).
    Derived on construction: `ws` = w s, and the tangent's nine generator
    pairs as `left` (9, m, n) and `right_t` (9, n, m), views of one stack,
    the two hydrostatic pairs (u u and u v, weighted by d) last, so that a
    load with d = 0 multiplies the leading seven only.  Row k of every
    table is the same for any basis size m >= k, in both families, and
    `rho_p` does not depend on m, so `head(k)` gives the tables of the
    first k generators as views of these, without evaluating a generator or
    copying a table; a head and its tables form `rho_p` once between them.
    """

    s: np.ndarray
    w: np.ndarray
    u: np.ndarray
    du: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    u0: np.ndarray = field(repr=False)
    profile: _Profile | None = field(default=None, repr=False)
    ws: np.ndarray = field(init=False, repr=False)
    left: np.ndarray = field(init=False, repr=False)
    right_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gen = np.array([self.u, self.du, self.v, self.dv])
        self.u, self.du, self.v, self.dv = gen
        self.ws = self.w * self.s
        pairs = gen[_PAIRS]
        self.left, self.right_t = pairs[:9], pairs[9:].transpose(0, 2, 1)
        # `rho_p` once formed, in a cell that every head shares
        self._rho_p = [np.empty((2, 0, self.s.size)) if self.profile is None else None]

    @property
    def rho_p(self) -> np.ndarray:
        """The partials of rho and rho' in p at the nodes, (2, n_p, n)."""
        cell = self._rho_p
        if cell[0] is None:
            cell[0] = self.profile.p_derivs()[:, :, :-1]
        return cell[0]

    @classmethod
    def build(cls, spec: BasisSpec, rule) -> "BasisTables":
        # one generator pass over the nodes and the pole, first derivatives
        # only, on the points the rule keeps; the pole column is copied out
        # so that dot products with it see contiguous data
        pts = _rule_points(rule.nodes.tobytes())
        (u, du, _, v, dv, _), prof = _generators(spec, pts[0][0], False, pts)
        return cls(s=rule.nodes, w=rule.weights, u=u[:, :-1], du=du[:, :-1],
                   v=v[:, :-1], dv=dv[:, :-1], u0=u[:, -1].copy(), profile=prof)

    def head(self, k: int) -> "BasisTables":
        """The tables of the first k generators as views of these, whose
        products give the bits of a build at k: each keeps its stride n."""
        head = object.__new__(BasisTables)
        head.__dict__.update(
            self.__dict__, u=self.u[:k], du=self.du[:k], v=self.v[:k],
            dv=self.dv[:k], u0=self.u0[:k], left=self.left[:, :k],
            right_t=self.right_t[:, :, :k])
        return head


@lru_cache(maxsize=16)
def _poly_tables(m: int, nodes: bytes, weights: bytes) -> BasisTables:
    """`BasisTables.build` of the polynomial basis of size m on the rule
    whose nodes and weights have the float64 bytes `nodes` and `weights`."""
    rule = QuadratureRule(np.frombuffer(nodes), np.frombuffer(weights))
    tables = BasisTables.build(BasisSpec("polynomial", m), rule)
    for arr in (*vars(tables).values(), tables.rho_p):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return tables


def _kept_tables(spec: BasisSpec, rule) -> BasisTables:
    """The tables of `spec` on `rule`, kept per process for the polynomial
    family (`_poly_tables`) and built on every call for the steep one."""
    if spec.family == "polynomial":
        return _poly_tables(spec.m, rule.nodes.tobytes(), rule.weights.tobytes())
    return BasisTables.build(spec, rule)


def _eval_blocks(spec: BasisSpec, blocks):
    """The generators at each set of points in `blocks`, from one
    `eval_generators` pass over all of them: one tuple (u, u', u'', v, v',
    v'') per set, each array a C-contiguous (m, n) copy of its columns."""
    gen = eval_generators(spec, np.concatenate(blocks))
    cuts = np.cumsum([len(b) for b in blocks])[:-1]
    return tuple(tuple(np.ascontiguousarray(g) for g in block)
                 for block in zip(*(np.split(g, cuts, axis=1) for g in gen)))


# the most points a kept generator table spans: the CLI's profile grid, or
# the defect grid with up to 155 probes
_KEPT_POINTS = 256


@lru_cache(maxsize=32)
def _poly_blocks(m: int, keys: tuple):
    """`_eval_blocks` of the polynomial basis of size m at the points whose
    float64 bytes are `keys`.  Solving and checking each size m = 1..12 at
    one probe, with the grid defect read again without it, needs 24 tables,
    so 32 evict none of them; together they hold at most 32 x 6 x
    `_KEPT_POINTS` x m floats, 4.7 MB at m = 12."""
    table = _eval_blocks(BasisSpec("polynomial", m), [np.frombuffer(k) for k in keys])
    for block in table:
        for arr in block:
            arr.flags.writeable = False
    return table


def _generator_blocks(spec: BasisSpec, blocks):
    """`_eval_blocks(spec, blocks)`, kept per process for the polynomial
    family (`_poly_blocks`).  A table over more than `_KEPT_POINTS` points
    would hold its memory for the process, so it is evaluated on every call,
    like a steep one."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if spec.family == "polynomial" and sum(map(len, blocks)) <= _KEPT_POINTS:
        return _poly_blocks(spec.m, tuple(b.tobytes() for b in blocks))
    return _eval_blocks(spec, blocks)
