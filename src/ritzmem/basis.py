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
forms first derivatives only.

No load, material or state changes the polynomial generators at given
points, so a polynomial table depends on m and the bits of its points
alone, and is kept per process by them, -0.0 and 0.0 apart, in bounded
stores, read-only: the tables on a rule's nodes and weights (`_kept_tables`)
and the generator blocks of the strong-form pass (`_generator_blocks`).
Steep tables change with p and are made on every call.  Only
`BasisTables.build` and `eval_generators` build or evaluate generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

from ._data import I0E_LARGE, I0E_SMALL, I1E_LARGE, I1E_SMALL
from .kinematics import LoadParams, ShapeEval
from .quadrature import QuadratureRule

FAMILIES = ("polynomial", "adaptive")

# Below this the first two steep generators become numerically parallel.
P_MIN = 1e-3

# Largest basis size: past it neither family gains, and gas sweeps stall.
MAX_M = 12

# Generator pairs (A, B) of the nine weighted products A diag(c) B^T that
# the tangent assembles, as rows of the (u, u', v, v') stack; the two
# hydrostatic pairs, u u and u v, come last, so a load with d = 0 runs on
# the leading seven.
_LEFT = [1, 1, 1, 3, 3, 2, 2, 0, 0]
_RIGHT = [1, 3, 2, 3, 2, 3, 2, 0, 2]


def _padded(table):
    """The table led by zeros to the length of the longest, I0E_SMALL; a
    zero step leaves the recurrence where it starts."""
    return (0.0,) * (len(I0E_SMALL) - len(table)) + table


# Chebyshev coefficients, one row per step and one column per order and
# argument range: i0e on |x| <= 8 and above, then i1e on the same two.
_CHEB = np.array([_padded(I0E_SMALL), _padded(I0E_LARGE),
                  _padded(I1E_SMALL), _padded(I1E_LARGE)]).T.copy()


def _i0e_i1e(x):
    """cephes i0e(x) and i1e(x), bit for bit, as rows 0 and 1 of one array.

    One Clenshaw recurrence (cephes `chbevl`, in its order of roundings)
    runs both orders at every point, each point on the coefficients of its
    argument range: t = |x|/2 - 2 up to |x| = 8, t = 32/|x| - 2 above,
    where the sum is divided by sqrt|x|.  The order-1 sum is multiplied by
    |x| below 8 and takes the sign of x.
    """
    x = np.asarray(x, dtype=float)
    z = np.abs(x).ravel()
    large = z > 8.0
    t = np.where(large, 32.0 / np.maximum(z, 8.0) - 2.0, 0.5 * z - 2.0)
    # the two orders side by side in flat buffers, which numpy's fastest
    # loops serve; b0, b1, b2 of chbevl trade buffers every step
    t = np.concatenate([t, t])
    col = large.astype(np.intp)
    c = _CHEB[:, np.concatenate([col, col + 2])]
    b0, b1, b2 = c[0].copy(), np.zeros_like(t), np.empty_like(t)
    for ck in c[1:]:
        b0, b1, b2 = b2, b0, b1
        np.multiply(t, b1, b0)
        np.subtract(b0, b2, b0)
        np.add(b0, ck, b0)
    out = (0.5 * (b0 - b2)).reshape(2, -1)
    out /= np.where(large, np.sqrt(z), 1.0)
    i1 = out[1] * np.where(large, 1.0, z)
    out[1] = np.where(x.ravel() < 0.0, -i1, i1)
    return out.reshape((2,) + x.shape)


def _i1e_over_x(x, i1):
    """Exponentially scaled I1(x)/x from i1 = i1e(x), finite at x = 0
    (limit 1/2)."""
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    series = np.exp(-np.abs(x)) * (0.5 + x * x / 16.0 + x ** 4 / 384.0)
    return np.where(small, series, i1 / xs)


def _poly_y(s, p, second: bool):
    """Steepness polynomial y(s) = sum p[i] s**(2i+1), y' and, with
    `second`, y'' (else None)."""
    y = np.zeros_like(s)
    dy = np.zeros_like(s)
    d2y = np.zeros_like(s) if second else None
    for i, pi in enumerate(p):
        e = 2 * i + 1
        y += pi * s ** e
        dy += pi * e * s ** (e - 1)
        if second and e >= 2:
            d2y += pi * e * (e - 1) * s ** (e - 2)
    return y, dy, d2y


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
    and y1 = y(1).
    """

    def __init__(self, s, p, second: bool):
        self.s, self.p = s, p
        self.y, self.dy, d2y = _poly_y(s, p, second)
        y1 = float(sum(p))
        bessel = _i0e_i1e(np.append(self.y, y1))
        self.i0, self.i1 = bessel[:, :-1].reshape((2,) + s.shape)
        i0_1, i1_1 = bessel[:, -1]
        self.beta1 = i1_1 / i0_1
        self.scale = np.exp(np.abs(self.y) - abs(y1)) / i0_1
        self.rho = self.scale * self.i0
        self.drho = self.scale * self.i1 * self.dy
        self.d2rho = None
        if second:
            self.d2rho = self.scale * (self._di1() * self.dy * self.dy
                                       + self.i1 * d2y)

    def _di1(self):
        """I1'(y) = I0(y) - I1(y)/y in the scaling of i0e."""
        return self.i0 - _i1e_over_x(self.y, self.i1)

    def p_derivs(self):
        """Partials of rho and rho' in each steepness parameter.

        d(rho)/dp_i = rho * (beta(s) s**(2i+1) - beta(1)) with
        beta = I1(y)/I0(y) evaluated from the scaled functions.
        """
        s = self.s
        beta = self.i1 / self.i0
        db1 = self._di1()
        n = len(self.p)
        drho_dp = np.empty((n,) + s.shape)
        ddrho_dp = np.empty((n,) + s.shape)
        for i in range(n):
            e = 2 * i + 1
            se = s ** e
            drho_dp[i] = self.rho * (beta * se - self.beta1)
            ddrho_dp[i] = (self.scale * (db1 * se * self.dy + self.i1 * e * s ** (e - 1))
                           - self.drho * self.beta1)
        return drho_dp, ddrho_dp


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


def _ladder(u1, du1, a, da, s, m: int):
    """The steep ladder (u, u', v, v') from u_1 = u1 and u_2 = a (s**2 - 1),
    with their s-derivatives du1 and da: u_k = s**2 u_{k-1} for k >= 3 and
    v_k = s u_k.  The generators take a = rho, their partials in p the
    partials of rho, which lead with an axis of their own; k leads both."""
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


def _steep_uv(spec: BasisSpec, s, prof: _Profile):
    """Steep ladder from the profile at s; second derivatives if `prof`
    has rho''."""
    m = spec.m
    rho, drho, d2rho = prof.rho, prof.drho, prof.d2rho
    u, du, v, dv = _ladder(1.0 - rho, -drho, rho, drho, s, m)
    if d2rho is None:
        return u, du, None, v, dv, None
    ss = s * s
    d2u = np.empty_like(u)
    d2u[0] = -d2rho
    if m >= 2:
        d2u[1] = d2rho * (ss - 1.0) + 4.0 * s * drho + 2.0 * rho
    for k in range(2, m):
        d2u[k] = 2.0 * u[k - 1] + 4.0 * s * du[k - 1] + ss * d2u[k - 1]
    d2v = 2.0 * du + s * d2u
    return u, du, d2u, v, dv, d2v


def _generators(spec: BasisSpec, s, second: bool):
    """The generators at s, as `eval_generators` returns them but with u''
    and v'' None and not evaluated without `second`, and the steep
    family's profile there (None for the polynomial family)."""
    if spec.family == "polynomial":
        return _poly_uv(spec, s, second), None
    prof = _Profile(s, spec.p, second)
    return _steep_uv(spec, s, prof), prof


def eval_generators(spec: BasisSpec, s):
    """Axial and radial generators with two s-derivatives each.

    Returns (u, u', u'', v, v', v''), arrays shaped (m,) + s.shape.
    """
    return _generators(spec, np.asarray(s, dtype=float), second=True)[0]


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


def _shape_p(state: SolutionState, s, rho_p):
    """Partials of the trial shape in the steepness parameters at s, from
    the partials (d rho/dp, d rho'/dp) there.

    Returns (dz_dp, dr_dp, dzp_dp, drp_dp), each shaped (n_p,) + s.shape,
    where dzp_dp is the parameter derivative of dz/ds.
    """
    if state.spec.family != "adaptive":
        raise ValueError("shape parameter derivatives exist only for the steep family")
    m = state.spec.m
    drho_dp, ddrho_dp = rho_p
    u_p, du_p, v_p, dv_p = _ladder(-drho_dp, -ddrho_dp, drho_dp, ddrho_dp, s, m)
    xu = state.x[:m]
    xv = state.x[m:]
    return tuple(x.dot(g.reshape(m, -1)).reshape(g.shape[1:])
                 for x, g in ((xu, u_p), (xv, v_p), (xu, du_p), (xv, dv_p)))


@dataclass
class BasisTables:
    """Generator values cached at the quadrature nodes.

    Assembly is a handful of weighted outer products against these tables,
    so they are built once per (spec, rule) pair and reused across Newton
    iterations.  The generators u, u', v, v' at the nodes s are (m, n)
    rows of one stack, and `u0` holds the axial generators at the pole.
    `rho_p` stacks the partials of the steep profile rho and of rho' in
    the steepness parameters at the nodes, (2, n_p, n), from the profile
    evaluation of the build, so `p_gradient` evaluates no profile; the
    polynomial family has no parameters, so its stack is empty.  Derived
    on construction: the weights times the nodes `ws`, and the tangent's
    nine generator pairs stacked as `left` (9, m, n) and `right_t`
    (9, n, m, a transposed view), the two hydrostatic pairs (u u and u v,
    weighted by d) last, so that a load with d = 0 multiplies the leading
    seven only.  Row k of every table is the same for any basis size
    m >= k, in both families, and `rho_p` does not depend on m, so
    `head(k)` gives the tables of the first k generators as views of these,
    without evaluating a generator or copying a table.
    """

    s: np.ndarray
    w: np.ndarray
    u: np.ndarray
    du: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    u0: np.ndarray = field(repr=False)
    rho_p: np.ndarray = field(repr=False)
    ws: np.ndarray = field(init=False, repr=False)
    left: np.ndarray = field(init=False, repr=False)
    right_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gen = np.array([self.u, self.du, self.v, self.dv])
        self.u, self.du, self.v, self.dv = gen
        self.ws = self.w * self.s
        self.left = gen[_LEFT]
        self.right_t = gen[_RIGHT].transpose(0, 2, 1)

    @classmethod
    def build(cls, spec: BasisSpec, rule) -> "BasisTables":
        # one generator pass over the nodes and the pole, first derivatives
        # only; the pole column is copied out so that dot products with it
        # see contiguous data
        (u, du, _, v, dv, _), prof = _generators(
            spec, np.append(rule.nodes, 0.0), second=False)
        if prof is None:
            rho_p = np.empty((2, 0, rule.n))
        else:
            rho_p = np.array(prof.p_derivs())[:, :, :-1]
        return cls(s=rule.nodes, w=rule.weights, u=u[:, :-1], du=du[:, :-1],
                   v=v[:, :-1], dv=dv[:, :-1], u0=u[:, -1].copy(), rho_p=rho_p)

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
    for arr in vars(tables).values():
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
