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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import i0e, i1e

from .kinematics import LoadParams, ShapeEval

FAMILIES = ("polynomial", "adaptive")

# Below this the first two steep generators become numerically parallel.
P_MIN = 1e-3

# Largest basis size; the tables grow with m times the node count, so an
# unbounded m only ends in an allocation failure.
MAX_M = 64

# Generator pairs (A, B) of the nine weighted products A diag(c) B^T that
# the tangent assembles, as rows of the (u, u', v, v') stack.
_LEFT = [1, 0, 1, 1, 0, 3, 3, 2, 2]
_RIGHT = [1, 0, 3, 2, 2, 3, 2, 3, 2]


def _i1e_over_x(x):
    """Exponentially scaled I1(x)/x, finite at x = 0 (limit 1/2)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    series = np.exp(-np.abs(x)) * (0.5 + x * x / 16.0 + x ** 4 / 384.0)
    return np.where(small, series, i1e(xs) / xs)


def _poly_y(s, p):
    """Steepness polynomial y(s) = sum p[i] s**(2i+1) and derivatives."""
    s = np.asarray(s, dtype=float)
    y = np.zeros_like(s)
    dy = np.zeros_like(s)
    d2y = np.zeros_like(s)
    for i, pi in enumerate(p):
        e = 2 * i + 1
        y += pi * s ** e
        dy += pi * e * s ** (e - 1)
        if e >= 2:
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
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
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
        return BasisSpec(self.family, self.m, tuple(p))


def _rho_scaled(s, p):
    """phi(s)/phi(1) and its two s-derivatives, overflow safe.

    rho  = exp(|y| - |y1|) * i0e(y) / i0e(y1)
    rho' = exp(|y| - |y1|) * i1e(y) * y' / i0e(y1)
    rho'' uses I1'(y) = I0(y) - I1(y)/y in the same scaling.
    """
    s = np.asarray(s, dtype=float)
    y, dy, d2y = _poly_y(s, p)
    y1 = float(sum(p))
    i0, i1 = i0e(y), i1e(y)
    scale = np.exp(np.abs(y) - abs(y1)) / i0e(y1)
    rho = scale * i0
    drho = scale * i1 * dy
    d2rho = scale * ((i0 - _i1e_over_x(y)) * dy * dy + i1 * d2y)
    return rho, drho, d2rho


def _rho_p_derivs(s, p):
    """Partials of rho and rho' in each steepness parameter.

    d(rho)/dp_i = rho * (beta(s) s**(2i+1) - beta(1)) with
    beta = I1(y)/I0(y) evaluated from the scaled functions.
    """
    s = np.asarray(s, dtype=float)
    y, dy, _ = _poly_y(s, p)
    y1 = float(sum(p))
    i0, i1, i0_1 = i0e(y), i1e(y), i0e(y1)
    scale = np.exp(np.abs(y) - abs(y1)) / i0_1
    rho = scale * i0
    drho = scale * i1 * dy
    beta = i1 / i0
    beta1 = i1e(y1) / i0_1
    db1 = i0 - _i1e_over_x(y)
    n = len(p)
    drho_dp = np.empty((n,) + s.shape)
    ddrho_dp = np.empty((n,) + s.shape)
    for i in range(n):
        e = 2 * i + 1
        se = s ** e
        drho_dp[i] = rho * (beta * se - beta1)
        ddrho_dp[i] = scale * (db1 * se * dy + i1 * e * s ** (e - 1)) - drho * beta1
    return drho_dp, ddrho_dp


def _poly_uv(spec: BasisSpec, s):
    """Polynomial ladder from one table of the powers s**j, j = 0..2m+1.

    Each power is formed once, by the same `s ** j` the per-k formulas
    use, and every generator row is a fixed combination of two of them.
    """
    s = np.asarray(s, dtype=float)
    m = spec.m
    pw = np.array([s ** j for j in range(2 * m + 2)])
    k2 = np.arange(2, 2 * m + 1, 2).reshape((m,) + (1,) * s.ndim)  # 2k
    even, odd = pw[0:2 * m + 1:2], pw[1:2 * m + 2:2]  # s**(2k-2), s**(2k-1)
    u = even[1:] - even[:-1]
    du = k2 * odd[:-1]
    du[1:] -= (k2[1:] - 2) * odd[:m - 1]
    d2u = k2 * (k2 - 1) * even[:-1]
    d2u[1:] -= (k2[1:] - 2) * (k2[1:] - 3) * even[:m - 1]
    v = odd[1:] - odd[:-1]
    dv = (k2 + 1) * even[1:] - (k2 - 1) * even[:-1]
    d2v = k2 * (k2 + 1) * odd[:-1]
    d2v[1:] -= (k2[1:] - 2) * (k2[1:] - 1) * odd[:m - 1]
    return u, du, d2u, v, dv, d2v


def _steep_uv(spec: BasisSpec, s):
    s = np.asarray(s, dtype=float)
    m = spec.m
    rho, drho, d2rho = _rho_scaled(s, spec.p)
    u = np.empty((m,) + s.shape)
    du = np.empty_like(u)
    d2u = np.empty_like(u)
    u[0] = 1.0 - rho
    du[0] = -drho
    d2u[0] = -d2rho
    if m >= 2:
        w = s * s - 1.0
        u[1] = rho * w
        du[1] = drho * w + 2.0 * s * rho
        d2u[1] = d2rho * w + 4.0 * s * drho + 2.0 * rho
    for k in range(2, m):
        u[k] = s * s * u[k - 1]
        du[k] = 2.0 * s * u[k - 1] + s * s * du[k - 1]
        d2u[k] = 2.0 * u[k - 1] + 4.0 * s * du[k - 1] + s * s * d2u[k - 1]
    v = s * u
    dv = u + s * du
    d2v = 2.0 * du + s * d2u
    return u, du, d2u, v, dv, d2v


def eval_generators(spec: BasisSpec, s):
    """Axial and radial generators with two s-derivatives each.

    Returns (u, u', u'', v, v', v''), arrays shaped (m,) + s.shape.
    """
    if spec.family == "polynomial":
        return _poly_uv(spec, s)
    return _steep_uv(spec, s)


def _steep_uv_p_derivs(spec: BasisSpec, s):
    """Partials of (u_k, u_k', v_k, v_k') in each steepness parameter."""
    s = np.asarray(s, dtype=float)
    m, n = spec.m, spec.n_p
    dP, dPp = _rho_p_derivs(s, spec.p)
    u_p = np.empty((n, m) + s.shape)
    du_p = np.empty_like(u_p)
    for i in range(n):
        u_p[i, 0] = -dP[i]
        du_p[i, 0] = -dPp[i]
        if m >= 2:
            w = s * s - 1.0
            u_p[i, 1] = dP[i] * w
            du_p[i, 1] = dPp[i] * w + 2.0 * s * dP[i]
        for k in range(2, m):
            u_p[i, k] = s * s * u_p[i, k - 1]
            du_p[i, k] = 2.0 * s * u_p[i, k - 1] + s * s * du_p[i, k - 1]
    v_p = s * u_p
    dv_p = u_p + s * du_p
    return u_p, du_p, v_p, dv_p


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


def shape_p_derivs(state: SolutionState, s):
    """Partials of the trial shape in the steepness parameters.

    Returns (dz_dp, dr_dp, dzp_dp, drp_dp), each shaped (n_p,) + s.shape,
    where dzp_dp is the parameter derivative of dz/ds.
    """
    if state.spec.family != "adaptive":
        raise ValueError("shape parameter derivatives exist only for the steep family")
    m = state.spec.m
    u_p, du_p, v_p, dv_p = _steep_uv_p_derivs(state.spec, np.asarray(s, dtype=float))
    xu = state.x[:m]
    xv = state.x[m:]
    dz_dp = np.tensordot(xu, u_p, axes=(0, 1))
    dzp_dp = np.tensordot(xu, du_p, axes=(0, 1))
    dr_dp = np.tensordot(xv, v_p, axes=(0, 1))
    drp_dp = np.tensordot(xv, dv_p, axes=(0, 1))
    return dz_dp, dr_dp, dzp_dp, drp_dp


@dataclass
class BasisTables:
    """Generator values cached at the quadrature nodes.

    Assembly is a handful of weighted outer products against these tables,
    so they are built once per (spec, rule) pair and reused across Newton
    iterations.  The generators u, u', v, v' at the nodes s are (m, n)
    rows of one stack, and `u0` holds the axial generators at the pole.
    Derived on construction: the weights times the nodes `ws`, and the
    tangent's nine generator pairs stacked as `left` (9, m, n) and
    `right_t` (9, n, m, a transposed view).  Row k of every table is the
    same for any basis size m >= k, in both families, so `head(k)` makes
    the tables of the first k generators from slices of these, without
    evaluating a generator.
    """

    s: np.ndarray
    w: np.ndarray
    u: np.ndarray
    du: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    u0: np.ndarray = field(repr=False)
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
        # one generator pass over the nodes and the pole; the pole column
        # is copied out so that dot products with it see contiguous data
        u, du, _, v, dv, _ = eval_generators(spec, np.append(rule.nodes, 0.0))
        return cls(s=rule.nodes, w=rule.weights, u=u[:, :-1], du=du[:, :-1],
                   v=v[:, :-1], dv=dv[:, :-1], u0=u[:, -1].copy())

    def head(self, k: int) -> "BasisTables":
        """The tables of the first k generators."""
        return replace(self, u=self.u[:k], du=self.du[:k], v=self.v[:k],
                       dv=self.dv[:k], u0=self.u0[:k])
