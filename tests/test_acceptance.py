"""End-to-end checks, one per shipped guarantee, each reported pass/fail.

Every test records a single summary line through the acceptance_log fixture
and then asserts, so a red run still prints the full scorecard.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ritzmem.assembly import functional_value, jacobian, residual
from ritzmem.basis import (
    BasisSpec,
    SolutionState,
    _Profile,
    eval_generators,
    eval_shape,
)
from ritzmem.kinematics import LoadParams, stretches
from ritzmem.material import MaterialParams, principal_stresses
from ritzmem.quadrature import gauss_rule
from ritzmem.solver import delta_diagnostic, solve_membrane

from reference import fold_count

GAS = MaterialParams(gamma1=0.02, gamma2=-0.015, gamma3=0.00025)
LIQ = MaterialParams(gamma1=0.1)
GAS_LOAD = LoadParams(1.7)
LIQ_LOAD = LoadParams(0.5, 10.0)

GAS_TABLE = {
    1: (0.7016, 0.2865, 0.2923, 1.3966, 1.4617, 0.5408),
    2: (0.7824, 0.3026, 0.3975, 1.4644, 1.9279, 0.7252),
    3: (0.7913, 0.3064, 0.4255, 1.4753, 2.0248, 0.8345),
    4: (0.7926, 0.3068, 0.4350, 1.4759, 2.0421, 0.8560),
    5: (0.7926, 0.3069, 0.4362, 1.4758, 2.0415, 0.8591),
    6: (0.7926, 0.3069, 0.4362, 1.4757, 2.0406, 0.8596),
}

VAL_TOL = 5e-4
DERIV_TOL = 5e-3
ORDER = np.sqrt(10.0)


def _i0_series(x, terms=60):
    """Ascending series sum_k (x/2)^(2k) / (k!)^2 of I0."""
    return sum((x / 2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms))


def record(log, num, name, ok, detail):
    log(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _values(state, s):
    shape = eval_shape(state, np.array(float(s)), second=True)
    return np.array([shape.z, shape.r, -shape.dz, shape.dr,
                     -shape.d2z, -shape.d2r], dtype=float)


@pytest.fixture(scope="module")
def gas_ladder():
    out = {}
    for m in range(1, 7):
        state, report = solve_membrane(GAS, GAS_LOAD, "polynomial", m,
                                       probe=0.2)
        assert report.converged
        out[m] = (state, report)
    return out


@pytest.fixture(scope="module")
def liquid_case():
    t0 = time.perf_counter()
    state, report = solve_membrane(LIQ, LIQ_LOAD, "adaptive", 6, probe=0.9)
    elapsed = time.perf_counter() - t0
    assert report.converged
    return state, report, elapsed


def test_criterion_1_gas_case_values(acceptance_log):
    t0 = time.perf_counter()
    state, report = solve_membrane(GAS, GAS_LOAD, "polynomial", 6, probe=0.2)
    elapsed = time.perf_counter() - t0
    got = _values(state, 0.2)
    want = np.array(GAS_TABLE[6])
    vdev = np.max(np.abs(got[:4] - want[:4]))
    ddev = np.max(np.abs(got[4:] - want[4:]))
    delta = report.delta_at
    ok = (report.converged and vdev <= VAL_TOL and ddev <= DERIV_TOL
          and 2e-5 / 10 <= delta <= 2e-5 * 10 and elapsed < 5.0)
    record(acceptance_log, 1, "gas case, m=6 profile values", ok,
           f"value dev {vdev:.1e} (tol {VAL_TOL}), second-derivative dev "
           f"{ddev:.1e} (tol {DERIV_TOL}), delta {delta:.2e} vs 2e-5, "
           f"{elapsed:.2f} s")


def test_criterion_2_gas_case_trend(acceptance_log):
    probe_delta = {}
    grid_delta = {}
    value_dev = {}
    states = {}
    for m in range(1, 7):
        state, report = solve_membrane(GAS, GAS_LOAD, "polynomial", m,
                                       probe=0.2)
        assert report.converged
        states[m] = state
        probe_delta[m] = report.delta_at
        grid_delta[m] = report.delta_max
        got = _values(state, 0.2)
        want = np.array(GAS_TABLE[m])
        value_dev[m] = (np.max(np.abs(got[:4] - want[:4])),
                        np.max(np.abs(got[4:] - want[4:])))
    grid_monotone = all(grid_delta[m + 1] < grid_delta[m] for m in range(1, 6))
    # the probe sits within 1e-3 of a zero crossing of the m=5 defect, so the
    # pointwise sequence gets half an order of slack instead of strictness
    probe_trend = all(probe_delta[m + 1] <= probe_delta[m] * ORDER
                      for m in range(1, 6))
    anchors = (2e-1 / 10 <= probe_delta[1] <= 2e-1 * 10
               and 2e-5 / 10 <= probe_delta[6] <= 2e-5 * 10)
    rows_ok = all(value_dev[m][0] <= VAL_TOL and value_dev[m][1] <= DERIV_TOL
                  for m in (4, 5, 6))
    ok = grid_monotone and probe_trend and anchors and rows_ok
    record(acceptance_log, 2, "gas case, defect shrinks with basis size", ok,
           f"grid-max delta {grid_delta[1]:.1e} -> {grid_delta[6]:.1e} "
           f"monotone={grid_monotone}, probe delta {probe_delta[1]:.1e} -> "
           f"{probe_delta[6]:.1e}, rows m>=4 in tolerance={rows_ok}")


def test_criterion_3_liquid_case_values(acceptance_log, liquid_case):
    state, report, elapsed = liquid_case
    shape = eval_shape(state, np.array(0.9), second=True)
    got = np.array([10 * shape.z, -shape.dz, shape.r, shape.dr], dtype=float)
    want = np.array([0.36448, 0.17841, 0.90693, 0.99275])
    got2 = np.array([-shape.d2z, -shape.d2r], dtype=float)
    want2 = np.array([2.3461, 0.41404])
    vdev = np.max(np.abs(got - want))
    ddev = np.max(np.abs(got2 - want2))
    delta = report.delta_at
    p_ok = report.final_p is not None and len(report.final_p) == 1 \
        and report.final_p[0] > 0
    ok = (vdev <= VAL_TOL and ddev <= DERIV_TOL
          and 3e-5 / 10 <= delta <= 3e-5 * 10 and p_ok and elapsed < 30.0)
    record(acceptance_log, 3, "liquid case, m=6 profile values", ok,
           f"value dev {vdev:.1e} (tol {VAL_TOL}), second-derivative dev "
           f"{ddev:.1e} (tol {DERIV_TOL}), delta {delta:.2e} vs 3e-5, "
           f"p1 {report.final_p[0]:.3f}, {elapsed:.2f} s")


def test_criterion_4_polynomial_stall(acceptance_log):
    state, report = solve_membrane(LIQ, LIQ_LOAD, "polynomial", 8, probe=0.9)
    delta = report.delta_at
    ok = report.converged and 1e-3 <= delta <= 1e-1
    record(acceptance_log, 4, "smooth basis stalls under the weight term", ok,
           f"m=8 delta {delta:.2e}, expected within [1e-3, 1e-1]")


def test_criterion_5_fold_structure(acceptance_log):
    from ritzmem.quadrature import auto_rule
    from ritzmem.solver import SolveContext, continue_in_load

    t0 = time.perf_counter()
    ctx = SolveContext(GAS, LoadParams(0.1), BasisSpec("polynomial", 6),
                       auto_rule("polynomial"))
    points = continue_in_load(ctx, 0.1, 1.9)
    elapsed = time.perf_counter() - t0
    folds = fold_count(points)
    ok = folds == 2 and elapsed < 60.0
    record(acceptance_log, 5, "load-sag curve has two folds", ok,
           f"{len(points)} points, {folds} reversals of c (want 2), "
           f"{elapsed:.2f} s")


def test_criterion_6_derivative_oracles(acceptance_log):
    rng = np.random.default_rng(2024)
    rule = gauss_rule(64)
    spec = BasisSpec("polynomial", 3)

    def random_state(load):
        while True:
            x = rng.normal(scale=0.08, size=2 * spec.m)
            state = SolutionState(x, spec, load)
            shape = eval_shape(state, rule.nodes)
            if np.all(shape.r > 0) and np.all(np.hypot(shape.dz, shape.dr) > 0.05):
                return state

    def fd_residual_jacobian(state, h=1e-6):
        cols = []
        for i in range(state.x.size):
            xp, xm = state.x.copy(), state.x.copy()
            xp[i] += h
            xm[i] -= h
            gp = residual(SolutionState(xp, spec, state.load), GAS, rule)
            gm = residual(SolutionState(xm, spec, state.load), GAS, rule)
            cols.append((gp - gm) / (2 * h))
        return np.column_stack(cols)

    def fd_gradient(state, h=1e-6):
        grad = np.empty_like(state.x)
        for i in range(state.x.size):
            xp, xm = state.x.copy(), state.x.copy()
            xp[i] += h
            xm[i] -= h
            fp = functional_value(SolutionState(xp, spec, state.load), GAS, rule)
            fm = functional_value(SolutionState(xm, spec, state.load), GAS, rule)
            grad[i] = (fp - fm) / (2 * h)
        return grad

    worst_h = 0.0
    worst_g = 0.0
    for load in (GAS_LOAD, LIQ_LOAD):
        for _ in range(10):
            state = random_state(load)
            h = jacobian(state, GAS, rule)
            err = np.max(np.abs(h - fd_residual_jacobian(state)))
            worst_h = max(worst_h, err / np.max(np.abs(h)))
            if load.d == 0.0:
                g = residual(state, GAS, rule)
                gerr = np.max(np.abs(g - fd_gradient(state)))
                worst_g = max(worst_g, gerr / np.max(np.abs(g)))
    ok = worst_h <= 1e-5 and worst_g <= 1e-6
    record(acceptance_log, 6, "tangent and gradient match differencing", ok,
           f"20 states: max tangent rel err {worst_h:.1e} (tol 1e-5), "
           f"max gradient rel err {worst_g:.1e} (tol 1e-6)")


def test_criterion_7_structural_invariants(acceptance_log):
    rng = np.random.default_rng(77)
    specs = [BasisSpec("polynomial", m) for m in (1, 6, 12)]
    specs += [BasisSpec("adaptive", m, (p1,))
              for m in (1, 6, 12) for p1 in (0.1, 1.0, 10.0, 100.0)]
    worst_basis = 0.0
    worst_shape = 0.0
    ends = np.array([0.0, 1.0])
    for spec in specs:
        u, du, _, v, dv, _ = eval_generators(spec, ends)
        worst_basis = max(worst_basis,
                          np.max(np.abs(u[:, 1])), np.max(np.abs(du[:, 0])),
                          np.max(np.abs(v[:, 0])), np.max(np.abs(v[:, 1])))
        for _ in range(3):
            x = rng.normal(scale=0.5, size=2 * spec.m)
            shape = eval_shape(SolutionState(x, spec, GAS_LOAD), ends)
            scale = 1.0 + np.max(np.abs(x))
            worst_shape = max(
                worst_shape,
                abs(shape.z[1]) / scale, abs(shape.r[1] - 1.0) / scale,
                abs(shape.dz[0]) / scale, abs(shape.r[0]) / scale)
    bc_ok = worst_basis <= 1e-10 and worst_shape <= 1e-10

    stress_ok = all(
        abs(t) <= 1e-15
        for mat in (GAS, LIQ)
        for t in principal_stresses(1.0, 1.0, mat))

    # the scaled profile rho = I0(p1 s)/I0(p1) the steep family is built on:
    # its value against the ascending series of I0, its s-derivative
    # against central differences
    h = 1e-6
    bessel_dev = 0.0
    for p1 in (0.5, 5.0, 50.0):
        for s in (0.3, 0.7, 0.95):
            prof = _Profile(np.array([s - h, s, s + h]), (p1,), second=False)
            rho, drho = prof.rho, prof.drho
            want = _i0_series(p1 * s) / _i0_series(p1)
            bessel_dev = max(bessel_dev, abs(rho[1] - want) / want,
                             abs((rho[2] - rho[0]) / (2 * h) - drho[1]) / drho[1])
    bessel_ok = bessel_dev <= 1e-8

    quad_dev = 0.0
    for n in (2, 4, 7, 12):
        rule = gauss_rule(n)
        for k in range(2 * n):
            exact = 1.0 / (k + 1)
            got = float(rule.weights @ rule.nodes**k)
            quad_dev = max(quad_dev, abs(got - exact) / exact)
    quad_ok = quad_dev <= 1e-13

    ok = bc_ok and stress_ok and bessel_ok and quad_ok
    record(acceptance_log, 7, "boundary, identity, series, quadrature", ok,
           f"boundary defect {max(worst_basis, worst_shape):.1e} (tol 1e-10), "
           f"identity stress zero={stress_ok}, bessel dev {bessel_dev:.1e} "
           f"(tol 1e-8), exactness dev {quad_dev:.1e}")


def test_criterion_8_homogeneous_center(acceptance_log, liquid_case):
    state, _, _ = liquid_case
    s = np.linspace(0.0, 0.4, 81)
    shape = eval_shape(state, s)
    l1, l2, _ = stretches(s, shape.r, shape.dz, shape.dr, pole_limit=True)
    spread = np.max(np.abs(l1 - l2)) / l1[0]
    ok = spread <= 0.05
    record(acceptance_log, 8, "central region strains equally both ways", ok,
           f"max |l1 - l2| / l1(0) = {spread:.1e} on s in [0, 0.4] "
           f"(tol 0.05)")
