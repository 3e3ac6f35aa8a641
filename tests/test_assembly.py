"""Energy functional, residual, tangent matrix, steepness gradient."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ritzmem import assembly, material
from ritzmem.assembly import (
    Evaluator,
    functional_value,
    jacobian,
    load_derivative,
    p_gradient,
    residual,
)
from ritzmem.basis import BasisSpec, BasisTables, SolutionState, eval_shape
from ritzmem.kinematics import LoadParams
from ritzmem.material import MaterialParams, energy_derivs
from ritzmem.quadrature import auto_rule, gauss_rule
from ritzmem.solver import SolveContext, newton_solve, solve_membrane

from reference import per_product_forms

GAS = MaterialParams(gamma1=0.02, gamma2=-0.015, gamma3=0.00025)
LIQ = MaterialParams(gamma1=0.1)
RULE = gauss_rule(64)


@pytest.fixture(scope="module")
def gas_m6():
    state, report = solve_membrane(GAS, LoadParams(1.7), "polynomial", 6)
    assert report.converged
    return state


@pytest.fixture(scope="module")
def liquid_m6():
    state, report = solve_membrane(LIQ, LoadParams(0.5, 10.0), "adaptive", 6,
                                   p=(17.113,))
    assert report.converged
    return state


def _random_state(rng, spec, load, scale=0.08):
    """Random coefficients kept small enough that the shape stays valid."""
    while True:
        x = rng.normal(scale=scale, size=2 * spec.m)
        state = SolutionState(x, spec, load)
        shape = eval_shape(state, RULE.nodes)
        if np.all(shape.r > 0.0) and np.all(np.hypot(shape.dz, shape.dr) > 0.05):
            return state


def _fd_gradient(state, mat, rule, h=1e-6):
    x = state.x
    grad = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp = functional_value(SolutionState(xp, state.spec, state.load), mat, rule)
        fm = functional_value(SolutionState(xm, state.spec, state.load), mat, rule)
        grad[i] = (fp - fm) / (2 * h)
    return grad


def _fd_jacobian(state, mat, rule, h=1e-6):
    x = state.x
    cols = []
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        gp = residual(SolutionState(xp, state.spec, state.load), mat, rule)
        gm = residual(SolutionState(xm, state.spec, state.load), mat, rule)
        cols.append((gp - gm) / (2 * h))
    return np.column_stack(cols)


def test_functional_zero_at_undeformed():
    for load in (LoadParams(0.0), LoadParams(1.7), LoadParams(0.5, 10.0)):
        state = SolutionState(np.zeros(8), BasisSpec("polynomial", 4), load)
        assert functional_value(state, GAS, RULE) == pytest.approx(0.0, abs=1e-15)


def test_functional_gradient_is_residual():
    rng = np.random.default_rng(101)
    state = _random_state(rng, BasisSpec("polynomial", 4), LoadParams(0.8))
    g = residual(state, GAS, RULE)
    fd = _fd_gradient(state, GAS, RULE)
    assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_functional_decreases_along_newton_step(gas_m6):
    rng = np.random.default_rng(103)
    for _ in range(5):
        x = gas_m6.x + rng.normal(scale=1e-2, size=gas_m6.x.size)
        state = SolutionState(x, gas_m6.spec, gas_m6.load)
        before = functional_value(state, GAS, RULE)
        step = np.linalg.solve(jacobian(state, GAS, RULE),
                               residual(state, GAS, RULE))
        after = functional_value(
            SolutionState(x - step, gas_m6.spec, gas_m6.load), GAS, RULE)
        assert after < before


def test_residual_zero_without_load():
    state = SolutionState(np.zeros(12), BasisSpec("polynomial", 6),
                          LoadParams(0.0))
    assert np.max(np.abs(residual(state, GAS, RULE))) == 0.0


def test_residual_vanishes_at_converged_state(gas_m6):
    g = residual(gas_m6, GAS, RULE)
    assert np.max(np.abs(g)) <= 1e-8


def test_residual_matches_fd_gradient_on_random_states():
    rng = np.random.default_rng(107)
    for _ in range(3):
        state = _random_state(rng, BasisSpec("polynomial", 3), LoadParams(1.2))
        g = residual(state, GAS, RULE)
        fd = _fd_gradient(state, GAS, RULE)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_jacobian_at_undeformed_origin():
    state = SolutionState(np.zeros(8), BasisSpec("polynomial", 4),
                          LoadParams(0.0))
    h = jacobian(state, GAS, RULE)
    fd = _fd_jacobian(state, GAS, RULE)
    assert np.max(np.abs(h - fd)) <= 1e-8


def test_jacobian_matches_fd_at_liquid_operating_point(liquid_m6):
    h = jacobian(liquid_m6, LIQ, auto_rule("adaptive", 17.113))
    fd = _fd_jacobian(liquid_m6, LIQ, auto_rule("adaptive", 17.113))
    assert np.max(np.abs(h - fd)) <= 1e-5 * np.max(np.abs(h))


def test_jacobian_symmetry_at_converged_state(gas_m6):
    h = jacobian(gas_m6, GAS, RULE)
    defect = np.max(np.abs(h - h.T)) / np.max(np.abs(h))
    assert defect <= 1e-8


def test_jacobian_consistency_under_both_loads():
    rng = np.random.default_rng(109)
    for load in (LoadParams(1.7), LoadParams(0.5, 10.0)):
        for _ in range(3):
            state = _random_state(rng, BasisSpec("polynomial", 3), load)
            h = jacobian(state, GAS, RULE)
            fd = _fd_jacobian(state, GAS, RULE)
            assert np.max(np.abs(h - fd)) <= 1e-5 * max(np.max(np.abs(h)), 1.0)


def test_one_evaluator_over_many_iterates_equals_the_public_functions(gas_m6,
                                                                     liquid_m6):
    # a solve's evaluator overwrites its arrays iterate after iterate, and
    # keeps the views its tangent writes through; each iterate must still
    # read what a lone call at its state reads, on row-sliced tables (the
    # first 6 generators of an m = 12 build) and on the largest rule (384
    # nodes in two panels) too
    rng = np.random.default_rng(127)
    steep = BasisSpec("adaptive", 6, (150.0,))
    cases = [(gas_m6, GAS, RULE, None),
             (liquid_m6, LIQ, auto_rule("adaptive", 17.113), None),
             (_random_state(rng, BasisSpec("polynomial", 3), LoadParams(0.5, 10.0)),
              GAS, RULE, None),
             (gas_m6, GAS, RULE,
              BasisTables.build(BasisSpec("polynomial", 12), RULE).head(6)),
             (_random_state(rng, steep, LoadParams(0.5, 100.0)), LIQ,
              auto_rule("adaptive", 150.0), None)]
    assert cases[-1][2].n == 384
    for state, mat, rule, tables in cases:
        if tables is None:
            tables = BasisTables.build(state.spec, rule)
        n = state.x.size
        plain = Evaluator(tables, mat, state.load.d)
        bordered = Evaluator(tables, mat, state.load.d, (0.6, 0.8, 1.5))
        for k in range(3):
            x = state.x * (1.0 + 0.01 * k)
            c = state.load.c + 0.1 * k
            at = SolutionState(x, state.spec, LoadParams(c, state.load.d))
            g, h = residual(at, mat, rule), jacobian(at, mat, rule)
            gc = load_derivative(at, mat, rule)
            plain.at(x, c)
            bordered.at(x, c)
            assert np.array_equal(plain.residual(), g)
            assert np.array_equal(plain.tangent(), h)
            assert np.array_equal(bordered.residual()[:n], g)
            hb = bordered.tangent()
            assert np.array_equal(hb[:n, :n], h)
            assert np.array_equal(hb[:n, n], gc)
            assert hb[n].tolist() == [0.6 * e for e in bordered.e] + [0.8]


def test_a_new_border_gives_the_bits_of_a_fresh_evaluator(gas_m6):
    # a sweep keeps one bordered evaluator for all of its correctors and
    # rewrites its row in place; what it returns after that must be what an
    # evaluator made with the new border returns
    tables = BasisTables.build(gas_m6.spec, RULE)
    kept = Evaluator(tables, GAS, 0.0, (0.6, 0.8, 1.5))
    kept.at(gas_m6.x * 0.98, 1.6)
    kept.residual()
    kept.tangent()
    border = (-0.28, 0.96, 0.4)
    kept.set_border(border)
    fresh = Evaluator(tables, GAS, 0.0, border)
    for ev in (kept, fresh):
        ev.at(gas_m6.x, 1.7)
    assert kept.residual().tobytes() == fresh.residual().tobytes()
    assert kept.tangent().tobytes() == fresh.tangent().tobytes()


@pytest.mark.parametrize("p, n", [(80.0, 384), (17.1, 192)])
def test_an_iterate_allocates_no_node_length_array(p, n):
    # a node-length array on the steep rules (1.5 or 3 KB) is past numpy's
    # 1 KB small-block cache, so each temporary would be a malloc and a
    # free: after its first tangent an evaluator writes every intermediate
    # of an iterate into arrays it keeps, and its tangent allocates only the
    # iterator buffer of the broadcast (k, m, n) row-weighted product
    rule = auto_rule("adaptive", p)
    assert rule.n == n
    spec = BasisSpec("adaptive", 6, (p,))
    ev = Evaluator(BasisTables.build(spec, rule), LIQ, 10.0)
    x = _random_state(np.random.default_rng(131), spec, LoadParams(0.5, 10.0)).x
    ev.at(x, 0.5)
    ev.residual()
    ev.tangent()
    x = x * 1.01
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        ev.at(x, 0.6)
        ev.residual()
        now, iterate = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ev.tangent()
        _, tangent = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert iterate - start < 8 * n
    assert tangent - now < 9 * 6 * n * 8


def _fresh_bits(ev, x, c):
    """The residual and tangent bytes of a new evaluator like `ev` at (x, c)."""
    fresh = Evaluator(ev.tables, ev.mat, float(ev.d), ev.border)
    fresh.at(x, c)
    return fresh.residual().tobytes(), fresh.tangent().tobytes()


def test_evaluators_on_one_tables_keep_separate_workspaces(liquid_m6):
    # the m = 1 start runs on head(1) views of the tables of the full solve,
    # and a sweep keeps an arclength and a landing evaluator on one tables
    # object; each evaluator keeps its own arrays, so two of them with their
    # iterates interleaved each give the bits a fresh evaluator gives
    tables = BasisTables.build(liquid_m6.spec, auto_rule("adaptive", 17.113))
    x, d = liquid_m6.x, liquid_m6.load.d
    arc = Evaluator(tables, LIQ, d, (0.0, 0.0, 0.0))
    arc.set_border((-0.28, 0.96, 0.04))
    pairs = [(Evaluator(tables, LIQ, d), x,
              Evaluator(tables.head(1), LIQ, d), x[[0, 6]]),
             (arc, x, Evaluator(tables, LIQ, d), x)]
    for a, xa, b, xb in pairs:
        for k in range(3):
            ya, ca = xa * (1.0 + 0.01 * k), 0.5 + 0.1 * k
            yb, cb = xb * (1.0 - 0.02 * k), 0.5 - 0.05 * k
            a.at(ya, ca)
            b.at(yb, cb)
            ga, gb = a.residual().tobytes(), b.residual().tobytes()
            ha, hb = a.tangent().tobytes(), b.tangent().tobytes()
            assert (ga, ha) == _fresh_bits(a, ya, ca)
            assert (gb, hb) == _fresh_bits(b, yb, cb)


def test_one_shot_functions_after_a_newton_solve_give_their_standalone_bits(
        gas_m6, liquid_m6):
    # p_gradient and functional_value make evaluators of their own on the
    # tables a Newton solve has just run on, the kept polynomial tables
    # among them; they read nothing that solve's evaluator left
    steep = SolveContext(LIQ, liquid_m6.load, liquid_m6.spec,
                         auto_rule("adaptive", 17.113))
    gas = SolveContext.create(GAS, gas_m6.load, "polynomial", 6)
    for ctx, start, one_shot in ((steep, liquid_m6, p_gradient),
                                 (steep, liquid_m6, functional_value),
                                 (gas, gas_m6, functional_value)):
        state, report = newton_solve(start.x * 0.99, ctx)
        assert report.converged
        kept = one_shot(state, ctx.mat, ctx.rule, ctx.tables)
        alone = one_shot(state, ctx.mat, ctx.rule)
        assert np.asarray(kept).tobytes() == np.asarray(alone).tobytes()


def test_shared_scalar_operands_are_read_only():
    # the 0-d constants the assembly reads as ufunc operands are shared by
    # every solve in the process, so a write to one must raise
    ev = Evaluator(BasisTables.build(BasisSpec("polynomial", 2), RULE), GAS, 10.0)
    shared = [v for mod in (material, assembly) for v in vars(mod).values()
              if isinstance(v, np.ndarray) and v.ndim == 0]
    assert len(shared) >= 5  # 1, 2, 3, 4 and 1/2
    shared += [*GAS._w_coefs, energy_derivs(3.5, GAS)[1], ev.d]
    for value in shared:
        assert value.dtype == np.float64
        assert not value.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            value[()] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(value, 2.0, out=value)
    assert ev.d == 10.0 and [float(v) for v in GAS._w_coefs] == [
        GAS.gamma1, 2.0 * GAS.gamma2, 3.0 * GAS.gamma3, 6.0 * GAS.gamma3]


def test_block_structure():
    # With the radial coefficients zero, blanking the v-generator tables
    # must leave the axial block untouched and kill the other blocks.
    rng = np.random.default_rng(113)
    spec = BasisSpec("polynomial", 4)
    m = spec.m
    x = np.zeros(2 * m)
    x[:m] = rng.normal(scale=0.05, size=m)
    state = SolutionState(x, spec, LoadParams(0.9))
    tables = BasisTables.build(spec, RULE)
    blanked = replace(tables, v=np.zeros_like(tables.v),
                      dv=np.zeros_like(tables.dv))
    h_full = jacobian(state, GAS, RULE, tables)
    h_blank = jacobian(state, GAS, RULE, blanked)
    assert np.allclose(h_blank[:m, :m], h_full[:m, :m], rtol=0, atol=0)
    assert np.max(np.abs(h_blank[m:, :])) == 0.0
    assert np.max(np.abs(h_blank[:m, m:])) == 0.0


def test_p_gradient_zero_state():
    spec = BasisSpec("adaptive", 3, (5.0,))
    state = SolutionState(np.zeros(6), spec, LoadParams(0.5, 10.0))
    psi = p_gradient(state, LIQ, gauss_rule(192))
    assert np.allclose(psi, 0.0, atol=1e-15)


def test_p_gradient_matches_fd_without_weight_term(liquid_m6):
    # Evaluate at the steep converged coefficients but with d = 0, where the
    # energy is a plain potential and those coefficients are far from the
    # minimizer; the gradient is then well above the differencing noise.
    state = SolutionState(liquid_m6.x, liquid_m6.spec, LoadParams(0.5))
    rule = auto_rule("adaptive", 17.113)
    psi = p_gradient(state, LIQ, rule)
    h = 1e-4
    fp = functional_value(
        SolutionState(state.x, state.spec.with_p((17.113 + h,)), state.load),
        LIQ, rule)
    fm = functional_value(
        SolutionState(state.x, state.spec.with_p((17.113 - h,)), state.load),
        LIQ, rule)
    assert psi[0] == pytest.approx((fp - fm) / (2 * h), rel=1e-5)


def test_p_gradient_small_at_optimized_parameters():
    state, report = solve_membrane(LIQ, LoadParams(0.5, 10.0), "adaptive", 6)
    assert report.converged
    rule = auto_rule("adaptive", state.spec.p[0])
    psi = p_gradient(state, LIQ, rule)
    val = functional_value(state, LIQ, rule)
    assert np.max(np.abs(psi)) <= 1e-6 * max(1.0, abs(val))


def test_p_gradient_rejects_polynomial():
    state = SolutionState(np.zeros(6), BasisSpec("polynomial", 3),
                          LoadParams(0.5, 10.0))
    with pytest.raises(ValueError):
        p_gradient(state, LIQ, RULE)


def test_load_derivative_matches_fd(gas_m6):
    gc = load_derivative(gas_m6, GAS, RULE)
    h = 1e-6
    up = SolutionState(gas_m6.x, gas_m6.spec, LoadParams(1.7 + h))
    dn = SolutionState(gas_m6.x, gas_m6.spec, LoadParams(1.7 - h))
    fd = (residual(up, GAS, RULE) - residual(dn, GAS, RULE)) / (2 * h)
    assert np.allclose(gc, fd, rtol=1e-6, atol=1e-10)


# coefficients of a valid shape for the examples on either side of d = 0
_X = [0.08 * np.sin(1.0 + k) for k in range(24)]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@example(family="polynomial", m=6, p1=1.0, mat=GAS, c=0.0, d=0.0, x=_X)
@example(family="polynomial", m=6, p1=1.0, mat=GAS, c=1.7, d=0.0, x=_X)
@example(family="adaptive", m=6, p1=17.1, mat=LIQ, c=0.0, d=0.0, x=_X)
@example(family="adaptive", m=6, p1=17.1, mat=LIQ, c=1.7, d=0.0, x=_X)
@example(family="polynomial", m=6, p1=1.0, mat=GAS, c=1.7, d=5e-324, x=_X)
@example(family="adaptive", m=6, p1=17.1, mat=LIQ, c=1.7, d=5e-324, x=_X)
@given(family=st.sampled_from(["polynomial", "adaptive"]),
       m=st.integers(1, 12),
       p1=st.floats(0.5, 300.0),
       mat=st.sampled_from([GAS, LIQ]),
       c=st.floats(-3.0, 3.0),
       d=st.floats(0.0, 1000.0),
       x=st.lists(st.floats(-0.1, 0.1), min_size=24, max_size=24))
def test_residual_and_tangent_equal_per_product_forms(family, m, p1, mat, c,
                                                       d, x):
    # the stacked tension pass, the batched tangent products and the
    # evaluator's kept arrays change no bit of g, H or dg/dc
    p = (p1,) if family == "adaptive" else ()
    spec = BasisSpec(family, m, p)
    rule = auto_rule(family, p1 if p else None)
    state = SolutionState(np.array(x[:2 * m]), spec, LoadParams(c, d))
    tables = BasisTables.build(spec, rule)
    g, h, gc = per_product_forms(state, mat, tables)
    assert np.array_equal(residual(state, mat, rule, tables), g, equal_nan=True)
    assert np.array_equal(jacobian(state, mat, rule, tables), h, equal_nan=True)
    assert np.array_equal(load_derivative(state, mat, rule, tables), gc,
                          equal_nan=True)
