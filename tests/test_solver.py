"""Newton solve, continuation with fold traversal, basis parameter search."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ritzmem import assembly, basis, cli, material, solver
from ritzmem.basis import MAX_M, BasisSpec, BasisTables, SolutionState, eval_shape
from ritzmem.kinematics import LoadParams
from ritzmem.material import MaterialParams
from ritzmem.quadrature import QuadratureRule, auto_rule, gauss_rule
from ritzmem.solver import (
    SolveContext,
    SolveFailure,
    StepPolicy,
    continue_in_load,
    delta_diagnostic,
    init_p1,
    initial_guess,
    newton_solve,
    optimize_basis,
    solve_ladder,
    solve_membrane,
)

from reference import bvp_curve, bvp_state, defect, fold_count, newton_reference

GAS = MaterialParams(gamma1=0.02, gamma2=-0.015, gamma3=0.00025)
LIQ = MaterialParams(gamma1=0.1)


def gas_context(m, c=1.7):
    return SolveContext(GAS, LoadParams(c), BasisSpec("polynomial", m),
                        auto_rule("polynomial"))


@pytest.fixture(scope="module")
def gas_m6():
    ctx = gas_context(6)
    state, report = newton_solve(initial_guess(ctx), ctx)
    assert report.converged
    return state, report


@pytest.fixture(scope="module")
def liquid_m6():
    state, report = solve_membrane(LIQ, LoadParams(0.5, 10.0), "adaptive", 6,
                                   probe=0.9)
    assert report.converged
    return state, report


def _profile(state, s):
    shape = eval_shape(state, np.array(float(s)), second=True)
    return (float(shape.z), float(shape.r), float(shape.dz),
            float(shape.dr), float(shape.d2z), float(shape.d2r))


def test_newton_gas_case_m6(gas_m6):
    state, report = gas_m6
    z, r, dz, dr, _, _ = _profile(state, 0.2)
    assert z == pytest.approx(0.7926, abs=1e-4)
    assert r == pytest.approx(0.3069, abs=1e-4)
    assert -dz == pytest.approx(0.4362, abs=1e-4)
    assert dr == pytest.approx(1.4757, abs=1e-4)
    at, _ = delta_diagnostic(state, GAS, [0.2])
    assert 2e-5 / 3 <= at[0] <= 2e-5 * 3.2


def test_newton_gas_case_m1():
    ctx = gas_context(1)
    state, report = newton_solve(initial_guess(ctx), ctx)
    assert report.converged
    z, r, *_ = _profile(state, 0.2)
    assert z == pytest.approx(0.7016, abs=1e-4)
    assert r == pytest.approx(0.2865, abs=1e-4)
    at, _ = delta_diagnostic(state, GAS, [0.2])
    assert 2e-1 / 3 <= at[0] <= 2e-1 * 3


def test_newton_zero_load_zero_start():
    ctx = gas_context(6, c=0.0)
    state, report = newton_solve(np.zeros(12), ctx)
    assert report.converged
    assert report.iterations <= 1
    assert np.max(np.abs(state.x)) == 0.0


def test_newton_superlinear_tail(gas_m6):
    hist = gas_m6[1].residual_history
    assert len(hist) >= 3
    r1, r2, r3 = hist[-3:]
    assert r2 <= 0.5 * r1
    assert r3 <= 0.5 * r2
    assert r3 / r2 < 1e-2


def test_initial_guess_zero_load():
    ctx = gas_context(4, c=0.0)
    assert np.max(np.abs(initial_guess(ctx))) == 0.0


def test_initial_guess_sign():
    ctx = gas_context(6)
    x0 = initial_guess(ctx)
    assert ctx.sag(x0) > 0.0


def test_initial_guess_converges_fast():
    ctx = gas_context(6)
    _, report = newton_solve(initial_guess(ctx), ctx)
    assert report.converged
    assert report.iterations <= 5


def test_sweep_easy_leg_iteration_counts():
    # warm-started re-solve at each returned point, far from the folds
    ctx = gas_context(6)
    points = continue_in_load(ctx, 0.1, 0.6)
    assert len(points) >= 3
    for prev, pt in zip(points, points[1:]):
        _, report = newton_solve(prev.x, ctx.with_load(pt.c_value))
        assert report.converged
        assert report.iterations <= 5


def test_sweep_reverse_path_independence():
    # the two directions place their points at different loads; each ends
    # where the other starts, and each point of one re-solves, at its load
    # from the other's nearest point, onto itself
    ctx = gas_context(6)
    policy = StepPolicy(initial=0.1)
    fwd = continue_in_load(ctx, 0.2, 0.8, policy)
    back = continue_in_load(ctx, 0.8, 0.2, policy)
    for one, other in ((fwd, back), (back, fwd)):
        assert one[-1].c_value == other[0].c_value
        assert one[-1].sag == pytest.approx(other[0].sag, abs=1e-8)
        assert np.allclose(one[-1].x, other[0].x, atol=1e-8)
        assert len(one) >= 5
        for pt in one:
            mate = min(other, key=lambda q: abs(q.c_value - pt.c_value))
            state, report = newton_solve(mate.x, ctx.with_load(pt.c_value))
            assert report.converged
            assert ctx.sag(state.x) == pytest.approx(pt.sag, abs=1e-8)
            assert np.allclose(state.x, pt.x, atol=1e-8)


def test_sweep_fold_structure():
    ctx = gas_context(6)
    points = continue_in_load(ctx, 0.1, 1.9)
    c = np.array([pt.c_value for pt in points])
    f = np.array([pt.sag for pt in points])
    assert np.all(np.diff(f) > 0.0)
    slopes = np.sign(np.diff(c) / np.diff(f))
    flips = int(np.count_nonzero(np.diff(slopes[slopes != 0.0])))
    assert flips == 2
    # upper critical load at the first slope sign change, then the lower one
    # on the unstable leg; the re-rising branch may end above the upper one
    i_max = int(np.argmax(slopes < 0.0))
    assert 0 < i_max < len(c) - 2
    assert c[i_max] == pytest.approx(1.82, abs=0.05)
    c_min_after = np.min(c[i_max:])
    assert c_min_after == pytest.approx(1.48, abs=0.05)
    # hints mirror the slope signs and flip with them
    hints = np.array([pt.stability_hint for pt in points])
    hint_flips = int(np.count_nonzero(np.diff(hints[hints != 0])))
    assert hint_flips == 2
    # every point but the landing on c_end lies an arclength step ds along
    # the secant of the two before it (the first one along c), and ds obeys
    # its cap
    cf = np.column_stack([c, f])
    chords = np.diff(cf, axis=0)
    secants = chords[:-2] / np.linalg.norm(chords[:-2], axis=1)[:, None]
    ds = np.concatenate([[chords[0, 0]], np.sum(chords[1:-1] * secants, axis=1)])
    assert 0.0 < np.min(ds) and np.max(ds) <= solver.MAX_STEP + 1e-9


def test_optimize_liquid_case_m6(liquid_m6):
    state, report = liquid_m6
    assert report.final_p is not None and len(report.final_p) == 1
    assert 10.0 < report.final_p[0] < 25.0
    z, r, dz, dr, d2z, d2r = _profile(state, 0.9)
    assert 10 * z == pytest.approx(0.36448, abs=2e-4)
    assert -dz == pytest.approx(0.17841, abs=2e-4)
    assert -d2z == pytest.approx(2.3461, abs=1e-3)
    assert r == pytest.approx(0.90693, abs=2e-4)
    assert dr == pytest.approx(0.99275, abs=2e-4)
    assert -d2r == pytest.approx(0.41404, abs=1e-3)
    assert 3e-5 / 3 <= report.delta_at <= 3e-5 * 3


def test_optimize_liquid_case_m1():
    state, report = solve_membrane(LIQ, LoadParams(0.5, 10.0), "adaptive", 1,
                                   probe=0.9)
    assert report.converged
    z = _profile(state, 0.9)[0]
    assert 10 * z == pytest.approx(0.32896, abs=2e-4)
    assert 4e-1 / 3 <= report.delta_at <= 4e-1 * 3


def test_optimize_tunes_one_parameter_fixed_p_may_carry_more():
    # the search moves p1 only; a fixed multi-parameter profile still solves
    load = LoadParams(0.5, 10.0)
    spec = BasisSpec("adaptive", 6, (17.1, 0.5))
    ctx = SolveContext(LIQ, load, spec, auto_rule("adaptive", 17.1))
    with pytest.raises(ValueError, match="one steepness parameter"):
        optimize_basis(ctx)
    state, report = solve_membrane(LIQ, load, "adaptive", 6, p=(17.1, 0.5))
    assert report.converged and report.final_p == (17.1, 0.5)
    assert report.delta_max < 1e-2


def test_optimize_warm_start_iteration_counts(liquid_m6):
    inner = liquid_m6[1].inner_iterations
    assert inner is not None and len(inner) >= 2
    assert all(n <= inner[0] + 2 for n in inner[1:])


def test_energy_unimodal_around_optimum(liquid_m6):
    state, report = liquid_m6
    p_star = report.final_p[0]
    from ritzmem.assembly import functional_value

    grid = p_star + np.arange(-6, 7) * 0.5
    x = state.x
    values = []
    for p1 in grid:
        spec = state.spec.with_p((float(p1),))
        ctx = SolveContext(LIQ, state.load, spec, auto_rule("adaptive", p1))
        st, rep = newton_solve(x, ctx)
        assert rep.converged
        x = st.x
        values.append(functional_value(st, LIQ, ctx.rule, ctx.tables))
    k = int(np.argmin(values))
    assert abs(grid[k] - p_star) <= 0.5
    assert all(a > b for a, b in zip(values[:k], values[1:k + 1]))
    assert all(a < b for a, b in zip(values[k:], values[k + 1:]))


def test_init_p1_fallback_without_previous_state():
    assert init_p1(None, LIQ, LoadParams(0.5, 10.0)) == pytest.approx(
        np.sqrt(10.0), rel=1e-12)


def test_init_p1_rejects_unweighted_load():
    with pytest.raises(ValueError):
        init_p1(None, LIQ, LoadParams(0.5))


@pytest.mark.parametrize("d", [1e-12, 1e-8])
def test_steep_search_at_tiny_d_is_a_solve_failure(d):
    # sqrt(d) is below P_MIN here, and the steepness start used to raise
    # BasisSpec's ValueError; it now starts at P_MIN, where the inner solve
    # fails
    assert init_p1(None, LIQ, LoadParams(0.5, d)) == basis.P_MIN
    with pytest.raises(SolveFailure, match=r"inner solve failed at the starting "
                       r"parameters \(p1 = 0\.001: [a-z_ ]+, last residual \S+\)$"):
        solve_membrane(LIQ, LoadParams(0.5, d), "adaptive", 6)


def test_init_p1_lands_near_optimum(liquid_m6):
    state, report = liquid_m6
    guess = init_p1(state, LIQ, state.load)
    p_star = report.final_p[0]
    assert p_star / 3 <= guess <= p_star * 3


def test_flat_state_at_zero_load_has_no_defect():
    # no load to scale by: delta is the raw defect, and the flat disk has none
    state = SolutionState(np.zeros(8), BasisSpec("polynomial", 4),
                          LoadParams(0.0))
    at, dmax = delta_diagnostic(state, GAS, (0.0, 0.2, 1.0))
    assert at.tolist() == [0.0, 0.0, 0.0] and dmax == 0.0


def test_delta_probes_include_pole(gas_m6):
    state, _ = gas_m6
    at, dmax = delta_diagnostic(state, GAS, probes=(0.0, 0.2, 1.0))
    assert np.all(np.isfinite(at)) and np.all(np.asarray(at) >= 0.0)
    assert np.max(at) < 1e-3
    assert dmax < 1e-3


def test_pointwise_defect_matches_diagnostic(gas_m6):
    state, report = gas_m6
    probes = np.array([0.0, 0.2, 1.0])
    at, _ = delta_diagnostic(state, GAS, probes)
    assert np.array_equal(defect(state, GAS, probes), at)
    # at zero load the same state has a raw defect, unscaled
    zero = SolutionState(state.x, state.spec, LoadParams(0.0))
    at0, _ = delta_diagnostic(zero, GAS, probes)
    assert np.array_equal(defect(zero, GAS, probes), at0)
    assert np.all(np.isfinite(at0)) and np.max(at0) > 0.0


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(family=st.sampled_from(["polynomial", "adaptive"]),
       m=st.integers(1, 12),
       p1=st.floats(0.5, 120.0),
       c=st.floats(0.01, 3.0) | st.floats(-3.0, -0.01),
       d=st.sampled_from([0.0, 1.0, 10.0, 100.0]),
       seed=st.integers(0, 2 ** 32 - 1),
       probes=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
                       max_size=4))
def test_diagnostic_is_the_pointwise_defect_bit_for_bit(family, m, p1, c, d,
                                                        seed, probes):
    rng = np.random.default_rng(seed)
    # |v_k| <= 1, so r(s) >= 0.4 s and no curvature is undefined
    x = np.concatenate([rng.uniform(-1.0, 1.0, m), rng.uniform(-0.05, 0.05, m)])
    p = (p1,) if family == "adaptive" else ()
    state = SolutionState(x, BasisSpec(family, m, p), LoadParams(c, d))
    at, dmax = delta_diagnostic(state, LIQ, probes)
    probes = np.asarray(probes, dtype=float)
    grid = np.linspace(0.0, 1.0, solver.DELTA_GRID + 2)[1:-1]
    assert at.tobytes() == defect(state, LIQ, probes).tobytes()
    assert dmax == float(np.max(defect(state, LIQ, grid)))


@pytest.fixture
def fresh_generator_tables():
    # count from an empty per-process generator table cache, whatever ran
    # before
    basis._poly_blocks.cache_clear()


@pytest.mark.parametrize("family, p", [("polynomial", ()), ("adaptive", (17.1,))])
def test_diagnostic_evaluates_the_generators_once(monkeypatch, fresh_generator_tables,
                                                  family, p):
    # one pass serves the grid and the probes
    poly = _counter(monkeypatch, basis, "_poly_uv")
    steep = _counter(monkeypatch, basis, "_steep_uv")
    state = SolutionState(np.linspace(0.1, 0.6, 12), BasisSpec(family, 6, p),
                          LoadParams(0.5, 10.0))
    delta_diagnostic(state, LIQ, [0.0, 0.2, 1.0])
    assert len(poly) + len(steep) == 1


def _counter(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def defect_passes(monkeypatch):
    return _counter(monkeypatch, solver, "_defect_terms")


@pytest.mark.parametrize("family, m, load, probe", [
    ("adaptive", 6, LoadParams(0.5, 10.0), 0.9),
    ("polynomial", 6, LoadParams(1.7), 0.2),
])
def test_defect_evaluated_once_per_returned_state(defect_passes, family, m,
                                                  load, probe):
    # one strong-form pass gives delta_max, delta_at and shape_at
    mat = LIQ if family == "adaptive" else GAS
    state, report = solve_membrane(mat, load, family, m, probe=probe)
    assert len(defect_passes) == 1
    assert defect_passes[0][0] is state
    at, dmax = delta_diagnostic(state, mat, [probe])
    assert (report.delta_at, report.delta_max) == (float(at[0]), dmax)


@pytest.mark.parametrize("family, mat, load, sizes, probe", [
    ("polynomial", GAS, LoadParams(1.7), range(1, 4), None),
    ("polynomial", GAS, LoadParams(1.7), range(1, 4), 0.2),
    ("polynomial", GAS, LoadParams(1.7), [6], [0.0, 0.2, 1.0]),
    ("adaptive", LIQ, LoadParams(0.5, 10.0), [6], 0.9),
])
def test_a_probed_solve_forms_each_point_set_shape_once(monkeypatch, family, mat,
                                                        load, sizes, probe):
    # the grid and the probes each get one shape per returned state, with a
    # probe or without: shape_at is read from the defect pass, not formed again
    shapes = _counter(monkeypatch, solver, "_shape")
    rungs = solve_ladder(mat, load, family, sizes, probe=probe)
    assert not any(isinstance(r, SolveFailure) for r in rungs)
    assert len(shapes) == 2 * len(rungs)


def test_every_probe_reader_takes_a_point_alike(gas_m6):
    # a number, a 0-d array, a list and a generator are one probe to
    # delta_diagnostic; a generator gives solve_membrane the list result
    state, _ = gas_m6
    bits = {delta_diagnostic(state, GAS, probe)[0].tobytes() for probe in
            (0.2, np.float64(0.2), np.array(0.2), [0.2], (sp for sp in [0.2]))}
    assert len(bits) == 1
    _, listed = solve_membrane(GAS, LoadParams(1.7), "polynomial", 6, probe=[0.2])
    _, generated = solve_membrane(GAS, LoadParams(1.7), "polynomial", 6,
                                  probe=(sp for sp in [0.2]))
    assert type(generated.delta_at) is list
    assert (generated.delta_at, generated.shape_at) == (listed.delta_at,
                                                        listed.shape_at)
    assert np.array(listed.delta_at).tobytes() in bits


def test_delta_at_follows_the_shape_of_probe(gas_m6):
    # one point gives a float, a sequence a list, from the one defect pass
    state, _ = gas_m6
    probes = [0.0, 0.2, 1.0]
    at, dmax = delta_diagnostic(state, GAS, probes)
    _, one = solve_membrane(GAS, LoadParams(1.7), "polynomial", 6, probe=0.2)
    _, many = solve_membrane(GAS, LoadParams(1.7), "polynomial", 6, probe=probes)
    assert type(one.delta_at) is float and one.delta_at == float(at[1])
    assert many.delta_at == at.tolist() and many.delta_max == dmax == one.delta_max
    # the shape there too, with the bits of eval_shape at those points
    for report, s in ((one, 0.2), (many, probes)):
        sh = eval_shape(state, np.array(s), second=True)
        assert report.shape_at == tuple(getattr(sh, f).tolist() for f in
                                        ("z", "r", "dz", "dr", "d2z", "d2r"))
    assert all(type(v) is float for v in one.shape_at)


@pytest.fixture
def cond_calls(monkeypatch):
    return _counter(monkeypatch, np.linalg, "cond")


@pytest.mark.parametrize("mat, load, family", [
    (GAS, LoadParams(1.7), "polynomial"),
    (LIQ, LoadParams(0.5, 10.0), "adaptive"),
])
def test_solves_compute_no_condition_number(cond_calls, mat, load, family):
    _, report = solve_membrane(mat, load, family, 6)
    assert report.converged
    assert cond_calls == []


def test_sweep_computes_no_condition_number(cond_calls):
    # the start state no longer picks a stepping mode by its conditioning
    points = continue_in_load(gas_context(6, c=0.1), 0.1, 3.0)
    assert len(points) == 23
    assert cond_calls == []


def test_sweep_starts_on_the_state_solve_membrane_returns():
    # the direct start fails here and only the basis-size ladder converges;
    # the sweep used to fail with "no equilibrium at the sweep start"
    mat, load = MaterialParams(gamma1=0.08), LoadParams(0.22, 10.0)
    state, _ = solve_membrane(mat, load, "polynomial", 6)
    ctx = SolveContext.create(mat, load, "polynomial", 6)
    points = continue_in_load(ctx, 0.22, 0.32)
    assert np.array_equal(points[0].x, state.x)
    assert points[-1].c_value == 0.32


def test_create_maps_the_family_to_its_spec_and_rule():
    poly = SolveContext.create(GAS, LoadParams(1.7), "polynomial", 6, (17.1,))
    assert poly.spec == BasisSpec("polynomial", 6)
    assert poly.rule.n == 64
    steep = SolveContext.create(LIQ, LoadParams(0.5, 10.0), "adaptive", 6,
                                (80.0,), quad=32)
    assert steep.spec == BasisSpec("adaptive", 6, (80.0,))
    assert np.array_equal(steep.rule.nodes, auto_rule("adaptive", 80.0, 32).nodes)


def test_bordered_newton_reports_a_non_finite_load(monkeypatch, gas_m6):
    # LoadParams rejects a NaN load, so the step tests c before it moves
    state, _ = gas_m6
    tangent = assembly.Evaluator.tangent

    def nan_dg_dc(self):
        h = tangent(self)
        h[:-1, -1] = np.nan
        return h

    monkeypatch.setattr(assembly.Evaluator, "tangent", nan_dg_dc)
    _, report = newton_solve(state.x, gas_context(6).with_load(1.7),
                             (1.0, 0.0, state.sag() + 0.01))
    assert not report.converged
    assert report.message == "iterate not finite"


def _corrector_case():
    # one arclength step from the gas m = 6 state at c = 1.0, as
    # continue_in_load takes it
    base = gas_context(6, c=1.0)
    state, _ = newton_solve(initial_guess(base), base)
    tc, tf, ds = 0.6, 0.8, 0.05
    border = (tf, tc, tf * base.sag(state.x) + tc * 1.0 + ds)
    return state.x, base.with_load(1.0 + ds * tc), border, True


def _start_case(ctx):
    return initial_guess(ctx), ctx, None, False


def _reused_evaluator_case():
    # the corrector case on an evaluator that has run a corrector from
    # another x, at another load and with another border
    x0, ctx, border, corrector = _corrector_case()
    ev = assembly.Evaluator(ctx.tables, ctx.mat, ctx.load.d, border)
    other = (border[1], -border[0], border[2] - 0.7)
    _, report = newton_solve(0.99 * x0, ctx.with_load(1.2), other, True, evaluator=ev)
    assert report.iterations > 0 and ev.border == other
    return x0, ctx, border, corrector, ev


@pytest.mark.parametrize("case", [
    lambda: _start_case(gas_context(6)),
    _corrector_case,
    lambda: _start_case(SolveContext.create(LIQ, LoadParams(0.5, 10.0), "adaptive",
                                            6, (17.1,))),
    lambda: _start_case(SolveContext.create(GAS, LoadParams(2.1), "polynomial", 3)),
    lambda: (np.array([0.5 / gas_context(1).tables.u0[0], 0.0]),
             gas_context(1, c=2.5), None, False),
    _reused_evaluator_case,
], ids=["gas", "bordered-corrector", "steep-p17.1", "lambda2-rejected", "max-iter",
        "reused-evaluator"])
def test_newton_equals_a_plain_loop_on_the_per_product_forms(case):
    # the evaluator's kept arrays, its bordered tangent, an evaluator that
    # has run another solve and the load carried as a number change no bit
    # of the iteration
    x0, ctx, border, corrector, *evaluator = case()
    state, report = newton_solve(x0, ctx, border, corrector,
                                 evaluator=evaluator[0] if evaluator else None)
    x, c, hist, steps, message = newton_reference(x0, ctx, border, corrector)
    assert state.x.tobytes() == x.tobytes()
    assert state.load.c == c
    assert report.residual_history == hist
    assert (report.iterations, report.message) == (steps, message)
    assert report.converged == (message == "")


@pytest.mark.parametrize("d", [1e30, 1e35])
def test_steepness_beyond_double_precision_is_a_solve_failure(d):
    # the layer panel (1 - 6/p1, 1) is too thin for distinct nodes in double
    # precision; this used to escape as the quadrature's ValueError
    with pytest.raises(SolveFailure, match="p1 = "):
        solve_membrane(LIQ, LoadParams(0.5, d), "adaptive", 6)


@pytest.mark.parametrize("mat, d, m, c_start, c_end", [
    # a hard accepted step used to switch this reverse sweep into sag
    # parametrization, which then ended at c = -0.046, a wrong-sign load
    (MaterialParams(gamma1=0.2, gamma2=0.01), 10.0, 8, 1.0, 0.1),
    # sag steps stalled near f = 0.1933 on this curve, which has no fold;
    # the arclength corrector reaches c_end at f ~ 0.25637
    (LIQ, 10.0, 8, 0.1, 3.0),
])
def test_sweep_in_load_steps_ends_at_c_end(mat, d, m, c_start, c_end):
    ctx = SolveContext(mat, LoadParams(c_start, d), BasisSpec("polynomial", m),
                       auto_rule("polynomial"))
    points = continue_in_load(ctx, c_start, c_end, StepPolicy(initial=0.05))
    assert points[-1].c_value == c_end


@pytest.mark.parametrize("d, m, c_start, c_end, step", [
    # with the former load/sag mode switch the hard m = 10 start put this
    # sweep in sag steps at once; its first sag step took the sign of the
    # sag, raised c, and the sweep "succeeded" with 34 points ending at
    # c = 46.3, f = 8.13.  The first arclength step is along c, toward c_end.
    (1.0, 10, 2.5, 0.2, 0.05),
    # the last sag step used to carry this sweep past c_end to c = 3.74; a
    # point corrected past c_end is now a failed step
    (0.0, 4, 0.1, 2.67, 0.1),
])
def test_sweep_in_sag_steps_ends_at_c_end(d, m, c_start, c_end, step):
    ctx = SolveContext(GAS, LoadParams(c_start, d), BasisSpec("polynomial", m),
                       auto_rule("polynomial"))
    points = continue_in_load(ctx, c_start, c_end, StepPolicy(initial=step))
    assert points[-1].c_value == c_end
    sags = np.array([pt.sag for pt in points])
    assert np.all(np.diff(sags) * (c_end - c_start) > 0.0)


def test_sweep_from_zero_load_is_odd_in_the_load():
    # every first corrector used to start from the flat state, whose
    # tangent is singular, and the sweep stalled at c = 0.0, f = 0.0
    up, down = (continue_in_load(gas_context(6, c=0.0), 0.0, c_end)
                for c_end in (0.5, -0.5))
    assert up[-1].c_value == 0.5 and down[-1].c_value == -0.5
    assert up[-1].sag == pytest.approx(0.3709397478679253, abs=1e-12)
    assert len(up) == len(down)
    for a, b in zip(up, down):
        assert abs(a.c_value + b.c_value) <= 1e-12 and abs(a.sag + b.sag) <= 1e-12
    assert np.all(np.diff([pt.sag for pt in up]) > 0.0)


def test_failed_landing_is_a_failed_step():
    # a sag-step sweep once returned the point past c_end = 0.2, at
    # c = -0.167, as its end when the landing from it failed.  A landing
    # that fails now halves the step, and no point past c_end is kept.
    ctx = SolveContext(MaterialParams(gamma1=0.1, gamma2=0.01), LoadParams(2.5, 10.0),
                       BasisSpec("polynomial", 10), auto_rule("polynomial"))
    points = continue_in_load(ctx, 2.5, 0.2)
    assert len(points) == 12
    assert points[-1].c_value == 0.2
    assert points[-1].sag == pytest.approx(0.0201, abs=1e-4)
    assert min(pt.c_value for pt in points) == 0.2


@pytest.fixture
def newton_reports(monkeypatch):
    reports = []
    inner = solver.newton_solve

    def recorded(x0, ctx, border=None, corrector=False, *, evaluator=None):
        state, report = inner(x0, ctx, border, corrector, evaluator=evaluator)
        reports.append((corrector, border, ctx.load.c, report))
        return state, report

    monkeypatch.setattr(solver, "newton_solve", recorded)
    return reports


def test_a_sweep_makes_its_evaluators_once(monkeypatch):
    # the m = 1 start and the first point make one each, and every
    # arclength corrector and landing runs on one of two kept for the sweep;
    # each corrector on an evaluator of its own gives the same bits
    made = _counter(monkeypatch, solver, "Evaluator")
    points = continue_in_load(gas_context(6, c=0.1), 0.1, 3.0)
    assert len(made) <= 4 < len(points)
    inner = solver.newton_solve
    monkeypatch.setattr(solver, "newton_solve",
                        lambda *args, evaluator=None, **kwargs: inner(*args, **kwargs))
    fresh = continue_in_load(gas_context(6, c=0.1), 0.1, 3.0)
    assert len(made) > len(fresh)
    assert [(pt.c_value, pt.sag, pt.x.tobytes()) for pt in points] == [
        (pt.c_value, pt.sag, pt.x.tobytes()) for pt in fresh]


def test_a_mooney_rivlin_solve_evaluates_no_energy_derivatives(monkeypatch):
    # gamma2 = gamma3 = 0 makes W linear in I1, so the tension pass takes
    # W1 = 1 and forms no W11; a gas material evaluates both every iterate
    derivs = _counter(monkeypatch, material, "energy_derivs")
    per_pass = []
    inner = assembly.tension_values

    def counted(*args):
        before = len(derivs)
        out = inner(*args)
        per_pass.append(len(derivs) - before)
        return out

    monkeypatch.setattr(assembly, "tension_values", counted)
    assert solve_membrane(LIQ, LoadParams(0.5, 10.0), "adaptive", 6)[1].converged
    liquid = per_pass[:]
    per_pass.clear()
    assert solve_membrane(GAS, LoadParams(1.7), "polynomial", 6)[1].converged
    assert liquid and set(liquid) == {0}
    assert per_pass and set(per_pass) == {1}


def test_a_gas_sweep_forms_no_hydrostatic_load(monkeypatch):
    # at d = 0 the load Q = c - 0*z is c, so no iterate forms z or Q; a
    # steep sweep at d = 10 forms Q once per iterate, with its shape and U
    loads = _counter(monkeypatch, assembly, "hydro_load")
    values = _counter(monkeypatch, assembly, "tension_values")
    continue_in_load(gas_context(6, c=0.1), 0.1, 1.9)
    assert values and not loads
    values.clear()
    ctx = SolveContext(LIQ, LoadParams(0.1, 10.0), BasisSpec("adaptive", 6, (17.1,)),
                       auto_rule("adaptive", 17.1))
    continue_in_load(ctx, 0.1, 2.0)
    assert len(loads) == len(values) > 0


def test_an_evaluator_of_another_solve_is_refused(gas_m6):
    state, _ = gas_m6
    ctx = gas_context(6)
    border = (1.0, 0.0, ctx.sag(state.x))
    others = [assembly.Evaluator(ctx.tables, ctx.mat, ctx.load.d),
              assembly.Evaluator(gas_context(5).tables, ctx.mat, 0.0, border),
              assembly.Evaluator(ctx.tables, LIQ, ctx.load.d, border),
              assembly.Evaluator(ctx.tables, ctx.mat, 1.0, border),
              # tables of the same size on another rule
              assembly.Evaluator(BasisTables.build(ctx.spec, gauss_rule(48)),
                                 ctx.mat, ctx.load.d, border)]
    for ev in others:
        with pytest.raises(ValueError, match="evaluator"):
            newton_solve(state.x, ctx, border, evaluator=ev)
    with pytest.raises(ValueError, match="evaluator"):
        newton_solve(state.x, ctx, evaluator=others[-1])


def test_a_searched_solve_runs_its_search_on_one_evaluator(monkeypatch):
    # every inner solve of the p search, warm or cold, runs on the one
    # evaluator the search makes; the m = 1 starts and the polynomial
    # predictor run on evaluators of their own
    made = []
    inner = assembly.Evaluator.__init__

    def counted(self, tables, *args, **kwargs):
        made.append((self, tables))
        inner(self, tables, *args, **kwargs)

    monkeypatch.setattr(assembly.Evaluator, "__init__", counted)
    used = []
    solve = solver.newton_solve

    def recorded(x0, ctx, border=None, corrector=False, *, evaluator=None):
        out = solve(x0, ctx, border, corrector, evaluator=evaluator)
        used.append((ctx.spec, evaluator))
        return out

    monkeypatch.setattr(solver, "newton_solve", recorded)
    _, report = solve_membrane(LIQ, LoadParams(0.5, 10.0), "adaptive", 6)
    assert report.converged
    searched = [ev for ev, tables in made
                if tables.u.shape[0] == 6 and tables.profile is not None]
    assert len(searched) == 1
    inner_solves = [ev for spec, ev in used
                    if spec.family == "adaptive" and spec.m == 6]
    assert len(inner_solves) >= 10 and set(inner_solves) == {searched[0]}


def test_the_search_reads_the_bits_of_p_gradient_and_functional_value(monkeypatch):
    # at every p whose inner solve converges, the search's psi and E, read
    # from its evaluator at the converged iterate, are the one-shot
    # functions' at that state, to the last bit
    solves = []
    solve = solver.newton_solve

    def recorded(x0, ctx, *args, **kwargs):
        state, rep = solve(x0, ctx, *args, **kwargs)
        solves.append((ctx, state))
        return state, rep

    monkeypatch.setattr(solver, "newton_solve", recorded)
    read = []
    for name in ("p_gradient", "functional_value"):
        method = getattr(assembly.Evaluator, name)

        def reading(self, method=method, name=name):
            out = method(self)
            read.append((name, np.asarray(out).tobytes(), *solves[-1]))
            return out

        monkeypatch.setattr(assembly.Evaluator, name, reading)
    _, report = solve_membrane(LIQ, LoadParams(0.5, 10.0), "adaptive", 6)
    assert report.converged
    assert sum(name == "p_gradient" for name, *_ in read) >= 5
    monkeypatch.undo()
    for name, got, ctx, state in read:
        want = getattr(assembly, name)(state, LIQ, ctx.rule)
        assert got == np.asarray(want).tobytes()


def test_correctors_stop_at_their_iteration_budget(newton_reports):
    # failed load steps near the folds used to run the whole budget; an
    # arclength corrector, and the landing on c_end, go on only while each
    # iteration at least halves the residual.  Every corrector runs
    # newton_solve: the arclength ones bordered, the landing at c_end not
    continue_in_load(gas_context(6, c=0.1), 0.1, 3.0)
    steps = [report for corrector, _, _, report in newton_reports if corrector]
    borders = [(border is None, c == 3.0)
               for corrector, border, c, _ in newton_reports if corrector]
    assert all(unbordered == landing for unbordered, landing in borders)
    assert (False, False) in borders and (True, True) in borders
    assert max(report.iterations for report in steps) <= solver.CORRECTOR_ITERS
    for report in steps:
        hist = report.residual_history
        assert all(hist[i] <= solver.CONTRACTION * hist[i - 1]
                   for i in range(1, len(hist) - 1))
    assert any(report.message == "residual not halving"
               and report.iterations < solver.CORRECTOR_ITERS for report in steps)


def test_gas_d1_m8_sweep_passes_both_folds():
    # a bordered sag-step corrector on the load-step budget failed this
    # sweep with "sag continuation stalled near f = 1.711"; the arclength
    # corrector passes on that budget
    ctx = SolveContext(GAS, LoadParams(0.1, 1.0), BasisSpec("polynomial", 8),
                       auto_rule("polynomial"))
    assert fold_count(continue_in_load(ctx, 0.1, 3.0)) == 2


def test_slow_load_step_does_not_jump_the_fold_pair():
    # a load step from c = 2.525 to 2.775 once converged after 20 iterations
    # on the upper branch, past the folds at c ~ 2.55-2.58: 18 points and no
    # fold.  The sag is not monotone: past the second fold the curve turns
    # in f at f ~ 1.733 and 1.663.
    ctx = SolveContext(GAS, LoadParams(0.1, 1.0), BasisSpec("polynomial", 4),
                       auto_rule("polynomial"))
    points = continue_in_load(ctx, 0.1, 3.0, StepPolicy(initial=0.05))
    assert fold_count(points) == 2
    assert points[-1].c_value >= 3.0
    assert points[-1].stability_hint == 1
    # the traced curve crosses c = 3.0 only there
    assert points[-1].sag == pytest.approx(1.80865286593, abs=1e-9)


def test_first_step_below_the_resolution_of_c_is_min_step():
    # 0.1 + 1e-300 == 0.1, so a load-step secant predictor once divided by
    # zero; the first step is clamped to MIN_STEP
    points = continue_in_load(gas_context(6, c=0.1), 0.1, 1.0,
                              StepPolicy(initial=1e-300))
    assert points[1].c_value - 0.1 == pytest.approx(solver.MIN_STEP, rel=1e-6)
    assert np.all(np.diff([pt.sag for pt in points]) > 0.0)
    assert points[-1].c_value == 1.0


@pytest.mark.parametrize("c_end, step, sag", [
    (2.5973, 0.02, 1.66208177331),
    (2.7, 0.02, 1.68358598531),
    (2.8, 0.02, 1.72168352437),
    (3.0, 0.02, 1.80865286593),
    (3.0, 0.1, 1.80865286593),
])
def test_sweep_past_a_turn_in_f_ends_on_the_traced_curve(c_end, step, sag):
    # gas d = 1, m = 4 turns in f at f ~ 1.733 (c ~ 2.551) and f ~ 1.663
    # (c ~ 2.62), just past its second fold; a sag step cannot pass such a
    # turn, so these sweeps stalled there or ended on roots off the curve.
    # The traced curve crosses each c_end once, at `sag`.
    ctx = SolveContext(GAS, LoadParams(0.1, 1.0), BasisSpec("polynomial", 4),
                       auto_rule("polynomial"))
    points = continue_in_load(ctx, 0.1, c_end, StepPolicy(initial=step))
    assert points[-1].c_value == c_end
    assert points[-1].sag == pytest.approx(sag, abs=1e-9)


@pytest.mark.parametrize("c_end, sag", [
    (1.80, 0.9700425234527277),
    (1.81, 1.0000340809281816),
    (1.815, 1.0223547132216837),
    (1.818, 1.0437107820548153),
    (1.819, 1.056168874025136),
])
def test_sweep_ending_below_the_first_fold_stays_on_the_lower_branch(c_end, sag):
    # switching to sag steps on the load step that lands on c_end returned
    # that point twice (c_end = 1.80) or ran through both folds to f ~ 3.55
    points = continue_in_load(gas_context(6, c=0.1), 0.1, c_end)
    assert points[-1].c_value == c_end
    assert points[-1].sag == pytest.approx(sag, abs=1e-9)
    assert 0.97 <= points[-1].sag == max(pt.sag for pt in points) <= 1.06
    assert all((a.c_value, a.sag) != (b.c_value, b.sag)
               for a, b in zip(points, points[1:]))


def test_sweep_stops_at_the_first_point_past_max_sag():
    # the sag cap was once tested only after sag steps, and this sweep ran
    # 259 load steps on to c = 60, f = 9.82
    points = continue_in_load(gas_context(10, c=0.1), 0.1, 60.0)
    assert all(abs(pt.sag) <= solver.MAX_SAG for pt in points[:-1])
    assert points[-1].sag == pytest.approx(8.0095, abs=1e-3)
    assert points[-1].c_value == pytest.approx(29.74, abs=0.01)


def test_sweep_lands_on_c_end_from_its_last_arclength_point():
    # a load step that stopped just short of c_end once left a sliver,
    # 2.9975 then 3.0; the step whose prediction passes c_end lands there
    points = continue_in_load(gas_context(6, c=0.1), 0.1, 3.0)
    assert points[-1].c_value == 3.0
    assert points[-2].c_value == pytest.approx(2.784, abs=1e-3)


def _sweep_end(d, m, c_start, c_end, step):
    # the last point of a gas sweep that meets the path contract, or None
    # if the sweep fails
    ctx = SolveContext(GAS, LoadParams(c_start, d), BasisSpec("polynomial", m),
                       auto_rule("polynomial"))
    try:
        points = continue_in_load(ctx, c_start, c_end, StepPolicy(initial=step))
    except SolveFailure:
        return None
    assert all(np.isfinite(pt.x).all() and np.isfinite([pt.c_value, pt.sag]).all()
               for pt in points)
    assert all(pt.sag * pt.c_value > 0.0 for pt in points)
    assert all((a.c_value, a.sag) != (b.c_value, b.sag)
               for a, b in zip(points, points[1:]))
    assert points[-1].c_value == c_end or abs(points[-1].sag) > solver.MAX_SAG
    return points[-1]


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(d=st.sampled_from([0.0, 1.0]), m=st.integers(2, 10),
       steps=st.tuples(st.floats(0.02, 0.2), st.floats(0.02, 0.2)),
       ends=st.tuples(st.just(0.1), st.floats(0.5, 3.0))
       | st.tuples(st.just(2.5), st.floats(0.2, 2.0)))
# these two sweeps once ended at f = 2.110 and 1.809, and with sag steps
# kept to the end at 1.809 and 2.446; the curve crosses c = 3.0 only at 1.809
@example(d=1.0, m=4, steps=(0.02, 0.05), ends=(0.1, 3.0))
def test_continuation_ends_where_the_curve_meets_c_end_whatever_the_step(
        d, m, steps, ends):
    # Each sweep fails or returns a finite path that keeps the sign of the
    # load and ends at c_end or past MAX_SAG.  Two sweeps that both reach
    # c_end, from different initial steps, end at the same point: a sweep
    # that jumps to another root lands off the curve, and where it does
    # depends on its steps.  Gas starts at 2.5 fail without the weight term
    # d; with it they sweep down.
    last = [_sweep_end(d, m, *ends, step) for step in steps]
    if all(pt is not None and pt.c_value == ends[1] for pt in last):
        assert last[0].sag == pytest.approx(last[1].sag, abs=1e-6)


@pytest.mark.parametrize("initial", [0.0, -0.05, float("nan"), float("inf")])
def test_step_policy_rejects_non_positive_or_non_finite_steps(initial):
    with pytest.raises(ValueError, match="initial step"):
        StepPolicy(initial=initial)


def test_searched_solve_reports_the_newton_solve_of_its_state(liquid_m6):
    # the report is the one of the inner solve that produced the state, not
    # of a re-solve from it
    _, report = liquid_m6
    assert report.iterations == len(report.residual_history) - 1 == 3
    assert report.residual_history[-1] <= solver.NEWTON_TOL


def test_start_failure_is_stated_not_ramped():
    # a load ramp once rescued this start and "converged" to a defect of 5e21;
    # the failure names the load, the m = 1 Newton's stop and its residual
    with pytest.raises(SolveFailure, match=r"^could not start from the small-system "
                       r"guess \(c = 30: max_iter exceeded, "
                       r"last residual 5\.59e-09\)$"):
        solve_membrane(GAS, LoadParams(30.0, 10.0), "polynomial", 6)


@pytest.mark.parametrize("mat, load, family, p, probe", [
    (GAS, LoadParams(1.7), "polynomial", None, 0.2),
    (LIQ, LoadParams(0.5, 10.0), "adaptive", (17.1,), 0.9),
    (LIQ, LoadParams(0.5, 10.0), "adaptive", None, 0.9),
    (GAS, LoadParams(0.0), "polynomial", None, 0.3),
    (GAS, LoadParams(2.1), "polynomial", None, None),
    (GAS, LoadParams(30.0, 10.0), "polynomial", None, None),
], ids=["gas", "liquid-fixed-p", "liquid-searched-p", "zero-load",
        "fails-stepping-m", "start-fails"])
def test_ladder_rungs_equal_solve_membrane(mat, load, family, p, probe):
    # the shared m = 1 start is the one each size would solve for itself,
    # so every rung is that size's solve_membrane bit for bit, a stated
    # failure included
    sizes = range(1, 7)
    rungs = solve_ladder(mat, load, family, sizes, p=p, probe=probe)
    assert len(rungs) == len(sizes)
    for m, rung in zip(sizes, rungs):
        try:
            want_state, want = solve_membrane(mat, load, family, m, p=p, probe=probe)
        except SolveFailure as exc:
            assert isinstance(rung, SolveFailure)
            assert str(rung) == str(exc)
            continue
        state, report = rung
        assert np.array_equal(state.x, want_state.x)
        assert (state.spec, state.load) == (want_state.spec, want_state.load)
        assert report == want


def test_negative_radius_state_is_a_solve_failure():
    # Newton meets the tolerance on the m = 1 system at c = 60 at a state
    # whose radius r = s lambda2 turns negative (its delta_max is 2.5e7);
    # that iterate is not converged, so the m = 1 start fails and says why
    ctx = SolveContext.create(GAS, LoadParams(60.0), "polynomial", 1)
    _, report = newton_solve(np.array([0.5 / ctx.tables.u0[0], 0.0]), ctx)
    assert not report.converged
    assert report.residual_history[-1] <= solver.NEWTON_TOL
    assert report.message.startswith("lambda2 = r/s down to -0.48")
    with pytest.raises(SolveFailure, match=r"lambda2 = r/s down to -0\.48"):
        solve_membrane(GAS, LoadParams(60.0), "polynomial", 1)
    rung = solve_ladder(GAS, LoadParams(60.0), "polynomial", [1])[0]
    assert isinstance(rung, SolveFailure) and "lambda2" in str(rung)


def test_p_is_read_once_as_a_number_or_a_sequence():
    # a bare p used to raise TypeError, "17" solved at p = (1, 7), and NaN
    # and inf failed with a start or quadrature message
    load = LoadParams(0.5, 10.0)
    state, _ = solve_membrane(LIQ, load, "adaptive", 6, p=17.1)
    want, _ = solve_membrane(LIQ, load, "adaptive", 6, p=(17.1,))
    assert state.x.tobytes() == want.x.tobytes() and state.spec == want.spec
    for bad in ("17", (math.nan,), (math.inf,), True):
        with pytest.raises(ValueError, match="^p must be"):
            solve_membrane(LIQ, load, "adaptive", 6, p=bad)
        with pytest.raises(ValueError, match="^p must be"):
            SolveContext.create(LIQ, load, "adaptive", 6, bad)


def test_gas_error_against_the_strong_form_reference_falls_to_its_floor():
    # the error itself, not the defect: max |z - z_ref| on the reference
    # mesh, against a boundary value solve of the strong form
    load = LoadParams(1.7)
    rungs = solve_ladder(GAS, load, "polynomial", range(2, 13, 2))
    s, ref = bvp_state(GAS, load, rungs[-1][0])
    errors = [float(np.max(np.abs(eval_shape(state, s).z - ref[0])))
              for state, _ in rungs]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-10, errors


def test_upper_branch_error_against_the_strong_form_reference_falls():
    # past both folds: the last state of a gas sweep to c = 2.45, relative
    # max |z - z_ref| on the reference mesh
    load = LoadParams(2.45)
    states = []
    for m in (4, 6, 8, 10):
        points = continue_in_load(gas_context(m, c=0.1), 0.1, load.c,
                                  StepPolicy(initial=0.1))
        assert points[-1].c_value == load.c
        states.append(SolutionState(points[-1].x, BasisSpec("polynomial", m), load))
    s, ref = bvp_state(GAS, load, states[-1])
    scale = float(np.max(np.abs(ref[0])))
    errors = [float(np.max(np.abs(eval_shape(state, s).z - ref[0]))) / scale
              for state in states]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-5, errors


def test_liquid_error_against_the_strong_form_reference_falls():
    # the steep family with p searched, gamma1 = 0.1, c = 0.5, d = 10
    load = LoadParams(0.5, 10.0)
    states = [solve_membrane(LIQ, load, "adaptive", m)[0] for m in (4, 6, 8, 10)]
    s, ref = bvp_state(LIQ, load, states[-1])
    errors = [float(np.max(np.abs(eval_shape(state, s).z - ref[0]))) for state in states]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 2e-7, errors


def _fold_load(sags, loads) -> float:
    """The extreme load of the parabola through three points of c(f)."""
    a, b, c = np.polyfit(sags, loads, 2)
    return float(c - b * b / (4.0 * a))


def test_fold_loads_against_the_strong_form_reference():
    # fixed-sag bordered solves (the row e.x = f) at m = 10 trace c(f) near
    # both folds of the gas d = 0 curve, stepping the sag up from the
    # c = 1.7 state; at each sag the reference curve gives the same load,
    # the middle sag of each triple is beyond the other two in c, and the
    # parabola through the three gives the fold load
    ctx = gas_context(10)
    state, report = newton_solve(initial_guess(ctx), ctx)
    assert report.converged
    x, c, f0 = state.x, ctx.load.c, ctx.sag(state.x)
    for sags, c_fold, sign in (((1.04, 1.075, 1.11), 1.81954, 1.0),
                               ((2.475, 2.51, 2.545), 1.48098, -1.0)):
        states = []
        for f in [*np.linspace(f0, sags[0], 8)[1:], *sags[1:]]:
            state, report = newton_solve(x, ctx.with_load(c), (1.0, 0.0, f))
            assert report.converged, (f, report.message)
            x, c = state.x, state.load.c
            states.append(state)
        f0 = sags[-1]
        ritz = [st.load.c for st in states[-3:]]
        ref = bvp_curve(GAS, 0.0, sags, states[-3])
        assert np.max(np.abs(np.array(ritz) - ref)) < 1e-4, (ritz, ref)
        assert sign * ritz[1] > max(sign * ritz[0], sign * ritz[2])
        for loads in (ritz, ref):
            assert abs(_fold_load(sags, loads) - c_fold) < 1e-4, (loads, c_fold)


def test_a_failed_solve_leaves_no_reference_cycle():
    # a failure kept as a value carries no traceback, whose frames would
    # hold it, and the ladder's tables, until the next collection
    load = LoadParams(30.0, 10.0)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(SolveFailure):
            solve_membrane(LIQ, load, "adaptive", 6, p=(17.1,))
        for p in [(17.1,), None]:
            rungs = solve_ladder(LIQ, load, "adaptive", [2, 6], p=p)
            assert all(isinstance(rung, SolveFailure) for rung in rungs)
        del rungs
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_failed_cold_start_is_a_failed_inner_solve(monkeypatch):
    # after a failed warm solve the p search retries from `initial_guess`;
    # a start that fails there fails that inner solve, as a non-converged
    # one does: a bad secant step, not the end of the search, and after the
    # golden scan a failure that names p1 and the start's reason
    real, first = solver.initial_guess, []

    def refused_off_the_first_p(ctx, **kw):
        if ctx.spec.family == "adaptive":
            first.append(ctx.spec.p[0])
            if ctx.spec.p[0] != first[0]:
                raise SolveFailure("start refused")
        return real(ctx, **kw)

    recovers, fails = LoadParams(0.9, 110.0), LoadParams(0.87, 112.0)
    want, _ = solve_membrane(MaterialParams(gamma1=0.09), recovers, "adaptive", 6)
    with pytest.raises(SolveFailure, match=r"^p search could not recover$"):
        solve_membrane(MaterialParams(gamma1=0.085), fails, "adaptive", 6)
    monkeypatch.setattr(solver, "initial_guess", refused_off_the_first_p)
    got, _ = solve_membrane(MaterialParams(gamma1=0.09), recovers, "adaptive", 6)
    assert len(set(first)) > 1  # starts were refused
    assert got.spec.p == want.spec.p and got.x.tobytes() == want.x.tobytes()
    first.clear()
    with pytest.raises(SolveFailure, match=r"^p search could not recover at "
                       r"p1 = 109\.029: start refused$"):
        solve_membrane(MaterialParams(gamma1=0.085), fails, "adaptive", 6)


def test_ladder_start_failure_is_every_rungs_failure():
    rungs = solve_ladder(GAS, LoadParams(30.0, 10.0), "polynomial", range(1, 7))
    assert all(isinstance(r, SolveFailure) and "small-system guess" in str(r)
               for r in rungs)


def test_ladder_solves_its_m1_start_once(monkeypatch):
    # one at a time, each size solves the m = 1 start before its own
    # Newton; the ladder solves it once (rung 1 then solves m = 1 again,
    # from the converged start)
    newton_calls = _counter(monkeypatch, solver, "newton_solve")
    sizes = range(1, 7)
    for m in sizes:
        solve_membrane(GAS, LoadParams(1.7), "polynomial", m)
    alone = [args for args in newton_calls if args[1].spec.m == 1]
    newton_calls.clear()
    solve_ladder(GAS, LoadParams(1.7), "polynomial", sizes)
    shared = [args for args in newton_calls if args[1].spec.m == 1]
    assert (len(alone), len(shared)) == (len(sizes) + 1, 2)
    assert len(newton_calls) == len(sizes) + 1


@pytest.fixture
def build_calls(monkeypatch):
    # count from an empty polynomial table cache, whatever ran before
    basis._poly_tables.cache_clear()
    calls = []
    inner = BasisTables.__dict__["build"].__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(BasisTables, "build", classmethod(counted))
    return calls


def test_steep_fixed_p_ladder_builds_its_tables_once(build_calls, monkeypatch):
    # every size and the m = 1 start run on views of the one m = 6 build,
    # and every size's defect and probe shape on rows of one defect table
    rules = _counter(monkeypatch, solver, "auto_rule")
    passes = _counter(monkeypatch, basis, "eval_generators")
    rungs = solve_ladder(LIQ, LoadParams(0.5, 10.0), "adaptive", range(1, 7),
                         p=(17.1,), probe=0.9)
    assert all(not isinstance(rung, SolveFailure) for rung in rungs)
    assert (len(build_calls), len(rules), len(passes)) == (1, 1, 1)


def test_polynomial_ladder_takes_one_table_from_the_cache(monkeypatch,
                                                          fresh_generator_tables):
    basis._poly_tables.cache_clear()
    passes = _counter(monkeypatch, basis, "eval_generators")
    rungs = solve_ladder(GAS, LoadParams(1.7), "polynomial", range(1, 7),
                         probe=0.2)
    assert all(not isinstance(rung, SolveFailure) for rung in rungs)
    assert basis._poly_tables.cache_info().misses == 1
    assert len(passes) == 1


def test_cli_converge_evaluates_no_shape(monkeypatch, fresh_generator_tables,
                                         tmp_path):
    # the probe cells come from the ladder's one defect pass
    shapes = _counter(monkeypatch, basis, "eval_shape")
    passes = _counter(monkeypatch, basis, "eval_generators")
    path = tmp_path / "ladder.cfg"
    path.write_text("gamma1 = 0.02\ngamma2 = -0.015\ngamma3 = 0.00025\n"
                    "c = 1.7\nm_min = 1\nm_max = 6\n")
    assert cli.main(["converge", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--probe", "0.2"]) == 0
    assert (len(shapes), len(passes)) == (0, 1)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(m=st.integers(1, 12),
       probes=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0]),
                       max_size=4))
@example(m=3, probes=[0.0, 1.0])
@example(m=3, probes=[-0.0, 1.0])
def test_kept_polynomial_tables_equal_a_fresh_pass(m, probes):
    # a kept table has the bits of the pass it replaces, the defect grid's
    # with its probes and the profile's at exactly its points; -0.0 and 0.0
    # are kept apart, since the sign of a zero derivative can reach the output
    spec = BasisSpec("polynomial", m)
    grid = np.linspace(0.0, 1.0, solver.DELTA_GRID + 2)[1:-1]
    fresh = basis.eval_generators(spec, np.concatenate([grid, probes]))
    for _ in range(2):  # a build, then a lookup
        table = basis._generator_blocks(spec, (solver._GRID, probes))
        for block, cols in zip(table, (slice(None, grid.size), slice(grid.size, None))):
            assert [g.tobytes() for g in block] == [
                np.ascontiguousarray(g[:, cols]).tobytes() for g in fresh]
            assert all(g.flags.c_contiguous for g in block)
    s = np.linspace(0.0, 1.0, cli.PROFILE_POINTS)
    for _ in range(2):
        (block,) = basis._generator_blocks(spec, [s])
        assert [g.tobytes() for g in block] == [
            g.tobytes() for g in basis.eval_generators(spec, s)]
    for g in (*table[0], *table[1], *block):
        with pytest.raises(ValueError, match="read-only"):
            g[0, :1] = 1.0


def test_kept_tables_stay_within_their_bound():
    bound = basis._poly_blocks.cache_info().maxsize
    spec = BasisSpec("polynomial", 2)
    for sp in np.linspace(0.0, 1.0, 2 * bound):
        basis._generator_blocks(spec, (solver._GRID, [sp]))
        assert basis._poly_blocks.cache_info().currsize <= bound
    assert basis._poly_blocks.cache_info().currsize == bound


def test_a_repeated_polynomial_solve_evaluates_no_generator(monkeypatch):
    # the rule, the basis tables and the defect table are all kept
    first = solve_membrane(GAS, LoadParams(1.7), "polynomial", 5, probe=0.3)
    passes = _counter(monkeypatch, basis, "_generators")
    again = solve_membrane(GAS, LoadParams(1.7), "polynomial", 5, probe=0.3)
    assert passes == []
    assert first[0].x.tobytes() == again[0].x.tobytes()
    assert (first[1].delta_at, first[1].delta_max, first[1].shape_at) == (
        again[1].delta_at, again[1].delta_max, again[1].shape_at)


@pytest.mark.parametrize("probe", [-0.1, 1.5, np.nan, np.inf, [0.2, -np.inf]])
@pytest.mark.parametrize("driver", [solve_membrane, solve_ladder])
def test_solves_reject_a_probe_outside_the_membrane(monkeypatch, driver, probe):
    # a point off [0, 1] is not on the membrane, so it has no defect
    newton_calls = _counter(monkeypatch, solver, "newton_solve")
    bad = np.ravel(probe)[-1]
    size = 6 if driver is solve_membrane else [6]
    with pytest.raises(ValueError, match=f"probe {bad} outside"):
        driver(GAS, LoadParams(1.7), "polynomial", size, probe=probe)
    assert newton_calls == []


@pytest.mark.parametrize("probe", [-0.1, 1.5, np.nan, np.inf])
def test_defect_reads_reject_a_probe_outside_the_membrane(gas_m6, probe):
    # the one check in front of every defect read; no table is kept for it
    state, _ = gas_m6
    kept = basis._poly_blocks.cache_info().currsize
    with pytest.raises(ValueError, match=f"probe {probe} outside"):
        delta_diagnostic(state, GAS, [0.2, probe])
    assert basis._poly_blocks.cache_info().currsize == kept


def test_a_table_over_many_points_is_not_kept(gas_m6):
    # dense probes get the bits of the same one pass, built per call
    state, _ = gas_m6
    probes = np.linspace(0.0, 1.0, basis._KEPT_POINTS - solver.DELTA_GRID + 1)
    kept = basis._poly_blocks.cache_info().currsize
    table = basis._generator_blocks(state.spec, (solver._GRID, probes))
    assert basis._poly_blocks.cache_info().currsize == kept
    fresh = basis.eval_generators(state.spec, np.concatenate([solver._GRID, probes]))
    assert [g.tobytes() for g in table[1]] == [
        np.ascontiguousarray(g[:, solver.DELTA_GRID:]).tobytes() for g in fresh]
    again = basis._generator_blocks(state.spec, (solver._GRID, probes))
    assert again[1][0] is not table[1][0]


@pytest.mark.parametrize("probe", [0, 1, 0.0, 1.0, [0.0, 1.0]])
def test_solves_accept_the_ends_as_probes(probe):
    _, report = solve_membrane(GAS, LoadParams(1.7), "polynomial", 6, probe=probe)
    assert report.converged
    assert np.all(np.isfinite(report.delta_at))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(family=st.sampled_from(["polynomial", "adaptive"]),
       m=st.integers(1, 12),
       extra=st.integers(0, 11),
       p1=st.floats(0.5, 120.0),
       c=st.floats(0.01, 3.0) | st.floats(-3.0, -0.01) | st.just(0.0),
       seed=st.integers(0, 2 ** 32 - 1),
       probes=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
                       max_size=4))
@example(family="polynomial", m=1, extra=11, p1=1.0, c=1.7, seed=0,
         probes=[0.0, 0.2, 1.0])
def test_defect_table_of_a_larger_size_gives_the_same_bits(family, m, extra,
                                                           p1, c, seed, probes):
    # the first m rows of a table built at m + extra are a table built at m:
    # a ladder reads every size's defect and probe shape from one table
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-1.0, 1.0, m), rng.uniform(-0.05, 0.05, m)])
    p = (p1,) if family == "adaptive" else ()
    state = SolutionState(x, BasisSpec(family, m, p), LoadParams(c, 10.0))
    sets = (solver._GRID, np.asarray(probes, dtype=float))
    table = basis._generator_blocks(BasisSpec(family, min(m + extra, MAX_M), p), sets)
    terms = solver._defect_terms(state, LIQ, sets, table)
    delta = terms[-1]
    at, dmax = delta[solver.DELTA_GRID:], float(np.max(delta[:solver.DELTA_GRID]))
    want_at, want_max = delta_diagnostic(state, LIQ, probes)
    assert at.tobytes() == want_at.tobytes()
    assert dmax == want_max or (np.isnan(dmax) and np.isnan(want_max))
    want_shape = solver._defect_terms(state, LIQ, sets)[0]
    assert [v.tobytes() for v in vars(terms[0]).values()] == [
        v.tobytes() for v in vars(want_shape).values()]


@pytest.mark.parametrize("driver", [
    lambda: solve_ladder(GAS, LoadParams(1.7), "polynomial", range(1, 7)),
    lambda: continue_in_load(gas_context(6, c=0.1), 0.1, 0.6),
    lambda: solve_membrane(GAS, LoadParams(1.7), "polynomial", 6),
], ids=["solve_ladder", "continue_in_load", "solve_membrane"])
def test_every_driver_starts_through_one_initial_guess(monkeypatch, driver):
    starts = _counter(monkeypatch, solver, "initial_guess")
    driver()
    assert len(starts) == 1


def test_empty_ladder_solves_nothing(monkeypatch):
    newton_calls = _counter(monkeypatch, solver, "newton_solve")
    assert solve_ladder(GAS, LoadParams(1.7), "polynomial", []) == []
    assert newton_calls == []


@pytest.fixture
def generator_calls(monkeypatch):
    return _counter(monkeypatch, basis, "eval_generators")


def test_liquid_cli_solve_evaluates_the_profile_three_times(monkeypatch, tmp_path):
    # the table build, the solve's one defect pass over the grid and the
    # probes, and the written profile
    gen = _counter(monkeypatch, basis, "eval_generators")
    bessel = _counter(monkeypatch, basis, "_i0e_i1e")
    path = tmp_path / "liquid.json"
    path.write_text('{"gamma1": 0.1, "c": 0.5, "d": 10.0, "family": "adaptive",'
                    ' "m": 6, "p": 17.1}')
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--probe", "0.9"]) == 0
    assert (len(gen), len(bessel)) == (2, 3)


@pytest.fixture
def tension_calls(monkeypatch):
    # tension values, once per evaluated iterate, and tension partials, once
    # per assembled tangent: one list of calls each
    return (_counter(monkeypatch, assembly, "tension_values"),
            _counter(monkeypatch, assembly, "tension_partials"))


@pytest.mark.parametrize("mat, load, family, builds, tensions", [
    (GAS, LoadParams(1.7), "polynomial", 1, 11),
    (LIQ, LoadParams(0.5, 10.0), "adaptive", 11, 67),
])
def test_solves_build_tables_once_per_basis(build_calls, tension_calls,
                                            newton_reports, mat, load, family,
                                            builds, tensions):
    # the small-system guess and the basis-size ladder slice the tables of
    # the context they start from, and the p search starts on the tables of
    # its context; only a new steepness builds new ones.  Every iterate
    # evaluates the tension values, and only one that assembles a tangent,
    # one per Newton step, their partials: not a converged one, nor the p
    # gradient
    _, report = solve_membrane(mat, load, family, 6)
    assert report.converged
    assert len(build_calls) == builds
    values, partials = tension_calls
    assert len(values) == tensions
    assert len(partials) == sum(rep.iterations for *_, rep in newton_reports) < tensions


def test_a_direct_polynomial_context_reads_the_kept_tables(build_calls):
    # a polynomial context holds the tables kept for m and the bits of its
    # rule, whether SolveContext.create made it or a caller did, on any rule
    kept = SolveContext.create(GAS, LoadParams(1.7), "polynomial", 6)
    assert SolveContext.create(GAS, LoadParams(0.2), "polynomial", 6,
                               quad=64).tables is kept.tables
    assert gas_context(6).tables is kept.tables
    assert len(build_calls) == 1
    spec = BasisSpec("polynomial", 6)
    own = SolveContext(GAS, LoadParams(1.7), spec, gauss_rule(48))
    assert len(build_calls) == 2 and own.tables.s.size == 48
    assert SolveContext.create(LIQ, LoadParams(0.5, 1.0), "polynomial", 6,
                               quad=48).tables is own.tables
    copy = QuadratureRule(own.rule.nodes.copy(), own.rule.weights.copy())
    assert SolveContext(GAS, LoadParams(1.7), spec, copy).tables is own.tables
    assert len(build_calls) == 2
    nudged = QuadratureRule(own.rule.nodes, np.nextafter(own.rule.weights, 1.0))
    assert SolveContext(GAS, LoadParams(1.7), spec, nudged).tables is not own.tables
    assert len(build_calls) == 3


def test_polynomial_tables_are_built_once_per_process(build_calls):
    # no load or material changes the polynomial tables, so a second solve
    # at another of each reuses the first one's
    _, report = solve_membrane(GAS, LoadParams(1.7), "polynomial", 6)
    _, again = solve_membrane(LIQ, LoadParams(0.5, 1.0), "polynomial", 6)
    assert report.converged and again.converged
    assert len(build_calls) == 1
    ctx = SolveContext.create(LIQ, LoadParams(0.5), "polynomial", 6)
    for arr in (ctx.tables.u, ctx.tables.left, ctx.tables.u0, ctx.rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_continuation_reuses_the_context_tables(build_calls, generator_calls,
                                                tension_calls, newton_reports):
    # the start guess slices the tables and every sag reads the pole values
    # kept with them, so a sweep on a built context evaluates no generator
    ctx = gas_context(6, c=0.1)
    build_calls.clear()
    generator_calls.clear()
    points = continue_in_load(ctx, 0.1, 3.0)
    assert len(points) > 2
    assert build_calls == []
    assert generator_calls == []
    values, partials = tension_calls
    assert len(values) == 113
    assert len(partials) == sum(rep.iterations for *_, rep in newton_reports) < 113
    for pt in points:
        assert pt.sag == SolutionState(pt.x, ctx.spec, ctx.load).sag()


def test_continuation_evaluates_no_defect(defect_passes):
    points = continue_in_load(gas_context(6, c=0.1), 0.1, 3.0)
    assert len(points) > 2
    assert defect_passes == []


def test_delta_decreases_with_basis_size():
    dmax = []
    for m in range(1, 7):
        ctx = gas_context(m)
        state, report = newton_solve(initial_guess(ctx), ctx)
        assert report.converged
        dmax.append(delta_diagnostic(state, GAS)[1])
    assert all(a > b for a, b in zip(dmax, dmax[1:]))


def test_hopeless_load_raises_with_context():
    # past the upper fold, c1 ~ 1.82, the m = 1 start converges and m = 2
    # does not
    with pytest.raises(SolveFailure, match="while stepping m"):
        solve_membrane(GAS, LoadParams(2.1), "polynomial", 3)


def test_package_exports_its_api_not_its_modules():
    import types

    import ritzmem

    public = {name for name, obj in vars(ritzmem).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert sorted(ritzmem.__all__) == sorted(public)
