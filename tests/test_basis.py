"""Coordinate-function families, scaled Bessel profile, trial-shape evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import i0e, i1e

from ritzmem import solver
from ritzmem.basis import (
    MAX_M,
    P_MIN,
    BasisSpec,
    BasisTables,
    SolutionState,
    _i0e_i1e,
    _Profile,
    _shape_p,
    eval_generators,
    eval_shape,
)
from ritzmem.cli import PROFILE_POINTS
from ritzmem.kinematics import LoadParams
from ritzmem.material import MaterialParams
from ritzmem.quadrature import auto_rule, gauss_rule
from ritzmem.solver import DELTA_GRID

NO_LOAD = LoadParams(0.0)


def _shape_p_derivs(state, s):
    """The partials of the trial shape in p at s, from the profile there."""
    return _shape_p(state, s, _Profile(s, state.spec.p, second=False).p_derivs())


def _i0_series(x, terms=30):
    """Ascending series sum_k (x/2)^(2k) / (k!)^2, independent oracle."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k) / math.factorial(k) ** 2
    return total


def _rho(s, p1):
    """Scaled profile I0(p1 s)/I0(p1) and its two s-derivatives at one s."""
    prof = _Profile(np.array([s]), (p1,), second=True)
    return [float(part[0]) for part in (prof.rho, prof.drho, prof.d2rho)]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_scaled_bessel_equals_cephes_bit_for_bit():
    # the numpy port must reproduce scipy's i0e and i1e exactly, not just
    # closely: steep-search outcomes turn on the last bit
    rng = np.random.default_rng(17)
    mag = np.exp(rng.uniform(-30.0, 12.0, 300_000))
    edges = [0.0, -0.0, 8.0, -8.0, np.nextafter(8.0, 9.0), np.nextafter(8.0, 0.0),
             -np.nextafter(8.0, 9.0), 1e300, -1e300, 1e-300, -1e-300, 5e-324,
             np.inf, -np.inf]
    x = np.concatenate([rng.uniform(-10.0, 10.0, 400_000), mag, -mag,
                        rng.uniform(7.99, 8.01, 20_000), edges])
    for chunk in np.array_split(x, 10):
        got = _i0e_i1e(chunk)
        assert np.array_equal(_bits(got[0]), _bits(i0e(chunk)))
        assert np.array_equal(_bits(got[1]), _bits(i1e(chunk)))
    # a 0-d argument, as the pole sag evaluates it
    for v in (0.0, 3.5, -12.0):
        got = _i0e_i1e(np.array(v))
        assert got.shape == (2,)
        assert np.array_equal(_bits(got), _bits([i0e(v), i1e(v)]))


def test_bessel_at_zero():
    # y = 0 at the pole: I0'(0) = 0 and I0''(0) = 1/2, so rho'(0) = 0 and
    # rho''(0) = p1^2 / (2 I0(p1)) through the small-argument limit of I1/y
    _, drho, d2rho = _rho(0.0, 3.0)
    assert drho == 0.0
    assert d2rho == pytest.approx(4.5 / _i0_series(3.0), rel=1e-14)


def test_bessel_against_series_oracle():
    assert _rho(0.5, 2.0)[0] * _i0_series(2.0) == pytest.approx(
        1.2660658777520084, rel=1e-14)
    for s, p1 in ((0.3, 1.0), (0.5, 5.0), (0.8, 3.0), (0.5, 14.0)):
        want = _i0_series(p1 * s) / _i0_series(p1)
        assert _rho(s, p1)[0] == pytest.approx(want, rel=1e-12)


def test_bessel_derivative_identities():
    # rho' and rho'' against central differences of the scaled profile
    h = 1e-6
    for p1 in (0.5, 5.0, 50.0):
        for s in (0.3, 0.7, 0.95):
            lo, mid, hi = _rho(s - h, p1), _rho(s, p1), _rho(s + h, p1)
            assert (hi[0] - lo[0]) / (2 * h) == pytest.approx(mid[1], rel=1e-8)
            assert (hi[1] - lo[1]) / (2 * h) == pytest.approx(mid[2], rel=1e-8)


def test_bessel_rejects_negative():
    # the profile is only ever built from a validated spec
    with pytest.raises(ValueError):
        BasisSpec("adaptive", 3, (-1.0,))


def test_phi_at_the_pole():
    rho, drho, _ = _rho(0.0, 3.0)
    assert rho == pytest.approx(1.0 / _i0_series(3.0), rel=1e-14)
    assert drho == 0.0


def test_phi_direct_value():
    rho, _, _ = _rho(0.5, 2.0)
    assert rho == pytest.approx(_i0_series(1.0) / _i0_series(2.0), rel=1e-12)
    assert _rho(1.0, 2.0)[0] == 1.0


def test_phi_parameter_derivative_fd():
    h = 1e-6
    s = np.array([0.7])
    drho_dp, ddrho_dp = _Profile(s, (3.0,), second=False).p_derivs()
    up = _Profile(s, (3.0 + h,), second=False)
    dn = _Profile(s, (3.0 - h,), second=False)
    assert drho_dp[0, 0] == pytest.approx((up.rho[0] - dn.rho[0]) / (2 * h), rel=1e-6)
    assert ddrho_dp[0, 0] == pytest.approx((up.drho[0] - dn.drho[0]) / (2 * h), rel=1e-6)


def test_polynomial_first_functions():
    spec = BasisSpec("polynomial", 3)
    u, du, _, _, _, _ = eval_generators(spec, np.array([0.0, 0.5]))
    assert u[0, 1] == pytest.approx(-0.75)
    assert du[0, 0] == 0.0


def test_steep_family_boundary_values():
    for p1 in (0.5, 2.0, 10.0):
        spec = BasisSpec("adaptive", 2, (p1,))
        u, du, _, v, _, _ = eval_generators(spec, np.array([0.0, 1.0]))
        assert abs(u[0, 1]) <= 1e-12 and abs(u[1, 1]) <= 1e-12
        assert du[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert v[0, 0] == 0.0
        # FD check on the analytic u1'(0)
        h = 1e-7
        uh = eval_generators(spec, np.array([h]))[0]
        u0 = eval_generators(spec, np.array([0.0]))[0]
        assert (uh[0, 0] - u0[0, 0]) / h == pytest.approx(0.0, abs=1e-5)


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec("unknown", 3)
    with pytest.raises(ValueError):
        BasisSpec("polynomial", 0)
    with pytest.raises(ValueError):
        BasisSpec("adaptive", 3)  # needs p
    with pytest.raises(ValueError, match="degenerate"):
        BasisSpec("adaptive", 3, (P_MIN / 10.0,))


def test_steepness_is_a_number_or_a_sequence_of_numbers():
    # a bare number used to raise TypeError, a string was read character by
    # character, and NaN and inf failed later with a solver's message
    assert BasisSpec("adaptive", 6, 17.1).p == BasisSpec("adaptive", 6, (17.1,)).p
    assert BasisSpec("adaptive", 6, np.array([17.1, 2])).p == (17.1, 2.0)
    assert BasisSpec("adaptive", 6, [np.float64(3.0)]).p == (3.0,)
    for bad in ("17", b"17", (float("nan"),), (float("inf"),), True, (1.0, False),
                None, np.array(17.1), ("17",), [[17.1]]):
        with pytest.raises(ValueError, match="^p must be"):
            BasisSpec("adaptive", 6, bad)


def test_basis_size_capped_before_any_table_is_built(monkeypatch):
    # a library call used to reach BasisTables.build with any m, and the
    # tables grow with m times the node count
    builds = []
    inner = BasisTables.__dict__["build"].__func__
    monkeypatch.setattr(BasisTables, "build", classmethod(
        lambda cls, *args: builds.append(args) or inner(cls, *args)))
    assert BasisSpec("polynomial", MAX_M).m == MAX_M
    with pytest.raises(ValueError, match="basis size"):
        BasisSpec("polynomial", MAX_M + 1)
    with pytest.raises(ValueError, match="basis size"):
        solver.solve_membrane(MaterialParams(), LoadParams(0.5), "polynomial",
                              MAX_M + 1)
    assert builds == []


def test_eval_shape_undeformed():
    spec = BasisSpec("polynomial", 4)
    state = SolutionState(np.zeros(8), spec, NO_LOAD)
    s = np.linspace(0.0, 1.0, 11)
    shape = eval_shape(state, s, second=True)
    assert np.allclose(shape.z, 0.0) and np.allclose(shape.r, s)
    assert np.allclose(shape.dz, 0.0) and np.allclose(shape.dr, 1.0)
    assert np.allclose(shape.d2z, 0.0) and np.allclose(shape.d2r, 0.0)


def test_eval_shape_boundary_for_random_coefficients():
    rng = np.random.default_rng(37)
    one = np.array([1.0])
    for _ in range(50):
        if rng.uniform() < 0.5:
            spec = BasisSpec("polynomial", int(rng.integers(1, 9)))
        else:
            spec = BasisSpec("adaptive", int(rng.integers(1, 9)),
                             (float(rng.uniform(0.5, 30.0)),))
        x = rng.normal(scale=0.5, size=2 * spec.m)
        shape = eval_shape(SolutionState(x, spec, NO_LOAD), one)
        assert abs(shape.z[0]) <= 1e-12 * (1 + np.abs(x).max())
        assert abs(shape.r[0] - 1.0) <= 1e-12 * (1 + np.abs(x).max())


def test_coefficient_length_enforced():
    with pytest.raises(ValueError):
        SolutionState(np.zeros(7), BasisSpec("polynomial", 4), NO_LOAD)


def test_shape_p_derivs_zero_state():
    spec = BasisSpec("adaptive", 3, (4.0,))
    state = SolutionState(np.zeros(6), spec, NO_LOAD)
    s = np.array([0.3, 0.8])
    for part in _shape_p_derivs(state, s):
        assert np.allclose(part, 0.0)


def test_shape_p_derivs_match_fd():
    rng = np.random.default_rng(41)
    h = 1e-6
    for _ in range(5):
        p1 = float(rng.uniform(1.0, 20.0))
        spec = BasisSpec("adaptive", 4, (p1,))
        x = rng.normal(scale=0.3, size=8)
        s = rng.uniform(0.05, 0.95, 3)
        state = SolutionState(x, spec, NO_LOAD)
        dz_dp, dr_dp, dzp_dp, drp_dp = _shape_p_derivs(state, s)
        sp = SolutionState(x, spec.with_p((p1 + h,)), NO_LOAD)
        sm = SolutionState(x, spec.with_p((p1 - h,)), NO_LOAD)
        fp, fm = eval_shape(sp, s), eval_shape(sm, s)
        for got, a, b in ((dz_dp, fp.z, fm.z), (dr_dp, fp.r, fm.r),
                          (dzp_dp, fp.dz, fm.dz), (drp_dp, fp.dr, fm.dr)):
            want = (a - b) / (2 * h)
            assert np.allclose(got[0], want, rtol=1e-6, atol=1e-9)


def test_shape_p_derivs_pinned_at_the_rim():
    spec = BasisSpec("adaptive", 3, (7.0,))
    state = SolutionState(np.ones(6), spec, NO_LOAD)
    dz_dp, dr_dp, _, _ = _shape_p_derivs(state, np.array([1.0]))
    assert abs(dz_dp[0, 0]) <= 1e-12
    assert abs(dr_dp[0, 0]) <= 1e-12


def test_shape_p_derivs_reject_polynomial():
    state = SolutionState(np.zeros(4), BasisSpec("polynomial", 2), NO_LOAD)
    with pytest.raises(ValueError):
        _shape_p_derivs(state, np.array([0.5]))


def test_boundary_conditions_both_families():
    ends = np.array([0.0, 1.0])
    specs = [BasisSpec("polynomial", m) for m in (1, 4, 8, 12)]
    specs += [BasisSpec("adaptive", m, (p1,))
              for m in (1, 4, 8, 12) for p1 in (0.1, 1.0, 10.0, 100.0)]
    for spec in specs:
        u, du, _, v, _, _ = eval_generators(spec, ends)
        assert np.max(np.abs(u[:, 1])) <= 1e-12
        assert np.max(np.abs(du[:, 0])) <= 1e-12
        assert np.max(np.abs(v[:, 0])) <= 1e-12
        assert np.max(np.abs(v[:, 1])) <= 1e-12


def test_steep_family_degenerates_as_p_vanishes():
    # u1 = 1 - I0(p1 s)/I0(p1) -> 0 like p1^2 (1 - s^2)/4
    s = np.linspace(0.0, 1.0, 50)
    for p1 in (1e-2, 1e-3):
        u = eval_generators(BasisSpec("adaptive", 1, (p1,)), s)[0]
        assert np.max(np.abs(u[0])) <= p1 * p1 / 3.0


def test_gram_condition_on_operating_parameters():
    # Converged steepness values produced by the parameter search at the
    # deep-liquid load, one per basis size.  Beyond this envelope (large m,
    # p1 outside the layer scale) the family is genuinely ill conditioned.
    pairs = [(1, 10.8), (2, 17.6), (3, 17.1), (4, 17.6), (5, 16.8), (6, 17.1)]
    grid = gauss_rule(64).nodes
    for m, p1 in pairs:
        u = eval_generators(BasisSpec("adaptive", m, (p1,)), grid)[0]
        gram = (u @ u.T) / grid.size
        assert np.linalg.cond(gram) < 1e12


def test_polynomial_parity():
    # z-basis even, r-basis odd
    spec = BasisSpec("polynomial", 6)
    s = np.linspace(0.1, 0.9, 7)
    up, _, _, vp, _, _ = eval_generators(spec, s)
    um, _, _, vm, _, _ = eval_generators(spec, -s)
    assert np.allclose(up, um, rtol=1e-14)
    assert np.allclose(vp, -vm, rtol=1e-14)


def _poly_uv_per_k(m, s):
    """The polynomial ladder formula by formula, one generator at a time."""
    u, du, d2u, v, dv, d2v = (np.empty((m,) + s.shape) for _ in range(6))
    for k in range(1, m + 1):
        i = k - 1
        u[i] = s ** (2 * k) - s ** (2 * k - 2)
        du[i] = 2 * k * s ** (2 * k - 1)
        d2u[i] = 2 * k * (2 * k - 1) * s ** (2 * k - 2)
        if k > 1:
            du[i] -= (2 * k - 2) * s ** (2 * k - 3)
            d2u[i] -= (2 * k - 2) * (2 * k - 3) * s ** (2 * k - 4)
        v[i] = s ** (2 * k + 1) - s ** (2 * k - 1)
        dv[i] = (2 * k + 1) * s ** (2 * k) - (2 * k - 1) * s ** (2 * k - 2)
        d2v[i] = 2 * k * (2 * k + 1) * s ** (2 * k - 1)
        if k > 1:
            d2v[i] -= (2 * k - 2) * (2 * k - 1) * s ** (2 * k - 3)
    return u, du, d2u, v, dv, d2v


def test_polynomial_power_table_equals_per_k_formulas():
    # on every grid the program evaluates: nodes, defect grid, profile, pole
    grids = [gauss_rule(64).nodes,
             np.linspace(0.0, 1.0, DELTA_GRID + 2)[1:-1],
             np.linspace(0.0, 1.0, PROFILE_POINTS),
             np.array(0.0)]
    for s in grids:
        for m in range(1, MAX_M + 1):
            got = eval_generators(BasisSpec("polynomial", m), s)
            for a, b in zip(got, _poly_uv_per_k(m, s)):
                assert a.shape == b.shape
                assert np.array_equal(a, b)


def test_table_build_equals_the_full_evaluation():
    # a table build skips u'' and v''; what it does form must be the bits
    # of eval_generators at the nodes and at the pole
    specs = [BasisSpec("polynomial", 7), BasisSpec("adaptive", 7, (17.1,)),
             BasisSpec("adaptive", 3, (150.0,)), BasisSpec("adaptive", 4, (3.0, 0.5))]
    rule = gauss_rule(64)
    for spec in specs:
        tables = BasisTables.build(spec, rule)
        u, du, _, v, dv, _ = eval_generators(spec, rule.nodes)
        for got, want in ((tables.u, u), (tables.du, du), (tables.v, v),
                          (tables.dv, dv)):
            assert got.tobytes() == want.tobytes()
        pole = eval_generators(spec, np.array(0.0))[0]
        assert tables.u0.tobytes() == pole.tobytes()


def test_table_head_equals_tables_built_at_that_size():
    cases = [(BasisSpec("polynomial", 12), auto_rule("polynomial")),
             (BasisSpec("adaptive", 12, (17.1,)), auto_rule("adaptive", 17.1)),
             (BasisSpec("adaptive", 8, (3.0, 0.5)), gauss_rule(96))]
    for spec, rule in cases:
        full = BasisTables.build(spec, rule)
        for k in range(1, spec.m + 1):
            head = full.head(k)
            want = BasisTables.build(BasisSpec(spec.family, k, spec.p), rule)
            for name in ("s", "w", "ws", "u", "du", "v", "dv", "u0", "left",
                         "right_t", "rho_p"):
                got, ref = getattr(head, name), getattr(want, name)
                # the full table or a view of it, with the bits of a build
                # at k
                parent = getattr(full, name)
                assert got is parent or np.shares_memory(got, parent)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


def test_table_parameter_partials_equal_shape_p_derivs_at_the_nodes():
    # p_gradient takes the profile's partials from the table build's
    # profile evaluation; they must give the bits of a profile evaluated at
    # the nodes alone
    rng = np.random.default_rng(5)
    cases = [(BasisSpec("adaptive", 6, (17.1,)), auto_rule("adaptive", 17.1)),
             (BasisSpec("adaptive", 6, (150.0,)), auto_rule("adaptive", 150.0)),
             (BasisSpec("adaptive", 4, (3.0, 0.5)), gauss_rule(96))]
    for spec, rule in cases:
        tables = BasisTables.build(spec, rule)
        for k in range(1, spec.m + 1):
            state = SolutionState(rng.normal(scale=0.3, size=2 * k),
                                  BasisSpec(spec.family, k, spec.p), NO_LOAD)
            got = _shape_p(state, rule.nodes, tables.head(k).rho_p)
            for a, b in zip(got, _shape_p_derivs(state, rule.nodes)):
                assert a.tobytes() == b.tobytes()
