"""Material law: energy density, invariant derivatives, tensions, stiffness."""

from __future__ import annotations

import numpy as np
import pytest

from ritzmem.kinematics import stretches
from ritzmem.material import (
    MaterialParams,
    energy,
    energy_derivs,
    principal_stresses,
    tension_partials,
    tension_values,
)

from reference import stiffness_derivs, stiffness_scalar

GAS = MaterialParams(gamma1=0.02, gamma2=-0.015, gamma3=0.00025)
LIQ = MaterialParams(gamma1=0.1)


def test_energy_identity_state_is_zero():
    assert energy(3.0, 3.0, LIQ) == 0.0
    assert energy(3.0, 3.0, GAS) == 0.0


def test_energy_direct_substitution():
    # one unit of each strain measure
    assert energy(4.0, 4.0, LIQ) == pytest.approx(1.1, abs=1e-15)
    assert energy(4.0, 4.0, GAS) == pytest.approx(1.00525, abs=1e-15)


def test_energy_zero_for_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g1, g2, g3 = rng.uniform(-1.0, 1.0, 3)
        assert energy(3.0, 3.0, MaterialParams(g1, g2, g3)) == 0.0


def test_energy_derivs_identity_state():
    assert energy_derivs(3.0, LIQ) == (1.0, 0.1, 0.0)


def test_energy_derivs_direct_substitution():
    w1, _, _ = energy_derivs(4.0, GAS)
    assert w1 == pytest.approx(0.97075, abs=1e-15)


def _fd_energy_derivs(i1, i2, mat, h):
    w1 = (energy(i1 + h, i2, mat) - energy(i1 - h, i2, mat)) / (2 * h)
    w2 = (energy(i1, i2 + h, mat) - energy(i1, i2 - h, mat)) / (2 * h)
    w11 = (energy(i1 + h, i2, mat) - 2 * energy(i1, i2, mat)
           + energy(i1 - h, i2, mat)) / h**2
    w12 = (energy(i1 + h, i2 + h, mat) - energy(i1 + h, i2 - h, mat)
           - energy(i1 - h, i2 + h, mat) + energy(i1 - h, i2 - h, mat)) / (4 * h**2)
    w22 = (energy(i1, i2 + h, mat) - 2 * energy(i1, i2, mat)
           + energy(i1, i2 - h, mat)) / h**2
    return w1, w2, w11, w12, w22


def test_energy_derivs_match_finite_differences():
    got = energy_derivs(3.7, GAS)
    want = _fd_energy_derivs(3.7, 3.4, GAS, 1e-5)
    assert got[0] == pytest.approx(want[0], rel=1e-6)
    assert got[1] == pytest.approx(want[1], rel=1e-6)
    # Second differences at step h carry cancellation noise ~ eps*W/h^2,
    # which is 1e-6 absolute at h = 1e-5.  The energy is cubic in I1, so
    # the central formula is exact in real arithmetic at any step; a wider
    # step pushes the noise below the target tolerance.
    wide = _fd_energy_derivs(3.7, 3.4, GAS, 1e-3)
    assert got[2] == pytest.approx(wide[2], rel=1e-6, abs=1e-8)
    # the partials energy_derivs leaves out vanish for the Bidermann form
    assert wide[3] == pytest.approx(0.0, abs=1e-8)
    assert wide[4] == pytest.approx(0.0, abs=1e-8)


def test_stress_free_at_identity():
    t1, t2 = principal_stresses(1.0, 1.0, GAS)
    assert t1 == 0.0 and t2 == 0.0


def test_stress_swap_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        la, lb = rng.uniform(0.6, 2.5, 2)
        t1, t2 = principal_stresses(la, lb, GAS)
        s1, s2 = principal_stresses(lb, la, GAS)
        assert t1 == s2 and t2 == s1


def test_stress_equibiaxial_closed_form():
    l3 = 1.0 / 1.44
    want = l3 * (1.44 - l3**2) * (1.0 + 0.1 * 1.44)
    t1, t2 = principal_stresses(1.2, 1.2, LIQ)
    assert t1 == pytest.approx(want, rel=1e-14)
    assert t2 == pytest.approx(want, rel=1e-14)


def _u(la, lb, mat):
    """U(la, lb) from the kernel."""
    return tension_values(la, lb, mat)[0]


def _du(la, lb, mat):
    """(dU/dla, dU/dlb) at (la, lb) from the kernel."""
    return tension_partials(tension_values(la, lb, mat)[2])[:2]


def test_stiffness_vanishes_at_identity():
    assert _u(1.0, 1.0, GAS) == 0.0
    assert _u(1.0, 1.0, LIQ) == 0.0


def test_stiffness_direct_substitution():
    want = (1.0 - 1.2**-6) * (1.0 + 0.1 * 1.44)
    assert _u(1.2, 1.2, LIQ) == pytest.approx(want, rel=1e-14)


def test_stiffness_tension_relation():
    # T1 = (lambda1/lambda2) U(lambda1, lambda2); the radial equilibrium
    # terms rely on this exactly.
    rng = np.random.default_rng(7)
    for _ in range(5):
        l1, l2 = rng.uniform(0.7, 2.0, 2)
        t1, _ = principal_stresses(l1, l2, GAS)
        u = _u(l1, l2, GAS)
        assert t1 == pytest.approx(l1 / l2 * u, rel=1e-12)


def _fd_stiffness(la, lb, mat, h=1e-6):
    dua = (_u(la + h, lb, mat) - _u(la - h, lb, mat)) / (2 * h)
    dub = (_u(la, lb + h, mat) - _u(la, lb - h, mat)) / (2 * h)
    return dua, dub


def test_stiffness_derivs_match_finite_differences():
    got = _du(1.3, 1.1, GAS)
    want = _fd_stiffness(1.3, 1.1, GAS)
    assert got[0] == pytest.approx(want[0], rel=1e-5)
    assert got[1] == pytest.approx(want[1], rel=1e-5)


def test_stiffness_derivs_nonzero_at_identity():
    # stress-free but not stiffness-free
    got = _du(1.0, 1.0, GAS)
    want = _fd_stiffness(1.0, 1.0, GAS)
    assert abs(got[0]) > 0.1
    assert got[0] == pytest.approx(want[0], rel=1e-5)
    assert got[1] == pytest.approx(want[1], rel=1e-5)


def test_stiffness_derivs_swapped_arguments():
    rng = np.random.default_rng(19)
    for _ in range(3):
        la, lb = rng.uniform(0.7, 2.0, 2)
        got = _du(lb, la, GAS)
        want = _fd_stiffness(lb, la, GAS)
        assert got[0] == pytest.approx(want[0], rel=1e-5)
        assert got[1] == pytest.approx(want[1], rel=1e-5)


def test_tension_values_and_partials_equal_stiffness_functions_exactly():
    # the stacked evaluation keeps every expression of the reference
    # functions, and the partials reuse products the values formed, so the
    # assembled residual and tangent stay bit-identical, on either side of
    # the Mooney-Rivlin choice: a neo-Hookean material and a signed-zero
    # gamma2 skip the energy derivatives, and the least gamma2 or gamma3
    # above zero takes the full path
    rng = np.random.default_rng(31)
    l1, l2 = rng.uniform(0.5, 3.0, (2, 200))
    full = [GAS, MaterialParams(0.1, 5e-324), MaterialParams(0.1, 0.0, 5e-324)]
    skip = [LIQ, MaterialParams(), MaterialParams(0.1, -0.0)]
    assert not any(mat._mooney_rivlin for mat in full)
    assert all(mat._mooney_rivlin for mat in skip)
    for mat in full + skip:
        su12, su21, parts = tension_values(l1, l2, mat)
        du1, du2, du1_swap = tension_partials(parts)
        assert np.array_equal(su12, stiffness_scalar(l1, l2, mat))
        assert np.array_equal(su21, stiffness_scalar(l2, l1, mat))
        assert np.array_equal(du1, stiffness_derivs(l1, l2, mat)[0])
        assert np.array_equal(du2, stiffness_derivs(l1, l2, mat)[1])
        assert np.array_equal(du1_swap, stiffness_derivs(l2, l1, mat)[0])


def _invariants(l1, l2):
    """I1 and I2 of the incompressible state with in-plane stretches l1, l2."""
    _, _, l3 = stretches(1.0, l2, 0.0, l1)
    sq = np.array([l1, l2, l3]) ** 2
    return float(np.sum(sq)), float(np.sum(1.0 / sq))


def test_derivs_match_fd_on_random_states():
    # First derivatives at step 1e-6; second differences need the wider
    # step (see the cancellation note above), where the cubic form makes
    # the central formula exact.
    rng = np.random.default_rng(23)
    for _ in range(100):
        l1, l2 = rng.uniform(0.5, 3.0, 2)
        i1, i2 = _invariants(l1, l2)
        got = energy_derivs(i1, GAS)
        want = _fd_energy_derivs(i1, i2, GAS, 1e-6)
        assert got[0] == pytest.approx(want[0], rel=1e-5)
        assert got[1] == pytest.approx(want[1], rel=1e-5, abs=1e-10)
        wide = _fd_energy_derivs(i1, i2, GAS, 1e-3)
        assert got[2] == pytest.approx(wide[2], rel=1e-5, abs=1e-7)
        got_u = _du(l1, l2, GAS)
        want_u = _fd_stiffness(l1, l2, GAS)
        assert got_u[0] == pytest.approx(want_u[0], rel=1e-5, abs=1e-6)
        assert got_u[1] == pytest.approx(want_u[1], rel=1e-5, abs=1e-6)


def test_incompressibility_and_invariant_bounds():
    rng = np.random.default_rng(29)
    for _ in range(100):
        l1, l2 = rng.uniform(0.5, 3.0, 2)
        _, _, l3 = stretches(1.0, l2, 0.0, l1)
        assert l3 == pytest.approx(1.0 / (l1 * l2), rel=1e-15)
        i1, i2 = _invariants(l1, l2)
        assert i1 >= 3.0 and i2 >= 3.0
