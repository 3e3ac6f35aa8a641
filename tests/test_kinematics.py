"""Shape-to-physics conversions: stretches, curvatures, load."""

from __future__ import annotations

import numpy as np
import pytest

from ritzmem.basis import BasisSpec, eval_generators
from ritzmem.kinematics import (
    LoadParams,
    ShapeEval,
    curvatures,
    hydro_load,
    stretches,
)
from ritzmem.material import MaterialParams
from ritzmem.solver import init_p1


def test_load_params_reject_negative_d():
    with pytest.raises(ValueError):
        LoadParams(1.0, -0.5)


@pytest.mark.parametrize("make", [
    lambda v: LoadParams(v), lambda v: LoadParams(0.5, v),
    lambda v: MaterialParams(gamma1=v), lambda v: MaterialParams(gamma2=v),
    lambda v: MaterialParams(gamma3=v)], ids=["c", "d", "gamma1", "gamma2", "gamma3"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_load_and_material_reject_non_finite_fields(make, value):
    # a NaN load or coefficient used to fail a solve as a start failure
    with pytest.raises(ValueError, match="must be finite"):
        make(value)


def test_boundary_layer_width():
    # The steep family starts at p1 = sqrt(d), the inverse layer width of
    # the linearised problem: one width in from the rim the profile
    # 1 - u_1 = I0(p1 s)/I0(p1) has fallen by about 1/e.
    for d in (10.0, 100.0, 1000.0):
        p1 = init_p1(None, MaterialParams(), LoadParams(0.5, d))
        assert p1 == pytest.approx(np.sqrt(d), rel=1e-15)
        u = eval_generators(BasisSpec("adaptive", 1, (p1,)),
                            np.array([1.0 - 1.0 / p1]))[0]
        assert 0.3 <= 1.0 - u[0, 0] <= 0.5
    with pytest.raises(ValueError):
        init_p1(None, MaterialParams(), LoadParams(0.5, 0.0))


def test_stretches_undeformed():
    s = np.array([0.3, 0.6, 1.0])
    l1, l2, l3 = stretches(s, s, np.zeros(3), np.ones(3))
    assert np.allclose(l1, 1.0) and np.allclose(l2, 1.0) and np.allclose(l3, 1.0)


def test_stretches_direct_substitution():
    l1, l2, l3 = stretches(0.5, 0.5, -1.0, 1.0)
    assert l1 == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert l2 == pytest.approx(1.0)
    assert l3 == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)


def test_stretches_uniform_inflation():
    s = np.array([0.25, 0.5, 0.75])
    l1, l2, l3 = stretches(s, 1.2 * s, np.zeros(3), np.full(3, 1.2))
    assert np.allclose(l1, 1.2)
    assert np.allclose(l2, 1.2)
    assert np.allclose(l3, 1.0 / 1.44)


def test_stretches_rejects_the_pole_by_default():
    with pytest.raises(ValueError, match="pole_limit"):
        stretches(np.array([0.0, 0.5]), np.array([0.0, 0.5]),
                  np.zeros(2), np.ones(2))


def test_stretches_pole_limit_uses_dr():
    l1, l2, _ = stretches(np.array([0.0]), np.array([0.0]),
                          np.array([0.0]), np.array([1.3]),
                          pole_limit=True)
    assert l2[0] == pytest.approx(1.3)
    assert l1[0] == pytest.approx(1.3)


def test_stretches_scale_consistency():
    rng = np.random.default_rng(5)
    s = rng.uniform(0.1, 1.0, 20)
    dz = rng.uniform(-1.0, 1.0, 20)
    dr = rng.uniform(0.5, 2.0, 20)
    l1a, _, _ = stretches(s, s, dz, dr)
    l1b, _, _ = stretches(s, s, 2 * dz, 2 * dr)
    assert np.allclose(l1b, 2 * l1a, rtol=1e-15)


def test_curvatures_flat_shape():
    s = np.array([0.2, 0.5, 0.9])
    shape = ShapeEval(z=np.zeros(3), r=0.7 * s, dz=np.zeros(3),
                      dr=np.full(3, 0.7), d2z=np.zeros(3), d2r=np.zeros(3))
    k1, k2 = curvatures(s, shape)
    assert np.allclose(k1, 0.0) and np.allclose(k2, 0.0)
    l1, l2, _ = stretches(s, shape.r, shape.dz, shape.dr)
    assert np.allclose(l2, 0.7)


def test_curvatures_closed_form():
    # z = 1 - s^2, r = s at s = 0.5
    shape = ShapeEval(z=0.75, r=0.5, dz=-1.0, dr=1.0, d2z=-2.0, d2r=0.0)
    k1, k2 = curvatures(np.array(0.5), shape)
    assert k1 == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert k2 == pytest.approx(np.sqrt(2.0), rel=1e-15)


def _sphere_shape(s, radius, theta_max):
    """Spherical cap of the given radius parametrized linearly in angle."""
    th = theta_max * s
    z = radius * (np.cos(th) - np.cos(theta_max))
    r = radius * np.sin(th)
    dz = -radius * theta_max * np.sin(th)
    dr = radius * theta_max * np.cos(th)
    d2z = -radius * theta_max**2 * np.cos(th)
    d2r = -radius * theta_max**2 * np.sin(th)
    return ShapeEval(z=z, r=r, dz=dz, dr=dr, d2z=d2z, d2r=d2r)


def test_curvatures_sphere():
    s = np.linspace(0.05, 0.95, 10)
    for radius in (0.8, 1.7):
        shape = _sphere_shape(s, radius, 1.1)
        k1, k2 = curvatures(s, shape)
        assert np.allclose(k1, k2, rtol=1e-8)
        assert np.allclose(k1, 1.0 / radius, rtol=1e-8)


def test_curvatures_reject_zero_radius_off_pole():
    shape = ShapeEval(z=0.1, r=0.0, dz=-0.5, dr=1.0, d2z=-1.0, d2r=0.0)
    with pytest.raises(ValueError, match="pole"):
        curvatures(np.array(0.5), shape)


def test_curvatures_need_second_derivatives():
    shape = ShapeEval(z=0.1, r=0.5, dz=-0.5, dr=1.0)
    with pytest.raises(ValueError):
        curvatures(np.array(0.5), shape)


def test_hydro_load_values():
    assert hydro_load(0.0, 1.7, 0.0) == 1.7
    assert hydro_load(0.05, 0.5, 10.0) == pytest.approx(0.0, abs=1e-15)
    z = np.array([-2.0, 0.3, 11.0])
    assert np.allclose(hydro_load(z, 0.9, 0.0), 0.9)

