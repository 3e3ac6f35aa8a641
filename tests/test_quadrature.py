"""Open Gauss-Legendre rules, applied as weights @ f(nodes)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import roots_legendre

from ritzmem.kinematics import LoadParams
from ritzmem.material import MaterialParams
from ritzmem.quadrature import (
    MAX_NODES,
    MIN_NODES,
    QuadratureRule,
    _legendre,
    auto_rule,
    gauss_rule,
    two_panel_rule,
)
from ritzmem.solver import solve_membrane


def _apply(f, rule):
    """The rule applied the way the assembly applies it."""
    return float(rule.weights @ f(rule.nodes))


def _adaptive_simpson(f, a, b, tol):
    """Recursive Simpson with interval halving, an independent oracle."""

    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi)), mid

    def recurse(lo, hi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        left, _ = simpson(lo, mid)
        right, _ = simpson(mid, hi)
        if depth > 40 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, left, eps / 2.0, depth + 1)
                + recurse(mid, hi, right, eps / 2.0, depth + 1))

    whole, _ = simpson(a, b)
    # tol is relative; the boundary-layer integrand reaches ~1e16
    return recurse(a, b, whole, tol * max(1.0, abs(whole)), 0)


def test_weights_sum_to_one():
    for n in (2, 16, 64, 256):
        rule = gauss_rule(n)
        assert abs(np.sum(rule.weights) - 1.0) <= 1e-15


def test_degree_three_exact_with_two_nodes():
    rule = gauss_rule(2)
    assert _apply(lambda s: s**3, rule) == pytest.approx(0.25, rel=1e-14)


def test_boundary_layer_integrand_vs_simpson_oracle():
    f = lambda s: np.i0(40.0 * s) * s
    want = _adaptive_simpson(f, 0.0, 1.0, 1e-13)
    got = _apply(f, gauss_rule(64))
    assert got == pytest.approx(want, rel=1e-10)


def test_integrate_constant():
    assert _apply(lambda s: 2.0 + 0.0 * s, gauss_rule(8)) == pytest.approx(2.0)


def test_integrate_basis_product():
    # s (s^2 - 1)^2 has exact integral 1/6 on (0, 1)
    for n in (3, 5, 64):
        got = _apply(lambda s: s * (s * s - 1.0) ** 2, gauss_rule(n))
        assert got == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_residual_assembly_stable_in_node_count():
    # the deep-liquid equilibrium has the harshest integrands in use
    from ritzmem.assembly import residual
    from ritzmem.kinematics import LoadParams
    from ritzmem.material import MaterialParams
    from ritzmem.solver import solve_membrane

    mat = MaterialParams(gamma1=0.1)
    state, _ = solve_membrane(mat, LoadParams(0.5, 10.0), "adaptive", 4,
                              p=(17.0,))
    g128 = residual(state, mat, gauss_rule(128))
    g256 = residual(state, mat, gauss_rule(256))
    scale = np.max(np.abs(g128))
    assert np.max(np.abs(g128 - g256)) <= 1e-9 * max(scale, 1.0)


def test_doubling_nodes_keeps_converged_integrals():
    f = lambda s: np.exp(-3.0 * s) * np.cos(5.0 * s)
    a = _apply(f, gauss_rule(64))
    b = _apply(f, gauss_rule(128))
    assert abs(a - b) <= 1e-12 * abs(a)


def test_node_symmetry():
    rule = gauss_rule(32)
    order = np.argsort(rule.nodes)
    nodes, weights = rule.nodes[order], rule.weights[order]
    assert np.allclose(nodes + nodes[::-1], 1.0, atol=1e-15)
    assert np.allclose(weights, weights[::-1], atol=1e-16)


def test_exactness_to_degree_2n_minus_1():
    for n in (2, 4, 7, 12):
        rule = gauss_rule(n)
        for deg in range(2 * n):
            got = _apply(lambda s: s**deg, rule)
            assert got == pytest.approx(1.0 / (deg + 1), rel=1e-13), (n, deg)


def test_nodes_strictly_interior():
    for n in (2, 64, 512):
        rule = gauss_rule(n)
        assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.array([0.0, 0.5]), weights=np.array([0.5, 0.5]))


def test_node_count_bounds():
    with pytest.raises(ValueError):
        gauss_rule(MIN_NODES - 1)
    with pytest.raises(ValueError):
        gauss_rule(MAX_NODES + 1)


def test_cached_roots_are_shared_read_only():
    a = gauss_rule(16)
    assert gauss_rule(16) is a
    assert not a.nodes.flags.writeable and not a.weights.flags.writeable
    with pytest.raises(ValueError):
        a.nodes[0] = 0.5
    x, w = _legendre(16)
    assert x is _legendre(16)[0]
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_frozen_default_rules_equal_roots_legendre():
    # the rules of the defaults ship as literals; every bit must be the
    # one scipy computes, and they are shared and read-only like the rest
    for n in (64, 192):
        x, w = _legendre(n)
        want_x, want_w = roots_legendre(n)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
        assert x is _legendre(n)[0] and w is _legendre(n)[1]
        assert not x.flags.writeable and not w.flags.writeable


def test_other_node_counts_still_solve():
    # an explicit node count outside the frozen rules takes scipy's roots
    x, w = _legendre(100)
    want_x, want_w = roots_legendre(100)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
    state, report = solve_membrane(MaterialParams(0.02, -0.015, 0.00025),
                                   LoadParams(1.7), "polynomial", 6, quad=100)
    assert report.converged and state.sag() > 0.0


def test_two_panel_rule():
    rule = two_panel_rule(32, 0.9)
    assert abs(np.sum(rule.weights) - 1.0) <= 1e-14
    got = _apply(lambda s: s * (s * s - 1.0) ** 2, rule)
    assert got == pytest.approx(1.0 / 6.0, rel=1e-13)
    with pytest.raises(ValueError):
        two_panel_rule(16, 1.0)


def test_two_panel_rule_checks_the_node_count():
    for n in (MIN_NODES - 1, MAX_NODES + 1):
        with pytest.raises(ValueError, match="node count"):
            two_panel_rule(n, 0.9)
    # a steep solve on a 2-node composite used to "converge" with delta 0.43
    with pytest.raises(ValueError, match="node count"):
        solve_membrane(MaterialParams(gamma1=0.1), LoadParams(0.5, 1e4),
                       "adaptive", 6, p=(100.0,), quad=1)


@pytest.mark.parametrize("family, p1", [
    ("polynomial", None), ("adaptive", 10.0), ("adaptive", 80.0)])
def test_auto_rule_takes_only_none_as_the_default(family, p1):
    # n = 0 used to become the default 64 or 192 nodes
    with pytest.raises(ValueError, match="node count"):
        auto_rule(family, p1, 0)


def test_auto_rule_policy():
    assert auto_rule("polynomial").n == 64
    assert auto_rule("adaptive", 10.0).n == 192
    steep = auto_rule("adaptive", 80.0)
    assert steep.n == 384  # two panels
    split = 1.0 - 6.0 / 80.0
    assert np.sum(steep.nodes < split) == 192
