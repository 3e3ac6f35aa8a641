"""Gauss-Legendre rules on the open interval (0, 1).

Endpoints are never sampled: the integrands carry r/s and 1/s factors that
are only defined as limits at the pole.  For strongly edge-localized
integrands (steep basis parameter p1) a two-panel composite concentrates
nodes in the boundary layer.

The 64- and 192-point rules of the defaults are frozen in `_data`, exactly
as `scipy.special.roots_legendre` returns them, so default runs need numpy
alone; scipy computes any other node count, and is imported only then.
Roots and Gauss rules are made once per node count and shared, read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._data import LEGENDRE_HALVES

MIN_NODES = 2
MAX_NODES = 512
POLY_NODES = 64  # the polynomial family's default rule

# Composite threshold: below this p1 a single panel resolves the layer.
SPLIT_P1 = 60.0


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.nodes <= 0.0) or np.any(self.nodes >= 1.0):
            raise ValueError("quadrature nodes must lie strictly inside (0, 1)")

    @property
    def n(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=32)
def _legendre(n: int):
    """Gauss-Legendre nodes and weights on (-1, 1), computed once per n.

    Every caller shares the arrays, so they are read-only.
    """
    if not MIN_NODES <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [{MIN_NODES}, {MAX_NODES}], got {n}")
    if n in LEGENDRE_HALVES:
        x, w = (np.array(half) for half in LEGENDRE_HALVES[n])
        x = np.concatenate([-x[::-1], x])
        w = np.concatenate([w[::-1], w])
    else:
        from scipy.special import roots_legendre
        x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=32)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule mapped to (0, 1), made once per n.

    Every caller shares the rule, so its arrays are read-only.
    """
    x, w = _legendre(n)
    rule = QuadratureRule(nodes=0.5 * (x + 1.0), weights=0.5 * w)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def two_panel_rule(n: int, split: float) -> QuadratureRule:
    """Composite rule with n Gauss points on (0, split) and on (split, 1)."""
    if not 0.0 < split < 1.0:
        raise ValueError("split must lie strictly inside (0, 1)")
    x, w = _legendre(n)
    left_nodes = 0.5 * split * (x + 1.0)
    right_nodes = split + 0.5 * (1.0 - split) * (x + 1.0)
    nodes = np.concatenate([left_nodes, right_nodes])
    weights = np.concatenate([0.5 * split * w, 0.5 * (1.0 - split) * w])
    return QuadratureRule(nodes=nodes, weights=weights)


def auto_rule(family: str, p1: float | None = None, n: int | None = None) -> QuadratureRule:
    """Default rule for a basis family.

    Polynomial runs use 64 points.  The steep-basis family gets 192, and
    above p1 ~ 60 a composite split at 1 - 6/p1 so the layer panel holds
    the fast variation.  An explicit n replaces the default node count (per
    panel for the composite).
    """
    if family == "polynomial":
        return gauss_rule(POLY_NODES if n is None else n)
    base = 192 if n is None else n
    if p1 is not None and p1 > SPLIT_P1:
        return two_panel_rule(base, 1.0 - 6.0 / p1)
    return gauss_rule(base)

