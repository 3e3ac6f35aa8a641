"""Layer micro-table: per-call cost of each kernel at fixed converged states.

States: the gas material at c = 1.7 on the polynomial family (64-node
Gauss rule) and the liquid material at c = 0.5, d = 100 on the steep family
at p = 144 (192 nodes per panel of the split rule), each at m = 6 and 12.
Every entry is the median over batches of the mean time per call,
calibrated like every other time of the benchmark (see calibrate.py).

The flop count and table bytes of ``jacobian`` are computed from the array
shapes, not measured: nine weighted products A diag(c) B^T over the basis
tables at 2 m^2 n + m n flops each, plus four coefficient-table products
of 2 m n flops for the nodal shape; the tables are four m x n arrays and
the node and weight vectors.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ritzmem import assembly, basis, kinematics, quadrature, solver

from workloads import GAS, LIQ

FAMILIES = {
    # short name: (material, load, family, fixed p)
    "poly": (GAS, kinematics.LoadParams(1.7), "polynomial", None),
    "steep": (LIQ, kinematics.LoadParams(0.5, 100.0), "adaptive", (144.0,)),
}
SIZES = (6, 12)
# Time spent on one entry, split into batches of equal call counts.
BUDGET_S = 0.08
BATCHES = 5


def per_call_us(fn, cal) -> float:
    """Median over batches of the calibrated mean time per call, in us."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(BUDGET_S / BATCHES / once))
    means = []
    for _ in range(BATCHES):
        cal.probe()
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        t1 = time.perf_counter()
        cal.probe()
        means.append((t1 - t0) / n / cal.factor(t0, t1))
    return statistics.median(means) * 1e6


def _state(mat, load, family, m, p):
    """Converged state at size m, or the m = 6 one embedded if m fails.

    The steep family at p = 144 does not converge at m = 12 (its tangent
    is singular to working precision), so that entry times the kernels on
    the m = 6 solution padded with zero coefficients: same tables, same
    shapes, same cost per call.
    """
    try:
        state, rep = solver.solve_membrane(mat, load, family, m, p=p)
        if rep.converged:
            return state
    except solver.SolveFailure:
        pass
    small, rep = solver.solve_membrane(mat, load, family, 6, p=p)
    if not rep.converged:
        raise RuntimeError(f"micro-table state did not converge: {family} m=6")
    x = np.zeros(2 * m)
    x[:6], x[m:m + 6] = small.x[:6], small.x[6:]
    return basis.SolutionState(x, basis.BasisSpec(family, m, small.spec.p), load)


def jacobian_cost(m: int, n: int) -> tuple[int, int]:
    """Computed (flops, table bytes) of one jacobian call at size m, n nodes."""
    flops = 9 * (2 * m * m * n + m * n) + 4 * 2 * m * n
    table_bytes = (4 * m * n + 2 * n) * 8
    return flops, table_bytes


def micro_table(cal) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for every kernel, family and size."""
    out: dict[str, tuple[float, str]] = {}
    for short, (mat, load, family, p) in FAMILIES.items():
        p1 = p[0] if p else None
        out[f"micro.auto_rule.{short}.us"] = (
            per_call_us(lambda: quadrature.auto_rule(family, p1), cal), "us")
        rule = quadrature.auto_rule(family, p1)
        for m in SIZES:
            state = _state(mat, load, family, m, p)
            tables = basis.BasisTables.build(state.spec, rule)
            h = assembly.jacobian(state, mat, rule, tables)
            g = assembly.residual(state, mat, rule, tables)
            key = f"{short}.m{m}"
            calls = {
                "tables_build": lambda: basis.BasisTables.build(state.spec, rule),
                "residual": lambda: assembly.residual(state, mat, rule, tables),
                "jacobian": lambda: assembly.jacobian(state, mat, rule, tables),
                "functional_value":
                    lambda: assembly.functional_value(state, mat, rule, tables),
                "load_derivative":
                    lambda: assembly.load_derivative(state, mat, rule, tables),
                "delta_diagnostic": lambda: solver.delta_diagnostic(state, mat, [0.5]),
                "linalg_cond": lambda: np.linalg.cond(h),
                "linalg_solve": lambda: np.linalg.solve(h, g),
            }
            if family == "adaptive":
                calls["p_gradient"] = lambda: assembly.p_gradient(state, mat, rule, tables)
            for fn_name, fn in calls.items():
                out[f"micro.{fn_name}.{key}.us"] = (per_call_us(fn, cal), "us")
            flops, nbytes = jacobian_cost(m, rule.n)
            out[f"micro.jacobian.{key}.flops"] = (float(flops), "flop")
            out[f"micro.jacobian.{key}.table_bytes"] = (float(nbytes), "B")
    return out
