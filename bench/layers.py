"""Per-layer metrics from a traced run, plus two fixed traced probes.

``layer_metrics`` turns the spans of the traced timed phase into counts per
item, microseconds per call and self time per item.  Time metrics are kept
only for boundaries every workload crosses, so no reported time is zero;
the calls of the other boundaries are reported as counts (which may be
zero) and their per-call cost comes from the micro-table.  Times are
calibrated like the end-to-end ones (see calibrate.py).

``cli_probe`` times the CLI layer on one fixed ``solve`` call (the gas
anchor config), traced, so its figures exist on every workload.
``anchor_counts`` traces the two anchors whose work the seed fixes exactly.
"""

from __future__ import annotations

import statistics
import time

from ritzmem import basis, cli, kinematics, quadrature, solver

from tracer import Tracer
from workloads import GAS, LIQ, gas_anchor_config

CLI_PROBE_REPEATS = 5

# Span names reported as calls per item.
CALLS = (
    "assembly.residual", "assembly.jacobian", "assembly.p_gradient",
    "assembly.functional_value", "assembly.load_derivative",
    "basis.tables_build", "basis.eval_shape", "quadrature.auto_rule",
    "solver.newton_solve", "solver.delta_diagnostic", "solver.linalg_cond",
    "solver.linalg_solve", "solver.initial_guess", "solver.solve_at_sag",
)
# Span names reported as calibrated microseconds per call.
US_PER_CALL = (
    "assembly.residual", "assembly.jacobian", "basis.tables_build",
    "basis.eval_shape", "quadrature.auto_rule", "solver.delta_diagnostic",
    "solver.linalg_cond", "solver.linalg_solve",
)
# Layers reported as calibrated self milliseconds per item, and as calls.
SELF_MS = ("material", "kinematics", "basis", "assembly")
LAYER_CALLS = ("material", "kinematics")


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _mean(extras, i: int) -> float:
    """Mean of field i of the calls' return-value records (0 if no calls)."""
    return sum(e[i] for e in extras) / max(len(extras), 1)


def layer_metrics(tracer: Tracer, items: int, slowdown: float) -> dict:
    """Per-layer metrics of the traced timed phase, normalised per item.

    `slowdown` is the machine's calibrated slowdown over the traced phase.
    """
    s = tracer.summary(lambda item: item >= 0)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "extras": [], "under": {}}
    get = lambda name: s.get(name, empty)
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = _metric(get(name)["calls"] / items, "count")
    for name in US_PER_CALL:
        agg = get(name)
        out[f"{name}.us_per_call"] = _metric(
            agg["incl_s"] / max(agg["calls"], 1) / slowdown * 1e6, "us")
    for layer in SELF_MS:
        self_s = sum(a["self_s"] for n, a in s.items() if n.startswith(layer + "."))
        out[f"{layer}.self_ms"] = _metric(self_s / items / slowdown * 1e3, "ms")
    for layer in LAYER_CALLS:
        calls = sum(a["calls"] for n, a in s.items() if n.startswith(layer + "."))
        out[f"{layer}.calls"] = _metric(calls / items, "count")

    newton = get("solver.newton_solve")
    sag = get("solver.solve_at_sag")
    sweeps = get("solver.continue_in_load")
    out["solver.newton_solve.iters"] = _metric(_mean(newton["extras"], 0), "count")
    out["solver.newton_solve.converged_ratio"] = _metric(
        _mean(newton["extras"], 1), "fraction")
    out["solver.newton_solve.self_ms"] = _metric(
        newton["self_s"] / items / slowdown * 1e3, "ms")
    out["solver.solve_at_sag.iters"] = _metric(_mean(sag["extras"], 0), "count")
    out["solver.optimize_basis.outer_evals"] = _metric(
        _mean(get("solver.optimize_basis")["extras"], 0), "count")
    out["solver.continue_in_load.points"] = _metric(_mean(sweeps["extras"], 0), "count")
    points = sum(e[0] for e in sweeps["extras"])
    attempts = (newton["under"].get("solver.continue_in_load", 0)
                + sag["under"].get("solver.continue_in_load", 0))
    out["solver.continue_in_load.accept_ratio"] = _metric(
        points / max(attempts, 1), "fraction")
    out["cli.calls"] = _metric(get("cli.main")["calls"] / items, "count")
    return out


def cli_probe(workdir, cal) -> dict:
    """CLI-layer cost of one traced ``solve`` call on the gas anchor config,
    median of `CLI_PROBE_REPEATS` calls."""
    cfg = workdir / "probe-gas.cfg"
    cfg.write_text(gas_anchor_config())
    argv = ["solve", "--config", str(cfg), "--out", str(workdir / "probe-out"),
            "--probe", "0.2"]
    cli.main(argv)
    rows = {"cli.config_ms": [], "cli.profile_rows.ms": [],
            "cli.write_profile.ms": [], "cli.self_ms": []}
    for _ in range(CLI_PROBE_REPEATS):
        cal.probe()
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer:
            tracer.item = 0
            if cli.main(argv) != 0:
                raise RuntimeError("CLI probe: gas anchor solve failed")
        t1 = time.perf_counter()
        cal.probe()
        scale = 1e3 / cal.factor(t0, t1)
        s = tracer.summary(lambda item: item >= 0)
        ms = lambda name: s.get(name, {"incl_s": 0.0})["incl_s"] * scale
        rows["cli.config_ms"].append(ms("cli.load_config") + ms("cli.build_config"))
        rows["cli.profile_rows.ms"].append(ms("cli.profile_rows"))
        rows["cli.write_profile.ms"].append(ms("cli.write_profile"))
        rows["cli.self_ms"].append(
            sum(a["self_s"] for n, a in s.items() if n.startswith("cli.")) * scale)
    return {k: _metric(statistics.median(v), "ms") for k, v in rows.items()}


def anchor_counts() -> dict:
    """Traced work of the liquid d = 10 solve and the gas m = 6 sweep to 3.0."""
    tracer = Tracer()
    with tracer:
        tracer.item = 0
        solver.solve_membrane(LIQ, kinematics.LoadParams(0.5, 10.0), "adaptive", 6,
                              probe=0.9)
        tracer.item = 1
        ctx = solver.SolveContext(GAS, kinematics.LoadParams(0.1),
                                  basis.BasisSpec("polynomial", 6),
                                  quadrature.auto_rule("polynomial"))
        solver.continue_in_load(ctx, 0.1, 3.0)
    liq = tracer.summary(lambda item: item == 0)
    gas = tracer.summary(lambda item: item == 1)
    n = lambda s, name: s.get(name, {"calls": 0})["calls"]
    return {
        "liquid_d10": {
            "outer_p_evals": liq["solver.optimize_basis"]["extras"][0][0],
            "newton_solve": n(liq, "solver.newton_solve"),
            "residual": n(liq, "assembly.residual"),
            "delta_diagnostic": n(liq, "solver.delta_diagnostic"),
            "tables_build": n(liq, "basis.tables_build"),
        },
        "gas_sweep_3": {
            "newton_solve": n(gas, "solver.newton_solve"),
            "solve_at_sag": n(gas, "solver.solve_at_sag"),
            "residual": n(gas, "assembly.residual"),
            "points": gas["solver.continue_in_load"]["extras"][0][0],
        },
    }

