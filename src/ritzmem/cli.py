"""Command line front end.

Verbs:
  solve     one equilibrium; writes solution.json, profile.csv, report.json
  converge  a basis-size ladder at one load; writes table.csv
  sweep     a load sweep with fold traversal; writes loadsag.csv
  scale     physical inputs to the dimensionless load pair (c, d)

Configuration is a flat key = value text file (or the same keys as a JSON
object); command line flags override file values.  Outputs are plain CSV
and JSON, written deterministically so identical runs produce identical
bytes.  Each output file is written by `_write`, in one write that
rewrites it in place; a verb that fails removes the outputs it could not
produce, so none is left from an earlier run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .basis import FAMILIES, MAX_M, P_MIN
from .kinematics import LoadParams
from .material import MaterialParams
from .quadrature import MAX_NODES, MIN_NODES
from .solver import (
    SolveContext,
    SolveFailure,
    SolveReport,
    StepPolicy,
    _defect_terms,
    _generator_blocks,
    _table_shape,
    continue_in_load,
    solve_ladder,
    solve_membrane,
)

PROFILE_POINTS = 201
_PROFILE_S = np.linspace(0.0, 1.0, PROFILE_POINTS)
_PROFILE_S.flags.writeable = False


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    mat: MaterialParams = field(default_factory=MaterialParams)
    c: float | None = None
    d: float = 0.0
    family: str = "polynomial"
    m: int = 6
    m_min: int | None = None
    m_max: int | None = None
    p: tuple | None = None
    quad: int | None = None
    probes: tuple = ()
    out: Path = Path("results")
    c_start: float | None = None
    c_end: float | None = None
    c_step: float | None = None
    scale: dict = field(default_factory=dict)


_FLOAT_KEYS = {"gamma1", "gamma2", "gamma3", "c", "d", "c_start", "c_end", "c_step",
               "r0", "h0", "c1", "rho_g", "p_star", "p_ref"}
_INT_KEYS = {"m", "m_min", "m_max", "n"}
_SCALE_KEYS = {"r0", "h0", "c1", "rho_g", "p_star", "p_ref"}


def _parse_kv(text: str) -> dict:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        raw[key.lower()] = value
    return raw


def load_config(path: str | Path) -> dict:
    """Read a config file; JSON if it looks like JSON, key = value otherwise."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return {str(k).lower(): v for k, v in data.items()}
    return _parse_kv(text)


def _finite(key: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value}")
    return value


def _as_floats(key: str, value) -> tuple:
    try:
        if isinstance(value, (list, tuple)):
            values = tuple(float(v) for v in value)
        else:
            values = tuple(float(v) for v in str(value).replace(",", " ").split())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    return tuple(_finite(key, v) for v in values)


def build_config(raw: dict) -> RunConfig:
    """Coerce and validate raw key/value pairs."""
    cfg = RunConfig()
    known = (_FLOAT_KEYS | _INT_KEYS |
             {"family", "p", "probes", "out", "quad"})
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    vals: dict = {}
    for key, value in raw.items():
        try:
            if key in _FLOAT_KEYS:
                vals[key] = float(value)
            elif key in _INT_KEYS:
                vals[key] = int(value)
            else:
                vals[key] = value
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if key in _FLOAT_KEYS:
            _finite(key, vals[key])

    cfg.mat = MaterialParams(
        gamma1=vals.get("gamma1", 0.0),
        gamma2=vals.get("gamma2", 0.0),
        gamma3=vals.get("gamma3", 0.0),
    )
    cfg.c = vals.get("c")
    cfg.d = vals.get("d", 0.0)
    if cfg.d < 0.0:
        raise ConfigError("d must be >= 0")
    cfg.family = str(vals.get("family", "polynomial")).lower()
    if cfg.family not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}")
    for key in ("m", "m_min", "m_max"):
        if not 1 <= vals.get(key, 1) <= MAX_M:
            raise ConfigError(f"{key} must be in [1, {MAX_M}]")
    cfg.m = vals.get("m", 6)
    cfg.m_min = vals.get("m_min")
    cfg.m_max = vals.get("m_max")
    # only one steepness parameter is searched; fixed p may carry more
    if vals.get("n", 1) != 1:
        raise ConfigError("n must be 1")
    if "p" in vals:
        cfg.p = _as_floats("p", vals["p"])
        if len(cfg.p) < 1:
            raise ConfigError("p must contain at least one value")
        if cfg.p[0] < P_MIN:
            raise ConfigError(f"p[0] must be >= {P_MIN}")
    if cfg.family == "adaptive" and cfg.p is None and cfg.d <= 0.0:
        raise ConfigError("steep family with d = 0 needs explicit p")
    if "quad" in vals and str(vals["quad"]).lower() != "auto":
        try:
            cfg.quad = int(vals["quad"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"quad: {exc}") from exc
        if not MIN_NODES <= cfg.quad <= MAX_NODES:
            raise ConfigError(f"quad must be in [{MIN_NODES}, {MAX_NODES}]")
    if "probes" in vals:
        cfg.probes = _as_floats("probes", vals["probes"])
    for sp in cfg.probes:
        if not 0.0 <= sp <= 1.0:
            raise ConfigError(f"probe {sp} outside [0, 1]")
    if "out" in vals:
        cfg.out = Path(str(vals["out"]))
    cfg.c_start = vals.get("c_start")
    cfg.c_end = vals.get("c_end")
    cfg.c_step = vals.get("c_step")
    cfg.scale = {k: vals[k] for k in _SCALE_KEYS if k in vals}
    return cfg


def scale_inputs(r0: float, h0: float, c1: float, rho_g: float,
                 p_star: float, p_ref: float) -> dict:
    """Dimensionless load pair from physical membrane data.

    c = (p_star - p_ref) * r0 / (2 c1 h0),  d = rho_g * r0**2 / (2 c1 h0),
    with r0 the disk radius, h0 the thickness, c1 the leading material
    constant and rho_g the specific weight of the ponding liquid.
    """
    if r0 <= 0.0 or h0 <= 0.0 or c1 <= 0.0:
        raise ConfigError("r0, h0 and c1 must be positive")
    if rho_g < 0.0:
        raise ConfigError("rho_g must be >= 0")
    denom = 2.0 * c1 * h0
    if denom == 0.0:
        raise ConfigError("2 c1 h0 underflows to zero")
    out = {"c": (p_star - p_ref) * r0 / denom, "d": rho_g * r0 * r0 / denom}
    if not all(map(math.isfinite, out.values())):
        raise ConfigError(f"scaled load is not finite: {out}")
    return out


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write(path: Path, text: str, newline: str | None = None) -> None:
    """Make `text` the whole content of the file at `path`, in one write.

    The file is rewritten in place and then cut to the new length, never
    truncated to zero first: on ext4 a truncate to zero followed by a
    rewrite starts writeback at close (auto_da_alloc), several times the
    cost of the write itself on a rerun into the same directory.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline=newline) as fh:
        fh.write(text)
        fh.truncate()


def profile_rows(state, mat: MaterialParams):
    """Profile table on a 201-point grid including both ends, with delta
    as the solver's diagnostic defines it (raw at zero load).

    The generators on the grid come from one pass at exactly those points,
    as `eval_shape` makes it (`solver._generator_blocks`): the polynomial
    ones are kept per process, the steep ones change with p.
    """
    s = _PROFILE_S
    shape = _table_shape(state, s, _generator_blocks(state.spec, [s])[0])
    shape, l1, l2, t1, t2, delta = _defect_terms(state, mat, s, shape)
    return np.column_stack([s, shape.z, shape.r, shape.dz, shape.dr,
                            l1, l2, t1, t2, delta])


@cache
def _profile_template() -> str:
    """profile.csv with every s cell written and a slot for each other cell:
    eight as `_fmt` writes them, then delta.  Built once per process."""
    line = ",%.17g" * 8 + ",%.17e\n"
    return ("s,z,r,dz,dr,lambda1,lambda2,T1,T2,delta\n"
            + "".join("%.17g" % sp + line for sp in _PROFILE_S.tolist()))


def write_profile(path: Path, state, mat: MaterialParams) -> None:
    """Write `profile_rows` to `path`, in one `%` over the template's slots."""
    rows = profile_rows(state, mat)
    _write(path, _profile_template() % tuple(rows[:, 1:].ravel().tolist()),
           newline="")


def _report_dict(report, probes) -> dict:
    """report.json of a solve whose report carries the defect at `probes`
    (none if it failed)."""
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual_history": list(report.residual_history),
        "delta_max": report.delta_max,
        "delta_probes": [{"s": sp, "delta": dv}
                         for sp, dv in zip(probes, report.delta_at or [])],
        "final_p": list(report.final_p) if report.final_p else None,
        "message": report.message,
    }


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_solve(cfg: RunConfig) -> int:
    if cfg.c is None:
        raise ConfigError("solve needs a load value c")
    cfg.out.mkdir(parents=True, exist_ok=True)
    load = LoadParams(cfg.c, cfg.d)
    try:
        state, report = solve_membrane(cfg.mat, load, cfg.family, cfg.m,
                                       p=cfg.p, quad=cfg.quad, probe=cfg.probes)
    except SolveFailure as exc:
        failed = SolveReport(converged=False, iterations=0, residual_history=[],
                             message=str(exc))
        _write_json(cfg.out / "report.json", _report_dict(failed, cfg.probes))
        for name in ("solution.json", "profile.csv"):  # no state: no stale one
            (cfg.out / name).unlink(missing_ok=True)
        print(f"solve failed: {exc}", file=sys.stderr)
        return 3

    _write_json(cfg.out / "solution.json", {
        "x": [float(v) for v in state.x],
        "spec": {"family": state.spec.family, "m": state.spec.m,
                 "p": list(state.spec.p)},
        "load": {"c": load.c, "d": load.d},
        "material": {"gamma1": cfg.mat.gamma1, "gamma2": cfg.mat.gamma2,
                     "gamma3": cfg.mat.gamma3},
    })
    write_profile(cfg.out / "profile.csv", state, cfg.mat)
    _write_json(cfg.out / "report.json", _report_dict(report, cfg.probes))
    return 0


def run_convergence(cfg: RunConfig) -> int:
    if cfg.c is None:
        raise ConfigError("converge needs a load value c")
    m_lo = 1 if cfg.m_min is None else cfg.m_min
    m_hi = cfg.m if cfg.m_max is None else cfg.m_max
    if m_lo > m_hi:
        raise ConfigError("m_min must not exceed m_max")
    if len(cfg.probes) > 1:
        raise ConfigError(f"converge takes one probe, got {len(cfg.probes)}")
    probe = cfg.probes[0] if cfg.probes else 0.5
    cfg.out.mkdir(parents=True, exist_ok=True)
    load = LoadParams(cfg.c, cfg.d)
    header = "m,z,r,dz,dr,d2z,d2r,delta\n"
    any_ok = False
    sizes = range(m_lo, m_hi + 1)
    rungs = solve_ladder(cfg.mat, load, cfg.family, sizes, p=cfg.p,
                         quad=cfg.quad, probe=probe)
    lines = [header]
    for m, rung in zip(sizes, rungs):
        if isinstance(rung, SolveFailure):
            print(f"m = {m}: {rung}", file=sys.stderr)
            lines.append(f"{m}," + ",".join(["nan"] * 7) + "\n")
            continue
        state, report = rung
        any_ok = True
        cells = [_fmt(val) for val in report.shape_at]
        lines.append(f"{m}," + ",".join(cells) + f",{report.delta_at:.17e}\n")
    _write(cfg.out / "table.csv", "".join(lines), newline="")
    return 0 if any_ok else 3


def run_sweep(cfg: RunConfig) -> int:
    if cfg.c_start is None or cfg.c_end is None:
        raise ConfigError("sweep needs c_start and c_end")
    if cfg.c_step is not None and cfg.c_step <= 0.0:
        raise ConfigError("c_step must be positive")
    if not math.isfinite(cfg.c_end - cfg.c_start):
        raise ConfigError("c_end - c_start must be finite")
    cfg.out.mkdir(parents=True, exist_ok=True)
    header = "c,f,stability_hint\n"
    if cfg.c_start == cfg.c_end:
        _write(cfg.out / "loadsag.csv", header, newline="")
        return 0
    step = cfg.c_step
    if step is None:
        step = abs(cfg.c_end - cfg.c_start) / 20.0
    if cfg.family == "adaptive" and cfg.p is None:
        raise ConfigError("sweep on the steep family needs fixed p")
    try:
        ctx = SolveContext.create(cfg.mat, LoadParams(cfg.c_start, cfg.d),
                                  cfg.family, cfg.m, cfg.p, cfg.quad)
        points = continue_in_load(ctx, cfg.c_start, cfg.c_end,
                                  StepPolicy(initial=step))
    except SolveFailure as exc:
        (cfg.out / "loadsag.csv").unlink(missing_ok=True)  # no curve: no stale one
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 3
    _write(cfg.out / "loadsag.csv", header + "".join(
        f"{_fmt(pt.c_value)},{_fmt(pt.sag)},{pt.stability_hint}\n" for pt in points),
        newline="")
    return 0


def run_scale(cfg: RunConfig) -> int:
    missing = _SCALE_KEYS - set(cfg.scale)
    if missing:
        raise ConfigError(f"scale needs keys: {', '.join(sorted(missing))}")
    result = scale_inputs(**cfg.scale)
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if cfg.out != Path("results") or (cfg.out.exists() and cfg.out.is_dir()):
        cfg.out.mkdir(parents=True, exist_ok=True)
        _write(cfg.out / "scale.json", text + "\n")
    return 0


def _add_common(sub: argparse.ArgumentParser, config_required: bool) -> None:
    sub.add_argument("--config", required=config_required,
                     help="path to a key = value or JSON config file")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--quad", type=int, help="quadrature node count")
    sub.add_argument("--probe", action="append", type=float, default=None,
                     help="probe point in [0, 1]; repeatable")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ritzmem",
        description="Finite deformation of a clamped circular membrane "
                    "under hydrostatic load, by a Ritz expansion.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, helptext in (
        ("solve", "solve one load case"),
        ("converge", "basis ladder at one load"),
        ("sweep", "load sweep with fold traversal"),
    ):
        _add_common(sub.add_parser(verb, help=helptext), config_required=True)
    scale_p = sub.add_parser("scale", help="physical to dimensionless load")
    _add_common(scale_p, config_required=False)
    for key in sorted(_SCALE_KEYS):
        scale_p.add_argument(f"--{key.replace('_', '-')}", type=float,
                             dest=key, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = load_config(args.config) if args.config else {}
        # command line flags override file values and pass the same checks
        flags = {"out": args.out, "quad": args.quad, "probes": args.probe}
        flags.update((key, getattr(args, key, None)) for key in _SCALE_KEYS)
        raw.update((key, value) for key, value in flags.items() if value is not None)
        cfg = build_config(raw)
        if args.verb == "scale":
            return run_scale(cfg)
        if args.verb == "solve":
            return run_solve(cfg)
        if args.verb == "converge":
            return run_convergence(cfg)
        return run_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolveFailure as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
