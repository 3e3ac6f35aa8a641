"""Seeded inputs, item runners and correctness checks for the workloads.

Every workload is a *deck*: a fixed-size list of items generated from the
seed.  The timed phase walks the deck in order, cycling, one item in flight
at a time (a closed loop with a single client), so each item runs several
times per run.  Decks are ordered so that every prefix spreads over the
sampled ranges (the base-2 radical inverse of the cell index).

An item's outcome is one of three things:

* ``ok``: it converged and passed every check;
* a *stated failure*: the program said it could not solve (``SolveFailure``,
  ``converged=False`` or CLI exit code 3).  It counts against ``ok_frac``
  and throughput, but it is a correct answer, not a wrong one;
* *wrong*: the program claimed success but the output failed a check
  (non-finite values, a sag of the wrong sign, a defect that cannot be
  computed, an unexpected exception).  Any wrong item makes the run
  incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ritzmem import basis, cli, kinematics, material, quadrature, solver

GAS = material.MaterialParams(gamma1=0.02, gamma2=-0.015, gamma3=0.00025)
LIQ = material.MaterialParams(gamma1=0.1)

# Paper anchors: (values, second derivatives) at a probe point, in the order
# of the paper's tables, with the tolerances of the acceptance scorecard.
VAL_TOL = 5e-4
DERIV_TOL = 5e-3
GAS_M6_AT_02 = ((0.7926, 0.3069, 0.4362, 1.4757),    # z, r, -z', r'
                (2.0406, 0.8596))                    # -z'', -r''
LIQ_D10_AT_09 = ((0.36448, 0.17841, 0.90693, 0.99275),  # 10 z, -z', r, r'
                 (2.3461, 0.41404))                     # -z'', -r''



def radical_inverse(k: int) -> float:
    """Base-2 van der Corput value of k, in [0, 1)."""
    out, f = 0.0, 0.5
    while k:
        out += f * (k & 1)
        k >>= 1
        f *= 0.5
    return out


def balanced_order(n: int) -> list[int]:
    """Strata 0..n-1 in an order whose every prefix spreads over the range."""
    return sorted(range(n), key=lambda k: (radical_inverse(k), k))


def gas_like(rng, spread: float) -> material.MaterialParams:
    """Gas-type material with each coefficient jittered by up to +-spread."""
    j = 1.0 + spread * (2.0 * rng.random(3) - 1.0)
    return material.MaterialParams(GAS.gamma1 * j[0], GAS.gamma2 * j[1],
                                   GAS.gamma3 * j[2])


@dataclass
class Outcome:
    ok: bool
    wrong: str | None = None          # reason the output failed a check
    message: str = ""                 # stated-failure reason
    states: list = field(default_factory=list)   # (SolutionState, material)
    ident: object = None              # bit-identity key: coefficients or hashes


def digest(ident) -> str | None:
    """SHA-256 of an outcome's bit-identity key (coefficients or file hashes)."""
    if ident is None:
        return None
    if isinstance(ident, dict):
        return hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()
    a = np.ascontiguousarray(ident)
    return hashlib.sha256(f"{a.dtype}{a.shape}".encode() + a.tobytes()).hexdigest()


def _check_states(states) -> str | None:
    """Why the first bad state is wrong: non-finite coefficients, or a sag
    whose sign differs from the load's."""
    for st, _ in states:
        if not np.all(np.isfinite(st.x)):
            return "non-finite coefficients"
        c = st.load.c
        if c != 0.0 and not st.sag() * c > 0.0:
            return f"sag {st.sag():.3g} has the wrong sign for c = {c:.3g}"
    return None


def fold_count(c_values, sags) -> int:
    """Slope sign changes of the load-sag curve (two for the gas anchor)."""
    c = np.asarray(c_values, dtype=float)
    f = np.asarray(sags, dtype=float)
    df = np.diff(f)
    keep = df != 0.0
    slopes = np.sign(np.diff(c)[keep] / df[keep])
    slopes = slopes[slopes != 0]
    return int(np.count_nonzero(np.diff(slopes)))


def grid_defect(states) -> float:
    """Worst grid-max equilibrium defect over an item's states."""
    worst = 0.0
    for st, mat in states:
        if st.load.c == 0.0:
            continue
        _, dmax = solver.delta_diagnostic(st, mat)
        if not math.isfinite(dmax):
            return math.nan
        worst = max(worst, dmax)
    return worst


# --------------------------------------------------------------------------
# Library solves


def _solve(mat, load, family, m, probe) -> Outcome:
    try:
        state, rep = solver.solve_membrane(mat, load, family, m, probe=probe)
    except solver.SolveFailure as exc:
        return Outcome(False, message=str(exc))
    if not rep.converged:
        return Outcome(False, message=rep.message or "not converged")
    return Outcome(True, states=[(state, mat)], ident=state.x.copy())


def _sweep(mat, m, c_end, step) -> Outcome:
    ctx = solver.SolveContext(mat, kinematics.LoadParams(0.1),
                              basis.BasisSpec("polynomial", m),
                              quadrature.auto_rule("polynomial"))
    try:
        points = solver.continue_in_load(ctx, 0.1, c_end,
                                         solver.StepPolicy(initial=step))
    except solver.SolveFailure as exc:
        return Outcome(False, message=str(exc))
    states = [(basis.SolutionState(pt.x, ctx.spec, kinematics.LoadParams(pt.c_value)),
               mat) for pt in points]
    return Outcome(True, states=states, ident=np.concatenate([pt.x for pt in points]))


def check_states(outcome: Outcome) -> Outcome:
    """Untimed checks on a library item: finite coefficients, sag sign."""
    if outcome.ok:
        outcome.wrong = _check_states(outcome.states)
        outcome.ok = outcome.wrong is None
    return outcome


# --------------------------------------------------------------------------
# CLI calls


def _hash_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def _read_csv(path: Path) -> np.ndarray:
    return np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)


def _check_cli(verb: str, out: Path, mat) -> tuple[str | None, list]:
    """Check one CLI call's files; returns (wrong reason, states)."""
    if verb == "solve":
        report = json.loads((out / "report.json").read_text())
        sol = json.loads((out / "solution.json").read_text())
        if not report["converged"]:
            return "report.json says not converged after exit code 0", []
        spec = basis.BasisSpec(sol["spec"]["family"], sol["spec"]["m"],
                               tuple(sol["spec"]["p"]))
        load = kinematics.LoadParams(sol["load"]["c"], sol["load"]["d"])
        states = [(basis.SolutionState(np.array(sol["x"]), spec, load), mat)]
        profile = _read_csv(out / "profile.csv")
        if profile.shape[0] != cli.PROFILE_POINTS or not np.all(np.isfinite(profile)):
            return "profile.csv has missing or non-finite rows", states
        return _check_states(states), states
    if verb == "converge":
        table = _read_csv(out / "table.csv")
        if not np.all(np.isfinite(table)):
            return "table.csv has a failed basis size", []
        if not np.all(table[:, 1] > 0.0):
            return "table.csv has a sag of the wrong sign", []
        return None, []
    rows = _read_csv(out / "loadsag.csv")
    if not np.all(np.isfinite(rows)) or not np.all(rows[:, 1] * rows[:, 0] > 0.0):
        return "loadsag.csv has non-finite or wrong-sign rows", []
    return None, []


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Item:
    """One unit of work: a callable plus what its checks need."""

    label: str
    run: object                 # () -> Outcome: the program call, timed
    check: object = check_states  # (Outcome) -> Outcome: the checks, untimed


class Workload:
    """A seeded deck of items plus the item a fresh process warms up with.

    `build` returns the deck as groups of items that belong together (one
    ladder, for instance); the seed rotates the group order, so runs with
    different seeds start the walk at different places.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, _WORKLOAD_IDS[self.name]])
        groups = self.build()
        shift = seed % len(groups)
        self.deck: list[Item] = [it for g in groups[shift:] + groups[:shift] for it in g]

    def build(self) -> list[list[Item]]:
        raise NotImplementedError

    def warmup(self) -> Outcome:
        """Run the item a fresh process runs once during set-up."""
        raise NotImplementedError


def grid(n: int) -> np.ndarray:
    """Centres of n equal cells of [0, 1]."""
    return (np.arange(n) + 0.5) / n


def lattice(n: int, alpha: float) -> np.ndarray:
    """Fixed low-discrepancy points frac(k alpha + 1/2) in [0, 1)."""
    return (np.arange(n) * alpha + 0.5) % 1.0


class PolyLadder(Workload):
    """Cold polynomial solves, each draw climbed through m = 1..12.

    c sits on a fixed 32-point grid over [0.2, 1.7]; each draw's material is
    the gas material with every coefficient jittered by up to +-5 %.  A pass
    takes under two seconds, so each solve runs in several passes and its
    median run time rejects a run slowed by a neighbour.
    """

    name = "poly-ladder"
    draws = 32
    m_max = 12

    def build(self):
        c = 0.2 + 1.5 * grid(self.draws)
        mats = [gas_like(self.rng, 0.05) for _ in range(self.draws)]
        return [[Item(f"c={c[k]:.4f} m={m}",
                      lambda mat=mats[k], load=kinematics.LoadParams(float(c[k])), m=m:
                          _solve(mat, load, "polynomial", m, 0.2))
                 for m in range(1, self.m_max + 1)]
                for k in balanced_order(self.draws)]

    def warmup(self):
        return _solve(GAS, kinematics.LoadParams(1.7), "polynomial", 6, 0.2)


class SteepSearch(Workload):
    """Steep-family solves with the p search, across the whole d range.

    A fixed 40-point grid: d on log-spaced cell centres of [3, 5000], gamma1
    on [0.05, 0.2] and c on [0.2, 1.0] from two golden-ratio lattices.  The
    outcome is chaotic in the inputs (moving every input by a tenth of its
    cell flips several solves between success and a second-long failure),
    so seeded draws would move throughput from seed to seed by more than
    any useful bound; the seed only rotates the walk.
    """

    name = "steep-search"
    draws = 40

    def build(self):
        n = self.draws
        d = np.exp(math.log(3.0) + grid(n) * math.log(5000.0 / 3.0))
        g1 = 0.05 + 0.15 * lattice(n, 0.6180339887498949)
        c = 0.2 + 0.8 * lattice(n, 0.7548776662466927)
        groups = []
        for k in balanced_order(n):
            mat = material.MaterialParams(gamma1=float(g1[k]))
            load = kinematics.LoadParams(float(c[k]), float(d[k]))
            groups.append([Item(
                f"g1={mat.gamma1:.4f} c={load.c:.4f} d={load.d:.2f}",
                lambda mat=mat, load=load: _solve(mat, load, "adaptive", 6, 0.9))])
        return groups

    def warmup(self):
        return _solve(LIQ, kinematics.LoadParams(0.5, 10.0), "adaptive", 6, 0.9)


class FoldSweep(Workload):
    """Load continuation of the gas material from c = 0.1 through both folds.

    A fixed grid of m in {4, 6, 8, 10}, initial step in {0.05, 0.1} and five
    end loads on the cell centres of [1.9, 3.0]; like the steep search, the
    sweep's path is chaotic in its inputs, so the seed only rotates the walk.
    """

    name = "fold-sweep"
    sizes = (4, 6, 8, 10)
    steps = (0.05, 0.1)
    ends = 1.9 + 1.1 * grid(5)

    def build(self):
        cells = [(m, st, float(ce)) for ce in self.ends
                 for m in self.sizes for st in self.steps]
        return [[Item(f"m={m} step={st} c_end={ce:.4f}",
                      lambda m=m, st=st, ce=ce: _sweep(GAS, m, ce, st))]
                for m, st, ce in (cells[k] for k in balanced_order(len(cells)))]

    def warmup(self):
        return _sweep(GAS, 6, 1.9, 0.05)


class CliVerbs(Workload):
    """In-process CLI calls: solve (gas, liquid at fixed p), converge, sweep.

    Each round is four gas solves, two liquid solves, two converges and one
    sweep: solve is the common verb, and unequal shares keep the median and
    the tail inside one verb's times rather than on the gap between two.
    One sweep costs as much as fifteen solves, so there is one per round,
    which leaves time for enough passes that each item's median run time
    can reject a run slowed by the disk.
    The gas solve and converge configs are the README examples with every
    number jittered by up to +-1 %, on a Latin hypercube so that each
    seed's configs cover the box evenly.  The liquid solve (whose defect moves
    by a third under that jitter) and the sweep (whose path is chaotic in
    its inputs, see SteepSearch) take fixed inputs near the README and
    anchor configs: c on a grid over 0.5 +- 1 % for the liquid solve, and
    c_end on a grid over [1.9, 2.0] for the sweep, so no two calls of a
    pass share their inputs.  Gas configs are key = value text, the liquid
    one JSON, as in the README.
    """

    name = "cli-verbs"
    rounds = 6
    kinds = ("solve-gas", "solve-liquid", "solve-gas", "converge") * 2 + ("sweep",)

    def _jitters(self, n: int) -> np.ndarray:
        """n rows of four factors in 1 +- 1 %, a Latin hypercube: each
        column has one value in each of n equal strata."""
        u = (np.argsort(self.rng.random((4, n)), axis=1) + self.rng.random((4, n))) / n
        return (1.0 + 0.01 * (2.0 * u - 1.0)).T

    def _config(self, idx: int, kind: str, cell: float, jit) -> tuple[list, Path, object]:
        if kind == "solve-liquid":
            cfg = {"gamma1": LIQ.gamma1, "c": 0.495 + 0.01 * cell, "d": 10.0,
                   "family": "adaptive", "m": 6, "n": 1, "p": 17.1}
            path = self.workdir / "cfg" / f"{idx:03d}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            return ["solve", "--probe", "0.9"], path, LIQ
        if kind == "sweep":
            mat = GAS
            tail = ["m = 6", "c_start = 0.1", f"c_end = {1.9 + 0.1 * cell!r}"]
            args = ["sweep"]
        else:
            mat = material.MaterialParams(float(GAS.gamma1 * jit[0]),
                                          float(GAS.gamma2 * jit[1]),
                                          float(GAS.gamma3 * jit[2]))
            c = float(1.7 * jit[3])
            if kind == "solve-gas":
                tail = [f"c = {c!r}", "m = 6"]
                args = ["solve", "--probe", "0.2"]
            else:
                tail = [f"c = {c!r}", "m_min = 1", "m_max = 6"]
                args = ["converge", "--probe", "0.2"]
        lines = [f"gamma1 = {mat.gamma1!r}", f"gamma2 = {mat.gamma2!r}",
                 f"gamma3 = {mat.gamma3!r}", "family = polynomial"] + tail
        path = self.workdir / "cfg" / f"{idx:03d}.cfg"
        path.write_text("\n".join(lines) + "\n")
        return args, path, mat

    def build(self):
        (self.workdir / "cfg").mkdir(parents=True, exist_ok=True)
        count = {kind: self.rounds * self.kinds.count(kind) for kind in self.kinds}
        jitters = {kind: iter(self._jitters(count[kind])) for kind in ("solve-gas", "converge")}
        cells = {kind: iter(grid(count[kind])) for kind in ("solve-liquid", "sweep")}
        groups = []
        for r in range(self.rounds):
            group = []
            for j, kind in enumerate(self.kinds):
                idx = r * len(self.kinds) + j
                jit = next(jitters[kind]) if kind in jitters else None
                cell = float(next(cells[kind])) if kind in cells else None
                args, path, mat = self._config(idx, kind, cell, jit)
                out = self.workdir / "out" / f"{idx:03d}"
                group.append(self._item(f"{kind} {path.name}", args, path, out, mat))
            groups.append(group)
        return groups

    def _item(self, label, args, path, out, mat):
        verb = args[0]
        argv = [verb, "--config", str(path), "--out", str(out)] + args[1:]

        def run():
            rc = cli.main(argv)
            if rc == 3:
                return Outcome(False, message=f"{verb}: exit code 3")
            if rc != 0:
                return Outcome(False, wrong=f"{verb}: exit code {rc}")
            return Outcome(True)

        def check(outcome):
            if not outcome.ok:
                return outcome
            wrong, states = _check_cli(verb, out, mat)
            return Outcome(wrong is None, wrong=wrong, states=states,
                           ident=_hash_dir(out))

        return Item(label, run, check)

    def warmup(self):
        """A gas anchor solve, whose inputs no deck item shares."""
        path = self.workdir / "cfg" / "warmup.cfg"
        path.write_text(gas_anchor_config())
        item = self._item("warm-up", ["solve", "--probe", "0.2"], path,
                          self.workdir / "out" / "warmup", GAS)
        return item.check(item.run())


def gas_anchor_config() -> str:
    """The gas m = 6 anchor as a CLI config (key = value text)."""
    return (f"gamma1 = {GAS.gamma1}\ngamma2 = {GAS.gamma2}\n"
            f"gamma3 = {GAS.gamma3}\nc = 1.7\nfamily = polynomial\nm = 6\n")


WORKLOADS = {w.name: w for w in (PolyLadder, SteepSearch, FoldSweep, CliVerbs)}
_WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


# --------------------------------------------------------------------------
# Paper anchors


def _anchor_error(name, rep, got, want) -> list[str]:
    """[] if the solve converged within the tolerances, else the reason."""
    vdev = float(np.max(np.abs(np.array(got[0], dtype=float) - want[0])))
    ddev = float(np.max(np.abs(np.array(got[1], dtype=float) - want[1])))
    if rep.converged and vdev <= VAL_TOL and ddev <= DERIV_TOL:
        return []
    return [f"{name}: value dev {vdev:.1e} (tol {VAL_TOL}), "
            f"second-derivative dev {ddev:.1e} (tol {DERIV_TOL})"]


def check_anchors() -> list[str]:
    """The three paper anchors; returns the failures (empty if all hold)."""
    state, rep = solver.solve_membrane(GAS, kinematics.LoadParams(1.7),
                                       "polynomial", 6, probe=0.2)
    sh = basis.eval_shape(state, np.array(0.2), second=True)
    errors = _anchor_error("gas m=6 at s=0.2", rep,
                           ((sh.z, sh.r, -sh.dz, sh.dr), (-sh.d2z, -sh.d2r)),
                           GAS_M6_AT_02)
    state, rep = solver.solve_membrane(LIQ, kinematics.LoadParams(0.5, 10.0),
                                       "adaptive", 6, probe=0.9)
    sh = basis.eval_shape(state, np.array(0.9), second=True)
    errors += _anchor_error("liquid d=10 at s=0.9", rep,
                            ((10.0 * sh.z, -sh.dz, sh.r, sh.dr), (-sh.d2z, -sh.d2r)),
                            LIQ_D10_AT_09)
    ctx = solver.SolveContext(GAS, kinematics.LoadParams(0.1),
                              basis.BasisSpec("polynomial", 6),
                              quadrature.auto_rule("polynomial"))
    points = solver.continue_in_load(ctx, 0.1, 1.9)
    folds = fold_count([pt.c_value for pt in points], [pt.sag for pt in points])
    if folds != 2:
        errors.append(f"gas sweep 0.1->1.9: {folds} slope sign changes, want 2")
    return errors
