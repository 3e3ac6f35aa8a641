"""Newton solution and continuation drivers.

The discrete equilibrium g(x) = 0 is solved by plain Newton iteration on
the analytic tangent matrix.  An iterate within the tolerance whose hoop
stretch r/s is not positive at a node is not converged, so no driver
returns such a state.  Load sweeps follow the load-sag curve by
pseudo-arclength in the (c, f) plane (Keller 1977; Riks 1979): the load c
is an unknown of the corrector, bordered by a row normal to the secant of
the last two points, so the sweep passes limit points in c and turns in f
alike.  Every Newton solve, a fixed-load one, a continuation corrector or
an inner solve of the p search, runs the one loop `newton_solve`.

For the steep basis family the one profile parameter p1 is tuned by an
outer secant iteration that zeroes the energy gradient in p1; the energy
is unimodal in p1, so a golden-section scan backstops the secant.

A Newton solve evaluates its iterates through one `assembly.Evaluator`
and carries the load c as a number, so an iterate makes no state or load
object: its own evaluator, one of the two a sweep keeps for its
correctors, or one of the two a p search keeps, for its inner solves and
for the m = 1 solves of its cold starts.  The search reads the energy and
its gradient in p1 from its evaluator at each converged iterate.
`SolveContext.create` picks a family's basis and rule; every context takes
its tables from `basis._kept_tables`, which keeps the polynomial ones per
process.  There is one fixed-basis driver, `solve_ladder`; `solve_membrane`
is its one-size case.  It builds the fixed basis once, at the largest
size, solves the m = 1 start once (`initial_guess`, which every start
calls, a sweep's too), and runs each size, then the basis-size ladder on
failure, on views of those tables (`SolveContext.head`); the pole sag is
read from them.
The strong form has one pass, `_defect_terms`: each set of points (the
defect grid, the probes, the CLI's profile grid) takes its shape from its
block of one generator table, and the stretches, tensions, curvatures and
the defect, scaled by the load and raw at zero load, run once on the
joined shape.  It runs only where it is read: `solve_ladder` runs it once
per returned state, on the grid and at the probes, for the defect, the
defect at the probes and the shape there (`SolveReport.shape_at`).  A
fixed basis builds the generator table of that pass once per ladder, at
the largest size, and every size reads its first m rows; `basis` keeps the
polynomial ones per process (`basis._generator_blocks`).  This module keeps
nothing itself.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .assembly import Evaluator
from .basis import (P_MIN, BasisSpec, BasisTables, SolutionState, _generator_blocks,
                    _kept_tables, _shape, eval_shape)
from .kinematics import LoadParams, ShapeEval, curvatures, hydro_load, stretches
from .material import MaterialParams, principal_stresses
from .quadrature import MAX_NODES, MIN_NODES, QuadratureRule, auto_rule

DELTA_GRID = 101
_GRID = np.linspace(0.0, 1.0, DELTA_GRID + 2)[1:-1]
_SHAPE_FIELDS = ("z", "r", "dz", "dr", "d2z", "d2r")


class SolveFailure(RuntimeError):
    """Raised when no equilibrium could be reached for the request."""


@dataclass
class SolveContext:
    """Bundle of everything a solve needs; the tables are
    `basis._kept_tables(spec, rule)` unless given."""

    mat: MaterialParams
    load: LoadParams
    spec: BasisSpec
    rule: QuadratureRule
    tables: BasisTables = field(default=None, repr=False)

    def __post_init__(self):
        if self.tables is None:
            self.tables = _kept_tables(self.spec, self.rule)

    @classmethod
    def create(cls, mat: MaterialParams, load: LoadParams, family: str, m: int,
               p=(), quad: int | None = None) -> "SolveContext":
        """Context of a family's basis on its `auto_rule`: the steep rule
        follows p1 = p[0], and the polynomial family drops p.  A p1 too
        steep for the rule's nodes in double precision is a `SolveFailure`."""
        if family == "polynomial":
            return cls(mat, load, BasisSpec(family, m), auto_rule(family, n=quad))
        spec = BasisSpec(family, m, p)
        try:
            rule = auto_rule(family, spec.p[0], quad)
        except ValueError as exc:
            if quad is not None and not MIN_NODES <= quad <= MAX_NODES:
                raise
            raise SolveFailure(f"quadrature fails at p1 = {spec.p[0]:g}: {exc}") from exc
        return cls(mat, load, spec, rule)

    def with_load(self, c: float) -> "SolveContext":
        """The same problem at the load c, on the same tables."""
        return SolveContext(self.mat, LoadParams(c, self.load.d), self.spec,
                            self.rule, self.tables)

    def head(self, k: int) -> "SolveContext":
        """The same problem on the first k generators, on views of the
        tables; the context itself at its own size."""
        if k == self.spec.m:
            return self
        return SolveContext(self.mat, self.load,
                            BasisSpec(self.spec.family, k, self.spec.p),
                            self.rule, self.tables.head(k))

    def sag(self, x) -> float:
        """Pole deflection z(0) of the coefficients x, from the tables."""
        return float(x[: self.spec.m] @ self.tables.u0)


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_history: list
    delta_max: float | None = None
    delta_at: float | list | None = None
    shape_at: tuple | None = None
    final_p: tuple | None = None
    inner_iterations: list | None = None
    message: str = ""


@dataclass
class ContinuationPoint:
    c_value: float
    sag: float
    x: np.ndarray
    stability_hint: int = 0


def _points(probes) -> np.ndarray:
    """Probe points, a number, an array or any iterable of numbers, as a
    flat float array: the one reading of a probe for every defect read.  A
    point that is not in [0, 1], NaN and inf included, raises `ValueError`
    naming it: it is not on the membrane, so it has no defect."""
    if isinstance(probes, Iterator):  # a generator, say, read once
        probes = list(probes)
    points = np.ravel(np.asarray(probes, dtype=float))
    for sp in points.tolist():
        if not 0.0 <= sp <= 1.0:  # NaN fails the comparison too
            raise ValueError(f"probe {sp} outside [0, 1]")
    return points


def _defect_terms(state: SolutionState, mat: MaterialParams, sets, table=None):
    """Shape, stretches, tensions and the equilibrium defect at the points
    of each array in `sets`: the one strong-form pass of every diagnostic.

    Each set takes its shape from the first m rows of its block of `table`,
    a generator table at the basis of `state` or at a larger size of it,
    one block per set as `_generator_blocks` gives it (that of
    `state.spec` at `sets` if none is given).  Row k of the generators is
    the same at every size m >= k, and the first k rows of a C-contiguous
    block are C-contiguous, so a table built at a larger size gives the
    bits of one built at m: the last bit of a matvec depends on the layout
    of the table it runs on.  The stretches, tensions and curvatures then
    run once, on the joined shape.  Returns (shape, lambda1, lambda2, T1,
    T2, delta) at the joined points, with the defect of the normal
    equilibrium scaled by the load, delta = |k1 T1 + k2 T2 - Q| / |c|; at
    zero load there is no scale and delta is the raw defect.  The pole uses
    the limit values of lambda2 and k2.
    """
    if table is None:
        table = _generator_blocks(state.spec, sets)
    blocks = [_shape(state, s, [g[:state.spec.m] for g in gen], second=True)
              for s, gen in zip(sets, table)]
    shape = ShapeEval(*(np.concatenate([getattr(b, f) for b in blocks])
                        for f in _SHAPE_FIELDS))
    s = np.concatenate(sets)
    l1, l2, _ = stretches(s, shape.r, shape.dz, shape.dr, pole_limit=True)
    t1, t2 = principal_stresses(l1, l2, mat)
    k1, k2 = curvatures(s, shape)
    c = state.load.c
    defect = np.abs(k1 * t1 + k2 * t2 - hydro_load(shape.z, c, state.load.d))
    return shape, l1, l2, t1, t2, defect / abs(c) if c != 0.0 else defect


def delta_diagnostic(state: SolutionState, mat: MaterialParams, probes=()):
    """Equilibrium defect at the probes and over the interior grid.

    Returns (delta at each probe, max over a 101-point interior grid), with
    delta as in `_defect_terms`, from one pass over the grid and the probes.
    `probes` is one point or any iterable of points, as `solve_membrane`
    takes it; a probe outside [0, 1] raises `ValueError`.
    """
    delta = _defect_terms(state, mat, (_GRID, _points(probes)))[-1]
    return delta[DELTA_GRID:], float(np.max(delta[:DELTA_GRID]))


# Newton converges at a residual max-norm of NEWTON_TOL, within
# NEWTON_MAX_ITER steps; a continuation corrector has its own rules below.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25


def newton_solve(x0, ctx: SolveContext, border: tuple | None = None,
                 corrector: bool = False, *, evaluator: Evaluator | None = None):
    """Newton iteration on g(x; c) = 0 from x0 at the load of `ctx`.

    With `border = (a, b, rhs)` the load c is an unknown too: the system is
    bordered by the row a (e.x) + b c = rhs, where e.x is the pole sag, and
    the column dg/dc, starting from c of `ctx`.  Stops on the max-norm of
    the (bordered) residual.  Divergence (three consecutive residual
    increases), non-finite iterates and NEWTON_MAX_ITER steps without
    convergence abort with converged=False; callers decide whether that is
    fatal.  A `corrector` (a continuation step) gets CORRECTOR_ITERS steps
    and aborts once a residual exceeds CONTRACTION times the last one.  An
    iterate within the tolerance whose hoop stretch lambda2 = r/s is not
    positive at some node has a radius that turns negative, no membrane's:
    it is not converged.  A given `evaluator` runs the iterates, given the
    border and pointed at the tables of `ctx` (`Evaluator.use`); one of
    another rule (other node or weight arrays), basis size, material, d or
    border mode is a ValueError.

    Returns (state, report); the equilibrium defect is left to
    `solve_membrane`.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    c = ctx.load.c
    ev = evaluator or Evaluator(ctx.tables, ctx.mat, ctx.load.d, border)
    if evaluator is not None:
        t = ev.tables
        if (t.s is not ctx.tables.s or t.w is not ctx.tables.w or ev.m != ctx.spec.m
                or ev.mat != ctx.mat or ev.d != ctx.load.d
                or (ev.border is None) != (border is None)):
            raise ValueError("the evaluator is not of this context's rule, size, "
                             "material, d and border mode")
        ev.use(ctx.tables)
        if border is not None:
            ev.set_border(border)
    hist: list[float] = []
    converged = False
    message = ""
    growth = 0
    steps = 0
    while True:
        ev.at(x, c)
        g = ev.residual()
        gn = float(np.abs(g).max())  # NaN or inf if any entry is
        if not math.isfinite(gn):
            hist.append(math.inf)
            message = "residual not finite"
            break
        hist.append(gn)
        if gn <= NEWTON_TOL:
            l2_min = float(ev.l2.min())
            converged = l2_min > 0.0
            if not converged:
                message = f"lambda2 = r/s down to {l2_min:.6g} <= 0 at c = {c}"
            break
        if corrector and len(hist) > 1 and gn > CONTRACTION * hist[-2]:
            message = "residual not halving"
            break
        if len(hist) > 1 and gn > hist[-2]:
            growth += 1
            if growth >= 3:
                message = "residual diverging"
                break
        else:
            growth = 0
        if steps >= (CORRECTOR_ITERS if corrector else NEWTON_MAX_ITER):
            message = "max_iter exceeded"
            break
        h = ev.tangent()
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            message = "singular tangent matrix"
            break
        x = x - step[:n]
        c_next = c - float(step[n]) if border is not None else c
        steps += 1
        if not (np.isfinite(x).all() and math.isfinite(c_next)):
            message = "iterate not finite"
            break
        c = c_next

    report = SolveReport(
        converged=converged,
        iterations=steps,
        residual_history=hist,
        final_p=ctx.spec.p if ctx.spec.family == "adaptive" else None,
        message=message,
    )
    load = ctx.load if border is None else LoadParams(c, ctx.load.d)
    return SolutionState(x, ctx.spec, load), report


def _resize(x, k: int) -> np.ndarray:
    """x with its u and v halves truncated or zero-padded to k entries."""
    m = len(x) // 2
    out = np.zeros((2, k))
    out[:, :min(m, k)] = np.reshape(x, (2, m))[:, :k]
    return out.ravel()


def initial_guess(ctx: SolveContext, *, evaluator: Evaluator | None = None) -> np.ndarray:
    """Starting coefficients from the two-unknown (m = 1) subproblem, as
    components 1 and m+1 of the full vector.

    Row 1 of the tables is the same for every basis size, so every size of
    one (material, load, family, p, rule) shares this start.  The m = 1
    solve is seeded so the pole moves with the load (positive c, positive
    sag), on `evaluator` if given (`newton_solve`).  If it fails, or its sag
    has the wrong sign, `SolveFailure` names c, why the m = 1 solve was
    rejected and its last residual.  At zero load the guess is zero,
    without a solve.
    """
    c = ctx.load.c
    if c == 0.0:
        return np.zeros(2 * ctx.spec.m)
    sub = ctx.head(1)
    u0 = float(sub.tables.u0[0])
    if u0 == 0.0:
        raise SolveFailure("degenerate basis: u_1(0) = 0")
    sag0 = math.copysign(min(0.5, abs(c) / (1.0 + ctx.load.d)), c)
    seed = np.array([sag0 / u0, 0.0])

    state, rep = newton_solve(seed, sub, evaluator=evaluator)
    if not (rep.converged and sub.sag(state.x) * c > 0.0):
        why = rep.message or "sag of the wrong sign"
        raise SolveFailure("could not start from the small-system guess "
                           f"(c = {c:g}: {why}, {_last_residual(rep)})")
    return _resize(state.x, ctx.spec.m)


def _last_residual(rep) -> str:
    """The last residual norm of a Newton solve, for a failure message."""
    return f"last residual {rep.residual_history[-1]:.3g}"


# Continuation step control.  A sweep follows its load-sag curve by
# pseudo-arclength in the (c, f) plane: each step advances ds along the
# secant of the last two points, the first one along c, and corrects with c
# an unknown on the line normal to that secant.  A corrector fails after
# CORRECTOR_ITERS iterations or as soon as a residual exceeds CONTRACTION
# times the last one.  A failed step halves ds, and one below MIN_STEP fails
# the sweep; after EASY_STREAK corrections of at most EASY_ITERS iterations
# each, ds doubles, up to MAX_STEP.  A step whose predicted c passes c_end
# lands on c_end instead, with a fixed-load corrector from the secant
# extrapolation, and a point corrected past c_end is a failed step.  A sweep
# stops at c_end, after a point with |f| > MAX_SAG, or at MAX_POINTS points.
MIN_STEP = 1e-6
MAX_STEP = 0.35
EASY_ITERS = 4
EASY_STREAK = 2
CORRECTOR_ITERS = 8
CONTRACTION = 0.5
MAX_POINTS = 2000
MAX_SAG = 8.0


@dataclass
class StepPolicy:
    """Continuation step control: the first arclength step."""

    initial: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.initial) and self.initial > 0.0):
            raise ValueError(
                f"initial step must be positive and finite, got {self.initial}")


def _hints(points: list[ContinuationPoint]) -> None:
    """Sign of dc/df to the next point (from the previous one at the end);
    a lone point keeps hint 0."""
    for i, pt in enumerate(points if len(points) > 1 else []):
        j = min(i, len(points) - 2)
        df = points[j + 1].sag - points[j].sag
        dc = points[j + 1].c_value - points[j].c_value
        pt.stability_hint = int(np.sign(dc / df)) if df != 0.0 else 0


def continue_in_load(ctx: SolveContext, c_start: float, c_end: float,
                     policy: StepPolicy | None = None):
    """Sweep the load from c_start toward c_end, returning the whole path.

    Points are (c, sag, x) with a stability hint from the local slope
    dc/df; the first is the state `solve_membrane` returns at c_start.  The
    path is followed by arclength, so past a fold the load values along it
    are not monotone.  From c_start = 0 the first step starts from
    `initial_guess` at its load, since the flat state's tangent is singular.
    Its correctors share two evaluators, made for it: arclength and landing.
    """
    policy = policy or StepPolicy()
    direction = 1.0 if c_end >= c_start else -1.0
    first = ctx.with_load(c_start)
    state, _ = _solve_fixed_basis(first, initial_guess(first))
    points = [ContinuationPoint(c_start, ctx.sag(state.x), state.x.copy())]
    ds = min(max(policy.initial, MIN_STEP), MAX_STEP)
    easy = 0
    arc = Evaluator(ctx.tables, ctx.mat, ctx.load.d, (0.0, 0.0, 0.0))
    landing = Evaluator(ctx.tables, ctx.mat, ctx.load.d)
    while (len(points) < MAX_POINTS and points[-1].c_value != c_end
           and abs(points[-1].sag) <= MAX_SAG):
        last = points[-1]
        if len(points) > 1:
            prev = points[-2]
            sigma = math.hypot(last.c_value - prev.c_value, last.sag - prev.sag)
            tc = (last.c_value - prev.c_value) / sigma
            tf = (last.sag - prev.sag) / sigma
            dx = (last.x - prev.x) / sigma
        else:
            tc, tf, dx = direction, 0.0, 0.0
        if direction * (last.c_value + ds * tc - c_end) > 0.0:  # a landing
            x, c, border = last.x + (c_end - last.c_value) / tc * dx, c_end, None
        else:
            x, c = last.x + ds * dx, last.c_value + ds * tc
            border = (tf, tc, tf * last.sag + tc * last.c_value + ds)
        if c_start == 0.0 and len(points) == 1:
            x = initial_guess(ctx.with_load(c))
        state, rep = newton_solve(x, ctx.with_load(c), border, corrector=True,
                                  evaluator=landing if border is None else arc)
        if rep.converged and direction * (state.load.c - c_end) <= 0.0:
            points.append(ContinuationPoint(state.load.c, ctx.sag(state.x),
                                            state.x.copy()))
            easy = easy + 1 if rep.iterations <= EASY_ITERS else 0
            if easy >= EASY_STREAK:
                ds, easy = min(2.0 * ds, MAX_STEP), 0
        else:
            ds, easy = 0.5 * ds, 0
            if ds < MIN_STEP:
                raise SolveFailure(f"arclength continuation stalled at c = "
                                   f"{last.c_value}, f = {last.sag}")

    _hints(points)
    return points


def init_p1(prev: SolutionState | None, mat: MaterialParams,
            load: LoadParams) -> float:
    """Starting steepness from the edge balance of a previous solution.

    p1 ~ sqrt(d * lambda1**2 |cos alpha| / T1) evaluated at s = 1, which
    matches the boundary-layer width the profile must resolve.  Without a
    usable previous state, fall back to sqrt(d).  Like every step of the p
    search, it is at least P_MIN, below which the generators degenerate.
    """
    if load.d <= 0.0:
        raise ValueError("steep family needs d > 0; use the polynomial family")
    p1 = math.sqrt(load.d)
    if prev is not None:
        shape = eval_shape(prev, np.array(1.0))
        l1 = float(np.hypot(shape.dz, shape.dr))
        t1 = float(principal_stresses(l1, 1.0, mat)[0])
        if t1 > 1e-12 and l1 > 0.0:
            cos_a = abs(float(shape.dr)) / l1
            p1 = math.sqrt(load.d * l1 * l1 * cos_a / t1)
    return max(P_MIN, p1)


# The p search stops at an energy gradient of P_TOL relative to the energy,
# within MAX_OUTER secant steps; the golden-section backstop narrows its
# bracket to GOLDEN_REL_TOL within GOLDEN_MAX_ITER steps.
P_TOL = 1e-6
MAX_OUTER = 40
GOLDEN_REL_TOL = 1e-4
GOLDEN_MAX_ITER = 60


def _golden_min(fun, a: float, b: float) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(GOLDEN_MAX_ITER):
        if (b - a) <= GOLDEN_REL_TOL * max(1.0, abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fun(x2)
    return 0.5 * (a + b)


def optimize_basis(ctx: SolveContext):
    """Tune the steepness p1 of the steep family to the energy-stationary point.

    Inner loop: Newton on the coefficients at fixed p1, from the
    small-system guess at the spec's p1, then warm-started from the best
    accepted parameter value.  Outer loop: secant on the energy gradient in
    p1, with steps clamped to half the current value.  If the secant stalls
    the unimodal energy is bracketed by a golden-section scan instead.  The
    spec must carry exactly one parameter.  Returns the chosen state with
    the report of the Newton solve that produced it.

    Every inner solve runs on one evaluator made for the search, pointed
    at the tables of its p, and every cold start's m = 1 solve on one more;
    the energy and its gradient in p1 are read from the first at the
    converged iterate.  A failed cold start after a failed warm solve fails
    that inner solve, with no state and the start's reason as its message.
    """
    if ctx.spec.family != "adaptive":
        raise ValueError("basis optimization applies to the steep family only")
    if ctx.spec.n_p != 1:
        raise ValueError("basis optimization tunes exactly one steepness parameter")
    inner_counts: list[int] = []
    ev = Evaluator(ctx.tables, ctx.mat, ctx.load.d)
    start = Evaluator(ctx.tables.head(1), ctx.mat, ctx.load.d)

    def inner(p1, x_warm):
        c = ctx if p1 == ctx.spec.p[0] else SolveContext(
            ctx.mat, ctx.load, ctx.spec.with_p((p1,)), ctx.rule)
        xw = x_warm if x_warm is not None else initial_guess(c, evaluator=start)
        st, rep = newton_solve(xw, c, evaluator=ev)
        if not rep.converged and x_warm is not None:
            try:
                st, rep = newton_solve(initial_guess(c, evaluator=start), c, evaluator=ev)
            except SolveFailure as exc:  # no state, and the start's reason
                st, rep.message = None, str(exc)
        return st, rep

    def measures():
        return ev.p_gradient()[0], ev.functional_value()

    p = ctx.spec.p[0]
    state, rep = inner(p, None)
    if not rep.converged:
        raise SolveFailure("inner solve failed at the starting parameters "
                           f"(p1 = {p:g}: {rep.message}, {_last_residual(rep)})")
    inner_counts.append(rep.iterations)
    psi, val = measures()

    # The energy is extremely flat in p (|dI/dp| ~ 1e-7 |I| per unit p in the
    # steep regime), so the gradient threshold alone fires far from the
    # stationary point.  Convergence additionally requires the predicted
    # root step to collapse below step_tol relative to p itself.
    step_tol = 1e-3

    def done(psi1, value):
        return abs(psi1) <= P_TOL * max(1.0, abs(value))

    # The warm-started inner Newton can slide onto a different root of g at
    # an aggressive p step (degenerate near-flat shapes also solve g = 0 and
    # have psi ~ 0, which would fool the stop test).  Since the search
    # descends a unimodal energy, any iterate whose value climbs past the
    # incumbent by more than secant overshoot is such a slide: reject it.
    def slid(value):
        return value > best_val + max(1e-6 * abs(best_val), 1e-14)

    best_val, best_state, best_rep = val, state, rep
    p_prev, psi_prev = p, psi
    p = max(P_MIN, p * 1.05)

    stalled = False
    for _ in range(MAX_OUTER):
        state, rep = inner(p, best_state.x)
        bad = not rep.converged
        if not bad:
            psi, val = measures()
            bad = slid(val)
        if bad:
            p_bad = p
            p = 0.5 * (p + p_prev)
            if abs(p - p_bad) <= step_tol * step_tol:
                stalled = True
                break
            continue
        inner_counts.append(rep.iterations)
        if val < best_val:
            best_val, best_state, best_rep = val, state, rep
        denom = psi - psi_prev
        if denom == 0.0 or p == p_prev:
            stalled = not done(psi, val)
            break
        step = -psi * (p - p_prev) / denom
        if abs(step) <= step_tol * max(1.0, p) and done(psi, val):
            break
        step = float(np.clip(step, -0.5 * p, 0.5 * p))
        p_prev, psi_prev = p, psi
        p = max(P_MIN, p + step)
    else:
        stalled = True

    if stalled:
        # Energy along p1 is unimodal, so a bracket scan around the best
        # accepted point always lands.
        def en(p1):
            rp = inner(p1, best_state.x)[1]
            if not rp.converged:
                return math.inf
            inner_counts.append(rp.iterations)
            return ev.functional_value()

        p_mid = best_state.spec.p[0]
        p = _golden_min(en, max(P_MIN, p_mid / 3.0), 3.0 * p_mid)
        state, rep = inner(p, best_state.x)
        if not rep.converged:
            why = "" if state is not None else f" at p1 = {p:g}: {rep.message}"
            raise SolveFailure("p search could not recover" + why)
        inner_counts.append(rep.iterations)
        if slid(ev.functional_value()):
            state, rep = best_state, best_rep

    rep.inner_iterations = inner_counts
    return state, rep


def _solve_fixed_basis(ctx: SolveContext, start):
    """Newton from the m = 1 start, then the basis-size ladder.

    `start` is the start of `ctx` as `initial_guess` gives it, at any basis
    size, or the `SolveFailure` it raised.  High m shrinks the Newton basin
    faster than the m = 1 start can cover, so on failure m climbs from 2,
    each size started from the last one.  The report carries no
    equilibrium defect.
    """
    if isinstance(start, SolveFailure):  # a copy keeps `start` traceback-free
        raise SolveFailure(*start.args)
    x = _resize(start, ctx.spec.m)
    state, rep = newton_solve(x, ctx)
    if rep.converged:
        return state, rep
    for mm in range(2, ctx.spec.m + 1):
        state, rep = newton_solve(_resize(x, mm), ctx.head(mm))
        if not rep.converged:
            break
        x = state.x
    if not rep.converged:
        raise SolveFailure(f"no convergence at c = {ctx.load.c} while stepping m"
                           f" (failed at m = {state.spec.m}): {rep.message}")
    return state, rep


def solve_membrane(mat: MaterialParams, load: LoadParams, family: str, m: int,
                   p=None, quad: int | None = None, probe=None):
    """One-call driver: pick rule, build guess, solve, tune p if steep.

    Returns (state, report).  For the steep family without fixed p the
    starting steepness comes from a polynomial predictor solve at the same
    load; optimization then zeroes the energy gradient in p1.  The report of
    a converged solve carries the equilibrium defect of the returned state,
    from one strong-form pass: its grid maximum `delta_max` (the bits of
    `delta_diagnostic`) and, if `probe` is given, `delta_at` there, a float
    for one point and a list for a sequence of points (an iterator is read
    once, as a list), and the shape there, `shape_at` = (z, r, z', r', z'',
    r''), each entry a float or a list in the same way.  A solve that
    does not converge, a state whose hoop stretch r/s is not positive at a
    node included, raises `SolveFailure`, and a probe that is not a point
    of [0, 1], NaN and inf included, `ValueError`.  It is `solve_ladder` at
    the one size m.
    """
    out = solve_ladder(mat, load, family, [m], p, quad, probe)[0]
    if isinstance(out, SolveFailure):  # a copy keeps `out` traceback-free
        raise SolveFailure(*out.args)
    return out


def solve_ladder(mat: MaterialParams, load: LoadParams, family: str, sizes,
                 p=None, quad: int | None = None, probe=None):
    """`solve_membrane` at each basis size m in `sizes`, one load.

    Returns one entry per size, in order: (state, report) exactly as
    `solve_membrane` returns them at that m, or the `SolveFailure` it
    raises.  The fixed basis (the steep family's polynomial predictor, if p
    is searched) is built once, at the largest size, and every size solves
    on its first m generators (`SolveContext.head`).  The m = 1 start does
    not depend on m, so it is solved once (`initial_guess`) and shared by
    every size.  A start that fails does at every size what it does one
    size at a time: it fails a fixed basis, and leaves a p search without
    its predictor.  Each returned state gets one strong-form pass
    (`_defect_terms`) over the defect grid and the probes, which gives
    `delta_max`, `delta_at` and `shape_at` alike.  A fixed basis builds the
    generator table of that pass once, at the largest size when the first
    size converges, and every converged size reads its first m rows; a
    searched p builds a table per converged size, on its own p.  A
    polynomial table is kept per process, so a later ladder or solve at the
    same size and probes evaluates no generator.
    A probe that is not a point of [0, 1] raises `ValueError` before any
    solve.
    """
    # an iterator is read once, so its list gives the shape of the results
    probe = list(probe) if isinstance(probe, Iterator) else probe
    sets = (_GRID, _points(() if probe is None else probe))
    sizes = list(sizes)
    if not sizes:
        return []
    fixed = family == "polynomial" or p is not None
    try:
        top = SolveContext.create(mat, load, family if fixed else "polynomial",
                                  max(sizes), p if fixed else None, quad)
    except SolveFailure as exc:  # a steepness beyond the rule's nodes
        return [exc] * len(sizes)
    # a failure kept as a value has no traceback: its frames, which hold
    # it and the tables, would make a reference cycle
    try:
        start = initial_guess(top)
    except SolveFailure as exc:
        start = exc.with_traceback(None)
    table = None
    results = []
    for m in sizes:
        try:
            if fixed:
                state, rep = _solve_fixed_basis(top.head(m), start)
            else:
                try:
                    prev, _ = _solve_fixed_basis(top.head(m), start)
                except SolveFailure:
                    prev = None
                state, rep = optimize_basis(SolveContext.create(
                    mat, load, family, m, (init_p1(prev, mat, load),), quad))
        except SolveFailure as exc:
            results.append(exc.with_traceback(None))
            continue
        if table is None or not fixed:
            table = _generator_blocks(top.spec if fixed else state.spec, sets)
        shape, *_, delta = _defect_terms(state, mat, sets, table)
        rep.delta_max = float(np.max(delta[:DELTA_GRID]))
        if probe is not None:  # delta, then the shape, at the probes
            at = [delta, *(getattr(shape, f) for f in _SHAPE_FIELDS)]
            at = np.reshape([v[DELTA_GRID:] for v in at], (7, *np.shape(probe))).tolist()
            rep.delta_at, rep.shape_at = at[0], tuple(at[1:])
        results.append((state, rep))
    return results
