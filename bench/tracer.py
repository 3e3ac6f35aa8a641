"""Outside-in span tracer for the ritzmem layers.

The program has no tracing of its own, so the tracer replaces each public
function of the seven layer modules, in every module namespace that binds
it, with a wrapper that records a span.  A call from ``solver`` to
``residual`` looks the name up in ``ritzmem.solver``, so patching every
binding catches calls made across layers and within one.  Three more
boundaries are wrapped by hand: ``BasisTables.build`` (a classmethod) and
``numpy.linalg.solve`` / ``numpy.linalg.cond``, which the solver calls.

A span is ``[name id, start, end, parent span, item id, extra]``.  Spans
stay in memory until the run ends; ``write`` dumps them as CSV.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

LAYERS = ("material", "kinematics", "basis", "quadrature", "assembly", "solver", "cli")


def _newton_extra(out):
    _, rep = out
    return (rep.iterations, rep.converged)


def _sag_extra(out):
    _, _, rep = out
    return (rep.iterations, rep.converged)


def _optimize_extra(out):
    _, rep = out
    return (len(rep.inner_iterations),)


def _sweep_extra(out):
    return (len(out),)


# Return-value hooks: the work a call did that only its result shows.
EXTRA = {
    "solver.newton_solve": _newton_extra,
    "solver.solve_at_sag": _sag_extra,
    "solver.optimize_basis": _optimize_extra,
    "solver.continue_in_load": _sweep_extra,
}


class Tracer:
    """Records spans around the layer boundaries while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        extra = EXTRA.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public layer function in every ritzmem namespace."""
        import ritzmem
        from ritzmem.basis import BasisTables

        modules = {name: sys.modules[f"ritzmem.{name}"] for name in LAYERS}
        wrappers: dict[int, object] = {}
        for mod in (ritzmem, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("ritzmem.") or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[id(obj)])
        build = BasisTables.__dict__["build"]
        self._patch(BasisTables, "build",
                    classmethod(self._wrap("basis.tables_build", build.__func__)))
        self._patch(np.linalg, "solve", self._wrap("solver.linalg_solve", np.linalg.solve))
        self._patch(np.linalg, "cond", self._wrap("solver.linalg_cond", np.linalg.cond))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """Dump spans as CSV: name, start_s, end_s, parent, item, extra."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,item,extra\n")
            for nid, t0, t1, parent, item, extra in self.spans:
                ex = "" if extra is None else " ".join(str(v) for v in extra)
                fh.write(f"{self.names[nid]},{t0:.9f},{t1:.9f},{parent},{item},{ex}\n")

    def summary(self, keep=lambda item: True) -> dict:
        """Per span name: calls, inclusive and self seconds, extras, parents.

        Only spans whose item id passes `keep` are counted; self time is the
        span minus its direct children, which nest strictly in one thread.
        """
        n = len(self.spans)
        child = [0.0] * n
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict] = {}
        for i, (nid, t0, t1, parent, item, extra) in enumerate(self.spans):
            if not keep(item):
                continue
            name = self.names[nid]
            agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                        "extras": [], "under": {}})
            agg["calls"] += 1
            agg["incl_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child[i]
            if extra is not None:
                agg["extras"].append(extra)
            pname = self.names[self.spans[parent][0]] if parent >= 0 else ""
            agg["under"][pname] = agg["under"].get(pname, 0) + 1
        return out
