#!/usr/bin/env python3
"""ritzmem benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload poly-ladder --seed 1 --seconds 16 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout; nothing is installed.  The run

1. checks the three paper anchors, failing loudly if any is off;
2. with ``--trace 0``, times the set-up (import, input generation, one
   warm-up item) in fresh processes and keeps the median; then walks the
   seeded deck for ``--seconds`` of item time with one item in flight,
   each pass over the deck in a fresh process, and reports the end-to-end
   metrics;
   with ``--trace 1``, walks it in this process for half the time untraced
   and half traced, checks that tracing leaves results bit-identical, and
   reports the per-layer metrics and the layer micro-table;
3. prints one JSON object as the last line of standard output, and exits
   with 1 if any check failed.

A pass runs in a fresh process so that no run of a deck item can reuse
anything a program kept from an earlier run of the same inputs: every
timed run is the traffic of a new request.

Times are calibrated seconds (see calibrate.py).  BLAS and OpenMP are
pinned to one thread before numpy is imported.  Spans and per-run details
go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.8, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: do only the set-up work, then exit")
    ap.add_argument("--pass-worker", type=int, metavar="N",
                    help="internal: run pass N over the deck, print its records")
    ap.add_argument("--workdir", type=Path,
                    help="internal: the scratch directory of the run this pass belongs to")
    return ap.parse_args(argv)


def import_program():
    """Pin threads, then import ritzmem from this checkout's src/."""
    for var in PINNED:
        os.environ[var] = "1"
    if not (SRC / "ritzmem" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'ritzmem'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ritzmem
    if Path(ritzmem.__file__).resolve().parent != (SRC / "ritzmem").resolve():
        sys.exit(f"bench: imported ritzmem from {ritzmem.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in PINNED},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def child(args, *flags: str) -> subprocess.CompletedProcess:
    """Run this script in a fresh process with `flags` and the run's arguments."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *flags,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"bench: {flags[0]} child failed ({proc.returncode}): "
                 f"{proc.stderr.strip()}")
    return proc


# --------------------------------------------------------------------------
# Timed phase


@dataclass
class Rec:
    """One timed run of a deck item."""

    k: int                  # deck index
    s: float                # calibrated seconds
    wall: float             # wall seconds
    ok: bool
    wrong: str | None       # why the output failed a check
    message: str            # stated-failure reason
    ident: str | None       # digest of the result, for the bit-identity check
    defect: float | None    # grid-max defect, if computed


def timed_phase(deck, seconds: float, cal, tracer=None, min_runs: int = 0,
                max_runs: int | None = None, defects: bool = False) -> list[Rec]:
    """Closed loop over the deck, cycling, one item in flight.

    Stops once the item time reaches `seconds` and `min_runs` runs are
    done, or after `max_runs` runs.  Only the program call is timed, less
    the calibration probes that interrupt it; the checks and the defect of
    each item's first run (with `defects`) run between items.
    """
    from workloads import Outcome, digest, grid_defect

    raw = []
    busy = 0.0
    i = 0
    with cal:
        while (busy < seconds or i < min_runs) and (max_runs is None or i < max_runs):
            k = i % len(deck)
            item = deck[k]
            if tracer is not None:
                tracer.item = i
            spent = cal.spent
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # an unexpected error is a wrong answer
                out = Outcome(False, wrong=f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            dt = t1 - t0 - (cal.spent - spent)
            if tracer is not None:
                tracer.item = -1
            out = item.check(out)
            defect = grid_defect(out.states) if defects and i < len(deck) and out.ok else None
            busy += dt
            raw.append((k, t0, t1, dt, out, defect))
            i += 1
    cal.probe()
    return [Rec(k, dt / cal.factor(t0, t1), dt, out.ok, out.wrong, out.message,
                digest(out.ident), defect)
            for k, t0, t1, dt, out, defect in raw]


def identity_errors(records: list[Rec], deck) -> list[str]:
    """Every run of a deck item must give a bit-identical result."""
    seen: dict[int, str] = {}
    errors = []
    for r in records:
        if r.ident is None:
            continue
        ref = seen.setdefault(r.k, r.ident)
        if ref != r.ident:
            errors.append(f"item {r.k} ({deck[r.k].label}) differs between repetitions")
    return errors


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    It is a weighted mean of all order statistics, so on a few dozen item
    costs with a few per cent of noise each it moves far less than the one
    or two order statistics a plain percentile reads.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q])[0])


def tail(times_ms):
    """(value, percentile, samples beyond) at the highest ladder percentile
    that leaves at least ten samples beyond it."""
    n = len(times_ms)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    value = quantile(times_ms, pct / 100.0)
    return value, pct, sum(1 for t in times_ms if t > value)


# --------------------------------------------------------------------------
# Children: set-up probes and passes


def setup_seconds(args) -> list[float]:
    """Calibrated wall time of fresh processes doing only the set-up work.

    Each probe sits between two runs of the set-up reference (see
    calibrate.py), which sees the same contention.
    """
    from calibrate import SETUP_REF_ARGS, SETUP_REF_S

    def wall(run) -> float:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    def reference():
        subprocess.run([sys.executable, *SETUP_REF_ARGS], check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT_S)

    refs = [wall(reference)]
    out = []
    for _ in range(SETUP_PROBES):
        t = wall(lambda: child(args, "--setup-probe"))
        refs.append(wall(reference))
        out.append(t * SETUP_REF_S / ((refs[-2] + refs[-1]) / 2.0))
    return out


def setup_probe(args, workdir: Path) -> int:
    """Child side of `setup_seconds`: set up and warm up, nothing else."""
    wl = make_workload(args, workdir)
    return 0 if wl.warmup().ok else 1


def pass_worker(args, workdir: Path) -> int:
    """Child side of `run_passes`: set up, warm up, then walk the deck once.

    Pass 0 walks the whole deck and computes each item's defect; a later
    pass stops early once its item time reaches ``--seconds``.
    """
    from calibrate import Calibrator

    wl = make_workload(args, workdir)
    warm = wl.warmup()
    first = args.pass_worker == 0
    n = len(wl.deck)
    records = timed_phase(wl.deck, args.seconds, Calibrator(), min_runs=n if first else 0,
                          max_runs=n, defects=first)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"warmup": warm.wrong or (None if warm.ok else warm.message),
                      "peak_rss_mb": peak_kb / 1024.0,
                      "records": [asdict(r) for r in records]}))
    return 0


def run_passes(args, workdir: Path) -> tuple[list[Rec], list[str], float]:
    """Passes in fresh processes until the item time reaches ``--seconds``.

    The passes share `workdir`, so from the second pass on the CLI
    overwrites the files an earlier pass wrote.  Creating a file on the
    reference machine's disk took from 0.2 to 1 ms, in phases of tens of
    seconds that follow deletions; overwriting one varied far less.

    Returns the records, the warm-up errors and the largest peak RSS in MB.
    """
    records: list[Rec] = []
    errors: list[str] = []
    peak = 0.0
    busy = 0.0
    n = 0
    while n == 0 or busy < args.seconds:
        left = argparse.Namespace(**{**vars(args), "seconds": args.seconds - busy})
        out = json.loads(child(left, "--pass-worker", str(n), "--workdir", str(workdir))
                         .stdout.splitlines()[-1])
        if out["warmup"]:
            errors.append(f"warm-up item, pass {n}: {out['warmup']}")
        peak = max(peak, out["peak_rss_mb"])
        recs = [Rec(**r) for r in out["records"]]
        records += recs
        busy += sum(r.wall for r in recs)
        n += 1
    return records, errors, peak


def make_workload(args, workdir: Path):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[args.workload](args.seed, workdir)


# --------------------------------------------------------------------------
# Measured runs


def end_to_end(args, wl, details) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics over the deck.

    Each deck item's cost is the median of its calibrated run times, one
    run per pass and each pass in a fresh process; throughput, median and
    tail are taken over those costs, and the success share over the deck,
    so a pass cut short does not tilt the mix.  Quantiles are Harrell-Davis
    estimates (see `quantile`).
    """
    details["setup_runs_s"] = setup_seconds(args)
    records, errors, peak = run_passes(args, wl.workdir)
    errors += identity_errors(records, wl.deck)
    firsts: dict[int, Rec] = {}
    for r in records:
        firsts.setdefault(r.k, r)
    errors += [f"{wl.deck[r.k].label}: {r.wrong}" for r in records if r.wrong]
    defects = []
    for r in firsts.values():
        if r.ok:
            if r.defect is None or not math.isfinite(r.defect):
                errors.append(f"{wl.deck[r.k].label}: defect {r.defect} is not finite")
            else:
                defects.append(r.defect)
    runs: dict[int, list[float]] = {}
    for r in records:
        runs.setdefault(r.k, []).append(r.s)
    cost_ms = [statistics.median(runs[k]) * 1e3 for k in range(len(wl.deck))]
    ok = [k for k, r in firsts.items() if r.ok]
    tail_ms, tail_pct, beyond = tail(cost_ms)
    if defects:
        p50, p90 = quantile(defects, 0.5), quantile(defects, 0.9)
    else:
        errors.append("no successful item to compute a defect on")
        p50 = p90 = math.nan
    attempted = len(records)
    failed = sum(1 for r in records if r.wrong)
    wall = sum(r.wall for r in records)
    details.update({
        "attempted": attempted, "wrong": failed, "wall_item_s": wall,
        "calibrated_item_s": sum(r.s for r in records),
        "deck_items": len(wl.deck), "deck_ok": len(ok),
        "fail_frac": 1.0 - len(ok) / len(wl.deck),
        "passes": attempted / len(wl.deck),
        "tail": {"percentile": tail_pct, "beyond": beyond, "samples": len(cost_ms)},
        "stated_failures": sorted({r.message for r in firsts.values()
                                   if not r.ok and not r.wrong}),
        "items": [[r.k, round(r.s * 1e3, 4), round(r.wall * 1e3, 4), r.ok]
                  for r in records],
    })
    print(f"# {args.workload}: {attempted} runs of {len(wl.deck)} deck items "
          f"({details['passes']:.1f} passes), {len(ok)} ok, fail_frac "
          f"{details['fail_frac']:.4f}, tail = p{tail_pct:g} with {beyond} of "
          f"{len(cost_ms)} items beyond, machine slowdown "
          f"{wall / details['calibrated_item_s']:.3f}")
    metrics = {
        "items_per_s": metric(len(ok) / (sum(cost_ms) / 1e3), "1/s"),
        "item_ms_p50": metric(quantile(cost_ms, 0.5), "ms"),
        "item_ms_tail": metric(tail_ms, "ms"),
        "ok_frac": metric(len(ok) / len(wl.deck), "fraction"),
        "defect_p50": metric(p50, "rel"),
        "defect_p90": metric(p90, "rel"),
        "setup_s": metric(statistics.median(details["setup_runs_s"]), "s"),
        "peak_rss_mb": metric(peak, "MB"),
    }
    return metrics, attempted, failed, errors


def per_layer(args, wl, details) -> tuple[dict, int, int, list[str]]:
    from calibrate import Calibrator
    from layers import anchor_counts, cli_probe, layer_metrics
    from micro import micro_table
    from tracer import Tracer

    warm = wl.warmup()
    errors = [] if warm.ok else [f"warm-up item: {warm.wrong or warm.message}"]
    cal = Calibrator()
    half = args.seconds / 2.0
    n = len(wl.deck)
    plain = timed_phase(wl.deck, half, cal, min_runs=n)
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        traced = timed_phase(wl.deck, half, cal, tracer, min_runs=n)
    slowdown = cal.factor(t0, time.perf_counter())
    errors += identity_errors(plain + traced, wl.deck)
    errors += [f"{wl.deck[r.k].label}: {r.wrong}" for r in plain + traced if r.wrong]
    compared = len({r.k for r in plain} & {r.k for r in traced})
    # Both phases start at the top of the deck, so their common prefix is
    # the same items with the same results; compare their calibrated time.
    common = min(len(plain), len(traced))
    overhead = 1.0 - sum(r.s for r in plain[:common]) / sum(r.s for r in traced[:common])
    metrics = layer_metrics(tracer, len(traced), slowdown)
    metrics["trace.overhead_frac"] = metric(overhead, "fraction")
    metrics.update(cli_probe(wl.workdir, cal))
    metrics.update({k: metric(*v) for k, v in micro_table(cal).items()})
    counts = anchor_counts()
    details.update({"traced_items": len(traced), "untraced_items": len(plain),
                    "bit_identical_items": compared, "anchor_counts": counts,
                    "traced_slowdown": slowdown, "probes": len(cal.at)})
    print(f"# traced {len(traced)} items, untraced {len(plain)}; "
          f"{compared} deck items compared bit for bit")
    print(f"# anchor counts: {json.dumps(counts, sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    attempted = len(plain) + len(traced)
    failed = sum(1 for r in plain + traced if r.wrong)
    return metrics, attempted, failed, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = args.workdir or OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        if args.pass_worker is not None:
            return pass_worker(args, workdir)
        from workloads import check_anchors

        wl = make_workload(args, workdir)
        details = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": environment()}
        print(f"# env: {json.dumps(details['env'], sort_keys=True)}")
        errors = [f"anchor: {e}" for e in check_anchors()]
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, errs = run(args, wl, details)
        errors += errs
        details["errors"] = errors
        OUT.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps({**details, "metrics": metrics},
                                           indent=1, sort_keys=True) + "\n")
        for e in errors:
            print(f"bench: INCORRECT: {e}", file=sys.stderr)
        print(json.dumps({"correct": not errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 1 if errors else 0
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
