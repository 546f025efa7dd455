"""One workload in a fresh interpreter: warm up, time the ops, check them.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
prints READY once the package is imported and one warm-up op has finished,
which is where run.py stops the set-up clock.  With --setup-only it exits
there.  Otherwise it builds the reference expectations, runs the closed
loop for --seconds of op time, checks every op outside the timed region,
and writes its result as JSON to --out.  With --trace 1 it alternates
traced and untraced ops, adds a census of the other workloads so every
layer is measured, and writes the spans next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import workloads as W
from tracing import Tracer, self_times

LAYERS = ("kernel", "martin", "paths", "lq", "parallel", "contours", "fileio", "cli")


def make(name, manifest, env, root):
    if name == "cli-oneshot":
        return W.CliOneshot(manifest, env, root)
    return {"finite-large": W.FiniteLarge, "finite-mid": W.FiniteLarge,
            "finite-small": W.FiniteSmall,
            "lq-grid": W.LQGrid}[name](manifest)


def attempt(wl, case, tracer=None, op_id=None):
    """Run one op; returns (seconds, result, exception)."""
    result = exc = None
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
        root = tracer.open("op")
    t0 = time.perf_counter()
    try:
        if tracer is not None and wl.name == "cli-oneshot":
            with tracer.span(f"cli.{case['item'][0]}"):
                result = wl.run(case)
        else:
            result = wl.run(case)
    except Exception as e:  # every failure of the op is recorded, none ends the run
        exc = e
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    return dt, result, exc


class Tally:
    """Every op's time and verdict, kept per input."""

    def __init__(self):
        self.times = {}     # input key -> seconds of each of its ops
        self.bad = {}       # input key -> True while all its failures are the known defect
        self.failed_ops = 0
        self.unexpected = []

    def add(self, key, dt, verdict, label):
        self.times.setdefault(key, []).append(dt)
        if verdict.ok:
            return
        self.failed_ops += 1
        self.bad[key] = self.bad.get(key, True) and verdict.known_defect
        if not verdict.known_defect and len(self.unexpected) < 20:
            self.unexpected.append(f"{label}: {verdict.detail}")


def timed_loop(wl, cases, seconds, tracer=None):
    """Closed loop, one caller: the next op starts when the last is checked.

    Untraced, the loop makes whole passes over the inputs until the ops have
    used `seconds`, so every input runs the same number of times.  Traced,
    each input runs twice in a row, once traced and once not, in alternating
    order, so the overhead ratio compares the same inputs.
    """
    tally = Tally()
    paired = {True: 0.0, False: 0.0}
    pending = {}
    busy, i = 0.0, 0
    # leaves room for set-up, the census and the probes within run.py's deadline
    wall_cap = time.perf_counter() + 2 * seconds + 20
    if tracer is None:
        def more():
            return busy < seconds or i % len(cases)
    else:
        # a traced run always ends on a whole pair, and has at least one
        def more():
            return busy < seconds or i < 2 or i % 2
    while more() and time.perf_counter() < wall_cap:
        index = (i // 2 if tracer else i) % len(cases)
        case = cases[index]
        traced = tracer is not None and (i % 2) != (i // 2) % 2
        dt, result, exc = attempt(wl, case, tracer if traced else None, i)
        tally.add(index, dt, wl.check(case, result, exc), f"op {i} ({_label(case)})")
        pending[traced] = dt
        if tracer is not None and i % 2:
            for key, took in pending.items():
                paired[key] += took
        busy += dt
        i += 1
    return tally, busy, paired


def _label(case):
    item = case["item"]
    if isinstance(item, tuple):
        return item[0]
    return item.get("file", "job")


def end_to_end(tally, busy):
    """The figures of BENCHMARK.json, and the raw ones for the report.

    Every input runs equally often, and each input's fastest op is its cost
    with the least interference from other load on the host, as timeit
    reports it: the host switches between a fast and a slow state (up to
    1.75x apart) for seconds to minutes at a time, and the fastest repeat
    is the one statistic that follows the program rather than the host.
    best_ops_per_s is the inputs whose every op was correct over the sum of
    those fastest times; best_op_p50_ms is their median over the inputs.
    """
    best = [min(ts) for ts in tally.times.values()]
    times = sorted(t for ts in tally.times.values() for t in ts)
    n = len(times)
    out = {
        "best_ops_per_s": (len(best) - len(tally.bad)) / sum(best),
        "best_op_p50_ms": statistics.median(best) * 1e3,
        "ops_per_s": (n - tally.failed_ops) / busy,
        "op_p50_ms": statistics.median(times) * 1e3,
        "fail_ratio": tally.failed_ops / n,
        "samples": n,
        "repeats": min(len(ts) for ts in tally.times.values()),
    }
    if n >= 11:
        # the highest percentile with ten ops beyond it
        out["op_tail_ms"] = times[n - 11] * 1e3
        out["op_tail_percentile"] = round(100.0 * (n - 10) / n, 2)
    return out


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- traced run ---------------------------------------------------------------


def _vtype(k):
    kinds = {type(v).__name__ for row in k.entries for v in row}
    for name in ("Fraction", "float"):
        if name in kinds:
            return name.lower()
    return "int"


def _matmuls(t):
    count = 0
    while t:
        count += (t & 1) + (t > 1)
        t >>= 1
    return count


def _grid_points(probes, grid):
    pts = np.atleast_2d(np.asarray(probes, dtype=float))
    if grid is None:
        half, spacing = max(1.0, 4.0 * float(np.max(np.abs(pts)))), 0.01
    else:
        half, spacing = grid.half_width, grid.spacing
    return (int(round(2.0 * half / spacing)) + 1) ** pts.shape[1], len(pts)


def annotate(span, args, kwargs, result):
    """Counts computed from each call's inputs (and, where named, its result)."""
    name = span.name
    if name in ("kernel.max_cycle_mean", "kernel.kleene_star"):
        span.attrs = {"relax": args[0].n ** 3}
        if name == "kernel.kleene_star":
            span.attrs["vtype"] = _vtype(args[0])
    elif name == "kernel.matrix_power":
        span.attrs = {"relax": _matmuls(args[1]) * args[0].n ** 3}
    elif name == "martin.martin_kernel" and result is not None:
        span.attrs = {"classes": len(result)}
    elif name == "lq.verify_harmonic_lq":
        grid = args[4] if len(args) > 4 else kwargs.get("grid")
        points, probes = _grid_points(args[3], grid)
        clipped = sum(r.clipped for r in result) if result is not None else 0
        span.attrs = {"grid_points": points, "probes": probes, "clipped": clipped}
    elif name == "contours.marching_squares" and result is not None:
        span.attrs = {"cells": (len(args[1]) - 1) * (len(args[2]) - 1),
                      "points": sum(len(p) for p in result)}
    elif name in ("fileio.load_kernel", "fileio.load_function"):
        span.attrs = {"bytes": os.path.getsize(args[0])}
    elif name == "parallel.worker_count" and result is not None:
        span.attrs = {"workers": result}


CENSUS = {
    # the smallest fractional and the smallest integer kernel
    "finite-large": lambda items: [items[0]] + [
        min((it for it in items if it["vtype"] == "int"), key=lambda it: it["n"])],
    "finite-mid": lambda items: [items[0]],
    "finite-small": lambda items: items[:12],
    "lq-grid": lambda items: items[:1],
    "cli-oneshot": lambda items: [it for it in items if it[1] is items[0][1]],
}


CENSUS_OP = 10**6


def census(manifests, env, root, tracer, tally):
    """One traced, checked pass that reaches every layer.

    A few ops of each workload (all 13 subcommands for the command line)
    and a file-layer probe that loads the command line's kernel and function
    files in-process.  Metrics prefer the workload's own spans; the census
    fills in the layers those spans did not reach.
    """
    op = CENSUS_OP
    for name, manifest in manifests.items():
        wl = make(name, manifest, env, root)
        for item in CENSUS[name](wl.items):
            case = wl.prepare(item)
            wl.expect(case)
            dt, result, exc = attempt(wl, case, tracer, op)
            tally.add(op, dt, wl.check(case, result, exc), f"census {name} {_label(case)}")
            op += 1
    fio = W.FileProbe()
    for item in manifests["cli-oneshot"]["items"]:
        case = fio.prepare(item)
        fio.expect(case)
        dt, result, exc = attempt(fio, case, tracer, op)
        tally.add(op, dt, fio.check(case, result, exc), f"census fileio {item['function']}")
        op += 1


def startup_probes(env, reps=3):
    """Interpreter start, imports and `--version`, each in a fresh process."""
    cmds = {
        "startup.interpreter_ms": ["-c", "pass"],
        "startup.import_numpy_ms": ["-c", "import numpy"],
        "startup.import_pkg_ms": ["-c", "import maxplus_martin"],
        "startup.version_ms": ["-m", "maxplus_martin", "--version"],
    }
    samples = {k: [] for k in cmds}
    for _ in range(reps):
        for key, argv in cmds.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=env, check=True,
                           capture_output=True, timeout=60)
            samples[key].append((time.perf_counter() - t0) * 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}


def speedup_probe(job, threads):
    """The same default sweep on one thread and on the pinned count."""
    h = W.lq.horofunction_field(job["n"], job["lam"])
    took = {}
    for count in ("1", threads):
        os.environ["MAXPLUS_THREADS"] = count
        t0 = time.perf_counter()
        W.lq.verify_harmonic_lq(h, job["lam"], 1.0, job["probes"], raise_on_clip=False)
        took[count] = time.perf_counter() - t0
    os.environ["MAXPLUS_THREADS"] = threads
    return took["1"] / took[threads]


def layer_metrics(spans):
    """Per-layer numbers from (span, self time) pairs of one set of ops."""
    by = {}
    for s, own in spans:
        by.setdefault(s.name, []).append(s)
    ops = len(by.get("op", ()))
    out = {}
    if not ops:
        return out

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by.get(name, ()) if s.attrs)

    for name, group in by.items():
        if name.split(".")[0] in LAYERS:
            out[f"{name}_ms"] = statistics.median(s.duration for s in group) * 1e3
    stars = [s for s in by.get("kernel.kleene_star", ()) if s.attrs]
    for vt in ("int", "fraction", "float"):
        mine = [s for s in stars if s.attrs["vtype"] == vt]
        if mine:
            out[f"semiring.relax_ns.{vt}"] = (
                sum(s.duration for s in mine) / sum(s.attrs["relax"] for s in mine) * 1e9)
    relax = sum(attr_sum(n, "relax") for n in
                ("kernel.max_cycle_mean", "kernel.kleene_star", "kernel.matrix_power"))
    if relax:
        out["kernel.relaxations"] = relax / ops
    if "martin.martin_kernel" in by:
        out["martin.classes"] = (attr_sum("martin.martin_kernel", "classes")
                                 / len(by["martin.martin_kernel"]))
    verify = by.get("lq.verify_harmonic_lq", ())
    if verify:
        probes = sum(s.attrs["probes"] for s in verify)
        work = sum(s.attrs["grid_points"] * s.attrs["probes"] for s in verify)
        clipped = attr_sum("lq.verify_harmonic_lq", "clipped")
        out["lq.grid_points"] = statistics.median(s.attrs["grid_points"] for s in verify)
        out["lq.point_probes"] = work / len(verify)
        out["lq.ns_per_point_probe"] = sum(s.duration for s in verify) / work * 1e9
        out["lq.clipped_probes"] = clipped
        out["lq.clipped_ratio"] = clipped / probes
        out["parallel.cpu_wall_ratio"] = (
            sum(s.cpu for s in verify) / sum(s.duration for s in verify))
    workers = [s.attrs["workers"] for s in by.get("parallel.worker_count", ()) if s.attrs]
    if workers:
        out["parallel.workers"] = statistics.median(workers)
    marching = by.get("contours.marching_squares", ())
    if marching:
        cells = attr_sum("contours.marching_squares", "cells")
        points = attr_sum("contours.marching_squares", "points")
        out["contours.cells"] = cells / len(marching)
        out["contours.points"] = points / len(marching)
        out["contours.active_cell_ratio"] = points / cells
    read = attr_sum("fileio.load_kernel", "bytes") + attr_sum("fileio.load_function", "bytes")
    if read:
        out["fileio.bytes_read"] = read / ops
    busy = {}
    for s, own in spans:
        layer = "bench" if s.name == "op" else s.name.split(".")[0]
        busy[layer] = busy.get(layer, 0.0) + own
    for layer, total in busy.items():
        out[f"self_ms.{layer}"] = total / ops * 1e3
    return out


def traced_metrics(spans):
    """The workload's own spans first; the census fills the idle layers.

    Returns the metrics and, for each, where it came from.
    """
    pairs = list(zip(spans, self_times(spans)))
    own = layer_metrics([p for p in pairs if p[0].op < CENSUS_OP])
    rest = layer_metrics([p for p in pairs if p[0].op >= CENSUS_OP])
    source = {k: "workload" for k in own}
    for key, value in rest.items():
        if key not in own:
            own[key] = value
            source[key] = "census"
    return own, source


# -- main ---------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="JSON file of every manifest")
    ap.add_argument("--root", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(W.fileio.__file__).startswith(src + os.sep):
        sys.exit(f"package imported from {W.fileio.__file__}, not {src}")
    warnings.filterwarnings("ignore", category=W.errors.AssumptionViolatedWarning)
    with open(args.inputs) as fh:
        manifests = json.load(fh)
    env = dict(os.environ)
    wl = make(args.workload, manifests[args.workload], env, args.root)
    cases = [wl.prepare(item) for item in wl.items]
    _, warm_result, warm_exc = attempt(wl, cases[0])
    print("READY", flush=True)
    if args.setup_only:
        return

    for case in cases:
        wl.expect(case)
    warm = wl.check(cases[0], warm_result, warm_exc)
    tracer = Tracer(annotate) if args.trace else None
    tally, busy, paired = timed_loop(wl, cases, args.seconds, tracer)
    # attempted and failed count inputs, not ops: every input runs the same
    # ops each time, so these counts are fixed by the inputs alone
    out = {"attempted": len(tally.times), "failed": len(tally.bad),
           "known_defects": sum(tally.bad.values()), "failed_ops": tally.failed_ops,
           "unexpected": tally.unexpected, "warmup": warm.ok or warm.known_defect,
           "op_seconds": [tally.times.get(k, []) for k in range(len(cases))],
           "e2e": dict(end_to_end(tally, busy),
                       peak_rss_mb=peak_rss_mb(children=wl.name == "cli-oneshot"))}
    if tracer is not None:
        extra = Tally()
        census(manifests, env, args.root, tracer, extra)
        layers, source = traced_metrics(tracer.spans)
        probes = startup_probes(env)
        probes["parallel.speedup"] = speedup_probe(
            manifests["lq-grid"]["items"][0], env["MAXPLUS_THREADS"])
        layers.update(probes)
        source.update(dict.fromkeys(probes, "probe"))
        layers["trace.overhead_ratio"] = paired[False] / paired[True]
        source["trace.overhead_ratio"] = "workload"
        out.update(layers=layers, source=source, spans=len(tracer.spans),
                   census_unexpected=extra.unexpected)
        tracer.write(os.path.join(os.path.dirname(args.out), "trace.jsonl"))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)


if __name__ == "__main__":
    main()
