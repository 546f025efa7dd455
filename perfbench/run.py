"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload finite-mid --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run it from the root of a checkout.  It generates the seeded inputs under
.perfbench/, times set-up in fresh interpreters, runs the workload in
another fresh interpreter (worker.py), checks every op, prints a readable
report, and ends with one JSON line: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  `--workload all` runs the workloads
of BENCHMARK.json in turn and prints each report; the others in gen.py
(finite-large, lq-grid, cli-oneshot) run by name.  Nothing outside the checkout is
read or written, and no machine setting is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gen  # noqa: E402  (numpy only; the package is imported by the workers)
SETUP_RUNS = 5
DEADLINE = 170.0

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment(threads):
    """What the numbers depend on, recorded with them."""
    import importlib.metadata as md
    import platform

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "MAXPLUS_THREADS": threads,
    }


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["MAXPLUS_THREADS"] = threads
    return env


def spawn(argv, env, deadline):
    """Start a worker; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        fail(f"worker did not start: {line.strip()!r}")
    return proc, ready


def finish(proc, deadline):
    """Wait for a worker; kill it if it overruns the run's deadline."""
    try:
        rest = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("worker overran the deadline")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}: {rest.strip()[-500:]}")


def run_one(workload, seed, seconds, trace, deadline):
    threads = str(min(4, len(os.sched_getaffinity(0))))
    env = child_env(threads)
    work = os.path.join(ROOT, ".perfbench", f"{workload}-s{seed}-t{trace}")
    shutil.rmtree(work, ignore_errors=True)
    # traced runs also need the other workloads' inputs for the census
    names = gen.WORKLOADS if trace else [workload]
    manifests = {n: gen.generate(n, seed, os.path.join(work, n)) for n in names}
    inputs = os.path.join(work, "inputs.json")
    with open(inputs, "w") as fh:
        json.dump(manifests, fh)
    out = os.path.join(work, "result.json")
    argv = ["--workload", workload, "--inputs", inputs, "--root", ROOT,
            "--seconds", str(seconds), "--trace", str(trace), "--out", out]

    setup = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            proc, ready = spawn(argv + ["--setup-only"], env, deadline)
            finish(proc, deadline)
            setup.append(ready)
    proc, ready = spawn(argv, env, deadline)
    setup.append(ready)
    finish(proc, deadline)
    with open(out) as fh:
        result = json.load(fh)
    result["setup_s"] = statistics.median(setup)
    result["setup_samples"] = setup
    result["env"] = environment(threads)
    result["properties"] = manifests[workload]["properties"]
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def summary(workload, seed, trace, result):
    """The readable report and the final JSON object of one run."""
    e2e = dict(result["e2e"], setup_s=result["setup_s"])
    unexpected = result["unexpected"] + result.get("census_unexpected", [])
    correct = not unexpected and result["warmup"]
    lines = [f"== {workload} seed={seed} trace={trace} env={json.dumps(result['env'])}",
             f"inputs: {json.dumps(result['properties'])}",
             f"inputs run: {result['attempted']}, failed: {result['failed']} "
             f"(known defect: {result['known_defects']}); each input run "
             f"{e2e['repeats']}+ times",
             f"ops: {e2e['samples']}, failed: {result['failed_ops']}, "
             f"fail_ratio={e2e['fail_ratio']:.4f}"]
    if result["known_defects"]:
        lines.append("known defect: float kernels end in PositiveCycle after "
                     "normalization (ROADMAP item 4)")
    lines += [f"  {u}" for u in unexpected]
    if trace:
        metrics = {}
        layers, source = result["layers"], result["source"]
        for name in PER_LAYER:
            if name not in layers:
                fail(f"traced run produced no {name}")
            metrics[name] = {"value": layers[name], "unit": UNITS[name]}
            lines.append(f"{name:>34} = {layers[name]:.6g} {UNITS[name]} [{source[name]}]")
        for name in sorted(set(layers) - set(PER_LAYER)):
            lines.append(f"{name:>34} = {layers[name]:.6g} (not a listed metric)")
    else:
        for name in E2E:
            lines.append(f"{name:>16} = {e2e[name]:.6g} {UNITS[name]}")
        lines.append("over every op, not best-of (report only; they follow the host's load):")
        lines.append(f"{'ops_per_s':>16} = {e2e['ops_per_s']:.6g} 1/s")
        lines.append(f"{'op_p50_ms':>16} = {e2e['op_p50_ms']:.6g} ms")
        if "op_tail_ms" in e2e:
            lines.append(f"{'op_tail_ms':>16} = {e2e['op_tail_ms']:.6g} ms "
                         f"(p{e2e['op_tail_percentile']} of {e2e['samples']} ops)")
        else:
            lines.append(f"{'op_tail_ms':>16} omitted: {e2e['samples']} ops, fewer than 11")
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in E2E}
    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    return lines, final


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "maxplus_martin", "__init__.py")):
        fail("no src/maxplus_martin in this checkout; run from the repository root")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    finals = []
    for name in names:
        deadline = time.perf_counter() + DEADLINE
        result = run_one(name, args.seed, args.seconds, args.trace, deadline)
        lines, final = summary(name, args.seed, args.trace, result)
        print("\n".join(lines), flush=True)
        finals.append(final)
    if len(finals) == 1:
        print(json.dumps(finals[0]))
    else:
        print(json.dumps({"correct": all(f["correct"] for f in finals),
                          "attempted": sum(f["attempted"] for f in finals),
                          "failed": sum(f["failed"] for f in finals),
                          "metrics": {f"{n}.{k}": v for n, f in zip(names, finals)
                                      for k, v in f["metrics"].items()}}))


if __name__ == "__main__":
    main()
