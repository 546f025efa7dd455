"""Negative tests of the benchmark's own checks.

    python3 perfbench/selftest.py

A corrupted result must be counted as a failed op and a failed input on
every workload, a known defect must be told apart from a wrong answer, the
float share of finite-small must be the same for every seed, and the
benchmark must refuse to run without the package's sources.  Exits 1 on the first check
that does not hold.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import worker  # noqa: E402


class Corrupting:
    """Wraps a workload and damages every second result before the check."""

    def __init__(self, wl, damage):
        self.wl, self.damage, self.calls = wl, damage, 0
        self.name, self.items = wl.name, wl.items

    def prepare(self, item):
        return self.wl.prepare(item)

    def expect(self, case):
        self.wl.expect(case)

    def run(self, case):
        result = self.wl.run(case)
        self.calls += 1
        return self.damage(result) if self.calls % 2 == 0 else result

    def check(self, case, result, exc):
        return self.wl.check(case, result, exc)


def plus_one(result):
    return (result[0] + 1,) + tuple(result[1:])


def shift_contour(result):
    sweeps, levelsets, *rest = result
    level, lines = levelsets[0]
    return (sweeps, [(level, [line + 0.01 for line in lines])] + levelsets[1:], *rest)


def flip_exit(result):
    return subprocess.CompletedProcess(result.args, result.returncode + 1,
                                       result.stdout, result.stderr)


DAMAGE = {"finite-small": plus_one, "finite-mid": plus_one, "finite-large": plus_one,
          "lq-grid": shift_contour, "cli-oneshot": flip_exit}


def expect(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def corrupted_results_count(work):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), MAXPLUS_THREADS="1")
    for name, damage in DAMAGE.items():
        manifest = gen.generate(name, 0, os.path.join(work, name))
        wl = worker.make(name, manifest, env, ROOT)
        # finite-small: the integer kernels only, so every failure is the damage
        items = [it for it in wl.items if name != "finite-small"
                 or it["kind"] == "int-dense"][:2]
        bad = Corrupting(wl, damage)
        cases = [bad.prepare(it) for it in items]
        for case in cases:
            bad.expect(case)
        tally = worker.Tally()
        for i in range(4):
            case = cases[i % len(cases)]
            dt, result, exc = worker.attempt(bad, case)
            tally.add(i % len(cases), dt, bad.check(case, result, exc), f"op {i}")
        e2e = worker.end_to_end(tally, 1.0)
        expect(e2e["fail_ratio"] == 0.5 and len(tally.unexpected) == 2
               and tally.bad == {1: False},
               f"{name}: 2 corrupted results of 4 give fail_ratio 0.5 and 1 failed input")


def defect_is_told_apart(work):
    manifest = gen.generate("finite-small", 0, os.path.join(work, "defect"))
    wl = worker.make("finite-small", manifest, {}, ROOT)
    kinds = {}
    for item in wl.items:
        case = wl.prepare(item)
        wl.expect(case)
        dt, result, exc = worker.attempt(wl, case)
        verdict = wl.check(case, result, exc)
        if not verdict.ok:
            kinds[(item["kind"], verdict.known_defect)] = verdict.detail
    expect(set(kinds) <= {("float", True)},
           f"finite-small failures are all the known float defect: {sorted(kinds)}")


def float_share_is_fixed(work):
    floats = []
    for seed in (1, 2):
        manifest = gen.generate("finite-small", seed, os.path.join(work, f"fixed{seed}"))
        wl = worker.make("finite-small", manifest, {}, ROOT)
        floats.append([worker.W._matrix(it, wl.base).tolist() for it in wl.items
                       if it["kind"] == "float"])
    expect(floats[0] == floats[1], "finite-small holds the same float kernels for seeds 1 and 2")


def refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "finite-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "a checkout without src/ exits non-zero and prints no result")


def main():
    warnings.filterwarnings("ignore", category=worker.W.errors.AssumptionViolatedWarning)
    work = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    corrupted_results_count(work)
    defect_is_told_apart(work)
    float_share_is_fixed(work)
    refuses_without_sources()


if __name__ == "__main__":
    main()
