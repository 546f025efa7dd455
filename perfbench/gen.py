"""Seeded input generator: writes every workload's input files.

The same seed always gives the same files.  Inputs are drawn to cover the
properties the package's cost and correctness depend on (matrix size,
density, the value type after normalization, the denominator of lambda,
the float share) and those properties are recorded next to the files.
No seed is skipped and no input is resized to dodge a known defect.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from fractions import Fraction

import numpy as np

import reference as ref

WORKLOADS = ("finite-large", "finite-small", "lq-grid", "cli-oneshot", "finite-mid")

SMALL_POOL = 600
LQ_POOL = 2
# the float share of finite-small comes from this fixed stream, so every
# seed holds the same float kernels and the same count of known-defect
# failures; only the integer kernels change with the seed
FLOAT_STREAM = 2007

# finite-large: (n, sparse, planted cycle length, unit arcs on it).  The
# structure is the same for every seed and only the entries change, so the
# cost of a pass barely moves from seed to seed.  Zero unit arcs keep an
# integer lambda.  One pass takes about 2.5 s on a 2.1 GHz Xeon, so a run
# repeats every kernel several times.
LARGE_SHAPES = (
    (24, False, 2, 1), (24, True, 5, 4), (28, False, 4, 3), (32, False, 3, 0),
    (32, True, 3, 1), (36, False, 5, 2), (40, True, 7, 4), (48, False, 4, 0),
)
# finite-mid: the same pipeline and mix at n = 12..24, each shape twice,
# sized so that no op takes much more than 40 ms: on a shared host a long
# op averages over the host's fast and slow stretches, while a short one
# has repeats that fall wholly in a fast stretch.  A pass takes about 0.4 s.
MID_SHAPES = tuple(shape for shape in (
    (12, False, 2, 1), (12, True, 5, 4), (14, False, 4, 3), (16, False, 3, 0),
    (16, True, 3, 1), (14, False, 5, 2), (18, True, 7, 4), (24, False, 4, 0),
) for _ in range(2))
CLI_VARIANTS = 4

# the 13 subcommands, then the two expected-error calls
CLI_OPS = (
    "star", "eigenvalue", "classes", "martin", "harmonic-check", "represent",
    "extremal", "downhill", "lq-star", "lq-horofunction", "lq-verify",
    "lq-flow", "lq-horosphere", "error-malformed", "error-positive-cycle",
)


def labels(n):
    return [f"s{i}" for i in range(n)]


def _cell(v):
    if v == ref.NEG:
        return "-inf"
    return v


def write_kernel(path, rows, fmt):
    """rows hold ints, 3-decimal floats, or ref.NEG for -inf."""
    n = len(rows)
    states = labels(n)
    if fmt == "json":
        body = {"states": states, "matrix": [[_cell(v) for v in r] for r in rows],
                "basepoint": states[0]}
        with open(path, "w") as fh:
            json.dump(body, fh)
    else:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow([""] + states)
            for s, r in zip(states, rows):
                w.writerow([s] + [_cell(v) for v in r])


# -- finite kernels -----------------------------------------------------------


def large_kernel(rng, n, sparse, length, ones):
    """Integer kernel with a planted critical cycle.

    Dense kernels draw every entry from [-9, 0]; sparse ones are a ring plus
    about 10% random arcs.  The planted cycle of the given length carries
    `ones` unit arcs (0 < ones < length) so its mean is a non-integer
    fraction; with ones == 0 it carries only zeros and lambda stays 0.
    """
    if sparse:
        a = np.full((n, n), ref.NEG, dtype=np.int64)
        extra = rng.random((n, n)) < 0.1
        a[extra] = rng.integers(-9, 1, size=int(extra.sum()))
        ring = rng.integers(-9, 1, size=n)
        a[np.arange(n), (np.arange(n) + 1) % n] = ring
    else:
        a = rng.integers(-9, 1, size=(n, n)).astype(np.int64)
    cycle = rng.choice(n, size=length, replace=False)
    weights = np.zeros(length, dtype=np.int64)
    weights[rng.choice(length, size=ones, replace=False)] = 1
    for k in range(length):
        a[cycle[k], cycle[(k + 1) % length]] = weights[k]
    return a


def small_kernel(rng, kind, n):
    if kind == "int-dense":
        return rng.integers(-9, 4, size=(n, n)).astype(np.int64)
    if kind == "int-sparse":
        a = rng.integers(-6, 4, size=(n, n)).astype(np.int64)
        a[rng.random((n, n)) < 0.5] = ref.NEG
        return a
    return rng.integers(-3000, 1001, size=(n, n)) / 1000.0


def _rows(a):
    if a.dtype.kind == "f":
        return [[float(v) for v in r] for r in a]
    return [[int(v) for v in r] for r in a]


def _lambda_info(a):
    lam = ref.karp(a)
    if lam is None:
        return None, "none"
    if isinstance(lam, float):
        return lam, "float"
    return lam, "int" if lam.denominator == 1 else "fraction"


def gen_finite_large(rng, out, shapes=LARGE_SHAPES, prefix="large"):
    items = []
    for i, (n, sparse, length, ones) in enumerate(shapes):
        a = large_kernel(rng, n, sparse, length, ones)
        name = f"{prefix}_{i:03d}.json"
        write_kernel(os.path.join(out, name), _rows(a), "json")
        lam, vtype = _lambda_info(a)
        items.append({"file": name, "n": n, "kind": "sparse" if sparse else "dense",
                      "start": int(rng.integers(0, n)), "vtype": vtype,
                      "lam": str(lam), "density": _density(a)})
    return items


def gen_finite_small(rng, out):
    kinds = ("int-dense", "int-sparse", "float")
    fixed = np.random.default_rng(FLOAT_STREAM)
    items = []
    for i in range(SMALL_POOL):
        # every kind cycles through the sizes 2..8, the same mix for every seed
        kind = kinds[i % 3]
        a = small_kernel(fixed if kind == "float" else rng, kind, 2 + (i // 3) % 7)
        fmt = "json" if (i // 3) % 2 == 0 else "csv"
        name = f"small_{i:04d}.{fmt}"
        write_kernel(os.path.join(out, name), _rows(a), fmt)
        lam, vtype = _lambda_info(a)
        items.append({"file": name, "n": len(a), "kind": kind, "vtype": vtype,
                      "lam": str(lam), "density": _density(a)})
    return items


def _density(a):
    if a.dtype.kind == "f":
        return 1.0
    return float(np.mean(a != ref.NEG))


# -- linear-quadratic jobs ----------------------------------------------------


def _unit_vector(rng):
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    return [math.cos(theta), math.sin(theta)]


def gen_lq(rng, out):
    jobs = []
    for _ in range(LQ_POOL):
        probes = rng.uniform(-2.0, 2.0, size=(12, 2))
        # one coordinate on the box edge pins the default sweep grid at
        # 1601^2 points, so every job sweeps the same grid
        probes[0, int(rng.integers(0, 2))] = float(rng.choice([-2.0, 2.0]))
        jobs.append({
            "n": _unit_vector(rng),
            "lam": float(rng.uniform(0.0, 2.0)),
            "probes": probes.tolist(),
            "levels": sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=2)),
            "x0": rng.uniform(-2.0, 2.0, size=2).tolist(),
        })
    with open(os.path.join(out, "lq_jobs.json"), "w") as fh:
        json.dump(jobs, fh)
    return jobs


# -- command-line inputs -------------------------------------------------------


def normalized_kernel(rng, n):
    """Integer kernel rescaled by q*a - p so its max cycle mean is 0."""
    raw = rng.integers(-9, 4, size=(n, n)).astype(np.int64)
    a, _ = ref.scaled(raw, ref.karp(raw))
    return raw, a


def gen_cli(rng, out):
    variants = []
    for v in range(CLI_VARIANTS):
        n = int(rng.integers(3, 9))
        raw, a = normalized_kernel(rng, n)
        fmt = "json" if v % 2 == 0 else "csv"
        kfile = os.path.join(out, f"cli_{v}_kernel.{fmt}")
        rawfile = os.path.join(out, f"cli_{v}_raw.{fmt}")
        write_kernel(kfile, _rows(a), fmt)
        write_kernel(rawfile, _rows(raw), fmt)
        s = ref.star(a)
        groups = ref.classes(s)
        cols = ref.columns(s, groups, 0)
        crit = next(c for c in cols if ref.harmonic(a, c))
        states = labels(n)
        ffile = os.path.join(out, f"cli_{v}_h.json")
        with open(ffile, "w") as fh:
            json.dump({st: int(x) for st, x in zip(states, crit)}, fh)
        mfile = os.path.join(out, f"cli_{v}_measure.json")
        picks = rng.choice(n, size=min(n, 3), replace=False)
        with open(mfile, "w") as fh:
            json.dump({states[int(i)]: int(rng.integers(-5, 1)) for i in picks}, fh)
        badfile = os.path.join(out, f"cli_{v}_malformed.json")
        with open(badfile, "w") as fh:
            fh.write('{"states": ["a", "b"], "matrix": [[0, -1], [-1')
        posfile = os.path.join(out, f"cli_{v}_positive.json")
        pos = rng.integers(-9, 1, size=(n, n)).astype(np.int64)
        pos[0, 0] = int(rng.integers(1, 4))
        write_kernel(posfile, _rows(pos), "json")
        variants.append({
            "kernel": kfile, "raw": rawfile, "function": ffile, "measure": mfile,
            "malformed": badfile, "positive": posfile, "n": n, "format": fmt,
            "start": states[int(rng.integers(0, n))],
            "x": rng.uniform(-2.0, 2.0, size=2).tolist(),
            "y": rng.uniform(-2.0, 2.0, size=2).tolist(),
            "dir": _unit_vector(rng),
            "lam": float(rng.uniform(0.0, 2.0)),
            "verify_seed": int(rng.integers(0, 1 << 16)),
            "levels": sorted(float(x) for x in rng.uniform(-1.5, 1.5, size=2)),
            "outdir": os.path.join(out, f"cli_{v}_figures"),
        })
    return variants


GENERATORS = {
    "finite-large": gen_finite_large,
    "finite-mid": lambda rng, out: gen_finite_large(rng, out, MID_SHAPES, "mid"),
    "finite-small": gen_finite_small,
    "lq-grid": gen_lq,
    "cli-oneshot": gen_cli,
}


def generate(workload, seed, out):
    """Write one workload's inputs under out and return its manifest."""
    os.makedirs(out, exist_ok=True)
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    items = GENERATORS[workload](rng, out)
    manifest = {"workload": workload, "seed": seed, "dir": out, "items": items,
                "properties": properties(workload, items)}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def properties(workload, items):
    """Input properties the package's behaviour depends on."""
    if workload == "lq-grid":
        return {"jobs": len(items), "probes_per_job": 12,
                "lambda_range": [min(j["lam"] for j in items),
                                 max(j["lam"] for j in items)]}
    if workload == "cli-oneshot":
        return {"variants": len(items), "ops_per_cycle": len(CLI_OPS),
                "n_hist": dict(Counter(str(v["n"]) for v in items)),
                "formats": dict(Counter(v["format"] for v in items))}
    vtypes = Counter(it["vtype"] for it in items)
    denominators = Counter(
        str(Fraction(it["lam"]).denominator) for it in items
        if it["vtype"] in ("int", "fraction"))
    return {
        "count": len(items),
        "n_hist": dict(sorted(Counter(str(it["n"]) for it in items).items(),
                              key=lambda kv: int(kv[0]))),
        "density_mean": round(float(np.mean([it["density"] for it in items])), 4),
        "kinds": dict(Counter(it["kind"] for it in items)),
        "value_type_share": {k: round(c / len(items), 4) for k, c in vtypes.items()},
        "lambda_denominators": dict(sorted(denominators.items(), key=lambda kv: int(kv[0]))),
        "float_share": round(sum(it["kind"] == "float" for it in items) / len(items), 4),
    }
