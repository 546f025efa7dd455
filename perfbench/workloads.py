"""The four workloads: one op each, its reference expectation, its check.

`prepare` builds the expectation of every input from reference.py (or, for
the command line, from the same library calls made in-process) before any
op is timed.  `run` is the timed op and calls only the package.  `check`
compares an op's outcome with the expectation and returns a Verdict.
In-process workloads never call `cli.main`, which patches
`warnings.showwarning` for the whole process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import reference as ref
from gen import CLI_OPS
from maxplus_martin import contours, errors, fileio, kernel, lq, martin, paths
from maxplus_martin.semiring import NEG_INF, oplus

EPS = 1e-3
BBOX = (-3.0, -3.0, 3.0, 3.0)
HORIZONS = (0.5, 1.0)
LQ_TOL = 1e-3


@dataclass
class Verdict:
    ok: bool
    known_defect: bool = False
    detail: str = ""


def _bad(detail):
    return Verdict(False, False, detail)


def _kind(exc):
    return None if exc is None else type(exc).__name__


# -- finite kernels -----------------------------------------------------------


def _matrix(item, base):
    """The kernel exactly as the generator wrote it, as a numpy array."""
    path = os.path.join(base, item["file"])
    if path.endswith(".csv"):
        with open(path) as fh:
            rows = [line.rstrip("\n").split(",")[1:] for line in fh][1:]
    else:
        with open(path) as fh:
            rows = json.load(fh)["matrix"]
    if item["kind"] == "float":
        return np.array([[float(v) for v in r] for r in rows])
    return np.array([[ref.NEG if v == "-inf" else int(v) for v in r] for r in rows],
                    dtype=np.int64)


def _finite_expectation(a):
    """Reference lambda, star, classes, columns and harmonic flags.

    Integer input is q-scaled and exact (tol 0); float input keeps floats and
    the tolerance n * max|a| * 2^-52.
    """
    lam = ref.karp(a)
    if lam is None:
        return {"error": "NoCycle"}
    if a.dtype.kind == "f":
        scale, tol = 1, len(a) * float(np.max(np.abs(a))) * 2.0**-52
        an = a - lam
    else:
        an, scale = ref.scaled(a, lam)
        tol = 0
    # a cycle through the whole kernel sums n rounded terms, hence n * tol
    s = ref.star(an, len(a) * tol)
    exp = {"lam": lam, "q": scale, "tol": tol, "a": an, "star": s}
    exp["classes"] = ref.classes(s, tol)
    if np.any(s == ref.NEG):
        exp["error"] = "AssumptionViolated"
        return exp
    exp["columns"] = ref.columns(s, exp["classes"], 0)
    exp["harmonic"] = [ref.harmonic(an, c, 4 * tol) for c in exp["columns"]]
    return exp


def _same(value, expected, q, tol):
    """Program value (int, Fraction, float or NEG_INF) vs scaled reference."""
    if value is NEG_INF:
        return ref.is_neg(expected)
    if ref.is_neg(expected):
        return False
    if tol:
        return abs(float(value) - float(expected)) <= tol
    return value * q == int(expected)


def _same_grid(rows, expected, q, tol):
    return all(_same(v, e, q, tol) for row, erow in zip(rows, expected)
               for v, e in zip(row, erow)) and len(rows) == len(expected)


def _check_lambda(lam, exp):
    if exp["tol"]:
        return abs(lam - exp["lam"]) <= exp["tol"]
    return Fraction(lam) == exp["lam"]


class FiniteSmall:
    """Per-call overhead on n <= 8: the small-input side of the finite layers."""

    name = "finite-small"

    def __init__(self, manifest):
        self.base = manifest["dir"]
        self.items = manifest["items"]

    def prepare(self, item):
        return {"item": item, "path": os.path.join(self.base, item["file"])}

    def expect(self, case):
        case["exp"] = _finite_expectation(_matrix(case["item"], self.base))

    def run(self, case):
        k = fileio.load_kernel(case["path"])
        lam = kernel.max_cycle_mean(k)
        kn = kernel.normalize(k, lam)
        star = kernel.kleene_star(kn)
        groups = martin.recurrence_classes(star)
        objects = martin.martin_kernel(star)
        flags = [kernel.is_harmonic(kn, obj.column) for obj in objects]
        report = fileio.canonical_json({
            "lambda": fileio.value_to_json(lam),
            "classes": [[star.states[i] for i in g] for g in groups],
            "harmonic": flags,
        })
        return lam, star, groups, objects, flags, report

    def check(self, case, result, exc):
        exp = case["exp"]
        want = exp.get("error")
        if exc is not None or want is not None:
            if _kind(exc) == want:
                return Verdict(True)
            defect = (case["item"]["kind"] == "float"
                      and isinstance(exc, errors.PositiveCycle))
            return Verdict(False, defect, f"raised {_kind(exc)}, expected {want}")
        lam, star, groups, objects, flags, report = result
        q, tol = exp["q"], exp["tol"]
        if not _check_lambda(lam, exp):
            return _bad(f"lambda {lam} != {exp['lam']}")
        if not _same_grid(star.entries, exp["star"], q, tol):
            return _bad("star differs from the reference")
        if groups != exp["classes"]:
            return _bad("recurrence classes differ")
        if [list(o.members) for o in objects] != exp["classes"]:
            return _bad("Martin classes differ")
        for obj, col, harm, flag in zip(objects, exp["columns"], exp["harmonic"], flags):
            if not all(_same(v, e, q, 2 * tol) for v, e in zip(obj.column, col)):
                return _bad(f"Martin column of class {obj.class_id} differs")
            if obj.harmonic != harm or flag != harm:
                return _bad(f"harmonic flag of class {obj.class_id} differs")
        if json.loads(report)["harmonic"] != exp["harmonic"]:
            return _bad("report differs")
        return Verdict(True)


class FiniteLarge:
    """The O(n^3) exact pipeline, mostly Fraction-valued: n in [24, 48] for
    finite-large, [12, 24] for finite-mid."""

    def __init__(self, manifest):
        self.name = manifest["workload"]
        self.base = manifest["dir"]
        self.items = manifest["items"]

    def prepare(self, item):
        return {"item": item, "path": os.path.join(self.base, item["file"])}

    def expect(self, case):
        item = case["item"]
        exp = _finite_expectation(_matrix(item, self.base))
        an, s, b = exp["a"], exp["star"], 0
        minimal = [i for i, flag in enumerate(exp["harmonic"]) if flag]
        h = exp["columns"][minimal[0]]
        exp["minimal"] = minimal
        exp["measure"] = [int(max(s[b, x] + h[x] for x in exp["classes"][w]))
                          for w in minimal]
        exp["witness"] = next(
            (w for w, m in zip(minimal, exp["measure"])
             if np.array_equal(h, m + exp["columns"][w])), None)
        states = ref.downhill(an, h, item["start"], 32)
        exp["path"] = states
        exp["limit"] = next(i for i, g in enumerate(exp["classes"]) if states[-1] in g)
        # eps * q < 1 for every q here, so the integer excess must be <= 0
        step4 = ref.maxplus_power(an, 4)
        exp["geodesic"] = ref.geodesic_excess(s, step4, states[::4]) <= EPS * exp["q"]
        case["exp"] = exp

    def run(self, case):
        k = fileio.load_kernel(case["path"])
        lam = kernel.max_cycle_mean(k)
        kn = kernel.normalize(k, lam)
        star = kernel.kleene_star(kn)
        objects = martin.martin_kernel(star)
        minimal = [obj for obj in objects if obj.minimal]
        h = minimal[0].column
        measure = martin.spectral_measure(h, minimal, star)
        witness = martin.extremal_witness(h, minimal, star)
        path = paths.downhill_path(kn, h, case["item"]["start"], EPS, 32)
        limit = paths.geodesic_limit(path, star, EPS)
        coarse = paths.DiscretePath(path.times[::4], path.states[::4])
        geodesic = paths.is_almost_geodesic(coarse, EPS, kn, star)
        return lam, star, objects, measure, witness, path, limit, geodesic

    def check(self, case, result, exc):
        if exc is not None:
            return _bad(f"raised {_kind(exc)}: {exc}")
        exp = case["exp"]
        q = exp["q"]
        lam, star, objects, measure, witness, path, limit, geodesic = result
        if not _check_lambda(lam, exp):
            return _bad(f"lambda {lam} != {exp['lam']}")
        if not _same_grid(star.entries, exp["star"], q, 0):
            return _bad("star differs from the reference")
        if [list(o.members) for o in objects] != exp["classes"]:
            return _bad("Martin classes differ")
        for obj, col, harm in zip(objects, exp["columns"], exp["harmonic"]):
            if obj.harmonic != harm or not all(
                    _same(v, e, q, 0) for v, e in zip(obj.column, col)):
                return _bad(f"Martin column of class {obj.class_id} differs")
        got = [(w.class_id, v * q) for w, v in measure.items()]
        if got != list(zip(exp["minimal"], exp["measure"])):
            return _bad("spectral measure differs")
        if (None if witness is None else witness.class_id) != exp["witness"]:
            return _bad("extremal witness differs")
        if list(path.states) != exp["path"]:
            return _bad("downhill path differs")
        if limit.class_id != exp["limit"] or geodesic != exp["geodesic"]:
            return _bad("geodesic limit or almost-geodesic verdict differs")
        return Verdict(True)


# -- linear-quadratic jobs ----------------------------------------------------


class LQGrid:
    """Eigen-equation grid sweeps, contours and a feedback flow."""

    name = "lq-grid"

    def __init__(self, manifest):
        self.items = manifest["items"]

    def prepare(self, item):
        return {"item": item}

    def expect(self, case):
        """The checks re-derive every expected value from the job itself."""

    def run(self, case):
        job = case["item"]
        h = lq.horofunction_field(job["n"], job["lam"])
        sweeps = [lq.verify_harmonic_lq(h, job["lam"], t, job["probes"],
                                        raise_on_clip=False) for t in HORIZONS]
        levelsets = [(level, contours.horosphere_contour(h, level, BBOX, 256))
                     for level in job["levels"]]
        svg = contours.polylines_to_svg(levelsets, BBOX)
        times, points = lq.feedback_trajectory(lq.stable_quadratic, job["x0"], 2.0, 0.01)
        slack = lq.almost_optimality_slack(points, 0.02, lq.stable_quadratic, 0.0)
        return sweeps, levelsets, svg, times, points, slack

    def check(self, case, result, exc):
        if exc is not None:
            return _bad(f"raised {_kind(exc)}: {exc}")
        job = case["item"]
        n, lam = job["n"], job["lam"]
        sweeps, levelsets, svg, times, points, slack = result
        for t, reports in zip(HORIZONS, sweeps):
            for r in reports:
                if r.clipped:
                    return _bad(f"argmax clipped at t={t}")
                # the sup at the reported argmax, from the closed forms here
                at = ref.lq_kernel(r.probe, r.argmax, t, lam) + ref.horofunction(r.argmax, n, lam)[0]
                gap = abs(at - ref.horofunction(r.probe, n, lam)[0])
                if gap > LQ_TOL or abs(gap - r.residual) > 1e-9:
                    return _bad(f"residual {r.residual} (reference {gap}) at t={t}")
        count = 0
        for level, polylines in levelsets:
            for line in polylines:
                count += 1
                err = np.abs(ref.horofunction(line, n, lam) - level)
                if float(np.max(err)) > LQ_TOL:
                    return _bad(f"contour point off level {level} by {float(np.max(err))}")
        if not svg.startswith("<svg") or not svg.endswith("</svg>\n") \
                or svg.count("<path ") != count:
            return _bad("SVG does not hold one path per polyline")
        exact = np.exp(-2.0 * times)[:, None] * np.asarray(job["x0"])
        if float(np.max(np.abs(points - exact))) > 1e-6 or not 0.0 <= slack <= 1e-6:
            return _bad("stable flow differs from e^{-2t} x0")
        return Verdict(True)


# -- the command line, one subprocess per op ----------------------------------


def _unit(values):
    n = np.array([float(v) for v in values])
    return n / float(np.linalg.norm(n))


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def cli_args(op, v):
    """Arguments of one command-line op on input variant v."""
    k, auto = v["kernel"], ["--lam", "auto"]
    table = {
        "star": ["star", k, *auto],
        "eigenvalue": ["eigenvalue", v["raw"]],
        "classes": ["classes", k, *auto],
        "martin": ["martin", k, *auto],
        "harmonic-check": ["harmonic-check", k, v["function"], *auto],
        "represent": ["represent", k, v["measure"], *auto],
        "extremal": ["extremal", k, v["function"], *auto],
        "downhill": ["downhill", k, v["function"], *auto, "--start", v["start"]],
        # vectors go in --opt=value form: a leading minus would read as a flag
        "lq-star": ["lq-star", f"--x={_csv(v['x'])}", f"--y={_csv(v['y'])}",
                    f"--lambda={v['lam']!r}"],
        "lq-horofunction": ["lq-horofunction", f"--x={_csv(v['x'])}",
                            f"--n={_csv(v['dir'])}", f"--lambda={v['lam']!r}"],
        "lq-verify": ["lq-verify", "--target", "horofunction", f"--n={_csv(v['dir'])}",
                      f"--lambda={v['lam']!r}", "--probes", "3", "--seed",
                      str(v["verify_seed"]), "--half-width", "8", "--spacing", "0.1"],
        "lq-flow": ["lq-flow", "--h", "stable", f"--x0={_csv(v['x'])}",
                    "--duration", "0.5", "--step", "0.01"],
        "lq-horosphere": ["lq-horosphere", f"--n={_csv(v['dir'])}", f"--lambda={v['lam']!r}",
                          f"--levels={_csv(v['levels'])}", "--resolution", "32",
                          "--out-dir", v["outdir"]],
        "error-malformed": ["star", v["malformed"]],
        "error-positive-cycle": ["star", v["positive"]],
    }
    return table[op]


def _normalized(v):
    k = fileio.load_kernel(v["kernel"])
    lam = kernel.max_cycle_mean(k)
    return kernel.normalize(k, lam), fileio.value_to_json(lam)


def cli_payload(op, v):
    """The report each command prints, built from in-process library calls."""
    if op == "eigenvalue":
        lam = kernel.max_cycle_mean(fileio.load_kernel(v["raw"]))
        exact = str(Fraction(lam)) if isinstance(lam, (int, Fraction)) else None
        return {"max_cycle_mean": fileio.value_to_json(lam), "exact": exact}
    if op in ("star", "classes", "martin", "harmonic-check", "represent",
              "extremal", "downhill"):
        return _finite_payload(op, v)
    return _lq_payload(op, v)


def _finite_payload(op, v):
    kn, lam = _normalized(v)
    star = kernel.kleene_star(kn)
    st = star.states
    if op == "star":
        return {"states": list(st), "basepoint": st[star.basepoint], "lambda": lam,
                "finite": star.finite,
                "star": [[fileio.value_to_json(x) for x in row] for row in star.entries]}
    if op == "classes":
        return {"lambda": lam,
                "classes": [[st[i] for i in g] for g in martin.recurrence_classes(star)]}
    objects = martin.martin_kernel(star)
    if op == "martin":
        return {"basepoint": st[star.basepoint], "lambda": lam, "columns": [{
            "class": o.class_id, "representative": st[o.representative],
            "members": [st[m] for m in o.members], "harmonic": o.harmonic,
            "minimal": o.minimal,
            "column": {s: fileio.value_to_json(x) for s, x in zip(st, o.column)},
        } for o in objects]}
    if op == "represent":
        with open(v["measure"]) as fh:
            raw = json.load(fh)
        class_of = {m: o for o in objects for m in o.members}
        nu = {}
        for label, weight in raw.items():
            obj = class_of[kn.index(label)]
            nu[obj] = oplus(nu.get(obj, NEG_INF), fileio.value_from_json(weight))
        values = martin.represent(nu, star)
        return {"lambda": lam, "function": fileio.function_to_dict(kn, values),
                "harmonic": kernel.is_harmonic(kn, values)}
    h = fileio.load_function(v["function"], kn)
    if op == "harmonic-check":
        return {"lambda": lam, "harmonic": kernel.is_harmonic(kn, h),
                "superharmonic": kernel.is_superharmonic(kn, h)}
    minimal = [o for o in objects if o.minimal]
    if op == "extremal":
        witness = martin.extremal_witness(h, minimal, star)
        measure = martin.spectral_measure(h, minimal, star)
        return {"lambda": lam, "extremal": witness is not None,
                "witness": None if witness is None else st[witness.representative],
                "spectral_measure": {st[w.representative]: fileio.value_to_json(x)
                                     for w, x in measure.items()}}
    path = paths.downhill_path(kn, h, kn.index(v["start"]), EPS, 32)
    limit = paths.geodesic_limit(path, star, EPS)
    return {"lambda": lam, "eps": EPS, "times": list(path.times),
            "states": [st[s] for s in path.states], "limit_class": limit.class_id,
            "limit_representative": st[limit.representative],
            "limit_members": [st[m] for m in limit.members],
            "almost_geodesic": paths.is_almost_geodesic(path, EPS, kn, star),
            "almost_optimal": paths.is_almost_optimal(path, h, EPS, kn)}


def _lq_payload(op, v):
    lam = v["lam"]
    x = [float(c) for c in v["x"]]
    if op == "lq-star":
        return {"x": x, "y": [float(c) for c in v["y"]], "lambda": lam,
                "value": lq.star_kernel(x, v["y"], lam),
                "optimal_horizon": lq.optimal_horizon(x, v["y"], lam)}
    n = _unit(v["dir"])
    if op == "lq-horofunction":
        return {"x": x, "n": [float(c) for c in n], "lambda": lam,
                "value": float(lq.horofunction(x, n, lam))}
    if op == "lq-verify":
        h = lq.horofunction_field(n, lam)
        probes = np.random.default_rng(v["verify_seed"]).uniform(-2.0, 2.0, size=(3, 2))
        grid = lq.GridSpec(half_width=8.0, spacing=0.1)
        per_time = []
        for t in HORIZONS:
            top = max(r.residual for r in lq.verify_harmonic_lq(h, lam, t, probes, grid))
            per_time.append({"t": t, "max_residual": top})
        worst = max(0.0, *(e["max_residual"] for e in per_time))
        return {"target": "horofunction", "lambda": lam, "dim": 2, "probes": 3,
                "tolerance": LQ_TOL, "max_residual": worst, "harmonic": worst <= LQ_TOL,
                "per_time": per_time}
    if op == "lq-flow":
        h = lq.stable_quadratic
        times, points = lq.feedback_trajectory(h, x, 0.5, 0.01)
        return {"potential": "stable", "lambda": 0.0, "x0": x, "duration": 0.5,
                "step": 0.01, "slack": lq.almost_optimality_slack(points, 0.02, h, 0.0),
                "times": [float(t) for t in times],
                "points": [[float(c) for c in p] for p in points]}
    # lq-horosphere: every requested level crosses the box, so none is skipped
    h = lq.horofunction_field(n, lam)
    levelsets = [(lvl, contours.horosphere_contour(h, lvl, BBOX, 32)) for lvl in v["levels"]]
    tag = f"{lam:.12g}"
    path = os.path.join(v["outdir"], f"horospheres_lambda{tag}.svg")
    return {"n": [float(c) for c in n], "bbox": list(BBOX), "resolution": 32,
            "levels": list(v["levels"]), "files": [path], "skipped_levels": {tag: []},
            "_svg": contours.polylines_to_svg(levelsets, BBOX)}


class CliOneshot:
    """Each op is `python -m maxplus_martin <cmd>` in a fresh interpreter."""

    name = "cli-oneshot"

    def __init__(self, manifest, env, root):
        self.env = env
        self.root = root
        self.items = [(op, v) for v in manifest["items"] for op in CLI_OPS]

    def prepare(self, item):
        op, v = item
        return {"item": item, "args": cli_args(op, v), "svg": None}

    def expect(self, case):
        op, v = case["item"]
        if op == "error-malformed":
            case["code"], case["stdout"] = 1, ""
        elif op == "error-positive-cycle":
            case["code"], case["stdout"] = 2, ""
        else:
            try:
                payload = cli_payload(op, v)
            except errors.MaxPlusError as exc:
                # the command reports the same error in one line and exits
                case["code"], case["stdout"] = exc.exit_code, ""
                return
            case["svg"] = payload.pop("_svg", None)
            case["code"], case["stdout"] = 0, fileio.canonical_json(payload)

    def run(self, case):
        return subprocess.run([sys.executable, "-m", "maxplus_martin", *case["args"]],
                              env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=120)

    def check(self, case, result, exc):
        if exc is not None:
            return _bad(f"raised {_kind(exc)}: {exc}")
        op = case["item"][0]
        if result.returncode != case["code"]:
            return _bad(f"{op}: exit {result.returncode}, expected {case['code']}: "
                        f"{result.stderr.strip()[:200]}")
        if result.stdout != case["stdout"]:
            return _bad(f"{op}: stdout differs from the in-process library calls")
        if case["code"] and not (result.stderr.startswith("error: ")
                                 and result.stderr.count("\n") == 1):
            return _bad(f"{op}: expected a one-line error on stderr")
        if case["svg"] is not None:
            with open(json.loads(case["stdout"])["files"][0]) as fh:
                if fh.read() != case["svg"]:
                    return _bad(f"{op}: SVG differs from the in-process contour")
        return Verdict(True)


class FileProbe:
    """The file layer on the command line's inputs, loaded in-process."""

    name = "fileio"

    def prepare(self, item):
        return {"item": item}

    def expect(self, case):
        with open(case["item"]["function"]) as fh:
            case["exp"] = json.load(fh)

    def run(self, case):
        v = case["item"]
        k = fileio.load_kernel(v["kernel"])
        h = fileio.load_function(v["function"], k)
        return fileio.canonical_json(fileio.function_to_dict(k, h))

    def check(self, case, result, exc):
        if exc is not None:
            return _bad(f"raised {_kind(exc)}: {exc}")
        if json.loads(result) != case["exp"]:
            return _bad("function file did not round trip")
        return Verdict(True)
