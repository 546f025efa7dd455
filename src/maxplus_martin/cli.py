"""Command line front end.

Two command families share one entry point: finite-space commands read a
kernel from JSON or CSV and report on its max-plus potential theory, and
lq-* commands evaluate the closed forms of the quadratic control problem.
Reports are deterministic JSON (stable key order, 12 significant digits)
so runs can be diffed.  Exit codes: 0 success, 1 bad input, 2 violated
mathematical assumption.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import __version__
from .contours import marching_squares, polylines_to_csv, polylines_to_svg, sample_field
from .errors import BothEndpointsZero, DimensionMismatch, EmptyContour, MaxPlusError
from .fileio import (
    canonical_json,
    function_to_dict,
    load_function,
    load_kernel,
    value_from_json,
    value_to_json,
)
from .kernel import (
    is_harmonic,
    is_superharmonic,
    kleene_star,
    max_cycle_mean,
    normalize,
)
from .lq import (
    GridSpec,
    feedback_trajectory,
    almost_optimality_slack,
    horofunction,
    horofunction_field,
    optimal_horizon,
    stable_quadratic,
    star_kernel,
    unstable_quadratic,
    verify_harmonic_lq,
)
from .martin import (
    extremal_witness,
    martin_kernel,
    minimal_martin_space,
    recurrence_classes,
    represent,
    spectral_measure,
)
from .paths import (
    downhill_path,
    geodesic_limit,
    is_almost_geodesic,
    is_almost_optimal,
)
from .semiring import parse_value


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on one line with exit code 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _scalar(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    return parse_value(text)


def _finite(text: str) -> float:
    """A finite float; argparse reports a ValueError as an invalid value."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _floats(text: str, number=float) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return [number(p) for p in parts]


def _point(text: str) -> np.ndarray:
    return np.array(_floats(text, _finite))


def _bbox(text: str) -> tuple[float, float, float, float]:
    vals = _floats(text, _finite)
    if len(vals) != 4:
        raise ValueError("bounding box needs xmin,ymin,xmax,ymax")
    return tuple(vals)


def _unit(n: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise DimensionMismatch("direction must be a nonzero vector")
    if abs(norm - 1.0) > 1e-9:
        warnings.warn(f"normalizing direction by its norm {norm:.12g}")
    return n / norm


def _emit(args, payload: dict) -> None:
    text = canonical_json(payload)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_normalized(args):
    kernel = load_kernel(args.kernel)
    if args.lam is None:
        return kernel, None
    lam = max_cycle_mean(kernel) if args.lam == "auto" else _scalar(args.lam)
    return normalize(kernel, lam), lam


def _lam_field(lam):
    return None if lam is None else value_to_json(lam)


def cmd_star(args) -> int:
    kernel, lam = _load_normalized(args)
    star = kleene_star(kernel)
    _emit(args, {
        "states": list(star.states),
        "basepoint": star.states[star.basepoint],
        "lambda": _lam_field(lam),
        "finite": star.finite,
        "star": [[value_to_json(v) for v in row] for row in star.entries],
    })
    return 0


def cmd_eigenvalue(args) -> int:
    kernel = load_kernel(args.kernel)
    lam = max_cycle_mean(kernel)
    exact = str(Fraction(lam)) if isinstance(lam, (int, Fraction)) else None
    _emit(args, {"max_cycle_mean": value_to_json(lam), "exact": exact})
    return 0


def cmd_classes(args) -> int:
    kernel, lam = _load_normalized(args)
    star = kleene_star(kernel)
    groups = recurrence_classes(star)
    _emit(args, {
        "lambda": _lam_field(lam),
        "classes": [[star.states[i] for i in grp] for grp in groups],
    })
    return 0


def cmd_martin(args) -> int:
    kernel, lam = _load_normalized(args)
    star = kleene_star(kernel)
    columns = []
    for obj in martin_kernel(star):
        columns.append({
            "class": obj.class_id,
            "representative": star.states[obj.representative],
            "members": [star.states[m] for m in obj.members],
            "harmonic": obj.harmonic,
            "minimal": obj.harmonic,
            "column": {
                s: value_to_json(v) for s, v in zip(star.states, obj.column)
            },
        })
    _emit(args, {
        "basepoint": star.states[star.basepoint],
        "lambda": _lam_field(lam),
        "columns": columns,
    })
    return 0


def cmd_harmonic_check(args) -> int:
    kernel, lam = _load_normalized(args)
    h = load_function(args.function, kernel)
    _emit(args, {
        "lambda": _lam_field(lam),
        "harmonic": is_harmonic(kernel, h),
        "superharmonic": is_superharmonic(kernel, h),
    })
    return 0


def cmd_represent(args) -> int:
    kernel, lam = _load_normalized(args)
    star = kleene_star(kernel)
    class_of = {member: obj for obj in martin_kernel(star) for member in obj.members}
    with open(args.measure) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise DimensionMismatch("measure file must map state labels to weights")
    nu = {}
    for label, weight in raw.items():
        obj, w = class_of[kernel.index(label)], value_from_json(weight)
        nu[obj] = max(nu.get(obj, w), w)
    values = represent(nu, star)
    _emit(args, {
        "lambda": _lam_field(lam),
        "function": function_to_dict(kernel, values),
        "harmonic": is_harmonic(kernel, values),
    })
    return 0


def cmd_extremal(args) -> int:
    kernel, lam = _load_normalized(args)
    star = kleene_star(kernel)
    minimal = minimal_martin_space(star)
    h = load_function(args.function, kernel)
    witness = extremal_witness(h, minimal, star)
    measure = spectral_measure(h, minimal, star)
    _emit(args, {
        "lambda": _lam_field(lam),
        "extremal": witness is not None,
        "witness": None if witness is None else star.states[witness.representative],
        "spectral_measure": {
            star.states[w.representative]: value_to_json(v)
            for w, v in measure.items()
        },
    })
    return 0


def cmd_downhill(args) -> int:
    kernel, lam = _load_normalized(args)
    h = load_function(args.function, kernel)
    path = downhill_path(kernel, h, kernel.index(args.start), args.eps, args.length)
    star = kleene_star(kernel)
    limit = geodesic_limit(path, star, args.eps)
    _emit(args, {
        "lambda": _lam_field(lam),
        "eps": args.eps,
        "times": list(path.times),
        "states": [kernel.states[s] for s in path.states],
        "limit_class": limit.class_id,
        "limit_representative": star.states[limit.representative],
        "limit_members": [star.states[m] for m in limit.members],
        "almost_geodesic": is_almost_geodesic(path, args.eps, kernel, star),
        "almost_optimal": is_almost_optimal(path, h, args.eps, kernel),
    })
    return 0


def cmd_lq_star(args) -> int:
    value = star_kernel(args.x, args.y, args.lam)
    try:
        horizon = optimal_horizon(args.x, args.y, args.lam)
    except BothEndpointsZero:
        horizon = None
    _emit(args, {
        "x": [float(c) for c in args.x],
        "y": [float(c) for c in args.y],
        "lambda": args.lam,
        "value": value,
        "optimal_horizon": horizon,
    })
    return 0


def cmd_lq_horofunction(args) -> int:
    n = _unit(args.n)
    value = float(horofunction(args.x, n, args.lam))
    _emit(args, {
        "x": [float(c) for c in args.x],
        "n": [float(c) for c in n],
        "lambda": args.lam,
        "value": value,
    })
    return 0


def _potential(name: str, n, lam: float):
    """Field of a named potential; 'horofunction' needs the direction n."""
    if name == "stable":
        return stable_quadratic
    if name == "unstable":
        return unstable_quadratic
    if n is None:
        raise DimensionMismatch(f"potential '{name}' needs --n")
    return horofunction_field(_unit(n), lam)


def cmd_lq_verify(args) -> int:
    if args.probes < 1:
        raise DimensionMismatch("--probes must be at least 1")
    h = _potential(args.target, args.n, args.lam)
    rng = np.random.default_rng(args.seed)
    probes = rng.uniform(-args.radius, args.radius, size=(args.probes, args.dim))
    grid = None
    if args.half_width is not None:
        grid = GridSpec(half_width=args.half_width, spacing=args.spacing)
    per_time = []
    worst = 0.0
    for t in args.t:
        reports = verify_harmonic_lq(h, args.lam, t, probes, grid)
        top = max(r.residual for r in reports)
        worst = max(worst, top)
        entry = {"t": t, "max_residual": top}
        if args.per_probe:
            entry["reports"] = [r.as_dict() for r in reports]
        per_time.append(entry)
    _emit(args, {
        "target": args.target,
        "lambda": args.lam,
        "dim": args.dim,
        "probes": args.probes,
        "tolerance": args.tol,
        "max_residual": worst,
        "harmonic": worst <= args.tol,
        "per_time": per_time,
    })
    return 0


def cmd_lq_flow(args) -> int:
    h = _potential(args.h, args.n, args.lam)
    times, points = feedback_trajectory(h, args.x0, args.duration, args.step)
    # the ascent field doubles the optimal feedback (u* = grad h / 2), so
    # the flow runs the optimal arc at twice control speed; the slack is
    # measured against rewards at the matching control horizon 2*step
    slack = almost_optimality_slack(points, 2.0 * args.step, h, args.lam)
    _emit(args, {
        "potential": args.h,
        "lambda": args.lam,
        "x0": [float(c) for c in args.x0],
        "duration": args.duration,
        "step": args.step,
        "slack": slack,
        "times": [float(t) for t in times],
        "points": [[float(c) for c in p] for p in points],
    })
    return 0


def cmd_lq_horosphere(args) -> int:
    n = _unit(args.n)
    if len(n) != 2:
        raise DimensionMismatch("horosphere figures are drawn in dimension 2")
    lams = args.lam if args.lam is not None else [0.0, 1.0]
    for i, lam in enumerate(lams):
        if lams.index(lam) < i:  # equal as floats, so 0 and 0.0 repeat
            raise DimensionMismatch(f"--lambda {lam:.12g} is given twice")
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    skipped = {}
    for lam in lams:
        h = horofunction_field(n, lam)
        xs, ys, vals = sample_field(h, args.bbox, args.resolution)
        levelsets = []
        missing = []
        for level in args.levels:
            polylines = marching_squares(vals, xs, ys, level)
            if polylines:
                levelsets.append((level, polylines))
            else:
                missing.append(level)
        if missing:
            warnings.warn(
                f"lambda={lam:.12g} skips levels outside the box: "
                + ",".join(f"{v:.12g}" for v in missing)
            )
        if not levelsets:
            raise EmptyContour(
                f"no requested level intersects the box for lambda={lam:.12g}"
            )
        tag = f"{lam:.12g}"
        path = os.path.join(args.out_dir, f"horospheres_lambda{tag}.{args.format}")
        if args.format == "svg":
            text = polylines_to_svg(levelsets, args.bbox)
        else:
            text = polylines_to_csv(levelsets)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
        skipped[tag] = missing
    _emit(args, {
        "n": [float(c) for c in n],
        "bbox": list(args.bbox),
        "resolution": args.resolution,
        "levels": list(args.levels),
        "files": written,
        "skipped_levels": skipped,
    })
    return 0


def _add_out(p) -> None:
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the JSON report to FILE instead of stdout")


def _add_kernel(p) -> None:
    p.add_argument("kernel", help="kernel file, JSON or CSV by extension")
    p.add_argument("--lam", metavar="VALUE|auto", default=None,
                   help="subtract this eigenvalue from every entry first "
                        "('auto' computes the max cycle mean)")
    _add_out(p)


def _add_lambda(p) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   metavar="VALUE", help="spectral shift (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="maxplus",
        description="Max-plus potential theory on finite kernels and the "
                    "closed forms of the quadratic control problem.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser, required=True)

    p = sub.add_parser("star", help="Kleene star of a kernel")
    _add_kernel(p)
    p.set_defaults(run=cmd_star)

    p = sub.add_parser("eigenvalue", help="max cycle mean of a kernel")
    p.add_argument("kernel", help="kernel file, JSON or CSV by extension")
    _add_out(p)
    p.set_defaults(run=cmd_eigenvalue)

    p = sub.add_parser("classes", help="recurrence classes of the star")
    _add_kernel(p)
    p.set_defaults(run=cmd_classes)

    p = sub.add_parser("martin", help="Martin kernel columns by class")
    _add_kernel(p)
    p.set_defaults(run=cmd_martin)

    p = sub.add_parser("harmonic-check",
                       help="is a function file harmonic or superharmonic")
    _add_kernel(p)
    p.add_argument("function", help="JSON file mapping state labels to values")
    p.set_defaults(run=cmd_harmonic_check)

    p = sub.add_parser("represent",
                       help="max-plus combination of Martin columns")
    _add_kernel(p)
    p.add_argument("measure", help="JSON file mapping state labels to weights")
    p.set_defaults(run=cmd_represent)

    p = sub.add_parser("extremal",
                       help="extremality and spectral measure of a function")
    _add_kernel(p)
    p.add_argument("function", help="JSON file mapping state labels to values")
    p.set_defaults(run=cmd_extremal)

    p = sub.add_parser("downhill",
                       help="greedy descent path along a harmonic function")
    _add_kernel(p)
    p.add_argument("function", help="JSON file mapping state labels to values")
    p.add_argument("--start", required=True, metavar="STATE",
                   help="label of the starting state")
    p.add_argument("--eps", type=float, default=1e-3,
                   help="geodesic slack budget (default 1e-3)")
    p.add_argument("--length", type=int, default=32,
                   help="number of unit steps (default 32)")
    p.set_defaults(run=cmd_downhill)

    p = sub.add_parser("lq-star", help="infinite-horizon kernel value")
    p.add_argument("--x", type=_point, required=True, metavar="V",
                   help="start point, comma separated")
    p.add_argument("--y", type=_point, required=True, metavar="V",
                   help="end point, comma separated")
    _add_lambda(p)
    _add_out(p)
    p.set_defaults(run=cmd_lq_star)

    p = sub.add_parser("lq-horofunction", help="boundary function value")
    p.add_argument("--x", type=_point, required=True, metavar="V",
                   help="evaluation point, comma separated")
    p.add_argument("--n", type=_point, required=True, metavar="V",
                   help="boundary direction (normalized if needed)")
    _add_lambda(p)
    _add_out(p)
    p.set_defaults(run=cmd_lq_horofunction)

    p = sub.add_parser("lq-verify",
                       help="grid check of the eigen-equation for a candidate")
    p.add_argument("--target", choices=("stable", "unstable", "horofunction"),
                   required=True)
    p.add_argument("--n", type=_point, default=None, metavar="V",
                   help="direction for the horofunction target")
    _add_lambda(p)
    p.add_argument("--t", type=_floats, default=[0.5, 1.0], metavar="LIST",
                   help="comma separated horizons (default 0.5,1)")
    p.add_argument("--dim", type=int, default=2,
                   help="ambient dimension (default 2)")
    p.add_argument("--probes", type=int, default=12,
                   help="number of random probe points (default 12)")
    p.add_argument("--radius", type=_finite, default=2.0,
                   help="probe coordinates are drawn from [-radius, radius]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--half-width", type=_finite, default=None,
                   help="sweep window half width (default 4 * max probe)")
    p.add_argument("--spacing", type=_finite, default=0.01,
                   help="sweep grid spacing (default 0.01)")
    p.add_argument("--tol", type=_finite, default=1e-3,
                   help="residual threshold for the harmonic verdict")
    p.add_argument("--per-probe", action="store_true",
                   help="include per-probe residuals and maximizers")
    _add_out(p)
    p.set_defaults(run=cmd_lq_verify)

    p = sub.add_parser("lq-flow", help="gradient feedback trajectory")
    p.add_argument("--h", choices=("stable", "unstable", "horofunction"),
                   default="stable", help="potential to follow")
    p.add_argument("--n", type=_point, default=None, metavar="V",
                   help="direction for the horofunction potential")
    _add_lambda(p)
    p.add_argument("--x0", type=_point, required=True, metavar="V",
                   help="initial point, comma separated")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.01)
    _add_out(p)
    p.set_defaults(run=cmd_lq_flow)

    p = sub.add_parser("lq-horosphere", help="horosphere contour figures")
    p.add_argument("--lambda", dest="lam", type=float, action="append",
                   default=None, metavar="VALUE",
                   help="spectral shift, repeatable (default: 0 and 1)")
    p.add_argument("--n", type=_point, default=np.array([0.0, 1.0]),
                   metavar="V", help="boundary direction (default 0,1)")
    p.add_argument("--bbox", type=_bbox, default=(-3.0, -3.0, 3.0, 3.0),
                   metavar="X0,Y0,X1,Y1", help="drawing box (default -3,-3,3,3)")
    p.add_argument("--levels", type=_floats,
                   default=[-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0],
                   metavar="LIST", help="contour levels, comma separated")
    p.add_argument("--resolution", type=int, default=256,
                   help="marching squares cells per axis (default 256)")
    p.add_argument("--format", choices=("svg", "csv"), default="svg")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for the figure files (default .)")
    _add_out(p)
    p.set_defaults(run=cmd_lq_horosphere)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        args = build_parser().parse_args(argv)
        try:
            return args.run(args)
        except MaxPlusError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
