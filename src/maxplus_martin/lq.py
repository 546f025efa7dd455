"""Closed forms for the linear-quadratic model on R^n.

Running reward -|x|^2 - |u|^2 with dynamics xdot = u.  Extremal arcs solve
xddot = x, so the finite-horizon kernel has the closed form

    A^T<x,y> = -((|x|^2+|y|^2) cosh T - 2 x.y) / sinh T - lam T,

already shifted by the spectral parameter lam >= 0.  Everything else in
this module (optimal horizons, the star kernel, horofunctions, the grid
verifier, gradient flows) feeds off that formula.

Numerics: the kernel is evaluated as
    -(|x-y|^2 + (|x|^2+|y|^2)(cosh T - 1)) / sinh T - lam T
with cosh T - 1 = 2 sinh^2(T/2), which is cancellation free at small T, so
no separate series branch is needed; the value tends to 0 for x = y and to
-inf otherwise as T -> 0+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BothEndpointsZero,
    DimensionMismatch,
    GradientSingularity,
    GridTooSmall,
    NonpositiveHorizon,
    NonpositiveLambda,
    NonUnitDirection,
)
from .parallel import parallel_map

Field = Callable[[np.ndarray], np.ndarray]

# largest sweep grid verify_harmonic_lq will build: 1801^2 (the widest
# 2-D window in use) fits, while a 1601^3 default in 3-D would need ~100 GB
MAX_GRID_POINTS = 4_000_000
GRADIENT_STEP = 1e-6


def _vec(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    return a


def _check_lam(lam):
    lam = float(lam)
    if lam < 0 or not math.isfinite(lam):
        raise DimensionMismatch("spectral shift must be finite and nonnegative")
    return lam


def finite_horizon_kernel(x, y, t, lam=0.0):
    """Kernel A^t<x,y>, broadcasting over leading axes of x, y and over t."""
    lam = _check_lam(lam)
    x, y = _vec(x), _vec(y)
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatch("endpoints must share a dimension")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise NonpositiveHorizon("horizon must be strictly positive")
    d2 = np.sum((x - y) ** 2, axis=-1)
    s2 = np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)
    cm1 = 2.0 * np.sinh(t / 2.0) ** 2
    val = -(d2 + s2 * cm1) / np.sinh(t) - lam * t
    return float(val) if np.ndim(val) == 0 else val


def optimal_horizon(x, y, lam=0.0) -> float:
    """Maximizing horizon T* of the finite-horizon kernel.

    lam = 0: cosh T* = (|x|^2+|y|^2) / (2 x.y) when x.y > 0, +inf otherwise
    (the kernel increases toward its horizontal asymptote).  lam > 0:
    lam cosh T* = -x.y + sqrt((x.y)^2 + lam^2 + lam(|x|^2+|y|^2)), always
    finite.  Coincident endpoints give T* = 0, the boundary of the domain.
    """
    lam = _check_lam(lam)
    x, y = _vec(x), _vec(y)
    if x.shape != y.shape:
        raise DimensionMismatch("endpoints must share a dimension")
    dot = float(x @ y)
    d2 = float((x - y) @ (x - y))
    if lam == 0.0:
        if not x.any() and not y.any():
            raise BothEndpointsZero(
                "optimal horizon at the origin is undefined for lam = 0"
            )
        if dot <= 0:
            return math.inf
        cm1 = d2 / (2.0 * dot)
    else:
        root = math.sqrt(dot * dot + lam * lam + lam * float(x @ x + y @ y))
        cm1 = d2 / (root + dot + lam)
    # T = arccosh(1 + cm1), in the log1p form that is stable near 0
    return math.log1p(cm1 + math.sqrt(cm1 * (cm1 + 2.0)))


def star_kernel(x, y, lam=0.0) -> float:
    """Infinite-horizon kernel A*<x,y> = sup_T A^T<x,y>.

    lam = 0 splits on the sign of x.y: the sup is -|x|^2-|y|^2 (reached in
    the long-horizon limit) when x.y <= 0 and -|x-y||x+y| otherwise.  For
    lam > 0 the optimal cosh T from the quadratic is substituted back into
    the kernel in a cancellation-free arrangement.
    """
    lam = _check_lam(lam)
    x, y = _vec(x), _vec(y)
    if x.shape != y.shape:
        raise DimensionMismatch("endpoints must share a dimension")
    xx = float(x @ x)
    yy = float(y @ y)
    dot = float(x @ y)
    d2 = float((x - y) @ (x - y))
    if d2 == 0.0:
        # equal endpoints, or a gap so small its square underflows; the
        # sup is 0 to double precision either way
        return 0.0
    if lam == 0.0:
        if dot <= 0:
            return -xx - yy
        p2 = float((x + y) @ (x + y))
        return -math.sqrt(d2) * math.sqrt(p2)
    root = math.sqrt(dot * dot + lam * lam + lam * (xx + yy))
    cm1 = d2 / (root + dot + lam)
    sh = math.sqrt(cm1 * (cm1 + 2.0))
    horizon = math.log1p(cm1 + sh)
    return -(d2 + (xx + yy) * cm1) / sh - lam * horizon


def star_kernel_origin(y, lam) -> float:
    """Star kernel from the origin, fixed so that the value at y = 0 is 0.

    -|y| sqrt(lam+|y|^2) - lam log((sqrt(lam+|y|^2)+|y|) / sqrt(lam)).
    The additive constant lam log sqrt(lam) is forced by A*<0,0> = 0 and
    agrees with the numeric horizon sweep.
    """
    lam = float(lam)
    if lam <= 0:
        raise NonpositiveLambda("closed form at the origin needs lam > 0")
    y = _vec(y)
    r = float(np.linalg.norm(y))
    q = math.sqrt(lam + r * r)
    return -r * q - lam * math.log((q + r) / math.sqrt(lam))


def _check_direction(n) -> np.ndarray:
    n = _vec(n)
    if abs(float(np.linalg.norm(n)) - 1.0) > 1e-12:
        raise NonUnitDirection("direction must have norm 1 (within 1e-12)")
    return n


def horofunction(x, n, lam=0.0):
    """Boundary limit h_n(x) = lim_r A*<x, r n> - A*<0, r n>.

    lam = 0:  -|x|^2 + 2 (x.n)^2 on the half-space x.n > 0, else -|x|^2.
    lam > 0:  with R = sqrt((x.n)^2 + lam) - x.n,
              -lam |x|^2 / R^2 + (x.n)(lam + 2|x|^2) / R - lam log(R / sqrt(lam)).
    Broadcasts over leading axes of x.
    """
    lam = _check_lam(lam)
    n = _check_direction(n)
    x = np.asarray(x, dtype=float)
    p = np.sum(x * n, axis=-1)
    xx = np.sum(x * x, axis=-1)
    if lam == 0.0:
        val = -xx + 2.0 * np.where(p > 0, p, 0.0) ** 2
    else:
        q = np.sqrt(p * p + lam)
        r_neg = q - p
        r_pos = lam / (q + np.abs(p))
        big_r = np.where(p > 0, r_pos, r_neg)
        val = (
            -lam * xx / big_r**2
            + p * (lam + 2.0 * xx) / big_r
            - lam * np.log(big_r / math.sqrt(lam))
        )
    return float(val) if np.ndim(val) == 0 else val


def horofunction_field(n, lam=0.0) -> Field:
    """Vectorized h_n as a callable on point arrays (for grids and flows)."""
    n = _check_direction(n)
    lam = _check_lam(lam)

    def h(points: np.ndarray) -> np.ndarray:
        return horofunction(points, n, lam)

    return h


def stable_quadratic(points: np.ndarray) -> np.ndarray:
    """The eigenfunction -|x|^2 (feedback flow contracts to the origin)."""
    points = np.asarray(points, dtype=float)
    return -np.sum(points * points, axis=-1)


def unstable_quadratic(points: np.ndarray) -> np.ndarray:
    """The eigenfunction +|x|^2 (feedback flow escapes to infinity)."""
    points = np.asarray(points, dtype=float)
    return np.sum(points * points, axis=-1)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sweep window: [-half_width, half_width]^d with a step."""

    half_width: float
    spacing: float = 0.01

    def __post_init__(self):
        if self.half_width <= 0 or self.spacing <= 0:
            raise DimensionMismatch("grid needs positive half width and spacing")
        if self.spacing > self.half_width:
            raise DimensionMismatch("grid spacing exceeds its half width")

    def count(self) -> int:
        """Nodes per axis."""
        return int(round(2.0 * self.half_width / self.spacing)) + 1

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.count())


@dataclass(frozen=True)
class ProbeReport:
    probe: tuple[float, ...]
    residual: float
    argmax: tuple[float, ...]
    clipped: bool

    def as_dict(self):
        return {
            "probe": list(self.probe),
            "residual": self.residual,
            "argmax_location": list(self.argmax),
            "clipped": self.clipped,
        }


def verify_harmonic_lq(
    h: Field,
    lam,
    t,
    probes: Sequence,
    grid: GridSpec | None = None,
    raise_on_clip: bool = True,
) -> list[ProbeReport]:
    """Grid check of the eigen-equation sup_y A^t<x,y> + h(y) = h(x).

    Sweeps the supremum over a rectangular grid for each probe x and
    reports |sup - h(x)|.  A discrete argmax on the window boundary means
    the window missed the true maximizer; that raises GridTooSmall (with
    the per-probe reports attached) unless raise_on_clip is False.
    """
    lam = _check_lam(lam)
    t = float(t)
    if not 0 < t < math.inf:
        raise NonpositiveHorizon("horizon must be strictly positive")
    pts = np.atleast_2d(np.asarray(probes, dtype=float))
    dim = pts.shape[1]
    if grid is None:
        reach = float(np.max(np.abs(pts))) if pts.size else 1.0
        grid = GridSpec(half_width=max(1.0, 4.0 * reach), spacing=0.01)
    if grid.count() ** dim > MAX_GRID_POINTS:
        raise DimensionMismatch(
            f"sweep grid of {grid.count()}^{dim} points exceeds "
            f"{MAX_GRID_POINTS}; widen the spacing or narrow the half width"
        )
    axis = grid.axis()
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    ygrid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    y2 = np.einsum("ij,ij->i", ygrid, ygrid)
    hy = np.asarray(h(ygrid), dtype=float)
    cm1 = 2.0 * math.sinh(t / 2.0) ** 2
    sh = math.sinh(t)
    edge = len(axis) - 1
    h_at = np.asarray(h(pts), dtype=float)

    def sweep(i):
        x = pts[i]
        xx = float(x @ x)
        cross = ygrid @ x
        vals = hy - (y2 - 2.0 * cross + xx + (xx + y2) * cm1) / sh - lam * t
        k = int(np.argmax(vals))
        idx = np.unravel_index(k, (len(axis),) * dim)
        clipped = any(j == 0 or j == edge for j in idx)
        return ProbeReport(
            probe=tuple(float(c) for c in x),
            residual=abs(float(vals[k]) - float(h_at[i])),
            argmax=tuple(float(axis[j]) for j in idx),
            clipped=clipped,
        )

    reports = parallel_map(sweep, range(len(pts)))
    if raise_on_clip and any(r.clipped for r in reports):
        raise GridTooSmall(
            "discrete argmax touched the grid boundary; enlarge half_width",
            reports=reports,
        )
    return reports


def gradient(h: Field, x) -> np.ndarray:
    """Central-difference gradient with a refinement cross-check.

    Differences at GRADIENT_STEP and 10x that step must agree; a disagreement
    beyond the roundoff budget means h has a kink (or worse) at x and no
    single gradient is trustworthy there.
    """
    x = _vec(x)
    d = len(x)

    def central(step):
        offsets = np.concatenate([np.eye(d) * step, -np.eye(d) * step])
        vals = np.asarray(h(x + offsets), dtype=float)
        return (vals[:d] - vals[d:]) / (2.0 * step)

    g1 = central(GRADIENT_STEP)
    g2 = central(10.0 * GRADIENT_STEP)
    scale = float(np.max(np.abs(g1))) if d else 0.0
    if float(np.max(np.abs(g1 - g2))) > 2e-7 + 1e-8 * scale:
        raise GradientSingularity(
            f"finite differences disagree near {tuple(float(c) for c in x)}"
        )
    return g1


def feedback_trajectory(h: Field, x0, duration, step):
    """Integrate the gradient ascent flow xdot = grad h by fixed-step RK4.

    Returns (times, points) with points[k] at time k*step.  The quadratic
    eigenfunction -|x|^2 gives x(t) = e^{-2t} x0, its unstable twin the
    escaping mirror image.
    """
    duration = float(duration)
    step = float(step)
    if not (duration > 0 and step > 0):  # NaN included
        raise DimensionMismatch("duration and step must be positive")
    if step > duration:
        raise DimensionMismatch("step exceeds duration")
    x = _vec(x0).copy()
    # a float count, which an infinite duration leaves infinite
    if (round(duration / step, 0) + 1) * len(x) > MAX_GRID_POINTS:
        raise DimensionMismatch(
            f"trajectory of {duration / step:.12g} steps in dimension {len(x)} "
            f"exceeds {MAX_GRID_POINTS} points; lengthen the step"
        )
    steps = int(round(duration / step))
    times = np.arange(steps + 1) * step
    out = np.empty((steps + 1, len(x)))
    out[0] = x
    for k in range(steps):
        k1 = gradient(h, x)
        k2 = gradient(h, x + 0.5 * step * k1)
        k3 = gradient(h, x + 0.5 * step * k2)
        k4 = gradient(h, x + step * k3)
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    return times, out


def almost_optimality_slack(points, dt, h: Field, lam=0.0) -> float:
    """Largest violation of h(x_0) <= reward(0,j) + h(x_j) along samples.

    The consecutive rewards use the finite-horizon kernel at horizon dt.
    Zero (up to integration error) exactly when the sampled flow traverses
    optimal arcs at the speed matching dt.
    """
    lam = _check_lam(lam)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 2:
        return 0.0
    rewards = finite_horizon_kernel(points[:-1], points[1:], float(dt), lam)
    hv = np.asarray(h(points), dtype=float)
    totals = np.cumsum(np.atleast_1d(rewards))
    slack = hv[0] - (totals + hv[1:])
    return max(0.0, float(np.max(slack)))
