"""Sampled paths: rewards, geodesic slack, and the downhill construction.

A discrete path records states at strictly increasing integer times.  Its
reward between two sampled indices is the chained kernel power
sum_k A^{t_{k+1}-t_k}<x_k, x_{k+1}>.  Checking the geodesic and optimality
inequalities on the finest sampled partition suffices: the semigroup law
makes coarser partitions only larger, so the finest one is the binding
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    HMinusInfinityAtStart,
    NotAlmostGeodesic,
    NotEventuallyConstant,
    NotHarmonic,
)
from .kernel import (
    KernelMatrix,
    Scaled,
    StarMatrix,
    _adder,
    _fixed,
    _function,
    _on_grid,
    _python_ints,
    _slack,
    matrix_power,
)
from .lq import MAX_GRID_POINTS
from .martin import MartinObject, _martin_objects, _require_finite, recurrence_classes
from .semiring import NEG_INF, POS_INF, Value, is_finite


@dataclass(frozen=True)
class DiscretePath:
    times: tuple[int, ...]
    states: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.times) != len(self.states) or not self.times:
            raise DimensionMismatch("need equally many times and states, at least one")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise DimensionMismatch("times must be strictly increasing")
        if any(not isinstance(t, int) or t < 0 for t in self.times):
            raise DimensionMismatch("times must be nonnegative integers")

    def __len__(self):
        return len(self.times)


def _check_states(kernel: KernelMatrix, path: DiscretePath):
    if min(path.states) < 0 or max(path.states) >= kernel.n:
        raise DimensionMismatch("path visits a state outside the kernel")


def _steps(kernel: KernelMatrix, path: DiscretePath) -> Scaled:
    """Per-step rewards A^{dt}<x_k, x_{k+1}> as one row on the kernel's array."""
    _check_states(kernel, path)
    dts = [b - a for a, b in zip(path.times, path.times[1:])]
    powers = {dt: matrix_power(kernel, dt).scaled.array for dt in set(dts)}
    dtype = float
    if any(p.dtype == object for p in powers.values()):
        powers = {dt: _python_ints(p) for dt, p in powers.items()}
        dtype = object
    xs = path.states
    out = [powers[dt][x, y] for dt, x, y in zip(dts, xs, xs[1:])]
    return Scaled(np.array([out], dtype=dtype), kernel.scaled.q, kernel.scaled.kind)


def _prefix(kernel: KernelMatrix, path: DiscretePath, other=()):
    """C, the impossible steps, `other` (a grid or a row of values) on C's
    scale, and a Scaled that reads values on it.

    C_0 = 0 and C_j = r_0 + ... + r_{j-1} over the step rewards, an
    impossible step (-inf) counting 0: the reward from sample i to j is
    C_j - C_i unless a step k with i <= k < j is impossible.  Every sum the
    callers form has at most 2L terms (two values of `other` and two
    prefixes of at most L - 1 steps), which sets the Python-int switch.
    """
    steps, other, grid = _on_grid(_steps(kernel, path), other, 2 * len(path))
    absent = steps[0] == NEG_INF
    r = np.where(absent, 0, steps[0])
    return np.concatenate(([0], np.cumsum(r))), absent, other, grid


def path_reward(
    kernel: KernelMatrix, path: DiscretePath, i: int = 0, j: int | None = None
) -> Value:
    """Reward of the sampled segment from index i to index j."""
    if j is None:
        j = len(path) - 1
    if not 0 <= i <= j < len(path):
        raise DimensionMismatch("segment indices out of range")
    c, absent, _, grid = _prefix(kernel, path)
    return NEG_INF if absent[i:j].any() else grid.value(c[j] - c[i])


def _within(excess: Value, eps: Value, kernel: KernelMatrix) -> bool:
    """excess <= eps, with the kernel's float slack when either is a float
    and both are finite."""
    floats = isinstance(excess, float) or isinstance(eps, float)
    kind = float if floats and is_finite(excess) and is_finite(eps) else int
    return excess <= eps + _slack(kernel, kind)


def almost_geodesic_excess(
    kernel: KernelMatrix, star: StarMatrix, path: DiscretePath
) -> Value:
    """Smallest eps for which the path is an eps-almost-geodesic:
    max_j [max_{i<j} A*<x_i,x_j> + C_i] - C_j, and 0, from one running
    maximum over the rows A*<x_i,.> + C_i (see _prefix); +inf when a finite
    A*<x_i,x_j> spans an impossible step.  Rows of more than
    lq.MAX_GRID_POINTS values are a DimensionMismatch.
    """
    if len(path) * kernel.n > MAX_GRID_POINTS:
        raise DimensionMismatch(
            f"geodesic check of {len(path)} samples on {kernel.n} states exceeds "
            f"{MAX_GRID_POINTS} points; shorten the path"
        )
    c, absent, s, grid = _prefix(kernel, path, star.scaled)
    xs = np.array(path.states)
    rows = s[xs[:-1]]
    if absent.any():
        # for sample k + 1, the last impossible step up to k; no row before
        # it may reach the sample
        cut = np.maximum.accumulate(np.where(absent, np.arange(len(absent)), -1))
        crossed = np.flatnonzero(cut >= 0)
        reach = np.logical_or.accumulate(rows != NEG_INF, axis=0)
        if reach[cut[crossed], xs[crossed + 1]].any():
            return POS_INF
    best = np.maximum.accumulate(_adder(rows)(rows, c[:-1, None]), axis=0)
    best = best[np.arange(len(rows)), xs[1:]]
    worst = _adder(best)(best, -c[1:]).max(initial=0)
    return grid.value(worst) if worst > 0 else 0


def is_almost_geodesic(
    path: DiscretePath, eps: Value, kernel: KernelMatrix, star: StarMatrix
) -> bool:
    if eps < 0:
        raise DimensionMismatch("slack must be nonnegative")
    return _within(almost_geodesic_excess(kernel, star, path), eps, kernel)


def almost_optimal_excess(
    kernel: KernelMatrix, path: DiscretePath, h: Sequence[Value]
) -> Value:
    """Smallest eps for which h(x_0) <= eps + reward(0,j) + h(x_j) for all j.

    h is finite or -inf (see kernel._function); +inf is only a result: the
    excess of a finite h(x_0) facing an impossible step or a -inf h(x_j).
    A -inf h(x_0) needs no slack.
    """
    _check_states(kernel, path)
    h = _function(kernel, h)
    along = [h[x] for x in path.states]
    if along[0] == NEG_INF:
        return 0
    c, absent, g, grid = _prefix(kernel, path, along)
    # an impossible step makes every later reward -inf
    if absent.any() or (g[1:] == NEG_INF).any():
        return POS_INF
    worst = (g[0] - (c[1:] + g[1:])).max(initial=0)
    return grid.value(worst) if worst > 0 else 0


def is_almost_optimal(
    path: DiscretePath, h: Sequence[Value], eps: Value, kernel: KernelMatrix
) -> bool:
    """Check the value inequality against h along every sampled prefix.

    The path must start at time 0; h is meant to be superharmonic (not
    rechecked here).
    """
    if path.times[0] != 0:
        raise DimensionMismatch("almost-optimal paths must start at time 0")
    if eps < 0:
        raise DimensionMismatch("slack must be nonnegative")
    return _within(almost_optimal_excess(kernel, path, h), eps, kernel)


def path_J(star: StarMatrix, path: DiscretePath, s: int, t: int) -> Value:
    """Relative defect A*<x_0,x_s> + reward(s,t) - A*<x_0,x_t>.

    Nonpositive for every path and additive in the cut point.
    """
    if not star.finite:
        raise AssumptionViolated("relative defect needs a finite star kernel")
    if not 0 <= s <= t < len(path):
        raise DimensionMismatch("segment indices out of range")
    c, absent, a, grid = _prefix(star.source, path, star.scaled)
    if absent[s:t].any():
        return NEG_INF
    x0, xs, xt = (path.states[k] for k in (0, s, t))
    return grid.value(a[x0, xs] + (c[t] - c[s]) - a[x0, xt])


def downhill_path(
    kernel: KernelMatrix,
    h: Sequence[Value],
    start: int,
    eps: Value,
    length: int,
) -> DiscretePath:
    """Greedy descent along a harmonic function.

    Each step picks the state attaining h(x) = max_y A<x,y> + h(y), so the
    per-step slack is 0, well inside any geometric budget eps/2^{n+2}.
    Ties break toward the lowest state index, which makes the construction
    deterministic.
    """
    if eps <= 0:
        raise DimensionMismatch("slack must be positive")
    if length < 0:
        raise DimensionMismatch("length must be nonnegative")
    if length + 1 > MAX_GRID_POINTS:
        raise DimensionMismatch(
            f"path of {length + 1} samples exceeds {MAX_GRID_POINTS}; lower the length"
        )
    if not 0 <= start < kernel.n:
        raise DimensionMismatch("start state out of range")
    harmonic, sums, _, _ = _fixed(kernel, h)
    if not harmonic:
        raise NotHarmonic("downhill construction needs a harmonic function")
    if sums[start].max() == -np.inf:  # max_y A<x,y> + h(y) = h(x) = -inf
        raise HMinusInfinityAtStart(f"h is -inf at start state {kernel.states[start]!r}")
    # each state's first best successor; from a finite h(x) the walk only
    # reaches states where h is finite
    successor = sums.argmax(axis=1).tolist()
    states = [start]
    for _ in range(length):
        states.append(successor[states[-1]])
    return DiscretePath(times=tuple(range(length + 1)), states=tuple(states))


def geodesic_limit(path: DiscretePath, star: StarMatrix, eps: Value) -> MartinObject:
    """Limit Martin class of an almost-geodesic, read off the sampled tail.

    The class sequence must visibly settle: the last two samples share a
    class (or the whole path stays in one).  The settled column has to be
    minimal; an almost-geodesic cannot stabilize anywhere else unless its
    slack hypothesis was violated, which is reported as such.
    """
    if not is_almost_geodesic(path, eps, star.source, star):
        raise NotAlmostGeodesic(
            f"path needs more than eps={eps} slack against the star kernel"
        )
    _require_finite(star)
    classes = recurrence_classes(star)
    class_of = {member: cid for cid, members in enumerate(classes) for member in members}
    ids = [class_of[s] for s in path.states]
    if len(set(ids)) > 1 and ids[-1] != ids[-2]:
        raise NotEventuallyConstant("Martin class still changing at the final sample")
    limit = _martin_objects(star, [(ids[-1], classes[ids[-1]])])[0]
    if not limit.harmonic:
        raise AssumptionViolated("path settled on a class whose column is not harmonic")
    return limit
