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
    EXACT_LIMIT,
    KernelMatrix,
    Scaled,
    StarMatrix,
    _fixed,
    _python_ints,
    joint,
    matrix_power,
)
from .lq import MAX_GRID_POINTS
from .martin import MartinObject, _martin_objects, _require_finite, recurrence_classes
from .semiring import NEG_INF, POS_INF, Value, le_close, otimes


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
    scaled = kernel.scaled
    return Scaled(np.array([out], dtype=dtype), scaled.q, scaled.kind)


def step_rewards(kernel: KernelMatrix, path: DiscretePath) -> list[Value]:
    """Per-step rewards A^{dt}<x_k, x_{k+1}> along the sampled path."""
    return _steps(kernel, path).values()[0]


def path_reward(
    kernel: KernelMatrix, path: DiscretePath, i: int = 0, j: int | None = None
) -> Value:
    """Reward of the sampled segment from index i to index j."""
    if j is None:
        j = len(path) - 1
    if not 0 <= i <= j < len(path):
        raise DimensionMismatch("segment indices out of range")
    steps = step_rewards(kernel, path)
    total: Value = 0
    for k in range(i, j):
        total = otimes(total, steps[k])
    return total


def _excess(target: Value, achieved: Value) -> Value:
    """How much slack the inequality achieved >= target - eps needs."""
    if type(target) is float and target == NEG_INF:
        return 0
    if type(achieved) is float and achieved == NEG_INF:
        return POS_INF
    d = target - achieved
    return d if d > 0 else 0


def almost_geodesic_excess(
    kernel: KernelMatrix, star: StarMatrix, path: DiscretePath
) -> Value:
    """Smallest eps for which the path is an eps-almost-geodesic.

    Maximum over sampled index pairs i < j of A*<x_i,x_j> minus the
    sampled reward; a single-sample path needs no slack at all.  All pairs
    are one masked array on the star's array: row i of the cumulative step
    rewards from sample i against row x_i of the star.  A path whose pairs
    exceed lq.MAX_GRID_POINTS is a DimensionMismatch.
    """
    if len(path) ** 2 > MAX_GRID_POINTS:
        raise DimensionMismatch(
            f"geodesic check of {len(path)} samples exceeds {MAX_GRID_POINTS} "
            f"sample pairs; shorten the path"
        )
    steps = _steps(kernel, path)
    q, kind = joint(star.scaled, steps)
    target = star.scaled.to(q, kind)
    reward = steps.to(q, kind).array[0]
    if kind is not float:
        bound = target.top + abs(reward[reward != -np.inf]).sum()
        if bound >= EXACT_LIMIT:
            target = Scaled(_python_ints(target.array), q, kind)
            reward = _python_ints(reward)
    # achieved[i, j-1] = reward of samples i..j, summed from i as a walk would
    upper = ~np.tri(len(reward), k=-1, dtype=bool)
    achieved = np.cumsum(np.where(upper, reward, 0), axis=1)
    xs = path.states
    goal = target.array[np.array(xs[:-1], dtype=int)[:, None], xs[1:]]
    pairs = upper & (goal != -np.inf)
    if (pairs & (achieved == -np.inf)).any():
        return POS_INF
    worst = (np.where(pairs, goal, 0) - np.where(pairs, achieved, 0)).max(initial=0)
    return target.value(worst) if worst > 0 else 0


def is_almost_geodesic(
    path: DiscretePath, eps: Value, kernel: KernelMatrix, star: StarMatrix
) -> bool:
    if eps < 0:
        raise DimensionMismatch("slack must be nonnegative")
    return le_close(almost_geodesic_excess(kernel, star, path), eps, kernel.tol)


def almost_optimal_excess(
    kernel: KernelMatrix, path: DiscretePath, h: Sequence[Value]
) -> Value:
    """Smallest eps for which h(x_0) <= eps + reward(0,j) + h(x_j) for all j."""
    _check_states(kernel, path)
    if len(h) != kernel.n:
        raise DimensionMismatch(f"function has {len(h)} values for {kernel.n} states")
    start = h[path.states[0]]
    if type(start) is float and start == NEG_INF:
        return 0
    steps = step_rewards(kernel, path)
    worst: Value = 0
    acc: Value = 0
    for j in range(1, len(path)):
        acc = otimes(acc, steps[j - 1])
        e = _excess(start, otimes(acc, h[path.states[j]]))
        if worst < e:
            worst = e
    return worst


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
    return le_close(almost_optimal_excess(kernel, path, h), eps, kernel.tol)


def path_J(star: StarMatrix, path: DiscretePath, s: int, t: int) -> Value:
    """Relative defect A*<x_0,x_s> + reward(s,t) - A*<x_0,x_t>.

    Nonpositive for every path and additive in the cut point.
    """
    if not star.finite:
        raise AssumptionViolated("relative defect needs a finite star kernel")
    if not 0 <= s <= t < len(path):
        raise DimensionMismatch("segment indices out of range")
    x0 = path.states[0]
    head = star.entries[x0][path.states[s]]
    tail = star.entries[x0][path.states[t]]
    return otimes(otimes(head, path_reward(star.source, path, s, t)), -tail)


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
        raise HMinusInfinityAtStart(
            f"h is -inf at start state {kernel.states[start]!r}"
        )
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
    settled = len(set(ids)) == 1 or ids[-1] == ids[-2]
    if not settled:
        raise NotEventuallyConstant(
            "Martin class still changing at the final sample"
        )
    limit = _martin_objects(star, [(ids[-1], classes[ids[-1]])])[0]
    if not limit.harmonic:
        raise AssumptionViolated(
            "path settled on a class whose column is not harmonic"
        )
    return limit
