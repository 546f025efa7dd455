"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately naive: plain loops, the textbook
kernel formula, dense sweeps, Simpson quadrature.  Slow but transparent,
so disagreements point at the library and not at the oracle.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import simpson

NEG = float("-inf")


def as_raw(value):
    """Package scalar to oracle scalar: the same plain number, the
    infinities being floats on both sides."""
    assert type(value) in (int, float, Fraction), value
    return value


def mp_matmul(a, b):
    """Max-plus product, term by term; a -inf factor drops its term, so a
    float -inf never meets an int past the float range."""
    n = len(a)
    return [
        [
            max(
                (a[i][k] + b[k][j] for k in range(n) if a[i][k] != NEG and b[k][j] != NEG),
                default=NEG,
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def mp_apply(entries, g):
    """(A g)(x) = max_y A[x][y] + g(y), term by term.

    -inf absorbs, also against +inf; a row with no finite term gives -inf.
    """
    out = []
    for row in entries:
        best = NEG
        for a, v in zip(row, g):
            if a != NEG and v != NEG and a + v > best:
                best = a + v
        out.append(best)
    return out


def greedy_descent(entries, h, start, length):
    """States of the walk that steps to the lowest-index y maximizing
    A[x][y] + h(y), length steps from start."""
    states = [start]
    for _ in range(length):
        row = entries[states[-1]]
        best, choice = NEG, states[-1]
        for y in range(len(row)):
            if row[y] != NEG and h[y] != NEG and row[y] + h[y] > best:
                best, choice = row[y] + h[y], y
        states.append(choice)
    return states


def boundary_measure(star, b, h, members):
    """mu_h(w) = max over x in w of A*[b][x] + h(x), term by term.

    -inf absorbs, also against +inf; a class where every term is -inf
    gives -inf.
    """
    best = NEG
    for x in members:
        if star[b][x] != NEG and h[x] != NEG and star[b][x] + h[x] > best:
            best = star[b][x] + h[x]
    return best


def extremal_class(star, b, h, classes, tol):
    """Index of the first class w with h(x) = mu_h(w) + A*[x][r] - A*[b][r]
    at every x, r the first member of w, or None.  -inf matches only -inf;
    two values with a float among them match within tol."""
    for i, members in enumerate(classes):
        c = boundary_measure(star, b, h, members)
        r = members[0]
        ok = True
        for x in range(len(h)):
            want = NEG if c == NEG else c + (star[x][r] - star[b][r])
            if want == NEG or h[x] == NEG:
                ok = ok and want == h[x]
            elif isinstance(want, float) or isinstance(h[x], float):
                ok = ok and abs(h[x] - want) <= tol
            else:
                ok = ok and h[x] == want
        if ok:
            return i
    return None


def step_rewards(entries, times, states):
    """The rewards A^dt[x_k][x_k+1] of the sampled steps, each power a chain
    of max-plus products."""
    powers = {}
    steps = []
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        if dt not in powers:
            power = entries
            for _ in range(dt - 1):
                power = mp_matmul(power, entries)
            powers[dt] = power
        steps.append(powers[dt][states[k]][states[k + 1]])
    return steps


def geodesic_excess(star, entries, times, states):
    """max over sample pairs i < j of A*[x_i][x_j] minus the summed step
    rewards A^dt[x_k][x_k+1] from i to j, and 0; +inf when a finite star
    entry faces a segment with an impossible step."""
    steps = step_rewards(entries, times, states)
    worst = 0
    for i in range(len(states)):
        acc = 0
        for j in range(i + 1, len(states)):
            acc = NEG if NEG in (acc, steps[j - 1]) else acc + steps[j - 1]
            goal = star[states[i]][states[j]]
            if goal == NEG:
                continue
            if acc == NEG:
                return math.inf
            worst = max(worst, goal - acc)
    return worst


def optimal_excess(entries, h, times, states):
    """max over samples j >= 1 of h(x_0) minus (the summed step rewards from
    0 to j plus h(x_j)), and 0.  -inf absorbs in the sums, also against
    +inf; h(x_0) = -inf needs no slack, a -inf right side needs +inf, and a
    +inf right side none."""
    start = h[states[0]]
    if start == NEG:
        return 0
    steps = step_rewards(entries, times, states)
    worst = 0
    acc = 0
    for j in range(1, len(states)):
        acc = NEG if NEG in (acc, steps[j - 1]) else acc + steps[j - 1]
        value = h[states[j]]
        if NEG in (acc, value):
            return math.inf
        if value == math.inf:
            continue
        if start == math.inf:
            return math.inf
        worst = max(worst, start - (acc + value))
    return worst


def brute_star(entries, horizon):
    """Elementwise sup of A^t for t = 0..horizon, identity included."""
    n = len(entries)
    best = [[0 if i == j else NEG for j in range(n)] for i in range(n)]
    power = [row[:] for row in best]
    for _ in range(horizon):
        power = mp_matmul(power, entries)
        for i in range(n):
            for j in range(n):
                if power[i][j] > best[i][j]:
                    best[i][j] = power[i][j]
    return best


def recurrence_labels(star):
    """Each state's least relative under the transitive closure of
    x ~ y iff star[x][y] + star[y][x] = 0, closed by Warshall's triple loop."""
    n = len(star)
    rel = [
        [x == y or NEG not in (star[x][y], star[y][x]) and star[x][y] + star[y][x] == 0
         for y in range(n)]
        for x in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    return [rel[x].index(True) for x in range(n)]


def self_pairing(star, b, members):
    """H(xi, xi) of the class `members`, xi the Martin column of its first
    member y: max over x in the class of A*[b][x] + A*[x][y] - A*[b][y]."""
    y = members[0]
    return max(star[b][x] + star[x][y] - star[b][y] for x in members)


def enumerate_cycle_means(entries):
    """Mean weights of all simple cycles, as exact Fractions.

    Cycles are rooted at their smallest vertex so each one is counted
    once.  Entries may mix ints and float -inf; only finite arcs walk.
    """
    n = len(entries)
    means = []

    def walk(root, node, visited, weight, length):
        for nxt in range(n):
            w = entries[node][nxt]
            if w == NEG:
                continue
            if nxt == root:
                means.append(Fraction(weight + w, length + 1))
            elif nxt > root and nxt not in visited:
                walk(root, nxt, visited | {nxt}, weight + w, length + 1)

    for root in range(n):
        walk(root, root, {root}, 0, 0)
    return means


def karp_cycle_mean(entries):
    """Largest cycle mean by Karp's min-max over exact Fractions, or None
    when no cycle exists.

    D[k][v] is the best weight of a k-step walk ending at v from any start
    (None when there is none), and the mean is
    max over v with D[n][v] of min over k with D[k][v] of
    (D[n][v] - D[k][v]) / (n - k).  Entries may be ints, Fractions or
    floats (taken at their exact values), with float -inf for no arc.
    """
    n = len(entries)
    D = [[Fraction(0)] * n]
    for _ in range(n):
        row = []
        for v in range(n):
            best = None
            for u in range(n):
                if D[-1][u] is None or entries[u][v] == NEG:
                    continue
                weight = D[-1][u] + Fraction(entries[u][v])
                if best is None or weight > best:
                    best = weight
            row.append(best)
        D.append(row)
    best = None
    for v in range(n):
        if D[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if D[k][v] is not None:
                mean = (D[n][v] - D[k][v]) / (n - k)
                if worst is None or mean < worst:
                    worst = mean
        if best is None or worst > best:
            best = worst
    return best


def kernel_textbook(x, y, t, lam=0.0):
    """Finite-horizon kernel in its raw form; fine away from t ~ 0.

    -((|x|^2+|y|^2) cosh t - 2 x.y) / sinh t - lam t, broadcasting over
    leading axes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x2 = np.sum(x * x, axis=-1)
    y2 = np.sum(y * y, axis=-1)
    dot = np.sum(x * y, axis=-1)
    t = np.asarray(t, dtype=float)
    return -((x2 + y2) * np.cosh(t) - 2.0 * dot) / np.sinh(t) - lam * t


def sweep_star(xs, ys, lam, t_lo=1e-6, t_hi=40.0, grid=500, refine=120):
    """sup_T of the kernel by dense log grid plus ternary refinement.

    Vectorized over a batch of endpoint pairs.  The kernel is unimodal
    in T (it has at most one interior stationary point and diverges to
    -inf as T -> 0), so ternary search on the bracketing grid cells
    converges to the true supremum; a maximum on the last grid cell
    walks to the long-horizon plateau instead.

    Returns (values, horizons); a horizon equal to t_hi flags a sup that
    is only approached in the limit.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    ts = np.geomspace(t_lo, t_hi, grid)
    vals = kernel_textbook(xs[:, None, :], ys[:, None, :], ts[None, :], lam)
    idx = np.argmax(vals, axis=1)
    lo = ts[np.maximum(idx - 1, 0)]
    hi = ts[np.minimum(idx + 1, grid - 1)]
    for _ in range(refine):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = kernel_textbook(xs, ys, m1, lam)
        f2 = kernel_textbook(xs, ys, m2, lam)
        keep_lo = f1 < f2
        lo = np.where(keep_lo, m1, lo)
        hi = np.where(keep_lo, hi, m2)
    mid = 0.5 * (lo + hi)
    best = kernel_textbook(xs, ys, mid, lam)
    # the sup may sit on the grid itself when the bracket degenerates
    best = np.maximum(best, vals[np.arange(len(best)), idx])
    return best, mid


def euler_arc(x, y, horizon):
    """Coefficients (W, Z) of the arc W e^t + Z e^{-t} joining x to y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    et = math.exp(horizon)
    emt = math.exp(-horizon)
    w = (y - emt * x) / (et - emt)
    z = (et * x - y) / (et - emt)
    return w, z


def action_simpson(x, y, horizon, lam=0.0, num=4001):
    """Simpson quadrature of -(|p|^2+|v|^2+lam) along the explicit arc."""
    w, z = euler_arc(x, y, horizon)
    ts = np.linspace(0.0, horizon, num)
    up = np.exp(ts)[:, None]
    dn = np.exp(-ts)[:, None]
    pos = up * w + dn * z
    vel = up * w - dn * z
    integrand = -np.sum(pos * pos, axis=1) - np.sum(vel * vel, axis=1) - lam
    return float(simpson(integrand, x=ts))


def perturbed_action(x, y, horizon, lam, bump, num=4001):
    """Action of the arc warped by a bump vanishing at both endpoints.

    bump is a vector amplitude; the warp is bump * sin(pi t / horizon),
    differentiated exactly.  Any nonzero bump must not beat the arc.
    """
    w, z = euler_arc(x, y, horizon)
    bump = np.asarray(bump, dtype=float)
    ts = np.linspace(0.0, horizon, num)
    up = np.exp(ts)[:, None]
    dn = np.exp(-ts)[:, None]
    omega = math.pi / horizon
    pos = up * w + dn * z + np.sin(omega * ts)[:, None] * bump
    vel = up * w - dn * z + (omega * np.cos(omega * ts))[:, None] * bump
    integrand = -np.sum(pos * pos, axis=1) - np.sum(vel * vel, axis=1) - lam
    return float(simpson(integrand, x=ts))


def stationary_horizon(xs, ys, lam, lo=1e-9, hi=60.0, iters=120):
    """Numeric argmax horizon located as a root of the T-derivative.

    The dense sweep cannot certify nearly flat maxima to 1e-5, so the
    argmax is pinned instead as the unique sign change of the kernel's
    T-derivative numerator

        g(T) = |x|^2 + |y|^2 - 2 x.y cosh T - lam sinh^2 T,

    obtained by differentiating the textbook form directly.  g starts at
    |x - y|^2 >= 0, has a single decreasing crossing on (0, hi) whenever
    lam > 0 or x.y > 0, and its slope at the root is bounded below by the
    problem scale, so bisection resolves T* to machine precision.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    b = np.sum(xs * xs, axis=1) + np.sum(ys * ys, axis=1)
    dot = np.sum(xs * ys, axis=1)

    def g(t):
        return b - 2.0 * dot * np.cosh(t) - lam * np.sinh(t) ** 2

    lo = np.full(len(b), lo)
    hi = np.full(len(b), hi)
    assert np.all(g(lo) > 0) and np.all(g(hi) < 0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        up = g(mid) > 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def marching_segments(values, xs, ys, level):
    """Marching-squares segments of the level set of node values, every
    cell of the xs x ys lattice scanned in (i, j) order, crossed or not.
    Each crossing interpolates linearly on its edge; a saddle (four
    crossings) is split by its cell-centre average."""
    inside = values > level
    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = [(xs[i], ys[j], i, j), (xs[i + 1], ys[j], i + 1, j),
                       (xs[i + 1], ys[j + 1], i + 1, j + 1), (xs[i], ys[j + 1], i, j + 1)]
            points = {}
            for e in range(4):
                xa, ya, ia, ja = corners[e]
                xb, yb, ib, jb = corners[(e + 1) % 4]
                if inside[ia, ja] != inside[ib, jb]:
                    va, vb = values[ia, ja], values[ib, jb]
                    t = (level - va) / (vb - va)
                    points[e] = (xa + t * (xb - xa), ya + t * (yb - ya))
            edges = sorted(points)
            if len(edges) == 2:
                segments.append((points[edges[0]], points[edges[1]]))
            elif len(edges) == 4:
                centre_inside = values[i : i + 2, j : j + 2].mean() > level
                if centre_inside == inside[i, j]:
                    segments += [(points[0], points[1]), (points[2], points[3])]
                else:
                    segments += [(points[3], points[0]), (points[1], points[2])]
    return segments


def twelve_digits(v: float) -> str:
    """A float with 12 significant digits; integral values below 1e15 as
    integers, non-finite ones as nan, inf and -inf."""
    if v != v:
        return "nan"
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.12g}"


def canonical_json_text(payload) -> str:
    """Canonical report text in two passes: rewrite the payload (keys as
    str, tuples as lists, floats as their 12-digit JSON value or, when not
    finite, a string), then json.dumps(indent=2).  Fractions go to an int or
    a float."""

    def walk(node):
        if isinstance(node, dict):
            return {str(k): walk(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [walk(v) for v in node]
        if isinstance(node, float):
            text = twelve_digits(node)
            return json.loads(text) if math.isfinite(node) else text
        return node

    def default(obj):
        if isinstance(obj, Fraction):
            return int(obj) if obj.denominator == 1 else float(obj)
        raise TypeError(f"not JSON encodable: {obj!r}")

    return json.dumps(walk(payload), default=default, indent=2) + "\n"


def kernel_csv_text(states, rows) -> str:
    """Kernel CSV: a header row of states, then each label and its row; an
    entry that is not already text is written by repr(), -inf as "-inf"."""
    lines = ["," + ",".join(states)]
    for label, row in zip(states, rows):
        lines.append(",".join([label] + [v if isinstance(v, str) else repr(v) for v in row]))
    return "\n".join(lines) + "\n"


def parse_token(token: str):
    """A scalar from file text: the infinity spellings ("-inf", "+inf",
    "inf", any case; returned as the strings "-inf" and "+inf"), else int(),
    else float(), else ValueError."""
    text = token.strip().lower()
    if text == "-inf":
        return "-inf"
    if text in ("+inf", "inf"):
        return "+inf"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a max-plus value: {token!r}") from None
