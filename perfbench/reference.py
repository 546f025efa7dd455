"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports the package under test.  Finite kernels are checked
in int64 numpy arithmetic on the q-scaled kernel: with lambda = p/q the
entries q*a - p are integers, every cycle mean shifts to q*(mean - lambda),
and the star, the Martin columns and the measures come out as integers
that the package's exact Fractions must equal after multiplying by q.
Float kernels get a float64 reference and the tolerance n*max|a|*2^-52.
The LQ closed forms are re-derived here in their textbook arrangement.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# int64 stand-in for -inf: far below any walk weight, far above overflow
NEG = -(1 << 50)


def is_neg(v) -> bool:
    return v <= NEG // 2


def _clamp(m):
    m[m <= NEG // 2] = NEG
    return m


def karp(a):
    """Max cycle mean of an int64 (NEG for -inf) or float64 matrix.

    Same super-source recursion as Karp's theorem: D_0 = 0 everywhere.
    Returns a Fraction for integer input, a float for float input, and
    None when no cycle exists.
    """
    n = len(a)
    exact = a.dtype.kind == "i"
    d = [np.zeros(n, dtype=a.dtype)]
    for _ in range(n):
        nxt = (d[-1][:, None] + a).max(axis=0)
        d.append(_clamp(nxt) if exact else nxt)
    best = None
    for v in range(n):
        if _absent(d[n][v], exact):
            continue
        worst = None
        for k in range(n):
            if _absent(d[k][v], exact):
                continue
            num = d[n][v] - d[k][v]
            r = Fraction(int(num), n - k) if exact else float(num) / (n - k)
            if worst is None or r < worst:
                worst = r
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def _absent(v, exact) -> bool:
    return is_neg(v) if exact else v == -math.inf


def star(a, tol=0.0):
    """Floyd-Warshall closure with the identity; None on a positive cycle.

    A diagonal within tol of zero counts as zero (float input only).
    """
    m = a.copy()
    exact = m.dtype.kind == "i"
    for k in range(len(m)):
        np.maximum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
        if exact:
            _clamp(m)
    diag = np.diagonal(m)
    if np.any(diag > tol):
        return None
    np.fill_diagonal(m, 0)
    return m


def scaled(a_int, lam: Fraction):
    """q*a - p on finite entries, NEG elsewhere; returns (matrix, q)."""
    q, p = lam.denominator, lam.numerator
    out = np.where(a_int == NEG, NEG, a_int * q - p)
    return out.astype(np.int64), q


def maxplus_power(a, t):
    """A^t by repeated products (t >= 1), int64 with NEG for -inf."""
    out = a
    for _ in range(t - 1):
        out = _clamp((out[:, :, None] + a[None, :, :]).max(axis=1))
    return out


def classes(s, tol=0.0):
    """Recurrence classes of a finite star, sorted by smallest member."""
    n = len(s)
    same = np.abs(s + s.T) <= tol
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for x in range(n):
        for y in range(x + 1, n):
            if same[x, y]:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def columns(s, groups, b):
    """Martin column of each class representative (int or float)."""
    return [s[:, g[0]] - s[b, g[0]] for g in groups]


def harmonic(a, h, tol=0.0) -> bool:
    """A h = h on a finite h; int64 kernels compare exactly."""
    img = (a + h[None, :]).max(axis=1)
    if a.dtype.kind == "i":
        img = np.where(img <= NEG // 2, NEG, img)
    return bool(np.all(np.abs(img - h) <= tol))


def downhill(a, h, start, length):
    """Greedy ascent on A<x,y> + h(y); ties go to the lowest index."""
    states = [start]
    for _ in range(length):
        states.append(int(np.argmax(a[states[-1]] + h)))
    return states


def geodesic_excess(s, step, states):
    """max_{i<j} A*<x_i,x_j> - sum of step rewards, on a sampled path."""
    rewards = [step[x, y] for x, y in zip(states, states[1:])]
    worst = 0
    for i in range(len(states)):
        acc = 0
        for j in range(i + 1, len(states)):
            acc += rewards[j - 1]
            worst = max(worst, s[states[i], states[j]] - acc)
    return worst


# -- linear-quadratic closed forms -----------------------------------------


def lq_kernel(x, y, t, lam):
    """A^t<x,y> = -((|x|^2+|y|^2) cosh t - 2 x.y) / sinh t - lam t."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx = np.sum(x * x, axis=-1)
    yy = np.sum(y * y, axis=-1)
    xy = np.sum(x * y, axis=-1)
    return -((xx + yy) * math.cosh(t) - 2.0 * xy) / math.sinh(t) - lam * t


def horofunction(x, n, lam):
    """h_n(x) = lim_r A*<x, r n> - A*<0, r n>, evaluated row-wise.

    lam = 0: -|x|^2 + 2 max(x.n, 0)^2.  lam > 0: with p = x.n and
    R = sqrt(p^2 + lam) - p,
    -lam |x|^2 / R^2 + p (lam + 2|x|^2) / R - lam log(R / sqrt(lam)).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = x @ np.asarray(n, dtype=float)
    xx = np.sum(x * x, axis=1)
    if lam == 0.0:
        return -xx + 2.0 * np.maximum(p, 0.0) ** 2
    q = np.sqrt(p * p + lam)
    # for p > 0 the root is rewritten as lam / (q + p) to avoid cancellation
    big_r = np.where(p > 0, lam / (q + np.abs(p)), q - p)
    return (
        -lam * xx / big_r**2
        + p * (lam + 2.0 * xx) / big_r
        - lam * np.log(big_r / math.sqrt(lam))
    )
