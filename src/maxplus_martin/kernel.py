"""Finite max-plus kernels: powers, cycle means, and the Kleene star.

A kernel is a square matrix A over the max-plus semiring.  Its t-th power
gives the best total reward of a t-step walk, and the star
A* = I + A + A^2 + ... collects the best reward over walks of any length.
The star is finite exactly when no cycle has positive total weight, in
which case walks never need more than n-1 steps and a Floyd-Warshall
sweep computes A* exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (
    AssumptionViolatedWarning,
    DimensionMismatch,
    NoCycle,
    PositiveCycle,
)
from .semiring import (
    NEG_INF,
    POS_INF,
    TOL,
    Value,
    coerce_value,
    is_finite,
    le_close,
    otimes,
    values_close,
)

Grid = tuple[tuple[Value, ...], ...]


def _freeze(rows) -> Grid:
    try:
        return tuple(tuple(coerce_value(v) for v in row) for row in rows)
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None


@dataclass(frozen=True)
class KernelMatrix:
    """One-step kernel over a finite state space, with a preferred basepoint."""

    states: tuple[str, ...]
    entries: Grid
    basepoint: int = 0

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        object.__setattr__(self, "entries", _freeze(self.entries))
        n = len(self.states)
        if n == 0:
            raise DimensionMismatch("kernel needs at least one state")
        if len(set(self.states)) != n:
            raise DimensionMismatch("state labels must be unique")
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise DimensionMismatch(f"entries must form a {n}x{n} grid")
        for row in self.entries:
            for v in row:
                if v is POS_INF:
                    raise DimensionMismatch("kernel entries may not be +inf")
        if not 0 <= self.basepoint < n:
            raise DimensionMismatch("basepoint index out of range")

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def tol(self) -> float:
        """Float slack of every comparison on this kernel: TOL + n^2 max|a| 2^-52.

        A cycle sums up to n entries, each off by the rounding of a Karp mean
        over up to n entries.  Comparisons stay exact on int and Fraction.
        """
        top = max(
            (abs(v) for row in self.entries for v in row if isinstance(v, float)),
            default=0.0,
        )
        return TOL + self.n**2 * top * 2.0**-52

    def index(self, label: str) -> int:
        try:
            return self.states.index(str(label))
        except ValueError:
            raise DimensionMismatch(f"unknown state label {label!r}") from None


def identity_grid(n: int) -> Grid:
    return tuple(
        tuple(0 if i == j else NEG_INF for j in range(n)) for i in range(n)
    )


def matmul(a: Grid, b: Grid) -> Grid:
    """Max-plus matrix product: (ab)[i][j] = max_k a[i][k] + b[k][j]."""
    n = len(a)
    out = []
    for i in range(n):
        arow = a[i]
        row = []
        for j in range(n):
            best = NEG_INF
            for k in range(n):
                v = otimes(arow[k], b[k][j])
                if best < v:
                    best = v
            row.append(best)
        out.append(tuple(row))
    return tuple(out)


def matrix_power(kernel: KernelMatrix, t: int) -> KernelMatrix:
    """t-step kernel A^t by binary exponentiation; A^0 is the identity."""
    if not isinstance(t, int) or t < 0:
        raise DimensionMismatch("power must be a nonnegative integer")
    result = identity_grid(kernel.n)
    base = kernel.entries
    while t:
        if t & 1:
            result = matmul(result, base)
        base = matmul(base, base) if t > 1 else base
        t >>= 1
    return KernelMatrix(kernel.states, result, kernel.basepoint)


def _function(kernel: KernelMatrix, g: Sequence[Value]) -> tuple[Value, ...]:
    if len(g) != kernel.n:
        raise DimensionMismatch(
            f"function has {len(g)} values for {kernel.n} states"
        )
    try:
        return tuple(coerce_value(v) for v in g)
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None


def apply(kernel: KernelMatrix, g: Sequence[Value]) -> tuple[Value, ...]:
    """Act on a function: (A g)(x) = max_y A<x,y> + g(y)."""
    return _image(kernel, _function(kernel, g))


def _image(kernel: KernelMatrix, g: tuple[Value, ...]) -> tuple[Value, ...]:
    return tuple(max(map(otimes, row, g)) for row in kernel.entries)


def max_cycle_mean(kernel: KernelMatrix) -> Value:
    """Largest mean weight of a cycle, by Karp's recursion.

    Runs the walk recursion from every vertex at once (equivalent to a
    zero-weight super source), so reducible kernels are handled too.  On
    integer entries the result is exact: an int when integral, otherwise
    a Fraction.

    Raises NoCycle when the graph of finite arcs is acyclic.
    """
    n = kernel.n
    rows = kernel.entries
    table = [[0] * n]
    for _ in range(n):
        prev = table[-1]
        cur = []
        for v in range(n):
            best = NEG_INF
            for u in range(n):
                w = otimes(prev[u], rows[u][v])
                if best < w:
                    best = w
            cur.append(best)
        table.append(cur)

    exact = all(
        isinstance(v, (int, Fraction)) or v is NEG_INF
        for row in rows
        for v in row
    )
    best = None
    last = table[n]
    for v in range(n):
        if last[v] is NEG_INF:
            continue
        worst = None
        for k in range(n):
            if table[k][v] is NEG_INF:
                continue
            num = last[v] - table[k][v]
            ratio = Fraction(num, n - k) if exact else num / (n - k)
            if worst is None or ratio < worst:
                worst = ratio
        if worst is not None and (best is None or worst > best):
            best = worst
    if best is None:
        raise NoCycle("no cycle with finite arcs")
    if isinstance(best, Fraction) and best.denominator == 1:
        return int(best)
    return best


def normalize(kernel: KernelMatrix, lam: Value) -> KernelMatrix:
    """Subtract lam from every finite entry (spectral shift)."""
    if not is_finite(lam):
        raise DimensionMismatch("normalization constant must be finite")
    shifted = tuple(
        tuple(otimes(v, -lam) for v in row) for row in kernel.entries
    )
    return KernelMatrix(kernel.states, shifted, kernel.basepoint)


@dataclass(frozen=True)
class StarMatrix:
    """Kleene star A* of a kernel, keeping a handle on its source."""

    entries: Grid
    source: KernelMatrix

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def states(self) -> tuple[str, ...]:
        return self.source.states

    @property
    def basepoint(self) -> int:
        return self.source.basepoint

    @cached_property
    def finite(self) -> bool:
        """True when every entry is finite (the standing assumption)."""
        return all(v is not NEG_INF for row in self.entries for v in row)


def kleene_star(kernel: KernelMatrix) -> StarMatrix:
    """Best reward over walks of any length, A* = sup_{t>=0} A^t.

    Floyd-Warshall over the max-plus semiring; exact on integer entries.
    Raises PositiveCycle when some cycle has positive weight (the sup
    would diverge); a float diagonal within kernel.tol of 0 is rounding
    and set to 0.  A star with -inf entries is legal but flagged with
    a warning, since the Martin construction refuses such kernels.
    """
    n = kernel.n
    m = [list(row) for row in kernel.entries]
    for k in range(n):
        for i in range(n):
            ik = m[i][k]
            if ik is NEG_INF:
                continue
            rowk = m[k]
            rowi = m[i]
            for j in range(n):
                kj = rowk[j]
                if kj is NEG_INF:
                    continue
                cand = ik + kj
                if rowi[j] < cand:
                    rowi[j] = cand
    for i in range(n):
        if not le_close(m[i][i], 0, kernel.tol):
            raise PositiveCycle(
                f"cycle through state {kernel.states[i]!r} has positive weight"
            )
        m[i][i] = 0
    star = StarMatrix(_freeze(m), kernel)
    if not star.finite:
        warnings.warn(
            "star kernel has -inf entries; Martin operations will refuse it",
            AssumptionViolatedWarning,
            stacklevel=2,
        )
    return star


def _check_candidate(kernel: KernelMatrix, h: Sequence[Value]) -> tuple[Value, ...]:
    h = _function(kernel, h)
    if any(v is POS_INF for v in h):
        raise DimensionMismatch("harmonic candidates may not take +inf")
    return h


def is_harmonic(kernel: KernelMatrix, h: Sequence[Value]) -> bool:
    """Check A h = h.  One step suffices for the whole power semigroup."""
    h = _check_candidate(kernel, h)
    tol = kernel.tol
    return all(values_close(a, b, tol) for a, b in zip(_image(kernel, h), h))


def is_superharmonic(kernel: KernelMatrix, h: Sequence[Value]) -> bool:
    """Check A h <= h pointwise."""
    h = _check_candidate(kernel, h)
    tol = kernel.tol
    return all(le_close(a, b, tol) for a, b in zip(_image(kernel, h), h))
