"""Finite max-plus kernels: powers, cycle means, and the Kleene star.

A kernel is a square matrix A over the max-plus semiring.  Its t-th power
gives the best total reward of a t-step walk, and the star
A* = I + A + A^2 + ... collects the best reward over walks of any length.
The star is finite exactly when no cycle has positive total weight, in
which case walks never need more than n-1 steps and a Floyd-Warshall
sweep computes A* exactly.

The O(n^3) layers run as numpy max-plus products on one array per kernel
(Scaled): int and Fraction entries times a common denominator q, so every
walk weight is an integer, exact in float64 below 2^53 and kept in Python
ints when a walk could reach that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

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
)

Grid = tuple[tuple[Value, ...], ...]

# float64 holds every integer of smaller magnitude exactly
EXACT_LIMIT = 2**53
# elements in the largest temporary of one max-plus product
_CHUNK = 1 << 18
_NINF = -math.inf


def _freeze(rows) -> Grid:
    try:
        return tuple(tuple(coerce_value(v) for v in row) for row in rows)
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None


def _python_ints(array: np.ndarray) -> np.ndarray:
    """An array of integral values as Python ints (object dtype), -inf kept;
    a float array holds integers below 2^53, which int64 holds exactly."""
    if array.dtype == object:
        return array
    finite = array != _NINF
    out = np.where(finite, array, 0).astype(np.int64).astype(object)
    out[~finite] = _NINF
    return out


@dataclass(frozen=True, eq=False)
class Scaled:
    """A grid of semiring values as one array: the values times q.

    Int and Fraction grids hold the integers q*a, q a common denominator
    (1 on int input), so every sum of entries is an integer: exact in
    float64 below 2^53, and an object array of Python ints beyond.  Float
    grids keep their floats with q = 1.  Absent arcs are -inf.  `kind`
    (int, Fraction or float) is the type values are reported in.
    """

    array: np.ndarray
    q: int
    kind: type

    @cached_property
    def top(self):
        """A bound on the magnitude of the finite entries: their largest
        magnitude unless the operation that made the array seeded a bound."""
        finite = self.array[self.array != _NINF]
        return abs(finite).max() if finite.size else 0

    def exact(self, terms: int) -> np.ndarray:
        """The array, as Python ints when a sum of `terms` entries may reach 2^53."""
        if self.kind is float or terms * self.top < EXACT_LIMIT:
            return self.array
        return _python_ints(self.array)

    def to(self, q: int, kind: type) -> Scaled:
        """The same values on the denominator q (a multiple of self.q), or as
        floats when kind is float."""
        if q == self.q and kind is self.kind:
            return self
        if kind is float:
            return Scaled(_float_array(self.array, self.q), 1, float)
        factor = q // self.q
        return Scaled(self.exact(factor) * factor, q, kind)

    def value(self, v) -> Value:
        """One number of the array as a semiring value."""
        if v == _NINF:
            return NEG_INF
        if self.kind is float:
            return float(v)
        if self.kind is int:
            return int(v)
        return Fraction(int(v), self.q)

    def values(self, array: np.ndarray | None = None) -> list[list[Value]]:
        """Rows of `array` (default: this grid's) as semiring values."""
        rows = (self.array if array is None else array).tolist()
        if self.kind is float:
            return [[NEG_INF if v == _NINF else v for v in row] for row in rows]
        # grids repeat few values, and a Fraction costs a gcd to build
        table = {v: self.value(v) for v in set().union(*rows)}
        return [list(map(table.__getitem__, row)) for row in rows]


def scale(rows, q: int = 1) -> Scaled:
    """The Scaled form of a grid of semiring values.

    Any float makes a float grid.  Otherwise q grows to the lcm of q and
    every Fraction denominator, and the grid reports Fractions when it
    holds one or q exceeds 1.
    """
    flat = [v for row in rows for v in row]
    if any(issubclass(t, float) for t in set(map(type, flat))):
        array = [[_NINF if v is NEG_INF else v for v in row] for row in rows]
        return Scaled(_float_array(array), 1, float)
    denominators = [v.denominator for v in flat if isinstance(v, Fraction)]
    q = math.lcm(q, *denominators)
    ints = [
        [_NINF if v is NEG_INF else v.numerator * (q // v.denominator) for v in row]
        for row in rows
    ]
    top = max((abs(v) for row in ints for v in row if v != _NINF), default=0)
    kind = Fraction if denominators or q > 1 else int
    dtype = float if top < EXACT_LIMIT else object
    return _seeded(Scaled(np.array(ints, dtype=dtype), q, kind), top=top)


def _float_array(values, q: int = 1) -> np.ndarray:
    """values / q as floats, each rounded once; an int past the float range
    is a DimensionMismatch."""
    try:
        return np.array(values, dtype=float) if q == 1 else (values / q).astype(float)
    except OverflowError:
        raise DimensionMismatch("int entry too large for a float kernel") from None


def _seeded(obj, **cached):
    """obj with cached properties already known to the code that built it."""
    obj.__dict__.update(cached)
    return obj


def joint(*grids: Scaled) -> tuple[int, type]:
    """Denominator and kind that hold the values of every grid exactly."""
    kinds = {g.kind for g in grids}
    kind = float if float in kinds else Fraction if Fraction in kinds else int
    return math.lcm(*(g.q for g in grids)), kind


def _grid(rows) -> Grid:
    return tuple(map(tuple, rows))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-plus product of two scaled arrays: max_k a[i, k] + b[k, j].

    Runs in row blocks so that no temporary exceeds _CHUNK elements.
    """
    if a.dtype != b.dtype:
        a, b = _python_ints(a), _python_ints(b)
    out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
    step = max(1, _CHUNK // max(1, b.size))
    for r in range(0, len(a), step):
        np.maximum.reduce(a[r : r + step, :, None] + b, axis=1, out=out[r : r + step])
    return out


def _tol(n: int, top) -> float:
    """Float slack of every comparison on an n-state float kernel whose
    entries reach magnitude top: TOL + n^2 top 2^-52.

    A cycle sums up to n entries, each off by the rounding of a Karp mean
    over up to n entries.  Comparisons stay exact on int and Fraction.
    """
    return TOL + n**2 * float(top) * 2.0**-52


def _check(states: tuple[str, ...], rows, basepoint: int, pos_inf: bool):
    """The checks every kernel passes, in the order they report."""
    n = len(states)
    if n == 0:
        raise DimensionMismatch("kernel needs at least one state")
    if len(set(states)) != n:
        raise DimensionMismatch("state labels must be unique")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch(f"entries must form a {n}x{n} grid")
    if pos_inf:
        raise DimensionMismatch("kernel entries may not be +inf")
    if not 0 <= basepoint < n:
        raise DimensionMismatch("basepoint index out of range")


class KernelMatrix:
    """One-step kernel over a finite state space, with a preferred basepoint.

    A kernel read from a file or computed here lives on its array
    (`scaled`); its `entries` are built on first use, with the values and
    types the constructor would have kept.
    """

    def __init__(self, states, entries, basepoint: int = 0):
        rows = _freeze(entries)
        states = tuple(str(s) for s in states)
        _check(states, rows, basepoint, any(v is POS_INF for row in rows for v in row))
        _seeded(self, states=states, entries=rows, basepoint=basepoint)

    @classmethod
    def _computed(cls, states, basepoint, scaled: Scaled) -> KernelMatrix:
        """A kernel on an array this module computed."""
        kernel = object.__new__(cls)
        return _seeded(kernel, states=states, basepoint=basepoint, scaled=scaled)

    @classmethod
    def _parsed(cls, states, basepoint: int, rows: list, floats: list) -> KernelMatrix:
        """A kernel read from a file: rows of the ints and floats read, -inf
        for an absent arc, and `floats` every other float read (+inf and NaN
        included), in the constructor's order of checks."""
        if any(v != v for v in floats):
            raise DimensionMismatch("NaN is not a max-plus value")
        states = tuple(states)
        finite = [v for v in floats if v != math.inf]
        _check(states, rows, basepoint, len(finite) < len(floats))
        if finite:
            scaled = Scaled(_float_array(rows), 1, float)
        else:
            try:
                scaled = Scaled(np.array(rows, dtype=float), 1, int)
                exact = scaled.top < EXACT_LIMIT
            except OverflowError:  # an int past the float range
                exact = False
            if not exact:
                scaled = Scaled(np.array(rows, dtype=object), 1, int)
        return _seeded(cls._computed(states, basepoint, scaled), _rows=rows)

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def scaled(self) -> Scaled:
        """The entries as one array, built once per kernel."""
        return scale(self.entries)

    @cached_property
    def entries(self) -> Grid:
        """The entries as semiring values: from the rows a file was read
        into, which keep each entry's type, or else from the array."""
        rows = self.__dict__.pop("_rows", None)
        if rows is None:
            return _grid(self.scaled.values())
        return tuple(tuple(NEG_INF if v == _NINF else v for v in row) for row in rows)

    @cached_property
    def tol(self) -> float:
        """Float slack of every comparison on this kernel (see _tol), from
        the largest entry of its float array, ints included; TOL when exact."""
        scaled = self.scaled
        return _tol(self.n, scaled.top if scaled.kind is float else 0)

    def index(self, label: str) -> int:
        try:
            return self.states.index(str(label))
        except ValueError:
            raise DimensionMismatch(f"unknown state label {label!r}") from None

    def __eq__(self, other):
        if not isinstance(other, KernelMatrix):
            return NotImplemented
        return (self.states, self.entries, self.basepoint) == (
            other.states, other.entries, other.basepoint
        )

    def __hash__(self):
        return hash((self.states, self.entries, self.basepoint))

    def __repr__(self):
        return (
            f"KernelMatrix(states={self.states!r}, entries={self.entries!r}, "
            f"basepoint={self.basepoint!r})"
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _slack(kernel: KernelMatrix, kind: type) -> float:
    """Comparison slack on an array of the kernel's values of `kind`: the
    kernel's tol on floats, 0 on the integers of an exact array."""
    return kernel.tol if kind is float else 0


def _close(a, b, slack):
    """Elementwise a = b: exact when slack is 0, else within slack either
    way; -inf matches only -inf."""
    if not slack:
        return a == b
    return (a <= b + slack) & (b <= a + slack)


def matrix_power(kernel: KernelMatrix, t: int) -> KernelMatrix:
    """t-step kernel A^t by binary exponentiation; A^0 is the identity."""
    if not isinstance(t, int) or t < 0:
        raise DimensionMismatch("power must be a nonnegative integer")
    if t == 0:
        eye = Scaled(np.where(np.eye(kernel.n, dtype=bool), 0.0, _NINF), 1, int)
        return KernelMatrix._computed(kernel.states, kernel.basepoint, eye)
    if t == 1:
        return kernel
    scaled = kernel.scaled
    base = scaled.exact(t)
    result = None
    while True:
        if t & 1:
            result = base if result is None else _product(result, base)
        t >>= 1
        if not t:
            break
        base = _product(base, base)
    return KernelMatrix._computed(
        kernel.states, kernel.basepoint, Scaled(result, scaled.q, scaled.kind)
    )


def _function(kernel: KernelMatrix, g: Sequence[Value]) -> tuple[Value, ...]:
    if len(g) != kernel.n:
        raise DimensionMismatch(
            f"function has {len(g)} values for {kernel.n} states"
        )
    try:
        return tuple(map(coerce_value, g))
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None


def _on_grid(grid: Scaled, g: Sequence[Value], terms: int = 2):
    """A grid and a function on one array: float when either holds a float,
    else on the lcm of their denominators, in Python ints when a sum of
    `terms` numbers could reach 2^53.  Returns the grid's array, g's row and
    the grid's Scaled on that scale, which reads values back."""
    if grid.kind is float or float in set(map(type, g)):
        grid = grid.to(1, float)
        g = np.array([_NINF if v is NEG_INF else v for v in g], dtype=float)
        return grid.array, g, grid
    fractions = [v.denominator for v in g if isinstance(v, Fraction)]
    q = math.lcm(grid.q, *fractions)
    grid = grid.to(q, Fraction if fractions else grid.kind)
    ints = [_NINF if v is NEG_INF else v.numerator * (q // v.denominator) for v in g]
    top = max(map(abs, filter(_NINF.__ne__, ints)), default=0)
    a = grid.exact(terms)
    if a.dtype == object or terms * top >= EXACT_LIMIT:
        return _python_ints(a), np.array(ints, dtype=object), grid
    return a, np.array(ints, dtype=float), grid


def apply(kernel: KernelMatrix, g: Sequence[Value]) -> tuple[Value, ...]:
    """Act on a function: (A g)(x) = max_y A<x,y> + g(y)."""
    g = _function(kernel, g)
    up = [y for y, v in enumerate(g) if v is POS_INF]
    a, row, grid = _on_grid(kernel.scaled, [NEG_INF if v is POS_INF else v for v in g])
    image = grid.values((a + row).max(axis=1)[None])[0]
    if up:  # +inf wins wherever an arc reaches it; -inf absorbs it
        hit = (kernel.scaled.array[:, up] != _NINF).any(axis=1).tolist()
        image = [POS_INF if reach else v for reach, v in zip(hit, image)]
    return tuple(image)


def max_cycle_mean(kernel: KernelMatrix) -> Value:
    """Largest mean weight of a cycle, by Karp's min-max
    max_v min_k (D_n(v) - D_k(v)) / (n - k), D_k(v) the best k-step walk to v.

    Runs the walk recursion from every vertex at once (equivalent to a
    zero-weight super source), so reducible kernels are handled too.  Floats
    divide by n - k.  Exact kinds take each ratio times lcm(1..n) instead,
    an integer, so the result is exact: an int when integral, otherwise a
    Fraction.

    Raises NoCycle when the graph of finite arcs is acyclic.
    """
    n = kernel.n
    scaled = kernel.scaled
    a = scaled.exact(2 * n)
    walks = [np.zeros(n, dtype=a.dtype)]
    for _ in range(n):
        walks.append(np.maximum.reduce(walks[-1][:, None] + a))
    table = np.array(walks)
    if _NINF in walks[n].tolist():
        # the states an n-step walk reaches; each suffix of that walk also
        # reaches them, so their D_k are all finite
        table = table[:, walks[n] != _NINF]
        if not table.size:
            raise NoCycle("no cycle with finite arcs")
    gaps = np.arange(n, 0, -1)[:, None]  # n - k
    if scaled.kind is float:
        return float(((table[n] - table[:n]) / gaps).min(axis=0).max())
    # a ratio times lcm is an integer below 2n top lcm; top counts as 1 on a
    # kernel of zeros, so that lcm // gaps fits the dtype
    lcm = math.lcm(*range(1, n + 1))
    if 2 * n * max(int(scaled.top), 1) * lcm >= EXACT_LIMIT:
        table, gaps = _python_ints(table), gaps.astype(object)
    best = ((table[n] - table[:n]) * (lcm // gaps)).min(axis=0).max()
    lam = Fraction(int(best), lcm * scaled.q)
    return lam.numerator if lam.denominator == 1 else lam


def normalize(kernel: KernelMatrix, lam: Value) -> KernelMatrix:
    """Subtract lam from every finite entry (spectral shift).

    With lam = p/r on a kernel scaled by q, the result is scaled by
    q' = lcm(q, r) and holds a*(q'/q) - p*(q'/r); a float lam or kernel
    gives floats, as Python's mixed arithmetic does.
    """
    if not is_finite(lam):
        raise DimensionMismatch("normalization constant must be finite")
    scaled = kernel.scaled
    if scaled.kind is float or isinstance(lam, float):
        result = Scaled(scaled.to(1, float).array - float(lam), 1, float)
    else:
        kind = Fraction if scaled.kind is Fraction or isinstance(lam, Fraction) else int
        lam = Fraction(lam)
        q = math.lcm(scaled.q, lam.denominator)
        up, shift = q // scaled.q, lam.numerator * (q // lam.denominator)
        top = scaled.top * up + abs(shift)
        array = scaled.array if top < EXACT_LIMIT else _python_ints(scaled.array)
        result = _seeded(Scaled(array * up - shift, q, kind), top=top)
    return KernelMatrix._computed(kernel.states, kernel.basepoint, result)


class StarMatrix:
    """Kleene star A* of a kernel, keeping a handle on its source.

    A star made by kleene_star lives on its array; its `entries` are built
    on first use, with the int 0 of the diagonal.
    """

    def __init__(self, entries, source: KernelMatrix):
        _seeded(self, entries=_grid(entries), source=source)

    @classmethod
    def _computed(cls, source: KernelMatrix, scaled: Scaled) -> StarMatrix:
        return _seeded(object.__new__(cls), source=source, scaled=scaled)

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def states(self) -> tuple[str, ...]:
        return self.source.states

    @property
    def basepoint(self) -> int:
        return self.source.basepoint

    @cached_property
    def entries(self) -> Grid:
        rows = self.scaled.values()
        for i in range(self.n):
            rows[i][i] = 0
        return _grid(rows)

    @cached_property
    def scaled(self) -> Scaled:
        """The entries as one array, on the source kernel's denominator."""
        return scale(self.entries, self.source.scaled.q)

    @cached_property
    def finite(self) -> bool:
        """True when every entry is finite (the standing assumption)."""
        return not (self.scaled.array == _NINF).any()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Recurrence classes (martin.recurrence_classes): the components of
        x ~ y, closed explicitly since a float tolerance could break its
        transitivity."""
        s = self.scaled.array
        same = _close(s + s.T, 0, _slack(self.source, self.scaled.kind))
        label = same.argmax(axis=1)  # the least relative (the diagonal is 0)
        while True:  # until every state holds the least label of its relatives
            least = np.where(same, label, self.n).min(axis=1)
            if least.tolist() == label.tolist():
                break
            label = least
        groups: dict[int, list[int]] = {}
        for i, root in enumerate(label.tolist()):
            groups.setdefault(root, []).append(i)
        return tuple(map(tuple, groups.values()))


def kleene_star(kernel: KernelMatrix) -> StarMatrix:
    """Best reward over walks of any length, A* = sup_{t>=0} A^t.

    Floyd-Warshall over the max-plus semiring, as n rank-1 updates of the
    kernel's array; exact on integer entries.  Raises PositiveCycle when
    some cycle has positive weight (the sup would diverge); a float
    diagonal within kernel.tol of 0 is rounding and set to 0.  A star with
    -inf entries is legal but flagged with a warning, since the Martin
    construction refuses such kernels.
    """
    n = kernel.n
    scaled = kernel.scaled
    m = scaled.exact(2 * n).copy()
    for k in range(n):
        d = m[k, k]
        if d > 0:
            # a positive pivot first lifts its own row by d, and only the rows
            # below read the lifted row: the order of the in-place sweep, which
            # fixes the state a positive cycle is reported through and the
            # last bits of a float star
            np.maximum(m[:k], m[:k, k, None] + m[k], out=m[:k])
            m[k] += d
            np.maximum(m[k + 1 :], m[k + 1 :, k, None] + m[k], out=m[k + 1 :])
        else:
            np.maximum(m, m[:, k, None] + m[k], out=m)
    over = np.flatnonzero(m.diagonal() > _slack(kernel, scaled.kind))
    if over.size:
        raise PositiveCycle(
            f"cycle through state {kernel.states[over[0]]!r} has positive weight"
        )
    m.flat[:: n + 1] = 0
    star = StarMatrix._computed(kernel, Scaled(m, scaled.q, scaled.kind))
    if not star.finite:
        warnings.warn(
            "star kernel has -inf entries; Martin operations will refuse it",
            AssumptionViolatedWarning,
            stacklevel=2,
        )
    return star


def _fixed(kernel: KernelMatrix, h: Sequence[Value], sub: bool = False, terms: int = 2):
    """Whether A h = h (A h <= h when sub), the sums A<x,y> + h(y) that
    decided it, h's row and the Scaled they are on (see _on_grid, which
    `terms` is passed to): exact, or within kernel.tol with a float; -inf
    matches only -inf."""
    h = _function(kernel, h)
    if any(v is POS_INF for v in h):
        raise DimensionMismatch("harmonic candidates may not take +inf")
    a, g, grid = _on_grid(kernel.scaled, h, terms)
    sums = a + g
    image = sums.max(axis=1)
    slack = _slack(kernel, grid.kind)
    ok = image <= g + slack if sub else _close(image, g, slack)
    return all(ok.tolist()), sums, g, grid


def is_harmonic(kernel: KernelMatrix, h: Sequence[Value]) -> bool:
    """Check A h = h.  One step suffices for the whole power semigroup."""
    return _fixed(kernel, h)[0]


def is_superharmonic(kernel: KernelMatrix, h: Sequence[Value]) -> bool:
    """Check A h <= h pointwise."""
    return _fixed(kernel, h, sub=True)[0]
