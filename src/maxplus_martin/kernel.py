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


def _freeze(rows) -> Grid:
    try:
        return tuple(tuple(coerce_value(v) for v in row) for row in rows)
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None


class _lazy:
    """A read-only attribute computed on its first read and stored on the
    instance, so later reads find it there: functools.cached_property
    without the lock it takes on Python 3.11 (3.12 dropped it).  Only
    parallel_map runs threads, on LQ sweeps that read none of these."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def _python_ints(array: np.ndarray) -> np.ndarray:
    """An array of integral values as Python ints (object dtype), -inf kept;
    a float array holds integers below 2^53, which int64 holds exactly."""
    if array.dtype == object:
        return array
    finite = array != NEG_INF
    out = np.where(finite, array, 0).astype(np.int64).astype(object)
    out[~finite] = NEG_INF
    return out


def _adder(array: np.ndarray):
    """The elementwise sum of scaled arrays of array's dtype: numpy's add on
    floats; on Python ints one that masks -inf to 0 and restores it, since
    adding a float -inf to an int past the float range raises OverflowError."""
    return _int_plus if array.dtype == object else np.add


def _int_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b on arrays of Python ints and -inf, -inf absorbing (see _adder)."""
    a_absent, b_absent = a == NEG_INF, b == NEG_INF
    out = np.where(a_absent, 0, a) + np.where(b_absent, 0, b)
    out[a_absent | b_absent] = NEG_INF
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

    @_lazy
    def top(self):
        """A bound on the finite entries' magnitude, an int on exact kinds: their
        largest magnitude unless the operation that made the array seeded one."""
        finite = self.array[self.array != NEG_INF]
        top = abs(finite).max() if finite.size else 0
        return top if self.kind is float else int(top)

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
        a = self.exact(factor)
        if factor < EXACT_LIMIT:
            a = a * factor
        else:  # float64 may not hold the factor, and -inf times it may overflow
            absent = a == NEG_INF
            a = np.where(absent, NEG_INF, np.where(absent, 0, _python_ints(a)) * factor)
        return _seeded(Scaled(a, q, kind), top=self.top * factor)

    def value(self, v) -> Value:
        """One number of the array as a semiring value."""
        if self.kind is float or v == NEG_INF:
            return float(v)
        if self.kind is int:
            return int(v)
        return Fraction(int(v), self.q)

    def values(self, array: np.ndarray | None = None) -> list[list[Value]]:
        """Rows of `array` (default: this grid's) as semiring values."""
        rows = (self.array if array is None else array).tolist()
        if self.kind is float:
            return rows
        # grids repeat few values, and a Fraction costs a gcd to build
        distinct = set().union(*rows)
        distinct.discard(NEG_INF)
        if self.kind is int:
            table = {v: int(v) for v in distinct}
        else:
            table = {v: Fraction(int(v), self.q) for v in distinct}
        table[NEG_INF] = NEG_INF
        return [list(map(table.__getitem__, row)) for row in rows]


def _kinds(values) -> set[type]:
    """The types of the finite values: -inf, a float, marks an absent arc
    and leaves int and Fraction values exact."""
    kinds = set(map(type, values))
    if float in kinds and all(v == NEG_INF for v in values if type(v) is float):
        kinds.discard(float)
    return kinds


def _has_pos_inf(values) -> bool:
    return any(type(v) is float and v == POS_INF for v in values)


def scale(rows) -> Scaled:
    """The Scaled form of a grid of semiring values.

    Any finite float makes a float grid.  Otherwise q is the lcm of every
    Fraction denominator, and the grid reports Fractions when it holds one.
    """
    flat = [v for row in rows for v in row]
    if any(issubclass(t, float) for t in _kinds(flat)):
        return Scaled(_float_array(rows), 1, float)
    denominators = [v.denominator for v in flat if isinstance(v, Fraction)]
    q = math.lcm(*denominators)
    ints = [
        [v if type(v) is float else v.numerator * (q // v.denominator) for v in row]
        for row in rows
    ]
    top = max((abs(v) for row in ints for v in row if type(v) is not float), default=0)
    kind = Fraction if denominators else int
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


def _grid(rows) -> Grid:
    return tuple(map(tuple, rows))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-plus product max_k a[i, k] + b[k, j] of two scaled arrays of one dtype.

    Runs in row blocks so that no temporary exceeds _CHUNK elements.
    """
    out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
    step = max(1, _CHUNK // max(1, b.size))
    add = _adder(a)
    for r in range(0, len(a), step):
        np.maximum.reduce(add(a[r : r + step, :, None], b), axis=1, out=out[r : r + step])
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
        _check(states, rows, basepoint, _has_pos_inf(v for row in rows for v in row))
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
        if any(map(math.isnan, floats)):
            raise DimensionMismatch("NaN is not a max-plus value")
        states = tuple(states)
        infinite = floats.count(math.inf)
        _check(states, rows, basepoint, infinite > 0)
        if len(floats) > infinite:
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

    @_lazy
    def scaled(self) -> Scaled:
        """The entries as one array, built once per kernel."""
        return scale(self.entries)

    @_lazy
    def entries(self) -> Grid:
        """The entries as semiring values: from the rows a file was read
        into, which keep each entry's type, or else from the array."""
        rows = self.__dict__.pop("_rows", None)
        return _grid(self.scaled.values() if rows is None else rows)

    @_lazy
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
    return np.maximum(a, b) <= np.minimum(a, b) + slack


def matrix_power(kernel: KernelMatrix, t: int) -> KernelMatrix:
    """t-step kernel A^t by binary exponentiation; A^0 is the identity."""
    if not isinstance(t, int) or t < 0:
        raise DimensionMismatch("power must be a nonnegative integer")
    if t == 0:
        eye = Scaled(np.where(np.eye(kernel.n, dtype=bool), 0.0, NEG_INF), 1, int)
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
    """g's values, each finite or -inf: the one check of a function."""
    if len(g) != kernel.n:
        raise DimensionMismatch(
            f"function has {len(g)} values for {kernel.n} states"
        )
    try:
        g = tuple(map(coerce_value, g))
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None
    if _has_pos_inf(g):
        raise DimensionMismatch("functions may not take +inf")
    return g


def _on_grid(grid: Scaled, g: Scaled | Sequence[Value], terms: int = 2):
    """A grid and a second grid or a row of values (finite or -inf) on one
    scale: float when either holds a float, an int past the float range being
    a DimensionMismatch, else the lcm of their denominators, in Python ints when
    a sum of `terms` numbers of either could reach 2^53.  Returns both arrays
    and the grid's Scaled on that scale, which reads values back."""
    if isinstance(g, Scaled):
        kinds = {grid.kind, g.kind}
        kind = float if float in kinds else Fraction if Fraction in kinds else int
        q = 1 if kind is float else math.lcm(grid.q, g.q)
        grid, g = grid.to(q, kind), g.to(q, kind)
        a, b = grid.exact(terms), g.exact(terms)
        if a.dtype != b.dtype:  # one of them needs Python ints
            a, b = _python_ints(a), _python_ints(b)
        return a, b, grid
    kinds = {float} if grid.kind is float else _kinds(g)
    if float in kinds:
        grid = grid.to(1, float)
        return grid.array, _float_array(g), grid
    q, kind = grid.q, grid.kind
    if kinds - {int}:
        fractions = [v.denominator for v in g if isinstance(v, Fraction)]
        q, kind = math.lcm(q, *fractions), Fraction
    grid = grid.to(q, kind)
    ints, top = [], 0
    for v in g:  # g times q, and its largest finite magnitude
        if type(v) is float:  # -inf
            ints.append(v)
            continue
        v = v.numerator * (q // v.denominator)
        ints.append(v)
        if top < abs(v):
            top = abs(v)
    a = grid.exact(terms)
    if a.dtype == object or terms * top >= EXACT_LIMIT:
        return _python_ints(a), np.array(ints, dtype=object), grid
    return a, np.array(ints, dtype=float), grid


def apply(kernel: KernelMatrix, g: Sequence[Value]) -> tuple[Value, ...]:
    """Act on a function: (A g)(x) = max_y A<x,y> + g(y)."""
    a, row, grid = _on_grid(kernel.scaled, _function(kernel, g))
    return tuple(grid.values(np.maximum.reduce(_adder(a)(a, row), axis=1)[None])[0])


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
    table = np.zeros((n + 1, n), dtype=a.dtype)  # row k holds D_k
    add = _adder(a)
    for k in range(n):
        np.maximum.reduce(add(table[k, :, None], a), out=table[k + 1])
    last = table[n]
    if NEG_INF in last.tolist():
        # the states an n-step walk reaches; each suffix of that walk also
        # reaches them, so their D_k are all finite
        table = table[:, last != NEG_INF]
        if not table.size:
            raise NoCycle("no cycle with finite arcs")
    rise = table[n] - table[:n]
    gaps = np.arange(n, 0, -1)[:, None]  # n - k
    if scaled.kind is float:
        return float(np.maximum.reduce(np.minimum.reduce(rise / gaps)))
    # a ratio times lcm is an integer below 2n top lcm; top counts as 1 on a
    # kernel of zeros, so that lcm // gaps fits the dtype
    lcm = math.lcm(*range(1, n + 1))
    if 2 * n * max(int(scaled.top), 1) * lcm >= EXACT_LIMIT:
        rise, gaps = _python_ints(rise), gaps.astype(object)
    best = int(np.maximum.reduce(np.minimum.reduce(rise * (lcm // gaps))))
    whole = lcm * scaled.q
    return best // whole if best % whole == 0 else Fraction(best, whole)


def normalize(kernel: KernelMatrix, lam: Value) -> KernelMatrix:
    """Subtract lam from every finite entry (spectral shift).

    lam joins the kernel's array as a one-value row (see _on_grid): with
    lam = p/r on a kernel scaled by q, the result is scaled by
    q' = lcm(q, r) and holds a*(q'/q) - p*(q'/r); a float lam or kernel
    gives floats, as Python's mixed arithmetic does.
    """
    if not is_finite(lam) or lam != lam:  # NaN
        raise DimensionMismatch("normalization constant must be finite")
    a, shift, grid = _on_grid(kernel.scaled, [lam])
    result = Scaled(_adder(a)(a, -shift), grid.q, grid.kind)
    if grid.kind is not float:
        _seeded(result, top=grid.top + abs(int(shift[0])))
    return KernelMatrix._computed(kernel.states, kernel.basepoint, result)


class StarMatrix:
    """Kleene star A* of a kernel, keeping a handle on its source.

    A star lives on its array `scaled`, of the source's denominator and of the
    dtype of its `exact(2 n)`; its `entries` are built on first use, with the
    int 0 of the diagonal.
    """

    def __init__(self, source: KernelMatrix, scaled: Scaled):
        _seeded(self, source=source, scaled=scaled)

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def states(self) -> tuple[str, ...]:
        return self.source.states

    @property
    def basepoint(self) -> int:
        return self.source.basepoint

    @_lazy
    def entries(self) -> Grid:
        rows = self.scaled.values()
        for i in range(self.n):
            rows[i][i] = 0
        return _grid(rows)

    @_lazy
    def finite(self) -> bool:
        """True when every entry is finite (the standing assumption)."""
        return not (self.scaled.array == NEG_INF).any()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @_lazy
    def labels(self) -> np.ndarray:
        """Each state's recurrence class as its least member: the least
        relative of each state under x ~ y.

        On an exact star x ~ y is an equivalence: for x ~ z and z ~ y,
        A*<x,y> + A*<y,x> is at least the sum of the two pairs' sums, 0, and
        at most 0 since no cycle is positive.  A float tolerance can break
        transitivity, so float stars close the relation explicitly.
        """
        s = self.scaled.array
        kind = self.scaled.kind
        same = _close(_adder(s)(s, s.T), 0, _slack(self.source, kind))
        label = same.argmax(axis=1)  # the least relative (the diagonal is 0)
        if kind is not float:
            return label
        while True:  # until every state holds the least label of its relatives
            least = np.minimum.reduce(np.where(same, label, self.n), axis=1)
            if least.tolist() == label.tolist():
                return label
            label = least

    @_lazy
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Recurrence classes (martin.recurrence_classes), each sorted and
        listed by its least member."""
        groups: dict[int, list[int]] = {}
        for i, root in enumerate(self.labels.tolist()):
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
    add = _adder(m)
    for k in range(n):
        d = m[k, k]
        if d > 0:
            # a positive pivot first lifts its own row by d, and only the rows
            # below read the lifted row: the order of the in-place sweep, which
            # fixes the state a positive cycle is reported through and the
            # last bits of a float star
            np.maximum(m[:k], add(m[:k, k, None], m[k]), out=m[:k])
            m[k] = add(m[k], m[k, k, None])
            np.maximum(m[k + 1 :], add(m[k + 1 :, k, None], m[k]), out=m[k + 1 :])
        else:
            np.maximum(m, add(m[:, k, None], m[k]), out=m)
    over = (m.diagonal() > _slack(kernel, scaled.kind)).tolist()
    if True in over:
        raise PositiveCycle(
            f"cycle through state {kernel.states[over.index(True)]!r} has positive weight"
        )
    m.flat[:: n + 1] = 0
    star = StarMatrix(kernel, Scaled(m, scaled.q, scaled.kind))
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
    a, g, grid = _on_grid(kernel.scaled, _function(kernel, h), terms)
    sums = _adder(a)(a, g)
    image = np.maximum.reduce(sums, axis=1)
    slack = _slack(kernel, grid.kind)
    ok = image <= g + slack if sub else _close(image, g, slack)
    return all(ok.tolist()), sums, g, grid


def is_harmonic(kernel: KernelMatrix, h: Sequence[Value]) -> bool:
    """Check A h = h.  One step suffices for the whole power semigroup."""
    return _fixed(kernel, h)[0]


def is_superharmonic(kernel: KernelMatrix, h: Sequence[Value]) -> bool:
    """Check A h <= h pointwise."""
    return _fixed(kernel, h, sub=True)[0]
