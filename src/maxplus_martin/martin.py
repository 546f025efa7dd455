"""Martin kernel, recurrence classes, and the spectral representation.

Everything here works relative to a star matrix S = A* with finite entries
and the basepoint b carried by its source kernel.  The Martin column of a
state y is K<.,y> = A*<.,y> - A*<b,y>; two states x, y are equivalent when
A*<x,y> + A*<y,x> = 0, and equivalent states share a column, so columns are
kept once per recurrence class.  Columns that are harmonic for the source
kernel form the minimal Martin space, and every harmonic function is a
max-plus combination of them; the spectral measure recovers the greatest
such combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch, NotHarmonic, NotNormalized
from .kernel import (
    Scaled,
    StarMatrix,
    _adder,
    _close,
    _fixed,
    _function,
    _has_pos_inf,
    _on_grid,
    _product,
    _python_ints,
    _slack,
)
from .semiring import NEG_INF, Value, coerce_value


def _require_finite(star: StarMatrix):
    if not star.finite:
        raise AssumptionViolated(
            "star kernel has -inf entries, so Martin objects are undefined"
        )


def recurrence_classes(star: StarMatrix) -> list[list[int]]:
    """Partition of the states by x ~ y iff A*<x,y> + A*<y,x> = 0.

    Classes are reported sorted by smallest member, as fresh lists of the
    partition the star computes once (StarMatrix.classes).
    """
    return [list(members) for members in star.classes]


@dataclass(frozen=True)
class MartinObject:
    """A deduplicated Martin column together with its recurrence class."""

    column: tuple[Value, ...]
    class_id: int
    members: tuple[int, ...]
    harmonic: bool

    def __hash__(self):
        # equal objects have equal members, and hashing the column would
        # hash every value in it
        return hash(self.members)

    @property
    def representative(self) -> int:
        return self.members[0]

    @property
    def minimal(self) -> bool:
        """Same as harmonic (see martin_kernel); a read-only alias that the
        benchmark's workloads still read."""
        return self.harmonic


def martin_kernel(star: StarMatrix) -> list[MartinObject]:
    """Martin columns K<.,y> = A*<.,y> - A*<b,y>, one per recurrence class.

    A column is minimal when it is harmonic for the source kernel and its
    self pairing H(xi, xi) = mu_xi(xi) vanishes; the latter is automatic
    for kernel columns, and asserted on float stars (see _martin_objects).
    """
    _require_finite(star)
    return _martin_objects(star, list(enumerate(star.classes)))


def _martin_objects(star: StarMatrix, classes) -> list[MartinObject]:
    """The MartinObject of each (class id, members) pair.

    One product A K over the columns decides every harmonic flag: exact on
    the integer arrays of int and Fraction kernels, within tol on floats.

    The self pairing max over x ~ y of A*<b,x> + A*<x,y> - A*<b,y> is
    exactly 0 on an exact star: closure bounds every term by 0, and x = y
    with the zero diagonal attains it.  Only float stars, whose classes a
    tolerance closes, have it computed and checked.
    """
    scaled = star.scaled
    s = scaled.array
    b = star.basepoint
    reps = [members[0] for _, members in classes]
    columns = s[:, reps]
    columns = columns - columns[b]
    slack = _slack(star.source, scaled.kind)
    image = _product(star.source.scaled.exact(2 * star.n), columns)
    harmonic = np.logical_and.reduce(_close(image, columns, slack)).tolist()
    if scaled.kind is float:
        # H(xi, xi) = max over the members x of A*<b,x> + K<x,y>; a class is
        # labelled by its least member, its representative
        own = star.labels[:, None] == reps
        self_pairs = np.maximum.reduce(np.where(own, s[b][:, None] + columns, -np.inf))
        paired = _close(self_pairs, 0, slack).tolist()
        if False in paired:
            i = paired.index(False)
            raise AssumptionViolated(
                f"self pairing of class {classes[i][0]} is "
                f"{float(self_pairs[i])!r}, expected 0"
            )
    objects = []
    for (cid, members), column, flag in zip(classes, scaled.values(columns.T), harmonic):
        if members[0] == b:
            # K<b,b> = A*<b,b> - A*<b,b> is the int 0 of the star's diagonal
            column[b] = 0
        objects.append(MartinObject(tuple(column), cid, tuple(members), flag))
    return objects


def _on_star(h, star: StarMatrix, terms: int, why: str):
    """The star's array and h's row on one scale, exact for sums of `terms`
    numbers, once A h = h holds for the star's source (NotHarmonic(why) if
    not); also the Scaled that reads values back."""
    harmonic, _, g, grid = _fixed(star.source, h, terms=terms)
    if not harmonic:
        raise NotHarmonic(why)
    s = star.scaled.to(grid.q, grid.kind).exact(terms)
    if s.dtype != g.dtype:
        s, g = _python_ints(s), _python_ints(g)
    return s, g, grid


def _measure(s: np.ndarray, g: np.ndarray, groups, b: int) -> np.ndarray:
    """mu_h(w) = max_{x in w} A*<b,x> + h(x) for each group w of members, from
    the star's array s and h's row g on one scale."""
    if not groups:
        return g[:0]
    members = [x for group in groups for x in group]
    starts = list(accumulate((len(group) for group in groups[:-1]), initial=0))
    return np.maximum.reduceat(_adder(s)(s[b], g)[members], starts)


def mu(xi: Sequence[Value], eta: MartinObject, star: StarMatrix) -> Value:
    """Boundary measure of xi at the class eta.

    In a finite space the upper-semicontinuous envelope collapses to a
    maximum over the representatives of the class:
    mu_xi(eta) = max_{x in eta} A*<b,x> + xi(x).
    """
    _require_finite(star)
    s, g, grid = _on_grid(star.scaled, _function(star.source, xi))
    return grid.value(_measure(s, g, [eta.members], star.basepoint)[0])


def minimal_martin_space(star: StarMatrix) -> list[MartinObject]:
    return [obj for obj in martin_kernel(star) if obj.harmonic]


def spectral_measure(
    h: Sequence[Value], minimal: Sequence[MartinObject], star: StarMatrix
) -> dict[MartinObject, Value]:
    """Greatest representing measure of a harmonic function.

    Raises NotHarmonic unless A h = h for the source kernel.
    """
    _require_finite(star)
    why = "spectral measures exist only for harmonic functions"
    s, g, grid = _on_star(h, star, 2, why)
    measure = _measure(s, g, [w.members for w in minimal], star.basepoint)
    return dict(zip(minimal, grid.values(measure[None])[0]))


def represent(nu: Mapping[MartinObject, Value], star: StarMatrix) -> tuple[Value, ...]:
    """Max-plus combination sup_w nu(w) + w of minimal columns: one max over
    the columns on the star's array.  Weights are finite or -inf."""
    _require_finite(star)
    weights = list(map(coerce_value, nu.values()))
    if _has_pos_inf(weights):
        raise DimensionMismatch("measure weights may not be +inf")
    s, reps = star.scaled, [w.representative for w in nu]
    a = s.exact(2)
    columns = Scaled(a[:, reps] - a[star.basepoint, reps], s.q, s.kind)
    c, g, grid = _on_grid(columns, weights)
    combined = np.maximum.reduce(_adder(c)(c, g), axis=1, initial=NEG_INF)
    return tuple(grid.values(combined[None])[0])


def extremal_witness(
    h: Sequence[Value], minimal: Sequence[MartinObject], star: StarMatrix
) -> MartinObject | None:
    """Minimal column w with h = mu_h(w) + w pointwise, if one exists.

    Requires h harmonic and normalized (h(b) = 0).  A harmonic function is
    an extreme generator of the harmonic cone exactly when such a witness
    exists.
    """
    _require_finite(star)
    # h = mu_h(w) + w sums four numbers: three star entries and a value of h
    s, g, grid = _on_star(h, star, 4, "extremality is defined for harmonic functions")
    slack = _slack(star.source, grid.kind)
    b = star.basepoint
    if not _close(g[b], 0, slack):
        raise NotNormalized("extremality expects h(basepoint) = 0")
    measure = _measure(s, g, [w.members for w in minimal], b)
    columns = s[:, [w.representative for w in minimal]]
    target = _adder(columns)(measure, columns - columns[b])
    hit = np.flatnonzero(_close(g[:, None], target, slack).all(axis=0))
    return minimal[hit[0]] if hit.size else None


def is_extremal(
    h: Sequence[Value], minimal: Sequence[MartinObject], star: StarMatrix
) -> bool:
    return extremal_witness(h, minimal, star) is not None
