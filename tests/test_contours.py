import numpy as np
import pytest

from maxplus_martin import DimensionMismatch, EmptyContour, horosphere_contour
from maxplus_martin.contours import (
    _chain,
    marching_squares,
    polylines_to_csv,
    polylines_to_svg,
    sample_field,
)
from maxplus_martin.lq import horofunction_field, stable_quadratic
from oracles import marching_segments


def test_circle_level_set():
    polylines = horosphere_contour(stable_quadratic, -1.0, (-2, -2, 2, 2), 64)
    assert len(polylines) == 1
    curve = polylines[0]
    radii = np.sqrt(np.sum(curve * curve, axis=1))
    assert np.max(np.abs(radii - 1.0)) < 2 * (4 / 64)
    assert np.allclose(curve[0], curve[-1]), "the circle should close"
    assert len(curve) > 32


def test_empty_and_invalid_inputs():
    with pytest.raises(EmptyContour):
        horosphere_contour(stable_quadratic, -10.0, (-1, -1, 1, 1), 32)
    with pytest.raises(EmptyContour):
        horosphere_contour(stable_quadratic, 1.0, (-1, -1, 1, 1), 32)
    with pytest.raises(DimensionMismatch):
        horosphere_contour(stable_quadratic, -1.0, (-1, -1, 1, 1), 8)
    with pytest.raises(DimensionMismatch):
        horosphere_contour(stable_quadratic, -1.0, (1, -1, -1, 1), 32)


def test_sample_field_layout():
    xs, ys, vals = sample_field(stable_quadratic, (-1, 0, 1, 2), 16)
    assert xs.shape == (17,) and ys.shape == (17,)
    assert vals.shape == (17, 17)
    assert vals[0, 0] == stable_quadratic(np.array([-1.0, 0.0]))
    assert vals[-1, -1] == stable_quadratic(np.array([1.0, 2.0]))


def test_saddle_cells_split_by_center_average():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    diagonal_in = np.array([[1.0, 0.4], [0.4, 1.0]])
    polys = marching_squares(diagonal_in, xs, ys, 0.5)
    assert len(polys) == 2
    # center average 0.7 > level: the inside corners connect, each
    # outside corner is cut off by a short segment near it
    for line in polys:
        assert len(line) == 2
    corners_cut = {tuple(np.round(line.mean(axis=0) > 0.5)) for line in polys}
    assert corners_cut == {(True, False), (False, True)}

    diagonal_out = np.array([[1.0, 0.0], [0.0, 1.0]])
    polys = marching_squares(diagonal_out, xs, ys, 0.75)
    assert len(polys) == 2
    # center average 0.5 < level: now the inside corners are cut off
    corners_cut = {tuple(np.round(line.mean(axis=0) > 0.5)) for line in polys}
    assert corners_cut == {(False, False), (True, True)}


def _same_as_the_full_scan(values, xs, ys, level):
    # the oracle's points are numpy float64 scalars, so _chain keys them by
    # numpy's rounding, marching_squares' Python floats by round()'s
    got = marching_squares(values, xs, ys, level)
    want = _chain(marching_segments(values, xs, ys, level))
    assert [p.tolist() for p in got] == [p.tolist() for p in want]


@pytest.mark.parametrize("seed", range(20))
def test_marching_squares_matches_the_full_scan(seed):
    # small integer fields at integer and half-integer levels: many saddle
    # cells, and at integer levels many nodes lying exactly on the level
    rng = np.random.default_rng(seed)
    shape = rng.integers(2, 12, size=2)
    values = rng.integers(-2, 3, size=shape).astype(float)
    xs = np.cumsum(rng.uniform(0.1, 1.0, size=shape[0]))
    ys = np.cumsum(rng.uniform(0.1, 1.0, size=shape[1]))
    for level in (-1.0, -0.5, 0.0, 0.5, 1.0):
        _same_as_the_full_scan(values, xs, ys, level)
    # a normal field at levels equal to some of its own node values
    values = rng.normal(size=shape)
    for level in rng.choice(values.ravel(), size=3):
        _same_as_the_full_scan(values, xs, ys, float(level))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_marching_squares_matches_the_full_scan_on_horofunctions(lam):
    xs, ys, values = sample_field(horofunction_field((0, 1), lam), (-3, -3, 3, 3), 64)
    for level in (-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0):
        _same_as_the_full_scan(values, xs, ys, level)


def test_chain_grows_the_second_end_then_the_first():
    # the lowest unused segment starts a polyline, which grows from its
    # second end, then from its first, taking the lowest unused segment at
    # each tip, whichever way round that segment is stored
    a, b, c, d, e = [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [-1.0, 0.0]
    segments = [(b, c), (a, b), (d, c), (e, a), (c, e)]
    assert [p.tolist() for p in _chain(segments)] == [[c, e, a, b, c, d]]
    # a closed loop is walked once round from the second end
    loop = [(a, b), (c, a), (b, c)]
    assert [p.tolist() for p in _chain(loop)] == [[a, b, c, a]]


def test_chaining_orders_are_deterministic():
    a = horosphere_contour(stable_quadratic, -1.0, (-2, -2, 2, 2), 32)
    b = horosphere_contour(stable_quadratic, -1.0, (-2, -2, 2, 2), 32)
    assert all(np.array_equal(p, q) for p, q in zip(a, b))


def test_csv_blocks():
    lines = [np.array([[0.0, 1.0], [0.5, 1.25]]), np.array([[2.0, 2.0], [3.0, 2.5]])]
    text = polylines_to_csv([(-1.5, lines), (2.0, lines[:1])])
    assert text == (
        "level,x,y\n"
        "-1.5,0,1\n-1.5,0.5,1.25\n\n"
        "-1.5,2,2\n-1.5,3,2.5\n\n"
        "2,0,1\n2,0.5,1.25\n"
    )
    assert polylines_to_csv([]) == "level,x,y\n"


def test_svg_flips_y_and_tags_levels():
    lines = [np.array([[0.0, 2.0], [1.0, 2.0]])]
    text = polylines_to_svg([(-1.5, lines)], (-3, -3, 3, 3))
    assert text.startswith("<svg")
    assert 'viewBox="-3 -3 6 6"' in text
    assert 'data-level="-1.5"' in text
    assert "M 0 -2 L 1 -2" in text
    assert text.rstrip().endswith("</svg>")
