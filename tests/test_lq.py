import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    action_simpson,
    kernel_textbook,
    perturbed_action,
    sweep_star,
)

from maxplus_martin import (
    BothEndpointsZero,
    DimensionMismatch,
    GradientSingularity,
    GridSpec,
    GridTooSmall,
    NonUnitDirection,
    NonpositiveHorizon,
    NonpositiveLambda,
    almost_optimality_slack,
    feedback_trajectory,
    finite_horizon_kernel,
    gradient,
    horofunction,
    horofunction_field,
    optimal_horizon,
    stable_quadratic,
    star_kernel,
    star_kernel_origin,
    unstable_quadratic,
    verify_harmonic_lq,
)

coords = st.floats(-3, 3, allow_nan=False)
lams = st.sampled_from([0.0, 0.5, 1.0])


def vec(draw_list):
    return np.array(draw_list, dtype=float)


@st.composite
def endpoint_pairs(draw, max_dim=3):
    d = draw(st.integers(1, max_dim))
    x = vec([draw(coords) for _ in range(d)])
    y = vec([draw(coords) for _ in range(d)])
    return x, y


@given(endpoint_pairs(), st.floats(0.05, 5), lams)
def test_kernel_matches_textbook_form(pair, t, lam):
    x, y = pair
    got = finite_horizon_kernel(x, y, t, lam)
    want = float(kernel_textbook(x, y, t, lam))
    assert got == pytest.approx(want, abs=1e-9)


def test_kernel_is_stable_for_tiny_horizons():
    x = np.array([1.0, 2.0])
    # A^t<x,x> = -2|x|^2 tanh(t/2) - lam t, which the raw form cannot
    # resolve below roundoff of the cosh cancellation
    for t in (1e-3, 1e-6, 1e-9, 1e-12):
        got = finite_horizon_kernel(x, x, t, 0.5)
        want = -2.0 * 5.0 * math.tanh(t / 2.0) - 0.5 * t
        assert got == pytest.approx(want, rel=1e-12)


def test_kernel_validation():
    x = np.array([1.0])
    with pytest.raises(NonpositiveHorizon):
        finite_horizon_kernel(x, x, 0.0)
    with pytest.raises(NonpositiveHorizon):
        finite_horizon_kernel(x, x, -1.0)
    with pytest.raises(NonpositiveHorizon):
        finite_horizon_kernel(x, x, float("inf"))
    with pytest.raises(DimensionMismatch):
        finite_horizon_kernel([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(DimensionMismatch):
        finite_horizon_kernel(x, x, 1.0, lam=-0.5)


def test_kernel_broadcasts():
    xs = np.zeros((4, 2))
    ys = np.ones((4, 2))
    out = finite_horizon_kernel(xs, ys, 1.0)
    assert out.shape == (4,)
    assert np.allclose(out, out[0])
    assert isinstance(finite_horizon_kernel([1.0], [0.0], 1.0), float)


@given(endpoint_pairs(max_dim=2), st.floats(0.1, 3), lams)
@settings(max_examples=25)
def test_kernel_equals_action_of_euler_arc(pair, t, lam):
    x, y = pair
    got = finite_horizon_kernel(x, y, t, lam)
    assert got == pytest.approx(action_simpson(x, y, t, lam), abs=1e-7)


@given(endpoint_pairs(max_dim=2), st.floats(0.2, 3), lams,
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
@settings(max_examples=20)
def test_no_perturbed_arc_beats_the_kernel(pair, t, lam, b0, b1):
    x, y = pair
    bump = np.array([b0, b1])
    worse = perturbed_action(x, y, t, lam, bump)
    assert worse <= finite_horizon_kernel(x, y, t, lam) + 1e-9


def test_optimal_horizon_worked_values():
    assert optimal_horizon([1.0, 0.0], [2.0, 0.0]) == pytest.approx(math.log(2))
    assert optimal_horizon([1.0, 0.0], [0.0, 1.0]) == math.inf
    assert optimal_horizon([1.0], [-2.0]) == math.inf
    assert optimal_horizon([1.0, 1.0], [1.0, 1.0]) == 0.0
    # lam = 1, x = 0, |y| = 1: cosh T* = sqrt(2)
    want = math.acosh(math.sqrt(2.0))
    assert optimal_horizon([0.0, 0.0], [1.0, 0.0], 1.0) == pytest.approx(want)
    with pytest.raises(BothEndpointsZero):
        optimal_horizon([0.0], [0.0])
    assert optimal_horizon([0.0], [0.0], 1.0) == 0.0


@given(endpoint_pairs(), lams)
def test_optimal_horizon_is_a_local_max(pair, lam):
    x, y = pair
    if not x.any() and not y.any():
        return
    t = optimal_horizon(x, y, lam)
    if not math.isfinite(t) or t < 1e-4:
        return
    at = finite_horizon_kernel(x, y, t, lam)
    for dt in (1e-4, 1e-2):
        assert at >= finite_horizon_kernel(x, y, t * (1 + dt), lam) - 1e-12
        assert at >= finite_horizon_kernel(x, y, t * (1 - dt), lam) - 1e-12


def test_star_kernel_worked_values():
    assert star_kernel([1.0, 0.0], [2.0, 0.0]) == pytest.approx(-3.0, abs=1e-12)
    assert star_kernel([1.0, 0.0], [0.0, 1.0]) == pytest.approx(-2.0, abs=1e-12)
    assert star_kernel([1.0, 1.0], [1.0, 1.0]) == 0.0
    assert star_kernel([0.0, 0.0], [0.0, 0.0], 1.0) == 0.0
    with pytest.raises(DimensionMismatch):
        star_kernel([1.0], [1.0], lam=-1.0)


@given(endpoint_pairs(), lams)
def test_star_kernel_is_symmetric_and_nonpositive(pair, lam):
    x, y = pair
    v = star_kernel(x, y, lam)
    assert v <= 1e-12
    assert v == pytest.approx(star_kernel(y, x, lam), abs=1e-12)


@given(endpoint_pairs(), st.floats(0.05, 20), lams)
def test_star_dominates_every_horizon(pair, t, lam):
    x, y = pair
    assert star_kernel(x, y, lam) >= finite_horizon_kernel(x, y, t, lam) - 1e-9


@given(endpoint_pairs(), lams)
@settings(max_examples=30)
def test_star_matches_horizon_sweep(pair, lam):
    x, y = pair
    # the sweep cannot resolve horizons below its first grid cell, so
    # near-coincident endpoints are outside the oracle's domain (the
    # closed form there is covered by the tiny-horizon stability tests)
    assume(np.linalg.norm(x - y) > 1e-2)
    want, _ = sweep_star(x[None, :], y[None, :], lam)
    assert star_kernel(x, y, lam) == pytest.approx(float(want[0]), abs=1e-7)


def test_origin_star_matches_generic_form():
    for lam in (0.25, 1.0, 2.0):
        for y in ([1.0, 0.0], [0.5, -1.5], [3.0]):
            zero = np.zeros(len(y))
            assert star_kernel_origin(y, lam) == pytest.approx(
                star_kernel(zero, y, lam), abs=1e-12
            )
    # lam = 1, |y| = 1
    want = -math.sqrt(2.0) - math.log(1.0 + math.sqrt(2.0))
    assert star_kernel_origin([1.0, 0.0], 1.0) == pytest.approx(want, abs=1e-14)
    with pytest.raises(NonpositiveLambda):
        star_kernel_origin([1.0], 0.0)


def test_horofunction_worked_values():
    n = [0.0, 1.0]
    assert horofunction([0.0, 2.0], n) == pytest.approx(4.0, abs=1e-12)
    assert horofunction([3.0, -1.0], n) == pytest.approx(-10.0, abs=1e-12)
    # on the kink plane both branches agree with -|x|^2
    assert horofunction([3.0, 0.0], n) == pytest.approx(-9.0, abs=1e-12)
    with pytest.raises(NonUnitDirection):
        horofunction([1.0, 0.0], [1.0, 1.0])


def test_horofunction_broadcasts_and_vectorizes():
    n = np.array([0.0, 1.0])
    pts = np.array([[0.0, 2.0], [3.0, -1.0], [3.0, 0.0]])
    out = horofunction(pts, n)
    assert out.shape == (3,)
    assert np.allclose(out, [4.0, -10.0, -9.0])
    field = horofunction_field(n, 0.0)
    assert np.allclose(field(pts), out)


@given(st.floats(0.1, 2), st.floats(-1.5, 1.5), st.sampled_from([0.0, 1.0]))
@settings(max_examples=20)
def test_horofunction_is_a_renormalized_star_limit(r_scale, along, lam):
    n = np.array([0.6, 0.8])
    x = along * n + np.array([-0.8, 0.6]) * r_scale
    r = 1e4
    want = star_kernel(x, r * n, lam) - star_kernel(np.zeros(2), r * n, lam)
    assert horofunction(x, n, lam) == pytest.approx(want, abs=1e-3)


def test_gradient_matches_analytic_fields():
    x = np.array([0.7, -1.2])
    assert np.allclose(gradient(stable_quadratic, x), -2 * x, atol=1e-6)
    assert np.allclose(gradient(unstable_quadratic, x), 2 * x, atol=1e-6)
    n = np.array([0.0, 1.0])
    h = horofunction_field(n, 0.0)
    up = np.array([0.5, 1.0])
    want = -2 * up + 4 * float(up @ n) * n
    assert np.allclose(gradient(h, up), want, atol=1e-5)


def test_gradient_detects_the_horofunction_kink():
    h = horofunction_field(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(GradientSingularity):
        gradient(h, np.array([1.0, 0.0]))


def test_feedback_trajectory_contracts_along_the_stable_flow():
    x0 = np.array([1.0, -0.5])
    times, pts = feedback_trajectory(stable_quadratic, x0, 2.0, 0.01)
    assert times.shape == (201,)
    want = np.exp(-2.0 * times)[:, None] * x0
    assert np.max(np.abs(pts - want)) < 1e-8
    with pytest.raises(DimensionMismatch):
        feedback_trajectory(stable_quadratic, x0, 0.0, 0.01)
    with pytest.raises(DimensionMismatch):
        feedback_trajectory(stable_quadratic, x0, 0.5, 0.6)


def test_feedback_trajectory_splits_along_the_horofunction_flow():
    n = np.array([0.0, 1.0])
    h = horofunction_field(n, 0.0)
    x0 = np.array([0.5, 0.25])
    times, pts = feedback_trajectory(h, x0, 1.0, 0.01)
    want = (
        np.exp(2.0 * times)[:, None] * 0.25 * n
        + np.exp(-2.0 * times)[:, None] * np.array([0.5, 0.0])
    )
    assert np.max(np.abs(pts - want)) < 1e-7


def test_flow_slack_vanishes_at_the_control_horizon():
    # gradient ascent traverses optimal arcs at twice control speed, so
    # consecutive samples are optimally joined at horizon 2 * step
    x0 = np.array([1.0, 1.0])
    step = 0.01
    _, pts = feedback_trajectory(stable_quadratic, x0, 2.0, step)
    assert almost_optimality_slack(pts, 2.0 * step, stable_quadratic) < 1e-9
    # read at the literal step the same samples look suboptimal by a
    # per-step amount of order step, accumulating to about |x0|^2 / 4
    assert almost_optimality_slack(pts, step, stable_quadratic) > 0.1


def test_verify_confirms_the_stable_quadratic_at_lam_zero():
    probes = np.array([[0.5, 0.5], [-1.0, 2.0], [1.5, -0.5]])
    reports = verify_harmonic_lq(stable_quadratic, 0.0, 1.0, probes)
    assert len(reports) == 3
    assert max(r.residual for r in reports) < 1e-3
    assert not any(r.clipped for r in reports)
    d = reports[0].as_dict()
    assert set(d) == {"probe", "residual", "argmax_location", "clipped"}


def test_verify_analytic_maximizer_identity():
    # sup_y A^t<x,y> - |y|^2 is attained at y = e^{-t} x with value -|x|^2
    rng = np.random.default_rng(7)
    for t in (0.5, 1.0, 2.0):
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            y = math.exp(-t) * x
            lhs = finite_horizon_kernel(x, y, t) + stable_quadratic(y)
            assert abs(lhs - stable_quadratic(x)) < 1e-10


def test_verify_rejects_the_stable_quadratic_at_positive_lam():
    probes = np.array([[0.5, 0.5], [-1.0, 1.0]])
    reports = verify_harmonic_lq(stable_quadratic, 1.0, 0.5, probes)
    assert max(r.residual for r in reports) > 0.4


def test_verify_flags_clipped_maximizers():
    probes = np.array([[1.5, 1.5]])
    with pytest.raises(GridTooSmall) as info:
        verify_harmonic_lq(unstable_quadratic, 0.0, 2.0, probes)
    assert info.value.reports and info.value.reports[0].clipped
    reports = verify_harmonic_lq(
        unstable_quadratic, 0.0, 2.0, probes, raise_on_clip=False
    )
    assert reports[0].clipped
    widened = verify_harmonic_lq(
        unstable_quadratic, 0.0, 2.0, probes,
        grid=GridSpec(half_width=18.0, spacing=0.02),
    )
    assert not widened[0].clipped
    assert widened[0].residual < 1e-3


def test_grid_spec_validation():
    with pytest.raises(DimensionMismatch):
        GridSpec(half_width=0.0)
    with pytest.raises(DimensionMismatch):
        GridSpec(half_width=1.0, spacing=2.0)
    assert GridSpec(half_width=1.0, spacing=0.5).axis().tolist() == [
        -1.0, -0.5, 0.0, 0.5, 1.0,
    ]
