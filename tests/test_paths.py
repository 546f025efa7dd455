import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    finite_kernels,
    float_kernels,
    fraction_kernels,
    labels,
    normalized_corpus_kernel,
    same,
    sparse_kernels,
)
from oracles import as_raw, geodesic_excess, greedy_descent

from maxplus_martin import (
    AssumptionViolated,
    DimensionMismatch,
    DiscretePath,
    HMinusInfinityAtStart,
    KernelMatrix,
    NEG_INF,
    NoCycle,
    NotHarmonic,
    POS_INF,
    PositiveCycle,
    almost_geodesic_excess,
    almost_optimal_excess,
    downhill_path,
    geodesic_limit,
    is_almost_geodesic,
    is_almost_optimal,
    kleene_star,
    martin_kernel,
    matrix_power,
    max_cycle_mean,
    minimal_martin_space,
    mu,
    normalize,
    otimes,
    path_J,
    path_reward,
)
from maxplus_martin.errors import (
    AssumptionViolatedWarning,
    NotAlmostGeodesic,
    NotEventuallyConstant,
)
from maxplus_martin.paths import step_rewards

TWO_STATE = KernelMatrix(states=("a", "b"), entries=[[0, -1], [-1, 0]])


def random_path(rng, kernel, max_len=6, max_step=3):
    m = int(rng.integers(2, max_len + 1))
    states = [int(s) for s in rng.integers(0, kernel.n, size=m)]
    steps = rng.integers(1, max_step + 1, size=m - 1)
    times = [0]
    for s in steps:
        times.append(times[-1] + int(s))
    return DiscretePath(times=tuple(times), states=tuple(states))


def test_path_validation():
    with pytest.raises(DimensionMismatch):
        DiscretePath(times=(0, 1), states=(0,))
    with pytest.raises(DimensionMismatch):
        DiscretePath(times=(0, 0), states=(0, 1))
    with pytest.raises(DimensionMismatch):
        DiscretePath(times=(-1, 0), states=(0, 1))
    with pytest.raises(DimensionMismatch):
        DiscretePath(times=(0, 1.5), states=(0, 1))
    with pytest.raises(DimensionMismatch):
        DiscretePath(times=(), states=())
    p = DiscretePath(times=(0, 2, 5), states=(1, 0, 1))
    assert len(p) == 3


@given(st.integers(0, 2**32 - 1))
def test_step_rewards_match_matrix_powers(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    path = random_path(rng, kernel)
    rewards = step_rewards(kernel, path)
    for k in range(len(path) - 1):
        dt = path.times[k + 1] - path.times[k]
        power = matrix_power(kernel, dt)
        assert rewards[k] == power.entries[path.states[k]][path.states[k + 1]]


@given(st.integers(0, 2**32 - 1))
def test_path_reward_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    path = random_path(rng, kernel)
    m = len(path)
    s, t = sorted(rng.integers(0, m, size=2))
    u = int(rng.integers(t, m))
    left = path_reward(kernel, path, int(s), int(t))
    right = path_reward(kernel, path, int(t), u)
    assert otimes(left, right) == path_reward(kernel, path, int(s), u)


@given(st.integers(0, 2**32 - 1))
def test_geodesic_excess_matches_pairwise_brute_force(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    star = kleene_star(kernel)
    path = random_path(rng, kernel)
    worst = 0
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            gap = star.entries[path.states[i]][path.states[j]] - path_reward(
                kernel, path, i, j
            )
            worst = max(worst, gap)
    assert almost_geodesic_excess(kernel, star, path) == worst
    assert is_almost_geodesic(path, worst, kernel, star)
    if worst > 0:
        assert not is_almost_geodesic(path, worst - 1, kernel, star)


# dense integer kernels whose walks of a few steps pass 2^53
huge_kernels = finite_kernels().map(lambda k: KernelMatrix(
    k.states, [[v * (2**50 + 1) - 2**52 - 3 for v in row] for row in k.entries]))


@given(st.one_of(finite_kernels(), sparse_kernels(), fraction_kernels(), float_kernels(),
                 huge_kernels), st.data())
def test_geodesic_excess_matches_the_oracle(kernel, data):
    try:
        kernel = normalize(kernel, max_cycle_mean(kernel))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssumptionViolatedWarning)
            star = kleene_star(kernel)
    except (NoCycle, PositiveCycle):
        return
    m = data.draw(st.integers(1, 6))
    states = data.draw(st.lists(st.integers(0, kernel.n - 1), min_size=m, max_size=m))
    steps = data.draw(st.lists(st.integers(1, 3), min_size=m - 1, max_size=m - 1))
    times = [0]
    for dt in steps:
        times.append(times[-1] + dt)
    got = almost_geodesic_excess(kernel, star, DiscretePath(times, states))
    raw = [[as_raw(v) for v in row] for row in kernel.entries]
    want = geodesic_excess([[as_raw(v) for v in row] for row in star.entries], raw,
                           times, states)
    if kernel.scaled.kind is float:
        # powers sum their floats in another order than the oracle's
        assert as_raw(got) == pytest.approx(want, rel=1e-12, abs=kernel.tol)
    else:
        assert as_raw(got) == want
        assert type(got) in (int, kernel.scaled.kind) or same(got, POS_INF)


def test_almost_optimal_worked_example():
    h = [0, -1]
    path = DiscretePath(times=(0, 1, 2), states=(1, 0, 0))
    assert almost_optimal_excess(TWO_STATE, path, h) == 0
    assert is_almost_optimal(path, h, 0, TWO_STATE)
    detour = DiscretePath(times=(0, 1, 2), states=(0, 1, 0))
    assert almost_optimal_excess(TWO_STATE, detour, h) == 2
    assert not is_almost_optimal(detour, h, 1, TWO_STATE)
    assert is_almost_optimal(detour, h, 2, TWO_STATE)
    started_late = DiscretePath(times=(1, 2), states=(0, 0))
    with pytest.raises(DimensionMismatch):
        is_almost_optimal(started_late, h, 0, TWO_STATE)
    assert almost_optimal_excess(TWO_STATE, path, [NEG_INF, NEG_INF]) == 0


@given(st.integers(0, 2**32 - 1))
def test_path_J_is_nonpositive_and_additive(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    star = kleene_star(kernel)
    path = random_path(rng, kernel)
    m = len(path)
    for s in range(m):
        for t in range(s, m):
            assert path_J(star, path, s, t) <= 0
    s, t, u = sorted(int(v) for v in rng.integers(0, m, size=3))
    assert path_J(star, path, s, u) == otimes(
        path_J(star, path, s, t), path_J(star, path, t, u)
    )


def test_path_J_needs_finite_star():
    import warnings

    from maxplus_martin.errors import AssumptionViolatedWarning

    k = KernelMatrix(states=("a", "b"), entries=[[0, 0], [NEG_INF, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(k)
    path = DiscretePath(times=(0, 1), states=(0, 1))
    with pytest.raises(AssumptionViolated):
        path_J(star, path, 0, 1)
    with pytest.raises(DimensionMismatch):
        path_J(kleene_star(TWO_STATE), path, 1, 0)


def test_downhill_tie_breaks_toward_lowest_index():
    # from b both steps give value -1; the lowest index a wins and the
    # walk then stays at a
    h = [0, -1]
    path = downhill_path(TWO_STATE, h, start=1, eps=0.5, length=4)
    assert path.states == (1, 0, 0, 0, 0)
    assert path.times == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("unit", [1, Fraction(1, 3), 0.5])
def test_downhill_breaks_a_tie_past_the_first_state(unit):
    # from s0 the steps to s1 and s2 both attain h(s0) = -1; s1 wins
    rows = [[-9, -1, -1], [-9, 0, -9], [-9, -9, 0]]
    kernel = KernelMatrix(labels(3), [[v * unit for v in row] for row in rows])
    h = [-unit, 0 * unit, 0 * unit]
    path = downhill_path(kernel, h, start=0, eps=0.5, length=3)
    assert path.states == (0, 1, 1, 1)


@given(st.one_of(finite_kernels(), fraction_kernels(), float_kernels()), st.data())
def test_downhill_matches_the_greedy_oracle(kernel, data):
    kernel = normalize(kernel, max_cycle_mean(kernel))
    harmonic = [obj for obj in martin_kernel(kleene_star(kernel)) if obj.harmonic]
    h = data.draw(st.sampled_from(harmonic)).column
    start = data.draw(st.integers(0, kernel.n - 1))
    path = downhill_path(kernel, h, start, 0.5, 3 * kernel.n)
    raw = [[as_raw(v) for v in row] for row in kernel.entries]
    want = greedy_descent(raw, [as_raw(v) for v in h], start, 3 * kernel.n)
    assert list(path.states) == want


def test_downhill_stays_in_an_attracting_state():
    path = downhill_path(TWO_STATE, [0, 0], start=1, eps=0.5, length=3)
    assert path.states == (1, 1, 1, 1)


def test_downhill_validation():
    with pytest.raises(DimensionMismatch):
        downhill_path(TWO_STATE, [0, -1], start=0, eps=0, length=3)
    with pytest.raises(DimensionMismatch):
        downhill_path(TWO_STATE, [0, -1], start=5, eps=0.5, length=3)
    with pytest.raises(DimensionMismatch):
        downhill_path(TWO_STATE, [0, -1], start=0, eps=0.5, length=-1)
    with pytest.raises(NotHarmonic):
        downhill_path(TWO_STATE, [0, -2], start=0, eps=0.5, length=3)
    with pytest.raises(HMinusInfinityAtStart):
        downhill_path(TWO_STATE, [NEG_INF, NEG_INF], start=0, eps=0.5, length=3)


@given(st.integers(0, 2**32 - 1))
def test_downhill_is_geodesic_optimal_and_settles_minimally(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    star = kleene_star(kernel)
    minimal = minimal_martin_space(star)
    pick = minimal[int(rng.integers(0, len(minimal)))]
    h = pick.column
    start = int(rng.integers(0, kernel.n))
    eps = 0.5
    path = downhill_path(kernel, h, start, eps, length=3 * kernel.n)
    assert is_almost_geodesic(path, eps, kernel, star)
    assert is_almost_optimal(path, h, eps, kernel)
    limit = geodesic_limit(path, star, eps)
    assert limit.minimal
    assert otimes(mu(h, limit, star), limit.column[start]) == h[start]


def test_geodesic_limit_worked_example():
    h = [0, -1]
    path = downhill_path(TWO_STATE, h, start=1, eps=0.5, length=4)
    star = kleene_star(TWO_STATE)
    limit = geodesic_limit(path, star, 0.5)
    assert limit.class_id == 0
    assert limit.members == (0,)


def test_geodesic_limit_detects_unsettled_classes():
    star = kleene_star(TWO_STATE)
    hop = DiscretePath(times=(0, 1), states=(0, 1))
    with pytest.raises(NotEventuallyConstant):
        geodesic_limit(hop, star, 0.5)


def test_geodesic_limit_rejects_slack_violations():
    star = kleene_star(TWO_STATE)
    back_and_forth = DiscretePath(times=(0, 1, 2), states=(0, 1, 0))
    with pytest.raises(NotAlmostGeodesic):
        geodesic_limit(back_and_forth, star, 0.5)


def test_geodesic_limit_flags_nonminimal_settlement():
    # a strictly negative loop: the lone class settles but its column is
    # not harmonic, so no almost-geodesic should end there
    k = KernelMatrix(states=("a",), entries=[[-1]])
    star = kleene_star(k)
    path = DiscretePath(times=(0, 1), states=(0, 0))
    with pytest.raises(AssumptionViolated):
        geodesic_limit(path, star, 2)
