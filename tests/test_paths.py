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
    sparse_float_kernels,
    sparse_kernels,
)
from oracles import as_raw, geodesic_excess, greedy_descent, optimal_excess

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
    path_J,
    path_reward,
)
from maxplus_martin.errors import (
    AssumptionViolatedWarning,
    NotAlmostGeodesic,
    NotEventuallyConstant,
)

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
    for k in range(len(path) - 1):
        dt = path.times[k + 1] - path.times[k]
        power = matrix_power(kernel, dt)
        reward = path_reward(kernel, path, k, k + 1)
        assert reward == power.entries[path.states[k]][path.states[k + 1]]


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
    assert left + right == path_reward(kernel, path, int(s), u)


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


def _agrees(kernel, got, want):
    if kernel.scaled.kind is float:
        # powers sum their floats in another order than the oracle's
        assert as_raw(got) == pytest.approx(want, rel=1e-12, abs=kernel.tol)
    else:
        assert as_raw(got) == want
        assert type(got) in (int, kernel.scaled.kind) or same(got, POS_INF)


@given(st.one_of(finite_kernels(), sparse_kernels(), fraction_kernels(), float_kernels(),
                 sparse_float_kernels(), huge_kernels), st.data())
def test_geodesic_excess_matches_the_oracle(kernel, data):
    source, d = kernel, data.draw(st.integers(2, 7))
    try:
        lam = max_cycle_mean(kernel)
        kernel = normalize(kernel, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssumptionViolatedWarning)
            star = kleene_star(kernel)
            # a star on another denominator than its source's: lam + 1/d
            other = kleene_star(normalize(source, lam + Fraction(1, d)))
    except (NoCycle, PositiveCycle):
        return
    # long enough to cross impossible steps on sparse kernels
    m = data.draw(st.integers(1, 100))
    states = data.draw(st.lists(st.integers(0, kernel.n - 1), min_size=m, max_size=m))
    steps = data.draw(st.lists(st.integers(1, 3), min_size=m - 1, max_size=m - 1))
    times = [0]
    for dt in steps:
        times.append(times[-1] + dt)
    path = DiscretePath(times, states)
    raw = [[as_raw(v) for v in row] for row in kernel.entries]
    star_raw = [[as_raw(v) for v in row] for row in star.entries]
    _agrees(kernel, almost_geodesic_excess(kernel, star, path),
            geodesic_excess(star_raw, raw, times, states))
    # the source's steps against that star join the two denominators
    _agrees(other.source, almost_geodesic_excess(source, other, path), geodesic_excess(
        [[as_raw(v) for v in row] for row in other.entries],
        [[as_raw(v) for v in row] for row in source.entries], times, states))
    # h with -inf entries pins -inf absorbing along the path; +inf is refused
    h = data.draw(st.lists(st.integers(-20, 20), min_size=kernel.n, max_size=kernel.n))
    spots = data.draw(st.lists(st.integers(0, kernel.n - 1), max_size=2))
    for spot in spots:
        h[spot] = NEG_INF
    _agrees(kernel, almost_optimal_excess(kernel, path, h),
            optimal_excess(raw, h, times, states))
    h[data.draw(st.integers(0, kernel.n - 1))] = POS_INF
    with pytest.raises(DimensionMismatch, match=r"functions may not take \+inf"):
        almost_optimal_excess(kernel, path, h)


@given(st.integers(0, 2**32 - 1))
def test_long_paths_past_2_to_the_53_stay_exact(seed):
    # the star and the steps fit float64, but a path's prefix sums pass 2^53
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    rows = rng.integers(-9, 1, size=(n, n)) * (2**45 + 1)
    kernel = KernelMatrix(labels(n), rows.tolist())
    kernel = normalize(kernel, max_cycle_mean(kernel))
    star = kleene_star(kernel)
    assert star.scaled.array.dtype == float
    path = random_path(rng, kernel, max_len=100)
    raw = [[as_raw(v) for v in row] for row in kernel.entries]
    star_raw = [[as_raw(v) for v in row] for row in star.entries]
    want = geodesic_excess(star_raw, raw, path.times, path.states)
    assert almost_geodesic_excess(kernel, star, path) == want


def test_h_on_a_finer_denominator_stays_exact():
    # h's ints reach the kernel's denominator 3 before the 2^53 bound is
    # taken: h(x_0) - (C_1 + h(x_1)) passes 2^53 only on that scale
    kernel = normalize(KernelMatrix(["a", "b"], [[0, 0], [0, 0]]), Fraction(1, 3))
    path = DiscretePath((0, 1), (0, 1))
    for d in range(8):
        h = [2**51 + d, -(2**51) - 7 * d]
        assert almost_optimal_excess(kernel, path, h) == h[0] - (Fraction(-1, 3) + h[1])


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


def test_verdicts_keep_the_float_slack_rule():
    # an exact excess of 3/5 against the float eps 0.6, which is just below
    # 3/5: a float on either side gets kernel.tol when both are finite
    kernel = KernelMatrix(["a", "b"], [[0, Fraction(-3, 10)], [Fraction(-3, 10), 0]])
    star = kleene_star(kernel)
    path = DiscretePath((0, 1, 2), (0, 1, 0))
    assert same(almost_geodesic_excess(kernel, star, path), Fraction(3, 5))
    assert same(almost_optimal_excess(kernel, path, [0, 0]), Fraction(3, 5))
    assert not Fraction(3, 5) <= 0.6
    assert is_almost_geodesic(path, 0.6, kernel, star)
    assert is_almost_optimal(path, [0, 0], 0.6, kernel)
    # exact on both sides, or an infinite side: no slack
    assert not is_almost_geodesic(path, Fraction(599999999999, 10**12), kernel, star)
    assert not is_almost_optimal(path, [0, NEG_INF], 1e300, kernel)
    assert is_almost_optimal(path, [NEG_INF, 0], 0.0, kernel)


def test_completed_product_convention():
    # -inf absorbs +inf along a path, and never meets an int past the float range
    kernel = KernelMatrix(["a", "b"], [[0, -(10**400)], [NEG_INF, 0]])
    down = DiscretePath((0, 1, 2), (0, 1, 1))
    back = DiscretePath((0, 1, 2), (1, 0, 0))
    assert path_reward(kernel, down) == -(10**400)
    assert same(path_reward(kernel, back), NEG_INF)
    assert same(path_reward(kernel, back, 1, 2), 0)
    # reward + h(x_j) is -inf when either side is, which needs +inf slack; +inf
    # is no value of h
    assert same(almost_optimal_excess(kernel, down, [0, NEG_INF]), POS_INF)
    assert same(almost_optimal_excess(kernel, back, [0, 0]), POS_INF)
    for h in ([0, POS_INF], [POS_INF, 0]):
        with pytest.raises(DimensionMismatch, match=r"functions may not take \+inf"):
            almost_optimal_excess(kernel, down, h)
    assert almost_optimal_excess(kernel, down, [10**400, 0]) == 2 * 10**400
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(kernel)
    assert almost_geodesic_excess(kernel, star, down) == 0
    # A*<b,a> is -inf, so the impossible step b > a needs no slack
    assert almost_geodesic_excess(kernel, star, back) == 0
    ring = KernelMatrix(["a", "b", "c"], [[NEG_INF, 0, NEG_INF], [NEG_INF, NEG_INF, 0],
                                          [0, NEG_INF, NEG_INF]])
    stay = DiscretePath((0, 1, 2), (0, 1, 1))
    assert path_J(kleene_star(ring), stay, 0, 1) == 0
    assert same(path_J(kleene_star(ring), stay, 0, 2), NEG_INF)


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
    assert path_J(star, path, s, u) == path_J(star, path, s, t) + path_J(star, path, t, u)


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
    assert mu(h, limit, star) + limit.column[start] == h[start]


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
