import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    corpus,
    finite_kernels,
    float_kernels,
    fraction_kernels,
    labels,
    normalized_corpus_kernel,
    run_capped,
    sparse_kernels,
)
from oracles import (
    NEG,
    as_raw,
    brute_star,
    enumerate_cycle_means,
    karp_cycle_mean,
    mp_apply,
    mp_matmul,
)

from maxplus_martin import (
    DimensionMismatch,
    KernelMatrix,
    NEG_INF,
    NoCycle,
    POS_INF,
    PositiveCycle,
    apply,
    is_harmonic,
    is_superharmonic,
    kleene_star,
    matrix_power,
    max_cycle_mean,
    normalize,
)
from maxplus_martin.errors import AssumptionViolatedWarning
from maxplus_martin.semiring import TOL


def raw_entries(kernel):
    return [[as_raw(v) for v in row] for row in kernel.entries]


def test_kernel_validation():
    with pytest.raises(DimensionMismatch):
        KernelMatrix(states=(), entries=[])
    with pytest.raises(DimensionMismatch):
        KernelMatrix(states=("a", "a"), entries=[[0, 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        KernelMatrix(states=("a", "b"), entries=[[0, 0]])
    with pytest.raises(DimensionMismatch):
        KernelMatrix(states=("a",), entries=[[float("inf")]])
    with pytest.raises(DimensionMismatch):
        KernelMatrix(states=("a",), entries=[[0]], basepoint=3)
    with pytest.raises(DimensionMismatch):
        KernelMatrix(states=("a",), entries=[[True]])
    k = KernelMatrix(states=("a", "b"), entries=[[0, -1], [NEG_INF, 0]])
    assert k.index("b") == 1
    with pytest.raises(DimensionMismatch):
        k.index("zz")


@given(sparse_kernels(max_n=4), st.integers(0, 6))
def test_matrix_power_matches_iteration(kernel, t):
    got = matrix_power(kernel, t)
    step = [[0 if i == j else NEG for j in range(kernel.n)] for i in range(kernel.n)]
    for _ in range(t):
        step = mp_matmul(step, raw_entries(kernel))
    assert raw_entries(got) == step


def test_matrix_power_rejects_bad_exponent():
    k = KernelMatrix(states=("a",), entries=[[0]])
    with pytest.raises(DimensionMismatch):
        matrix_power(k, -1)
    with pytest.raises(DimensionMismatch):
        matrix_power(k, 1.5)


def test_apply_worked_example():
    k = KernelMatrix(states=("a", "b"), entries=[[0, -1], [-1, 0]])
    assert apply(k, [0, -1]) == (0, -1)
    assert apply(k, [NEG_INF, 0]) == (-1, 0)
    with pytest.raises(DimensionMismatch):
        apply(k, [0])


@given(sparse_kernels(max_n=5))
def test_max_cycle_mean_matches_cycle_enumeration(kernel):
    means = enumerate_cycle_means(raw_entries(kernel))
    if not means:
        with pytest.raises(NoCycle):
            max_cycle_mean(kernel)
        return
    got = max_cycle_mean(kernel)
    assert isinstance(got, (int, Fraction))
    assert Fraction(got) == max(means)


@st.composite
def wide_int_kernels(draw):
    """Int kernels, n <= 40, entries up to 2^40 in magnitude and -inf: most
    ratios times lcm(1..n) pass 2^53, so Karp runs on Python ints."""
    n = draw(st.integers(2, 40))
    top = 2 ** draw(st.integers(0, 40))
    arcs = st.one_of(st.integers(-top, top), st.just(NEG_INF))
    rows = [[draw(arcs) for _ in range(n)] for _ in range(n)]
    return KernelMatrix(states=labels(n), entries=rows)


near_2_60 = st.integers(2, 5).flatmap(lambda n: st.lists(st.lists(
    st.one_of(st.integers(2**60 - 99, 2**60), st.integers(-(2**60), 99 - 2**60),
              st.just(NEG_INF)),
    min_size=n, max_size=n), min_size=n, max_size=n)).map(
    lambda rows: KernelMatrix(labels(len(rows)), rows))


@given(st.one_of(fraction_kernels(), wide_int_kernels(), near_2_60, float_kernels()))
def test_max_cycle_mean_matches_naive_karp(kernel):
    want = karp_cycle_mean(raw_entries(kernel))
    if want is None:
        with pytest.raises(NoCycle):
            max_cycle_mean(kernel)
        return
    got = max_cycle_mean(kernel)
    if kernel.scaled.kind is float:
        assert type(got) is float
        assert abs(Fraction(got) - want) <= kernel.tol
    else:
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


def test_max_cycle_mean_worked_values():
    k = KernelMatrix(states=("a", "b"), entries=[[-1, -2], [-2, -1]])
    assert max_cycle_mean(k) == -1
    k = KernelMatrix(states=("a", "b"), entries=[[NEG_INF, 0], [1, NEG_INF]])
    assert max_cycle_mean(k) == Fraction(1, 2)
    k = KernelMatrix(states=("a", "b"), entries=[[NEG_INF, 0], [NEG_INF, NEG_INF]])
    with pytest.raises(NoCycle):
        max_cycle_mean(k)
    # lcm(1..50) passes 2^63: a kernel of zeros takes the Python-int path
    zeros = KernelMatrix(states=labels(50), entries=[[0] * 50] * 50)
    assert type(max_cycle_mean(zeros)) is int and max_cycle_mean(zeros) == 0


def test_normalize_shifts_entries():
    k = KernelMatrix(states=("a", "b"), entries=[[NEG_INF, 0], [1, NEG_INF]])
    shifted = normalize(k, Fraction(1, 2))
    assert shifted.entries[0][1] == Fraction(-1, 2)
    assert shifted.entries[1][0] == Fraction(1, 2)
    assert shifted.entries[0][0] is NEG_INF
    assert max_cycle_mean(shifted) == 0
    with pytest.raises(DimensionMismatch):
        normalize(k, NEG_INF)


@given(finite_kernels(max_n=5))
def test_kleene_star_matches_brute_force(kernel):
    star = kleene_star(kernel)
    want = brute_star(raw_entries(kernel), 2 * kernel.n)
    assert [[as_raw(v) for v in row] for row in star.entries] == want
    assert star.finite


@given(sparse_kernels(max_n=5))
def test_kleene_star_sparse_vs_brute_force(kernel):
    means = enumerate_cycle_means(raw_entries(kernel))
    if any(m > 0 for m in means):
        with pytest.raises(PositiveCycle):
            kleene_star(kernel)
        return
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(kernel)
    want = brute_star(raw_entries(kernel), 2 * kernel.n)
    assert [[as_raw(v) for v in row] for row in star.entries] == want


@given(finite_kernels(max_n=5))
def test_star_is_idempotent_and_triangular(kernel):
    star = kleene_star(kernel)
    e = star.entries
    n = star.n
    for i in range(n):
        assert e[i][i] == 0
        for j in range(n):
            for k in range(n):
                assert e[i][k] >= e[i][j] + e[j][k]
    again = kleene_star(KernelMatrix(star.states, e, star.basepoint))
    assert again.entries == e


def test_positive_cycle_names_a_state():
    k = KernelMatrix(states=("a", "b"), entries=[[0, 2], [-1, 0]])
    with pytest.raises(PositiveCycle, match="state"):
        kleene_star(k)


def test_tolerance_is_derived_from_the_entries():
    exact = KernelMatrix(states=("a", "b"),
                         entries=[[0, Fraction(-1, 3)], [NEG_INF, -7]])
    assert exact.tol == TOL
    mixed = KernelMatrix(states=("a", "b"), entries=[[0, -4.0], [NEG_INF, 2]])
    assert mixed.tol == TOL + 4 * 4.0 * 2.0**-52


@given(float_kernels())
def test_normalized_float_kernel_has_a_star(kernel):
    # Karp's float mean can leave the critical cycle a few ulps above 0
    star = kleene_star(normalize(kernel, max_cycle_mean(kernel)))
    assert all(star.entries[i][i] == 0 for i in range(star.n))


@given(float_kernels())
def test_truly_positive_float_cycle_still_raises(kernel):
    with pytest.raises(PositiveCycle):
        kleene_star(normalize(kernel, max_cycle_mean(kernel) - 1e-3))


def test_star_warns_when_not_finite():
    k = KernelMatrix(states=("a", "b"), entries=[[0, 0], [NEG_INF, 0]])
    with pytest.warns(AssumptionViolatedWarning):
        star = kleene_star(k)
    assert not star.finite
    assert star.entries[1][0] is NEG_INF


def test_harmonic_checks():
    k = KernelMatrix(states=("a", "b"), entries=[[0, -1], [-1, 0]])
    assert is_harmonic(k, [0, 0])
    assert is_harmonic(k, [0, -1])
    assert not is_harmonic(k, [0, -2])
    assert is_superharmonic(k, [0, -1])
    assert not is_superharmonic(k, [0, -2])
    # -inf is a legal harmonic value, +inf is not
    assert is_harmonic(k, [NEG_INF, NEG_INF])
    with pytest.raises(DimensionMismatch):
        is_harmonic(k, [0, float("inf")])


@st.composite
def dense_huge_kernels(draw):
    """All-finite kernels with entries in [-2^50, -2^49]."""
    n = draw(st.integers(2, 8))
    big = st.integers(-(2**50), -(2**49))
    rows = [[draw(big) for _ in range(n)] for _ in range(n)]
    return KernelMatrix(states=labels(n), entries=rows)


def _oracle_verdicts(kernel, h):
    """(A h = h, A h <= h) on the oracle's image: exact, or within kernel.tol
    once the kernel or h holds a float."""
    raw = [as_raw(v) for v in h]
    image = mp_apply(raw_entries(kernel), raw)
    floats = any(type(v) is float for row in (*kernel.entries, h) for v in row)
    slack = kernel.tol if floats else 0
    below = all(a <= b + slack for a, b in zip(image, raw))
    return below and all(b <= a + slack for a, b in zip(image, raw)), below


@given(
    st.one_of(finite_kernels(), sparse_kernels(), fraction_kernels(), float_kernels(),
              dense_huge_kernels()),
    st.data(),
)
def test_function_checks_match_the_oracle(kernel, data):
    # a star column of the normalized kernel (harmonic when its state is
    # critical), moved by one step at one state, or by the constant
    # -2^53 - 1 that keeps it harmonic and puts the sums past float64; with
    # -inf at one state; as floats; and, for apply only, with +inf
    try:
        kernel = normalize(kernel, max_cycle_mean(kernel))
    except NoCycle:
        pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(kernel)
    n = kernel.n
    j, x = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    h = [star.entries[i][j] for i in range(n)]
    exact = not any(type(v) is float for row in kernel.entries for v in row)
    values = [v for row in (*kernel.entries, h) for v in row if v is not NEG_INF]
    q = math.lcm(*(Fraction(v).denominator for v in values)) if exact else 1
    step = (Fraction(1, q) if q > 1 else 1) if exact else 2 * kernel.tol
    cases = [h, [v if v is NEG_INF else v - 2**53 - 1 for v in h]]
    if h[x] is not NEG_INF:
        cases += [h[:x] + [h[x] + d] + h[x + 1 :] for d in (step, -step)]
    cases.append(h[:x] + [NEG_INF] + h[x + 1 :])
    if exact:
        cases.append([v if v is NEG_INF else float(v) for v in h])
    for g in cases:
        want = mp_apply(raw_entries(kernel), [as_raw(v) for v in g])
        got = [as_raw(v) for v in apply(kernel, g)]
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
        verdicts = is_harmonic(kernel, g), is_superharmonic(kernel, g)
        assert verdicts == _oracle_verdicts(kernel, g)
    up = h[:x] + [POS_INF] + h[x + 1 :]
    assert [as_raw(v) for v in apply(kernel, up)] == mp_apply(
        raw_entries(kernel), [as_raw(v) for v in up]
    )


@given(finite_kernels(max_n=5), st.integers(0, 4))
def test_star_columns_are_superharmonic(kernel, col_seed):
    star = kleene_star(kernel)
    j = col_seed % kernel.n
    column = [star.entries[i][j] for i in range(kernel.n)]
    assert is_superharmonic(kernel, column)


@st.composite
def huge_kernels(draw):
    """n = 8 kernels with entries in [-2^50, -2^49] or -inf: a sum of 16
    entries may pass 2^53, so star, Karp and powers run on Python ints."""
    big = st.integers(-(2**50), -(2**49))
    rows = [[draw(st.one_of(st.just(NEG_INF), big)) for _ in range(8)] for _ in range(8)]
    rows[0][0] = draw(big)
    return KernelMatrix(states=labels(8), entries=rows)


@settings(max_examples=15)
@given(huge_kernels(), st.integers(2, 5))
def test_entries_past_float_range_stay_exact(kernel, t):
    assert kernel.scaled.exact(2 * kernel.n).dtype == object
    raw = raw_entries(kernel)
    means = enumerate_cycle_means(raw)
    if means:
        assert max_cycle_mean(kernel) == max(means)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(kernel)
    assert raw_entries(star) == brute_star(raw, 2 * kernel.n)
    step = raw
    for _ in range(t - 1):
        step = mp_matmul(step, raw)
    assert raw_entries(matrix_power(kernel, t)) == step


def test_karp_settles_close_means_exactly():
    # the 7-cycle 7 > 6 > ... > 1 > 7 has mean m + 1/7 and the 8-cycle
    # 7 > ... > 0 > 7 mean m + 1/8, m = 2^48: walk weights fit float64, but
    # both means round to the same float and the cross products
    # num * (n - k) exceed 2^53
    m = 2**48
    rows = [[NEG_INF] * 8 for _ in range(8)]
    for j in range(1, 8):
        rows[j][j - 1] = m
    rows[1][7] = m + 1
    rows[0][7] = m + 1
    kernel = KernelMatrix(states=labels(8), entries=rows)
    assert kernel.scaled.exact(2 * kernel.n).dtype == float
    assert float(Fraction(7 * m + 1, 7)) == float(Fraction(8 * m + 1, 8))
    assert max(enumerate_cycle_means(raw_entries(kernel))) == Fraction(7 * m + 1, 7)
    assert max_cycle_mean(kernel) == Fraction(7 * m + 1, 7)


def _types(grid):
    return {type(v).__name__ for row in grid for v in row if v is not NEG_INF}


def test_star_and_power_entries_keep_their_types():
    # int kernels stay int; after a fractional lambda every star entry off
    # the int 0 diagonal, and every power entry, is a Fraction
    for kernel in corpus(11, 40):
        star = kleene_star(kernel)
        assert all(type(star.entries[i][i]) is int for i in range(kernel.n))
        assert _types(star.entries) == {"int"}
        assert _types(matrix_power(kernel, 3).entries) == {"int"}
    rng = np.random.default_rng(12)
    fractional = []
    while len(fractional) < 40:
        n = int(rng.integers(2, 7))
        raw = KernelMatrix(labels(n), rng.integers(-9, 4, size=(n, n)).tolist())
        lam = max_cycle_mean(raw)
        if isinstance(lam, Fraction):
            fractional.append(normalize(raw, lam))
    for kernel in fractional:
        assert _types(kernel.entries) == {"Fraction"}
        star = kleene_star(kernel)
        assert all(type(star.entries[i][i]) is int for i in range(kernel.n))
        off = [star.entries[i][j] for i in range(kernel.n) for j in range(kernel.n) if i != j]
        assert {type(v).__name__ for v in off} <= {"Fraction"}
        assert _types(matrix_power(kernel, 2).entries) == {"Fraction"}


def test_power_runs_in_bounded_memory():
    # A<x,y> = -|x - y| with a zero diagonal is idempotent: A^16 = A; the
    # product runs in row blocks, so n = 200 fits in 1 GiB of address space
    proc = run_capped(program="""
from maxplus_martin import KernelMatrix, matrix_power
n = 200
kernel = KernelMatrix([str(i) for i in range(n)],
                      [[-abs(i - j) for j in range(n)] for i in range(n)])
assert matrix_power(kernel, 16).entries == kernel.entries
print("ok")
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
