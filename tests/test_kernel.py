from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    finite_kernels,
    float_kernels,
    labels,
    normalized_corpus_kernel,
    sparse_kernels,
)
from oracles import NEG, as_raw, brute_star, enumerate_cycle_means, mp_matmul

from maxplus_martin import (
    DimensionMismatch,
    KernelMatrix,
    NEG_INF,
    NoCycle,
    PositiveCycle,
    apply,
    is_harmonic,
    is_superharmonic,
    kleene_star,
    matmul,
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


@given(sparse_kernels(max_n=4), sparse_kernels(max_n=4))
def test_matmul_matches_oracle(a, b):
    if a.n != b.n:
        return
    got = matmul(a.entries, b.entries)
    want = mp_matmul(raw_entries(a), raw_entries(b))
    assert [[as_raw(v) for v in row] for row in got] == want


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


def test_max_cycle_mean_worked_values():
    k = KernelMatrix(states=("a", "b"), entries=[[-1, -2], [-2, -1]])
    assert max_cycle_mean(k) == -1
    k = KernelMatrix(states=("a", "b"), entries=[[NEG_INF, 0], [1, NEG_INF]])
    assert max_cycle_mean(k) == Fraction(1, 2)
    k = KernelMatrix(states=("a", "b"), entries=[[NEG_INF, 0], [NEG_INF, NEG_INF]])
    with pytest.raises(NoCycle):
        max_cycle_mean(k)


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


@given(finite_kernels(max_n=5), st.integers(0, 4))
def test_star_columns_are_superharmonic(kernel, col_seed):
    star = kleene_star(kernel)
    j = col_seed % kernel.n
    column = [star.entries[i][j] for i in range(kernel.n)]
    assert is_superharmonic(kernel, column)
