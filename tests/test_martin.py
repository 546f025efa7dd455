import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    finite_kernels,
    float_kernels,
    float_twins,
    fraction_kernels,
    labels,
    normalized_corpus_kernel,
    same,
    sparse_float_kernels,
    sparse_kernels,
)
from oracles import (
    as_raw,
    boundary_measure,
    brute_star,
    extremal_class,
    recurrence_labels,
    self_pairing,
)

from maxplus_martin import (
    AssumptionViolated,
    DimensionMismatch,
    KernelMatrix,
    MartinObject,
    NEG_INF,
    NoCycle,
    NotHarmonic,
    NotNormalized,
    POS_INF,
    PositiveCycle,
    StarMatrix,
    extremal_witness,
    is_extremal,
    is_harmonic,
    format_value,
    kleene_star,
    martin_kernel,
    max_cycle_mean,
    minimal_martin_space,
    mu,
    normalize,
    oplus,
    parse_value,
    recurrence_classes,
    represent,
    spectral_measure,
)
from maxplus_martin.errors import AssumptionViolatedWarning
from maxplus_martin.kernel import scale

TWO_STATE = KernelMatrix(states=("a", "b"), entries=[[0, -1], [-1, 0]])


def test_recurrence_classes_partition_and_order():
    star = kleene_star(TWO_STATE)
    assert recurrence_classes(star) == [[0], [1]]
    cycle = KernelMatrix(
        states=("a", "b", "c"),
        entries=[[NEG_INF, 0, NEG_INF], [NEG_INF, NEG_INF, 0], [0, NEG_INF, NEG_INF]],
    )
    star = kleene_star(cycle)
    assert star.finite
    assert recurrence_classes(star) == [[0, 1, 2]]


def test_recurrence_classes_are_cached_and_handed_out_fresh():
    star = kleene_star(TWO_STATE)
    groups = recurrence_classes(star)
    groups[0].append(1)
    groups.pop()
    assert star.classes == ((0,), (1,))
    assert recurrence_classes(star) == [[0], [1]]


def _tolerance_chain() -> StarMatrix:
    # s3 ~ s0 and s3 ~ s2 within the tolerance (1e-9 here), s0 ~ s2 only
    # through them
    e = 0.6e-9
    source = KernelMatrix(labels(4), [[0.0] * 4] * 4)
    rows = [[0, -3.0, -2.0, -1.0], [-3.0, 0, -3.0, -3.0],
            [2 + 2 * e, -3.0, 0, -1.0], [1 + e, -3.0, 1 + e, 0]]
    assert abs(rows[0][2] + rows[2][0]) > source.tol
    return StarMatrix(source, scale(rows))


def test_recurrence_classes_close_a_tolerance_chain():
    # the classes are the closure
    assert recurrence_classes(_tolerance_chain()) == [[0, 2, 3], [1]]


def test_float_stars_still_check_the_self_pairing():
    # the closed class {0, 2, 3} pairs with itself to A*<0,2> + A*<2,0> > tol,
    # which only the float stars' check sees
    with pytest.raises(AssumptionViolated) as info:
        martin_kernel(_tolerance_chain())
    assert str(info.value) == "self pairing of class 0 is 1.2000000992884452e-09, expected 0"


@given(st.one_of(finite_kernels(max_n=6), fraction_kernels(), sparse_kernels(max_n=6)))
def test_exact_stars_have_transitive_classes_and_zero_self_pairings(kernel):
    # the theorems exact stars rely on in place of the float repairs: the
    # least relative under x ~ y is already the closure's, and every class
    # of a finite star pairs with itself to exactly 0
    try:
        kernels = [kernel, normalize(kernel, max_cycle_mean(kernel))]
    except NoCycle:
        kernels = [kernel]
    for k in kernels:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AssumptionViolatedWarning)
                star = kleene_star(k)
        except PositiveCycle:
            continue
        oracle = brute_star(k.entries, k.n)
        want = recurrence_labels(oracle)
        assert star.labels.tolist() == want
        if not star.finite:
            continue
        classes = [[x for x in range(k.n) if want[x] == root] for root in sorted(set(want))]
        for members in classes:
            pairing = self_pairing(oracle, k.basepoint, members)
            assert pairing == 0 and type(pairing) in (int, Fraction)
        assert [list(obj.members) for obj in martin_kernel(star)] == classes


@given(finite_kernels(max_n=5))
def test_recurrence_classes_are_a_partition(kernel):
    star = kleene_star(kernel)
    groups = recurrence_classes(star)
    seen = sorted(i for grp in groups for i in grp)
    assert seen == list(range(kernel.n))
    firsts = [grp[0] for grp in groups]
    assert firsts == sorted(firsts)


def test_martin_kernel_worked_example():
    star = kleene_star(TWO_STATE)
    objects = martin_kernel(star)
    assert [obj.column for obj in objects] == [(0, -1), (0, 1)]
    assert all(obj.harmonic and obj.minimal for obj in objects)
    assert [obj.members for obj in objects] == [(0,), (1,)]
    assert objects[0].representative == 0
    assert objects[1].representative == 1


def test_martin_objects_hash_by_members():
    star = kleene_star(TWO_STATE)
    first = martin_kernel(star)
    again = martin_kernel(kleene_star(TWO_STATE))
    assert first == again and first[0] is not again[0]
    assert [hash(obj) for obj in first] == [hash(obj) for obj in again]
    assert {first[0]: 1, first[1]: 2}[again[1]] == 2
    # the same class with another column is another object
    other = replace(first[0], column=(0, -2))
    assert other != first[0]
    assert {first[0]: 1}.get(other) is None


def test_martin_kernel_refuses_nonfinite_star():
    k = KernelMatrix(states=("a", "b"), entries=[[0, 0], [NEG_INF, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(k)
        unreachable = kleene_star(KernelMatrix(("a", "b"), [[0, NEG_INF], [-1, 0]]))
    with pytest.raises(AssumptionViolated):
        martin_kernel(star)
    # b is unreachable from the basepoint a, so its column K<., b> is undefined
    with pytest.raises(AssumptionViolated):
        represent({MartinObject((0, 0), 1, (1,), True): 0}, unreachable)


def _natural(star):
    """The basepoint-normalized kernel A*<b,x> + A*<x,y> - A*<b,y>, from the
    star's entries."""
    e, b, n = star.entries, star.basepoint, star.n
    return [[e[b][x] + e[x][y] - e[b][y] for y in range(n)] for x in range(n)]


def test_natural_kernel_worked_example():
    star = kleene_star(TWO_STATE)
    assert _natural(star) == [[0, 0], [-2, 0]]


@given(finite_kernels(max_n=5))
def test_natural_kernel_is_nonpositive_with_zero_basepoint_row(kernel):
    star = kleene_star(kernel)
    nat = _natural(star)
    for row in nat:
        for v in row:
            assert v <= 0
    assert all(v == 0 for v in nat[star.basepoint])


@given(st.integers(0, 2**32 - 1))
def test_martin_bounds_and_sandwich(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    star = kleene_star(kernel)
    e = star.entries
    b = star.basepoint
    objects = martin_kernel(star)
    for obj in objects:
        k = obj.column
        assert k[b] == 0
        for x in range(star.n):
            assert e[x][b] <= k[x] <= -e[b][x]
    for obj in objects:
        k = obj.column
        for x in range(star.n):
            for y in range(star.n):
                assert e[x][y] <= k[x] - k[y] <= -e[y][x]


@given(st.integers(0, 2**32 - 1))
def test_minimal_columns_are_harmonic_and_self_paired(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    star = kleene_star(kernel)
    minimal = minimal_martin_space(star)
    assert minimal, "a kernel with max cycle mean zero has a critical class"
    for w in minimal:
        assert is_harmonic(kernel, w.column)
        assert mu(w.column, w, star) == 0
    for u in minimal:
        for v in minimal:
            assert mu(v.column, u, star) <= 0


@given(float_kernels())
def test_normalized_float_kernel_has_a_harmonic_column(kernel):
    star = kleene_star(normalize(kernel, max_cycle_mean(kernel)))
    assert any(obj.harmonic for obj in martin_kernel(star))


@given(st.one_of(float_twins(), float_twins(sparse=True)))
def test_float_kernel_agrees_with_its_integer_twin(twins):
    kernel, twin, unit = twins
    try:
        exact = max_cycle_mean(twin)
    except NoCycle:
        with pytest.raises(NoCycle):
            max_cycle_mean(kernel)
        return
    lam = max_cycle_mean(kernel)
    assert abs(lam - exact * unit) <= kernel.tol
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(normalize(kernel, lam))
        exact_star = kleene_star(normalize(twin, exact))
    tol = star.source.tol
    for row, exact_row in zip(star.entries, exact_star.entries):
        assert all(v == e == NEG_INF or abs(v - e * unit) <= tol
                   for v, e in zip(row, exact_row))
    assert recurrence_classes(star) == recurrence_classes(exact_star)
    if not exact_star.finite:
        assert not star.finite
        with pytest.raises(AssumptionViolated):
            martin_kernel(star)
        return
    flags = [obj.harmonic for obj in martin_kernel(star)]
    assert flags == [obj.harmonic for obj in martin_kernel(exact_star)]


@given(float_kernels(max_exp=0))
def test_printed_martin_column_is_still_harmonic(kernel):
    # 12 printed digits move a column by up to ~1e-11 here, far above the
    # relative term n^2 max|a| 2^-52 of the tolerance: the floor absorbs it
    kn = normalize(kernel, max_cycle_mean(kernel))
    for obj in martin_kernel(kleene_star(kn)):
        back = [parse_value(format_value(v)) for v in obj.column]
        assert is_harmonic(kn, back) == obj.harmonic


@given(st.one_of(finite_kernels(), sparse_kernels(), float_kernels(), sparse_float_kernels()))
def test_harmonic_flags_match_per_column_check(kernel):
    # one product A K decides every flag; is_harmonic checks one column
    try:
        kn = normalize(kernel, max_cycle_mean(kernel))
    except NoCycle:
        return
    for k in (kernel, kn):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AssumptionViolatedWarning)
                objects = martin_kernel(kleene_star(k))
        except (AssumptionViolated, PositiveCycle):
            continue
        assert [obj.harmonic for obj in objects] == [
            is_harmonic(k, obj.column) for obj in objects
        ]


def test_mu_validates_length():
    star = kleene_star(TWO_STATE)
    obj = martin_kernel(star)[0]
    with pytest.raises(DimensionMismatch):
        mu([0], obj, star)


@given(st.integers(0, 2**32 - 1))
def test_representation_round_trip_is_exact(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    star = kleene_star(kernel)
    minimal = minimal_martin_space(star)
    weights = rng.integers(-5, 1, size=len(minimal))
    keep = rng.random(len(minimal)) < 0.8
    if not keep.any():
        keep[0] = True
    nu = {w: int(c) for w, c, k in zip(minimal, weights, keep) if k}
    h = represent(nu, star)
    assert is_harmonic(kernel, h)
    measure = spectral_measure(h, minimal, star)
    assert represent(measure, star) == h
    for w, c in nu.items():
        assert measure[w] >= c


def test_spectral_measure_requires_harmonic():
    star = kleene_star(TWO_STATE)
    minimal = minimal_martin_space(star)
    with pytest.raises(NotHarmonic):
        spectral_measure([0, -2], minimal, star)


def test_extremal_worked_example():
    star = kleene_star(TWO_STATE)
    minimal = minimal_martin_space(star)
    # max of the two columns: harmonic but not extreme
    h = [0, 0]
    assert extremal_witness(h, minimal, star) is None
    measure = spectral_measure(h, minimal, star)
    assert [measure[w] for w in minimal] == [0, -1]
    # each column is extreme, witnessed by its own class
    for w in minimal:
        assert extremal_witness(w.column, minimal, star) is w


def test_greatest_measure_may_charge_other_classes():
    # h equal to the class-b column has mu(a) = 0, not -inf, yet b still
    # witnesses extremality: concentration is not required
    star = kleene_star(TWO_STATE)
    minimal = minimal_martin_space(star)
    h = minimal[1].column
    measure = spectral_measure(h, minimal, star)
    assert measure[minimal[0]] == 0
    assert measure[minimal[1]] == 0
    assert is_extremal(h, minimal, star)
    assert represent(measure, star) == h


def test_extremal_validates_input():
    star = kleene_star(TWO_STATE)
    minimal = minimal_martin_space(star)
    with pytest.raises(NotHarmonic):
        extremal_witness([0, -2], minimal, star)
    with pytest.raises(NotNormalized):
        extremal_witness([1, 0], minimal, star)


@given(st.integers(0, 2**32 - 1))
def test_two_column_maxima_are_not_extremal(seed):
    rng = np.random.default_rng(seed)
    kernel = normalized_corpus_kernel(rng, max_n=5)
    star = kleene_star(kernel)
    minimal = minimal_martin_space(star)
    h = represent({w: 0 for w in minimal}, star)
    support = list(minimal)
    for w in list(support):
        trimmed = [u for u in support if u is not w]
        if trimmed and represent({u: 0 for u in trimmed}, star) == h:
            support = trimmed
    assert represent({u: 0 for u in support}, star) == h
    if len(support) < 2:
        return
    u = represent({w: 0 for w in support[:-1]}, star)
    v = represent({w: 0 for w in support[1:]}, star)
    assert u != h and v != h
    assert tuple(oplus(a, b) for a, b in zip(u, v)) == h
    assert not is_extremal(h, minimal, star)


def test_mu_and_H_worked_values():
    star = kleene_star(TWO_STATE)
    objects = martin_kernel(star)
    a, b = objects
    assert mu([0, 0], a, star) == 0
    assert mu([0, 0], b, star) == -1
    assert mu(b.column, a, star) == star.entries[0][0] + b.column[0]
    assert same(mu([NEG_INF, NEG_INF], a, star), NEG_INF)


def _times(kernel, unit):
    return KernelMatrix(kernel.states, [[v * unit for v in row] for row in kernel.entries])


corpus_kernels = st.integers(0, 2**32 - 1).map(
    lambda seed: normalized_corpus_kernel(np.random.default_rng(seed), max_n=5))

# normalized kernels of each kind, and the type of every value they yield;
# "huge" sums of four entries pass 2^53, so they run on Python ints
KINDS = {
    "int": (corpus_kernels, int),
    "huge": (corpus_kernels.map(lambda k: _times(k, 2**50 + 1)), int),
    "fraction": (fraction_kernels(max_n=5), Fraction),
    "float": (float_kernels(max_n=6).map(
        lambda k: normalize(k, max_cycle_mean(k))), float),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
def test_measures_and_witness_match_the_oracle(kind, data):
    kernels, vtype = KINDS[kind]
    kernel = data.draw(kernels)
    base = data.draw(st.integers(0, kernel.n - 1))
    kernel = KernelMatrix(kernel.states, kernel.entries, base)
    star = kleene_star(kernel)
    objects = martin_kernel(star)
    minimal = [obj for obj in objects if obj.harmonic]
    entries = [[as_raw(v) for v in row] for row in star.entries]
    b = star.basepoint
    # each column, and a combination of all of them with h(b) = 0
    weights = [0] + data.draw(st.lists(st.integers(-3, 0), min_size=len(minimal) - 1,
                                       max_size=len(minimal) - 1))
    functions = [w.column for w in minimal]
    functions.append(represent(dict(zip(minimal, weights)), star))
    for h in functions:
        if not is_harmonic(kernel, h):
            continue
        raw = [as_raw(v) for v in h]
        measure = spectral_measure(h, minimal, star)
        assert list(measure) == minimal
        assert [as_raw(v) for v in measure.values()] == [
            boundary_measure(entries, b, raw, w.members) for w in minimal
        ]
        assert all(type(v) is vtype for v in measure.values())
        want = extremal_class(entries, b, raw, [list(w.members) for w in minimal],
                              kernel.tol)
        witness = extremal_witness(h, minimal, star)
        assert witness is (None if want is None else minimal[want])
    # exact weights on other denominators than the star's: sup_w nu(w) + K(., w)
    if vtype is not float:
        fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(2, 7))
        nu = data.draw(st.lists(fractions, min_size=len(minimal), max_size=len(minimal)))
        reps = [w.representative for w in minimal]
        got = represent(dict(zip(minimal, nu)), star)
        assert [as_raw(v) for v in got] == [
            max(w + entries[x][y] - entries[b][y] for w, y in zip(nu, reps))
            for x in range(star.n)
        ]
        # float weights: each column entry is rounded once, after the exact
        # difference, even where star entries pass 2^53
        nu = data.draw(st.lists(st.integers(-80, 80).map(lambda m: m / 8),
                                min_size=len(minimal), max_size=len(minimal)))
        assert represent(dict(zip(minimal, nu)), star) == tuple(
            max(w + float(entries[x][y] - entries[b][y]) for w, y in zip(nu, reps))
            for x in range(star.n)
        )
    # mu takes any function of finite and -inf values
    values = st.one_of(st.integers(-9, 9), st.just(NEG_INF))
    if vtype is float:
        values = st.one_of(values, st.integers(-9000, 9000).map(lambda m: m / 1000))
    xi = data.draw(st.lists(values, min_size=star.n, max_size=star.n))
    for obj in objects:
        got = mu(xi, obj, star)
        assert as_raw(got) == boundary_measure(entries, b, [as_raw(v) for v in xi],
                                               obj.members)
        assert type(got) is (float if got == NEG_INF else vtype)
    # +inf is neither a function value nor a weight
    spot = data.draw(st.integers(0, star.n - 1))
    with pytest.raises(DimensionMismatch, match=r"functions may not take \+inf"):
        mu(xi[:spot] + [POS_INF] + xi[spot + 1 :], objects[0], star)
    with pytest.raises(DimensionMismatch, match=r"measure weights may not be \+inf"):
        represent(dict(zip(minimal, [POS_INF] + weights[1:])), star)
