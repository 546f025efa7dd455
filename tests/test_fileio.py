import json
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import finite_kernels, float_kernels, labels, sparse_kernels
from maxplus_martin import (
    DimensionMismatch,
    KernelMatrix,
    NEG_INF,
    POS_INF,
    downhill_path,
    extremal_witness,
    geodesic_limit,
    is_harmonic,
    kleene_star,
    martin_kernel,
    max_cycle_mean,
    normalize,
    spectral_measure,
)
from maxplus_martin.semiring import format_value, parse_value
from maxplus_martin.fileio import (
    canonical_json,
    function_to_dict,
    kernel_from_dict,
    kernel_to_dict,
    load_function,
    load_kernel,
    load_kernel_csv,
    load_kernel_json,
    save_kernel_csv,
    save_kernel_json,
    value_from_json,
    value_to_json,
)

SAMPLE = KernelMatrix(
    states=("a", "b", "c"),
    entries=[[0, -1, NEG_INF], [-1, 0, -7], [NEG_INF, -2, 0]],
    basepoint=1,
)


def test_value_conversions():
    assert value_to_json(NEG_INF) == "-inf"
    assert value_to_json(POS_INF) == "+inf"
    assert value_to_json(3) == 3
    assert value_to_json(Fraction(4, 2)) == 2
    assert value_to_json(Fraction(1, 2)) == 0.5
    assert value_to_json(1.25) == 1.25
    assert value_from_json("-inf") is NEG_INF
    assert value_from_json(3) == 3 and isinstance(value_from_json(3), int)
    with pytest.raises(DimensionMismatch):
        value_from_json(True)
    with pytest.raises(DimensionMismatch):
        value_from_json([1])


def test_format_float():
    # Floats in kernel and function files are written by format_value.
    assert format_value(3.0) == "3"
    assert format_value(-0.5) == "-0.5"
    assert format_value(1 / 3) == "0.333333333333"
    assert format_value(float("inf")) == "inf"
    assert format_value(float("-inf")) == "-inf"
    assert format_value(float("nan")) == "nan"
    assert format_value(1e16) == "1e+16"


def test_canonical_json_is_stable_and_readable():
    payload = {"b": 1 / 3, "a": [1, 2.0, float("inf")], "c": Fraction(1, 4)}
    text = canonical_json(payload)
    assert text == canonical_json(payload)
    data = json.loads(text)
    assert list(data) == ["b", "a", "c"], "insertion order is preserved"
    assert data["a"][2] == "inf"
    assert data["b"] == 0.333333333333
    assert data["c"] == 0.25
    assert text.endswith("\n")
    assert canonical_json({"v": 1e13}) == '{\n  "v": 10000000000000\n}\n'
    assert canonical_json([float("nan"), float("inf"), float("-inf"), 2.0]) == (
        '[\n  "nan",\n  "inf",\n  "-inf",\n  2\n]\n'
    )


def test_kernel_json_round_trip(tmp_path):
    path = tmp_path / "k.json"
    save_kernel_json(SAMPLE, str(path))
    back = load_kernel_json(str(path))
    assert back == SAMPLE
    assert back.entries[0][2] is NEG_INF
    assert back.basepoint == 1


def test_kernel_dict_validation():
    with pytest.raises(DimensionMismatch):
        kernel_from_dict({"states": ["a"]})
    with pytest.raises(DimensionMismatch):
        kernel_from_dict({"states": ["a"], "matrix": [[0]], "basepoint": "zz"})
    d = kernel_to_dict(SAMPLE)
    assert d["basepoint"] == "b"
    assert d["matrix"][0][2] == "-inf"
    no_base = {"states": ["a", "b"], "matrix": [[0, 0], [0, 0]]}
    assert kernel_from_dict(no_base).basepoint == 0


def test_kernel_csv_round_trip(tmp_path):
    path = tmp_path / "k.csv"
    save_kernel_csv(SAMPLE, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == ",a,b,c"
    assert "-inf" in text
    back = load_kernel_csv(str(path))
    assert back.states == SAMPLE.states
    assert back.entries == SAMPLE.entries
    assert back.basepoint == 0, "CSV kernels default to the first state"
    mixed = KernelMatrix(
        states=("a", "b", "c"),
        entries=[
            [7, Fraction(1, 2), Fraction(6, 3)],
            [-0.125, NEG_INF, 2.0],
            [0, 1e13, -3],
        ],
    )
    save_kernel_csv(mixed, str(path))
    assert path.read_text() == (
        ",a,b,c\na,7,0.5,2\nb,-0.125,-inf,2\nc,0,10000000000000,-3\n"
    )
    back = load_kernel_csv(str(path))
    assert back.entries == ((7, 0.5, 2), (-0.125, NEG_INF, 2), (0, 10**13, -3))
    assert back.entries[1][1] is NEG_INF
    assert all(isinstance(v, int) for v in (back.entries[0][2], back.entries[2][1]))


def test_kernel_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",a,b\nb,0,0\na,0,0\n")
    with pytest.raises(DimensionMismatch):
        load_kernel_csv(str(path))
    path.write_text(",a,b\n")
    with pytest.raises(DimensionMismatch):
        load_kernel_csv(str(path))


def test_load_kernel_dispatches_on_extension(tmp_path):
    jpath = tmp_path / "k.json"
    cpath = tmp_path / "k.csv"
    save_kernel_json(SAMPLE, str(jpath))
    save_kernel_csv(SAMPLE, str(cpath))
    assert load_kernel(str(jpath)).entries == SAMPLE.entries
    assert load_kernel(str(cpath)).entries == SAMPLE.entries


def test_function_files(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"a": 0, "b": "-inf", "c": 1.5}))
    values = load_function(str(path), SAMPLE)
    assert values == [0, NEG_INF, 1.5]
    path.write_text(json.dumps({"a": 0, "b": 0}))
    with pytest.raises(DimensionMismatch, match="missing"):
        load_function(str(path), SAMPLE)
    path.write_text(json.dumps({"a": 0, "b": 0, "c": 0, "zz": 0}))
    with pytest.raises(DimensionMismatch, match="unknown"):
        load_function(str(path), SAMPLE)
    path.write_text(json.dumps([0, 1, 2]))
    with pytest.raises(DimensionMismatch):
        load_function(str(path), SAMPLE)


def test_function_to_dict():
    d = function_to_dict(SAMPLE, [0, NEG_INF, Fraction(1, 2)])
    assert d == {"a": 0, "b": "-inf", "c": 0.5}
    with pytest.raises(DimensionMismatch):
        function_to_dict(SAMPLE, [0])


def test_shipped_sample_kernel_loads():
    import os

    here = os.path.dirname(__file__)
    sample = os.path.join(here, "..", "data", "two_state.json")
    kernel = load_kernel(sample)
    assert kernel.states == ("a", "b")
    assert kernel.entries == ((0, -1), (-1, 0))


def test_integer_entries_survive_json_bit_exactly(tmp_path):
    big = 10**15 + 7
    kernel = KernelMatrix(states=("a",), entries=[[big]])
    path = tmp_path / "big.json"
    save_kernel_json(kernel, str(path))
    back = load_kernel_json(str(path))
    assert back.entries[0][0] == big
    assert isinstance(back.entries[0][0], int)


@st.composite
def mixed_kernels(draw, max_n: int = 5):
    """Kernels whose entries mix ints, 3-decimal floats and -inf; the ints
    reach past the floats, which alone set the kernel's tol."""
    n = draw(st.integers(1, max_n))
    value = st.one_of(st.integers(-99, 30), st.integers(-9000, 3000).map(lambda m: m / 1000),
                      st.just(NEG_INF))
    rows = [[draw(value) for _ in range(n)] for _ in range(n)]
    return KernelMatrix(states=labels(n), entries=rows)


# spellings of -inf that every kernel file accepts
NEG_JSON = ["-inf", "-INF", " -inf", float("-inf"), "-Infinity"]
NEG_CSV = ["-inf", "-INF", "-Infinity", " -inf "]


def _tokens(kernel, spell, csv):
    def token(v):
        if v is NEG_INF:
            return spell
        return repr(v) if csv else v

    return [[token(v) for v in row] for row in kernel.entries]


def _same_kernel(loaded, want):
    assert "entries" not in loaded.__dict__
    assert loaded.scaled.q == want.scaled.q and loaded.scaled.kind is want.scaled.kind
    assert loaded.scaled.array.dtype == want.scaled.array.dtype
    assert loaded.scaled.array.tolist() == want.scaled.array.tolist()
    assert loaded.tol == want.tol
    assert loaded.entries == want.entries
    for row, want_row in zip(loaded.entries, want.entries):
        assert [type(v) for v in row] == [type(v) for v in want_row]
        assert [v is NEG_INF for v in row] == [v is NEG_INF for v in want_row]
    assert loaded == want and loaded.basepoint == want.basepoint


huge_kernels = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-(2**60), 2**60), st.just(NEG_INF)), min_size=n,
             max_size=n), min_size=n, max_size=n)).map(
    lambda rows: KernelMatrix(labels(len(rows)), rows))


@given(st.one_of(finite_kernels(), sparse_kernels(), float_kernels(), mixed_kernels(),
                 huge_kernels), st.data())
def test_loaded_kernel_equals_the_constructed_one(kernel, data):
    # the one-pass loader against the constructor fed token by token
    with tempfile.TemporaryDirectory() as tmp:
        spell = data.draw(st.sampled_from(NEG_JSON))
        tokens = _tokens(kernel, spell, csv=False)
        path = os.path.join(tmp, "k.json")
        with open(path, "w") as fh:
            json.dump({"states": list(kernel.states), "matrix": tokens,
                       "basepoint": kernel.states[-1]}, fh)
        want = KernelMatrix(kernel.states, [[value_from_json(t) for t in row]
                                            for row in tokens], kernel.n - 1)
        _same_kernel(load_kernel(path), want)

        spell = data.draw(st.sampled_from(NEG_CSV))
        tokens = _tokens(kernel, spell, csv=True)
        path = os.path.join(tmp, "k.csv")
        with open(path, "w") as fh:
            fh.write("," + ",".join(kernel.states) + "\n")
            for label, row in zip(kernel.states, tokens):
                fh.write(",".join([label] + row) + "\n")
        want = KernelMatrix(kernel.states, [[parse_value(t.strip()) for t in row]
                                            for row in tokens])
        _same_kernel(load_kernel(path), want)


def test_ints_past_the_float_range_load_exactly(tmp_path):
    path = tmp_path / "k.json"
    big = -(10**400)
    path.write_text(json.dumps({"states": ["a", "b"], "matrix": [[0, big], ["-inf", -1]]}))
    kernel = load_kernel(str(path))
    assert kernel.scaled.array.dtype == object and kernel.scaled.kind is int
    assert kernel.entries == ((0, big), (NEG_INF, -1))
    assert kernel.tol == KernelMatrix(kernel.states, kernel.entries).tol


def test_ints_past_the_float_range_never_meet_a_float():
    message = "int entry too large for a float kernel"
    big = -(10**400)
    mixed = KernelMatrix(("a", "b"), [[0.5, big], [-1, 0]])
    with pytest.raises(DimensionMismatch, match=message):
        mixed.scaled
    kernel = KernelMatrix(("a", "b"), [[0, big], [NEG_INF, -1]])
    with pytest.raises(DimensionMismatch, match=message):
        normalize(kernel, 0.5)
    with pytest.raises(DimensionMismatch, match=message):
        is_harmonic(kernel, [0.0, -1.0])


MALFORMED = [
    ("null.json", '{"states":["a","b"],"matrix":[[0,null],[0,0]]}',
     DimensionMismatch, "not a kernel value: None"),
    ("true.json", '{"states":["a","b"],"matrix":[[0,true],[0,0]]}',
     DimensionMismatch, "not a kernel value: True"),
    ("list.json", '{"states":["a","b"],"matrix":[[0,[1]],[0,0]]}',
     DimensionMismatch, "not a kernel value: [1]"),
    ("nan.json", '{"states":["a","b"],"matrix":[[0,NaN],[0,0]]}',
     ValueError, "NaN is not a max-plus value"),
    ("nan_text.json", '{"states":["a","b"],"matrix":[[0,"nan"],[0,0]]}',
     DimensionMismatch, "NaN is not a max-plus value"),
    ("infinity.json", '{"states":["a","b"],"matrix":[[0,Infinity],[0,0]]}',
     DimensionMismatch, "kernel entries may not be +inf"),
    ("plus_inf.json", '{"states":["a","b"],"matrix":[[0,"+inf"],[0,0]]}',
     DimensionMismatch, "kernel entries may not be +inf"),
    ("half.json", '{"states":["a","b"],"matrix":[[0,"1/2"],[0,0]]}',
     ValueError, "not a max-plus value: '1/2'"),
    ("e400.json", '{"states":["a","b"],"matrix":[[0,1e400],[0,0]]}',
     DimensionMismatch, "kernel entries may not be +inf"),
    ("ragged.json", '{"states":["a","b"],"matrix":[[0,1],[0]]}',
     DimensionMismatch, "entries must form a 2x2 grid"),
    ("duplicate.json", '{"states":["a","a"],"matrix":[[0,1],[0,0]]}',
     DimensionMismatch, "state labels must be unique"),
    ("matrix_int.json", '{"states":["a"],"matrix":5}',
     DimensionMismatch, "kernel file 'matrix' must be a list of rows"),
    ("matrix_row_int.json", '{"states":["a"],"matrix":[5]}',
     DimensionMismatch, "kernel file 'matrix' must be a list of rows"),
    ("states_text.json", '{"states":"ab","matrix":[[0,0],[0,0]]}',
     DimensionMismatch, "kernel file 'states' must be a list of labels"),
    ("empty.json", '{"states":[],"matrix":[]}',
     DimensionMismatch, "kernel needs at least one state"),
    ("no_matrix.json", '{"states":["a"]}',
     DimensionMismatch, "kernel file needs 'states' and 'matrix'"),
    ("basepoint.json", '{"states":["a","b"],"matrix":[[0,0],[0,0]],"basepoint":"z"}',
     DimensionMismatch, "basepoint 'z' is not a state"),
    # the first bad token wins; NaN and +inf read from text wait for the
    # basepoint, and +inf for the shape, as in the constructor
    ("nan_text_then_true.json", '{"states":["a","b"],"matrix":[[0,"nan"],[true,0]]}',
     DimensionMismatch, "not a kernel value: True"),
    ("nan_text_basepoint.json",
     '{"states":["a","b"],"matrix":[[0,"nan"],[0,0]],"basepoint":"z"}',
     DimensionMismatch, "basepoint 'z' is not a state"),
    ("nan_text_ragged.json", '{"states":["a","b"],"matrix":[[0,"nan"],[0]]}',
     DimensionMismatch, "NaN is not a max-plus value"),
    ("plus_inf_ragged.json", '{"states":["a","b"],"matrix":[[0,"+inf"],[0]]}',
     DimensionMismatch, "entries must form a 2x2 grid"),
    ("x.csv", ",a,b\na,0,x\nb,0,0\n", ValueError, "not a max-plus value: 'x'"),
    ("nan.csv", ",a,b\na,0,nan\nb,0,0\n", DimensionMismatch, "NaN is not a max-plus value"),
    ("short.csv", ",a,b\na,0\nb,0,0\n", DimensionMismatch, "entries must form a 2x2 grid"),
    ("labels.csv", ",a,b\nb,0,0\na,0,0\n",
     DimensionMismatch, "row labels must match the header order"),
    ("x_labels.csv", ",a,b\nb,0,x\na,0,0\n", ValueError, "not a max-plus value: 'x'"),
    ("header.csv", ",a,b\n", DimensionMismatch, "kernel CSV needs a header and data rows"),
    # a float puts every entry in a float array, where no int past the
    # float range fits
    ("huge_float.json", '{"states":["a","b"],"matrix":[[0.5,-1' + "0" * 400 + '],[-1,0]]}',
     DimensionMismatch, "int entry too large for a float kernel"),
    ("huge_float.csv", ",a,b\na,0.5,-1" + "0" * 400 + "\nb,-1,0\n",
     DimensionMismatch, "int entry too large for a float kernel"),
]


@pytest.mark.parametrize("name,text,error,message", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_kernel_files(tmp_path, name, text, error, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(error) as info:
        load_kernel(str(path))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("name,text", [
    ("neg.json", '{"states":["a","b"],"matrix":[[0,-Infinity],[-1,"-INF"]]}'),
    ("neg.csv", ",a,b\na,0,-Infinity\nb,-1,-INF\n"),
])
def test_spellings_of_minus_infinity(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    kernel = load_kernel(str(path))
    assert kernel.entries == ((0, NEG_INF), (-1, NEG_INF))
    assert kernel.entries[0][1] is NEG_INF and kernel.entries[1][1] is NEG_INF
    assert kernel.scaled.kind is int


@pytest.mark.parametrize("name,text", [
    # lambda = 1/2, so every array after normalize is Fraction-valued
    ("k.json", '{"states":["a","b","c"],"matrix":[[-3,1,"-inf"],[0,-2,-1],[-1,-4,-2]]}'),
    ("k.csv", ",a,b,c\na,-0.5,1.25,-inf\nb,0,-2,-1\nc,-1,-4,-2\n"),
])
def test_pipeline_never_builds_entries(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    kernel = load_kernel(str(path))
    normalized = normalize(kernel, max_cycle_mean(kernel))
    star = kleene_star(normalized)
    minimal = [obj for obj in martin_kernel(star) if obj.harmonic]
    h = minimal[0].column
    spectral_measure(h, minimal, star)
    extremal_witness(h, minimal, star)
    path = downhill_path(normalized, h, 0, 1e-3, 8)
    geodesic_limit(path, star, 1e-3)
    for obj in (kernel, normalized, star):
        assert "entries" not in obj.__dict__
