import csv
import json
import os
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    finite_kernels,
    float_kernels,
    labels,
    same,
    sparse_float_kernels,
    sparse_kernels,
)
from oracles import canonical_json_text, kernel_csv_text, parse_token
from test_semiring import TOKENS
from maxplus_martin import (
    DimensionMismatch,
    KernelMatrix,
    MaxPlusError,
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
from maxplus_martin.errors import AssumptionViolatedWarning
from maxplus_martin.semiring import format_value, parse_value
from maxplus_martin.fileio import (
    canonical_json,
    function_to_dict,
    kernel_from_dict,
    load_function,
    load_kernel,
    load_kernel_csv,
    load_kernel_json,
    value_from_json,
    value_to_json,
)

SAMPLE = KernelMatrix(
    states=("a", "b", "c"),
    entries=[[0, -1, NEG_INF], [-1, 0, -7], [NEG_INF, -2, 0]],
    basepoint=1,
)
# SAMPLE as a kernel file's JSON, and its rows as CSV text
SAMPLE_DICT = {
    "states": ["a", "b", "c"],
    "matrix": [[0, -1, "-inf"], [-1, 0, -7], ["-inf", -2, 0]],
    "basepoint": "b",
}
SAMPLE_CSV = kernel_csv_text(SAMPLE.states, SAMPLE.entries)


def test_value_conversions():
    assert value_to_json(NEG_INF) == "-inf"
    assert value_to_json(POS_INF) == "+inf"
    assert value_to_json(3) == 3
    assert value_to_json(Fraction(4, 2)) == 2
    assert value_to_json(Fraction(1, 2)) == 0.5
    assert value_to_json(1.25) == 1.25
    assert value_to_json(Fraction(10**400 + 1, 3)) == "3.33333333333e+399"
    assert value_to_json(Fraction(1, 10**400)) == "1e-400"
    assert value_to_json(Fraction(-7, 10**320)) == "-7e-320"
    assert same(value_from_json("-inf"), NEG_INF)
    assert value_from_json(3) == 3 and isinstance(value_from_json(3), int)
    with pytest.raises(ValueError, match="NaN is not a max-plus value"):
        value_from_json("nan")
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
    path.write_text(json.dumps(SAMPLE_DICT))
    back = load_kernel_json(str(path))
    assert back == SAMPLE
    assert same(back.entries[0][2], NEG_INF)
    assert back.basepoint == 1


def test_kernel_dict_validation():
    with pytest.raises(DimensionMismatch):
        kernel_from_dict({"states": ["a"]})
    with pytest.raises(DimensionMismatch):
        kernel_from_dict({"states": ["a"], "matrix": [[0]], "basepoint": "zz"})
    back = kernel_from_dict(SAMPLE_DICT)
    assert back == SAMPLE and back.basepoint == 1
    assert same(back.entries[0][2], NEG_INF)
    no_base = {"states": ["a", "b"], "matrix": [[0, 0], [0, 0]]}
    assert kernel_from_dict(no_base).basepoint == 0


def test_kernel_csv_round_trip(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text(SAMPLE_CSV)
    back = load_kernel_csv(str(path))
    assert back.states == SAMPLE.states
    assert back.entries == SAMPLE.entries
    assert back.basepoint == 0, "CSV kernels default to the first state"
    path.write_text(",a,b,c\na,7,0.5,2\nb,-0.125,-inf,2\nc,0,10000000000000,-3\n")
    back = load_kernel_csv(str(path))
    assert back.entries == ((7, 0.5, 2), (-0.125, NEG_INF, 2), (0, 10**13, -3))
    assert same(back.entries[1][1], NEG_INF)
    assert all(isinstance(v, int) for v in (back.entries[0][2], back.entries[2][1]))


def test_kernel_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",a,b\nb,0,0\na,0,0\n")
    with pytest.raises(DimensionMismatch):
        load_kernel_csv(str(path))
    path.write_text(",a,b\n")
    with pytest.raises(DimensionMismatch):
        load_kernel_csv(str(path))


def _csv_cell(token: str) -> str:
    """token as one CSV cell, quoted when it holds a separator, a quote or
    a line end."""
    if any(c in token for c in ',"\r\n'):
        return '"' + token.replace('"', '""') + '"'
    return token


@pytest.mark.parametrize("cell", [_csv_cell(t) for t in TOKENS] + ['"1"', "-inf"])
def test_csv_cells_read_as_the_oracle_reads_them(tmp_path, cell):
    # the value and type parse_token gives the cell's stripped text, or the
    # loader's error for it: its message, the kernel's NaN and +inf checks
    path = tmp_path / "k.csv"
    path.write_text(f",a,b\na,0,{cell}\nb,0,0\n", encoding="utf-8")
    text = next(csv.reader([cell]))[0].strip() if cell else ""
    try:
        want = parse_token(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            load_kernel_csv(str(path))
        assert type(info.value) is ValueError and str(info.value) == str(exc)
        return
    want = {"-inf": NEG_INF, "+inf": POS_INF}.get(want, want)
    if want == POS_INF or want != want:
        with pytest.raises(DimensionMismatch) as info:
            load_kernel_csv(str(path))
        assert str(info.value) == (
            "NaN is not a max-plus value" if want != want else "kernel entries may not be +inf")
        return
    assert same(load_kernel_csv(str(path)).entries[0][1], want)


CSV_BYTES = b",a,b\na,0,-1\nb,-2.5,0\n"


@pytest.mark.parametrize("data", [
    CSV_BYTES.replace(b"\n", b"\r\n"),
    CSV_BYTES.replace(b"\n", b"\r"),
    CSV_BYTES.rstrip(b"\n"),
    b"\n\n" + CSV_BYTES.replace(b"\n", b"\n \n,,\n"),
    b"\xef\xbb\xbf" + CSV_BYTES,
    b"\xef\xbb\xbf" + CSV_BYTES.replace(b"\n", b"\r\n"),
], ids=["crlf", "cr", "no-final-newline", "blank-lines", "bom", "bom-crlf"])
def test_csv_line_ends_blank_lines_and_bom(tmp_path, data):
    # every newline spelling, blank rows and a UTF-8 byte order mark (kept in
    # the ignored corner cell) give the kernel of the plain file
    path = tmp_path / "k.csv"
    path.write_bytes(data)
    kernel = load_kernel_csv(str(path))
    assert kernel.states == ("a", "b")
    assert kernel.entries == ((0, -1), (-2.5, 0))
    assert [type(v) for row in kernel.entries for v in row] == [int, int, float, int]


@pytest.mark.parametrize("data,message", [
    (CSV_BYTES[:8] + b"\xff" + CSV_BYTES[8:],
     "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
    (b"\xc3", "'utf-8' codec can't decode byte 0xc3 in position 0: unexpected end of data"),
])
def test_csv_invalid_utf8_is_one_error(tmp_path, data, message):
    path = tmp_path / "k.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as info:
        load_kernel_csv(str(path))
    assert str(info.value) == message


def test_load_kernel_dispatches_on_extension(tmp_path):
    jpath = tmp_path / "k.json"
    cpath = tmp_path / "k.csv"
    jpath.write_text(json.dumps(SAMPLE_DICT))
    cpath.write_text(SAMPLE_CSV)
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
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"states": ["a"], "matrix": [[big]]}))
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
        if same(v, NEG_INF):
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
        assert [same(v, NEG_INF) for v in row] == [same(v, NEG_INF) for v in want_row]
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
            fh.write(kernel_csv_text(kernel.states, tokens))
        want = KernelMatrix(kernel.states, [[parse_value(t.strip()) for t in row]
                                            for row in tokens])
        _same_kernel(load_kernel(path), want)


def _pipeline(kernel):
    """lambda, the normalized star's entries and the Martin columns, as far
    as the pipeline gets, then the type of the error that ends it."""
    out = []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssumptionViolatedWarning)
            out.append(max_cycle_mean(kernel))
            star = kleene_star(normalize(kernel, out[0]))
            out.append(star.entries)
            out.append([obj.column for obj in martin_kernel(star)])
    except MaxPlusError as exc:
        out.append(type(exc))
    return out


@given(st.one_of(sparse_kernels(), sparse_float_kernels(max_n=5, max_exp=3)))
def test_minus_infinity_keeps_the_kind_of_the_finite_entries(kernel):
    # -inf as a float in the constructor, as JSON's -Infinity and as CSV
    # text, against the kernel read with "-inf" in JSON
    finite = {type(v) for row in kernel.entries for v in row if v != NEG_INF}
    kind = float if float in finite else int
    with tempfile.TemporaryDirectory() as tmp:
        def load(spell, csv):
            tokens = _tokens(kernel, spell, csv)
            path = os.path.join(tmp, "k.csv" if csv else "k.json")
            with open(path, "w") as fh:
                if csv:
                    fh.write(kernel_csv_text(kernel.states, tokens))
                else:
                    json.dump({"states": list(kernel.states), "matrix": tokens}, fh)
            return load_kernel(path)

        want = load("-inf", csv=False)
        # fresh float objects: no identity test against NEG_INF holds for them
        built = [[float("-inf") if v == NEG_INF else v for v in row] for row in kernel.entries]
        spelled = [KernelMatrix(kernel.states, built), load(float("-inf"), csv=False),
                   load("-inf", csv=True)]
        for got in [want, *spelled]:
            assert got.scaled.kind is kind
            assert repr(_pipeline(got)) == repr(_pipeline(want))


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
    assert same(kernel.entries[0][1], NEG_INF) and same(kernel.entries[1][1], NEG_INF)
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


json_leaves = st.one_of(
    st.integers(),
    st.integers(-10**60, 10**60),
    st.booleans(),
    st.none(),
    st.floats(),
    st.floats(-1e20, 1e20).map(np.float64),
    st.sampled_from([0.5, 1e15, 1e16, -0.0, 123456789012.5, 1e-5, 2.0**53]),
    st.fractions(max_denominator=10**6),
    st.sampled_from([NEG_INF, POS_INF]),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
)
json_keys = st.one_of(st.text(), st.integers(-5, 5), st.floats(-2, 2),
                      st.booleans(), st.none(), st.sampled_from(["1", "True", "None"]))
json_payloads = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_keys, inner, max_size=4),
    ),
    max_leaves=20,
)


@given(json_payloads)
def test_canonical_json_matches_the_two_pass_oracle(payload):
    assert canonical_json(payload) == canonical_json_text(payload)


def test_canonical_json_corner_cases_match_the_oracle():
    payloads = [
        {}, [], (), {"a": {}, "b": [], "c": ()},
        {1: "int key", "1": "str key", 1.5: [None, True, False]},
        {"é \x00": "ü\x1f\"\\"},
        [10**40, -(10**40), Fraction(7, 1), Fraction(-1, 3), NEG_INF, POS_INF],
        [np.float64(2.5), np.float64("nan"), np.float64("-inf"), 1e300, -1e-300],
    ]
    for payload in payloads:
        assert canonical_json(payload) == canonical_json_text(payload)
    with pytest.raises(TypeError, match="not JSON encodable"):
        canonical_json({"a": [object()]})
