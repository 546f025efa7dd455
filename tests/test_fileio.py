import json
from fractions import Fraction

import pytest

from maxplus_martin import DimensionMismatch, KernelMatrix, NEG_INF, POS_INF
from maxplus_martin.semiring import format_value
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
