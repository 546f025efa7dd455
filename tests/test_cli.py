import contextlib
import io
import json
import os
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import run_capped
from oracles import as_raw, brute_star

from maxplus_martin import NEG_INF, POS_INF, kleene_star, normalize, parse_value
from maxplus_martin.cli import main
from maxplus_martin.errors import AssumptionViolatedWarning
from maxplus_martin.fileio import load_kernel

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "data")
TWO_STATE = os.path.join(DATA, "two_state.json")
RING = os.path.join(DATA, "ring.csv")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_star_happy_path(capsys):
    code, out, err = run(capsys, "star", TWO_STATE)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert list(data) == ["states", "basepoint", "lambda", "finite", "star"]
    assert data["star"] == [[0, -1], [-1, 0]]
    assert data["finite"] is True


def test_output_is_deterministic(capsys):
    one = run(capsys, "martin", TWO_STATE)
    two = run(capsys, "martin", TWO_STATE)
    assert one == two


def test_out_flag_writes_a_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "star", TWO_STATE, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["finite"] is True


def test_eigenvalue_reports_exact_fractions(capsys, tmp_path):
    half = tmp_path / "half.json"
    half.write_text(json.dumps({
        "states": ["a", "b"],
        "matrix": [["-inf", 0], [1, "-inf"]],
    }))
    code, out, _ = run(capsys, "eigenvalue", str(half))
    assert code == 0
    data = json.loads(out)
    assert data["max_cycle_mean"] == 0.5
    assert data["exact"] == "1/2"


def test_lam_auto_normalizes_before_the_star(capsys, tmp_path):
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps({
        "states": ["a", "b"],
        "matrix": [[-2, -3], [-3, -2]],
    }))
    code, out, _ = run(capsys, "star", str(shifted), "--lam", "auto")
    data = json.loads(out)
    assert code == 0
    assert data["lambda"] == -2
    assert data["star"] == [[0, -1], [-1, 0]]
    code, out, _ = run(capsys, "classes", str(shifted), "--lam", "-2")
    assert code == 0
    assert json.loads(out)["classes"] == [["a"], ["b"]]


def test_ring_is_one_class(capsys):
    code, out, _ = run(capsys, "classes", RING)
    assert code == 0
    assert json.loads(out)["classes"] == [["a", "b", "c"]]


def test_martin_and_harmonic_check(capsys, tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"a": 0, "b": 0}))
    code, out, _ = run(capsys, "harmonic-check", TWO_STATE, str(h))
    assert code == 0
    assert json.loads(out) == {
        "lambda": None, "harmonic": True, "superharmonic": True,
    }
    h.write_text(json.dumps({"a": 0, "b": -2}))
    code, out, _ = run(capsys, "harmonic-check", TWO_STATE, str(h))
    assert json.loads(out)["harmonic"] is False


def test_represent_round_trip(capsys, tmp_path):
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"a": 0, "b": -1}))
    code, out, _ = run(capsys, "represent", TWO_STATE, str(nu))
    assert code == 0
    data = json.loads(out)
    assert data["function"] == {"a": 0, "b": 0}
    assert data["harmonic"] is True
    back = tmp_path / "h.json"
    back.write_text(json.dumps(data["function"]))
    code, out, _ = run(capsys, "extremal", TWO_STATE, str(back))
    assert json.loads(out)["spectral_measure"] == {"a": 0, "b": -1}


def test_extremal_command(capsys, tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"a": 0, "b": 0}))
    code, out, _ = run(capsys, "extremal", TWO_STATE, str(h))
    assert code == 0
    data = json.loads(out)
    assert data["extremal"] is False and data["witness"] is None
    assert data["spectral_measure"] == {"a": 0, "b": -1}
    h.write_text(json.dumps({"a": 0, "b": -2}))
    code, _, err = run(capsys, "extremal", TWO_STATE, str(h))
    assert code == 2 and "harmonic" in err


def test_downhill_command(capsys, tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"a": 0, "b": -1}))
    code, out, _ = run(capsys, "downhill", TWO_STATE, str(h),
                       "--start", "b", "--length", "4")
    assert code == 0
    data = json.loads(out)
    assert data["states"] == ["b", "a", "a", "a", "a"]
    assert data["limit_representative"] == "a"
    assert data["almost_geodesic"] is True and data["almost_optimal"] is True
    code, _, err = run(capsys, "downhill", TWO_STATE, str(h), "--start", "zz")
    assert code == 1 and "unknown state" in err


def test_validation_and_assumption_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "star", str(tmp_path / "missing.json"))
    assert code == 1 and err.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "star", str(bad))
    assert code == 1
    pos = tmp_path / "pos.json"
    pos.write_text(json.dumps({"states": ["a"], "matrix": [[1]]}))
    code, _, err = run(capsys, "star", str(pos))
    assert code == 2 and "positive" in err
    code, _, err = run(capsys, "lq-star", "--x", "1,0", "--y", "1")
    assert code == 1 and "dimension" in err


def test_star_warns_on_nonfinite_star(capsys, tmp_path):
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps({
        "states": ["a", "b"],
        "matrix": [[0, 0], ["-inf", 0]],
    }))
    hook = warnings.showwarning
    code, out, err = run(capsys, "star", str(gap))
    assert code == 0
    assert json.loads(out)["finite"] is False
    assert "warning:" in err
    assert warnings.showwarning is hook, "main() restores the warning hook"
    code, _, err = run(capsys, "martin", str(gap))
    assert code == 2


def test_lq_star_worked_value(capsys):
    code, out, _ = run(capsys, "lq-star", "--x", "1,0", "--y", "2,0")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == -3
    assert abs(data["optimal_horizon"] - 0.6931471805599453) < 1e-10
    code, out, _ = run(capsys, "lq-star", "--x", "1,0", "--y=-2,0")
    assert json.loads(out)["optimal_horizon"] == "inf"


def test_lq_horofunction_normalizes_directions(capsys):
    code, out, err = run(capsys, "lq-horofunction", "--x", "0,2", "--n", "0,1")
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == 4
    code, out, err = run(capsys, "lq-horofunction", "--x", "0,2", "--n", "0,5")
    assert code == 0
    assert "normalizing direction" in err
    assert json.loads(out)["value"] == 4


def test_lq_verify_command(capsys):
    code, out, _ = run(
        capsys, "lq-verify", "--target", "stable", "--t", "0.5",
        "--probes", "3", "--half-width", "4", "--spacing", "0.02",
        "--per-probe",
    )
    assert code == 0
    data = json.loads(out)
    assert data["harmonic"] is True
    assert data["max_residual"] < 1e-3
    assert len(data["per_time"][0]["reports"]) == 3
    code, _, err = run(
        capsys, "lq-verify", "--target", "unstable", "--t", "2",
        "--probes", "2", "--radius", "1.5",
    )
    assert code == 1 and "grid" in err.lower() or "window" in err.lower()
    code, _, err = run(capsys, "lq-verify", "--target", "horofunction")
    assert code == 1 and "--n" in err


def test_lq_flow_command(capsys):
    code, out, _ = run(
        capsys, "lq-flow", "--h", "stable", "--x0", "1,0",
        "--duration", "0.2", "--step", "0.02",
    )
    assert code == 0
    data = json.loads(out)
    assert data["slack"] < 1e-9
    assert len(data["points"]) == 11
    final = np.array(data["points"][-1])
    assert np.allclose(final, [np.exp(-0.4), 0.0], atol=1e-6)


def test_lq_horosphere_writes_default_figures(capsys, tmp_path):
    code, out, err = run(capsys, "lq-horosphere", "--out-dir", str(tmp_path),
                         "--resolution", "64")
    assert code == 0
    data = json.loads(out)
    names = sorted(os.path.basename(p) for p in data["files"])
    assert names == ["horospheres_lambda0.svg", "horospheres_lambda1.svg"]
    for p in data["files"]:
        text = open(p).read()
        assert text.startswith("<svg") and "</svg>" in text


def test_lq_horosphere_creates_missing_out_dir(capsys, tmp_path):
    target = tmp_path / "new" / "figs"
    code, out, err = run(capsys, "lq-horosphere", "--lambda", "0",
                         "--out-dir", str(target), "--resolution", "64")
    assert code == 0
    data = json.loads(out)
    assert all(os.path.exists(p) for p in data["files"])


def test_lq_horosphere_csv_and_empty_levels(capsys, tmp_path):
    code, out, err = run(
        capsys, "lq-horosphere", "--lambda", "0", "--format", "csv",
        "--out-dir", str(tmp_path), "--resolution", "64",
        "--levels=-4,100",
    )
    assert code == 0
    assert "skips levels" in err
    data = json.loads(out)
    assert data["skipped_levels"]["0"] == [100.0]
    body = open(data["files"][0]).read()
    assert body.splitlines()[0] == "level,x,y"
    code, _, err = run(
        capsys, "lq-horosphere", "--lambda", "0", "--levels", "100",
        "--out-dir", str(tmp_path), "--resolution", "64",
    )
    assert code == 1 and "level" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip()


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["definitely-not-a-command"])
    assert info.value.code == 1


def test_lq_verify_refuses_an_oversized_grid():
    # default window in 3-D: ~1600^3 nodes, ~100 GB
    proc = run_capped("lq-verify", "--target", "stable", "--dim", "3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: sweep grid of ")
    assert "^3 points exceeds" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_lq_horosphere_refuses_an_oversized_grid(tmp_path):
    # 100001^2 nodes, ~75 GiB per sampled field
    proc = run_capped("lq-horosphere", "--resolution", "100000",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: contour grid of 100001^2 points exceeds 4000000; "
        "lower the resolution\n"
    )
    assert list(tmp_path.iterdir()) == []


# a syntax error on line 3 of a JSON kernel with \r\n line ends
CRLF_KERNEL = b'{\r\n "states": ["a", "b"], "comment": "CRLF line ends",\r\n"matrix": [[0,]]}\r\n'


@pytest.mark.parametrize("argv,code,line", [
    (["lq-star", "--x", ",", "--y", "1"], 1,
     "error: argument --x: invalid _point value: ','"),
    (["lq-verify", "--target", "stable", "--t", ","], 1,
     "error: argument --t: invalid _floats value: ','"),
    (["lq-horosphere", "--bbox", "1,2,3"], 1,
     "error: argument --bbox: invalid _bbox value: '1,2,3'"),
    (["lq-horofunction", "--x", "0,1", "--n", "0,0"], 1,
     "error: direction must be a nonzero vector"),
    (["represent", TWO_STATE, "list.json"], 1,
     "error: measure file must map state labels to weights"),
    (["lq-horosphere", "--n", "0,0,1"], 1,
     "error: horosphere figures are drawn in dimension 2"),
    (["lq-horosphere", "--lambda", "-1"], 1,
     "error: spectral shift must be finite and nonnegative"),
    (["lq-horosphere", "--lambda", "nan"], 1,
     "error: spectral shift must be finite and nonnegative"),
    (["star", "crlf.json"], 1, "error: Expecting value: line 3 column 15 (char 68)"),
    (["lq-star", "--x", "0,0", "--y", "0,0"], 0, '  "optimal_horizon": null'),
    (["lq-verify", "--target", "stable", "--radius", "nan"], 1,
     "error: argument --radius: invalid _finite value: 'nan'"),
    (["lq-verify", "--target", "stable", "--radius", "inf"], 1,
     "error: argument --radius: invalid _finite value: 'inf'"),
    (["lq-verify", "--target", "stable", "--half-width", "inf", "--probes", "1"], 1,
     "error: argument --half-width: invalid _finite value: 'inf'"),
    (["lq-verify", "--target", "stable", "--half-width", "3", "--spacing", "nan"], 1,
     "error: argument --spacing: invalid _finite value: 'nan'"),
    (["lq-verify", "--target", "stable", "--tol", "nan"], 1,
     "error: argument --tol: invalid _finite value: 'nan'"),
    (["lq-horosphere", "--bbox", "1,-inf,3,3"], 1,
     "error: argument --bbox: invalid _bbox value: '1,-inf,3,3'"),
    (["lq-star", "--x", "nan,0", "--y", "1,0"], 1,
     "error: argument --x: invalid _point value: 'nan,0'"),
    (["lq-flow", "--x0", "nan,0"], 1,
     "error: argument --x0: invalid _point value: 'nan,0'"),
    (["lq-horofunction", "--x", "1,0", "--n", "inf,0"], 1,
     "error: argument --n: invalid _point value: 'inf,0'"),
], ids=["point", "floats", "bbox", "zero-direction", "measure-list", "dimension-3",
        "negative-lambda", "nan-lambda", "crlf-json", "lq-star-at-origin",
        "nan-radius", "inf-radius", "inf-half-width", "nan-spacing", "nan-tol",
        "inf-bbox", "nan-point", "nan-x0", "inf-direction"])
def test_each_cli_path_ends_in_one_line(capsys, tmp_path, monkeypatch, argv, code, line):
    # an error is one `error:` line on stderr; a JSON position counts
    # \r\n as one character, as a text-mode read does
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "crlf.json").write_bytes(CRLF_KERNEL)
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects the argument
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if code:
        assert (out, err) == ("", line + "\n")
    else:
        assert err == "" and line in out.splitlines()


@pytest.mark.parametrize("second", ["0", "0.0"])
def test_lq_horosphere_refuses_a_repeated_lambda(capsys, tmp_path, second):
    # lambdas compare as floats, and nothing is written
    target = tmp_path / "figs"
    assert run(capsys, "lq-horosphere", "--lambda", "0", "--lambda", second,
               "--out-dir", str(target)) == (1, "", "error: --lambda 0 is given twice\n")
    assert not target.exists()


def test_lq_horosphere_two_distinct_lambdas_match_the_default(capsys, tmp_path):
    runs = []
    for argv in ([], ["--lambda", "0", "--lambda", "1"]):
        out_dir = tmp_path / str(len(runs))
        code, out, err = run(capsys, "lq-horosphere", *argv, "--resolution", "64",
                             "--out-dir", str(out_dir))
        assert (code, err) == (0, "")
        files = json.loads(out)["files"]
        assert [os.path.basename(p) for p in files] == [
            "horospheres_lambda0.svg", "horospheres_lambda1.svg"]
        runs.append((out.replace(str(out_dir), "DIR"), [open(p).read() for p in files]))
    assert runs[0] == runs[1]


def test_lq_horosphere_warnings_obey_the_filters_in_every_run(capsys, tmp_path):
    argv = ["lq-horosphere", "--lambda", "0", "--lambda", "1", "--levels", "100,1",
            "--out-dir", str(tmp_path)]
    for _ in range(2):
        assert run(capsys, *argv)[::2] == (0, (
            "warning: lambda=0 skips levels outside the box: 100\n"
            "warning: lambda=1 skips levels outside the box: 100\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(capsys, *argv)[::2] == (0, "")


@pytest.mark.parametrize("length,code,message", [
    ("1999", 0, ""),
    ("2000", 0, ""),
    ("20000", 0, ""),
    # 2000001 samples on 2 states: the geodesic scan would hold 4000002 values
    ("2000000", 1, "error: geodesic check of 2000001 samples on 2 states exceeds "
                   "4000000 points; shorten the path\n"),
    ("4000000", 1, "error: path of 4000001 samples exceeds 4000000; lower the length\n"),
    ("1000000000", 1, "error: path of 1000000001 samples exceeds 4000000; "
                      "lower the length\n"),
], ids=["1999", "2000", "20000", "2e6", "4e6", "1e9"])
def test_downhill_keeps_long_paths_inside_the_grid_budget(tmp_path, length, code, message):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"a": 0, "b": 1}))
    proc = run_capped("downhill", TWO_STATE, str(h), "--start", "b", "--length", length)
    assert (proc.returncode, proc.stderr) == (code, message)
    if code:
        assert proc.stdout == ""
    else:
        assert len(json.loads(proc.stdout)["states"]) == int(length) + 1


@pytest.mark.parametrize("command", ["star", "classes", "martin"])
@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_a_nonfinite_lambda_is_refused(capsys, command, lam):
    code, out, err = run(capsys, command, TWO_STATE, "--lam", lam)
    assert (code, out, err) == (1, "", "error: normalization constant must be finite\n")


@pytest.mark.parametrize("args,message", [
    (["--duration", "1e9", "--step", "1e-9"],
     "trajectory of 1e+18 steps in dimension 2 exceeds 4000000 points; lengthen the step"),
    (["--duration", "inf"],
     "trajectory of inf steps in dimension 2 exceeds 4000000 points; lengthen the step"),
    (["--duration", "nan"], "duration and step must be positive"),
], ids=["1e18-steps", "inf-duration", "nan-duration"])
def test_lq_flow_refuses_a_trajectory_past_the_grid_budget(args, message):
    proc = run_capped("lq-flow", "--h", "stable", "--x0", "1,0", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_lq_verify_refuses_a_nonfinite_horizon(capsys, t):
    code, out, err = run(capsys, "lq-verify", "--target", "horofunction", "--n", "0,1",
                         "--t", t)
    assert (code, out, err) == (1, "", "error: horizon must be strictly positive\n")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_lq_verify_refuses_too_few_probes(capsys, count):
    code, out, err = run(capsys, "lq-verify", "--target", "stable",
                         "--probes", count)
    assert code == 1 and out == ""
    assert err == "error: --probes must be at least 1\n"


HUGE = "-1" + "0" * 400


@pytest.mark.parametrize("name,text", [
    ("huge.json", '{"states":["a","b"],"matrix":[[0,%s],["-inf",-1]]}' % HUGE),
    ("huge.csv", ",a,b\na,0,%s\nb,-inf,-1\n" % HUGE),
])
def test_an_int_past_the_float_range_beside_an_absent_arc(capsys, tmp_path, name, text):
    # the object array holds the int and a float -inf: no sum may add them
    path = tmp_path / name
    path.write_text(text)
    kernel = load_kernel(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(kernel)
    assert star.entries == ((0, -(10**400)), (NEG_INF, 0))
    raw = [[as_raw(v) for v in row] for row in kernel.entries]
    assert [[as_raw(v) for v in row] for row in star.entries] == brute_star(raw, 4)
    code, out, err = run(capsys, "star", str(path))
    assert code == 0
    assert json.loads(out)["star"] == [[0, -(10**400)], ["-inf", 0]]
    assert err == "warning: star kernel has -inf entries; Martin operations will refuse it\n"
    code, out, err = run(capsys, "martin", str(path), "--lam", "auto")
    assert code == 2 and out == ""
    assert err.endswith("error: star kernel has -inf entries, so Martin objects are undefined\n")


FLOAT_KERNEL = '{"states":["a","b"],"matrix":[[0.5,-1],[-1,-0.5]]}'
BIG = 10**400


@pytest.mark.parametrize("kernel,argv,file,message", [
    ("F", ["harmonic-check"], {"a": BIG, "b": 0}, "int entry too large for a float kernel"),
    ("F", ["extremal", "--lam", "auto"], {"a": BIG, "b": 0},
     "int entry too large for a float kernel"),
    ("F", ["downhill", "--lam", "auto", "--start", "a"], {"a": BIG, "b": 0},
     "int entry too large for a float kernel"),
    ("F", ["represent", "--lam", "auto"], {"a": BIG}, "int entry too large for a float kernel"),
    ("F", ["star", "--lam", str(BIG)], None, "int entry too large for a float kernel"),
    ("two", ["represent"], {"a": "+inf"}, "measure weights may not be +inf"),
    ("two", ["harmonic-check"], {"a": "+inf", "b": 0}, "functions may not take +inf"),
], ids=["harmonic-check", "extremal", "downhill", "represent", "star-lam", "represent-inf",
        "harmonic-check-inf"])
def test_values_past_the_float_range_or_plus_infinity_are_refused(
    capsys, tmp_path, kernel, argv, file, message
):
    if kernel == "F":
        kernel = tmp_path / "f.json"
        kernel.write_text(FLOAT_KERNEL)
    else:
        kernel = TWO_STATE
    command, *options = argv
    args = [command, str(kernel)]
    if file is not None:
        path = tmp_path / "values.json"
        path.write_text(json.dumps(file))
        args.append(str(path))
    code, out, err = run(capsys, *args, *options)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_lambda_past_the_float_range_stays_exact(capsys):
    code, out, err = run(capsys, "star", TWO_STATE, "--lam", str(BIG))
    assert (code, err) == (0, "")
    star = json.loads(out)["star"]
    assert star == [[0, -(BIG + 1)], [-(BIG + 1), 0]]
    assert star == brute_star([[-BIG, -1 - BIG], [-1 - BIG, -BIG]], 4)
    code, out, err = run(capsys, "martin", TWO_STATE, "--lam", str(BIG))
    assert (code, err) == (0, "")
    assert [c["column"] for c in json.loads(out)["columns"]] == [
        {"a": 0, "b": -(BIG + 1)}, {"a": 0, "b": BIG + 1}
    ]


@pytest.mark.parametrize("matrix", [[[0, -1], ["-inf", 0]], [[0, 0], ["-inf", 0]]],
                         ids=["python-ints", "float64"])
def test_a_lambda_past_the_float_range_scales_absent_arcs(capsys, tmp_path, matrix):
    # lam = 1/10^400 puts the kernel on the denominator 10^400, past the
    # float range: its -inf entries are masked, not multiplied
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"states": ["a", "b"], "matrix": matrix}))
    code, out, err = run(capsys, "star", str(path), "--lam", f"1/{BIG}")
    assert code == 0
    assert err == "warning: star kernel has -inf entries; Martin operations will refuse it\n"
    # values below the float range print their 12 digits, not 0
    report = json.loads(out)
    assert report["lambda"] == "1e-400"
    assert report["star"] == [[0, {-1: -1, 0: "-1e-400"}[matrix[0][1]]], ["-inf", 0]]
    kernel = normalize(load_kernel(str(path)), Fraction(1, BIG))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        star = kleene_star(kernel)
    raw = [[as_raw(v) for v in row] for row in kernel.entries]
    assert [[as_raw(v) for v in row] for row in star.entries] == brute_star(raw, 4)
    assert star.entries[0][1] == matrix[0][1] - Fraction(1, BIG)


def test_fractions_past_the_float_range_print_twelve_digits(capsys, tmp_path):
    # 12 significant digits, as a string that reads back as an infinity
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"states": ["a", "b"], "matrix": [[0, -BIG], [-BIG, 0]]}))
    code, out, err = run(capsys, "star", str(path), "--lam", "1/3")
    assert (code, err) == (0, "")
    star = json.loads(out)["star"]
    assert star == [[0, "-1e+400"], ["-1e+400", 0]]
    assert parse_value(star[0][1]) == NEG_INF
    kernel = normalize(load_kernel(str(path)), Fraction(1, 3))
    raw = [[as_raw(v) for v in row] for row in kernel.entries]
    assert [[as_raw(v) for v in row] for row in kleene_star(kernel).entries] == brute_star(raw, 4)
    path.write_text(json.dumps({"states": ["a", "b", "c"], "matrix": [
        ["-inf", BIG, "-inf"], ["-inf", "-inf", 0], [1, "-inf", "-inf"]]}))
    code, out, err = run(capsys, "eigenvalue", str(path))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data == {"max_cycle_mean": "3.33333333333e+399",
                    "exact": str(Fraction(BIG + 1, 3))}
    assert parse_value(data["max_cycle_mean"]) == POS_INF


def golden_cases():
    """Runs of every JSON-writing command whose exit code, stdout and stderr
    are pinned in golden/cli.json; paths are relative to the repository root."""
    kernels = ["data/two_state.json", "data/ring.csv",
               "tests/golden/float.json", "tests/golden/mixed.csv"]
    for kernel in kernels:
        yield ["eigenvalue", kernel]
        for command in ("star", "classes", "martin"):
            for lam in ([], ["--lam", "auto"], ["--lam", "1/2"]):
                yield [command, kernel, *lam]
    two, h = "data/two_state.json", "tests/golden/h.json"
    yield ["harmonic-check", two, h]
    yield ["represent", two, "tests/golden/measure.json"]
    yield ["extremal", two, h]
    yield ["downhill", two, h, "--start", "b"]
    yield ["lq-star", "--x", "1,0", "--y", "2,0"]
    yield ["lq-star", "--x", "0.3,-1.7", "--y=-2,0"]
    yield ["lq-horofunction", "--x", "0,2", "--n", "0,5"]
    yield ["lq-flow", "--h", "stable", "--x0", "1,0.5", "--duration", "0.2"]
    yield ["lq-verify", "--target", "stable", "--t", "1", "--probes", "2",
           "--spacing", "0.1", "--per-probe"]


def run_golden(argv) -> dict:
    argv = [os.path.join(ROOT, a) if a.endswith((".json", ".csv")) else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_outputs_match_the_golden_bytes():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    cases = {" ".join(argv): argv for argv in golden_cases()}
    assert list(cases) == list(golden)
    for name, argv in cases.items():
        assert run_golden(argv) == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli.py --regenerate")
    golden = {" ".join(argv): run_golden(argv) for argv in golden_cases()}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
