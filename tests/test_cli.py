import contextlib
import io
import json
import os
import sys
import warnings

import numpy as np
import pytest

from conftest import run_capped

from maxplus_martin.cli import main

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


@pytest.mark.parametrize("count", ["0", "-1"])
def test_lq_verify_refuses_too_few_probes(capsys, count):
    code, out, err = run(capsys, "lq-verify", "--target", "stable",
                         "--probes", count)
    assert code == 1 and out == ""
    assert err == "error: --probes must be at least 1\n"


def golden_cases():
    """Finite-side runs whose exit code, stdout and stderr are pinned in
    golden/cli.json; paths are relative to the repository root."""
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
