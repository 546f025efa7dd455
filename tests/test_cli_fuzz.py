"""Seeded fuzz of the finite commands through cli.main, in process.

Random kernels (int, 3-decimal float, 2^50-scale and 10^400-scale entries,
some sparse), functions and measures mixing ints, floats, +-inf and
+-10^400, and --lam values from plain fractions to past the float range.
Every run must end in a report or in one `error:` line, and on exact
input the star and the harmonic verdict must match the naive oracles.

    PYTHONPATH=src:tests python tests/test_cli_fuzz.py SEED...

runs 1,000 cases per seed and prints the failures.
"""

import contextlib
import functools
import io
import json
import os
import random
import sys
import tempfile
import traceback
import warnings
from fractions import Fraction

from oracles import brute_star, kernel_csv_text, mp_apply

from maxplus_martin import NEG_INF, MaxPlusError, cli, max_cycle_mean, normalize, parse_value
from maxplus_martin.fileio import load_function, load_kernel

BIG = 10**400
COMMANDS = ["star", "eigenvalue", "classes", "martin", "harmonic-check", "represent",
            "extremal", "downhill"]
LAMS = [None, "auto", "1/3", "2/7", "0.5", "-3", str(BIG), f"1/{BIG}", "1e300",
        str(2**60 + 1)]
FLOAT_LAMS = {"0.5", "1e300"}
UNITS = {"int": 1, "float": None, "2^50": 2**50, "10^400": BIG}


def _kernel(rng):
    """A kernel file's states and rows, and the kind of its finite entries."""
    kind = rng.choice(list(UNITS))
    n = rng.randint(1, 5)
    sparse = rng.random() < 0.4

    def entry():
        if sparse and rng.random() < 0.5:
            return "-inf"
        if kind == "float":
            return round(rng.uniform(-9, 2), 3)
        return rng.randint(-9, 2) * UNITS[kind] + rng.randint(-3, 3)

    return [f"s{i}" for i in range(n)], [[entry() for _ in range(n)] for _ in range(n)], kind


def _value(rng):
    return rng.choice([
        rng.randint(-5, 5), round(rng.uniform(-5, 5), 3), "-inf", "+inf", BIG, -BIG, 0,
    ])


def _write_kernel(path_stem, states, rows, rng):
    if rng.random() < 0.2:
        path = path_stem + ".csv"
        text = kernel_csv_text(states, rows)
    else:
        path = path_stem + ".json"
        text = json.dumps({"states": states, "matrix": rows})
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _normalized(path, lam):
    kernel = load_kernel(path)
    if lam is None:
        return kernel
    shift = max_cycle_mean(kernel) if lam == "auto" else (
        Fraction(lam) if "/" in lam else parse_value(lam))
    return normalize(kernel, shift)


def _star_column(path, lam, rng):
    """A Martin column A*<., y> - A*<b, y> of the oracle star of the
    normalized kernel, with exact int values, or None: superharmonic, and
    harmonic when y lies on a cycle of weight 0."""
    try:
        kernel = _normalized(path, lam)
    except MaxPlusError:
        return None
    star = brute_star([list(row) for row in kernel.entries], kernel.n)
    column = [row[rng.randrange(kernel.n)] for row in star]
    if any(type(v) is Fraction for v in column):
        return None
    at_b = 0 if column[0] == NEG_INF else column[0]  # b is the first state
    return ["-inf" if v == NEG_INF else v - at_b for v in column]


def _case(rng, tmp):
    """argv of one run, its kernel's kind and lam, and the values of its
    function or measure file."""
    states, rows, kind = _kernel(rng)
    command = rng.choice(COMMANDS)
    argv = [command, _write_kernel(os.path.join(tmp, "k"), states, rows, rng)]
    lam = None if command == "eigenvalue" else rng.choice(LAMS)
    values = None
    if command in ("harmonic-check", "extremal", "downhill"):
        column = None
        if rng.random() < 0.5:  # a candidate harmonic function
            lam = "auto"
            column = _star_column(argv[1], lam, rng)
        values = dict(zip(states, column or [_value(rng) for _ in states]))
    elif command == "represent":
        values = {s: _value(rng) for s in rng.sample(states, rng.randint(0, len(states)))}
    if values is not None:
        path = os.path.join(tmp, "values.json")
        with open(path, "w") as fh:
            json.dump(values, fh)
        argv.append(path)
    if command == "downhill":
        argv += ["--start", rng.choice(states), "--length", str(rng.randint(1, 6))]
    if lam is not None:
        argv.append(f"--lam={lam}")
    return argv, kind, lam, values


def _agrees(token, v) -> bool:
    """A report token against an exact oracle value: equal on -inf and ints,
    else within its 12 significant digits."""
    if v == NEG_INF:
        return token == "-inf"
    if type(v) is int:
        return token == v
    gap = abs(Fraction(token) - v)
    return gap <= abs(v) / 10**11


def _check_oracles(argv, lam, out):
    """On exact input, the star against brute_star and the harmonic verdict
    against mp_apply, on the normalized entries."""
    kernel = _normalized(argv[1], lam)
    entries = [list(row) for row in kernel.entries]
    report = json.loads(out)
    if argv[0] == "star":
        want = brute_star(entries, kernel.n)
        assert all(_agrees(t, v) for trow, vrow in zip(report["star"], want)
                   for t, v in zip(trow, vrow)), (report["star"], want)
    elif argv[0] == "harmonic-check":
        h = load_function(argv[2], kernel)
        assert report["harmonic"] == (mp_apply(entries, h) == h)


def fuzz(seed: int, runs: int) -> list[tuple[str, str]]:
    """The failures of `runs` random cases drawn from random.Random(seed):
    ("traceback", text) for an exception out of main, ("check", text) for
    a failed assertion on its result."""
    rng = random.Random(seed)
    failures = []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(runs):
            argv, kind, lam, values = _case(rng, tmp)
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except (Exception, SystemExit):
                failures.append(("traceback", f"{argv}\n{traceback.format_exc()}"))
                continue
            try:
                errors = [line for line in err.getvalue().splitlines()
                          if line.startswith("error:")]
                assert code in (0, 1, 2), code
                assert len(errors) == (code != 0), err.getvalue()
                exact = kind != "float" and lam not in FLOAT_LAMS and not any(
                    type(v) is float for v in (values or {}).values())
                if code == 0 and exact:
                    _check_oracles(argv, lam, out.getvalue())
            except Exception:
                failures.append(("check", f"{argv}\n{traceback.format_exc()}"))
    return failures


def test_the_finite_commands_survive_a_seeded_fuzz(monkeypatch):
    # one parser serves every run: building it would take most of the time
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    failures = fuzz(seed=0, runs=1000)
    assert not failures, f"{len(failures)} failures, the first:\n{failures[0][1]}"


if __name__ == "__main__":
    cli.build_parser = functools.lru_cache(cli.build_parser)
    for seed in map(int, sys.argv[1:]):
        found = fuzz(seed, 1000)
        tracebacks = sum(kind == "traceback" for kind, _ in found)
        print(f"seed {seed}: {len(found)} failures, {tracebacks} tracebacks")
        for _, text in found[:3]:
            print(text)
