"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single summary line (visible under pytest -s) so a
run doubles as a checklist: closed forms against numeric sweeps, exact
finite-kernel algebra against brute force, and the CLI figure pipeline
against the geometry it is supposed to draw.
"""

import csv
import json
import math
import time

import numpy as np

from conftest import normalized_corpus_kernel

from maxplus_martin import (
    DiscretePath,
    GridSpec,
    downhill_path,
    finite_horizon_kernel,
    geodesic_limit,
    horofunction,
    is_almost_geodesic,
    is_almost_optimal,
    kleene_star,
    martin_kernel,
    max_cycle_mean,
    minimal_martin_space,
    mu,
    optimal_horizon,
    path_J,
    represent,
    spectral_measure,
    stable_quadratic,
    star_kernel,
    verify_harmonic_lq,
)
from maxplus_martin.cli import main as cli_main
from maxplus_martin.martin import is_extremal
from oracles import (
    action_simpson,
    as_raw,
    brute_star,
    stationary_horizon,
    sweep_star,
)

LAMBDAS = (0.0, 0.5, 1.0)


def disk_probes(rng, count, radius=2.0):
    ang = rng.uniform(0.0, 2.0 * np.pi, count)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


def acceptance_corpus(count=500, seed=7):
    """Integer kernels with every cycle mean <= 0 and a finite star."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        kernel = normalized_corpus_kernel(rng, max_n=6)
        if k % 3 == 2:
            drop = int(rng.integers(1, 4))
            kernel = type(kernel)(
                states=kernel.states,
                entries=[[v - drop for v in row] for row in kernel.entries],
                basepoint=kernel.basepoint,
            )
        out.append(kernel)
    return out


def two_block_kernel(rng):
    """Two zero-mean blocks glued by couplings too costly to recoup.

    Every cross-block cycle pays two couplings against at most one
    loss-free tour of each block, so the recurrence classes of the blocks
    survive and the minimal Martin space has at least two elements.
    """
    blocks = [normalized_corpus_kernel(rng, max_n=3) for _ in range(2)]
    sizes = [blk.n for blk in blocks]
    slack = sum(
        (blk.n - 1) * max(0, *(v for row in blk.entries for v in row))
        for blk in blocks
    )
    coupling = -(slack + int(rng.integers(1, 5)))
    n = sum(sizes)
    entries = [[coupling] * n for _ in range(n)]
    offset = 0
    for blk in blocks:
        for i, row in enumerate(blk.entries):
            for j, v in enumerate(row):
                entries[offset + i][offset + j] = v
        offset += blk.n
    kernel = type(blocks[0])(
        states=tuple(f"s{i}" for i in range(n)), entries=entries
    )
    assert max_cycle_mean(kernel) == 0
    return kernel


def test_criterion_01_star_kernel_matches_horizon_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    pairs = 0
    worst = 0.0
    for dim in (1, 2, 3):
        for lam in LAMBDAS:
            xs = rng.uniform(-3.0, 3.0, size=(1200, dim))
            ys = rng.uniform(-3.0, 3.0, size=(1200, dim))
            # the grid oracle cannot resolve horizons below its first
            # cell, so near-coincident endpoints are redrawn apart
            gap = np.linalg.norm(xs - ys, axis=1)
            keep = gap > 1e-2
            xs, ys = xs[keep], ys[keep]
            swept, _ = sweep_star(xs, ys, lam)
            closed = np.array(
                [star_kernel(x, y, lam) for x, y in zip(xs, ys)]
            )
            # by t = 40 the long-horizon plateau (the sup for lam = 0 and
            # x.y <= 0) is reached to machine precision, so one sweep
            # covers both branches
            worst = max(worst, float(np.max(np.abs(closed - swept))))
            pairs += len(xs)
    elapsed = time.perf_counter() - t0
    assert pairs >= 10_000
    assert worst <= 1e-6
    assert elapsed <= 60.0
    print(
        f"criterion 01: PASS (star kernel vs sweep, {pairs} pairs, "
        f"max err {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_02_optimal_horizon_matches_numeric_argmax():
    rng = np.random.default_rng(202)
    cases = 0
    worst = 0.0
    for dim in (1, 2, 3):
        for lam in LAMBDAS:
            xs = rng.uniform(-3.0, 3.0, size=(600, dim))
            ys = rng.uniform(-3.0, 3.0, size=(600, dim))
            if lam == 0.0:
                # interior maximum only on the x.y > 0 side; the rest
                # drift to the long-horizon plateau
                keep = np.sum(xs * ys, axis=1) > 1e-9
                xs, ys = xs[keep], ys[keep]
            numeric = stationary_horizon(xs, ys, lam)
            closed = np.array(
                [optimal_horizon(x, y, lam) for x, y in zip(xs, ys)]
            )
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
            cases += len(xs)
    assert cases >= 1000
    assert worst <= 1e-5
    print(
        f"criterion 02: PASS (optimal horizon vs argmax, {cases} cases, "
        f"max err {worst:.2e})"
    )


def test_criterion_03_worked_value_minus_three():
    x = np.array([1.0, 0.0])
    y = np.array([2.0, 0.0])
    direct = star_kernel(x, y, 0.0)
    assert abs(direct + 3.0) <= 1e-12
    horizon = optimal_horizon(x, y, 0.0)
    assert abs(math.cosh(horizon) - 1.25) <= 1e-12
    assert abs(horizon - math.log(2.0)) <= 1e-12
    substituted = finite_horizon_kernel(x, y, horizon)
    assert abs(substituted + 3.0) <= 1e-12
    quadrature = action_simpson(x, y, horizon)
    assert abs(quadrature + 3.0) <= 1e-9
    print(
        "criterion 03: PASS (A*((1,0),(2,0)) = -3 by closed form, "
        "cosh T = 1.25 substitution, and quadrature)"
    )


def test_criterion_04_horofunctions_are_kernel_limits():
    rng = np.random.default_rng(404)
    probes = disk_probes(rng, 20)
    radii = (1e2, 1e3, 1e4)
    worst = 0.0
    for lam in (0.0, 1.0):
        for k in range(12):
            theta = 2.0 * np.pi * k / 12.0
            n = np.array([math.cos(theta), math.sin(theta)])
            errs = []
            for r in radii:
                y = r * n
                base = star_kernel(np.zeros(2), y, lam)
                err = max(
                    abs(star_kernel(x, y, lam) - base - horofunction(x, n, lam))
                    for x in probes
                )
                errs.append(err)
            # the aggregate error must improve with the radius, up to
            # float noise in the 1e8-scale cancellations
            assert errs[1] <= errs[0] + 5e-8
            assert errs[2] <= errs[1] + 5e-8
            assert errs[2] <= 1e-3
            worst = max(worst, errs[2])
    print(
        f"criterion 04: PASS (horofunction limits, 2 lambdas x 12 "
        f"directions, max err at r=1e4 {worst:.2e})"
    )


def test_criterion_05_eigenfunction_verification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    probes = disk_probes(rng, 25)
    n = np.array([0.0, 1.0])
    cases = [
        ("stable quadratic", stable_quadratic, 0.0),
        ("horofunction lam 0", lambda x: horofunction(x, n, 0.0), 0.0),
        ("horofunction lam 1", lambda x: horofunction(x, n, 1.0), 1.0),
    ]
    worst = 0.0
    for label, h, lam in cases:
        for t in (0.5, 1.0, 2.0):
            grid = GridSpec(8.0, 0.01) if t <= 1.0 else GridSpec(18.0, 0.02)
            reports = verify_harmonic_lq(h, lam, t, probes, grid=grid)
            residual = max(rep.residual for rep in reports)
            assert residual <= 1e-3, (label, t, residual)
            worst = max(worst, residual)
    # the stable quadratic admits an exact inner maximizer y = e^{-t} x,
    # so the grid-free identity must hold to near machine precision
    inner = 0.0
    for t in (0.5, 1.0, 2.0):
        best = np.exp(-t) * probes
        vals = finite_horizon_kernel(probes, best, t)
        gap = np.abs(vals + stable_quadratic(best) - stable_quadratic(probes))
        inner = max(inner, float(np.max(gap)))
    assert inner <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    print(
        f"criterion 05: PASS (eigen-equation residuals <= {worst:.2e}, "
        f"analytic maximizer gap {inner:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_06_horosphere_figures(tmp_path, capsys):
    code = cli_main(["lq-horosphere", "--out-dir", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    files = json.loads(out)["files"]
    names = sorted(name.rsplit("/", 1)[-1] for name in files)
    assert names == ["horospheres_lambda0.svg", "horospheres_lambda1.svg"]

    resolution = 256
    code = cli_main([
        "lq-horosphere", "--lambda", "0", "--format", "csv",
        "--out-dir", str(tmp_path), "--resolution", str(resolution),
        "--levels=-4,-2,-1,-0.5",
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    csv_file = json.loads(out)["files"][0]
    spacing = 6.0 / (resolution - 1)
    checked = 0
    worst = 0.0
    with open(csv_file, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0] == "level":
                continue
            level, px, py = (float(c) for c in row)
            if py <= 0.0:
                # below the kink the horofunction is -|p|^2, so contour
                # points must sit on the circle |p|^2 = -level
                worst = max(worst, abs(px * px + py * py + level))
                checked += 1
    assert checked > 100
    assert worst <= 2.0 * spacing
    print(
        f"criterion 06: PASS (both default figures; {checked} lower "
        f"half-plane csv points within {worst:.2e} <= 2 x spacing)"
    )


def test_criterion_07_finite_star_exactness():
    t0 = time.perf_counter()
    kernels = acceptance_corpus()
    for kernel in kernels:
        star = kleene_star(kernel)
        rows = [[as_raw(v) for v in row] for row in star.entries]
        raw = [[as_raw(v) for v in row] for row in kernel.entries]
        assert rows == brute_star(raw, 2 * kernel.n)
        n = kernel.n
        for i in range(n):
            assert star.entries[i][i] == 0
            for j in range(n):
                for k in range(n):
                    lhs = star.entries[i][k] + star.entries[k][j]
                    assert lhs <= star.entries[i][j]
        b = kernel.basepoint
        objects = martin_kernel(star)
        for obj in objects:
            for x in range(n):
                assert star.entries[x][b] <= obj.column[x]
                assert obj.column[x] <= -star.entries[b][x]
                for y in range(n):
                    diff = obj.column[x] - obj.column[y]
                    assert star.entries[x][y] <= diff
                    assert diff <= -star.entries[y][x]
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    print(
        f"criterion 07: PASS (star, triangle, diagonal, Martin bounds "
        f"exact on {len(kernels)} integer kernels, {elapsed:.1f}s)"
    )


def test_criterion_08_representation_round_trip():
    rng = np.random.default_rng(808)
    kernels = acceptance_corpus()
    kernels += [two_block_kernel(rng) for _ in range(60)]
    checked = 0
    for kernel in kernels:
        star = kleene_star(kernel)
        minimal = minimal_martin_space(star)
        if not minimal:
            # strictly negative cycle means leave no harmonic column,
            # hence nothing to represent
            assert max_cycle_mean(kernel) < 0
            continue
        size = int(rng.integers(1, len(minimal) + 1))
        chosen = rng.choice(len(minimal), size=size, replace=False)
        nu = {
            minimal[int(i)]: int(rng.integers(-5, 4)) for i in chosen
        }
        h = represent(nu, star)
        measure = spectral_measure(h, minimal, star)
        assert represent(measure, star) == h
        for w, weight in nu.items():
            assert measure[w] >= weight
        checked += 1
    assert checked >= 300
    print(
        f"criterion 08: PASS (represent(spectral_measure(h)) = h and "
        f"mu >= nu exactly on {checked} random combinations)"
    )


def test_criterion_09_extremal_equals_minimal():
    rng = np.random.default_rng(909)
    kernels = acceptance_corpus()
    kernels += [two_block_kernel(rng) for _ in range(60)]
    falsified = 0
    for kernel in kernels:
        star = kleene_star(kernel)
        minimal = minimal_martin_space(star)
        if not minimal:
            assert max_cycle_mean(kernel) < 0
            continue
        for w in minimal:
            assert is_extremal(w.column, minimal, star)
        for a in range(len(minimal)):
            for b in range(a + 1, len(minimal)):
                u = minimal[a].column
                v = minimal[b].column
                h = tuple(max(p, q) for p, q in zip(u, v))
                dominated = h == u or h == v
                assert is_extremal(h, minimal, star) == dominated
                if not dominated:
                    falsified += 1
    assert falsified >= 25
    print(
        f"criterion 09: PASS (every minimal column extremal; "
        f"{falsified} genuine max(u,v) candidates rejected)"
    )


def test_criterion_10_path_machinery():
    rng = np.random.default_rng(1010)
    kernels = acceptance_corpus(count=120, seed=10)
    kernels += [two_block_kernel(rng) for _ in range(30)]
    eps = 0.5
    descents = 0
    for kernel in kernels:
        star = kleene_star(kernel)
        minimal = minimal_martin_space(star)
        if not minimal:
            continue
        size = int(rng.integers(1, len(minimal) + 1))
        chosen = rng.choice(len(minimal), size=size, replace=False)
        nu = {minimal[int(i)]: int(rng.integers(-3, 3)) for i in chosen}
        h = represent(nu, star)
        start = int(rng.integers(0, kernel.n))
        path = downhill_path(kernel, h, start, eps, length=3 * kernel.n)
        assert is_almost_geodesic(path, eps, kernel, star)
        assert is_almost_optimal(path, h, eps, kernel)
        limit = geodesic_limit(path, star, eps)
        assert limit.minimal
        assert mu(h, limit, star) + limit.column[start] == h[start]
        descents += 1
    assert descents >= 60

    segments = 0
    for index in range(1000):
        kernel = kernels[index % len(kernels)]
        star = kleene_star(kernel)
        m = int(rng.integers(3, 9))
        gaps = rng.integers(1, 4, size=m - 1)
        first = rng.integers(0, 3)
        times = tuple(np.cumsum(np.concatenate([[first], gaps])).tolist())
        states = tuple(int(s) for s in rng.integers(0, kernel.n, size=m))
        path = DiscretePath(times=times, states=states)
        s, t, u = sorted(int(i) for i in rng.integers(0, m, size=3))
        left = path_J(star, path, s, t)
        right = path_J(star, path, t, u)
        whole = path_J(star, path, s, u)
        assert left <= 0 and right <= 0 and whole <= 0
        assert whole == left + right
        segments += 1
    print(
        f"criterion 10: PASS ({descents} downhill paths geodesic, "
        f"optimal, and minimal-limited; J nonpositive and additive "
        f"on {segments} random paths)"
    )
