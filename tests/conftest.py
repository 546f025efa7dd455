"""Shared test setup: hypothesis profile, random kernel generators and a
memory-capped subprocess."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from maxplus_martin import KernelMatrix, NEG_INF, max_cycle_mean, normalize

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def same(got, want) -> bool:
    """got equals want and has its type: the check that pins a float
    infinity, which has no one object to test by identity."""
    return type(got) is type(want) and got == want


def labels(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


@st.composite
def finite_kernels(draw, max_n: int = 5, low: int = -9, high: int = 0):
    """All-finite integer kernels; entries <= 0 keep every cycle mean <= 0."""
    n = draw(st.integers(2, max_n))
    rows = [
        [draw(st.integers(low, high)) for _ in range(n)] for _ in range(n)
    ]
    return KernelMatrix(states=labels(n), entries=rows)


@st.composite
def float_twins(draw, max_n: int = 8, max_exp: int = 9, sparse: bool = False):
    """A float kernel with its integer twin, and the unit linking them.

    The twin's entries m are drawn from [-3000, 1000]; the float kernel
    holds m * 10^k / 1000 rounded once, k <= max_exp, so its entries are
    3-decimal values in [-3, 1] times a scale factor of up to 10^max_exp.
    With sparse, either twin has -inf where the other has it.
    """
    n = draw(st.integers(2, max_n))
    scale = 10 ** draw(st.integers(0, max_exp))
    entry = st.integers(-3000, 1000)
    if sparse:
        entry = st.one_of(entry, st.just(NEG_INF))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    floats = [[m * scale / 1000 for m in row] for row in rows]
    return (
        KernelMatrix(states=labels(n), entries=floats),
        KernelMatrix(states=labels(n), entries=rows),
        Fraction(scale, 1000),
    )


@st.composite
def fraction_kernels(draw, max_n: int = 6):
    """Integer kernels normalized by a fractional lambda = 1/m, so that every
    entry is a Fraction that is not an integer.

    A planted cycle 0 > 1 > ... > m-1 > 0 with arcs 1, 0, ..., 0 has mean
    1/m; every other arc is at most -1, so no other cycle reaches it.
    """
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(2, n))
    rows = [[draw(st.integers(-9, -1)) for _ in range(n)] for _ in range(n)]
    for i in range(m):
        rows[i][(i + 1) % m] = 1 if i == 0 else 0
    return normalize(KernelMatrix(states=labels(n), entries=rows), Fraction(1, m))


def float_kernels(max_n: int = 8, max_exp: int = 9):
    """All-finite float kernels, entries as in float_twins."""
    return float_twins(max_n, max_exp).map(lambda twins: twins[0])


def sparse_float_kernels(max_n: int = 8, max_exp: int = 9):
    """Float kernels with -inf gaps, entries as in float_twins."""
    return float_twins(max_n, max_exp, sparse=True).map(lambda twins: twins[0])


@st.composite
def sparse_kernels(draw, max_n: int = 5, low: int = -6, high: int = 3):
    """Integer kernels with -inf gaps; cycle weights unconstrained."""
    n = draw(st.integers(2, max_n))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if draw(st.booleans()):
                row.append(NEG_INF)
            else:
                row.append(draw(st.integers(low, high)))
        rows.append(row)
    return KernelMatrix(states=labels(n), entries=rows)


def normalized_corpus_kernel(rng: np.random.Generator, max_n: int = 6,
                             low: int = -9, high: int = 3) -> KernelMatrix:
    """Random all-finite integer kernel rescaled to max cycle mean zero.

    With lam = p/q the rescaled entries q*a - p are integers and every
    cycle mean shifts to q*(mean - lam), so the maximum lands exactly on
    zero and the Kleene star stays in integer arithmetic.
    """
    n = int(rng.integers(2, max_n + 1))
    raw = rng.integers(low, high + 1, size=(n, n))
    base = KernelMatrix(states=labels(n), entries=raw.tolist())
    lam = Fraction(max_cycle_mean(base))
    rows = [
        [int(v) * lam.denominator - lam.numerator for v in row]
        for row in raw.tolist()
    ]
    return KernelMatrix(states=labels(n), entries=rows)


def corpus(seed: int, count: int, **kw) -> list[KernelMatrix]:
    rng = np.random.default_rng(seed)
    return [normalized_corpus_kernel(rng, **kw) for _ in range(count)]


CAP = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
"""
CLI = """
import sys
from maxplus_martin.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(*argv, program=CLI):
    """A program (default: the command line) in a subprocess capped at 1 GiB
    of address space.

    The cap turns an unguarded oversized allocation into a fast
    MemoryError traceback instead of a real allocation.
    """
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", CAP + program, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
