"""The package surface the benchmark in perfbench/ reads.

perfbench/ imports a few names from the package and wraps the functions in
tracing.BOUNDARIES from outside; a traced run fails when a per-layer
metric of BENCHMARK.json is missing.  These tests run perfbench's own
generator, workloads, tracer and metric code in-process on a handful of
ops, and change nothing in perfbench/.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import warnings

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from maxplus_martin import semiring  # noqa: E402
from maxplus_martin.errors import AssumptionViolatedWarning  # noqa: E402
from maxplus_martin.martin import MartinObject  # noqa: E402

SEED = 1


def _metric_names():
    """The per-layer metrics of BENCHMARK.json that the finite workloads
    and their census feed from the finite layers."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    layers = ("kernel.", "martin.", "paths.", "semiring.relax_ns.")
    return [n for n in names if n.startswith(layers)] + [
        "fileio.load_kernel_ms", "fileio.canonical_json_ms"]


def test_the_names_perfbench_imports_exist():
    assert semiring.NEG_INF == -float("inf") and callable(semiring.oplus)
    assert isinstance(MartinObject.minimal, property)
    for layer, names in tracing.BOUNDARIES.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def _manifest(workload, out, items):
    return {"workload": workload, "seed": SEED, "dir": str(out), "items": items}


def _small_items(out):
    """One finite-small input each of an int, a Fraction and a float
    normalized kernel, as the benchmark's generator writes them."""
    rng = np.random.default_rng([SEED, gen.WORKLOADS.index("finite-small")])
    items = gen.gen_finite_small(rng, str(out))
    dense = [it for it in items if it["kind"] == "int-dense"]
    picks = [next(it for it in dense if it["vtype"] == "int"),
             next(it for it in dense if it["vtype"] == "fraction"),
             next(it for it in items if it["kind"] == "int-sparse"),
             next(it for it in items if it["kind"] == "float")]
    return picks


def _mid_items(out):
    """The first finite-mid input: the one the traced census runs."""
    rng = np.random.default_rng([SEED, gen.WORKLOADS.index("finite-mid")])
    return gen.gen_finite_large(rng, str(out), gen.MID_SHAPES[:1], "mid")


def test_traced_finite_ops_yield_every_finite_layer_metric(tmp_path):
    small = workloads.FiniteSmall(_manifest("finite-small", tmp_path, _small_items(tmp_path)))
    mid = workloads.FiniteLarge(_manifest("finite-mid", tmp_path, _mid_items(tmp_path)))
    tracer = tracing.Tracer(worker.annotate)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionViolatedWarning)
        for op, (wl, item) in enumerate([(small, it) for it in small.items]
                                        + [(mid, it) for it in mid.items]):
            case = wl.prepare(item)
            wl.expect(case)
            _, result, exc = worker.attempt(wl, case, tracer, op)
            verdict = wl.check(case, result, exc)
            assert verdict.ok, f"{wl.name} {item['file']}: {verdict.detail}"
    spans = list(zip(tracer.spans, tracing.self_times(tracer.spans)))
    metrics = worker.layer_metrics(spans)
    missing = [name for name in _metric_names() if name not in metrics]
    assert not missing, f"traced ops produced no {missing}"

