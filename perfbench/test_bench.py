"""The benchmark's own checks.

    python3 -m pytest perfbench/test_bench.py

Runs two traced passes of every workload at a seed other than the default
(a few minutes on 2 cores): work counts must repeat exactly, and every
job's output must pass its checks.
"""

import json
import tempfile
from pathlib import Path

import pytest

import run
import workloads as wl
from layers import COUNTS, PER_LAYER, layer_metrics

SEED = 7  # not wl.DEFAULT_SEED


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def two_passes(request):
    run.OUT.mkdir(exist_ok=True)
    pins = wl.load_pins()
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        yield [run.traced_pass(request.param, SEED, Path(tmp) / str(i), pins)
               for i in range(2)]


def test_counts_repeat_across_traced_passes(two_passes):
    first, second = (layer_metrics(t) for t in two_passes)
    counts = {name: first[name]["value"] for name in COUNTS}
    assert {name: second[name]["value"] for name in COUNTS} == counts
    assert any(counts.values())


def test_non_default_seed_leaves_no_failures(two_passes):
    assert [t["record"]["failed"] for t in two_passes] == [[], []]


def test_tracer_uninstalls(two_passes):
    from dimlab import estimators, exact, settree
    assert estimators.cmp_pow2 is exact.cmp_pow2
    assert not hasattr(exact.cmp_pow2, "__wrapped__")
    assert not hasattr(settree.DyadicSetTree.children_keys, "__wrapped__")


def test_benchmark_json_names_every_metric():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        [(name, unit) for name, unit, *_ in PER_LAYER]
        + [("trace.batch_s", "s"), ("trace.overhead_s", "s")])
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "batch_s", "setup_s", "peak_rss_mb", "pass_frac"}
