"""Smoke test of the benchmark on tiny scenes.

    python3 -m pytest evbench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import make_reference  # noqa: E402
import run  # noqa: E402

run.use_checkout_sources()

import workloads  # noqa: E402
from evrec import streams  # noqa: E402

TINY = workloads.Workload("tiny", wm=60, step=20, entities=6, duration=400, copies=1)
TINY_REVISE = dataclasses.replace(TINY, name="tiny-revise", revise=True)


def declared(key):
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


@pytest.fixture(params=[TINY, TINY_REVISE], ids=lambda w: w.name)
def scene(request, tmp_path):
    w = request.param
    seed, expected = make_reference.reference_digests(w, 3, tmp_path / "reference.jsonl")
    stream = tmp_path / "stream.jsonl"
    streams.write_stream(workloads.build(w, 3, seed), stream)
    return w, expected, stream, tmp_path / "spans.jsonl"


def test_untraced_run_reports_every_end_to_end_metric(scene):
    w, expected, stream, spans = scene
    out = run.measure(w, 0.0, False, expected, stream, spans)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == len(expected) >= 10
    assert set(out["metrics"]) == declared("end_to_end")
    assert all(value > 0 for value, _unit in out["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(scene):
    w, expected, stream, spans = scene
    out = run.measure(w, 0.0, True, expected, stream, spans)
    assert out["correct"]
    assert set(out["metrics"]) == declared("per_layer")
    assert out["metrics"]["engine.records_ingested"][0] > 0
    assert out["metrics"]["intervals.holds_at.calls"][0] > 0
    assert spans.read_text().count("engine.query") >= len(expected)
    if w.revise:
        assert out["metrics"]["store.remove.calls"][0] > 0
    again = run.measure(w, 0.0, True, expected, stream, spans)
    counts = {k: v for k, (v, unit) in out["metrics"].items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in again["metrics"].items() if unit == "count"}


def test_corrupted_reference_fails_queries(scene):
    w, expected, stream, spans = scene
    corrupted = list(expected)
    for i in (1, 4):
        corrupted[i] = "0" * len(corrupted[i])
    out = run.measure(w, 0.0, False, corrupted, stream, spans)
    assert not out["correct"]
    assert out["failed"] == 2
    assert out["facts"]["failed_query_share"] == 2 / out["attempted"]


def test_host_scaling_divides_by_the_neighbouring_slices():
    ref = run.CAL_REFERENCE_S
    # At the reference speed a time is unchanged; at half speed it halves.
    assert run.host_scaled([0.1, 0.2], [ref, ref]) == pytest.approx([0.1, 0.2])
    assert run.host_scaled([0.1] * 3, [2 * ref] * 3) == pytest.approx([0.05] * 3)
    # One slow slice among its neighbours does not move the median.
    slices = [ref] * 20
    slices[10] = 10 * ref
    assert run.host_scaled([0.1] * 20, slices) == pytest.approx([0.1] * 20)


def test_middle_tenth_mean_is_the_median_of_a_linear_ramp():
    assert run.middle_tenth_mean([3.0]) == 3.0
    assert run.middle_tenth_mean([float(x) for x in range(101)]) == 50.0
    # Far tails do not move it.
    assert run.middle_tenth_mean([0.0] * 10 + [5.0] * 80 + [1e6] * 10) == 5.0
