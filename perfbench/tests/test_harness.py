"""End-to-end runs on a small corpus: verification, attribution, counts."""

import json
import os

import numpy as np
import pytest

import harness as hx
import workloads as wl
from repro.core.query import QueryResult
from repro.core.server import IngestStatus
from spans import self_times

# A 1.25 km city keeps the 50k-record density at 400 videos.
SMALL = wl.Sizes(n_videos=400, extent_m=1250.0, video_margin_m=300.0,
                 verify_samples=64)
OPS = {"point_read": 600, "video_search": 8, "ingest_churn": 9}
COUNTS = ("router.engine_calls_per_req", "router.fanout_mean",
          "cache.hit_ratio", "cache.stale_drops", "engine.useful_ratio",
          "grid.candidates_per_call", "index.pack_count",
          "index.evicted_per_sweep", "wal.bytes_per_payload_byte")


def _run(workload, tmp_path, seed=4):
    return hx.run_workload(workload, seed, SMALL, OPS[workload], True,
                           str(tmp_path / f"work-{seed}"))


@pytest.fixture(scope="module", params=sorted(OPS))
def traced(request, tmp_path_factory):
    return request.param, _run(request.param, tmp_path_factory.mktemp("r"))


def test_outputs_match_the_dynamic_reference(traced):
    _, run = traced
    assert run.n_failed == 0
    assert run.attempted == 2 * len(run.bench.requests)


def test_setup_is_timed_in_fresh_processes(traced):
    _, run = traced
    assert len(run.setup) == hx.SETUP_REPS
    assert all(t > 0 for t in run.setup) and run.inprocess_setup > 0
    assert 0 < run.inputs_rss_mb <= run.rss_mb


def test_layer_self_times_add_up_to_each_request(traced):
    _, run = traced
    a = run.recorder.arrays()
    st = self_times(a["span_id"], a["parent"], a["start"], a["end"])
    timed = a["request"] >= 0
    roots = timed & (a["parent"] < 0)
    assert roots.sum() == len(run.bench.requests)
    per_request = np.bincount(a["request"][timed], weights=st[timed])
    root_dur = np.zeros_like(per_request)
    root_dur[a["request"][roots]] = (a["end"] - a["start"])[roots]
    assert np.allclose(per_request, root_dur, rtol=1e-9, atol=1e-12)
    assert (st[timed] >= -1e-12).all()


def test_every_per_layer_metric_is_reported(traced):
    _, run = traced
    assert set(run.layers) == set(hx.PER_LAYER)
    assert all(np.isfinite(v) for v in run.layers.values())


def test_predicted_zero_counters_read_zero(traced):
    workload, run = traced
    if workload == "ingest_churn":
        assert run.layers["index.pack_count"] > 0
        assert run.layers["cache.hit_ratio"] == 0.0
    else:
        assert run.layers["index.pack_count"] == 0
        assert run.layers["partition.split_ms_per_group"] == 0.0
        assert run.layers["index.insert_ms_per_group"] == 0.0
    if workload == "video_search":
        assert run.layers["router.engine_calls_per_req"] <= \
            wl.N_SHARDS * wl.VIDEO_SEGMENTS
        assert run.layers["video.score_ms_per_req"] > 0
    if workload == "point_read":
        assert run.layers["cache.hit_ratio"] > 0.15


@pytest.mark.parametrize("workload", sorted(OPS))
def test_counts_repeat_exactly_for_one_seed(workload, tmp_path):
    first = _run(workload, tmp_path, seed=9).layers
    again = _run(workload, tmp_path, seed=9).layers
    assert {k: first[k] for k in COUNTS} == {k: again[k] for k in COUNTS}


def test_verification_catches_a_wrong_answer(tmp_path):
    bench = hx.Bench("point_read", 2, SMALL, 200, str(tmp_path / "w"))
    try:
        fleet = bench.fleet()
        bench.setup(fleet)
        phase = hx.run_phase(bench, fleet)
        phase.digest = hx.content_digest(fleet)
        hx.retire(fleet)
        victim = next(i for i, out in phase.outputs.items()
                      if out is not None and out.ranked)
        result = phase.outputs[victim]
        wrong = result.ranked[::-1] if len(result.ranked) > 1 else []
        phase.outputs[victim] = QueryResult(query=result.query, ranked=wrong)
        assert hx.verify(bench, [phase]) == [{victim}]
        phase.digest = "0" * 64
        assert hx.verify(bench, [phase]) == [{victim, -1}]
    finally:
        bench.close()


def test_benchmark_json_lists_the_harness_metrics():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(hx.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(hx.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        table = hx.END_TO_END if m in spec["end_to_end"] else hx.PER_LAYER
        assert (m["unit"], m["better"]) == table[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_verification_catches_an_unexpected_ingest_outcome(tmp_path):
    bench = hx.Bench("ingest_churn", 3, SMALL, 2, str(tmp_path / "w"))
    try:
        fleet = bench.fleet()
        bench.setup(fleet)
        phase = hx.run_phase(bench, fleet)
        phase.digest = hx.content_digest(fleet)
        hx.retire(fleet)
        assert hx.verify(bench, [phase]) == [set()]
        kind, payloads, expected = bench.requests[0]
        assert kind == "ingest"
        wrong = (IngestStatus.REJECTED,) + tuple(expected[1:])
        bench.requests[0] = (kind, payloads, wrong)
        assert hx.verify(bench, [phase]) == [{0}]
    finally:
        bench.close()
