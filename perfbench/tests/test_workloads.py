"""Operation streams are a pure function of the seed."""

import pytest

import harness as hx
import workloads as wl
from repro.core.server import IngestStatus

SMALL = wl.Sizes(n_videos=300, extent_m=1250.0, video_margin_m=300.0)


def _digest(workload, seed, n_ops):
    return wl.stream_digest(wl.corpus(seed, SMALL),
                            wl.operations(workload, seed, SMALL, n_ops))


@pytest.mark.parametrize("workload,n_ops", [("point_read", 400),
                                            ("video_search", 6),
                                            ("ingest_churn", 10)])
def test_same_seed_same_stream_other_seed_other_stream(workload, n_ops):
    first = _digest(workload, 11, n_ops)
    assert _digest(workload, 11, n_ops) == first
    assert _digest(workload, 12, n_ops) != first


def test_point_stream_repeats_one_request_in_four():
    queries = wl.point_queries(3, SMALL, 4000)
    # A repeat is the same Query object as an earlier request.
    repeats = len(queries) - len({id(q) for q in queries})
    assert 0.2 < repeats / len(queries) < 0.3
    assert {q.radius for q in queries} == {20.0, 100.0}
    assert all(q.t_end - q.t_start == pytest.approx(wl.HOURS_2)
               for q in queries)


def test_churn_cycles_balance_ingest_against_retention():
    cycles = wl.churn_cycles(5, SMALL, 40)
    statuses = [s for c in cycles for s in c.expected]
    assert statuses.count(IngestStatus.DUPLICATE) > 0
    assert statuses.count(IngestStatus.REJECTED) > 0
    assert statuses.count(IngestStatus.ACCEPTED) > 0.9 * len(statuses)
    assert [c.sweep_cutoff is not None for c in cycles].count(True) == 5
    for c in cycles:
        assert all(q.t_end == c.clock for q in c.queries)


def test_redeliveries_are_still_inside_the_retention_window():
    # At this size a cycle is ~2.6 h, so 40 cycles span ~4 retention
    # windows and early bundles age out of the redelivery pool.
    cycles = wl.churn_cycles(5, SMALL, 40)
    first_cycle = {}
    redelivered_ages = []
    for c in cycles:
        for payload, status in zip(c.payloads, c.expected):
            if status is IngestStatus.ACCEPTED:
                first_cycle.setdefault(payload, c.clock)
            elif status is IngestStatus.DUPLICATE:
                redelivered_ages.append(c.clock - first_cycle[payload])
    assert redelivered_ages
    # A bundle's records start at most cycle_s + one video's span
    # before its own cycle's clock.
    span = wl.SEGMENT_S * wl.SEGMENTS_PER_VIDEO
    assert max(redelivered_ages) + SMALL.cycle_s + span <= wl.HORIZON_S


def test_video_queries_are_distinct_and_alternate_scorers():
    vqs = wl.video_queries(2, SMALL, 6)
    assert len(set(vqs)) == 6
    assert [vq.scorer for vq in vqs] == ["lcv", "dtw"] * 3
    assert all(len(vq.segments) == wl.VIDEO_SEGMENTS for vq in vqs)


def test_op_count_is_fixed_by_seconds():
    assert hx.op_count("point_read", 2) == hx.op_count("point_read", 2.0)
    assert hx.op_count("ingest_churn", 0.01) == 1
