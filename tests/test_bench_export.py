"""The benchmark summary writer behind ``bench_export``
(``benchmarks/conftest.py``).

A committed ``BENCH_*.json`` must describe one run: the first write to
a file in a session replaces it, so keys whose producing test was
deleted do not survive; later writes in the same session merge.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_conftest", REPO / "benchmarks" / "conftest.py")
assert _spec is not None and _spec.loader is not None
bench_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_conftest)


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_first_write_truncates_then_later_writes_merge(tmp_path):
    stale = tmp_path / "BENCH_demo.json"
    stale.write_text(json.dumps({"bench": "demo", "gone_s": 1.0}))

    writer = bench_conftest.SummaryWriter(tmp_path)
    path = writer.write("demo", {"a_s": 2.0}, records=10)
    assert path == stale
    first = _read(path)
    assert "gone_s" not in first
    assert first["a_s"] == 2.0 and first["records"] == 10

    writer.write("demo", {"b_s": 3.0})
    second = _read(path)
    assert (second["a_s"], second["b_s"], second["records"]) == (2.0, 3.0, 10)

    # A new session starts the file afresh again.
    bench_conftest.SummaryWriter(tmp_path).write("demo", {"c_s": 4.0})
    third = _read(path)
    assert "a_s" not in third and "b_s" not in third
    assert third["c_s"] == 4.0

