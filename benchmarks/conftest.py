"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's figures/claims: it prints
the figure's rows through :class:`repro.eval.harness.Table` (directly to
the terminal, bypassing pytest capture, so the tables land in
``bench_output.txt``) and times the figure's hot kernel with
pytest-benchmark.

Benchmarks that track the perf trajectory across PRs additionally call
the :func:`bench_export` fixture, which writes a ``BENCH_<name>.json``
summary -- by default at the repo root; pass ``--bench-json DIR`` to
redirect (CI uploads these as artifacts).  The first write to a file in
a session starts it afresh; later writes in the same session merge.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import CameraModel
from repro.core.flatsnap import FLATSNAP_VERSION
from repro.eval.harness import Table

REPO_ROOT = Path(__file__).resolve().parents[1]


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--bench-json", action="store", default=None, metavar="DIR",
        help="directory for BENCH_<name>.json perf summaries "
             "(default: the repo root)")


class SummaryWriter:
    """Writes the ``BENCH_<name>.json`` summaries of one pytest session.

    The first :meth:`write` to a file in a session replaces whatever
    an earlier run left there, so keys whose producer was deleted or
    renamed never survive; later writes in the same session merge their
    top-level keys in, so several tests can contribute sections to one
    trajectory file regardless of run order.

    Every summary is stamped with the flat-snapshot schema version, so
    a trajectory diff across PRs can tell a perf regression from a
    format change; pass ``records``/``queries``/``engine`` keywords to
    stamp the workload shape and engine under test as well.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self._started: set[Path] = set()

    def write(self, name: str, payload: dict, *,
              records: int | None = None,
              queries: int | None = None,
              engine: str | None = None) -> Path:
        """Write (or merge into) ``BENCH_<name>.json``; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"BENCH_{name}.json"
        merged: dict = {"bench": name}
        if path in self._started:
            try:
                merged.update(json.loads(path.read_text(encoding="utf-8")))
            except json.JSONDecodeError:
                pass    # a corrupt summary is overwritten, not fatal
        self._started.add(path)
        merged.update(payload)
        merged["snapshot_schema_version"] = FLATSNAP_VERSION
        for key, value in (("records", records), ("queries", queries),
                           ("engine", engine)):
            if value is not None:
                merged[key] = value
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


@pytest.fixture(scope="session")
def bench_export(pytestconfig: pytest.Config):
    """``bench_export(name, payload, **stamps)``: see :class:`SummaryWriter`."""
    out_dir = pytestconfig.getoption("--bench-json")
    return SummaryWriter(Path(out_dir) if out_dir else REPO_ROOT).write


@pytest.fixture
def camera() -> CameraModel:
    return CameraModel(half_angle=30.0, radius=100.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2015)


@pytest.fixture
def show(capsys):
    """Print a Table (or string) straight to the terminal."""
    def _show(obj) -> None:
        text = obj.render() if isinstance(obj, Table) else str(obj)
        with capsys.disabled():
            print(text)
    return _show
