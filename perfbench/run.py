#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point_read --seed 1 \
        --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a second, traced phase (plus the tracing
overhead).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record of the run (host stamp, sizes, every latency summary) is
written afresh to ``perfbench/out/<workload>-trace<n>.json``.  The exit
code is non-zero when any operation failed or an answer differed from
the dynamic R-tree reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Steadiness controls: single-threaded BLAS and a fixed hash seed.
#: The runner re-executes itself once with these set.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("point_read", "video_search", "ingest_churn"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sets the fixed operation count of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha(root: str) -> str:
    """HEAD's commit id read from ``.git`` (no subprocess); ``unknown``
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_s() -> float:
    """Best of three runs of a fixed pure-Python loop: a host-speed
    record for comparing runs across machines, not a metric."""
    import time
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import platform

    import numpy as np

    import harness as hx
    import workloads as wl

    sizes = wl.Sizes()
    n_ops = hx.op_count(args.workload, args.seconds)
    out_dir = os.path.join(HERE, "out")
    run = hx.run_workload(args.workload, args.seed, sizes, n_ops,
                          bool(args.trace),
                          os.path.join(HERE, ".work", f"run-{os.getpid()}"))
    bench = run.bench
    stamp = {
        "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": sizes.as_dict(), "ops": n_ops,
        "requests": len(bench.requests), "stream_digest": bench.digest,
        "calibration_s": calibration_s(),
    }
    e2e = hx.end_to_end(bench, run.phases[0], run.setup, run.rss_mb)
    lat = hx.latency_table(bench, run.phases[0])
    names = {"point": "query", "fresh": "fresh_query", "video": "video",
             "ingest": "ingest", "sweep": "sweep"}
    summary = {names[k]: {"p50": hx.percentile(v, 50),
                          "p90": hx.percentile(v, 90),
                          "p99": hx.percentile(v, 99), "n": len(v)}
               for k, v in lat.items()}

    print(f"perfbench {args.workload} seed={args.seed} ops={n_ops} "
          f"requests={len(bench.requests)} sha={stamp['git_sha'][:12]} "
          f"nproc={stamp['nproc']} python={stamp['python']} "
          f"numpy={stamp['numpy']} "
          f"calibration_s={stamp['calibration_s']:.4f}")
    print(f"stream_digest {bench.digest}")
    for name, s in summary.items():
        print(f"  {name}_p50_ms = {s['p50']:.4f} ms   "
              f"{name}_p90_ms = {s['p90']:.4f} ms   "
              f"{name}_p99_ms = {s['p99']:.4f} ms   (n={s['n']})")
    print(f"  fail_ratio = {run.n_failed / run.attempted:.6f} ratio "
          f"({run.n_failed} of {run.attempted})")
    for name, (unit, _) in hx.END_TO_END.items():
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    for name, (unit, _) in hx.PER_LAYER.items() if args.trace else ():
        print(f"  {name} = {run.layers[name]:.6g} {unit}")
    for phase, bad in zip(run.phases, run.failed):
        for idx in sorted(bad)[:10]:
            why = phase.errors.get(idx, "answer differs from the reference")
            print(f"perfbench: request {idx} failed: {why}", file=sys.stderr)

    os.makedirs(out_dir, exist_ok=True)
    if run.recorder is not None:
        run.recorder.save(os.path.join(out_dir,
                                       f"spans-{args.workload}.npz"))
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}"
                           ".json"), "w") as fh:
        json.dump({"stamp": stamp, "setup_s_runs": run.setup,
                   "inprocess_setup_s": run.inprocess_setup,
                   "inputs_rss_mb": run.inputs_rss_mb,
                   "end_to_end": e2e, "per_layer": run.layers,
                   "latency_ms": summary, "attempted": run.attempted,
                   "failed": run.n_failed}, fh, indent=2, sort_keys=True)

    gated, values = ((hx.PER_LAYER, run.layers) if args.trace
                     else (hx.END_TO_END, e2e))
    print(json.dumps({
        "correct": run.n_failed == 0, "attempted": run.attempted,
        "failed": run.n_failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in gated.items()},
    }))
    return 0 if run.n_failed == 0 else 1


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main(sys.argv[1:]))
