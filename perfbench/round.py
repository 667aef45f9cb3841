"""One round of a workload, in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N --round R
        --spawned-at T [--trace 0|1] [--setup-only]

The round imports chromheap from the checkout's `src`, builds its inputs,
runs every operation back to back (each timed on its own), and only then
runs the checkers.  The last line of standard output is one JSON object.
`--spawned-at` is the parent's `time.monotonic()` just before it started
this interpreter, so `setup_s` covers interpreter start, `import chromheap`
and input generation.  With `--setup-only` the round stops where the first
operation would start.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "chromheap"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import chromheap

    if Path(chromheap.__file__).resolve().parent != PACKAGE.resolve():
        print(f"chromheap imported from {chromheap.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import layers
    import workloads

    workdir = HERE / "results" / f"inputs-{args.workload}-{args.seed}-{args.round}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, args.round, workdir)
        gc.collect()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        profiler = layers.LayerProfiler(PACKAGE) if args.trace else None
        results, op_s, errors = [], [], []
        start = time.perf_counter()
        with profiler or contextlib.nullcontext():
            for op in ops:
                t0 = time.perf_counter()
                try:
                    results.append((op, op.call()))
                except Exception as exc:  # a failed operation is a result
                    errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                op_s.append(time.perf_counter() - t0)
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        caches = layers.cache_totals()  # before the checkers call into the package

        problems = [f"{op.kind}: {p}" for op, result in results for p in op.check(result)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "op_s": op_s,
        "kinds": [op.kind for op in ops],
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "failed": len(errors),
        "errors": errors[:20],
        "problems": problems[:20],
        "problem_count": len(problems),
    }
    if profiler:
        out["layers"] = {**profiler.metrics(), **caches}
        out["top_functions"] = profiler.top_functions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
