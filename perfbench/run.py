"""Cold-cache benchmark of chromheap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; chromheap is imported from its `src`.
Each round runs in a fresh interpreter (`round.py`), so every round starts
with empty caches, and rounds run one at a time.  The number of rounds is
fixed before any is timed: enough for MIN_OPS operations, and S divided
by the workload's nominal round length (ROUND_S), rounded, whichever is
more.  It depends neither on the host's speed nor on the program's, so
two runs with the same S time the same operations; every round is whole.

With --trace 0 the last line of output carries the end-to-end metrics.
With --trace 1 one pair of rounds runs, untraced then traced on the same
inputs, and the last line carries the per-layer metrics of the traced
round and the tracing overhead.  Per-round details go to
perfbench/results/.  The exit code is 0 when every round ran and the
result line was printed; `correct` in that line says whether every check
passed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "chromheap"
RESULTS = HERE / "results"

MIN_OPS = 100
# Nominal seconds of one untraced round of each workload on the reference
# host; the keys are those of workloads.WORKLOADS (this process does not
# import chromheap).  At S = 32 a run has 2, 3 and 3 rounds, 28-38 s of them.
ROUND_S = {"oracle_sweep": 14, "midsize_chi": 10, "cli_corpus": 12.5}
SETUP_PROBES = 9  # extra interpreters that only set up, for a steadier setup_s
DEADLINE_S = 170  # the whole run, every child included


class RoundFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Start one round interpreter, wait for it, and parse its last line."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, "-s", str(HERE / "round.py"), *args, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round {' '.join(args)} passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no chromheap package at {PACKAGE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    # Byte-compile first, so every round imports from the same cached bytecode.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(PACKAGE), str(HERE)],
                   check=True, capture_output=True, env=child_env(), cwd=ROOT, timeout=60)

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    rounds: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    try:
        if args.trace:
            rounds.append(run_child([*base, "--round", "0"], deadline))
            traced.append(run_child([*base, "--round", "0", "--trace", "1"], deadline))
        else:
            for k in range(SETUP_PROBES):
                setups.append(run_child([*base, "--round", str(k), "--setup-only"], deadline)["setup_s"])
            rounds.append(run_child([*base, "--round", "0"], deadline))
            # every round of a workload has the same number of operations
            count = max(math.ceil(MIN_OPS / len(rounds[0]["op_s"])),
                        round(args.seconds / ROUND_S[args.workload]))
            for index in range(1, count):
                rounds.append(run_child([*base, "--round", str(index)], deadline))
    except RoundFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    everything = rounds + traced
    attempted = sum(len(r["op_s"]) for r in everything)
    failed = sum(r["failed"] for r in everything)
    correct = all(r["problem_count"] == 0 for r in everything)
    for p in [p for r in everything for p in r["problems"]][:10]:
        print(f"check failed: {p}", file=sys.stderr)
    for r in everything:
        for e in r["errors"]:
            print(f"operation failed: {e}", file=sys.stderr)

    if args.trace:
        untraced_s, traced_s = rounds[0]["wall_s"], traced[0]["wall_s"]
        layer_values = dict(traced[0]["layers"])
        layer_values["trace.untraced_s"] = untraced_s
        layer_values["trace.traced_s"] = traced_s
        layer_values["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer_values.items())}
    else:
        op_s = [t for r in rounds for t in r["op_s"]]
        wall = sum(r["wall_s"] for r in rounds)
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": (len(op_s) - sum(r["failed"] for r in rounds)) / wall, "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_s), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * statistics.quantiles(op_s, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version, "setup_samples_s": setups, "rounds": rounds, "traced_rounds": traced,
        **summary,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
