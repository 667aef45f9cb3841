"""Frontier of each chromatic-polynomial route: the largest n it finishes
within a time limit on a seeded G(n, p) graph.

    python3 perfbench/frontier.py

Each route is tried on a seeded G(n, P) graph for n = START, START + 1, ...
until a call passes LIMIT_S seconds.  Each call runs in its own interpreter
and is stopped at the limit, so a route that grinds costs at most the
limit.  Routes: deletion-contraction, the subset DP, and
`check_derivative_reciprocity(G, 1, 1)` (theorem 1, whose cost is the a/b
tables, one convolution and chi).  Prints one JSON object per route; this
is a reference measurement, not a workload.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 10.0  # seconds per call
P = 0.5  # edge probability
SEED = 1
START = 10  # first n tried

CALLS = {
    "deletion_contraction": "chromatic_polynomial(g, method='deletion_contraction')",
    "subset_dp": "chromatic_polynomial(g, method='subset_dp')",
    "theorem1": "check_derivative_reciprocity(g, 1, 1)",
}
PROGRAM = """
import sys, time
sys.path.insert(0, {src!r})
from chromheap import chromatic_polynomial, check_derivative_reciprocity, from_edge_list
g = from_edge_list({n}, {edges!r})
t = time.perf_counter()
{call}
print(time.perf_counter() - t)
"""


def main() -> int:
    for route, call in CALLS.items():
        rng = random.Random(f"frontier/{SEED}")
        best, times = None, {}
        for n in range(START, 31):
            edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < P]
            program = PROGRAM.format(src=str(ROOT / "src"), n=n, edges=edges, call=call)
            t0 = time.monotonic()
            try:
                proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                                      text=True, timeout=LIMIT_S + 5)
            except subprocess.TimeoutExpired:
                times[n] = f"> {LIMIT_S:g} s (stopped)"
                break
            if proc.returncode != 0:
                times[n] = proc.stderr.strip().splitlines()[-1][:120]
                break
            took = float(proc.stdout.strip().splitlines()[-1])
            times[n] = f"{took:.3f} s, m={len(edges)}"
            if took > LIMIT_S or time.monotonic() - t0 > LIMIT_S + 5:
                break
            best = n
        print(json.dumps({"route": route, "p": P, "limit_s": LIMIT_S,
                          "frontier_n": best, "times": times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
