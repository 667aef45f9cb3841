"""Workload inputs and operations.

Every input is generated here from the workload seed; nothing comes from
`chromheap.families`, so a change to the package cannot change a
workload.  One round is one list of operations.  Each operation is a
single call into the public API (or one `chromheap.cli.run(argv)`) on an
input no earlier operation of the round has used, and carries a checker
that runs after the timed section.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Callable

from chromheap import cli
from chromheap.chromatic import chromatic_polynomial
from chromheap.graphs import Graph, ascending_relabel, from_edge_list, is_clique, is_connected, vset
from chromheap.orientations import acyclic_count_table, unique_source_min_table
from chromheap.reciprocity import (
    check_bivariate_reciprocity,
    check_clique_quotient_reciprocity,
    check_derivative_reciprocity,
    check_greene_zaslavsky,
    check_shifted_reciprocity,
    check_sink_rooted,
    check_stanley_reciprocity,
)
from chromheap.series import verify_heap_identities
from chromheap.symfunc import (
    verify_combined,
    verify_descent_expansion,
    verify_orientation_expansion,
    verify_split_alphabet,
    verify_superfication,
)

import oracles

Edges = list[tuple[int, int]]


@dataclass
class Op:
    """One timed call; `check` turns its result into a list of problems."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


class Inputs:
    """Seeded graph source that never hands out the same labelled graph twice."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[tuple[int, frozenset]] = set()

    def take(self, n: int, edges: Edges) -> Edges | None:
        key = (n, frozenset(edges))
        if key in self.seen:
            return None
        self.seen.add(key)
        return sorted(edges)

    def gnm(self, n: int, m: int, must: Edges = ()) -> Edges:
        """A fresh graph with exactly m edges, uniform among the labelled
        graphs that contain the edges in `must`."""
        rest = [e for e in combinations(range(1, n + 1), 2) if e not in must]
        while True:
            got = self.take(n, [*must, *self.rng.sample(rest, m - len(must))])
            if got is not None:
                return got

    def gnp(self, n: int, p: float) -> Edges:
        """G(n, p) drawn at its expected edge count round(p * C(n, 2)), so
        that the cost of an operation does not swing with the edge count."""
        return self.gnm(n, round(p * comb(n, 2)))


def _path(n):
    return [(v, v + 1) for v in range(1, n)]


def _cycle(n):
    return _path(n) + [(1, n)]


def _complete(n):
    return list(combinations(range(1, n + 1), 2))


def _star(n):
    return [(1, v) for v in range(2, n + 1)]


def _bipartite(a, b):
    return [(u, a + v) for u in range(1, a + 1) for v in range(1, b + 1)]


# The 24 degenerate and structured shapes of the acceptance property suite.
FIXED_SHAPES: list[tuple[str, int, Edges]] = (
    [(f"k{n}", n, _complete(n)) for n in range(1, 7)]
    + [("e2", 2, []), ("e4", 4, [])]
    + [(f"p{n}", n, _path(n)) for n in range(3, 7)]
    + [(f"c{n}", n, _cycle(n)) for n in range(3, 7)]
    + [(f"star{n}", n, _star(n)) for n in range(4, 7)]
    + [("k23", 5, _bipartite(2, 3)), ("k33", 6, _bipartite(3, 3))]
    + [
        ("k2_plus_isolated", 3, [(1, 2)]),
        ("two_triangles", 6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]),
        ("triangle_with_tail", 5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]),
    ]
)


# ---------------------------------------------------------------------------
# oracle_sweep: every identity check of the property suite on one graph


SWEEP_DENSITIES = (0.25, 0.5, 0.75)
# Random graphs per density, by n.  A sweep costs about 90 ms at n <= 4
# and 300-450 ms at n = 5, 6 here, and eleven of the fixed shapes have
# n <= 4.  With few random graphs at n = 4 the median falls in the middle
# of the n = 5 graphs instead of at the lower edge of the costly cluster,
# where, over ten seeds, it spread 16-19 % against 9-10 % for ops_per_s.
SWEEP_PER_CELL = {4: 1, 5: 4, 6: 4}


def sweep(g: Graph) -> list[tuple[str, Any]]:
    """Every identity check the property suite runs on one graph, in its order."""
    out: list[tuple[str, Any]] = []
    for i in range(4):
        for j in range(4 - i):
            out.append(("blocks", check_derivative_reciprocity(g, i, j)))
    for j in range(4):
        out.append(("pairs", check_stanley_reciprocity(g, j)))
    for i in range(g.n + 1):
        out.append(("components", check_greene_zaslavsky(g, i)))
    for i in range(3):
        for j in range(3 - i):
            out.append(("shifted", check_shifted_reciprocity(g, i, j)))
    for d in (1, 2):
        if d <= g.n and is_clique(g, vset(range(1, d + 1))):
            for i in range(3):
                for j in range(3 - i):
                    out.append(("quotient", check_clique_quotient_reciprocity(g, d, i, j)))
    if is_connected(g):
        rooted = {}
        for strategy in ("min", "max"):
            h, _ = ascending_relabel(g, strategy=strategy)
            for d in (1, 2):
                if d <= h.n and is_clique(h, vset(range(1, d + 1))):
                    for i in range(4):
                        r = check_sink_rooted(h, d, i)
                        out.append(("rooted", r))
                        rooted.setdefault(strategy, []).append(r.count)
        out.append(("relabel", rooted.get("min") == rooted.get("max")))
    for j in range(3):
        for k in range(3 - j):
            out.append(("bivariate", check_bivariate_reciprocity(g, j, k)))
    out.append(("heaps", verify_heap_identities(g, 6)))
    out.append(("tally", verify_orientation_expansion(g)))
    for colours in (1, 2):
        out.append(("descent", verify_descent_expansion(g, colours)))
    for a, b in ((1, 1), (2, 2)):
        out.append(("split", verify_split_alphabet(g, a, b)))
        out.append(("signed", verify_superfication(g, a, b)))
    if g.n <= 5:
        out.append(("combined", verify_combined(g, 1, 1, 1)))
    return out


def check_sweep(n: int, edges: Edges, results: list[tuple[str, Any]]) -> list[str]:
    """Every report equal; chi rebuilt from the Greene-Zaslavsky reports
    matches brute-force colouring counts at q <= 3 and |chi(-1)| matches a
    brute-force acyclic orientation count, as does the (i, j) = (0, 1)
    block count."""
    problems = []
    coeffs = [0] * (n + 1)
    for kind, r in results:
        if kind == "relabel":
            if r is not True:
                problems.append("sink-rooted counts depend on the relabelling")
            continue
        if not r.equal:
            problems.append(f"{kind} {r.params} reported unequal")
        if kind == "components":
            i = r.params["i"]
            coeffs[i] = (-1) ** (n - i) * r.poly_side
    acyclic = oracles.acyclic_orientations(n, edges)
    problems += oracles.chromatic_values_problems(n, edges, coeffs, acyclic)
    blocks = {tuple(r.params.values()): r.count for kind, r in results if kind == "blocks"}
    if blocks[(0, 1)] != acyclic:
        problems.append(f"one free block counted {blocks[(0, 1)]}, brute force {acyclic}")
    return problems


def oracle_sweep(inputs: Inputs, workdir: Path) -> list[Op]:
    # The fixed shapes are the same in every round; each round is a fresh
    # interpreter, so none of their cache entries carries over.  c3 is k3,
    # and an input is used once per round, so 23 of the 24 remain.
    shapes = [(n, edges) for _, n, edges in FIXED_SHAPES if inputs.take(n, edges) is not None]
    for rep in range(max(SWEEP_PER_CELL.values())):
        for p in SWEEP_DENSITIES:
            for n, count in SWEEP_PER_CELL.items():
                if rep < count:
                    shapes.append((n, inputs.gnp(n, p)))
    ops = []
    for n, edges in shapes:
        g = from_edge_list(n, edges)
        ops.append(Op(f"sweep n={n}", lambda g=g: sweep(g),
                      lambda res, n=n, e=edges: check_sweep(n, e, res)))
    return ops


# ---------------------------------------------------------------------------
# midsize_chi: subset tables and chromatic routes at n = 10..12


def _sample_masks(rng: random.Random, n: int, count: int = 4, size: range = range(4, 8)) -> list[int]:
    masks = [0, 1 << (n - 1)]
    for _ in range(count):
        masks.append(sum(1 << (v - 1) for v in rng.sample(range(1, n + 1), rng.choice(size))))
    return masks


def _chi_check(n, edges, other_method):
    def check(poly):
        g = from_edge_list(n, edges)
        other = chromatic_polynomial(g, method=other_method).coeffs
        return oracles.whitney_problems(n, edges, poly.coeffs) + oracles.same_polynomial_problems(
            f"versus {other_method}", poly.coeffs, other
        )

    return check


# (kind, n, p): one graph per entry and round.  The subset DP at n = 12,
# whose cost hardly depends on the graph, is listed twice so that the
# 90th percentile falls inside its cluster; the tables at n = 10 are
# listed twice so that the median falls inside the cluster of the b-table
# at n = 12 and the subset DP at n = 10, not in the gap above it.
MIDSIZE_PLAN = (
    [("acyclic_count_table", n, p) for n in (10, 10, 11, 12) for p in (0.5, 0.3)]
    + [("unique_source_min_table", n, p) for n in (10, 10, 11, 12) for p in (0.5, 0.3)]
    + [("chromatic auto", n, p) for n in (10, 11, 12) for p in (0.5, 0.3)]
    + [("chromatic subset_dp", n, p) for n in (10, 11, 12, 12) for p in (0.5, 0.3)]
    + [("theorem1", n, p) for n in (10, 11) for p in (0.5, 0.3)]
    + [("bivariate", n, p) for n in (10, 11) for p in (0.5, 0.3)]
)
MIDSIZE_REPEAT = 2
TABLES = {
    "acyclic_count_table": (acyclic_count_table, False),
    "unique_source_min_table": (unique_source_min_table, True),
}
THEOREM1_PARAMS = ((0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 1))
BIVARIATE_PARAMS = ((1, 1), (0, 2), (2, 0), (1, 2))


def midsize_chi(inputs: Inputs, workdir: Path) -> list[Op]:
    rng = inputs.rng
    ops = []
    for kind, n, p in MIDSIZE_PLAN * MIDSIZE_REPEAT:
        edges = inputs.gnp(n, p)
        g = from_edge_list(n, edges)
        if kind in TABLES:
            fn, unique = TABLES[kind]
            masks = _sample_masks(rng, n)
            ops.append(Op(kind, lambda fn=fn, g=g: fn(g),
                          lambda t, n=n, e=edges, m=masks, u=unique:
                          oracles.acyclic_table_problems(n, e, t, m, u)))
        elif kind == "chromatic auto":
            ops.append(Op(kind, lambda g=g: chromatic_polynomial(g),
                          _chi_check(n, edges, "subset_dp")))
        elif kind == "chromatic subset_dp":
            ops.append(Op(kind, lambda g=g: chromatic_polynomial(g, method="subset_dp"),
                          _chi_check(n, edges, "deletion_contraction")))
        elif kind == "theorem1":
            i, j = rng.choice(THEOREM1_PARAMS)
            ops.append(Op(kind, lambda g=g, i=i, j=j: check_derivative_reciprocity(g, i, j),
                          oracles.report_problems))
        else:
            j, k = rng.choice(BIVARIATE_PARAMS)
            ops.append(Op(kind, lambda g=g, j=j, k=k: check_bivariate_reciprocity(g, j, k),
                          oracles.report_problems))
    return ops


# ---------------------------------------------------------------------------
# cli_corpus: in-process command-line calls on written graph files


class CliError(Exception):
    """The command refused its input (exit code 2): the operation failed."""


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code == 2:
        raise CliError(err.getvalue().strip())
    return code, out.getvalue(), err.getvalue()


def _cli_check(payload_check: Callable[[dict], list[str]]):
    def check(result):
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        return payload_check(payload)

    return check


def _ascending(inputs: Inputs, n: int, m: int) -> Edges:
    """A graph with m edges in which every vertex k > 1 has a smaller
    neighbour (so it is connected), and vertices 1 and 2 are adjacent."""
    rng = inputs.rng
    while True:
        tree = {(1, 2)} | {(rng.randrange(1, k), k) for k in range(3, n + 1)}
        rest = [e for e in combinations(range(1, n + 1), 2) if e not in tree]
        got = inputs.take(n, [*tree, *rng.sample(rest, m - len(tree))])
        if got is not None:
            return got


# (subcommand, n, edges, extra flags); one graph per entry.  Heaps are an
# eighth of the operations, so the 90th percentile falls among them, and
# twelve `symfunc` calls whose cost is set by 2^m straddle the median.
CLI_PLAN = (
    [("orientations", n, m, []) for n, m in ((7, 10), (7, 12), (7, 14), (8, 10), (8, 11),
                                             (8, 12), (8, 13), (8, 14))]
    + [("heaps", n, m, ["-D", str(d)]) for n, m, d in ((5, 7, 7), (5, 7, 7), (5, 7, 7), (6, 11, 7),
                                                       (6, 11, 7), (6, 11, 7), (5, 7, 8), (7, 15, 7))]
    + [("symfunc", n, m, ["-N", str(k)]) for n, m in ((6, 8), (7, 10)) for k in (2, 3)]
    + [("symfunc", 8, 13, ["-N", str(k)]) for k in (2, 3) * 6]
    + [("chromatic", n, m, flags) for n, m in ((9, 11), (10, 14), (11, 17), (12, 20))
       for flags in ([], ["-d", "1", "-q", "-1"])]
    + [("chihat", n, m, ["-d", str(d)]) for n, m in ((10, 14), (11, 28), (12, 20)) for d in (1, 2)]
    + [("bivariate", n, m, []) for n, m in ((8, 8), (8, 14), (10, 14), (10, 22), (11, 17), (12, 20))]
    + [("reciprocity", n, m, ["--check", *flags]) for n, m, flags in (
        (11, 28, ["theorem1", "-i", "1", "-j", "1"]),
        (11, 17, ["theorem1", "-i", "0", "-j", "2"]),
        (10, 22, ["theorem1", "-i", "2", "-j", "0"]),
        (8, 8, ["stanley", "-j", "2"]),
        (7, 8, ["stanley", "-j", "3"]),
        (8, 8, ["greene_zaslavsky", "-i", "1"]),
        (8, 8, ["corollary43", "-i", "1", "-j", "1"]),
        (11, 28, ["theorem44", "-d", "2", "-i", "1", "-j", "1"]),
        (10, 14, ["theorem44", "-d", "1", "-i", "0", "-j", "2"]),
        (8, 10, ["theorem45", "-d", "1", "-i", "1"]),
        (8, 10, ["theorem45", "-d", "2", "-i", "0"]),
        (12, 20, ["bivariate", "-j", "1", "-k", "1"]),
        (10, 22, ["bivariate", "-j", "0", "-k", "2"]),
    )]
    + [("selfcheck", 0, 0, [])]
)


def cli_corpus(inputs: Inputs, workdir: Path) -> list[Op]:
    ops = []
    for number, (command, n, m, flags) in enumerate(CLI_PLAN):
        argv = [command, *flags]
        if command == "selfcheck":
            ops.append(Op(command, lambda argv=argv: run_cli(argv),
                          _cli_check(oracles.cli_selfcheck_problems)))
            continue
        if "theorem45" in flags:
            edges = _ascending(inputs, n, m)
        elif command == "chihat" or "theorem44" in flags:
            edges = inputs.gnm(n, m, must=[(1, 2)])
        else:
            edges = inputs.gnm(n, m)
        path = workdir / f"g{number:03d}.txt"
        path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
        argv += ["--graph", str(path)]
        if command == "reciprocity":
            check = oracles.cli_reciprocity_problems
        else:
            payload_check = getattr(oracles, f"cli_{command}_problems")
            check = lambda payload, f=payload_check, n=n, e=edges: f(n, e, payload)
        ops.append(Op(f"{command} n={n}", lambda argv=argv: run_cli(argv), _cli_check(check)))
    return ops


WORKLOADS: dict[str, Callable[[Inputs, Path], list[Op]]] = {
    "oracle_sweep": oracle_sweep,
    "midsize_chi": midsize_chi,
    "cli_corpus": cli_corpus,
}


def build(workload: str, seed: int, round_index: int, workdir: Path) -> list[Op]:
    """The operation list of one round; the same arguments give the same list."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    return WORKLOADS[workload](Inputs(rng), workdir)
