"""The benchmark's checkers accept the program's real outputs and reject
perturbed ones.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from chromheap.chromatic import chromatic_polynomial  # noqa: E402
from chromheap.graphs import from_edge_list  # noqa: E402
from chromheap.orientations import acyclic_count_table, unique_source_min_table  # noqa: E402
from chromheap.reciprocity import check_derivative_reciprocity  # noqa: E402

C5 = (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
# a triangle with a pendant path plus an isolated vertex: 2 components
TAILED = (6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
GRAPHS = [C5, TAILED, (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])]


def chi(n, edges):
    return list(chromatic_polynomial(from_edge_list(n, edges)).coeffs)


def bumped(values, k, by=1):
    out = list(values)
    out[k] += by
    return out


@pytest.mark.parametrize("n,edges", GRAPHS)
def test_chromatic_checkers_reject_every_bumped_coefficient(n, edges):
    coeffs = chi(n, edges)
    assert oracles.whitney_problems(n, edges, coeffs) == []
    assert oracles.chromatic_values_problems(n, edges, coeffs) == []
    for k in range(n + 1):
        for by in (1, -1):
            assert oracles.whitney_problems(n, edges, bumped(coeffs, k, by)), (k, by)
            assert oracles.chromatic_values_problems(n, edges, bumped(coeffs, k, by)), (k, by)


def test_whitney_rejects_a_polynomial_of_another_graph():
    n, edges = C5
    assert oracles.whitney_problems(n, edges[:-1], chi(*C5))
    assert oracles.same_polynomial_problems("x", chi(*C5), chi(n, edges[:-1]))


@pytest.mark.parametrize("unique", [False, True])
def test_table_checker_rejects_a_changed_entry(unique):
    n, edges = 9, random.Random(3).sample([(u, v) for u in range(1, 10) for v in range(u + 1, 10)], 16)
    g = from_edge_list(n, edges)
    table = (unique_source_min_table if unique else acyclic_count_table)(g)
    masks = workloads._sample_masks(random.Random(4), n)
    assert oracles.acyclic_table_problems(n, edges, table, masks, unique) == []
    for mask in masks:
        assert oracles.acyclic_table_problems(n, edges, bumped(table, mask), masks, unique), mask


class FakeReport:
    def __init__(self, real, **changes):
        self.__dict__.update(vars(real))
        self.__dict__.update(changes)


def test_report_checker_rejects_unequal_sides():
    real = check_derivative_reciprocity(from_edge_list(*C5), 1, 1)
    assert oracles.report_problems(real) == []
    assert oracles.report_problems(FakeReport(real, count=real.count + 1))
    assert oracles.report_problems(FakeReport(real, equal=False))


def test_sweep_checker_rejects_changed_reports():
    n, edges = TAILED
    results = workloads.sweep(from_edge_list(n, edges))
    assert workloads.check_sweep(n, edges, results) == []
    for k, (kind, r) in enumerate(results):
        if kind == "components":
            changed = list(results)
            changed[k] = (kind, FakeReport(r, poly_side=r.poly_side + 1))
            assert workloads.check_sweep(n, edges, changed), r.params
        if kind == "blocks" and tuple(r.params.values()) == (0, 1):
            changed = list(results)
            changed[k] = (kind, FakeReport(r, count=r.count + 1))
            assert workloads.check_sweep(n, edges, changed)
    changed = results + [("relabel", False)]
    assert workloads.check_sweep(n, edges, changed)


def cli_payload(tmp_path, command, n, edges, *flags):
    path = tmp_path / "g.txt"
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    argv = [command, *flags] if command == "selfcheck" else [command, "--graph", str(path), *flags]
    code, out, _ = workloads.run_cli(argv)
    assert code == 0
    return json.loads(out)


def bump_number(payload, path):
    """A deep copy with the decimal string or int at `path` increased by one."""
    out = copy.deepcopy(payload)
    node = out
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    node[path[-1]] = str(int(value) + 1) if isinstance(value, str) else value + 1
    return out


CLI_CASES = [
    ("orientations", [], [["acyclic_count"], ["by_source_components", "1"]]),
    ("heaps", ["-D", "5"], [["heap", 0, "num"], ["heap", 3, "num"], ["heap", 3, "den"]]),
    ("chromatic", [], [["polynomial", "coeffs", 2], ["polynomial", "coeffs", 5]]),
    ("chihat", ["-d", "2"], [["polynomial", "coeffs", 1], ["polynomial", "coeffs", 3]]),
    ("bivariate", [], [["terms", 0, "c"], ["terms", 7, "c"]]),
    ("symfunc", ["-N", "3"], [["powersum", "terms", 0, "num"], ["omega", "terms", 1, "num"],
                              ["expansion", "terms", 2, "num"],
                              ["chromatic_from_specialization", "coeffs", 3]]),
]


@pytest.mark.parametrize("command,flags,paths", CLI_CASES)
def test_cli_checkers_reject_changed_numbers(tmp_path, command, flags, paths):
    n, edges = C5
    payload = cli_payload(tmp_path, command, n, edges, *flags)
    check = getattr(oracles, f"cli_{command}_problems")
    assert check(n, edges, payload) == []
    for path in paths:
        assert check(n, edges, bump_number(payload, path)), path


def test_cli_reciprocity_and_selfcheck_checkers(tmp_path):
    n, edges = C5
    payload = cli_payload(tmp_path, "reciprocity", n, edges, "--check", "theorem1", "-i", "1", "-j", "1")
    assert oracles.cli_reciprocity_problems(payload) == []
    assert oracles.cli_reciprocity_problems(bump_number(payload, ["count"]))
    assert oracles.cli_reciprocity_problems({**payload, "equal": False})
    payload = cli_payload(tmp_path, "selfcheck", 0, [])
    assert oracles.cli_selfcheck_problems(payload) == []
    assert oracles.cli_selfcheck_problems({**payload, "passed": payload["passed"] - 1})


def test_cli_wrapper_rejects_bad_exit_and_bad_json():
    check = workloads._cli_check(lambda payload: [])
    assert check((0, "{}", "")) == []
    assert check((1, "{}", "identity mismatch"))
    assert check((0, "not json", ""))
