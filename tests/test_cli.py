"""Command-line behavior: dispatch, output formats, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromheap import cli, graphs, series
from chromheap.chromatic import chromatic_polynomial
from chromheap.config import Budget
from chromheap.errors import ResourceBudgetExceeded
from chromheap.families import cycle_graph
from chromheap.reports import ReciprocityReport
from chromheap.series import TruncatedSeries, trivial_series
from chromheap.symfunc import MultiPoly, identity_sides


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("4\n1 2\n2 3\n3 4\n4 1\n")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theorem1_table(capsys, c4_file):
    code, out, _ = run_cli(
        capsys, "reciprocity", "--check", "theorem1", "--graph", c4_file,
        "-i", "1", "-j", "1", "--mode", "table",
    )
    assert code == 0
    assert "count: 31" in out
    for row in ("1: 16", "2: 8", "3: 4", "4: 3"):
        assert row in out


@pytest.mark.parametrize("flags", [
    ["greene_zaslavsky", "-i", "-1"],
    ["theorem45", "-d", "1", "-i", "-1"],
])
def test_negative_i_reads_a_zero_coefficient(capsys, c4_file, flags):
    # no orientation has -1 source components, and q^-1 has no coefficient
    code, out, _ = run_cli(capsys, "reciprocity", "--graph", c4_file, "--check", *flags)
    assert code == 0
    payload = json.loads(out)
    assert (payload["count"], payload["poly_side"]) == ("0", "0")


def test_corollary43_rejects_negative_i(capsys, c4_file):
    code, _, err = run_cli(
        capsys, "reciprocity", "--graph", c4_file, "--check", "corollary43", "-i", "-1", "-j", "0",
    )
    assert code == 2
    assert "i and j must be nonnegative" in err


def test_chromatic_json_coefficients(capsys, c4_file):
    code, out, _ = run_cli(capsys, "chromatic", "--graph", c4_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"]["coeffs"] == ["0", "-3", "6", "-4", "1"]


def test_chromatic_memo_never_answers_another_budget(capsys, c4_file):
    g = cycle_graph(4)
    chromatic_polynomial(g)
    with pytest.raises(ResourceBudgetExceeded):
        chromatic_polynomial(g, budget=Budget(memo_entries=1))
    default = run_cli(capsys, "chromatic", "--graph", c4_file)
    overridden = run_cli(
        capsys, "chromatic", "--graph", c4_file, "--budget", "memo_entries=500000"
    )
    assert default == overridden


def test_chromatic_derivative_evaluation(capsys, c4_file):
    code, out, _ = run_cli(capsys, "chromatic", "--graph", c4_file, "-d", "1", "-q", "-1")
    payload = json.loads(out)
    assert code == 0
    assert payload["evaluation"] == {"at": "-1", "value": "-31"}


def test_chihat(capsys, c4_file):
    code, out, _ = run_cli(capsys, "chihat", "--graph", c4_file, "-d", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["polynomial"]["coeffs"] == ["3", "-3", "1"]


def test_bivariate_terms(capsys, c4_file):
    code, out, _ = run_cli(capsys, "bivariate", "--graph", c4_file)
    payload = json.loads(out)
    assert code == 0
    terms = {(t["i"], t["j"]): t["c"] for t in payload["terms"]}
    assert terms[(4, 0)] == "1"  # leading proper-color term
    assert terms[(0, 4)] == "1"  # leading free-color term


def test_orientations(capsys, c4_file):
    code, out, _ = run_cli(capsys, "orientations", "--graph", c4_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["acyclic_count"] == "14"
    assert payload["by_source_components"] == {"1": "3", "2": "6", "3": "4", "4": "1"}


def test_orientations_past_the_enumeration_cap(capsys, tmp_path):
    # K8 has 28 edges; Greene-Zaslavsky reads its tallies off chi
    k8 = tmp_path / "k8.txt"
    k8.write_text("8\n" + "".join(f"{u} {v}\n" for u in range(1, 9) for v in range(u + 1, 9)))
    code, out, _ = run_cli(capsys, "orientations", "--graph", str(k8))
    assert code == 0
    assert json.loads(out)["acyclic_count"] == "40320"


def test_orientations_on_many_components(capsys, tmp_path):
    # 31 vertices and one edge: chi is taken per component
    sparse = tmp_path / "sparse.txt"
    sparse.write_text("31\n1 2\n")
    code, out, _ = run_cli(capsys, "orientations", "--graph", str(sparse))
    payload = json.loads(out)
    assert code == 0
    assert payload["acyclic_count"] == "2"
    assert payload["by_source_components"] == {"30": "1", "31": "1"}


def test_heaps_identities(capsys, c4_file):
    code, out, _ = run_cli(capsys, "heaps", "--graph", c4_file, "-D", "4")
    payload = json.loads(out)
    assert code == 0
    assert payload["identities"]["equal"] is True
    trivial = {tuple(t["exponents"]): (t["num"], t["den"]) for t in payload["trivial"]}
    assert trivial[(1, 0, 1, 0)] == ("1", "1")
    assert len(trivial) == 7


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(capsys, "selfcheck")
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] == payload["total"] > 30


def test_symfunc_check(capsys, c4_file):
    code, out, _ = run_cli(
        capsys, "symfunc", "--graph", c4_file, "--check", "thm53", "--ny", "1", "--nz", "1"
    )
    payload = json.loads(out)
    assert code == 0 and payload["equal"] is True


def test_symfunc_expansion(capsys, c4_file):
    code, out, _ = run_cli(capsys, "symfunc", "--graph", c4_file, "-N", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["powersum"]["terms"][0]["partition"] == [1, 1, 1, 1]
    assert payload["expansion"]["terms"] == [
        {"exponents": [2, 2], "num": "2", "den": "1"}
    ]


def test_all_reciprocity_tokens_dispatch(capsys, c4_file):
    cases = {
        "theorem1": ["-i", "1", "-j", "1"],
        "stanley": ["-j", "1"],
        "greene_zaslavsky": ["-i", "1"],
        "corollary43": ["-i", "1", "-j", "1"],
        "theorem44": ["-d", "2", "-i", "1", "-j", "0"],
        "theorem45": ["-d", "1", "-i", "1"],
        "bivariate": ["-j", "1", "-k", "1"],
    }
    for token, params in cases.items():
        code, out, _ = run_cli(
            capsys, "reciprocity", "--check", token, "--graph", c4_file, *params
        )
        assert code == 0, (token, out)
        assert json.loads(out)["equal"] is True


def test_all_symfunc_tokens_dispatch(capsys, c4_file):
    for token in ("prop51", "prop52", "thm53", "superfication", "combined"):
        code, out, _ = run_cli(capsys, "symfunc", "--graph", c4_file, "--check", token)
        assert code == 0, token
        assert json.loads(out)["equal"] is True


def test_usage_errors_exit_2(capsys, c4_file, tmp_path):
    assert run_cli(capsys, "chromatic", "--graph", str(tmp_path / "nope.txt"))[0] == 2
    assert run_cli(capsys, "chromatic")[0] == 2  # --graph missing
    assert run_cli(capsys, "reciprocity", "--check", "stanley", "--graph", c4_file)[0] == 2
    assert run_cli(capsys, "chromatic", "--graph", c4_file, "--budget", "bogus=1")[0] == 2
    assert run_cli(capsys, "chromatic", "--graph", c4_file, "--budget", "nonsense")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    assert run_cli(capsys, "reciprocity", "--check", "nosuch", "--graph", c4_file)[0] == 2
    assert run_cli(capsys, "symfunc", "--check", "thm53", "--ny", "-1", "--graph", c4_file)[0] == 2


def test_runs_share_the_parser_but_no_budget(capsys, c4_file):
    # the parser is built by the first run and kept; the list that
    # --budget appends to must still start empty in every run
    tight = run_cli(capsys, "chromatic", "--graph", c4_file, "--budget", "memo_entries=1")
    parser = cli._parser
    plain = run_cli(capsys, "chromatic", "--graph", c4_file)
    loose = run_cli(capsys, "chromatic", "--graph", c4_file, "--budget", "memo_entries=500000")
    again = run_cli(capsys, "chromatic", "--graph", c4_file, "--budget", "memo_entries=1")
    assert tight[0] == 2 and "memo exceeded 1 entries" in tight[2]
    assert plain[0] == 0 and loose == plain and again == tight
    assert cli._parser is parser
    assert parser.parse_args(["chromatic"]).budget == []


def test_usage_errors_keep_exit_code_and_stderr(capsys, c4_file, monkeypatch):
    argvs = [
        ["nosuchcommand"],
        ["chromatic", "-d", "x", "--graph", c4_file],
        ["reciprocity", "--check", "nosuch", "--graph", c4_file],
        ["heaps", "--mode", "xml", "--graph", c4_file],
    ]
    kept = [run_cli(capsys, *argv) for argv in argvs]
    again = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parser", None)  # the next run builds a new one
    fresh = [run_cli(capsys, *argv) for argv in argvs]
    assert kept == again == fresh
    for code, out, err in kept:
        assert (code, out) == (2, "") and err.startswith("usage: chromheap")


def test_heaps_lists_only_the_independent_sets_within_the_bound(capsys, monkeypatch, tmp_path):
    # -D 1 needs the n + 1 independent sets of at most one vertex; no 2^n
    # table is built, so 30 isolated vertices, past the n <= 22 table cap,
    # answer too
    def unreachable(*args, **kwargs):
        raise AssertionError("a 2^n table was built")

    monkeypatch.setattr(series, "independence_table", unreachable)
    monkeypatch.setattr(graphs, "independence_table", unreachable)
    empty = tmp_path / "e30.txt"
    empty.write_text("30\n")
    code, out, _ = run_cli(capsys, "heaps", "--graph", str(empty), "-D", "1")
    payload = json.loads(out)
    assert code == 0 and payload["identities"]["equal"] is True
    assert [len(payload[key]) for key in ("trivial", "heap", "pyramid")] == [31, 31, 30]


def test_resource_error_exits_2(capsys, c4_file, tmp_path):
    code, _, err = run_cli(
        capsys, "heaps", "--graph", c4_file, "-D", "6", "--budget", "series_terms=2"
    )
    assert code == 2
    assert "budget" in err
    # P16 is one 16-vertex component; -N 0 skips the finite expansion
    p16 = tmp_path / "p16.txt"
    p16.write_text("16\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 16)))
    code, _, err = run_cli(capsys, "symfunc", "--graph", str(p16), "-N", "0")
    assert code == 2
    assert "budget" in err


def test_heaps_negative_bound_names_the_bound(capsys, c4_file):
    code, _, err = run_cli(capsys, "heaps", "--graph", c4_file, "-D", "-1")
    assert code == 2
    assert "degree bound D must be nonnegative, got -1" in err


def test_chromatic_negative_derivative_order_exits_2(capsys, c4_file):
    code, out, err = run_cli(capsys, "chromatic", "--graph", c4_file, "-d", "-1")
    assert (code, out) == (2, "")
    assert "derivative order d must be nonnegative, got -1" in err


def test_mismatch_exits_1(capsys, c4_file, monkeypatch):
    def fake_check(g, i, j, budget):
        return ReciprocityReport(
            identity="chromatic_derivative",
            params={"i": i, "j": j},
            count=30,
            poly_side=31,
            equal=False,
            strata=None,
        )

    monkeypatch.setitem(cli.RECIPROCITY_CHECKS, "theorem1", (fake_check, ("i", "j")))
    code, out, err = run_cli(
        capsys, "reciprocity", "--check", "theorem1", "--graph", c4_file, "-i", "1", "-j", "1"
    )
    assert code == 1
    payload = json.loads(out)
    # both sides present in the report
    assert payload["count"] == "30" and payload["poly_side"] == "31"
    assert "mismatch" in err


@pytest.fixture
def skewed_sides(monkeypatch):
    """Make cli.identity_sides add extra to the orientation side; returns
    the list of identities it was called for."""
    real = cli.identity_sides
    calls = []

    def install(extra):
        def skewed(g, identity, *sizes, budget):
            calls.append(identity)
            lhs, rhs = real(g, identity, *sizes, budget=budget)
            return lhs, rhs + extra

        monkeypatch.setattr(cli, "identity_sides", skewed)
        return calls

    return install


def test_symfunc_mismatch_names_the_first_difference(capsys, c4_file, skewed_sides):
    # the orientation side gains a constant 5 that the degree-4 algebraic
    # side lacks; each side is computed once and printed as computed
    calls = skewed_sides(MultiPoly.constant(2, 5))
    code, out, err = run_cli(
        capsys, "symfunc", "--graph", c4_file, "--check", "thm53", "--ny", "1", "--nz", "1"
    )
    assert code == 1 and calls == ["split_alphabet"]
    payload = json.loads(out)
    lhs, rhs = identity_sides(cycle_graph(4), "split_alphabet", 1, 1)
    assert payload["equal"] is False
    assert payload["lhs"] == lhs.to_json_list()
    assert payload["rhs"] == [{"exponents": [0, 0], "num": "5", "den": "1"}, *rhs.to_json_list()]
    assert payload["details"][2] == "first difference at exponents [0, 0]: algebraic 0, orientation 5"
    assert "mismatch" in err


def test_symfunc_mismatch_names_the_lexicographically_first_difference(capsys, c4_file, skewed_sides):
    # x1 packs to 256 and x0^2 to 2, so the packed order would name x0^2;
    # the report names the lexicographically smallest exponent tuple
    skewed_sides(MultiPoly(2, {(2, 0): 3, (0, 1): 7, (1, 0): -1}) - MultiPoly(2, {(1, 0): -1}))
    code, out, _ = run_cli(
        capsys, "symfunc", "--graph", c4_file, "--check", "thm53", "--ny", "1", "--nz", "1"
    )
    payload = json.loads(out)
    assert code == 1
    assert payload["details"][2] == "first difference at exponents [0, 1]: algebraic 0, orientation 7"
    listed = [tuple(t["exponents"]) for t in payload["rhs"]]
    assert listed == sorted(listed) and (0, 1) in listed and (2, 0) in listed


def test_symfunc_negative_N_names_the_flag(capsys, c4_file):
    code, out, err = run_cli(capsys, "symfunc", "--graph", c4_file, "-N", "-1")
    assert (code, out) == (2, "")
    assert "-N must be a nonnegative number of variables, got -1" in err


def test_theorem1_huge_j_exits_quickly():
    # j = 10^8 free blocks: repeated squaring keeps this to a few products
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chromheap.cli", "reciprocity", "--check", "theorem1",
         "--graph", str(root / "data" / "c4.txt"), "-i", "1", "-j", "100000000"],
        capture_output=True, text=True, timeout=6, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["equal"] is True


@pytest.mark.parametrize("flags", [
    ["theorem44", "-d", "1", "-i", "0", "-j", "100000000"],
    ["bivariate", "-j", "100000000", "-k", "1"],
    ["theorem1", "-i", "100000000", "-j", "0"],
    ["theorem44", "-d", "1", "-i", "100000000", "-j", "0"],
])
def test_huge_free_block_checks_exit_quickly(flags):
    # the ranked product powers each subset's rank polynomial by truncated
    # squaring, so 10^8 free blocks cost 26 squarings and a few products;
    # the i-th derivative of chi is one pass over its coefficients
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chromheap.cli", "reciprocity", "--graph", str(root / "data" / "c4.txt"),
         "--check", *flags],
        capture_output=True, text=True, timeout=6, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["equal"] is True


def test_huge_derivative_order_exits_quickly():
    # every coefficient of chi vanishes under the 10^8-th derivative, which
    # is one pass over the coefficients and not 10^8 of them
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chromheap.cli", "chromatic", "--graph", str(root / "data" / "c4.txt"),
         "-d", "100000000", "-q", "1"],
        capture_output=True, text=True, timeout=6, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["derivative"]["coeffs"] == [] and out["evaluation"]["value"] == "0"


def test_heaps_huge_bound_exits_2_quickly(tmp_path):
    # K1 at D = 100000 has 100001 terms; the inversion multiplies D
    # coefficient pairs, exp(-P) 2D - 1 and the check's H * T(-x) product
    # 2D + 1.  A budget one pair short of the exp step refuses it by its
    # exact count, charged from G and D before any series is built
    root = Path(__file__).resolve().parents[1]
    k1 = tmp_path / "k1.txt"
    k1.write_text("1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chromheap.cli", "heaps", "--graph", str(k1), "-D", "100000",
         "--budget", "enumeration_limit=199998"],
        capture_output=True, text=True, timeout=6, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "series coefficient pairs needs 199999 > budget 199998" in proc.stderr


def test_huge_bound_heap_check_is_linear_in_the_bound():
    # every recurrence on K1 walks the one nonempty slice of T(-x) above
    # degree 0, so D = 100000 answers in seconds (about 2 s with CPython
    # 3.11 on a shared 2-vCPU host); a step that scanned every slice of
    # theta P for each degree, or a prepay that summed over all pairs of
    # degrees, would take minutes
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        "from chromheap.families import complete_graph\n"
        "from chromheap.series import verify_heap_identities\n"
        "print(verify_heap_identities(complete_graph(1), 100000).equal)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env
    )
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_heaps_refuses_before_building_any_series(capsys, monkeypatch, tmp_path):
    # every up-front count comes from G and D alone, so a refused call
    # never reaches the series: six isolated vertices at D = 23 have
    # 475020 terms, within series_terms, but the inversion multiplies
    # 14870213 coefficient pairs
    def unreachable(*args, **kwargs):
        raise AssertionError("heap_series_triple ran for a refused call")

    monkeypatch.setattr(cli, "heap_series_triple", unreachable)
    e6 = tmp_path / "e6.txt"
    e6.write_text("6\n")
    code, out, err = run_cli(capsys, "heaps", "--graph", str(e6), "-D", "23")
    assert (code, out) == (2, "")
    assert err == (
        "error: series coefficient pairs needs 14870213 > budget 8000000;"
        " raise the budget or shrink the input\n"
    )


# seeded G(n, m) [s] and the bound: D = 7, 8, 15 and 16 sit on both sides of
# the field-width steps of the packed series
HEAPS_CORPUS = [(0, 0, 0, 3), (1, 0, 0, 16), (2, 1, 0, 16), (3, 0, 0, 15), (3, 2, 1, 8), (4, 4, 2, 7),
                (5, 7, 3, 7), (5, 7, 4, 8), (6, 11, 5, 7), (7, 15, 6, 4), (7, 3, 7, 5)]
HEAPS_CORPUS_SHA1 = "f19d149d4fa48282cb3d8ae6588c2bc76fb35456"


def _heaps_corpus_digest(root: Path) -> str:
    digest = hashlib.sha1()
    for n, m, seed, bound in HEAPS_CORPUS:
        edges = random.Random(seed).sample(list(combinations(range(1, n + 1), 2)), m)
        path = root / f"g{n}_{m}_{seed}.txt"
        path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        for mode in ("json", "table"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(["heaps", "--graph", str(path), "-D", str(bound), "--mode", mode])
            digest.update(f"{code}\n{out.getvalue()}{err.getvalue()}".encode())
    return digest.hexdigest()


def test_heaps_output_is_pinned(tmp_path):
    # the digest of these calls' exit codes, stdout and stderr, as recorded
    # before the series were written straight from their packed slices
    assert _heaps_corpus_digest(tmp_path) == HEAPS_CORPUS_SHA1


# --- the JSON writer ------------------------------------------------------

JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\xe9", "\U0001f600"]),
        st.characters(),
    ),
    max_size=6,
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-(2**80), max_value=2**80), JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, kids, max_size=4),
    ),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_writer_matches_json_dumps_indent_2(obj):
    assert cli._dumps(obj) + "\n" == json.dumps(obj, indent=2) + "\n"


@st.composite
def heaps_payloads(draw):
    """A heaps-shaped payload on a graph with 0..7 vertices, the bound on
    either side of a field-width step: the graph's trivial series, and
    drawn series with negative, large and Fraction coefficients."""
    n = draw(st.integers(min_value=0, max_value=7))
    bound = draw(st.sampled_from((0, 1, 3, 7, 8, 15, 16)))
    pairs = list(combinations(range(1, n + 1), 2))
    g = graphs.from_edge_list(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    coeff = st.one_of(
        st.integers(min_value=-(2**70), max_value=2**70),
        st.builds(Fraction, st.integers(min_value=-99, max_value=99), st.integers(min_value=1, max_value=99)),
    )

    def drawn_series():
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            exps, room = [], draw(st.integers(min_value=0, max_value=bound))
            for _ in range(n):
                exps.append(draw(st.integers(min_value=0, max_value=room)))
                room -= exps[-1]
            terms[tuple(exps)] = draw(coeff)
        return TruncatedSeries(n, bound, terms)

    return {
        "graph": {"n": n, "edges": g.num_edges},
        "bound": bound,
        "trivial": trivial_series(g, bound),
        "heap": drawn_series(),
        "pyramid": drawn_series(),
        "identities": {"identity": "heap_series", "equal": draw(st.booleans()), "details": []},
    }


@given(heaps_payloads())
@settings(max_examples=150, deadline=None)
def test_series_write_as_their_json_lists(payload):
    listed = {k: v.to_json_list() if isinstance(v, TruncatedSeries) else v for k, v in payload.items()}
    assert cli._dumps(payload) == json.dumps(listed, indent=2)
    for s in (payload["trivial"], payload["heap"]):
        assert s._json_listing("\n    ") == cli._dumps(s.to_json_list(), "\n    ")


@pytest.mark.parametrize("obj, kind", [
    (1.5, "float"),
    ({"a": [0, {"b": 0.5}]}, "float"),
    ({1: "x"}, "int"),
    ([{"a": 1}, {None: 2}], "NoneType"),
    ({"s": {1, 2}}, "set"),
])
def test_writer_refuses_other_types(obj, kind):
    with pytest.raises(TypeError, match=kind):
        cli._dumps(obj)


def _shape_graphs(tmp_path) -> list[tuple[str, int]]:
    pairs = list(combinations(range(1, 8), 2))
    g7 = random.Random(7).sample(pairs, 12)
    texts = {
        "c4": "4\n1 2\n2 3\n3 4\n4 1\n",
        "k1": "1\n",
        "e0": "0\n",
        "g7": "7\n" + "".join(f"{u} {v}\n" for u, v in g7),
    }
    out = []
    for name, text in texts.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        out.append((str(path), int(text.split()[0])))
    return out


def _assert_indent_2(out: str) -> None:
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_every_subcommand_prints_json_dumps_indent_2(capsys, tmp_path, skewed_sides):
    graphs = _shape_graphs(tmp_path)
    for path, n in graphs:
        for argv in (
            ["chromatic", "-d", "1", "-q", "-1"],
            ["chihat", "-d", str(min(n, 1))],
            ["bivariate"],
            ["orientations"],
            ["heaps", "-D", "3"],
            ["reciprocity", "--check", "theorem1", "-i", "1", "-j", "1"],
            ["symfunc", "-N", "2"],
        ):
            code, out, _ = run_cli(capsys, *argv, "--graph", path)
            assert code == 0, argv
            _assert_indent_2(out)
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 0
    _assert_indent_2(out)
    # a mismatch prints both sides as lists of terms
    skewed_sides(MultiPoly.constant(2, 5))
    code, out, _ = run_cli(capsys, "symfunc", "--graph", graphs[0][0], "--check", "thm53")
    assert code == 1 and json.loads(out)["lhs"] and json.loads(out)["rhs"]
    _assert_indent_2(out)


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
