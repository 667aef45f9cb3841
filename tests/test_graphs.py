"""Graph construction, parsing, masks, blow-ups, relabelings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromheap.errors import (
    BadLabeling,
    Disconnected,
    GraphFormatError,
    LoopEdge,
    TooManyVertices,
    VertexOutOfRange,
)
from chromheap.families import complete_graph, cycle_graph, path_graph
from chromheap.graphs import (
    ascending_relabel,
    blowup,
    blowup_types,
    check_ascending_labels,
    components,
    from_edge_list,
    independence_polynomials,
    independence_table,
    independent_sets,
    induced_subgraph,
    is_clique,
    is_connected,
    parse_graph,
    vset,
    vset_tuple,
)

from conftest import graphs


def test_edge_list_roundtrip(c4):
    assert c4.n == 4
    assert c4.num_edges == 4
    assert c4.has_edge(1, 2) and c4.has_edge(4, 1)
    assert not c4.has_edge(1, 3) and not c4.has_edge(2, 4)
    assert set(c4.edges) == {(1, 2), (2, 3), (3, 4), (1, 4)}


def test_parse_graph_accepts_comments_and_blanks(c4):
    text = "# comment\n\n4\n1 2\n2 3\n\n3 4\n4 1\n"
    assert parse_graph(text).adj == c4.adj


@pytest.mark.parametrize(
    "text",
    ["", "x", "3\n1 2 3", "3\n1 z"],
)
def test_parse_graph_rejects_bad_input(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_loops_and_range_rejected():
    with pytest.raises(LoopEdge):
        from_edge_list(3, [(2, 2)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(3, [(1, 4)])
    with pytest.raises(TooManyVertices):
        from_edge_list(-1, [])


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(1, 2), (2, 1), (1, 2)])
    assert g.num_edges == 1


def test_vset_roundtrip():
    assert vset([3, 1]) == 0b101
    assert vset_tuple(0b101) == (1, 3)
    with pytest.raises(VertexOutOfRange):
        vset([0])


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_vset_tuple_inverts_vset(g):
    full = g.full_mask
    assert vset(vset_tuple(full)) == full


def test_induced_subgraph_keeps_internal_edges(c4):
    h, labels = induced_subgraph(c4, vset([1, 2, 4]))
    assert h.n == 3
    assert labels == (1, 2, 4)
    # edges 1-2 and 1-4 survive as 1-2 and 1-3; 2-4 was never an edge
    assert h.has_edge(1, 2) and h.has_edge(1, 3) and not h.has_edge(2, 3)


def test_blowup_shape(c4):
    h = blowup(c4, (3, 2, 0, 1))
    assert (h.n, h.num_edges) == (6, 13)
    assert blowup_types((3, 2, 0, 1)) == (1, 1, 1, 2, 2, 4)


def test_blowup_zero_multiplicity_drops_vertex(k3):
    h = blowup(k3, (1, 0, 1))
    assert h.n == 2 and h.num_edges == 1


@given(graphs(max_n=4), st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_blowup_edge_count(g, m):
    m = m[: g.n]
    m += [0] * (g.n - len(m))
    h = blowup(g, m)
    within = sum(k * (k - 1) // 2 for k in m)
    across = sum(m[u - 1] * m[v - 1] for u, v in g.edges)
    assert h.n == sum(m)
    assert h.num_edges == within + across


def test_clique_and_connectivity(c4, k3):
    assert is_clique(k3, vset([1, 2, 3]))
    assert not is_clique(c4, vset([1, 2, 3]))
    assert is_connected(c4)
    assert not is_connected(from_edge_list(4, [(1, 2)]))
    assert is_connected(complete_graph(1))
    assert components(from_edge_list(0, [])) == []
    assert components(c4) == [c4.full_mask]
    g = from_edge_list(6, [(2, 5), (5, 6), (1, 3)])
    assert components(g) == [vset([1, 3]), vset([2, 5, 6]), vset([4])]


def test_independent_sets_c4(c4):
    got = set(independent_sets(c4))
    assert got == {0, 1, 2, 4, 8, vset([1, 3]), vset([2, 4])}
    table = independence_table(c4)
    assert sum(table) == 7


def test_independence_table_agrees_with_definition(c4):
    table = independence_table(c4)
    for mask in range(1 << c4.n):
        vs = vset_tuple(mask)
        expected = all(not c4.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])
        assert bool(table[mask]) == expected


@given(graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_independence_polynomials_count_independent_sets_by_size(g):
    table, bits = independence_table(g), g.n + 1
    for S, packed in enumerate(independence_polynomials(g)):
        counts = [0] * (g.n + 1)
        for U in range(1 << g.n):
            if U & S == U and table[U]:
                counts[U.bit_count()] += 1
        assert packed == sum(c << bits * k for k, c in enumerate(counts))


def test_ascending_relabel_orders(c4):
    for strategy in ("min", "max"):
        h, new_label = ascending_relabel(c4, strategy=strategy)
        assert check_ascending_labels(h)
        assert new_label[0] == 1
        assert h.num_edges == c4.num_edges


def test_ascending_relabel_fixes_clique_prefix():
    g = complete_graph(4)
    h, new_label = ascending_relabel(g, clique_prefix=3)
    assert new_label[:3] == (1, 2, 3)
    assert check_ascending_labels(h)


def test_ascending_relabel_rejects_bad_input(c4):
    with pytest.raises(Disconnected):
        ascending_relabel(from_edge_list(3, [(1, 2)]))
    with pytest.raises(BadLabeling):
        ascending_relabel(c4, clique_prefix=3)


def test_path_labeling_already_ascending():
    assert check_ascending_labels(path_graph(5))
    shuffled = from_edge_list(3, [(2, 3)])
    assert not check_ascending_labels(shuffled)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_ascending_relabel_preserves_degree_multiset(g):
    if not is_connected(g):
        return
    h, _ = ascending_relabel(g)
    assert sorted(g.degree(v) for v in range(1, g.n + 1)) == sorted(
        h.degree(v) for v in range(1, h.n + 1)
    )


def test_cycle_path_families():
    assert cycle_graph(3).num_edges == 3
    assert path_graph(1).num_edges == 0
    assert path_graph(4).num_edges == 3
