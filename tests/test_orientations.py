"""Acyclic orientation enumeration, source-components, subset tables."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from chromheap.config import Budget
from chromheap.errors import CyclicOrientation, NotAdjacent, ResourceBudgetExceeded
from chromheap.families import complete_graph, path_graph
from chromheap.graphs import from_edge_list, independence_table, induced_subgraph, iter_vertices, vset
from chromheap.orientations import (
    _closure_components,
    _closure_sinks,
    _closure_sources,
    _iter_acyclic_bits,
    acyclic_count_table,
    acyclic_orientation_list,
    assemble_orientation,
    check_tables_against_enumeration,
    count_bipolar,
    enumerate_acyclic,
    is_acyclic,
    is_descent_free,
    lambda_histogram,
    lambda_partition,
    restrict_orientation,
    sinks,
    source_component_histogram,
    source_components,
    sources,
    subgraph_acyclic_count,
    subgraph_source_mask_tally,
    subgraph_unique_source_count,
    unique_source_min_table,
)

from conftest import graphs


def test_c4_has_14_acyclic_orientations(c4):
    orientations = acyclic_orientation_list(c4)
    assert len(orientations) == 14
    assert len(set(orientations)) == 14
    assert all(is_acyclic(c4, o) for o in orientations)


def test_every_acyclic_orientation_has_a_source_and_sink(c4):
    for o in enumerate_acyclic(c4):
        assert sources(c4, o) != 0
        assert sinks(c4, o) != 0


@given(graphs(max_n=5))
@settings(max_examples=50, deadline=None)
def test_acyclic_count_is_chromatic_at_minus_one(g):
    # classic sanity link used throughout: a(G) = (-1)^n chi(-1)
    from chromheap.chromatic import chromatic_polynomial

    count = len(acyclic_orientation_list(g))
    assert count == (-1) ** g.n * chromatic_polynomial(g).evaluate(-1)


def test_source_components_partition_and_order(c4):
    for o in enumerate_acyclic(c4):
        comps = source_components(c4, o)
        union = 0
        for comp in comps:
            assert comp  # nonempty
            assert union & comp == 0  # disjoint
            union |= comp
        assert union == c4.full_mask
        # block minima increase left to right
        minima = [min(iter_vertices(c)) for c in comps]
        assert minima == sorted(minima)
        assert 1 in iter_vertices(comps[0]) or minima[0] == 1


def test_source_component_histogram_c4(c4):
    assert source_component_histogram(c4) == {1: 3, 2: 6, 3: 4, 4: 1}


def test_lambda_histogram_c4(c4):
    assert lambda_histogram(c4) == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 4,
        (3, 1): 4,
        (2, 2): 2,
        (4,): 3,
    }


def test_lambda_partition_sorts_block_sizes():
    assert lambda_partition((vset([1, 3]), vset([2]), vset([4, 5, 6]))) == (3, 2, 1)


def test_tables_match_enumeration(c4):
    a = acyclic_count_table(c4)
    b = unique_source_min_table(c4)
    for mask in range(1 << c4.n):
        assert a[mask] == subgraph_acyclic_count(c4, mask)
        if mask:
            h, labels = induced_subgraph(c4, mask)
            lowest = labels[0]
            want = sum(
                1 for o in enumerate_acyclic(h) if sources(h, o) == 1
            )
            assert b[mask] == want
            assert b[mask] == subgraph_unique_source_count(c4, mask, lowest)
    assert a[vset([1, 2])] == 2
    assert a[c4.full_mask] == 14
    assert b[c4.full_mask] == 3


@given(graphs(max_n=5))
@settings(max_examples=30, deadline=None)
def test_count_table_against_enumeration(g):
    a = acyclic_count_table(g)
    for mask in range(1 << g.n):
        h, _ = induced_subgraph(g, mask)
        assert a[mask] == len(acyclic_orientation_list(h))
    check_tables_against_enumeration(g)


def solved_tables(g):
    """a and b by the 3^n triangular solves over the subset lattice, with
    t[U] = (-1)^|U| on independent U: sum over U subset of V of t[U] a[V - U]
    is [V empty], and the same sum over U avoiding min(V), with b for a, is
    -t[V] for nonempty V.  Only independent U are visited."""
    independent = [U for U in range(1 << g.n) if independence_table(g)[U]]
    a, b = [0] * (1 << g.n), [0] * (1 << g.n)
    for V in range(1 << g.n):
        if not V:
            a[V] = 1
            continue
        low = V & -V
        a[V] = -sum((-1) ** U.bit_count() * a[V ^ U] for U in independent if U and U & V == U)
        b[V] = (-1) ** (V.bit_count() + 1) * (V in independent) - sum(
            (-1) ** U.bit_count() * b[V ^ U] for U in independent if U and U & (V ^ low) == U
        )
    return a, b


def _minus_edge(n):
    return from_edge_list(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)][1:])


def seeded_graph(n, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return from_edge_list(n, [e for e in pairs if rng.random() < rng.random()])


TABLE_CASES = (
    {f"G{n}-{seed}": seeded_graph(n, seed) for n in range(11) for seed in range(4)}
    | {f"K{n}": complete_graph(n) for n in range(1, 15)}
    | {f"K{n}-e": _minus_edge(n) for n in range(2, 15)}
    | {f"E{n}": from_edge_list(n, []) for n in range(11)}
)


@pytest.mark.parametrize("name", TABLE_CASES)
def test_tables_match_the_triangular_solve(name):
    # K_n and K_n minus an edge carry the widest digits: n^n heaps of n pieces
    g = TABLE_CASES[name]
    assert (acyclic_count_table(g), unique_source_min_table(g)) == solved_tables(g)


def test_tables_are_memoized_but_returned_fresh(c4):
    a = acyclic_count_table(c4)
    a[-1] = 0
    assert acyclic_count_table(c4)[-1] == 14
    assert unique_source_min_table(c4) is not unique_source_min_table(c4)


def test_tables_charge_their_entries_first(c4):
    with pytest.raises(ResourceBudgetExceeded):
        acyclic_count_table(c4, Budget(memo_entries=15))
    with pytest.raises(ResourceBudgetExceeded):
        unique_source_min_table(c4, Budget(memo_entries=15))
    assert acyclic_count_table(c4, Budget(memo_entries=16))[-1] == 14
    # a memoized table is still refused under a smaller budget
    with pytest.raises(ResourceBudgetExceeded):
        acyclic_count_table(c4, Budget(memo_entries=15))


def test_source_mask_tally_totals(c4):
    tally = dict(subgraph_source_mask_tally(c4, c4.full_mask))
    assert sum(tally.values()) == 14
    # exactly 3 orientations have source set {1}, matching b[full]
    assert tally.get(vset([1])) == 3


def test_bipolar_counts_require_adjacency(c4):
    with pytest.raises(NotAdjacent):
        count_bipolar(c4, 1, 3)
    # on a 4-cycle every edge supports the same bipolar count
    values = {count_bipolar(c4, u, v) for u, v in c4.edges}
    assert len(values) == 1


def test_bipolar_small_cases(k2):
    assert count_bipolar(k2, 1, 2) == 1
    # forcing sink 2 on the path 1-2-3 leaves two sources, so no bipolar one
    assert count_bipolar(path_graph(3), 1, 2) == 0


def test_restrict_and_assemble_roundtrip(c4):
    mask = vset([1, 2, 3])
    for o in enumerate_acyclic(c4):
        r = restrict_orientation(c4, o, mask)
        h, _ = induced_subgraph(c4, mask)
        assert is_acyclic(h, r)


def test_assemble_blocks_point_backwards(c4):
    # one block per vertex in the order 2, 4, 1, 3: every arc runs toward
    # the earlier block, so the early diagonal {2,4} collects all heads
    k1 = complete_graph(1)
    (triv,) = acyclic_orientation_list(k1)
    blocks = [(vset([v]), triv) for v in (2, 4, 1, 3)]
    o = assemble_orientation(c4, blocks)
    assert is_acyclic(c4, o)
    assert set(o.arcs) == {(1, 2), (1, 4), (3, 2), (3, 4)}
    assert sinks(c4, o) == vset([2, 4])
    assert sources(c4, o) == vset([1, 3])


def test_source_components_reject_cycles(k3):
    from chromheap.orientations import Orientation

    # K3 edges in order (1,2),(1,3),(2,3); flip only (1,3) to get the
    # cycle 1->2, 2->3, 3->1
    cyclic = Orientation(k3.edges, 0b010)
    with pytest.raises(CyclicOrientation):
        source_components(k3, cyclic)


def test_descent_free_definition(k2):
    o_up, o_down = sorted(
        acyclic_orientation_list(k2),
        key=lambda o: sources(k2, o),
    )
    for o in (o_up, o_down):
        src = sources(k2, o)
        colors_up = [1, 2] if src == vset([1]) else [2, 1]
        assert is_descent_free(k2, o, colors_up)
        assert not is_descent_free(k2, o, colors_up[::-1])
        assert is_descent_free(k2, o, [1, 1])


def test_complete_graph_orientation_count():
    # acyclic orientations of K_n are the n! linear orders
    assert len(acyclic_orientation_list(complete_graph(4))) == 24


def test_single_vertex_and_empty_edge_cases():
    k1 = complete_graph(1)
    (only,) = acyclic_orientation_list(k1)
    assert source_components(k1, only) == (1,)
    e2 = from_edge_list(2, [])
    (free,) = acyclic_orientation_list(e2)
    assert lambda_partition(source_components(e2, free)) == (1, 1)


@pytest.mark.parametrize("seed", range(24))
def test_closure_statistics_match_the_orientation_reference(seed):
    # each enumerator leaf carries its reachability closure; the source
    # components, sinks and sources read off it equal the graph-search
    # reference on the matching orientation of acyclic_orientation_list
    rng = random.Random(700 + seed)
    n = rng.randint(0, 7)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    g = from_edge_list(n, rng.sample(pairs, min(len(pairs), rng.randint(0, 12))))
    leaves = list(_iter_acyclic_bits(g.n, g.edges))
    orientations = acyclic_orientation_list(g)
    assert [bits for bits, _ in leaves] == [o.bits for o in orientations]
    for (_, reach), o in zip(leaves, orientations):
        assert _closure_components(reach, g.full_mask) == source_components(g, o)
        assert _closure_sinks(reach) == sinks(g, o)
        assert _closure_sources(reach, g.full_mask) == sources(g, o)
