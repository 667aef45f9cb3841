"""Memoized results live on the graph object and are freed with it."""

from __future__ import annotations

import gc
import weakref

from chromheap.chromatic import chromatic_polynomial
from chromheap.graphs import ascending_relabel, from_edge_list
from chromheap.reciprocity import (
    check_bivariate_reciprocity,
    check_greene_zaslavsky,
    check_shifted_reciprocity,
    check_sink_rooted,
    check_stanley_reciprocity,
)
from chromheap.series import verify_heap_identities
from chromheap.symfunc import verify_combined, verify_orientation_expansion, verify_split_alphabet

EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)]


def test_checked_graph_is_freed():
    g = from_edge_list(5, EDGES)
    assert chromatic_polynomial(g) is chromatic_polynomial(g)
    for i in range(g.n + 1):
        check_greene_zaslavsky(g, i)
    check_stanley_reciprocity(g, 2)
    check_shifted_reciprocity(g, 1, 1)
    check_bivariate_reciprocity(g, 1, 1)
    verify_split_alphabet(g, 2, 2)
    verify_orientation_expansion(g)
    verify_combined(g, 1, 1, 1)
    verify_heap_identities(g, 4)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_relabeled_graph_is_freed():
    g, _ = ascending_relabel(from_edge_list(5, EDGES))
    check_sink_rooted(g, 1, 1)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
