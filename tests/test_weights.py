"""Arc weights: (base, perturb) int pairs, as Dijkstra and contraction use
them. Pairs compare lexicographically and add componentwise."""

from __future__ import annotations

from planar_mssp import EmbeddedDigraph, build_graph, sssp_tree
from planar_mssp.contraction import SelectedTree, contract_tree
from tests.conftest import arcs_by_id
from tests.test_contraction import TRIANGLE


def two_ways_to_1(direct, first, second) -> EmbeddedDigraph:
    """Arcs 0->1 (slot 0), 0->2 (slot 1) and 2->1 (slot 2) of the given
    weights: vertex 1 is reached directly or by way of 2."""
    g = EmbeddedDigraph()
    for v in range(3):
        g.add_vertex(v)
    g.add_slot(0, 1, direct, None)
    g.add_slot(0, 2, first, None)
    g.add_slot(2, 1, second, None)
    return g


def test_base_dominates_perturb():
    # (1, 10**18) beats (2, 0): a smaller base wins whatever the perturbations
    tree = sssp_tree(two_ways_to_1((1, 10**18), (1, 0), (1, 0)), 0)
    assert tree.dist[1] == (1, 10**18)
    assert tree.parent_dart[1] == 1


def test_order_matches_tuple_order():
    # equal bases: the smaller perturbation, (2, 2) by way of 2, beats (2, 5)
    tree = sssp_tree(two_ways_to_1((2, 5), (1, 1), (1, 1)), 0)
    assert tree.dist[1] == (2, 2)
    assert tree.parent_dart[1] == 5


def test_addition_componentwise():
    # contracting 1 into 0 with delta (2, 7) moves 1->2 (3, 0) to 0->2 as
    # (5, 7), which beats 0->2 (10, 0)
    g = build_graph(3, TRIANGLE)
    contract_tree(g, [SelectedTree([0, 1], [-1, 1], [0, 2], [0, 7])])
    assert arcs_by_id(g) == [(2, 0, 2, (5, 7)), (5, 2, 0, (5, 0))]


def test_zero_is_identity():
    # a zero delta leaves the moved arc's weight as it was, and a root is
    # at distance (0, 0)
    g = build_graph(3, TRIANGLE)
    contract_tree(g, [SelectedTree([0, 1], [-1, 1], [0, 0], [0, 0])])
    assert arcs_by_id(g) == [(2, 0, 2, (3, 0)), (5, 2, 0, (5, 0))]
    assert sssp_tree(g, 0).dist[0] == (0, 0)
