import itertools

import pytest

from dgcsp.gadget import (GadgetDigraph, build_gadget, build_path,
                          count_formula, elem_name, tup_name)
from dgcsp.reductions import compute_levels
from dgcsp.structures import (EmptyRelationError, InvalidStructureError,
                              RelationalStructure, SizeGuardError,
                              collapse_to_single_relation)
from dgcsp.templates import one_element, parity_template, two_cycle


def test_count_formula_pinned_values():
    assert count_formula(2, 2, 2) == (24, 24)
    assert count_formula(2, 4, 4) == (78, 80)
    assert count_formula(1, 1, 1) == (4, 3)


def test_path_shape():
    p = build_path({1, 3}, 3)
    # one initial edge, sections 1 and 3 single, section 2 a zigzag,
    # one final edge
    assert p.num_vertices == 3 * 3 + 2 - 2 * 2 + 1
    assert p.single_edges == {1, 3}
    lv = p.levels()
    assert lv[0] == 0 and lv[-1] == 5
    assert max(lv) == 5


def test_path_levels_and_realization():
    # a connecting path never dips below its start, so its running sums
    # are already the levels of the digraph it realizes
    for k in range(1, 5):
        for r in range(k + 1):
            for coords in itertools.combinations(range(1, k + 1), r):
                p = build_path(set(coords), k)
                g = p.realize("v")
                leveled = compute_levels(g)
                assert p.levels() == tuple(leveled.by_position)
                assert p.levels()[-1] == k + 2

    p = build_path(set(), 1)
    assert p.word == (1, 1, -1, 1, 1)
    g = p.realize("v")
    assert g.vertices == ("v0", "v1", "v2", "v3", "v4", "v5")
    assert set(g.edges) == {("v0", "v1"), ("v1", "v2"), ("v3", "v2"),
                            ("v3", "v4"), ("v4", "v5")}


def test_path_rejects_bad_coordinates():
    with pytest.raises(InvalidStructureError):
        build_path({0}, 2)
    with pytest.raises(InvalidStructureError):
        build_path({3}, 2)


@pytest.fixture(scope="module")
def gadget():
    return build_gadget(two_cycle())


class TestTwoCycleGadget:

    def test_counts(self, gadget):
        assert gadget.digraph.num_vertices() == 24
        assert gadget.digraph.num_edges() == 24

    def test_every_edge_climbs_one_level(self, gadget):
        for u, v in gadget.digraph.edges:
            assert gadget.levels[v] == gadget.levels[u] + 1

    def test_endpoint_vertices(self, gadget):
        for a in gadget.template.domain:
            assert gadget.levels[elem_name(a)] == 0
        for r in gadget.relation.tuples:
            assert gadget.levels[tup_name(r)] == gadget.height

    def test_one_path_per_element_tuple_pair(self, gadget):
        assert len(gadget.paths) == 4
        for (a, r), path in gadget.paths.items():
            assert path.vertices[0] == elem_name(a)
            assert path.vertices[-1] == tup_name(r)
            singles = frozenset(i + 1 for i, x in enumerate(r) if x == a)
            assert path.qpath.single_edges == singles

    def test_peaks_and_valleys(self, gadget):
        g = gadget.digraph
        for v in g.vertices:
            info = gadget.vertex_info[v]
            if info.kind != "path":
                continue
            i = g.index(v)
            if not g.succ[i]:
                # a peak: entered from both sides, strictly interior level
                assert len(g.pred[i]) == 2
                assert 2 <= gadget.levels[v] <= gadget.k + 1
            if not g.pred[i]:
                assert len(g.succ[i]) == 2
                assert 1 <= gadget.levels[v] <= gadget.k


def test_parity_gadget_counts():
    gad = build_gadget(parity_template())
    assert (gad.digraph.num_vertices(), gad.digraph.num_edges()) == (78, 80)


def test_one_element_gadget_counts():
    gad = build_gadget(one_element())
    assert (gad.digraph.num_vertices(), gad.digraph.num_edges()) == (4, 3)


def test_size_guard():
    # 65 elements and 64 unary tuples make 4,160 connecting paths
    big = RelationalStructure(range(65), [("R", 1, [(i,) for i in range(64)])])
    with pytest.raises(SizeGuardError, match="4160 connecting paths"):
        GadgetDigraph(big)


def test_multi_relation_template_gets_the_gadget_of_its_collapse():
    s = RelationalStructure(
        ["0", "1"],
        [("P", 1, [("0",), ("1",)]), ("Q", 2, [("0", "1"), ("1", "0")])])
    col = collapse_to_single_relation(s).structure
    gad = build_gadget(s)
    assert gad.template is s and gad.k == 3
    assert gad.relation == col.relations[0]
    assert gad.digraph == build_gadget(col).digraph
    assert gad.levels == build_gadget(col).levels


@pytest.mark.parametrize("relations", [[], [("R", 1, [])],
                                       [("P", 1, [("0",)]), ("Q", 2, [])]])
def test_template_without_tuples_is_rejected_by_the_collapse(relations):
    with pytest.raises(EmptyRelationError):
        build_gadget(RelationalStructure(["0"], relations))


def test_size_guard_counts_the_collapse_before_building_it():
    # 65 elements times 65 * 64 collapsed tuples, counted without
    # building the 4,160-tuple collapse
    s = RelationalStructure(range(65), [("P", 1, [(i,) for i in range(65)]),
                                        ("Q", 1, [(i,) for i in range(64)])])
    with pytest.raises(SizeGuardError, match="270400 connecting paths"):
        build_gadget(s)
