import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcsp import selftest
from dgcsp.gadget import build_gadget
from dgcsp.reductions import (GeneralizedHyperedge, LevelingFailure, Reduced,
                              backward_reduce, compute_levels,
                              forward_translate, stage3a_from_json,
                              stage3a_to_json)
from dgcsp.solver import digraph_hom
from dgcsp.structures import (Digraph, EmptyRelationError,
                              InvalidStructureError,
                              RelationalStructure,
                              collapse_to_single_relation,
                              collapsed_signature, digraph_to_dot)
from dgcsp.templates import leq_template, two_cycle


def test_structure_normalizes_names_and_tuples():
    s = RelationalStructure([0, 1], [("E", 2, [(0, 1), (1, 0), (0, 1)])])
    assert s.domain == ("0", "1")
    assert s.relation("E").tuples == (("0", "1"), ("1", "0"))


def test_structure_rejects_bad_tuples():
    with pytest.raises(InvalidStructureError):
        RelationalStructure(["a"], [("R", 2, [("a",)])])
    with pytest.raises(InvalidStructureError):
        RelationalStructure(["a"], [("R", 1, [("b",)])])
    with pytest.raises(InvalidStructureError):
        RelationalStructure(["a", "a"], [("R", 1, [("a",)])])


@pytest.mark.parametrize("vertices, edges, named", [
    (["a", "b", "a"], [], "'a'"),
    (["a", "b"], [("a", "z")], "'z'"),
    (["a", "b"], [("a", "b", "a")], "arity 2"),
])
def test_digraph_errors_name_the_offender(vertices, edges, named):
    with pytest.raises(InvalidStructureError, match=named):
        Digraph(vertices, edges)


def test_empty_digraph_is_an_empty_structure():
    g = Digraph([], [])
    assert g.as_structure() == RelationalStructure([], [("E", 2, [])])
    loop = Digraph(["a"], [("a", "a")])
    assert digraph_hom(g, loop) == {}
    assert digraph_hom(loop, g) is None


def test_structure_json_round_trip():
    s = leq_template()
    again = RelationalStructure.from_json(s.to_json())
    assert again.domain == s.domain
    assert again.relations == s.relations


def test_structure_from_json_rejects_empty_relation():
    with pytest.raises(EmptyRelationError):
        RelationalStructure.from_json(
            {"domain": ["a"], "relations": [{"name": "R", "arity": 1,
                                            "tuples": []}]})


def test_digraph_basics():
    g = Digraph(["b", "a", "c"], [("a", "b"), ("b", "c"), ("a", "b")])
    assert g.vertices == ("b", "a", "c")
    assert g.num_edges() == 2
    assert g.succ == ((2,), (0,), ())
    assert g.pred == ((1,), (), (0,))
    with pytest.raises(InvalidStructureError):
        Digraph(["a"], [("a", "z")])


def test_digraph_weak_components_ignore_direction():
    g = Digraph(["a", "b", "c", "d", "e"],
                [("b", "a"), ("c", "b"), ("e", "d")])
    comps = g.weak_components()
    assert [sorted(c) for c in comps] == [["a", "b", "c"], ["d", "e"]]


def test_induced_subgraph_keeps_order():
    g = Digraph(["x", "y", "z"], [("x", "y"), ("y", "z")])
    h = g.induced(["z", "x", "y"])
    assert h.vertices == ("x", "y", "z")
    assert h.edges == g.edges


def test_digraph_as_structure_and_back():
    g = two_cycle()
    d = Digraph(g.domain, g.relation("E").tuples)
    s = d.as_structure()
    assert s.relation("E").tuples == d.edges
    assert d.as_structure() is s
    assert Digraph.from_json(d.to_json()) == d


@st.composite
def named_digraphs(draw):
    """Vertex names, all ints or all strings, and an edge list over them
    with repeated edges, in shuffled order."""
    if draw(st.booleans()):
        names = st.integers(-3, 40)
    else:
        names = st.text("abxy01", min_size=1, max_size=3)
    vertices = draw(st.lists(names, unique=True, min_size=1, max_size=8))
    edges = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                    st.sampled_from(vertices)), max_size=20))
    repeats = draw(st.integers(0, len(edges)))
    return vertices, draw(st.permutations(edges + edges[:repeats]))


def json_round_trip(obj):
    return json.loads(json.dumps(obj))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(named_digraphs(), st.data())
def test_digraph_is_its_edge_structure_and_survives_json(case, data):
    vertices, edges = case
    g = Digraph(vertices, edges)
    s = RelationalStructure(vertices, [("E", 2, edges)])
    assert g.as_structure() == s
    position = {str(v): i for i, v in enumerate(vertices)}
    assert g.vertices == tuple(map(str, vertices))
    assert g.edges == tuple(sorted(
        {(str(u), str(v)) for u, v in edges},
        key=lambda e: (position[e[0]], position[e[1]])))
    assert Digraph.from_json(json_round_trip(g.to_json())) == g
    if edges:
        assert RelationalStructure.from_json(json_round_trip(s.to_json())) == s
    entry = st.frozensets(st.sampled_from(g.vertices), min_size=1)
    hyperedges = tuple(
        GeneralizedHyperedge(entries, label)
        for entries, label in data.draw(st.lists(st.tuples(
            st.lists(entry, min_size=1, max_size=3).map(tuple),
            st.none() | st.sampled_from(g.vertices)), max_size=4)))
    equalities = tuple(data.draw(st.lists(st.tuples(
        st.sampled_from(g.vertices), st.sampled_from(g.vertices)),
        max_size=4)))
    assert stage3a_from_json(json_round_trip(
        stage3a_to_json(hyperedges, equalities))) == (hyperedges, equalities)


def test_compute_levels_normalizes_per_component():
    g = Digraph(["a", "b", "p", "q", "r"],
                [("a", "b"), ("p", "q"), ("q", "r")])
    out = compute_levels(g)
    assert not isinstance(out, LevelingFailure)
    lv = dict(zip(g.vertices, out.by_position))
    assert lv[("a")] == 0 and lv["b"] == 1
    assert lv["p"] == 0 and lv["r"] == 2
    assert out.height == 2


def test_level_assignments_of_different_digraphs_differ():
    """Two level assignments of the same height are not equal unless they
    are the same object."""
    one = compute_levels(Digraph(["a", "b"], [("a", "b")]))
    other = compute_levels(Digraph(["x", "y", "z"], [("y", "z")]))
    assert one.height == other.height == 1
    assert one != other
    assert len({one, other}) == 2
    assert one == one
    assert build_gadget(two_cycle()).levels != build_gadget(leq_template()).levels


def test_compute_levels_detects_imbalance():
    # a 3-cycle cannot climb one level per edge
    g = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    out = compute_levels(g)
    assert isinstance(out, LevelingFailure)
    assert out.reason == "not balanced"


def test_compute_levels_hands_back_the_weak_components():
    rng = random.Random(4)
    leveled = 0
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 10))]
        rng.shuffle(names)
        g = Digraph(names, [(rng.choice(names), rng.choice(names))
                            for _ in range(rng.randint(0, 6))])
        lv = compute_levels(g)
        if not isinstance(lv, LevelingFailure):
            leveled += 1
            assert [[g.vertices[v] for v in c]
                    for c in lv.position_components] == g.weak_components()
    assert leveled > 100


def test_collapse_concatenates_relations():
    s = RelationalStructure(
        ["0", "1"],
        [("P", 1, [("0",), ("1",)]), ("E", 2, [("0", "1")])])
    (rel,) = collapse_to_single_relation(s).structure.relations
    assert (rel.name, rel.arity) == collapsed_signature(s) == ("R", 3)
    assert set(rel.tuples) == {("0", "0", "1"), ("1", "0", "1")}


def test_collapse_passes_single_relation_through():
    s = two_cycle()
    col = collapse_to_single_relation(s)
    assert col.structure is s
    assert collapsed_signature(s) == ("E", 2)


def test_induced_matches_filtering_every_edge():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 9)
        names = [f"v{i}" for i in range(n)]
        rng.shuffle(names)
        g = Digraph(names, [(u, w) for u in names for w in names
                            if rng.random() < 0.3])
        keep = [v for v in names if rng.random() < 0.6] + ["unknown"]
        rng.shuffle(keep)
        sub = g.induced(keep)
        assert sub.vertices == tuple(v for v in g.vertices if v in keep)
        assert sub.edges == tuple(e for e in g.edges
                                  if e[0] in keep and e[1] in keep)


def test_dot_output_mentions_every_vertex():
    g = Digraph(["u", "v"], [("u", "v")])
    lv = dict(zip(g.vertices, compute_levels(g).by_position))
    dot = digraph_to_dot(g, levels=lv)
    assert '"u" -> "v";' in dot
    assert "rank=same" in dot
    assert dot.endswith("}\n")


def _structures_and_inputs():
    """Structures with the relation tuples they were built from: 200
    random templates rebuilt over a shuffled domain from integer tuples
    with repeats (arities 1 to 4), digraphs with shuffled vertex order
    and repeated edges, and an empty relation next to a 4-ary one."""
    rng = random.Random(16)
    for _ in range(200):
        (r,) = selftest.random_template(rng).relations
        given = [tuple(map(int, t)) for t in r.tuples]
        given += rng.choices(given, k=rng.randint(0, 3))
        rng.shuffle(given)
        domain = list(range(max(map(max, given)) + rng.randint(1, 3)))
        rng.shuffle(domain)
        yield (RelationalStructure(domain, [("R", r.arity, given)]),
               {"R": given})
    for _ in range(50):
        names = [f"v{i}" for i in range(rng.randint(0, 9))]
        rng.shuffle(names)
        edges = [(rng.choice(names), rng.choice(names))
                 for _ in range(rng.randint(0, 12) if names else 0)]
        g = Digraph(names, edges + edges[:2])
        yield g.as_structure(), {"E": edges}
    quad = [(3, 1, 2, 0), (0, 0, 0, 0), (3, 1, 2, 0), (1, 3, 0, 2)]
    yield RelationalStructure(
        [3, 1, 0, 2], [("Q", 4, quad), ("P", 1, [(2,)]),
                       ("Z", 3, [])]), {"Q": quad, "P": [(2,)], "Z": []}


def test_positions_agree_with_names():
    """Each relation keeps its tuples as domain positions, one column per
    coordinate; mapped through the domain they give ``tuples`` in order,
    and that order is the input's distinct tuples sorted by position."""
    for s, given in _structures_and_inputs():
        index = {x: i for i, x in enumerate(s.domain)}
        for r in s.relations:
            positions = sorted({tuple(index[str(x)] for x in t)
                                for t in given[r.name]})
            assert r.tuples == tuple(tuple(s.domain[i] for i in p)
                                     for p in positions)
            assert len(r.columns) == r.arity
            assert list(zip(*r.columns)) == positions
            assert [tuple(s.domain[i] for i in p)
                    for p in zip(*r.columns)] == list(r.tuples)


def test_structures_compare_by_domain_order_and_tuple_set():
    """Rebuilt from its tuples reversed and with repeats, a structure is
    equal and hashes equal; one tuple fewer, or the same positions over
    renamed elements, give a structure that is not equal."""
    for s, given in _structures_and_inputs():
        again = RelationalStructure(
            s.domain, [(r.name, r.arity, given[r.name][::-1] + given[r.name])
                       for r in s.relations])
        assert again == s and hash(again) == hash(s)
        fewer = RelationalStructure(
            s.domain, [(r.name, r.arity, r.tuples[1:]) for r in s.relations])
        assert (fewer == s) == all(not r.tuples for r in s.relations)
        renamed = RelationalStructure(
            [f"{x}'" for x in s.domain],
            [(r.name, r.arity, [tuple(f"{x}'" for x in t) for t in r.tuples])
             for r in s.relations])
        assert [r.columns for r in renamed.relations] == \
            [r.columns for r in s.relations]
        assert (renamed == s) == (not s.domain)


def test_names_are_read_off_positions_only_when_asked():
    """Collapsing a single-relation template and the forward and backward
    reductions of a forward digraph build no name tuples; reading
    ``edges`` afterwards gives the edges in position order."""
    template = two_cycle()
    collapse_to_single_relation(template)
    assert "tuples" not in vars(template.relations[0])
    instance = RelationalStructure(
        [f"c{i}" for i in range(5)],
        [("E", 2, [(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)])])
    forward = forward_translate(instance, two_cycle()).digraph
    assert "tuples" not in vars(forward.as_structure().relations[0])
    obj = forward.to_json()
    g = Digraph.from_json(obj)
    assert isinstance(backward_reduce(g, two_cycle()), Reduced)
    assert "tuples" not in vars(g.as_structure().relations[0])
    index = {v: i for i, v in enumerate(obj["vertices"])}
    assert g.edges == tuple(sorted(
        {tuple(e) for e in obj["edges"]},
        key=lambda e: (index[e[0]], index[e[1]])))
    assert g.as_structure().relations[0].tuples is g.edges


def _position_relations(rng, n):
    """Relations over n elements as ``(name, arity, columns)`` triples of
    positions: one of each arity 1 to 4, tuples unsorted and repeated,
    and one empty relation of a random arity."""
    rels = []
    for k, arity in enumerate([1, 2, 3, 4, rng.randint(1, 4)]):
        count = rng.randint(1, 20) if n and k < 4 else 0
        tuples = [tuple(rng.randrange(n) for _ in range(arity))
                  for _ in range(count)]
        tuples += rng.choices(tuples, k=count // 2) if tuples else []
        rng.shuffle(tuples)
        columns = [list(c) for c in zip(*tuples)] or [[]] * arity
        rels.append((f"R{k}", arity, columns))
    return rels


def test_positional_entry_matches_the_checking_constructor():
    """A structure built from position columns through ``_of_columns``
    equals the one the checking constructor builds from the same tuples
    written as names, column for column and tuple for tuple, on random
    domains of 0 to 6 names; a digraph over either's binary relations has
    the same adjacency."""
    rng = random.Random(29)
    for _ in range(300):
        domain = tuple(map(str, rng.sample(range(100), rng.randint(0, 6))))
        rels = _position_relations(rng, len(domain))
        fast = RelationalStructure._of_columns(domain, rels)
        checked = RelationalStructure(
            domain, [(name, arity, [tuple(map(domain.__getitem__, t))
                                    for t in zip(*columns)])
                     for name, arity, columns in rels])
        assert fast == checked
        assert fast.domain == checked.domain
        for a, b in zip(fast.relations, checked.relations, strict=True):
            assert a.columns == b.columns
            assert a.tuples == b.tuples
            if a.arity == 2:
                ga, gb = Digraph(domain, a.tuples), Digraph(domain, b.tuples)
                assert ga.as_structure().relations[0].columns == a.columns
                assert (ga.succ, ga.pred) == (gb.succ, gb.pred)


# -- adjacency by position against the name walks ----------------------


def _name_adjacency(g):
    out = {v: [] for v in g.vertices}
    inc = {v: [] for v in g.vertices}
    for u, v in g.edges:
        out[u].append(v)
        inc[v].append(u)
    return out, inc


def _levels_by_name(g, max_height=None):
    """The leveling as a walk over vertex names: (levels, height,
    components), or (reason, detail) of the failure."""
    out, inc = _name_adjacency(g)
    levels = {}
    components = []
    height = 0
    for start in g.vertices:
        if start in levels:
            continue
        tentative = {start: 0}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in out[v]:
                if w in tentative:
                    if tentative[w] != tentative[v] + 1:
                        return ("not balanced",
                                f"edge ({v}, {w}) closes an unbalanced cycle")
                else:
                    tentative[w] = tentative[v] + 1
                    stack.append(w)
            for w in inc[v]:
                if w in tentative:
                    if tentative[w] != tentative[v] - 1:
                        return ("not balanced",
                                f"edge ({w}, {v}) closes an unbalanced cycle")
                else:
                    tentative[w] = tentative[v] - 1
                    stack.append(w)
        low = min(tentative.values())
        for v, l in tentative.items():
            levels[v] = l - low
        height = max(height, max(tentative.values()) - low)
        components.append(sorted(tentative, key=g.index))
    if max_height is not None and height > max_height:
        return ("too tall", f"height {height} exceeds bound {max_height}")
    return levels, height, components


def _weak_components_by_name(g):
    out, inc = _name_adjacency(g)
    seen = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in out[v] + inc[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort(key=g.index)
        comps.append(comp)
    return comps


def _induced_by_name(g, vertices):
    out, _ = _name_adjacency(g)
    keep = {v for v in vertices if v in g}
    vs = sorted(keep, key=g.index)
    return vs, [(u, w) for u in vs for w in out[u] if w in keep]


def _position_test_digraphs():
    """300 seeded digraphs, with a height bound or none: balanced ones
    (levelled by construction), unbalanced ones with loops, isolated
    vertices, repeated edges and shuffled vertex order, the empty
    digraph, and names like "10" and "9" whose name order is not their
    position order."""
    rng = random.Random(17)
    yield Digraph([], []), None
    for case in range(299):
        n = rng.randint(1, 12)
        if case % 3 == 0:
            names = [str(i) for i in range(n)]
        else:
            names = [f"v{i}" for i in range(n)]
        rng.shuffle(names)
        if case % 2 == 0:
            lv = {v: rng.randint(0, 4) for v in names}
            edges = [(u, w) for u in names for w in names
                     if lv[w] == lv[u] + 1 and rng.random() < 0.3]
        else:
            edges = [(rng.choice(names), rng.choice(names))
                     for _ in range(rng.randint(0, n + 2))]
            edges += [(v, v) for v in names if rng.random() < 0.05]
        edges += rng.choices(edges, k=min(len(edges), 2))
        rng.shuffle(edges)
        yield Digraph(names, edges), rng.choice((None, 0, 1, 2))


def test_position_walks_match_the_name_walks():
    """Leveling, weak components, induced subgraphs and neighbour tuples
    equal those of walks over vertex names, failures included, word for
    word (the CLI prints the detail)."""
    rng = random.Random(18)
    kinds = {"leveled": 0, "not balanced": 0, "too tall": 0}
    for g, bound in _position_test_digraphs():
        out, inc = _name_adjacency(g)
        for v in g.vertices:
            i, name = g.index(v), g.vertices.__getitem__
            assert tuple(map(name, g.succ[i])) == tuple(out[v])
            assert tuple(map(name, g.pred[i])) == tuple(inc[v])
        assert g.weak_components() == _weak_components_by_name(g)
        keep = [v for v in g.vertices if rng.random() < 0.6] + ["unknown"]
        rng.shuffle(keep)
        sub = g.induced(keep)
        vs, es = _induced_by_name(g, keep)
        assert sub.vertices == tuple(vs) and sub.edges == tuple(es)

        got = compute_levels(g, max_height=bound)
        want = _levels_by_name(g, max_height=bound)
        if isinstance(got, LevelingFailure):
            assert (got.reason, got.detail) == want
            kinds[got.reason] += 1
            continue
        levels, height, components = want
        assert dict(zip(g.vertices, got.by_position)) == levels
        assert got.by_position == [levels[v] for v in g.vertices]
        assert got.height == height
        assert [[g.vertices[v] for v in c]
                for c in got.position_components] == components
        kinds["leveled"] += 1
    assert min(kinds.values()) > 30, kinds
