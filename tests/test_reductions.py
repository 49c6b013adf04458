import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcsp import cli, gadget, reductions, structures
from dgcsp.cli import main
from dgcsp.gadget import build_gadget, build_path
from dgcsp.reductions import (Definite, Reduced, TemplateTrivialError,
                              amalgamate, backward_reduce, compute_levels,
                              forced_positions, forward_translate,
                              materialize, stage3a_from_json,
                              stage3a_to_json)
from dgcsp.selftest import (random_balanced_digraph, random_instance_pair,
                            random_template)
from dgcsp.solver import (DEFAULT_BUDGET, BudgetExhausted, digraph_hom,
                          digraph_hom_exists, find_homomorphism)
from dgcsp.structures import (Digraph, EmptyRelationError,
                              RelationalStructure, SizeGuardError,
                              collapse_to_single_relation)
from dgcsp.templates import parity_template, two_cycle


def solved(instance, template):
    col = collapse_to_single_relation(template)
    return find_homomorphism(instance, col.structure) is not None


# -- forward ----------------------------------------------------------


def test_forward_keeps_variables_at_level_zero():
    t = two_cycle()
    inst = RelationalStructure(["x", "y"], [("E", 2, [("x", "y")])])
    fr = forward_translate(inst, t)
    assert "x" in fr.digraph and "y" in fr.digraph
    assert not fr.digraph.pred[fr.digraph.index("x")]
    assert len(fr.tops) == 1


def test_forward_equivalence_small_cases():
    t = two_cycle()
    sat = RelationalStructure(
        ["a", "b"], [("E", 2, [("a", "b"), ("b", "a")])])
    unsat = RelationalStructure(["a"], [("E", 2, [("a", "a")])])
    gad = build_gadget(t)
    for inst, expect in ((sat, True), (unsat, False)):
        fr = forward_translate(inst, t)
        assert digraph_hom_exists(fr.digraph, gad.digraph) is expect
        assert (find_homomorphism(inst, t) is not None) is expect


def test_forward_handles_unconstrained_variable():
    t = two_cycle()
    inst = RelationalStructure(
        ["x", "y", "lonely"], [("E", 2, [("x", "y")])])
    fr = forward_translate(inst, t)
    assert "lonely" in fr.digraph
    gad = build_gadget(t)
    assert digraph_hom_exists(fr.digraph, gad.digraph)


def fresh_sequence(prefix, reserved):
    """The names a fresh-name counter may hand out, in order."""
    return (f"{prefix}{n}" for n in itertools.count(1)
            if f"{prefix}{n}" not in reserved)


def test_forward_fresh_names_skip_the_variables():
    """Every name the forward translation makes up is the next one of
    v1, v2, ... that is not an instance variable, and none repeats."""
    t = parity_template()
    inst = RelationalStructure(
        ["v2", "a", "v5", "v1x"],
        [("R", 4, [("v2", "a", "v5", "v1x"), ("a", "a", "v2", "v5")])])
    fr = forward_translate(inst, t)
    made = fr.digraph.vertices[len(inst.domain):]
    assert list(made) == list(itertools.islice(
        fresh_sequence("v", set(inst.domain)), len(made)))
    assert "v2" not in made and "v5" not in made


def test_forward_multi_relation_template():
    t = RelationalStructure(
        ["0", "1"],
        [("P", 1, [("1",)]), ("E", 2, [("0", "1"), ("1", "0")])])
    inst = RelationalStructure(
        ["x", "y"], [("P", 1, [("x",)]), ("E", 2, [("x", "y")])])
    fr = forward_translate(inst, t)
    gad = build_gadget(t)
    assert digraph_hom_exists(fr.digraph, gad.digraph)
    # forcing x into P and onto y's partner both ways is still fine,
    # but P(x) & P(y) & E(x,y) is not
    bad = RelationalStructure(
        ["x", "y"],
        [("P", 1, [("x",), ("y",)]), ("E", 2, [("x", "y")])])
    fr2 = forward_translate(bad, t)
    assert not digraph_hom_exists(fr2.digraph, gad.digraph)


def refuse_collapse(monkeypatch):
    """Make every call of the package's collapse fail, through any
    module that binds its name."""
    def refuse(template):
        raise AssertionError("the collapse was built")

    for module in (structures, reductions, gadget, cli):
        monkeypatch.setattr(module, "collapse_to_single_relation", refuse,
                            raising=False)


def big_and_small_templates():
    """Four unary relations of 25 tuples over 25 elements, which
    collapse to 390,625 tuples, and one element with the same four."""
    names = ["P", "Q", "S", "U"]
    big = RelationalStructure(range(25), [(r, 1, [(i,) for i in range(25)])
                                          for r in names])
    small = RelationalStructure(["0"], [(r, 1, [("0",)]) for r in names])
    return big, small


def test_forward_reads_the_arity_without_building_the_collapse(monkeypatch):
    """Forward reads only k = 4 of the big template and gives the
    digraph it gives for any template of the same signature."""
    refuse_collapse(monkeypatch)
    big, small = big_and_small_templates()
    inst = RelationalStructure(["x"], [("P", 1, [("x",)])])
    assert (forward_translate(inst, big).digraph
            == forward_translate(inst, small).digraph)


def test_backward_reads_the_signature_without_building_the_collapse(
        monkeypatch, tmp_path, capsys):
    """Backward, and amalgamating its hyperedge file against a template,
    read only the name and arity of the big template's collapse, and
    give what they give for the one-element template."""
    refuse_collapse(monkeypatch)
    big, small = big_and_small_templates()
    inst = RelationalStructure(["x"], [("P", 1, [("x",)])])
    g = forward_translate(inst, small).digraph
    outs = [backward_reduce(g, t) for t in (big, small)]
    assert all(isinstance(out, Reduced) for out in outs)
    assert len({(out.instance, out.hyperedges, out.equalities)
                for out in outs}) == 1
    f = tmp_path / "s3a.json"
    f.write_text(json.dumps(stage3a_to_json(outs[0].hyperedges,
                                            outs[0].equalities)))
    printed = []
    for t in (big, small):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(t.to_json()))
        assert main(["backward", str(path), "--from-stage3a", str(f)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert json.loads(printed[0])["relations"][0]["arity"] == 4


@pytest.mark.parametrize("relations", [[], [("R", 1, [])],
                                       [("P", 1, [("0",)]), ("Q", 2, [])]])
def test_forward_rejects_a_template_without_tuples(relations):
    inst = RelationalStructure(["x"], [])
    with pytest.raises(EmptyRelationError):
        forward_translate(inst, RelationalStructure(["0"], relations))


def _big_forward_instance():
    """2,000 variables under 3,000 binary and 300 unary constraints, over
    a two-relation template, so every block holds pad variables."""
    rng = random.Random(5)
    vs = [f"u{i}" for i in range(2000)]
    es = {(rng.choice(vs), rng.choice(vs)) for _ in range(3000)}
    us = {(rng.choice(vs),) for _ in range(300)}
    return RelationalStructure(vs, [("E", 2, sorted(es)),
                                    ("U", 1, sorted(us))])


def test_forward_digraphs_match_their_digest():
    """The forward digraphs of 300 seeded random instance pairs (one or
    two relations, so blocks with padded slices) and of one 2,000-variable
    instance, vertex and edge order included."""
    rng = random.Random(19)
    digest = hashlib.sha256()
    cases = [random_instance_pair(rng) for _ in range(300)]
    two_cycle_and_one = RelationalStructure(
        ["0", "1"], [("E", 2, [("0", "1"), ("1", "0")]), ("U", 1, [("1",)])])
    cases.append((two_cycle_and_one, _big_forward_instance()))
    for template, instance in cases:
        g = forward_translate(instance, template).digraph
        digest.update(json.dumps(g.to_json()).encode())
    assert digest.hexdigest() == (
        "783d909e2c9f5c84e0f567f9a5601f1f0b510fffae529d9aae33a4cdddd4d1ce")


# -- backward ---------------------------------------------------------


def test_backward_rejects_unbalanced():
    g = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    out = backward_reduce(g, two_cycle())
    assert isinstance(out, Definite) and out.answer is False
    assert "balanced" in out.reason


def test_backward_rejects_too_tall():
    g = Digraph([f"v{i}" for i in range(6)],
                [(f"v{i}", f"v{i+1}") for i in range(5)])
    out = backward_reduce(g, two_cycle())
    assert isinstance(out, Definite) and out.answer is False
    assert "tall" in out.reason


def test_backward_short_components_settle_immediately():
    g = Digraph(["u", "v", "w"], [("u", "v")])
    out = backward_reduce(g, two_cycle())
    assert isinstance(out, Definite) and out.answer is True


def test_backward_straight_full_height_path():
    """A path climbing straight through every level needs a reflexive
    edge in the template, which the 2-cycle does not have."""
    g = Digraph([f"v{i}" for i in range(5)],
                [(f"v{i}", f"v{i+1}") for i in range(4)])
    out = backward_reduce(g, two_cycle())
    assert isinstance(out, Reduced)
    assert not solved(out.instance, two_cycle())
    assert not digraph_hom_exists(g, build_gadget(two_cycle()).digraph)


def test_backward_gadget_maps_to_itself():
    gad = build_gadget(two_cycle())
    out = backward_reduce(gad.digraph, two_cycle())
    if isinstance(out, Definite):
        assert out.answer is True
    else:
        assert solved(out.instance, two_cycle())


def standins_digraph():
    """A zigzag spine up the whole height, plus a separate straight run
    through the interior that only touches the rest at a top vertex."""
    spine = build_path(frozenset(), 4).realize("z")
    cvs = [f"c{i}" for i in range(1, 6)]
    verts = list(spine.vertices) + cvs
    edges = list(spine.edges) + [(cvs[i], cvs[i + 1]) for i in range(4)]
    edges.append((cvs[-1], spine.vertices[-1]))
    return Digraph(verts, edges)


@pytest.mark.parametrize("extra,expect", [((), False),
                                          ((("0", "1", "1", "1"),), True)])
def test_backward_shares_one_standin_per_component(extra, expect):
    """The interior run forces three coordinates at once; treating them
    as independent fresh variables would accept the first template."""
    g = standins_digraph()
    t = RelationalStructure(
        ["0", "1"], [("R", 4, [("0", "0", "1", "0")] + list(extra))])
    assert digraph_hom_exists(g, build_gadget(t).digraph) is expect
    out = backward_reduce(g, t)
    assert isinstance(out, Reduced)
    assert solved(out.instance, t) is expect
    shared = [h for h in out.hyperedges
              if any(sum(v in e for e in h.entries) > 1
                     for v in set().union(*h.entries))]
    assert shared, "no hyperedge reuses a stand-in across coordinates"


def test_backward_fresh_names_skip_the_digraph_vertices():
    """Stand-ins and padding names are the first x-names that are not
    vertices of the digraph, with no name handed out twice."""
    g = standins_digraph()
    rename = {v: f"x{2 * i + 1}" for i, v in enumerate(g.vertices)}
    g = Digraph([rename[v] for v in g.vertices],
                [(rename[a], rename[b]) for a, b in g.edges])
    t = RelationalStructure(["0", "1"], [("R", 4, [("0", "0", "1", "0")])])
    out = backward_reduce(g, t)
    assert isinstance(out, Reduced)
    made = set().union(*(set().union(*h.entries) for h in out.hyperedges))
    made -= set(g.vertices)
    assert made
    assert made == set(itertools.islice(
        fresh_sequence("x", set(g.vertices)), len(made)))


def test_backward_random_agreement():
    import random
    rng = random.Random(9)
    t = two_cycle()
    gad = build_gadget(t)
    for _ in range(40):
        n = rng.randint(1, 12)
        names = [f"g{i}" for i in range(n)]
        lv = {v: rng.randint(0, 4) for v in names}
        edges = [(u, v) for u, v in itertools.permutations(names, 2)
                 if lv[v] == lv[u] + 1 and rng.random() < 0.4]
        g = Digraph(names, edges)
        direct = digraph_hom_exists(g, gad.digraph)
        out = backward_reduce(g, t)
        got = out.answer if isinstance(out, Definite) \
            else solved(out.instance, t)
        assert got == direct


@st.composite
def templates_and_digraphs(draw):
    """A single-relation template (1-3 elements, arity 1-2, 1-3 tuples)
    and the forward digraph of a random instance over it, kept as is,
    with one edge removed, or with two level-0 vertices merged."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    universe = list(itertools.product(range(n), repeat=k))
    tuples = draw(st.lists(st.sampled_from(universe), min_size=1,
                           max_size=3, unique=True))
    template = RelationalStructure(range(n), [("R", k, tuples)])
    m = draw(st.integers(1, 4))
    scopes = draw(st.lists(
        st.tuples(*[st.sampled_from(range(m))] * k), max_size=6))
    instance = RelationalStructure(
        [f"y{i}" for i in range(m)],
        [("R", k, [tuple(f"y{i}" for i in s) for s in scopes])])
    g = forward_translate(instance, template).digraph
    change = draw(st.sampled_from(("none", "drop", "merge")))
    if change == "drop":
        dropped = draw(st.sampled_from(g.edges))
        g = Digraph(g.vertices, [e for e in g.edges if e != dropped])
    elif change == "merge" and m > 1:
        a, b = draw(st.lists(st.sampled_from(instance.domain), min_size=2,
                             max_size=2, unique=True))
        rename = {b: a}
        g = Digraph([v for v in g.vertices if v != b],
                    [(rename.get(u, u), rename.get(w, w))
                     for u, w in g.edges])
    return template, g


@settings(derandomize=True, max_examples=300, deadline=None)
@given(templates_and_digraphs())
def test_backward_matches_direct_search(case):
    """The backward reduction answers "G -> D(A)?" as a direct search
    into the gadget does, on forward digraphs and near misses of them;
    the dropped edges leave topless pieces."""
    template, g = case
    direct = digraph_hom(g, build_gadget(template).digraph) is not None
    out = backward_reduce(g, template)
    if isinstance(out, Definite):
        got = out.answer
    else:
        got = solved(out.instance, template)
        # one unlabelled hyperedge per base of each topless piece
        unlabelled = [h for h in out.hyperedges if h.label is None]
        assert len(unlabelled) == sum(len(c.bases) for c in out.components
                                      if not c.tops)
    assert got == direct


# -- one solve per piece shape -----------------------------------------


def spine_with(extra_vertices, extra_edges):
    """A zigzag spine up the whole height of the 2-cycle gadget (levels
    0-4, from z0 to z8) plus more vertices and edges."""
    spine = build_path(frozenset(), 2).realize("z")
    return Digraph(list(spine.vertices) + list(extra_vertices),
                   list(spine.edges) + list(extra_edges))


def test_equal_edges_with_other_pins_get_their_own_gamma():
    """a1 -> a2 -> a3 hangs from a base and c1 -> c2 -> c3 from a top:
    one edge shape, pinned at opposite ends, blocking other
    coordinates."""
    g = spine_with(["a1", "a2", "a3", "c1", "c2", "c3"],
                   [("z0", "a1"), ("a1", "a2"), ("a2", "a3"),
                    ("c1", "c2"), ("c2", "c3"), ("c3", "z8")])
    out = backward_reduce(g, two_cycle())
    by_first = {c.vertices[0]: c for c in out.components}
    a, c = by_first["a1"], by_first["c1"]
    assert a.shape[0] == c.shape[0] and a.shape != c.shape
    assert a.gamma == forced_positions(a.shape, 2, DEFAULT_BUDGET) \
        == frozenset({1})
    assert c.gamma == forced_positions(c.shape, 2, DEFAULT_BUDGET) \
        == frozenset({2})


def test_forced_positions_runs_once_per_piece_shape(monkeypatch):
    calls = []

    def counted(shape, k, budget):
        calls.append(shape)
        return forced_positions(shape, k, budget)

    monkeypatch.setattr(reductions, "forced_positions", counted)
    inst = RelationalStructure(
        [f"y{i}" for i in range(6)],
        [("E", 2, [(f"y{i}", f"y{(i + 1) % 6}") for i in range(6)]
          + [("y0", "y3")])])
    g = forward_translate(inst, two_cycle()).digraph
    out = backward_reduce(g, two_cycle())
    shapes = {c.shape for c in out.components}
    assert sorted(calls) == sorted(shapes)
    assert len(calls) < len(out.components)
    for c in out.components:
        assert c.gamma == forced_positions(c.shape, 2, DEFAULT_BUDGET)


def counted_builds(monkeypatch):
    builds = []

    def counted(template):
        builds.append(template)
        return build_gadget(template)

    monkeypatch.setattr(reductions, "build_gadget", counted)
    return builds


def test_backward_builds_the_gadget_only_for_short_components(monkeypatch):
    builds = counted_builds(monkeypatch)
    inst = RelationalStructure(
        ["x", "y", "z"], [("E", 2, [("x", "y"), ("y", "z")])])
    g = forward_translate(inst, two_cycle()).digraph
    out = backward_reduce(g, two_cycle())
    assert isinstance(out, Reduced) and builds == []
    # two short components, one gadget
    short = Digraph([*g.vertices, "s0", "s1", "t0", "t1"],
                    [*g.edges, ("s0", "s1"), ("t1", "t0")])
    with_short = backward_reduce(short, two_cycle())
    assert len(builds) == 1
    assert with_short.instance == out.instance


def test_backward_needs_an_oversized_gadget_only_for_short_components():
    # 65 elements and 64 unary tuples: D(A) would use 4,160 connecting
    # paths, over the size guard
    big = RelationalStructure(range(65), [("R", 1, [(i,) for i in range(64)])])
    inst = RelationalStructure(["x", "y"], [("R", 1, [("x",), ("y",)])])
    g = forward_translate(inst, big).digraph
    out = backward_reduce(g, big)
    assert isinstance(out, Reduced)
    assert solved(out.instance, big)
    short = Digraph([*g.vertices, "s0", "s1"], [*g.edges, ("s0", "s1")])
    with pytest.raises(SizeGuardError, match="4160 connecting paths"):
        backward_reduce(short, big)


def backward_cases():
    """Backward-reduction inputs: forward digraphs of seeded random
    instances over the 2-cycle and a 3-element template, each kept as
    is and with one edge dropped, and random balanced digraphs (read
    against the 2-cycle)."""
    rng = random.Random(12)
    three = RelationalStructure(
        range(3), [("E", 2, [(0, 1), (1, 2), (2, 0), (1, 1)])])
    cases = []
    for template in (two_cycle(), three):
        for _ in range(4):
            m = rng.randint(2, 6)
            names = [f"y{i}" for i in range(m)]
            scopes = [(rng.choice(names), rng.choice(names))
                      for _ in range(rng.randint(1, 2 * m))]
            g = forward_translate(
                RelationalStructure(names, [("E", 2, scopes)]),
                template).digraph
            dropped = rng.choice(g.edges)
            cases.append((template, g))
            cases.append((template, Digraph(
                g.vertices, [e for e in g.edges if e != dropped])))
    for _ in range(200):
        cases.append((two_cycle(), random_balanced_digraph(rng, 30)))
    return cases


def outcome_record(out):
    if isinstance(out, Definite):
        return ["definite", out.answer, out.reason]
    return [out.instance.to_json(),
            stage3a_to_json(out.hyperedges, out.equalities),
            {name: sorted(members) for name, members in out.classes.items()},
            [[c.vertices, c.bases, c.tops, sorted(c.gamma)]
             for c in out.components]]


def test_backward_outputs_match_their_digest():
    """Instance, stage-3a file, classes and every piece's vertices,
    bases, tops and blocked coordinates, pinned over all cases."""
    digest = hashlib.sha256()
    for template, g in backward_cases():
        record = outcome_record(backward_reduce(g, template))
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "603f689d155e24312f4efc3f5ccfe0287f3e7e993b34a4e20dc64f44574f7b2b")


def reference_gamma(g, levels, n, comp, k):
    """Blocked coordinates of a piece, found by pinning the piece's own
    induced subgraph of g under its vertex names."""
    sub = g.induced(comp.vertices)
    full = set(range(1, k + 1))
    blocked = set()
    for i in full:
        qp = build_path(full - {i}, k)
        pins = {}
        for v in comp.vertices:
            if any(levels[g.vertices[u]] == 0 for u in g.pred[g.index(v)]):
                pins[v] = "q1"
        for v in comp.vertices:
            if any(levels[g.vertices[w]] == n for w in g.succ[g.index(v)]):
                pins[v] = f"q{qp.last_position - 1}"
        if digraph_hom(sub, qp.realize("q"), pins=pins) is None:
            blocked.add(i)
    return frozenset(blocked)


def test_piece_gammas_match_pinning_the_piece_in_place():
    pieces = 0
    for template, g in backward_cases():
        out = backward_reduce(g, template)
        if not isinstance(out, Reduced):
            continue
        gad = build_gadget(template)
        levels = dict(zip(g.vertices, compute_levels(g).by_position))
        for c in out.components:
            assert c.gamma == reference_gamma(g, levels, gad.height, c,
                                              gad.k)
            pieces += 1
    assert pieces > 100


def test_budget_exhaustion_in_a_piece_propagates():
    """a3 may sit at either end of the zigzag's first valley, so the
    piece needs a search node; the component reaches the top, so no
    short-component search runs first."""
    g = spine_with(["a1", "a2", "a3"],
                   [("z0", "a1"), ("a1", "a2"), ("a3", "a2")])
    with pytest.raises(BudgetExhausted):
        backward_reduce(g, two_cycle(), budget=0)
    assert isinstance(backward_reduce(g, two_cycle(), budget=1), Reduced)


# -- stage 3A files and amalgamation ----------------------------------


WORKED = {
    "hyperedges": [
        {"label": "e1", "entries": [["x1"], ["x2"]]},
        {"label": "e2", "entries": [["b2"], ["b3"]]},
        {"label": "e3", "entries": [["b2", "b4"], ["x3"]]},
        {"label": "e4", "entries": [["b4", "x4"], ["x5"]]},
        {"entries": [["x6"], ["b1"]]},
        {"entries": [["x7"], ["x8"]]},
        {"entries": [["x9"], ["x10"]]},
        {"entries": [["b5"], ["x11"]]},
        {"entries": [["b6"], ["x12"]]},
    ],
    "equalities": [["e1", "e2"], ["b4", "b5"], ["b5", "b6"]],
}


def test_stage3a_json_round_trip():
    hs, eqs = stage3a_from_json(WORKED)
    assert len(hs) == 9
    assert hs[0].label == "e1"
    assert hs[4].label is None
    round_tripped = stage3a_from_json(stage3a_to_json(hs, eqs))
    assert round_tripped == (hs, eqs)


def test_amalgamation_of_the_worked_file():
    hs, eqs = stage3a_from_json(WORKED)
    res = amalgamate(hs, eqs)
    classes = {frozenset(m) for m in res.classes.values()}
    assert len(classes) == 12
    assert frozenset({"b2", "b4", "b5", "b6", "x1", "x4"}) in classes
    assert frozenset({"b3", "x2"}) in classes
    assert len(res.structure.relations[0].tuples) == 8


def test_label_equality_merges_hyperedges_coordinatewise():
    obj = {"hyperedges": [
        {"label": "h1", "entries": [["a"], ["b"]]},
        {"label": "h2", "entries": [["c"], ["d"]]}],
        "equalities": [["h1", "h2"]]}
    hs, eqs = stage3a_from_json(obj)
    res = amalgamate(hs, eqs)
    classes = {frozenset(m) for m in res.classes.values()}
    assert classes == {frozenset({"a", "c"}), frozenset({"b", "d"})}
    assert len(res.structure.relations[0].tuples) == 1


# -- materialization --------------------------------------------------


def test_materialize_definite_yes():
    inst = materialize(Definite(True, "test"), two_cycle())
    assert solved(inst, two_cycle())


def test_materialize_definite_no():
    inst = materialize(Definite(False, "test"), two_cycle())
    assert not solved(inst, two_cycle())


def test_materialize_no_needs_a_constant_free_template():
    reflexive = RelationalStructure(["0"], [("E", 2, [("0", "0")])])
    with pytest.raises(TemplateTrivialError):
        materialize(Definite(False, "test"), reflexive)


def test_materialize_passes_reduced_instance_through():
    g = Digraph([f"v{i}" for i in range(5)],
                [(f"v{i}", f"v{i+1}") for i in range(4)])
    out = backward_reduce(g, two_cycle())
    assert materialize(out, two_cycle()) is out.instance


def test_materialize_no_over_parity():
    inst = materialize(Definite(False, "test"), parity_template())
    assert inst == RelationalStructure(["x0"], [("R", 4, [("x0",) * 4])])
    assert not solved(inst, parity_template())


def check_materialize_against_the_collapse(template):
    """Both definite outcomes over a template, against its collapse,
    built here; returns whether the collapse has a constant tuple."""
    col = collapse_to_single_relation(template).structure
    (rel,) = col.relations
    trivial = any(len(set(t)) == 1 for t in rel.tuples)
    assert materialize(Definite(True, "test"), template) == col
    if trivial:
        with pytest.raises(TemplateTrivialError):
            materialize(Definite(False, "test"), template)
    else:
        inst = materialize(Definite(False, "test"), template)
        assert [(r.name, r.arity) for r in inst.relations] == \
            [(rel.name, rel.arity)]
        assert find_homomorphism(inst, col) is None
    return trivial


@pytest.mark.parametrize("relations, trivial", [
    ([("P", 1, [("0",)]), ("Q", 2, [("1", "1")])], False),
    ([("P", 1, [("1",)]), ("Q", 2, [("0", "1"), ("1", "1")])], True),
], ids=["constant-at-different-elements", "constant-at-the-same-element"])
def test_materialize_no_over_two_relations(relations, trivial):
    template = RelationalStructure(["0", "1"], relations)
    assert check_materialize_against_the_collapse(template) is trivial


def test_materialize_agrees_with_the_collapse_on_random_templates():
    """Templates of one or two relations of arity up to 2, and single
    relations of arity up to 4, from 200 seeds."""
    verdicts = []
    multi = 0
    for seed in range(200):
        rng = random.Random(seed)
        template, _ = random_instance_pair(rng)
        multi += not template.is_single_relation
        for t in (template, random_template(rng, max_arity=4)):
            verdicts.append(check_materialize_against_the_collapse(t))
    assert multi > 50
    assert 50 < sum(verdicts) < len(verdicts) - 50
