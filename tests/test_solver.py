import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcsp import algebra, selftest
from dgcsp.gadget import build_gadget
from dgcsp.reductions import backward_reduce, forward_translate
from dgcsp.solver import (BudgetExhausted, HomInstance, SolverUsageError,
                          _Constraint, _Support, digraph_hom,
                          digraph_hom_exists, find_homomorphism)
from dgcsp.structures import (Digraph, RelationalStructure,
                              collapse_to_single_relation)
from dgcsp.templates import leq_template, two_cycle


def cycle_instance(n):
    vs = [f"c{i}" for i in range(n)]
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return RelationalStructure(vs, [("E", 2, edges)])


def test_even_cycle_maps_to_two_cycle():
    hom = find_homomorphism(cycle_instance(4), two_cycle())
    assert hom is not None
    assert hom["c0"] != hom["c1"]


def test_odd_cycle_does_not():
    assert find_homomorphism(cycle_instance(5), two_cycle()) is None


def test_hom_is_verified_against_all_relations():
    """A found map must satisfy every constraint, not just the arcs the
    propagator happened to look at."""
    s = RelationalStructure(
        ["x", "y"],
        [("E", 2, [("x", "y")]), ("P", 1, [("x",)])])
    t = RelationalStructure(
        ["0", "1"],
        [("E", 2, [("0", "1"), ("1", "0")]), ("P", 1, [("0",)])])
    hom = find_homomorphism(s, t)
    assert hom == {"x": "0", "y": "1"}


def test_a_leaf_that_fails_its_check_is_an_internal_error():
    """Propagation lets through only leaves that keep every source
    tuple; a broken support that lets another through raises rather
    than reading as NO."""
    inst = HomInstance(cycle_instance(3), two_cycle())
    scope = inst.constraints[0].scope
    inst.constraints[0] = _Constraint(
        scope, _Support(itertools.product(range(2), repeat=2), 2, 2))
    with pytest.raises(AssertionError, match=r"E tuple \(c0, c1\)"):
        inst.solve()
    with pytest.raises(AssertionError, match=r"E tuple \(c0, c1\)"):
        inst.solve_all()


def test_pins_are_respected():
    inst = cycle_instance(4)
    hom = find_homomorphism(inst, two_cycle(), pins={"c0": "1"})
    assert hom["c0"] == "1"
    assert find_homomorphism(inst, two_cycle(),
                             pins={"c0": "0", "c1": "0"}) is None


def test_unknown_pin_is_a_usage_error():
    with pytest.raises(SolverUsageError):
        find_homomorphism(cycle_instance(4), two_cycle(), pins={"zz": "0"})


def test_signature_mismatch_is_a_usage_error():
    s = RelationalStructure(["x"], [("Q", 1, [("x",)])])
    with pytest.raises(SolverUsageError):
        find_homomorphism(s, two_cycle())


def test_domain_restriction():
    s = RelationalStructure(["x", "y"], [("E", 2, [("x", "y")])])
    hom = find_homomorphism(s, leq_template(), domains={"x": ["1"]})
    assert hom == {"x": "1", "y": "1"}


def test_count_matches_brute_force():
    inst = cycle_instance(6)
    t = two_cycle()
    rel = t.relation("E").tuples
    brute = 0
    for vals in itertools.product(t.domain, repeat=6):
        assign = dict(zip(inst.domain, vals))
        if all((assign[u], assign[v]) in rel
               for u, v in inst.relation("E").tuples):
            brute += 1
    assert len(HomInstance(inst, t).solve_all()) == brute == 2


def test_enumeration_is_deterministic():
    inst = cycle_instance(4)
    a = HomInstance(inst, leq_template()).solve_all()
    b = HomInstance(inst, leq_template()).solve_all()
    assert a == b
    assert all(x == a[0] or x != a[0] for x in a)
    # canonical order: first solution is the lexicographically least
    assert a[0] == {v: "0" for v in inst.domain}


def test_budget_exhaustion_raises():
    vs = [f"v{i}" for i in range(30)]
    inst = RelationalStructure(vs, [("E", 2, [(v, v) for v in vs])])
    with pytest.raises(BudgetExhausted) as info:
        find_homomorphism(inst, leq_template(), budget=3)
    assert info.value.budget == 3
    assert info.value.spent == 3
    assert "budget of 3 nodes" in str(info.value)


def test_a_repeated_variable_takes_one_value():
    """A scope that names a variable twice allows only tuples that agree
    there, so root propagation refutes these without a branch."""
    loop = RelationalStructure(["a"], [("E", 2, [("a", "a")])])
    assert HomInstance(loop, two_cycle()).solve_all(budget=0) == []
    source = RelationalStructure(["x", "y"], [("R", 3, [("x", "x", "y")])])
    target = RelationalStructure([0, 1], [("R", 3, [(0, 1, 0), (1, 0, 1)])])
    assert HomInstance(source, target).solve_all(budget=0) == []


def test_deep_search_needs_no_recursion():
    """One branching decision per free variable: 1,500 levels deep."""
    vs = [f"v{i}" for i in range(1500)]
    inst = RelationalStructure(vs, [("E", 2, [("v0", "v1")])])
    hom = find_homomorphism(inst, two_cycle())
    assert hom is not None
    assert hom["v0"] != hom["v1"]


def test_digraph_wrappers():
    g = Digraph(["a", "b"], [("a", "b"), ("b", "a")])
    h = Digraph(["0", "1"], [("0", "1"), ("1", "0")])
    assert digraph_hom_exists(g, h)
    m = digraph_hom(g, h, pins={"a": "1"})
    assert m == {"a": "1", "b": "0"}


def test_hom_instance_solve_all_limit():
    inst = HomInstance(cycle_instance(4), two_cycle())
    assert len(inst.solve_all()) == 2
    assert len(inst.solve_all(limit=1)) == 1


def test_zero_limit_returns_no_solution_before_any_search():
    # the two-cycle has two endomorphisms, and telling them apart takes
    # a branch, which a zero budget does not allow
    assert algebra.endomorphisms(two_cycle(), limit=0) == []
    assert algebra.endomorphisms(two_cycle(), budget=0, limit=0) == []
    assert len(algebra.endomorphisms(two_cycle(), limit=1)) == 1


# -- oracle: brute-force enumeration on tiny random instances ------------

def _reference_search(nvars, constraints, doms, nodes):
    """All solutions in the solver's documented search order, found by a
    plain set-based search: each constraint keeps the values that occur
    in a tuple lying inside the current domains and agreeing wherever the
    scope repeats a variable, to a fixpoint; branch on the smallest domain
    (ties by variable position), values ascending.  ``nodes[0]`` counts
    the values tried."""
    doms = list(doms)
    changed = True
    while changed:
        changed = False
        for scope, tuples in constraints:
            live = [t for t in tuples
                    if all(v in doms[x] and t[scope.index(x)] == v
                           for x, v in zip(scope, t))]
            for x in set(scope):
                keep = doms[x] & {t[p] for t in live
                                  for p, y in enumerate(scope) if y == x}
                if not keep:
                    return []
                if keep != doms[x]:
                    doms[x] = keep
                    changed = True
    open_vars = [x for x in range(nvars) if len(doms[x]) > 1]
    if not open_vars:
        return [tuple(min(d) for d in doms)]
    best = min(open_vars, key=lambda x: (len(doms[x]), x))
    out = []
    for v in sorted(doms[best]):
        nodes[0] += 1
        trial = list(doms)
        trial[best] = {v}
        out += _reference_search(nvars, constraints, trial, nodes)
    return out


@st.composite
def tiny_instances(draw):
    nvars = draw(st.integers(1, 5))
    nvals = draw(st.integers(1, 4))
    svars = [f"x{i}" for i in range(nvars)]
    tvals = [f"v{i}" for i in range(nvals)]
    srels, trels = [], []
    for r in range(draw(st.integers(0, 3))):
        arity = draw(st.integers(1, 3))
        tuples = draw(st.sets(
            st.tuples(*[st.integers(0, nvals - 1)] * arity), max_size=10))
        scopes = draw(st.lists(
            st.tuples(*[st.integers(0, nvars - 1)] * arity), max_size=3))
        trels.append((f"R{r}", arity, [tuple(tvals[v] for v in t)
                                       for t in sorted(tuples)]))
        srels.append((f"R{r}", arity, [tuple(svars[x] for x in s)
                                       for s in scopes]))
    pins = draw(st.dictionaries(st.sampled_from(svars),
                                st.sampled_from(tvals), max_size=2))
    domains = draw(st.dictionaries(
        st.sampled_from(svars),
        st.lists(st.sampled_from(tvals), unique=True), max_size=2))
    return (RelationalStructure(svars, srels),
            RelationalStructure(tvals, trels), pins, domains)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(tiny_instances())
def test_solver_matches_brute_force(case):
    """Same solutions as brute force, in the order and with the node count
    of the reference search.  That order is not lexicographic: branching
    on the smallest domain first can put a later variable first."""
    source, target, pins, domains = case
    nvars, nvals = len(source.domain), len(target.domain)
    constraints = []
    for r in source.relations:
        allowed = {tuple(target.index(v) for v in t)
                   for t in target.relation(r.name).tuples}
        for names in r.tuples:
            constraints.append((tuple(source.index(x) for x in names), allowed))
    doms = [set(range(nvals)) for _ in range(nvars)]
    for x, vals in domains.items():
        doms[source.index(x)] &= {target.index(v) for v in vals}
    for x, v in pins.items():
        doms[source.index(x)] &= {target.index(v)}

    brute = [a for a in itertools.product(range(nvals), repeat=nvars)
             if all(a[x] in doms[x] for x in range(nvars))
             and all(tuple(a[x] for x in scope) in allowed
                     for scope, allowed in constraints)]

    inst = HomInstance(source, target, pins=pins, domains=domains)
    sols = inst.solve_all()
    got = [tuple(target.index(s[x]) for x in source.domain) for s in sols]
    assert sorted(got) == brute
    nodes = [0]
    if all(doms):
        assert got == _reference_search(nvars, constraints, doms, nodes)
    else:
        assert got == []
    # the search tree has exactly the reference's size
    assert len(inst.solve_all(budget=nodes[0])) == len(got)
    if nodes[0]:
        with pytest.raises(BudgetExhausted):
            inst.solve_all(budget=nodes[0] - 1)
    assert inst.solve() == (sols[0] if sols else None)


def _root_trail(inst):
    """The trail of a root propagation from the instance's masks, after
    checking that it holds one entry per shrink: per variable, the old
    masks it records and then its final mask strictly shrink."""
    masks = list(inst._masks)
    trail = []
    inst._propagate(masks, None, trail)
    for x in {x for x, _ in trail}:
        seen = [m for y, m in trail if y == x] + [masks[x]]
        for old, new in zip(seen, seen[1:]):
            assert new != old and new | old == old, (x, seen)
    return trail


def test_a_loop_is_revised_once():
    """A loop ``(a, a)`` ranges over one variable, so root propagation
    shrinks each variable once and records one trail entry for it."""
    source = RelationalStructure(["a", "b"],
                                 [("E", 2, [("a", "a"), ("a", "b")])])
    target = RelationalStructure(
        [0, 1, 2], [("E", 2, [(0, 0), (1, 1), (0, 1), (2, 0)])])
    assert _root_trail(HomInstance(source, target)) == [(0, 7), (1, 7)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tiny_instances())
def test_propagation_records_one_trail_entry_per_shrink(case):
    """Repeated scopes included, no revision writes a variable twice."""
    source, target, pins, domains = case
    _root_trail(HomInstance(source, target, pins=pins, domains=domains))


# -- pinned mid-size searches --------------------------------------------

def _k3():
    vs = ["0", "1", "2"]
    return RelationalStructure(
        vs, [("E", 2, [(a, b) for a in vs for b in vs if a != b])])


def _two_tree(n, seed, k4_first=False):
    """A seeded 2-tree on n vertices with random edge directions; with
    ``k4_first`` a K4 hangs off it, ahead of it in variable order."""
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    for v in range(3, n):
        edges += [(u, v) for u in rng.choice(edges)]
    tuples = [(f"x{u}", f"x{v}") if rng.random() < 0.5 else (f"x{v}", f"x{u}")
              for u, v in edges]
    domain = [f"x{i}" for i in range(n)]
    if k4_first:
        kn = [f"a{i}" for i in range(4)]
        tuples = [(a, b) for i, a in enumerate(kn) for b in kn[i + 1:]] \
            + [("a3", "x0")] + tuples
        domain = kn + domain
    return RelationalStructure(domain, [("E", 2, tuples)])


def _odd_cycle(n, seed):
    rng = random.Random(seed)
    vs = [f"c{i}" for i in range(n)]
    tuples = [(vs[i], vs[(i + 1) % n]) if rng.random() < 0.5
              else (vs[(i + 1) % n], vs[i]) for i in range(n)]
    return RelationalStructure(vs, [("E", 2, tuples)])


def _forward_instance(instance, template):
    g = forward_translate(instance, template).digraph
    return HomInstance(g.as_structure(),
                       build_gadget(template).digraph.as_structure())


def _indicator_instance(monkeypatch, structure, system):
    """The solver instance that ``find_interpretations`` builds."""
    made = []

    class Recording(HomInstance):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(algebra, "HomInstance", Recording)
    algebra.find_interpretations(structure, system)
    (inst,) = made
    return inst


def _transitive_tournament(n):
    d = [str(i) for i in range(n)]
    return RelationalStructure(
        d, [("E", 2, [(a, b) for i, a in enumerate(d) for b in d[i + 1:]])])


def _by_name(inst, sol):
    return sorted(sol.items())


def _by_position(inst, sol):
    """The values alone, in variable order: indicator variables are
    numbered, so their names say nothing."""
    return [sol[x] for x in inst.vars]


PINNED_SEARCHES = {
    # name: (instance builder, what to hash of the first solution, its
    # sha256, nodes)
    "k3-2tree-n50": (
        lambda mp: _forward_instance(_two_tree(50, 1), _k3()), _by_name,
        "2a2b92f372eaa9089fcdc70c4a04f45138729b119a4c797ff3b8756b07d88fea",
        2),
    "k3-k4first-n30": (
        lambda mp: _forward_instance(_two_tree(30, 1, k4_first=True), _k3()),
        _by_name, None, 9),
    "2cycle-odd-cycle-21": (
        lambda mp: _forward_instance(_odd_cycle(21, 1), two_cycle()),
        _by_name, None, 2),
    "T5-wnu3-indicator": (
        lambda mp: _indicator_instance(mp, _transitive_tournament(5),
                                       algebra.wnu_system(3)), _by_position,
        "7474814e9795bce65cd99c351293f7faf601b3dc65528059c23cea09a87e120b",
        80),
    # deep: the search goes back over thousands of decisions
    "2cycle-gadget-majority-indicator": (
        lambda mp: _indicator_instance(
            mp, build_gadget(collapse_to_single_relation(two_cycle())
                             .structure).digraph.as_structure(),
            algebra.majority_system()), _by_position,
        "fc6657d5d0b96b7f336b53b7fa218f2f2b643c90b899c33e4f151acb60f57bcd",
        6936),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_pinned_search(name, monkeypatch):
    """The first solution (by digest, or None) and the exact node count
    of five searches, too big for the brute-force oracle."""
    build, key, digest, nodes = PINNED_SEARCHES[name]
    inst = build(monkeypatch)
    sols = inst.solve_all(budget=nodes, limit=1)
    got = (hashlib.sha256(json.dumps(key(inst, sols[0])).encode())
           .hexdigest() if sols else None)
    assert got == digest
    with pytest.raises(BudgetExhausted):
        inst.solve_all(budget=nodes - 1, limit=1)


def _one_in_three_backward_instance():
    """A seeded 1-in-3 instance with unary constraints, compiled forward
    and reduced backward: a 4-ary instance over the collapsed template,
    so every revision is a tuple scan."""
    rng = random.Random(1)
    val = [rng.random() < 0.34 for _ in range(60)]
    ones = [i for i, v in enumerate(val) if v]
    zeros = [i for i, v in enumerate(val) if not v]
    cons = set()
    while len(cons) < 40:
        t = [rng.choice(ones), rng.choice(zeros), rng.choice(zeros)]
        if len(set(t)) == 3:
            rng.shuffle(t)
            cons.add(tuple(f"y{i}" for i in t))
    units = [(f"y{i}",) for i in rng.sample(ones, 3)]
    instance = RelationalStructure(
        [f"y{i}" for i in range(len(val))],
        [("R", 3, sorted(cons)), ("U", 1, units)])
    template = RelationalStructure(["0", "1"], [
        ("R", 3, [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")]),
        ("U", 1, [("1",)])])
    out = backward_reduce(forward_translate(instance, template).digraph,
                          template)
    return HomInstance(out.instance,
                       collapse_to_single_relation(template).structure)


def test_pinned_tuple_scan_search():
    """The first solution (by digest) and the exact node count of a
    search whose constraints are all 4-ary."""
    inst = _one_in_three_backward_instance()
    assert {len(c.scope) for c in inst.constraints} == {4}
    nodes = 29
    sols = inst.solve_all(budget=nodes, limit=1)
    got = hashlib.sha256(json.dumps(_by_name(inst, sols[0])).encode())
    assert got.hexdigest() == (
        "44a3fec0ef95da55cc87ddab14aab6ce54ae38281eb311f5f9976dd94cc82aa0")
    with pytest.raises(BudgetExhausted):
        inst.solve_all(budget=nodes - 1, limit=1)


def _repeated_scope_instance():
    """A seeded instance whose 200 ternary scopes all repeat a variable,
    as ``(x, y, x)`` or ``(x, x, y)``, over a relation on three values in
    which both patterns read "the two variables differ": a planted
    3-colouring of 90 variables, solved by search."""
    rng = random.Random(2)
    relation = ([(a, b, a) for a in range(3) for b in range(3) if a != b]
                + [(a, a, b) for a in range(3) for b in range(3) if a != b]
                + [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    colour = [rng.randrange(3) for _ in range(90)]
    cons = set()
    while len(cons) < 200:
        x, y = rng.sample(range(90), 2)
        t = (x, y, x) if rng.random() < 0.5 else (x, x, y)
        if tuple(colour[i] for i in t) in relation:
            cons.add(tuple(f"y{i}" for i in t))
    instance = RelationalStructure([f"y{i}" for i in range(90)],
                                   [("R", 3, sorted(cons))])
    template = RelationalStructure(range(3), [("R", 3, relation)])
    return HomInstance(instance, template)


def test_pinned_repeated_scope_search():
    """The first solution (by digest) and the exact node count of a
    search whose scopes all name a variable twice, so that every
    constraint is binary."""
    inst = _repeated_scope_instance()
    assert {len(set(t)) for t in inst.source.relations[0].tuples} == {2}
    assert {len(c.scope) for c in inst.constraints} == {2}
    nodes = 470
    sols = inst.solve_all(budget=nodes, limit=1)
    got = hashlib.sha256(json.dumps(_by_name(inst, sols[0])).encode())
    assert got.hexdigest() == (
        "b73ef93bd27499105564e3d9461be1ebb36a168d86d30cee1b081878bd42280e")
    with pytest.raises(BudgetExhausted):
        inst.solve_all(budget=nodes - 1, limit=1)


def _directed_cycle(n):
    d = [str(i) for i in range(n)]
    return RelationalStructure(
        d, [("E", 2, [(d[i], d[(i + 1) % n]) for i in range(n)])])


def _complete_graph(n):
    d = [str(i) for i in range(n)]
    return RelationalStructure(
        d, [("E", 2, [(a, b) for a in d for b in d if a != b])])


def test_indicator_search_tables_are_pinned():
    """Every table row that ``find_interpretations`` returns on the
    benchmark's indicator-search grid, by one digest: WNU-3, WNU-4 and
    majority on T4, T5, C4 and C5, and none of them on K4."""
    templates = [("T4", _transitive_tournament(4)),
                 ("T5", _transitive_tournament(5)),
                 ("C4", _directed_cycle(4)), ("C5", _directed_cycle(5)),
                 ("K4", _complete_graph(4))]
    systems = [("wnu3", algebra.wnu_system(3)),
               ("wnu4", algebra.wnu_system(4)),
               ("majority", algebra.majority_system())]
    h = hashlib.sha256()
    for tname, template in templates:
        for sname, system in systems:
            out = algebra.find_interpretations(template, system)
            assert (out is None) == (tname == "K4")
            rows = None if out is None else {
                s: [list(args) + [value] for args, value in t.rows()]
                for s, t in sorted(out.items())}
            h.update(json.dumps([tname, sname, rows]).encode())
    assert h.hexdigest() == (
        "c64a366db71662cbe45cf875a93eaa739b1becfab5c84db252e5b6e20fbb7093")


def _instances_to_read():
    """Solver inputs of every shape the library builds: random
    multi-relation instance pairs, forward digraphs into gadgets, and an
    indicator instance with a ternary and a binary relation."""
    rng = random.Random(16)
    for _ in range(100):
        template, instance = selftest.random_instance_pair(rng)
        yield instance, template
    for template in (two_cycle(), leq_template(), _k3()):
        inst = _forward_instance(_two_tree(12, 2), template)
        yield inst.source, inst.target
    source = RelationalStructure(
        range(6), [("R", 3, [(5, 0, 1), (2, 2, 0), (1, 4, 3), (5, 0, 1),
                             (1, 0, 1), (4, 2, 4)]),
                   ("E", 2, [(3, 3), (4, 1), (0, 5)])])
    target = RelationalStructure(
        "ab", [("E", 2, [("b", "a"), ("a", "a")]),
               ("R", 3, [("b", "b", "a"), ("a", "b", "b"),
                         ("b", "a", "b")])])
    yield source, target


def test_scopes_and_supports_are_the_tuples_positions():
    """Constraint scopes, support tuples and watch lists equal what the
    rule ``tuple(structure.index(x) for x in t)`` gives, in order.  A
    scope that repeats a variable ranges over its distinct variables, in
    first-occurrence order, against the target tuples that agree on the
    repeats, projected onto the first occurrences; constraints of one
    relation with the same repeat pattern share that support, and a
    binary one has neighbour masks."""
    for source, target in _instances_to_read():
        inst = HomInstance(source, target)
        scopes, supports, patterns = [], [], []
        for r in source.relations:
            allowed = tuple(tuple(target.index(x) for x in t)
                            for t in target.relation(r.name).tuples)
            for t in r.tuples:
                scope = tuple(source.index(x) for x in t)
                first = tuple(scope.index(x) for x in scope)
                keep = [p for p, f in enumerate(first) if p == f]
                scopes.append(tuple(scope[p] for p in keep))
                supports.append(tuple(
                    tuple(a[p] for p in keep) for a in allowed
                    if all(a[p] == a[f] for p, f in enumerate(first))))
                patterns.append((r.name, first))
        assert [c.scope for c in inst.constraints] == scopes
        assert all(len(set(c.scope)) == len(c.scope) for c in inst.constraints)
        assert [c.support.tuples for c in inst.constraints] == supports
        shared = {}
        for c, pattern in zip(inst.constraints, patterns):
            assert shared.setdefault(pattern, c.support) is c.support
            assert hasattr(c.support, "memos") == (len(c.scope) == 2)
        watch = [[] for _ in source.domain]
        for ci, scope in enumerate(scopes):
            for xi in scope:
                watch[xi].append(ci)
        assert inst._watch == watch
