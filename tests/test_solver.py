import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcsp.solver import (BudgetExhausted, HomInstance, SolverUsageError,
                          count_homomorphisms, digraph_hom,
                          digraph_hom_exists, enumerate_homomorphisms,
                          find_homomorphism)
from dgcsp.structures import Digraph, RelationalStructure
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
    assert count_homomorphisms(inst, t) == brute == 2


def test_enumeration_is_deterministic():
    inst = cycle_instance(4)
    a = enumerate_homomorphisms(inst, leq_template())
    b = enumerate_homomorphisms(inst, leq_template())
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


# -- oracle: brute-force enumeration on tiny random instances ------------

def _reference_search(nvars, constraints, doms, nodes):
    """All solutions in the solver's documented search order, found by a
    plain set-based search: each constraint keeps the values that occur
    in a tuple lying inside the current domains, to a fixpoint; branch on
    the smallest domain (ties by variable position), values ascending.
    ``nodes[0]`` counts the values tried."""
    doms = list(doms)
    changed = True
    while changed:
        changed = False
        for scope, tuples in constraints:
            live = [t for t in tuples
                    if all(v in doms[x] for x, v in zip(scope, t))]
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
