import functools
import hashlib
import itertools
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcsp.algebra import (IdentitySystem, OperationTable,
                           check_identities,
                           commutative_idempotent_binary_system,
                           cyclic_system, endomorphisms, find_interpretations,
                           find_wnu, kkvw_system,
                           majority_system, maltsev_system,
                           three_permutability_system, wnu_system,
                           zigzag_operations)
from dgcsp.gadget import build_gadget, elem_name, tup_name
from dgcsp.lifting import (LiftedOperation, LiftInvariantError,
                           UnliftableSystemError, _tie_orders,
                           in_diagonal_component,
                           lift_endomorphism,
                           lift_general, lift_wnu,
                           polymorphism_failure_on_digraph,
                           verify_lifted_system)
from dgcsp.selftest import diagonal_component_pairs, random_template
from dgcsp.solver import HomInstance
from dgcsp.structures import (Digraph, RelationalStructure,
                              collapse_to_single_relation)
from dgcsp.templates import (leq_template, one_element, parity_template,
                             two_cycle, zigzag_digraph_template)


@pytest.fixture(scope="module")
def gad():
    return build_gadget(two_cycle())


def valley_and_peak_at(gadget, level):
    g = gadget.digraph
    valley = peak = None
    for v in g.vertices:
        if gadget.levels[v] != level:
            continue
        if not g.pred[g.index(v)]:
            valley = v
        elif not g.succ[g.index(v)]:
            peak = v
    assert valley and peak
    return valley, peak


# -- diagonal component -----------------------------------------------


def test_diagonal_pairs(gad):
    for v in gad.digraph.vertices:
        assert in_diagonal_component(gad, (v, v))


def test_endpoint_pairs_are_diagonal(gad):
    assert in_diagonal_component(gad, (elem_name("0"), elem_name("1")))
    assert in_diagonal_component(
        gad, (tup_name(("0", "1")), tup_name(("1", "0"))))


def test_valley_peak_pair_is_isolated(gad):
    valley, peak = valley_and_peak_at(gad, 2)
    assert not in_diagonal_component(gad, (valley, peak))
    assert not in_diagonal_component(gad, (peak, valley))


def test_cross_level_pairs_are_off_diagonal(gad):
    assert not in_diagonal_component(
        gad, (elem_name("0"), tup_name(("0", "1"))))


# -- endomorphism lift ------------------------------------------------


def test_identity_endomorphism_lifts_to_identity(gad):
    out = lift_endomorphism(gad, {"0": "0", "1": "1"})
    assert all(out[v] == v for v in gad.digraph.vertices)


def test_swap_lifts_to_an_automorphism(gad):
    out = lift_endomorphism(gad, {"0": "1", "1": "0"})
    assert sorted(out.values()) == sorted(gad.digraph.vertices)
    for u, v in gad.digraph.edges:
        assert (out[u], out[v]) in gad.digraph.edges
    for v in gad.digraph.vertices:
        assert gad.levels[out[v]] == gad.levels[v]


def test_non_preserving_map_is_rejected(gad):
    with pytest.raises(UnliftableSystemError):
        lift_endomorphism(gad, {"0": "0", "1": "0"})


def test_endomorphism_lift_reads_every_relation_of_the_template():
    """P = {0, 1} and Q = {(0,1), (1,0), (2,2)}: the constant map to 2
    preserves Q but not P, and the swap of 0 and 1 preserves both."""
    template = RelationalStructure(
        "012", [("P", 1, [("0",), ("1",)]),
                ("Q", 2, [("0", "1"), ("1", "0"), ("2", "2")])])
    gadget = build_gadget(template)
    with pytest.raises(UnliftableSystemError, match="'P'"):
        lift_endomorphism(gadget, {"0": "2", "1": "2", "2": "2"})
    out = lift_endomorphism(gadget, {"0": "1", "1": "0", "2": "2"})
    edges = set(gadget.digraph.edges)
    assert all((out[u], out[v]) in edges for u, v in edges)
    assert all(gadget.levels[out[v]] == gadget.levels[v] for v in out)
    assert sorted(out.values()) == sorted(gadget.digraph.vertices)


ENDOMORPHISM_TEMPLATES = {"2cycle": two_cycle, "leq": leq_template,
                          "parity": parity_template,
                          "one-element": one_element,
                          "zigzag": zigzag_digraph_template}

# sha256 of every endomorphism's images, in domain order, followed by
# the (vertex, image) lines of its lift in the lift's own order
ENDOMORPHISM_DIGESTS = {
    "2cycle":
        "3f95c42a53567c99f82dd6e253a754c6c53a69bd4127ab6657d682a039e5b978",
    "leq":
        "275cfbd08540995862240f4ec4ecbbed0eeaad4bd6b904582e6f0c1d901ddcfd",
    "one-element":
        "3e78b30dff41b08f3395ce53a6ec0c82919f5c5e2f978a8f8e9fb98c0a588aa9",
    "parity":
        "33585f673c1c5edecddb5222d1b1f6d3c33f4e2a7db336ae3e4ffafb43c25b05",
    "zigzag":
        "bd2e584a1021312b95c93229c0eadc67c74026b11b5fa2eee699a2cfa28e3466",
}


@pytest.mark.parametrize("name", sorted(ENDOMORPHISM_TEMPLATES))
def test_endomorphism_lifts_are_pinned(name):
    template = ENDOMORPHISM_TEMPLATES[name]()
    gadget = build_gadget(template)
    h = hashlib.sha256()
    for phi in endomorphisms(template):
        h.update(("\t".join(phi[a] for a in template.domain) + "\n").encode())
        for v, image in lift_endomorphism(gadget, phi).items():
            h.update(f"{v}\t{image}\n".encode())
    assert h.hexdigest() == ENDOMORPHISM_DIGESTS[name]


# -- weak near-unanimity lift -----------------------------------------


def test_wnu_lift_on_the_two_cycle(gad):
    table = find_wnu(two_cycle(), 3)
    lifted = lift_wnu(gad, table)
    verts = gad.digraph.vertices
    assert all(lifted(v, v, v) == v for v in verts)
    for x in verts[:6]:
        for y in verts:
            assert lifted(y, x, x) == lifted(x, y, x) == lifted(x, x, y)
    assert polymorphism_failure_on_digraph(gad.digraph, lifted) is None
    assert lifted.case_counts["elements"] > 0


def test_wnu_lift_on_one_element_gadget():
    g1 = build_gadget(one_element())
    table = find_wnu(one_element(), 3)
    lifted = lift_wnu(g1, table)
    assert polymorphism_failure_on_digraph(g1.digraph, lifted) is None


def test_wnu_lift_rejects_non_wnu_table():
    from dgcsp.algebra import OperationTable
    proj = OperationTable.from_function(["0", "1"], 3, lambda x, y, z: x)
    with pytest.raises(UnliftableSystemError):
        lift_wnu(build_gadget(two_cycle()), proj)


# -- general lift -----------------------------------------------------


def test_majority_lifts_and_verifies(gad):
    system = majority_system()
    interp = find_interpretations(two_cycle(), system)
    lifted = lift_general(gad, system, interp)
    ok, why = verify_lifted_system(gad, lifted, system)
    assert ok, why
    cases = lifted["maj"].case_counts
    assert cases["isolated-pair"] > 0
    assert cases["split-low"] > 0 or cases["split-high"] > 0


def test_majority_on_isolated_valley_peak_inputs(gad):
    """Vertex tuples no product edge can reach still have to satisfy
    the near-unanimity equations."""
    system = majority_system()
    interp = find_interpretations(two_cycle(), system)
    lifted = lift_general(gad, system, interp)["maj"]
    valley, peak = valley_and_peak_at(gad, 2)
    assert lifted(valley, peak, peak) == peak
    assert lifted(peak, valley, peak) == peak
    assert lifted(peak, peak, valley) == peak
    assert lifted(valley, valley, peak) == valley


def test_symmetric_binary_lifts_on_the_order_template():
    lt = leq_template()
    gl = build_gadget(lt)
    system = commutative_idempotent_binary_system()
    interp = find_interpretations(lt, system)
    assert interp is not None
    lifted = lift_general(gl, system, interp)
    ok, why = verify_lifted_system(gl, lifted, system)
    assert ok, why


def test_three_permutability_pair_lifts(gad):
    system = three_permutability_system()
    interp = {"p1": zigzag_operations()["p1"], "p2": zigzag_operations()["p2"]}
    template_interp = find_interpretations(two_cycle(), system)
    assert template_interp is not None
    lifted = lift_general(gad, system, template_interp)
    ok, why = verify_lifted_system(gad, lifted, system)
    assert ok, why


def test_kkvw_pair_lifts_and_verifies(gad):
    system = kkvw_system()
    interp = find_interpretations(two_cycle(), system)
    lifted = lift_general(gad, system, interp)
    ok, why = verify_lifted_system(gad, lifted, system)
    assert ok, why
    u, v = lifted["u"], lifted["v"]
    for x in gad.digraph.vertices:
        for y in gad.digraph.vertices:
            assert u(y, x, x) == v(y, x, x, x)


@pytest.mark.parametrize("template", [two_cycle, leq_template])
def test_cyclic_ternary_term_lifts_and_verifies(template):
    system = cyclic_system(3)
    gadget = build_gadget(template())
    lifted = lift_general(gadget, system,
                          find_interpretations(template(), system))
    assert verify_lifted_system(gadget, lifted, system) == (True, None)


def test_kkvw_pair_lifts_and_verifies_on_the_order_template():
    system = kkvw_system()
    gadget = build_gadget(leq_template())
    lifted = lift_general(gadget, system,
                          find_interpretations(leq_template(), system))
    assert verify_lifted_system(gadget, lifted, system) == (True, None)


def siggers_system():
    """The 4-ary Siggers term, a Taylor term: idempotent, and
    s(a,r,e,a) = s(r,a,r,e)."""
    from dgcsp.algebra import Identity, Term
    return IdentitySystem(
        {"s": 4}, [Identity(Term("s", ("a", "r", "e", "a")),
                            Term("s", ("r", "a", "r", "e")))], ["s"])


@pytest.mark.parametrize("template", [two_cycle, leq_template])
def test_siggers_term_lifts_and_verifies(template):
    system = siggers_system()
    gadget = build_gadget(template())
    lifted = lift_general(gadget, system,
                          find_interpretations(template(), system))
    assert verify_lifted_system(gadget, lifted, system) == (True, None)


def test_the_triangle_has_no_siggers_term():
    k3 = RelationalStructure(range(3), [("E", 2, [
        (a, b) for a in range(3) for b in range(3) if a != b])])
    assert find_interpretations(k3, siggers_system()) is None


@pytest.mark.parametrize("name", sorted(ENDOMORPHISM_TEMPLATES))
def test_lift_restricted_to_the_elements_is_the_table(name):
    """On element vertices, the lift of a weak near-unanimity or
    majority table found on the template is that table."""
    template = ENDOMORPHISM_TEMPLATES[name]()
    gadget = build_gadget(template)
    info = gadget.vertex_info
    elements = [v for v in gadget.digraph.vertices if info[v].kind == "elem"]
    found = 0
    for system in (wnu_system(3), majority_system()):
        interp = find_interpretations(template, system)
        if interp is None:
            continue
        found += 1
        lifted = lift_general(gadget, system, interp)
        for s, table in interp.items():
            for c in itertools.product(elements, repeat=table.arity):
                image = info[lifted[s](*c)]
                assert image.kind == "elem"
                assert image.element == table(*(info[x].element for x in c))
    assert found


def test_maltsev_system_is_rejected(gad):
    system = maltsev_system()
    interp = find_interpretations(two_cycle(), system)
    assert interp is not None
    with pytest.raises(UnliftableSystemError) as err:
        lift_general(gad, system, interp)
    assert "zigzag" in str(err.value)


def test_unmarked_idempotence_is_rejected():
    # same identities as the symmetric binary system, minus the marker
    from dgcsp.algebra import Identity, Term
    t = lambda *a: Term("f", a)
    system = IdentitySystem({"f": 2}, [Identity(t("x", "y"), t("y", "x"))])
    lt = leq_template()
    interp = find_interpretations(lt, system)
    assert interp is not None
    with pytest.raises(UnliftableSystemError) as err:
        lift_general(build_gadget(lt), system, interp)
    assert "idempotent" in str(err.value)


def test_unbalanced_wide_identity_is_rejected(gad):
    from dgcsp.algebra import Identity, Term
    t = lambda *a: Term("f", a)
    system = IdentitySystem(
        {"f": 3}, [Identity(t("x", "y", "z"), t("x", "y", "y"))], ["f"])
    interp = find_interpretations(two_cycle(), system)
    if interp is None:
        pytest.skip("no interpretation on the template to reject")
    with pytest.raises(UnliftableSystemError):
        lift_general(gad, system, interp)


def test_interps_must_satisfy_the_system(gad):
    from dgcsp.algebra import OperationTable
    system = majority_system()
    proj = OperationTable.from_function(["0", "1"], 3, lambda x, y, z: x)
    with pytest.raises(UnliftableSystemError):
        lift_general(gad, system, {"maj": proj})


# -- verification of corrupted operations ----------------------------


class OneWrongTuple:
    """A lifted operation with its value at one tuple replaced."""

    def __init__(self, op, at, value):
        self.op, self.at, self.value = op, at, value
        self.arity, self.domain = op.arity, op.domain

    def __call__(self, *c):
        return self.value if c == self.at else self.op(*c)


class OneWrongRow(OneWrongTuple):
    """The same corruption, also read a row at a time."""

    def row(self, prefix):
        values = self.op.row(prefix)
        if prefix != self.at[:-1]:
            return values
        i = self.op.domain.index(self.at[-1])
        return values[:i] + (self.value,) + values[i + 1:]


def reference_failure(g, op):
    """The verifier's contract, one edge combination at a time: the
    first combination of edges, one per argument, in product order over
    ``g.edges``, whose head image is not an out-neighbour of its tail
    image, with both images, or None."""
    edges = set(g.edges)
    for combo in itertools.product(g.edges, repeat=op.arity):
        tails, heads = zip(*combo)
        image = (op(*tails), op(*heads))
        if image not in edges:
            return combo, image
    return None


@pytest.mark.parametrize("fn", [min, max, lambda x, y: x],
                         ids=["min", "max", "first"])
def test_digraph_check_reads_tables_over_either_vertex_order(fn):
    """A table's rows come in its domain's order, and the edge check
    reads them through it, so a table over either order of the vertices
    agrees with the reference."""
    g = Digraph(["0", "1"], [("0", "1"), ("1", "0")])
    for order in (["0", "1"], ["1", "0"]):
        t = OperationTable.from_function(order, 2, fn)
        assert polymorphism_failure_on_digraph(g, t) == reference_failure(g, t)


def directed_three_cycle():
    return RelationalStructure(
        ["0", "1", "2"], [("E", 2, [("0", "1"), ("1", "2"), ("2", "0")])])


# (template, system, lifted symbol); the 2-cycle's swap is lifted as an
# endomorphism, and the edgeless case is a binary projection on a
# digraph with no edges
DIFFERENTIAL_CASES = {
    "2cycle-wnu3": (two_cycle, lambda: wnu_system(3), "w"),
    "2cycle-majority": (two_cycle, majority_system, "maj"),
    "2cycle-kkvw-v": (two_cycle, kkvw_system, "v"),
    "leq-wnu3": (leq_template, lambda: wnu_system(3), "w"),
    "leq-majority": (leq_template, majority_system, "maj"),
    "C3-binary": (directed_three_cycle, commutative_idempotent_binary_system,
                  "f"),
    "2cycle-swap": (two_cycle, None, None),
    "edgeless": (None, None, None),
}


@functools.lru_cache(maxsize=None)
def differential_case(name):
    """A digraph and one sound operation on it, read a row at a time:
    one symbol of a lifted family, the lift of the 2-cycle's swap read
    as an arity-1 lifted operation, or a projection on three vertices
    with no edges."""
    make_template, make_system, symbol = DIFFERENTIAL_CASES[name]
    if make_template is None:
        g = Digraph(["a", "b", "c"], [])
        op = LiftedOperation(
            SimpleNamespace(digraph=g, vertex_info=dict.fromkeys(g.vertices)),
            2, lambda prefix: ([prefix[0]] * 3, Counter()))
        return g, op
    template = make_template()
    gadget = build_gadget(template)
    if make_system is None:
        images = lift_endomorphism(gadget, {"0": "1", "1": "0"})
        verts = gadget.digraph.vertices
        op = LiftedOperation(
            gadget, 1, lambda prefix: ([images[v] for v in verts], Counter()))
    else:
        system = make_system()
        op = lift_general(gadget, system,
                          find_interpretations(template, system))[symbol]
    assert reference_failure(gadget.digraph, op) is None
    return gadget.digraph, op


def check_one_corruption(name, data):
    """Corrupt the case's operation at one input (the tails or heads of
    an edge tuple, or any tuple) to a random vertex, and hold the
    verifier, reading rows, to the reference on it."""
    g, op = differential_case(name)
    side = data.draw(st.sampled_from(["tail", "head", "any"] if g.edges
                                     else ["any"]))
    if side == "any":
        at = data.draw(st.tuples(*[st.sampled_from(g.vertices)] * op.arity))
    else:
        combo = data.draw(st.tuples(*[st.sampled_from(g.edges)] * op.arity))
        at = tuple(e[side == "head"] for e in combo)
    value = data.draw(st.sampled_from(g.vertices))
    bad = OneWrongRow(op, at, value)
    assert polymorphism_failure_on_digraph(g, bad) == reference_failure(g, bad)


# these two get examples of their own: a reference scan of the arity-4
# case walks 24^4 edge tuples, and in one shared draw it would crowd
# the other cases out
WIDE_AND_EDGELESS = ("2cycle-kkvw-v", "edgeless")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DIFFERENTIAL_CASES.keys()
                              - set(WIDE_AND_EDGELESS))),
       st.data())
def test_row_reads_report_the_reference_failure(name, data):
    """Corrupted at one input (the tails or heads of an edge tuple, or
    any tuple) to a random vertex, an operation gets from the verifier
    exactly the reference's first failure, or None with it."""
    check_one_corruption(name, data)


@pytest.mark.parametrize("name", WIDE_AND_EDGELESS)
@settings(derandomize=True, max_examples=5, deadline=None)
@given(data=st.data())
def test_row_reads_report_the_reference_failure_at_arity_4_and_no_edges(
        name, data):
    """The same for kkvw's ``v``, whose head prefixes are products of
    three out-neighbour lists, and for a digraph with no edges, where
    the verifier returns None before it builds any getter."""
    check_one_corruption(name, data)


@pytest.mark.parametrize("side", ["tail", "head", "later-head"])
def test_verification_reports_an_edge_tuple_the_corruption_breaks(gad, side):
    """Three distinct vertices are outside every identity of a ternary
    weak near-unanimity, so only the edge check can catch a wrong value
    there.  Tail side: entries with out-edges only, sent to a vertex with
    no out-edge.  Head side: entries with in-edges only, sent to a vertex
    with no in-edge.  Later head: level-1 entries, some of which their
    element tails reach by a second out-edge, sent to the valley beside
    their true image, which keeps that image's out-edge but has no
    in-edge."""
    system = wnu_system(3)
    w = lift_general(gad, system, find_interpretations(two_cycle(), system))
    assert verify_lifted_system(gad, w, system) == (True, None)
    valley, peak = valley_and_peak_at(gad, 2)
    elems = (elem_name("0"), elem_name("1"))
    tups = (tup_name(("0", "1")), tup_name(("1", "0")))
    if side == "tail":
        at, value = elems + (valley,), tups[0]
    elif side == "head":
        at, value = tups + (peak,), elems[0]
    else:
        at = tuple(gad.paths[(a, r)].vertices[1]
                   for a, r in (("0", ("0", "1")), ("0", ("1", "0")),
                                ("1", ("1", "0"))))
        value = gad.paths[gad.vertex_info[w["w"](*at)].edge].vertices[3]
        assert not gad.digraph.pred[gad.digraph.index(value)]
    bad = OneWrongRow(w["w"], at, value)
    ok, detail = verify_lifted_system(gad, {"w": bad}, system)
    assert not ok
    combo, (tail_image, head_image) = \
        polymorphism_failure_on_digraph(gad.digraph, bad)
    assert str(combo) in detail
    # checked from the gadget's edge list alone
    edges = {tuple(e) for e in gad.digraph.to_json()["edges"]}
    assert len(combo) == 3 and all(e in edges for e in combo)
    tails = tuple(e[0] for e in combo)
    heads = tuple(e[1] for e in combo)
    assert (tails if side == "tail" else heads) == at
    assert (bad(*tails), bad(*heads)) == (tail_image, head_image)
    assert (tail_image, head_image) not in edges


# -- identity checks against the per-assignment reference -------------


def reference_identity_failure(interps, system, domain):
    """The identity check's contract, one assignment at a time:
    idempotence of each marked symbol in sorted order, then each identity
    over the assignments of its sorted variables in product order; the
    verdict with the first failure and its assignment."""
    for s in sorted(system.idempotent):
        f = interps[s]
        for x in domain:
            if f(*((x,) * f.arity)) != x:
                return False, (f"idempotent {s}", {"x": x})

    def side(term, a):
        if term.symbol is None:
            return a[term.args[0]]
        return interps[term.symbol](*[a[v] for v in term.args])

    for ident in system.identities:
        vs = sorted(ident.variables())
        for values in itertools.product(domain, repeat=len(vs)):
            a = dict(zip(vs, values))
            if side(ident.lhs, a) != side(ident.rhs, a):
                return False, (str(ident), a)
    return True, None


IDENTITY_SYSTEMS = {"wnu3": lambda: wnu_system(3), "majority": majority_system,
                    "cyclic3": lambda: cyclic_system(3), "kkvw": kkvw_system}


@functools.lru_cache(maxsize=None)
def identity_case(name, tables):
    """A system and a sound family for it: tables on the order template,
    or their lifts to the 2-cycle's gadget."""
    system = IDENTITY_SYSTEMS[name]()
    if tables:
        return system, find_interpretations(leq_template(), system)
    return system, lift_general(build_gadget(two_cycle()), system,
                                find_interpretations(two_cycle(), system))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(IDENTITY_SYSTEMS)),
       st.sampled_from(["sound", "row", "table", "sound-table"]),
       st.data())
def test_identity_columns_report_the_reference_failure(name, kind, data):
    """Sound or corrupted at one input to another value, a family gets
    from check_identities exactly the reference's verdict and first
    failing assignment, over its domain in any order: lifted operations and
    plain tables, both read a row at a time."""
    system, interps = identity_case(name, kind.endswith("table"))
    s = data.draw(st.sampled_from(sorted(interps)))
    op = interps[s]
    domain = tuple(data.draw(st.permutations(op.domain)))
    if not kind.startswith("sound"):
        # at most two distinct entries, so that idempotence and the
        # one-off identities meet the corruption
        xs = data.draw(st.lists(st.sampled_from(domain), min_size=1,
                                max_size=2))
        at = data.draw(st.tuples(*[st.sampled_from(xs)] * op.arity))
        value = data.draw(st.sampled_from([x for x in domain
                                           if x != op(*at)]))
        if kind == "table":
            bad = OperationTable(op.domain, op.arity,
                                 {**dict(op.rows()), at: value})
        else:
            bad = OneWrongRow(op, at, value)
        interps = {**interps, s: bad}
    assert check_identities(interps, system, domain) == \
        reference_identity_failure(interps, system, domain)


# -- property: lifts of random templates verify -------------------------


@st.composite
def small_templates(draw):
    """A single-relation template on two elements: arity 1-2, 1-4 tuples."""
    k = draw(st.integers(1, 2))
    universe = list(itertools.product("01", repeat=k))
    tuples = draw(st.lists(st.sampled_from(universe), min_size=1,
                           max_size=min(4, len(universe)), unique=True))
    return RelationalStructure(["0", "1"], [("R", k, tuples)])


LIFT_SYSTEMS = (wnu_system(3), majority_system(),
                commutative_idempotent_binary_system())


@settings(derandomize=True, max_examples=10, deadline=None)
@given(small_templates())
def test_lifts_of_random_templates_verify(template):
    """Whenever search finds interpretations and the lift accepts them,
    the lifted family passes the exhaustive check; a weak near-unanimity
    lifts to the same operation through either entry point."""
    gadget = build_gadget(template)
    for system in LIFT_SYSTEMS:
        interp = find_interpretations(template, system)
        if interp is None:
            continue
        try:
            lifted = lift_general(gadget, system, interp)
        except UnliftableSystemError:
            continue
        ok, why = verify_lifted_system(gadget, lifted, system)
        assert ok, (system, why)
        if "w" in interp:
            w = lift_wnu(gadget, interp["w"])
            for c in itertools.product(gadget.digraph.vertices, repeat=3):
                assert w(*c) == lifted["w"](*c), c


def multi_relation_templates(rng, count):
    """Templates of 2-3 relations of arity 1-2 over 2-3 elements, each
    with 1-3 tuples and a collapse of at most 16 tuples."""
    out = []
    while len(out) < count:
        n = rng.randint(2, 3)
        rels = []
        for i in range(rng.randint(2, 3)):
            universe = list(itertools.product(range(n),
                                              repeat=rng.randint(1, 2)))
            size = rng.randint(1, min(3, len(universe)))
            rels.append((f"R{i}", len(universe[0]),
                         rng.sample(universe, size)))
        template = RelationalStructure(range(n), rels)
        if math.prod(len(r.columns[0]) for r in template.relations) <= 16:
            out.append(template)
    return out


def test_multi_relation_templates_search_and_lift_like_their_collapse():
    """An operation preserves a product of non-empty relations exactly
    when it preserves each factor: the search on a template and on its
    collapse agree on found or None, the template's tables preserve the
    collapse, and they lift to D(A) (checked exhaustively on gadgets of
    at most 40 vertices)."""
    systems = (wnu_system(3), majority_system(), three_permutability_system())
    seen = Counter()
    for template in multi_relation_templates(random.Random(3), 20):
        collapse = collapse_to_single_relation(template).structure
        gadget = build_gadget(template)
        for system in systems:
            interp = find_interpretations(template, system)
            on_collapse = find_interpretations(collapse, system)
            assert (interp is None) == (on_collapse is None), template
            if interp is None:
                seen["none"] += 1
                continue
            for table in interp.values():
                assert table.polymorphism_failure(collapse) is None
            if gadget.digraph.num_vertices() <= 40:
                lifted = lift_general(gadget, system, interp)
                ok, why = verify_lifted_system(gadget, lifted, system)
                assert ok, (template, system, why)
                seen["verified"] += 1
    assert seen["none"] and seen["verified"] >= 10, seen


@st.composite
def gadget_templates(draw):
    """A single-relation template: 1-3 elements, arity 1-2."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    universe = list(itertools.product(range(n), repeat=k))
    tuples = draw(st.lists(st.sampled_from(universe), min_size=1,
                           unique=True))
    return RelationalStructure(range(n), [("R", k, tuples)])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(gadget_templates())
def test_diagonal_component_matches_search(template):
    """Also: on one level, the lift's rule that a pair is isolated when
    one entry has no out-edge and one has no in-edge picks out exactly
    the pairs outside the diagonal component."""
    gadget = build_gadget(template)
    g = gadget.digraph
    diag = diagonal_component_pairs(g)
    for pair in itertools.product(g.vertices, repeat=2):
        assert in_diagonal_component(gadget, pair) == (pair in diag), pair
        if gadget.levels[pair[0]] == gadget.levels[pair[1]]:
            isolated = (any(not g.succ[g.index(x)] for x in pair)
                        and any(not g.pred[g.index(x)] for x in pair))
            assert isolated == (pair not in diag), pair


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gadget_templates())
def test_endomorphism_lift_is_the_unique_pinned_extension(template):
    """With element and tuple vertices pinned to their images, the
    gadget has exactly one endomorphism, and it is the lift."""
    gadget = build_gadget(template)
    d = gadget.digraph.as_structure()
    for phi in endomorphisms(template, limit=6):
        out = lift_endomorphism(gadget, phi)
        pins = {v: out[v] for v, info in gadget.vertex_info.items()
                if info.kind != "path"}
        assert HomInstance(d, d, pins).solve_all(limit=2) == [out], phi


# -- tie orders -------------------------------------------------------


def path_key_tie_orders(gadget):
    """The tie orders by the rule they were first defined by: each vertex
    is charged to a connecting path (an element to its path towards the
    first relation tuple, a tuple vertex to the path from the first
    element, a path vertex to its own) and keyed by its level, the
    element and tuple indices of that path and its position along it;
    the high key swaps the two indices."""
    domain, tuples = gadget.template.domain, gadget.relation.tuples
    low, high = {}, {}
    for v, info in gadget.vertex_info.items():
        if info.kind == "elem":
            (a, r), pos = (info.element, tuples[0]), 0
        elif info.kind == "tup":
            a, r = domain[0], info.rtuple
            pos = gadget.paths[(a, r)].qpath.last_position
        else:
            (a, r), pos = info.edge, gadget.paths[info.edge].vertices.index(v)
        ai, ri = domain.index(a), tuples.index(r)
        low[v] = (gadget.levels[v], ai, ri, pos)
        high[v] = (gadget.levels[v], ri, ai, pos)
    return [sorted(key, key=key.__getitem__) for key in (low, high)]


def test_tie_orders_follow_the_path_key_rule():
    rng = random.Random(15)
    templates = [t() for t in ENDOMORPHISM_TEMPLATES.values()]
    templates += [random_template(rng) for _ in range(200)]
    for template in templates:
        gadget = build_gadget(template)
        by_low, low_rank, by_high, high_rank = _tie_orders(gadget)
        want_low, want_high = path_key_tie_orders(gadget)
        assert list(by_low) == want_low
        assert list(by_high) == want_high
        assert low_rank == {v: i for i, v in enumerate(want_low)}
        assert high_rank == {v: i for i, v in enumerate(want_high)}


# -- golden tables ----------------------------------------------------


GOLDEN_TEMPLATES = {"2cycle": two_cycle, "leq": leq_template,
                    "C3": directed_three_cycle, "parity": parity_template}
GOLDEN_SYSTEMS = {"wnu3": lambda: wnu_system(3), "majority": majority_system,
                  "binary": commutative_idempotent_binary_system,
                  "wnu4": lambda: wnu_system(4), "kkvw": kkvw_system,
                  "cyclic3": lambda: cyclic_system(3)}

# sha256 of every (arguments, symbol, value) line of the full lifted
# tables, then of the case totals, in vertex order; the symmetric binary
# system has no interpretation on the 2-cycle
GOLDEN_DIGESTS = {
    ("2cycle", "wnu3"):
        "314fec6a6d0f8ec1412c7de64b0a1c25a4f38f236d030edbae481c5dcead3e8c",
    ("2cycle", "majority"):
        "61ba78bec618bfadac270bc0f910807ffc02ad8186fff749fd53829581eda8e7",
    ("2cycle", "wnu4"):
        "f4be5cd8148f8d5cf28f8945c76a378bdd6937be46711d094d03aa3e169b92f9",
    ("2cycle", "kkvw"):
        "2d6d8c0c39838db06471d930a90f9f92c236cb83249b87ab439c48e27eaf4369",
    ("2cycle", "cyclic3"):
        "ba5d0c256f164d87c8dd7fed26392c68c61fd6d59fb06413679b6b9a0f93905b",
    ("leq", "wnu3"):
        "b4255278ca7f69a705bd5c2f1f892c7917ef0f3af38cd7cb8de7b339b1345f3e",
    ("leq", "majority"):
        "a02bcf7d5da32af6b279fb9970585bd3a2351f1ae0c28fdb3080dff871602816",
    ("leq", "binary"):
        "f20b6011ae9a4a68cb90f3cb71f9200d2b5fdd06609b85e7f2d5fac6a8fc651b",
    ("C3", "wnu3"):
        "4bf9f3fdb34a844ca76806ae847546b4c198abb5f4a9097828bda5a8118b600e",
    ("C3", "majority"):
        "b4a10ff8df1577f75984185a1230cb725bdc3517d1444f354e0d0fcc24fab993",
    ("C3", "binary"):
        "98437980954a70799a1c236cf9aef9d3e69ed57391c64833c4583bfce48aa2db",
    ("parity", "wnu3"):
        "0b1e3fafcb454405ef9b10ecc1d733864be2c807ebbc12c9ee823318c897bb31",
}


def full_table_digest(gadget, lifted):
    h = hashlib.sha256()
    for s in sorted(lifted):
        op = lifted[s]
        for c in itertools.product(gadget.digraph.vertices, repeat=op.arity):
            h.update(("\t".join(c + (s, op(*c))) + "\n").encode())
    for s in sorted(lifted):
        for case, count in sorted(lifted[s].case_counts.items()):
            h.update(f"{s}\t{case}\t{count}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("template,system", sorted(GOLDEN_DIGESTS))
def test_full_lifted_tables_are_pinned(template, system):
    """Also with the tables given over the template's elements in
    reverse order: the lift reads them through their own domain."""
    t = GOLDEN_TEMPLATES[template]()
    sysm = GOLDEN_SYSTEMS[system]()
    interp = find_interpretations(t, sysm)
    gadget = build_gadget(t)
    for tables in (interp, {s: OperationTable(op.domain[::-1], op.arity,
                                              dict(op.rows()))
                            for s, op in interp.items()}):
        lifted = lift_general(gadget, sysm, tables)
        assert full_table_digest(gadget, lifted) == \
            GOLDEN_DIGESTS[(template, system)]


# the case of every entry of the 2-cycle's ternary weak near-unanimity
# lift, over all its rows
WNU3_CASES_ON_THE_TWO_CYCLE = {
    "diagonal-mixed": 264, "diagonal-single": 288, "diagonal-zigzag": 248,
    "elements": 8, "isolated-pair": 216, "isolated-set": 3672,
    "multi-level": 3360, "split-low": 5760, "tuples": 8}


def test_case_counts_of_a_full_lift_are_pinned(gad):
    system = wnu_system(3)
    w = lift_general(gad, system,
                     find_interpretations(two_cycle(), system))["w"]
    for prefix in itertools.product(gad.digraph.vertices, repeat=2):
        w.row(prefix)
    assert dict(w.case_counts) == WNU3_CASES_ON_THE_TWO_CYCLE


def test_binary_symmetric_system_has_no_interpretation_on_the_two_cycle():
    assert find_interpretations(
        two_cycle(), commutative_idempotent_binary_system()) is None
