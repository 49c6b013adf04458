import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcsp.algebra import (IdentitySystem, commutative_idempotent_binary_system,
                           find_interpretations, find_wnu, majority_system,
                           maltsev_system, three_permutability_system,
                           wnu_system, zigzag_operations)
from dgcsp.gadget import build_gadget, elem_name, tup_name
from dgcsp.lifting import (LiftInvariantError, UnliftableSystemError,
                           in_diagonal_component, lift_endomorphism,
                           lift_general, lift_wnu,
                           polymorphism_failure_on_digraph,
                           verify_lifted_system)
from dgcsp.selftest import diagonal_component_pairs
from dgcsp.structures import RelationalStructure
from dgcsp.templates import leq_template, one_element, two_cycle


@pytest.fixture(scope="module")
def gad():
    return build_gadget(two_cycle())


def valley_and_peak_at(gadget, level):
    g = gadget.digraph
    valley = peak = None
    for v in g.vertices:
        if gadget.levels[v] != level:
            continue
        if not g.in_neighbors(v):
            valley = v
        elif not g.out_neighbors(v):
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
        assert gad.digraph.has_edge(out[u], out[v])
    for v in gad.digraph.vertices:
        assert gad.levels[out[v]] == gad.levels[v]


def test_non_preserving_map_is_rejected(gad):
    with pytest.raises(UnliftableSystemError):
        lift_endomorphism(gad, {"0": "0", "1": "0"})


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
    gadget = build_gadget(template)
    g = gadget.digraph
    diag = diagonal_component_pairs(g)
    for pair in itertools.product(g.vertices, repeat=2):
        assert in_diagonal_component(gadget, pair) == (pair in diag), pair
