import itertools
import random
from collections import Counter

import pytest

from dgcsp import algebra, selftest
from dgcsp.algebra import (Identity, IdentityParseError, IdentitySystem,
                           OperationTable, Term, check_identities,
                           commutative_idempotent_binary_system, core_of,
                           cyclic_system, endomorphisms, find_interpretations, find_wnu,
                           is_core, kkvw_system, majority_system,
                           maltsev_system, polymorphism_failure,
                           three_permutability_system, wnu_system,
                           zigzag_operations)
from dgcsp.gadget import build_gadget, elem_name
from dgcsp.lifting import LiftedOperation, lift_endomorphism, lift_general
from dgcsp.structures import RelationalStructure, UnionFind
from dgcsp.templates import (leq_template, parity_template, two_cycle,
                             zigzag_digraph_template)


def three_cycle():
    return RelationalStructure(
        ["0", "1", "2"],
        [("E", 2, [("0", "1"), ("1", "2"), ("2", "0")])])


# -- operation tables -------------------------------------------------


def test_table_of_arity_below_one_is_refused():
    """A table needs at least one argument, so that each row has a
    prefix of ``arity - 1`` entries."""
    for arity in (0, -1):
        with pytest.raises(ValueError, match="arity at least 1"):
            OperationTable(["0", "1"], arity, {(): "1"})


def test_table_from_function_and_json():
    t = OperationTable.from_function(["0", "1"], 2, min)
    assert t("0", "1") == "0"
    assert all(t(x, x) == x for x in t.domain)


def test_table_rows_calls_and_listing_agree_with_its_function():
    """On seeded random tables of arity 1-4 over 1-5 elements in a
    shuffled order, ``row``, calls and ``rows()`` all read the function
    the table was built from: rows in domain order, listing in product
    order."""
    rng = random.Random(7)
    for _ in range(40):
        domain = [f"e{i}" for i in range(rng.randint(1, 5))]
        rng.shuffle(domain)
        m = rng.randint(1, 4)
        values = {args: rng.choice(domain)
                  for args in itertools.product(domain, repeat=m)}
        t = OperationTable.from_function(domain, m, lambda *a: values[a])
        assert list(t.rows()) == list(values.items())
        for prefix in itertools.product(domain, repeat=m - 1):
            assert t.row(prefix) == tuple(values[prefix + (y,)]
                                          for y in domain)
            assert all(t(*prefix, y) == values[prefix + (y,)]
                       for y in domain)


def test_table_reads_reject_wrong_lengths_and_unknown_elements():
    t = OperationTable.from_function(["0", "1", "2"], 3,
                                     lambda x, y, z: max(x, y, z))
    for args in [(), ("0", "1"), ("0", "1", "2", "0")]:
        with pytest.raises(TypeError):
            t(*args)
    for prefix in [(), ("0",), ("0", "1", "2")]:
        with pytest.raises(TypeError):
            t.row(prefix)
    with pytest.raises(KeyError):
        t("0", "1", "3")
    with pytest.raises(KeyError):
        t.row(("3", "0"))


def test_polymorphism_failure_reports_witness():
    t = OperationTable.from_function(["0", "1"], 2, min)
    bad = t.polymorphism_failure(two_cycle())
    assert bad is not None
    name, combo, image = bad
    assert name == "E"
    assert image not in two_cycle().relation("E").tuples
    assert t.polymorphism_failure(leq_template()) is None


def _polymorphism_failure_by_loop(op, structure):
    """The reference loop: every combination of relation tuples in
    product order, its image read entry by entry off the operation by
    calls."""
    for r in structure.relations:
        related = frozenset(r.tuples)
        for combo in itertools.product(r.tuples, repeat=op.arity):
            image = tuple(op(*args) for args in zip(*combo))
            if image not in related:
                return (r.name, combo, image)
    return None


def _random_multi_relation_template(rng):
    """One to three random relations of arity 1 to 3 over a shared
    domain, listed in a shuffled order."""
    parts = [selftest.random_template(rng, max_arity=3)
             for _ in range(rng.randint(1, 3))]
    domain = list(max((p.domain for p in parts), key=len))
    rng.shuffle(domain)
    return RelationalStructure(
        domain, [(f"R{i}", p.relations[0].arity, p.relations[0].tuples)
                 for i, p in enumerate(parts)])


def _failure_cases():
    """Operations against structures: random tables over random
    templates, projections and found polymorphisms (which pass), a
    template with a unary and a ternary relation and an element no tuple
    uses, tables over a larger domain whose values leave the structure's,
    tables of arity 1 and 2 on a structure with empty relations of arity
    1 and 2, and lifted operations on the 2-cycle's gadget digraph."""
    rng = random.Random(24)
    for _ in range(60):
        s = _random_multi_relation_template(rng)
        dom = list(s.domain)
        rng.shuffle(dom)
        m = rng.randint(1, 3)
        yield s, OperationTable.from_function(
            dom, m, lambda *args: rng.choice(dom))
        yield s, OperationTable.from_function(
            dom, m, lambda *args: args[rng.randrange(m)] if rng.random() < 0.9
            else rng.choice(dom))
        yield s, OperationTable.from_function(dom, m, lambda *args: args[-1])
    unused = RelationalStructure(["a", "b", "c", "u"], [
        ("U", 1, [("a",), ("c",)]),
        ("T", 3, [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"),
                  ("a", "a", "b")])])
    for m in (1, 2, 3):
        for _ in range(20):
            yield unused, OperationTable.from_function(
                unused.domain, m, lambda *args: rng.choice("abcu"))
    for s, system in ((unused, IdentitySystem({"f": 2}, [])),
                      (two_cycle(), majority_system()),
                      (leq_template(), wnu_system(3))):
        for t in find_interpretations(s, system).values():
            yield s, t
    wider = ["x", "a", "c", "b", "u"]
    for _ in range(20):
        yield unused, OperationTable.from_function(
            wider, 2, lambda *args: rng.choice(wider))
    yield unused, OperationTable.from_function(
        wider, 3, lambda x, y, z: "x" if (x, y, z) == ("b", "c", "a") else x)
    empty = RelationalStructure(["a", "b", "c"], [
        ("N", 1, []), ("M", 2, []),
        ("E", 2, [("a", "b"), ("b", "c"), ("c", "a")]), ("P", 1, [])])
    for m in (1, 2):
        for _ in range(10):
            yield empty, OperationTable.from_function(
                empty.domain, m, lambda *args: rng.choice("abc"))
    gadget = build_gadget(two_cycle())
    g = gadget.digraph.as_structure()
    for system, symbol in ((wnu_system(3), "w"), (majority_system(), "maj"),
                           (kkvw_system(), "v")):
        yield g, lift_general(gadget, system,
                              find_interpretations(two_cycle(), system))[symbol]
    images = lift_endomorphism(gadget, {"0": "1", "1": "0"})
    yield g, LiftedOperation(gadget, 1, lambda prefix: (
        [images[v] for v in g.domain], Counter()))


def test_polymorphism_failure_matches_the_reference_loop():
    """The first failing combination in product order, with its image,
    or None, exactly as the loop over name tuples finds it."""
    verdicts = set()
    for s, op in _failure_cases():
        want = _polymorphism_failure_by_loop(op, s)
        assert polymorphism_failure(op, s) == want
        if isinstance(op, OperationTable):
            assert op.polymorphism_failure(s) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


# -- identity systems -------------------------------------------------


def test_parse_identity_file():
    sys_ = IdentitySystem.parse("""
        # a Maltsev operation
        idempotent p
        p(y, x, x) = y
        p(x, x, y) = y
    """)
    assert sys_.symbols == {"p": 3}
    assert len(sys_.identities) == 2
    assert sys_.idempotent == frozenset({"p"})


def test_parse_symbol_named_like_the_marker():
    # only a first word of exactly ``idempotent`` makes a marker line
    sys_ = IdentitySystem.parse("""
        idempotent f
        idempotents(x,y,y) = idempotents(y,x,y)
        f(x, y) = f(y, x)
    """)
    assert sys_.symbols == {"idempotents": 3, "f": 2}
    assert len(sys_.identities) == 2
    assert sys_.idempotent == frozenset({"f"})


def test_parse_round_trip_through_str():
    for sys_ in (three_permutability_system(), cyclic_system(3)):
        again = IdentitySystem.parse(str(sys_))
        assert again.symbols == sys_.symbols
        assert again.identities == sys_.identities
        assert again.idempotent == sys_.idempotent


def test_parse_rejects_garbage():
    with pytest.raises(IdentityParseError):
        IdentitySystem.parse("f(x y) = x")
    with pytest.raises(IdentityParseError):
        IdentitySystem.parse("f(x, y) = f(x)")
    with pytest.raises(IdentityParseError):
        IdentitySystem.parse("idempotent g")


def test_check_identities_finds_violation():
    proj = OperationTable.from_function(["0", "1"], 3, lambda x, y, z: x)
    assert check_identities({"w": proj}, wnu_system(3)) == \
        (False, ("w(y,x,x) = w(x,y,x)", {"x": "0", "y": "1"}))


def test_check_identities_reports_a_bare_variable_side():
    """The third projection passes the first two majority identities and
    fails the last, whose right side is a bare variable."""
    third = OperationTable.from_function(["0", "1"], 3, lambda x, y, z: z)
    assert check_identities({"maj": third}, majority_system()) == \
        (False, ("maj(x,x,y) = x", {"x": "0", "y": "1"}))


def test_canned_systems_mark_idempotence():
    for sys_ in (wnu_system(4), majority_system(), maltsev_system(),
                 three_permutability_system(),
                 commutative_idempotent_binary_system(), kkvw_system(),
                 cyclic_system(3)):
        assert sys_.idempotent == frozenset(sys_.symbols)
    with pytest.raises(ValueError):
        wnu_system(2)


def test_cyclic_system_rotates_its_arguments():
    system = cyclic_system(3)
    assert system.symbols == {"c": 3}
    assert [str(i) for i in system.identities] == \
        ["c(x1,x2,x3) = c(x2,x3,x1)"]
    with pytest.raises(ValueError):
        cyclic_system(1)


def test_no_cyclic_ternary_term_on_the_directed_three_cycle():
    """Applied to the edges (0, 1), (1, 2) and (2, 0), a cyclic ternary
    polymorphism would give an edge between equal values, c(0, 1, 2) and
    c(1, 2, 0), and the 3-cycle has no loop."""
    assert find_interpretations(three_cycle(), cyclic_system(3)) is None


def test_kkvw_system_round_trips_through_the_file_format():
    system = kkvw_system()
    assert system.symbols == {"u": 3, "v": 4}
    assert len(system.identities) == 6
    again = IdentitySystem.parse(str(system))
    assert again.symbols == system.symbols
    assert again.identities == system.identities
    assert again.idempotent == system.idempotent


def test_parse_checks_arity_across_lines():
    """One symbol at two arities, on separate lines, is a parse error."""
    with pytest.raises(IdentityParseError):
        IdentitySystem.parse("f(x, y) = f(y, x)\nf(x, x, y) = x")


def test_nonpositive_or_non_integer_arity_is_refused():
    """The constructor is the one arity check: a symbol of arity 0, a
    negative one, or one that is not an integer is refused there, before
    any search reads it."""
    for arity in (0, -1, True, 2.0, "2"):
        with pytest.raises(IdentityParseError, match="arity"):
            IdentitySystem({"c": arity}, [])
    with pytest.raises(IdentityParseError, match="arity"):
        find_interpretations(leq_template(), IdentitySystem({"c": 0}, []))


# The canned systems as Term/Identity objects, built by hand; the library
# builds them from identity text, and both must agree field by field.


def _wnu_by_terms(m, symbol="w"):
    terms = [Term(symbol, tuple("y" if j == pos else "x" for j in range(m)))
             for pos in range(m)]
    idents = [Identity(terms[i], terms[i + 1]) for i in range(m - 1)]
    return IdentitySystem({symbol: m}, idents, [symbol])


def _kkvw_by_terms():
    u, v = _wnu_by_terms(3, "u"), _wnu_by_terms(4, "v")
    link = Identity(Term("u", ("y", "x", "x")),
                    Term("v", ("y", "x", "x", "x")))
    return IdentitySystem({"u": 3, "v": 4},
                          u.identities + v.identities + (link,), ["u", "v"])


def _cyclic_by_terms(p):
    xs = tuple(f"x{i}" for i in range(1, p + 1))
    return IdentitySystem(
        {"c": p}, [Identity(Term("c", xs), Term("c", xs[1:] + xs[:1]))], ["c"])


def _fixed_by_terms():
    def app(symbol, *args):
        return Term(symbol, args)

    def var(name):
        return Term(None, (name,))

    return [
        (majority_system, IdentitySystem({"maj": 3}, [
            Identity(app("maj", "y", "x", "x"), var("x")),
            Identity(app("maj", "x", "y", "x"), var("x")),
            Identity(app("maj", "x", "x", "y"), var("x"))], ["maj"])),
        (maltsev_system, IdentitySystem({"p": 3}, [
            Identity(app("p", "y", "x", "x"), var("y")),
            Identity(app("p", "x", "x", "y"), var("y"))], ["p"])),
        (three_permutability_system, IdentitySystem({"p1": 3, "p2": 3}, [
            Identity(app("p1", "x", "y", "y"), var("x")),
            Identity(app("p2", "x", "x", "y"), var("y")),
            Identity(app("p1", "x", "x", "y"), app("p2", "x", "y", "y"))],
            ["p1", "p2"])),
        (commutative_idempotent_binary_system, IdentitySystem({"f": 2}, [
            Identity(app("f", "x", "y"), app("f", "y", "x"))], ["f"])),
        (kkvw_system, _kkvw_by_terms()),
    ]


def _same_system(got, want):
    assert list(got.symbols.items()) == list(want.symbols.items())
    assert got.identities == want.identities
    assert got.idempotent == want.idempotent
    assert str(got) == str(want)


@pytest.mark.parametrize("m", range(3, 8))
@pytest.mark.parametrize("symbol", ["w", "u", "v"])
def test_wnu_system_matches_its_terms(m, symbol):
    _same_system(wnu_system(m, symbol), _wnu_by_terms(m, symbol))


@pytest.mark.parametrize("p", range(2, 7))
def test_cyclic_system_matches_its_terms(p):
    _same_system(cyclic_system(p), _cyclic_by_terms(p))


def test_fixed_systems_match_their_terms():
    for make, want in _fixed_by_terms():
        _same_system(make(), want)


# -- indicator search -------------------------------------------------


def test_majority_exists_on_the_two_cycle():
    interp = find_interpretations(two_cycle(), majority_system())
    assert interp is not None
    maj = interp["maj"]
    assert maj.polymorphism_failure(two_cycle()) is None
    ok, _ = check_identities(interp, majority_system())
    assert ok


def test_affine_cycle_has_maltsev_and_wnu():
    c3 = three_cycle()
    assert find_interpretations(c3, maltsev_system()) is not None
    w = find_wnu(c3, 3)
    assert w is not None and w.polymorphism_failure(c3) is None


def test_kkvw_operations_exist_exactly_with_bounded_width():
    interp = find_interpretations(two_cycle(), kkvw_system())
    assert interp is not None
    for x in two_cycle().domain:
        for y in two_cycle().domain:
            assert interp["u"](y, x, x) == interp["v"](y, x, x, x)
    triangle = RelationalStructure(
        ["0", "1", "2"],
        [("E", 2, [(a, b) for a in "012" for b in "012" if a != b])])
    assert find_interpretations(triangle, kkvw_system()) is None


def test_triangle_has_no_small_wnu():
    """The 3-coloring template: no weak near-unanimity at any arity; the
    search rules out 3 and 4."""
    k3 = RelationalStructure(
        ["0", "1", "2"],
        [("E", 2, [(a, b) for a in "012" for b in "012" if a != b])])
    assert find_wnu(k3, 3) is None
    assert find_wnu(k3, 4) is None


def _indicator_instance_by_names(structure, system):
    """The reference rule: one indicator per ``(symbol, args)`` name
    tuple, merged and pinned by the identities, numbered in the order its
    class first appears, and one constraint per symbol and combination of
    relation tuples, its columns looked up by name tuple.  Returns the
    source and pins, or None where the pins contradict each other."""
    domain = structure.domain
    uf = UnionFind()
    pinned = [((s, (a,) * system.symbols[s]), a)
              for s in system.idempotent for a in domain]
    for ident in system.identities:
        vs = sorted(ident.variables())
        l, r = ident.lhs, ident.rhs
        if l.symbol is None:
            l, r = r, l
        for values in itertools.product(domain, repeat=len(vs)):
            assignment = dict(zip(vs, values))
            if l.symbol is None:
                if assignment[l.args[0]] != assignment[r.args[0]]:
                    return None
                continue
            lnode = (l.symbol, tuple(assignment[v] for v in l.args))
            if r.symbol is None:
                pinned.append((lnode, assignment[r.args[0]]))
            else:
                uf.union(lnode, (r.symbol,
                                 tuple(assignment[v] for v in r.args)))
    var, first = {}, {}
    for s, ar in system.symbols.items():
        for args in itertools.product(domain, repeat=ar):
            var[s, args] = first.setdefault(uf.find((s, args)), len(first))
    pins = {}
    for node, value in pinned:
        if pins.setdefault(var[node], value) != value:
            return None
    source = RelationalStructure(range(len(first)), [
        (r.name, r.arity,
         [tuple(var[s, column] for column in zip(*combo))
          for s, ar in system.symbols.items()
          for combo in itertools.product(r.tuples, repeat=ar)])
        for r in structure.relations])
    return source, {source.domain[x]: v for x, v in pins.items()}


class _Captured(Exception):
    pass


def test_indicator_instance_matches_the_name_tuple_rule(monkeypatch):
    """The source and pins that ``find_interpretations`` hands the solver
    are the ones the name-tuple rule builds, on random multi-relation
    templates with shuffled domains, for systems with merges only, pins
    from bare-variable sides, and two symbols."""
    made = []

    def capture(source, target, pins):
        made.append((source, pins))
        raise _Captured

    monkeypatch.setattr(algebra, "HomInstance", capture)
    systems = [wnu_system(3), majority_system(),
               three_permutability_system(), cyclic_system(2),
               commutative_idempotent_binary_system()]
    rng = random.Random(8)
    built = 0
    for _ in range(100):
        template = _random_multi_relation_template(rng)
        for system in systems:
            made.clear()
            try:
                find_interpretations(template, system)
            except _Captured:
                pass
            want = _indicator_instance_by_names(template, system)
            if want is None:
                assert made == []
                continue
            (source, pins), = made
            assert source.domain == want[0].domain
            assert ([(r.name, r.arity, list(map(list, r.columns)))
                     for r in source.relations]
                    == [(r.name, r.arity, list(map(list, r.columns)))
                        for r in want[0].relations])
            assert pins == want[1]
            built += 1
    assert built > 400


def test_find_interpretations_without_identities():
    """An empty system asks for any polymorphism of the given arity."""
    out = find_interpretations(two_cycle(), IdentitySystem({"f": 2}, []))
    assert out is not None
    t = out["f"]
    assert t.arity == 2
    assert t.polymorphism_failure(two_cycle()) is None


def test_find_wnu_on_two_cycle():
    w = find_wnu(two_cycle(), 3)
    assert w is not None
    ok, _ = check_identities({"w": w}, wnu_system(3))
    assert ok


# -- the zigzag's operations ------------------------------------------


def test_zigzag_operations_satisfy_their_systems():
    zz = zigzag_digraph_template()
    ops = zigzag_operations()
    for name in ops:
        assert ops[name].polymorphism_failure(zz) is None, name
    ok, _ = check_identities({"maj": ops["median"]}, majority_system())
    assert ok
    ok, _ = check_identities({"p1": ops["p1"], "p2": ops["p2"]},
                             three_permutability_system())
    assert ok
    ok, _ = check_identities({"f": ops["meet"]},
                             commutative_idempotent_binary_system())
    assert ok


def test_zigzag_has_no_maltsev():
    assert find_interpretations(zigzag_digraph_template(),
                                maltsev_system()) is None


# -- the preservation theorem, searched on the gadget -----------------


def _preserves(f, relation):
    """Whether the binary map ``f`` (a dict on pairs) sends every two
    tuples of ``relation`` coordinatewise into it."""
    related = set(relation.tuples)
    return all(tuple(map(lambda a, b: f[a, b], s, t)) in related
               for s in relation.tuples for t in relation.tuples)


def _commutative_idempotent_exists(structure):
    """Brute force: some idempotent ``f(x, y) = f(y, x)`` preserves
    every relation."""
    pairs = list(itertools.combinations(structure.domain, 2))
    for values in itertools.product(structure.domain, repeat=len(pairs)):
        f = {(a, a): a for a in structure.domain}
        for (a, b), v in zip(pairs, values):
            f[a, b] = f[b, a] = v
        if all(_preserves(f, r) for r in structure.relations):
            return True
    return False


def test_template_and_gadget_have_the_same_commutative_operations():
    """On small random templates A, a commutative idempotent binary
    operation exists on A exactly when the indicator search finds one on
    the gadget D(A), searched as a plain structure; a found operation
    maps element vertices to element vertices, and restricted to them it
    is such an operation of A."""
    system = commutative_idempotent_binary_system()
    rng = random.Random(4)
    answers = []
    for _ in range(40):
        a = selftest.random_template(rng, max_elements=3, max_arity=3,
                                     max_tuples=4)
        expected = _commutative_idempotent_exists(a)
        out = find_interpretations(build_gadget(a).digraph.as_structure(),
                                   system)
        assert (out is not None) == expected
        answers.append(expected)
        if out is not None:
            elem = {elem_name(x): x for x in a.domain}
            f = {(x, y): elem.get(out["f"](elem_name(x), elem_name(y)))
                 for x in a.domain for y in a.domain}
            assert None not in f.values()
            assert all(f[x, x] == x and f[x, y] == f[y, x]
                       for x, y in f)
            assert _preserves(f, a.relations[0])
    assert 0 < answers.count(False) < len(answers)


def test_maltsev_holds_on_the_two_cycle_but_not_on_its_gadget():
    """The control: the paper's preservation does not cover Maltsev
    terms, and ``2cycle`` is where they part."""
    assert find_interpretations(two_cycle(), maltsev_system()) is not None
    gadget = build_gadget(two_cycle()).digraph.as_structure()
    assert find_interpretations(gadget, maltsev_system()) is None


def _on_elements(gadget, table):
    """A ternary operation of the gadget, restricted to its element
    vertices and read through ``vertex_info`` as an operation of the
    template: a dict on triples of elements, or None if some value is
    not an element vertex."""
    info = gadget.vertex_info
    elems = [v for v in gadget.digraph.vertices if info[v].kind == "elem"]
    f = {}
    for args in itertools.product(elems, repeat=3):
        value = info[table(*args)]
        if value.kind != "elem":
            return None
        f[tuple(info[v].element for v in args)] = value.element
    return f


@pytest.mark.parametrize("system, holds", [
    (majority_system(),
     lambda f, x, y: f[y, x, x] == f[x, y, x] == f[x, x, y] == x),
    (wnu_system(3),
     lambda f, x, y: f[x, x, x] == x
     and f[y, x, x] == f[x, y, x] == f[x, x, y]),
], ids=["majority", "wnu3"])
def test_two_cycle_gadget_has_the_ternary_operations_of_the_two_cycle(
        system, holds):
    """Searched directly on D(2cycle), a deep search, the gadget has a
    majority operation and a WNU-3; on the element vertices each is such
    an operation of ``2cycle``, by evaluating its identities and the
    preservation of the edges here rather than through
    ``check_identities``."""
    a = two_cycle()
    gadget = build_gadget(a)
    (table,) = find_interpretations(gadget.digraph.as_structure(),
                                    system).values()
    f = _on_elements(gadget, table)
    assert f is not None
    assert all(holds(f, x, y) for x in a.domain for y in a.domain)
    edges = set(a.relations[0].tuples)
    assert all((f[tuple(u for u, _ in es)], f[tuple(v for _, v in es)])
               in edges for es in itertools.product(edges, repeat=3))


# -- endomorphisms and cores ------------------------------------------


def test_two_cycle_endomorphisms():
    endos = endomorphisms(two_cycle())
    assert len(endos) == 2
    assert {"0": "0", "1": "1"} in endos
    assert {"0": "1", "1": "0"} in endos
    assert is_core(two_cycle())


def test_parity_template_is_rigid():
    assert endomorphisms(parity_template()) == [{"0": "0", "1": "1"}]
    assert is_core(parity_template())


def test_core_of_a_retractable_template():
    t = RelationalStructure(
        ["0", "1", "2"],
        [("E", 2, [("0", "1"), ("1", "0"), ("2", "1")])])
    assert not is_core(t)
    res = core_of(t)
    assert len(res.core.domain) == 2
    assert is_core(res.core)
    # the retraction fixes the image pointwise
    for v in res.core.domain:
        assert res.retraction[v] == v


def test_core_of_a_core_is_itself():
    res = core_of(two_cycle())
    assert res.core.domain == two_cycle().domain
