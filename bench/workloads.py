"""Seeded inputs, timed items and independent output checks.

Every workload is a list of items.  An item is one call chain into the
public API of ``dgcsp`` (the part that is timed) plus a check of its
output.  The checks never ask ``dgcsp`` whether an answer is right: they
re-evaluate homomorphisms, identities and relation tuples with the loops
in this file, against answers known by construction of the inputs.

Inputs are plain JSON objects (the on-disk structure and digraph
formats), built here from a seed; the program only ever sees them
through ``from_json``.  The same seed gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable


class CheckFailure(AssertionError):
    """An output of the program disagrees with the independent check."""


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


@dataclass
class Item:
    """One timed operation: ``run()`` calls the program, ``check(out)``
    raises :class:`CheckFailure` when the output is wrong."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# ---------------------------------------------------------------------
# structures as JSON objects


def structure_json(domain, relations):
    return {"domain": list(domain),
            "relations": [{"name": name, "arity": arity,
                           "tuples": [list(t) for t in tuples]}
                          for name, arity, tuples in relations]}


def relation_sets(struct):
    """Relation name -> set of tuples, read from a structure object."""
    return {r["name"]: {tuple(t) for t in r["tuples"]}
            for r in struct["relations"]}


def collapsed_tuples(template):
    """The product relation of all template relations in declaration
    order: the single relation a template collapses to."""
    rels = [[tuple(t) for t in r["tuples"]] for r in template["relations"]]
    return {tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*rels)}


def relabelled(domain, relations, rng):
    """The same structure with seeded element names and domain order."""
    names = [f"e{i}" for i in range(len(domain))]
    rng.shuffle(names)
    ren = dict(zip(domain, names))
    order = list(domain)
    rng.shuffle(order)
    return structure_json(
        [ren[a] for a in order],
        [(n, ar, [tuple(ren[x] for x in t) for t in ts])
         for n, ar, ts in relations])


def k3_template():
    d = ["0", "1", "2"]
    return structure_json(d, [("E", 2, [(a, b) for a in d for b in d if a != b])])


def one_in_three_template():
    """1-in-3 satisfiability plus the unary relation {1}; collapses to
    one relation of arity 4."""
    return structure_json(["0", "1"], [
        ("R", 3, [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")]),
        ("U", 1, [("1",)])])


def two_cycle_relations():
    return ["0", "1"], [("E", 2, [("0", "1"), ("1", "0")])]


def leq_relations():
    return ["0", "1"], [("E", 2, [("0", "0"), ("0", "1"), ("1", "1")])]


def directed_cycle_relations(n):
    d = [str(i) for i in range(n)]
    return d, [("E", 2, [(d[i], d[(i + 1) % n]) for i in range(n)])]


def transitive_tournament_relations(n):
    d = [str(i) for i in range(n)]
    return d, [("E", 2, [(a, b) for i, a in enumerate(d) for b in d[i + 1:]])]


def complete_graph_relations(n):
    d = [str(i) for i in range(n)]
    return d, [("E", 2, [(a, b) for a in d for b in d if a != b])]


# ---------------------------------------------------------------------
# instance families with a planted answer
#
# The solver branches smallest-domain-first with no restarts, so on
# random sparse graphs in an arbitrary variable order its time is
# heavy-tailed (a 160-vertex planted 3-colourable graph solved in 0.01 s
# in one order and ran past 25 s in another).  The YES families are
# chosen so that propagation decides them whatever the order: random
# 2-trees are uniquely 3-colourable and every colouring of one edge
# forces the rest, and Berge-acyclic 1-in-3 instances are solved by arc
# consistency.  NO items put their obstruction where propagation finds
# it.


def _ordered(names):
    return sorted(names, key=lambda s: (s[0], int(s[1:])))


def two_tree(n, rng, k4_first=False):
    """A random 2-tree on n vertices (3-colourable, 2n-3 edges) with
    seeded names and edge directions.  With ``k4_first`` a K4 on vertices
    a0..a3 is attached ahead of it in variable order, so the instance has
    no 3-colouring.  Returns (instance, planted answer)."""
    edges = [(0, 1), (1, 2), (0, 2)]
    for v in range(3, n):
        u, w = rng.choice(edges)
        edges += [(u, v), (w, v)]
    perm = list(range(n))
    rng.shuffle(perm)
    name = [f"x{perm[i]}" for i in range(n)]
    tuples = [(name[u], name[v]) if rng.random() < 0.5 else (name[v], name[u])
              for u, v in edges]
    domain = _ordered(name)
    if k4_first:
        kn = [f"a{i}" for i in range(4)]
        tuples = [(a, b) for i, a in enumerate(kn) for b in kn[i + 1:]] \
            + [("a3", rng.choice(name))] + tuples
        domain = kn + domain
    return structure_json(domain, [("E", 2, tuples)]), not k4_first


def one_in_three_tree(m, units, rng):
    """A random Berge-acyclic 1-in-3 instance with m constraints and a
    planted solution, plus ``units`` unary constraints on variables the
    planted solution sets to 1.  Returns (instance, True)."""
    val = [1, 0, 0]
    cons = [(0, 1, 2)]
    for _ in range(m - 1):
        v = rng.randrange(len(val))
        a, b = len(val), len(val) + 1
        if val[v]:
            val += [0, 0]
        else:
            one = rng.randrange(2)
            val += [one, 1 - one]
        t = [v, a, b]
        rng.shuffle(t)
        cons.append(tuple(t))
    perm = list(range(len(val)))
    rng.shuffle(perm)
    name = [f"x{perm[i]}" for i in range(len(val))]
    ones = [i for i in range(len(val)) if val[i]]
    unit = rng.sample(ones, units)
    inst = structure_json(_ordered(name), [
        ("R", 3, [tuple(name[i] for i in t) for t in cons]),
        ("U", 1, [(name[i],) for i in sorted(unit)])])
    return inst, True


def odd_cycle(length, rng):
    """An odd cycle with seeded names and edge directions, as an
    instance over the 2-cycle.  Returns (instance, False)."""
    assert length % 2 == 1
    perm = list(range(length))
    rng.shuffle(perm)
    name = [f"c{perm[i]}" for i in range(length)]
    tuples = []
    for i in range(length):
        u, v = name[i], name[(i + 1) % length]
        tuples.append((u, v) if rng.random() < 0.5 else (v, u))
    return structure_json(_ordered(name), [("E", 2, tuples)]), False


def forward_digraph(instance, template):
    """The forward digraph of an instance, built here from the paper's
    construction rather than by ``forward_translate``.

    Each collapsed constraint gets a top vertex joined to the i-th
    variable of its block by the connecting path for coordinate set
    {i}: a climbing edge, one section per coordinate (a climbing edge
    for i, a zigzag up-down-up for the others) and a final climbing
    edge.  Slices of other relations are padded with fresh variables;
    an unconstrained variable gets the path for the empty set.
    """
    rels = [(r["name"], r["arity"]) for r in template["relations"]]
    k = sum(ar for _, ar in rels)
    variables = list(instance["domain"])
    by_name = {r["name"]: r["tuples"] for r in instance["relations"]}
    counter = itertools.count(1)

    def fresh():
        return f"g{next(counter)}"

    vertices, edges = list(variables), []

    def path(single, bottom, top):
        word = [1]
        for sec in range(1, k + 1):
            word += [1] if sec in single else [1, -1, 1]
        word.append(1)
        names = [bottom] + [fresh() for _ in range(len(word) - 1)] + [top]
        vertices.extend(names[1:-1])
        for j, d in enumerate(word):
            edges.append((names[j], names[j + 1]) if d > 0
                         else (names[j + 1], names[j]))

    constrained = set()
    for idx, (rname, _) in enumerate(rels):
        for scope in by_name.get(rname, []):
            block = []
            for m, (_, ar) in enumerate(rels):
                if m == idx:
                    block.extend(scope)
                else:
                    pads = [fresh() for _ in range(ar)]
                    vertices.extend(pads)
                    block.extend(pads)
            constrained.update(scope)
            top = fresh()
            vertices.append(top)
            for i in range(1, k + 1):
                path({i}, block[i - 1], top)
    for v in variables:
        if v not in constrained:
            top = fresh()
            vertices.append(top)
            path(set(), v, top)
    return {"vertices": vertices, "edges": [list(e) for e in edges]}


def satisfies(assignment, instance, template_rels):
    """Whether an assignment meets every constraint of an instance."""
    return all(tuple(assignment[x] for x in t) in template_rels[r["name"]]
               for r in instance["relations"] for t in r["tuples"])


# ---------------------------------------------------------------------
# identities, evaluated here from their definitions


def identity_failures(op, system, domain, assignments=None):
    """Violations of a canned identity system by ``op`` (a callable).

    ``system`` is ("wnu", m), ("majority", 3) or ("binary-commutative",
    2).  With ``assignments`` only those (x, y) pairs are tried;
    otherwise every pair over ``domain``.
    """
    kind, m = system
    pairs = (itertools.product(domain, repeat=2) if assignments is None
             else assignments)
    bad = []
    for x in domain:
        if op(*(x,) * m) != x:
            bad.append(("idempotent", x))
    for x, y in pairs:
        if kind == "wnu":
            vals = {op(*(y if j == i else x for j in range(m)))
                    for i in range(m)}
            if len(vals) != 1:
                bad.append(("wnu", x, y))
        elif kind == "majority":
            if {op(y, x, x), op(x, y, x), op(x, x, y)} != {x}:
                bad.append(("majority", x, y))
        elif op(x, y) != op(y, x):
            bad.append(("commutative", x, y))
    return bad


def preservation_failures(op, arity, rel, combos=None):
    """Tuples of relation tuples whose coordinatewise image leaves the
    relation."""
    width = len(next(iter(rel)))
    combos = (itertools.product(sorted(rel), repeat=arity)
              if combos is None else combos)
    return [combo for combo in combos
            if tuple(op(*(t[j] for t in combo)) for j in range(width))
            not in rel]


def table_function(table, domain, arity):
    """Read an operation table row by row into a dict-backed function."""
    rows = {tuple(args): value for args, value in table.rows()}
    _require(len(rows) == len(domain) ** arity
             and all(len(a) == arity for a in rows),
             "operation table is not complete")
    return lambda *args: rows[args]


def _system(dg, system):
    kind, m = system
    if kind == "wnu":
        return dg.algebra.wnu_system(m)
    if kind == "majority":
        return dg.algebra.majority_system()
    return dg.algebra.commutative_idempotent_binary_system()


def _system_name(system):
    kind, m = system
    return f"wnu{m}" if kind == "wnu" else kind


# ---------------------------------------------------------------------
# workloads
#
# A workload is two functions: ``make_inputs(seed, small)`` builds the
# JSON inputs (not timed), ``setup(dg, inputs)`` is the program's timed
# set-up and returns the items.  ``dg`` is the freshly imported package.


SIZES = {
    # (copies, 2-tree vertices), (copies, 1-in-3 constraints, unary
    # constraints), vertices of the 2-tree behind the K4, (count, least
    # and greatest length) of odd cycles.
    "forward-solve": {
        "full": dict(k3=(3, 50), one3=(3, 60, 4), k4=30, cycles=(2, 101, 151)),
        "small": dict(k3=(1, 8), one3=(1, 4, 1), k4=6, cycles=(1, 5, 9))},
    "backward-reduce": {
        "full": dict(k3=(3, 200), one3=(2, 160, 4), k4=120, cycles=(1, 281, 321)),
        "small": dict(k3=(1, 10), one3=(1, 5, 1), k4=6, cycles=(1, 5, 9))},
}


def _planted_family(seed, size):
    """Instances over K3, 1-in-3 and the 2-cycle with planted answers."""
    rng = random.Random(seed)
    k3 = k3_template()
    one3 = one_in_three_template()
    two = structure_json(*two_cycle_relations())
    cases = []
    copies, n = size["k3"]
    for c in range(copies):
        inst, ans = two_tree(n, rng)
        cases.append((f"k3-2tree-n{n}-{c}", "k3", inst, ans))
    copies, m, units = size["one3"]
    for c in range(copies):
        inst, ans = one_in_three_tree(m, units, rng)
        cases.append((f"1in3-tree-m{m}-{c}", "1in3", inst, ans))
    inst, ans = two_tree(size["k4"], rng, k4_first=True)
    cases.append((f"k3-k4first-n{size['k4']}", "k3", inst, ans))
    count, lo, hi = size["cycles"]
    for c in range(count):
        length = rng.randrange(lo, hi + 1) | 1
        inst, ans = odd_cycle(length, rng)
        cases.append((f"odd-cycle-{length}", "2cycle", inst, ans))
    return {"templates": {"k3": k3, "1in3": one3, "2cycle": two},
            "cases": cases}


def _parse_templates(dg, inputs):
    from_json = dg.structures.RelationalStructure.from_json
    return {key: from_json(t) for key, t in inputs["templates"].items()}


# -- forward-solve ----------------------------------------------------


def forward_inputs(seed, small=False):
    return _planted_family(seed, SIZES["forward-solve"]["small" if small else "full"])


def forward_setup(dg, inputs):
    from_json = dg.structures.RelationalStructure.from_json
    templates = _parse_templates(dg, inputs)
    gadgets = {key: dg.gadget.build_gadget(
        dg.structures.collapse_to_single_relation(t).structure)
        for key, t in templates.items()}
    items = []
    for name, key, inst_json, planted in inputs["cases"]:
        inst = from_json(inst_json)
        items.append(forward_item(dg, name, inst, templates[key], gadgets[key],
                                  inst_json, inputs["templates"][key], planted))
    return items


def forward_item(dg, name, inst, template, gadget, inst_json, template_json,
                 planted):
    def run():
        fr = dg.reductions.forward_translate(inst, template)
        return fr.digraph, dg.solver.digraph_hom(fr.digraph, gadget.digraph)

    def check(out):
        g, hom = out
        _require((hom is not None) == planted,
                 f"{name}: answer {hom is not None}, planted {planted}")
        if hom is None:
            return
        target = set(gadget.digraph.edges)
        _require(set(hom) == set(g.vertices), f"{name}: map is not total")
        for u, v in g.edges:
            _require((hom[u], hom[v]) in target,
                     f"{name}: edge ({u}, {v}) maps to a non-edge")
        rels = relation_sets(template_json)
        values = {}
        for x in inst_json["domain"]:
            info = gadget.vertex_info[hom[x]]
            _require(info.kind == "elem",
                     f"{name}: variable {x} maps off level 0")
            values[x] = info.element
        _require(satisfies(values, inst_json, rels),
                 f"{name}: decoded assignment breaks a constraint")

    return Item(name, run, check)


# -- backward-reduce --------------------------------------------------


def backward_inputs(seed, small=False):
    fam = _planted_family(seed, SIZES["backward-reduce"]["small" if small else "full"])
    fam["cases"] = [(name, key, forward_digraph(inst, fam["templates"][key]),
                     planted)
                    for name, key, inst, planted in fam["cases"]]
    return fam


def backward_setup(dg, inputs):
    templates = _parse_templates(dg, inputs)
    collapsed = {key: dg.structures.collapse_to_single_relation(t)
                 for key, t in templates.items()}
    items = []
    for name, key, g_json, planted in inputs["cases"]:
        g = dg.structures.Digraph.from_json(g_json)
        items.append(backward_item(dg, name, g, templates[key],
                                   collapsed[key].structure,
                                   inputs["templates"][key], planted))
    return items


def backward_item(dg, name, g, template, collapsed, template_json, planted):
    def run():
        out = dg.reductions.backward_reduce(g, template)
        if isinstance(out, dg.reductions.Reduced):
            return out, dg.solver.find_homomorphism(out.instance, collapsed)
        return out, None

    def check(res):
        out, sol = res
        reduced = hasattr(out, "instance")
        answer = sol is not None if reduced else out.answer
        _require(answer == planted,
                 f"{name}: reduced answer {answer}, planted {planted}")
        if not (reduced and sol is not None):
            return
        inst = out.instance
        rel = collapsed_tuples(template_json)
        _require(set(sol) == set(inst.domain), f"{name}: solution not total")
        for r in inst.relations:
            for t in r.tuples:
                _require(tuple(sol[x] for x in t) in rel,
                         f"{name}: solution breaks reduced tuple {t}")

    return Item(name, run, check)


# -- poly-search ------------------------------------------------------


POLY_CASES = {
    # (template, system, planted answer).  Transitive tournaments have
    # min and median; a directed cycle has every operation that commutes
    # with its rotation, so WNUs and a majority; K4 has only essentially
    # unary polymorphisms.
    "full": [(t, s, t != "K4")
             for t in ("T4", "T5", "C4", "C5", "K4")
             for s in (("wnu", 3), ("wnu", 4), ("majority", 3))],
    "small": [("T4", ("wnu", 3), True), ("T4", ("majority", 3), True),
              ("C4", ("wnu", 3), True), ("K4", ("wnu", 3), False)],
}

_POLY_TEMPLATES = {
    "T4": lambda: transitive_tournament_relations(4),
    "T5": lambda: transitive_tournament_relations(5),
    "C4": lambda: directed_cycle_relations(4),
    "C5": lambda: directed_cycle_relations(5),
    "K4": lambda: complete_graph_relations(4),
}


def poly_inputs(seed, small=False):
    rng = random.Random(seed)
    cases = POLY_CASES["small" if small else "full"]
    templates = {t: relabelled(*_POLY_TEMPLATES[t](), rng)
                 for t in dict.fromkeys(t for t, _, _ in cases)}
    return {"templates": templates, "cases": cases}


def poly_setup(dg, inputs):
    templates = _parse_templates(dg, inputs)
    return [poly_item(dg, f"{t}-{_system_name(s)}", templates[t],
                      _system(dg, s), s, inputs["templates"][t], planted)
            for t, s, planted in inputs["cases"]]


def poly_item(dg, name, template, system, sys_spec, template_json, planted):
    def run():
        return dg.algebra.find_interpretations(template, system)

    def check(out):
        _require((out is not None) == planted,
                 f"{name}: found {out is not None}, planted {planted}")
        if out is None:
            return
        _require(len(out) == 1, f"{name}: expected one operation")
        domain = template_json["domain"]
        op = table_function(next(iter(out.values())), domain, sys_spec[1])
        _require(not identity_failures(op, sys_spec, domain),
                 f"{name}: table breaks the identities")
        for rel in relation_sets(template_json).values():
            _require(not preservation_failures(op, sys_spec[1], rel),
                     f"{name}: table does not preserve a relation")

    return Item(name, run, check)


# -- lift-verify ------------------------------------------------------


LIFT_CASES = {
    # (template, system, lift route); every WNU is lifted both ways.
    "full": [("2cycle", ("wnu", 3), "wnu"), ("2cycle", ("wnu", 3), "general"),
             ("2cycle", ("majority", 3), "general"),
             ("leq", ("wnu", 3), "wnu"), ("leq", ("wnu", 3), "general"),
             ("leq", ("majority", 3), "general"),
             ("C3", ("wnu", 3), "wnu"), ("C3", ("wnu", 3), "general"),
             ("C3", ("binary-commutative", 2), "general")],
    "small": [("2cycle", ("wnu", 3), "wnu"), ("2cycle", ("wnu", 3), "general"),
              ("2cycle", ("majority", 3), "general"),
              ("C3", ("binary-commutative", 2), "general")],
}

_LIFT_TEMPLATES = {
    "2cycle": two_cycle_relations,
    "leq": leq_relations,
    "C3": lambda: directed_cycle_relations(3),
}

# identity assignments and edge tuples re-checked per lifted operation
LIFT_SAMPLE = 300


def lift_inputs(seed, small=False):
    rng = random.Random(seed)
    cases = LIFT_CASES["small" if small else "full"]
    templates = {t: relabelled(*_LIFT_TEMPLATES[t](), rng)
                 for t in dict.fromkeys(t for t, _, _ in cases)}
    return {"templates": templates, "cases": cases, "seed": seed}


def lift_setup(dg, inputs):
    templates = _parse_templates(dg, inputs)
    collapsed = {t: dg.structures.collapse_to_single_relation(s).structure
                 for t, s in templates.items()}
    gadgets = {t: dg.gadget.build_gadget(c) for t, c in collapsed.items()}
    items = []
    for i, (t, s, route) in enumerate(inputs["cases"]):
        items.append(lift_item(
            dg, f"{t}-{_system_name(s)}-{route}", collapsed[t], gadgets[t],
            _system(dg, s), s, route, inputs["templates"][t],
            inputs["seed"] * 1000 + i))
    return items


def lift_item(dg, name, template, gadget, system, sys_spec, route,
              template_json, sample_seed):
    m = sys_spec[1]

    def run():
        interp = dg.algebra.find_interpretations(template, system)
        if interp is None:
            return None
        if route == "wnu":
            lifted = {"w": dg.lifting.lift_wnu(gadget, interp["w"])}
        else:
            lifted = dg.lifting.lift_general(gadget, system, interp)
        ok, detail = dg.lifting.verify_lifted_system(gadget, lifted, system)
        return interp, lifted, ok, detail

    def check(out):
        _require(out is not None, f"{name}: no interpretation found")
        interp, lifted, ok, detail = out
        _require(ok, f"{name}: verify_lifted_system reports {detail}")
        _require(len(lifted) == 1 and len(interp) == 1,
                 f"{name}: expected one operation")
        domain = template_json["domain"]
        rel = next(iter(relation_sets(template_json).values()))
        op = next(iter(lifted.values()))
        base = table_function(next(iter(interp.values())), domain, m)
        _require(not identity_failures(base, sys_spec, domain)
                 and not preservation_failures(base, m, rel),
                 f"{name}: template operation is wrong")
        elem = {info.element: v for v, info in gadget.vertex_info.items()
                if info.kind == "elem"}
        for args in itertools.product(domain, repeat=m):
            _require(op(*(elem[a] for a in args)) == elem[base(*args)],
                     f"{name}: lift disagrees with the template on {args}")
        # the same seeded sample in every round
        rng = random.Random(sample_seed)
        vertices = list(gadget.digraph.vertices)
        edge_list = list(gadget.digraph.edges)
        edges = set(edge_list)
        pairs = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(LIFT_SAMPLE)]
        _require(not identity_failures(op, sys_spec, vertices, pairs),
                 f"{name}: lifted operation breaks an identity")
        for _ in range(LIFT_SAMPLE):
            combo = [rng.choice(edge_list) for _ in range(m)]
            _require((op(*(e[0] for e in combo)), op(*(e[1] for e in combo)))
                     in edges, f"{name}: lifted operation breaks {combo}")

    return Item(name, run, check)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[..., dict]
    setup: Callable[[Any, dict], list]


WORKLOADS = {w.name: w for w in (
    Workload("forward-solve", forward_inputs, forward_setup),
    Workload("backward-reduce", backward_inputs, backward_setup),
    Workload("poly-search", poly_inputs, poly_setup),
    Workload("lift-verify", lift_inputs, lift_setup),
)}
