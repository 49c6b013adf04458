"""Lifting template operations to the gadget digraph.

An endomorphism of a single-relation template extends canonically to
its gadget: elements and tuples map through the template operation and
each connecting path follows the unique embedding into its image path.
The same idea extends to higher arities: any family of idempotent
operations satisfying a system of linear identities lifts, provided
each identity is balanced or uses at most two variables and the zigzag
admits operations for the same system.  Weak near-unanimity operations
are one such system and lift through the same construction.

The lifted value of a tuple of gadget vertices depends first on its
levels.  On one level, tuples of elements or of relation tuples map
through the template operation, and tuples in the diagonal component
of the gadget's power follow the target path, using the zigzag
interpretation where every entry sits in a zigzag.  Tuples that no
product edge touches only have to satisfy the identities.  Tuples whose
entries sit on two levels are tied element-major when the zigzag picks
the lower level and relation-major when it picks the upper one, so the
choice stays edge-compatible at both ends of the gadget.
"""

from __future__ import annotations

from collections import Counter

from .algebra import (_ZPOS, _ZVERT, check_identities, find_interpretations,
                      wnu_system)
from .gadget import elem_name, path_position_map, tup_name
from .solver import DEFAULT_BUDGET
from .templates import zigzag_digraph_template


class UnliftableSystemError(ValueError):
    """The identity system (or its interpretations) cannot be lifted."""


class LiftInvariantError(RuntimeError):
    """An internal invariant of the lifting construction failed."""


class GadgetOrder:
    """Tie-breaking orders on gadget vertices.

    Every vertex is charged to a canonical connecting path: an element
    to the path towards the first relation tuple, a tuple vertex to the
    path from the first element, an internal vertex to its own path.
    The low order compares by (level, element index then tuple index of
    the charged path, position along it); the high order swaps the path
    components to (tuple index, element index).  Both are total.

    Two orders are needed because edge-compatible choices behave
    differently at the two ends of the gadget: walking out of the
    element row the path's element decides which successor is reachable,
    while walking into the tuple row only the path's relation tuple
    survives.
    """

    def __init__(self, gadget):
        first_tuple = gadget.relation.tuples[0]
        first_elem = gadget.template.domain[0]
        a_index = {a: i for i, a in enumerate(gadget.template.domain)}
        r_index = {r: i for i, r in enumerate(gadget.relation.tuples)}
        self._key = {}
        self._high_key = {}
        for v, info in gadget.vertex_info.items():
            if info.kind == "elem":
                edge = (info.element, first_tuple)
                pos = 0
            elif info.kind == "tup":
                edge = (first_elem, info.rtuple)
                pos = gadget.paths[edge].qpath.last_position
            else:
                edge = info.edge
                pos = info.position
            ai, ri = a_index[edge[0]], r_index[edge[1]]
            self._key[v] = (info.level, ai, ri, pos)
            self._high_key[v] = (info.level, ri, ai, pos)

    def key(self, v):
        return self._key[v]

    def minimum(self, names):
        return min(names, key=self._key.__getitem__)

    def minimum_high(self, names):
        return min(names, key=self._high_key.__getitem__)


def in_diagonal_component(gadget, c):
    """Whether a tuple of gadget vertices lies in the weak component of
    the diagonal of the gadget's direct power.

    Characterization used: all levels equal, and either every entry is
    an element, every entry is a tuple vertex, every entry has an
    out-edge, or every entry has an in-edge.
    """
    levels = {gadget.levels[x] for x in c}
    if len(levels) != 1:
        return False
    infos = [gadget.vertex_info[x] for x in c]
    if all(i.kind == "elem" for i in infos):
        return True
    if all(i.kind == "tup" for i in infos):
        return True
    g = gadget.digraph
    if all(g.out_neighbors(x) for x in c):
        return True
    if all(g.in_neighbors(x) for x in c):
        return True
    return False


# ---------------------------------------------------------------------
# endomorphism lift


def lift_endomorphism(gadget, phi):
    """Extend a template endomorphism to the gadget digraph.

    ``phi`` maps template elements to template elements and must
    preserve the relation.  Returns a vertex map of the gadget that
    preserves edges and levels.
    """
    template = gadget.template
    rel = gadget.relation
    for a in template.domain:
        if phi.get(a) not in template.domain:
            raise UnliftableSystemError(f"map does not cover element {a!r}")

    def image_tuple(r):
        return tuple(phi[x] for x in r)

    for r in rel.tuples:
        if image_tuple(r) not in rel.tuples:
            raise UnliftableSystemError(
                f"map does not preserve the relation on {r}")

    out = {}
    for v, info in gadget.vertex_info.items():
        if info.kind == "elem":
            out[v] = elem_name(phi[info.element])
        elif info.kind == "tup":
            out[v] = tup_name(image_tuple(info.rtuple))
    for (a, r), gp in gadget.paths.items():
        target = gadget.paths[(phi[a], image_tuple(r))]
        pm = path_position_map(gp.qpath, target.qpath)
        if pm is None:
            raise LiftInvariantError(
                f"path for ({a}, {r}) does not embed into its image path")
        for j in range(1, gp.qpath.last_position):
            out[gp.vertices[j]] = target.vertices[pm[j]]

    g = gadget.digraph
    for u, v in g.edges:
        if not g.has_edge(out[u], out[v]):
            raise LiftInvariantError(f"lift breaks edge ({u}, {v})")
    return out


# ---------------------------------------------------------------------
# lifted operations


class LiftedOperation:
    """An operation on the gadget's vertices defined by a case-split
    evaluator.  Values are memoized; ``case_counts`` tracks which cases
    fired over the distinct inputs seen."""

    def __init__(self, gadget, arity, evaluator, name="lift"):
        self.gadget = gadget
        self.arity = arity
        self.name = name
        self.domain = gadget.digraph.vertices
        self.case_counts = Counter()
        self._evaluator = evaluator
        self._memo = {}

    def __call__(self, *c):
        if len(c) != self.arity:
            raise TypeError(f"{self.name} takes {self.arity} arguments")
        hit = self._memo.get(c)
        if hit is not None:
            return hit
        value, case = self._evaluator(c)
        if value not in self.gadget.vertex_info:
            raise LiftInvariantError(
                f"{self.name}{c} produced unknown vertex {value!r}")
        self.case_counts[case] += 1
        self._memo[c] = value
        return value


def _target_edge(gadget, op_elem, infos):
    """Coordinatewise image of the owning element/tuple pairs."""
    a = op_elem(*(i.edge[0] for i in infos))
    k = gadget.k
    r = tuple(op_elem(*(i.edge[1][j] for i in infos)) for j in range(k))
    if r not in gadget.relation.tuples:
        raise LiftInvariantError(
            f"coordinatewise image {r} is not a relation tuple; the "
            "template operation is not a polymorphism")
    return (a, r)


def _common_section(gadget, infos, level):
    """First section, among the one or two a level can meet, that all
    owning paths share."""
    for l in (level - 1, level):
        if 1 <= l <= gadget.k and all(
                l in gadget.paths[i.edge].qpath.sections_at(i.position)
                for i in infos):
            return l
    raise LiftInvariantError(
        f"no common section at level {level} for {[str(i) for i in infos]}")


def lift_wnu(gadget, table):
    """Lift a weak near-unanimity polymorphism of the template to the
    gadget digraph.

    The table must be an idempotent weak near-unanimity polymorphism of
    the gadget's template, of arity at least 3.  Its identities are
    balanced and use two variables, so this is the general lift of
    ``wnu_system(m)``; returns its :class:`LiftedOperation`.
    """
    m = table.arity
    if m < 3:
        raise UnliftableSystemError("weak near-unanimity needs arity >= 3")
    return _lift(gadget, wnu_system(m), {"w": table})["w"]


def lift_general(gadget, system, interps, zigzag_interps=None,
                 budget=DEFAULT_BUDGET):
    """Lift interpretations of an idempotent linear identity system from
    the template to the gadget digraph.

    Requirements, checked up front: every symbol is marked idempotent;
    every identity is balanced (same variable set on both sides) or uses
    at most two variables; ``interps`` satisfies the system on the
    template and consists of polymorphisms; and the zigzag admits
    interpretations of the same system (searched for when not supplied).
    Violations raise :class:`UnliftableSystemError`.

    Returns symbol -> :class:`LiftedOperation`; the lifted family
    satisfies the same system on the gadget digraph.
    """
    return _lift(gadget, system, interps, zigzag_interps, budget)


def _lift(gadget, system, interps, zigzag_interps=None, budget=DEFAULT_BUDGET):
    missing = set(system.symbols) - set(system.idempotent)
    if missing:
        raise UnliftableSystemError(
            f"symbols {sorted(missing)} are not marked idempotent")
    for ident in system.identities:
        if not ident.is_balanced() and len(ident.variables()) > 2:
            raise UnliftableSystemError(
                f"identity {ident} is unbalanced and uses more than two "
                "variables")

    ok, why = check_identities(interps, system, domain=gadget.template.domain)
    if not ok:
        raise UnliftableSystemError(
            f"interpretations do not satisfy the system on the template: {why}")
    for s in system.symbols:
        bad = interps[s].polymorphism_failure(gadget.template)
        if bad is not None:
            raise UnliftableSystemError(
                f"interpretation of {s} is not a polymorphism: {bad}")

    zz = zigzag_digraph_template()
    if zigzag_interps is None:
        zigzag_interps = find_interpretations(zz, system, budget=budget)
        if zigzag_interps is None:
            raise UnliftableSystemError(
                "the zigzag admits no interpretations of this system; "
                "the lift is not defined")
    ok, why = check_identities(zigzag_interps, system, domain=zz.domain)
    if not ok:
        raise UnliftableSystemError(
            f"zigzag interpretations do not satisfy the system: {why}")
    for s in system.symbols:
        bad = zigzag_interps[s].polymorphism_failure(zz)
        if bad is not None:
            raise UnliftableSystemError(
                f"zigzag interpretation of {s} is not a polymorphism: {bad}")

    order = GadgetOrder(gadget)
    g = gadget.digraph
    no_in = frozenset(v for v in g.vertices if not g.in_neighbors(v))
    no_out = frozenset(v for v in g.vertices if not g.out_neighbors(v))
    return {s: LiftedOperation(
                gadget, m,
                _general_evaluator(gadget, order, no_in, no_out, interps[s],
                                   zigzag_interps[s], m),
                name=f"{s}-lift")
            for s, m in system.symbols.items()}


def _general_evaluator(gadget, order, no_in, no_out, f_elem, f_zig, m):
    levels = gadget.levels.levels
    vertex_info = gadget.vertex_info

    def evaluator(c):
        lvls = [levels[x] for x in c]
        lvlset = sorted(set(lvls))
        if len(lvlset) == 1:
            infos = [vertex_info[x] for x in c]
            if all(i.kind == "elem" for i in infos):
                return elem_name(f_elem(*(i.element for i in infos))), "elements"
            if all(i.kind == "tup" for i in infos):
                r = tuple(f_elem(*(i.rtuple[j] for i in infos))
                          for j in range(gadget.k))
                if r not in gadget.relation.tuples:
                    raise LiftInvariantError(
                        f"image tuple {r} leaves the relation")
                return tup_name(r), "tuples"
            if in_diagonal_component(gadget, c):
                # all entries internal at a common level
                return _diagonal_value(gadget, order, f_elem, f_zig, m,
                                       infos, lvlset[0])

        if not no_out.isdisjoint(c) and not no_in.isdisjoint(c):
            # no edge of the product power touches this tuple, so only
            # the identities constrain the value
            values = sorted(set(c), key=order.key)
            if len(values) == 2:
                bits = ["00" if x == values[0] else "10" for x in c]
                z = f_zig(*bits)
                if z not in ("00", "10"):
                    raise LiftInvariantError(
                        f"zigzag operation leaves the out-degree side: {z}")
                return (values[0] if z == "00" else values[1]), "isolated-pair"
            return values[0], "isolated-set"

        if len(lvlset) == 1:
            raise LiftInvariantError(
                f"off-diagonal tuple on one level should be isolated: {c}")
        if len(lvlset) == 2:
            bits = ["00" if l == lvlset[0] else "10" for l in lvls]
            z = f_zig(*bits)
            if z not in ("00", "10"):
                raise LiftInvariantError(
                    f"zigzag operation leaves the out-degree side: {z}")
            if z == "00":
                cand = [c[i] for i in range(m) if lvls[i] == lvlset[0]]
                return order.minimum(cand), "split-low"
            cand = [c[i] for i in range(m) if lvls[i] == lvlset[1]]
            return order.minimum_high(cand), "split-high"
        cand = [c[i] for i in range(m) if lvls[i] == lvlset[0]]
        return order.minimum(cand), "multi-level"

    return evaluator


def _diagonal_value(gadget, order, f_elem, f_zig, m, infos, lam):
    """Value and case of a diagonal-component tuple of internal vertices
    on level ``lam``: the matching vertex of the common section inside
    the target path."""
    edge = _target_edge(gadget, f_elem, infos)
    section = _common_section(gadget, infos, lam)
    tp = gadget.paths[edge]
    lo, hi = tp.qpath.section_spans[section - 1]
    if tp.qpath.is_single(section):
        return tp.vertices[lo if lam == section else hi], "diagonal-single"
    locs = []
    for i in infos:
        sq = gadget.paths[i.edge].qpath
        if not sq.is_single(section):
            locs.append(i.position - sq.section_spans[section - 1][0])
    if len(locs) == m:
        z = f_zig(*(_ZVERT[p] for p in locs))
        return tp.vertices[lo + _ZPOS[z]], "diagonal-zigzag"
    if not locs:
        raise LiftInvariantError("zigzag target section with no zigzag sources")
    return order.minimum([tp.vertices[lo + p] for p in locs]), "diagonal-mixed"


# ---------------------------------------------------------------------
# verification helpers


def polymorphism_failure_on_digraph(g, op):
    """First tuple of edges this vertex operation breaks, or None."""
    import itertools

    for combo in itertools.product(g.edges, repeat=op.arity):
        tail = op(*(e[0] for e in combo))
        head = op(*(e[1] for e in combo))
        if not g.has_edge(tail, head):
            return combo, (tail, head)
    return None


def verify_lifted_system(gadget, lifted, system):
    """Exhaustively check a lifted family: identities over all vertex
    assignments and the polymorphism property over all edge tuples.
    Returns (ok, detail)."""
    ok, why = check_identities(lifted, system,
                               domain=gadget.digraph.vertices)
    if not ok:
        return False, f"identity failure: {why}"
    for s, op in lifted.items():
        bad = polymorphism_failure_on_digraph(gadget.digraph, op)
        if bad is not None:
            return False, f"{s} breaks edges: {bad}"
    return True, None
