"""Lifting template operations to the gadget digraph.

Every template operation extends to the gadget by one construction.
Any family of idempotent operations satisfying a system of linear
identities lifts, provided each identity is balanced or uses at most two
variables and the zigzag admits operations for the same system; weak
near-unanimity operations are one such system.  An endomorphism is the
construction at arity 1, with the identity as the zigzag operation:
elements and tuples map through it and each connecting path follows the
unique embedding into its image path.

The lifted value of a tuple of gadget vertices depends first on its
levels.  On one level, tuples of elements or of relation tuples map
through the template operation, and tuples in the diagonal component
of the gadget's power follow the target path, using the zigzag
interpretation where every entry sits in a zigzag.  Tuples that no
product edge touches only have to satisfy the identities.  Tuples whose
entries sit on two levels are tied element-major when the zigzag picks
the lower level and relation-major when it picks the upper one, so the
choice stays edge-compatible at both ends of the gadget.

Values are computed a row at a time: a row fixes every argument but the
last and holds the value for each last argument.  The last arguments
fall into classes by level and by whether they have out- and in-edges.
How a class is filled (its case, the zigzag's pick, the tie level and
order) depends only on the prefix's levels and on whether it holds a
vertex with no out-edge or one with no in-edge, so it is planned once
per such pattern.  A row then fills its classes from precomputed ranks
and the prefix's least vertices; only single-level tuples and isolated
pairs are evaluated one by one.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import itemgetter

from .algebra import (_ZPOS, _ZVERT, OperationTable, check_identities,
                      find_interpretations, polymorphism_failure, wnu_system)
from .gadget import elem_name, tup_name
from .solver import DEFAULT_BUDGET
from .templates import zigzag_digraph_template


class UnliftableSystemError(ValueError):
    """The identity system (or its interpretations) cannot be lifted."""


class LiftInvariantError(RuntimeError):
    """An internal invariant of the lifting construction failed."""


def in_diagonal_component(gadget, c):
    """Whether a tuple of gadget vertices lies in the weak component of
    the diagonal of the gadget's direct power.

    This is the rule the lifted operations apply: all levels are equal,
    and it is not the case that some entry has no out-edge and some
    entry has no in-edge.  Tuples of elements and tuples of tuple
    vertices pass, since every element has an out-edge and every tuple
    vertex an in-edge.
    """
    g = gadget.digraph
    return (len({gadget.levels[x] for x in c}) == 1
            and not (any(not g.succ[g.index(x)] for x in c)
                     and any(not g.pred[g.index(x)] for x in c)))


# ---------------------------------------------------------------------
# endomorphism lift


def lift_endomorphism(gadget, phi):
    """Extend a template endomorphism to the gadget digraph.

    ``phi`` maps template elements to template elements and must
    preserve every relation of the template.  The lift is the general
    construction at arity 1, with ``phi`` as the template operation and
    the identity as the zigzag operation.  Returns a vertex map of the
    gadget that preserves edges and levels.
    """
    template = gadget.template
    for a in template.domain:
        if phi.get(a) not in template.domain:
            raise UnliftableSystemError(f"map does not cover element {a!r}")
    table = OperationTable.from_function(template.domain, 1, phi.__getitem__)
    bad = table.polymorphism_failure(template)
    if bad is not None:
        raise UnliftableSystemError(f"map does not preserve a relation: {bad}")

    identity = OperationTable(_ZVERT, 1, {(z,): z for z in _ZVERT})
    op = LiftedOperation(gadget, 1, _row_evaluator(gadget, table, identity),
                         name="endomorphism-lift")
    bad = polymorphism_failure_on_digraph(gadget.digraph, op)
    if bad is not None:
        raise LiftInvariantError(f"lift breaks edges: {bad}")
    return dict(zip(op.domain, op.row(())))


# ---------------------------------------------------------------------
# lifted operations


class LiftedOperation:
    """An operation on the gadget's vertices, computed and stored a row
    at a time.

    A row is keyed by the first ``arity - 1`` arguments and holds one
    value per last argument, in the order of ``gadget.digraph.vertices``;
    ``row_evaluator`` maps such a prefix to the row's values and a
    mapping from the cases that produced them to their counts.
    :meth:`row` reads a row, filling it on first use, and calls read
    their value from it; the checks read whole rows, one set test per
    combination of every edge but the last in the polymorphism check
    and one tuple per identity column in :func:`check_identities`.
    ``case_counts`` sums those counts when read, so it counts the
    entries of the rows computed so far, not the distinct inputs seen.
    """

    def __init__(self, gadget, arity, row_evaluator, name="lift"):
        self.gadget = gadget
        self.arity = arity
        self.name = name
        self.domain = gadget.digraph.vertices
        self._row_cases = []
        self._row_evaluator = row_evaluator
        self._index = {v: i for i, v in enumerate(self.domain)}
        self._rows = {}

    def __call__(self, *c):
        if len(c) != self.arity:
            raise TypeError(f"{self.name} takes {self.arity} arguments")
        return self.row(c[:-1])[self._index[c[-1]]]

    def row(self, prefix):
        """The values at ``prefix + (y,)`` for every vertex ``y``, in
        ``domain`` order, as a tuple; ``prefix`` holds ``arity - 1``
        vertices."""
        row = self._rows.get(prefix)
        if row is not None:
            return row
        values, cases = self._row_evaluator(prefix)
        known = self.gadget.vertex_info
        if not known.keys() >= set(values):
            i = next(i for i, v in enumerate(values) if v not in known)
            raise LiftInvariantError(
                f"{self.name}{prefix + (self.domain[i],)} produced unknown "
                f"vertex {values[i]!r}")
        self._row_cases.append(cases)
        row = self._rows[prefix] = tuple(values)
        return row

    @property
    def case_counts(self):
        """The cases of the entries of every row filled so far, with
        their counts, summed from the rows' counts."""
        counts = Counter()
        for cases in self._row_cases:
            counts.update(cases)
        return counts


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
    return lift_general(gadget, wnu_system(m), {"w": table})["w"]


def lift_general(gadget, system, interps, budget=DEFAULT_BUDGET):
    """Lift interpretations of an idempotent linear identity system from
    the template to the gadget digraph.

    Requirements, checked up front: every symbol is marked idempotent;
    every identity is balanced (same variable set on both sides) or uses
    at most two variables; ``interps`` satisfies the system on the
    template and consists of polymorphisms of its own relations, which
    preserve its collapse as well; and the zigzag admits
    interpretations of the same system (searched for within ``budget``).
    Violations raise :class:`UnliftableSystemError`.

    Returns symbol -> :class:`LiftedOperation`; the lifted family
    satisfies the same system on the gadget digraph.
    """
    missing = set(system.symbols) - set(system.idempotent)
    if missing:
        raise UnliftableSystemError(
            f"symbols {sorted(missing)} are not marked idempotent")
    for ident in system.identities:
        if not ident.is_balanced() and len(ident.variables()) > 2:
            raise UnliftableSystemError(
                f"identity {ident} is unbalanced and uses more than two "
                "variables")
    template = gadget.template
    ok, why = check_identities(interps, system, domain=template.domain)
    if not ok:
        raise UnliftableSystemError(
            "interpretations do not satisfy the system on the template: "
            f"{why}")
    for s in system.symbols:
        bad = interps[s].polymorphism_failure(template)
        if bad is not None:
            raise UnliftableSystemError(
                f"interpretation of {s} is not a polymorphism: {bad}")
    # the search checks its own tables: they satisfy the system on the
    # zigzag and are polymorphisms, or it raises AssertionError
    zigzag_interps = find_interpretations(zigzag_digraph_template(), system,
                                          budget=budget)
    if zigzag_interps is None:
        raise UnliftableSystemError(
            "the zigzag admits no interpretations of this system; "
            "the lift is not defined")
    return {s: LiftedOperation(
                gadget, m, _row_evaluator(gadget, interps[s],
                                          zigzag_interps[s]),
                name=f"{s}-lift")
            for s, m in system.symbols.items()}


def _tie_orders(gadget):
    """Tie-breaking orders on gadget vertices: ``by_low``, ``low_rank``,
    ``by_high`` and ``high_rank``, each order as a rank -> vertex list
    and a vertex -> rank dict.

    The gadget lists its vertices elements first, then relation tuples,
    then the internal vertices of each connecting path, element-major
    and by position along the path.  The low order sorts that list by
    level, so ties stay element-major; the high order sorts it by level
    and then by the relation tuple of the vertex's path, relation-major.
    Both are total.

    Two orders are needed because edge-compatible choices behave
    differently at the two ends of the gadget: walking out of the
    element row the path's element decides which successor is reachable,
    while walking into the tuple row only the path's relation tuple
    survives.
    """
    levels = gadget.levels
    tuple_index = {r: i for i, r in enumerate(gadget.relation.tuples)}
    path_tuple = {v: tuple_index[x.rtuple if x.kind == "tup" else x.edge[1]]
                  for v, x in gadget.vertex_info.items() if x.kind != "elem"}
    by_low = sorted(gadget.digraph.vertices, key=levels.__getitem__)
    by_high = sorted(gadget.digraph.vertices,
                     key=lambda v: (levels[v], path_tuple.get(v, 0)))
    return (by_low, {v: i for i, v in enumerate(by_low)},
            by_high, {v: i for i, v in enumerate(by_high)})


def _row_evaluator(gadget, f_elem, f_zig):
    """The row function of one lifted symbol: a prefix (every argument
    but the last) to the values for every last argument, in vertex
    order, and the counts of their cases.

    The last arguments are classed by level and by whether they have
    out- and in-edges, and each class is filled from a plan for the
    prefix's pattern.  Classes that take their ranks in the same order
    and tie to the same prefix entries are filled together, their
    entries sorted by rank: a row takes the vertices of those ranked
    below the prefix's least tied rank as one slice and that rank's
    vertex for the rest.  One permutation puts the values in vertex
    order.  A row computes only those least ranks, the values of
    single-level entries and the isolated pairs.

    ``f_elem`` and ``f_zig``, the template and zigzag operations, are
    read a row at a time, each element at its place in their own
    ``domain``.
    """
    g = gadget.digraph
    levels = gadget.levels
    vertex_info = gadget.vertex_info
    relation = frozenset(gadget.relation.tuples)
    by_low, low_rank, by_high, high_rank = _tie_orders(gadget)
    records = _section_records(gadget)
    n = len(g.vertices)
    elem_at = {x: i for i, x in enumerate(f_elem.domain)}
    zig_at = {x: i for i, x in enumerate(f_zig.domain)}
    no_out = {v: not s for v, s in zip(g.vertices, g.succ)}
    no_in = {v: not p for v, p in zip(g.vertices, g.pred)}
    classes = {}    # (level, no out-edge, no in-edge) -> [(position, vertex)]
    for i, y in enumerate(g.vertices):
        classes.setdefault((levels[y], no_out[y], no_in[y]), []).append((i, y))
    zig_low = {}
    plans = {}
    # prefix path edges -> ({last path edge: the target path's vertices,
    # section spans and single sections}, the edges' element row, their
    # tuples' images)
    targets = {}

    def picks_low(bits):
        """Whether the zigzag operation picks "00" over "10" on this
        pattern of the two; cached per pattern."""
        low = zig_low.get(bits)
        if low is None:
            z = f_zig.row(bits[:-1])[zig_at[bits[-1]]]
            if z not in ("00", "10"):
                raise LiftInvariantError(
                    f"zigzag operation leaves the out-degree side: {z}")
            low = zig_low[bits] = z == "00"
        return low

    def plan(plev, p_no_out, p_no_in):
        """For prefixes on levels ``plev`` that hold a vertex with no
        out-edge or not, and one with no in-edge or not: the rank fills,
        the single-level classes, the rank cases' counts, the isolated
        entries' places in fill order, and the permutation from fill
        order, single-level classes last, to vertex order."""
        fills = {}      # (high, tied prefix entries) -> positions, ranks
        single = {}     # level -> entries
        counts = Counter()
        isolated = []
        for (lam, y_no_out, y_no_in), entries in classes.items():
            lvlset = sorted({*plev, lam})
            if len(lvlset) == 1:
                case = None
            elif len(lvlset) == 2 and not picks_low(
                    tuple("00" if l == lvlset[0] else "10"
                          for l in plev + (lam,))):
                # relation-major on the upper level
                case, high, at = "split-high", True, lvlset[1]
            else:
                # element-major on the lowest level
                case = "split-low" if len(lvlset) == 2 else "multi-level"
                high, at = False, lvlset[0]
            if (p_no_out or y_no_out) and (p_no_in or y_no_in):
                # no edge of the product power touches these tuples, so
                # only the identities constrain their values
                tie = (False, tuple(range(len(plev))))
                ranks = [low_rank[y] for _, y in entries]
                isolated += entries
                counts["isolated-set"] += len(entries)
            elif case is None:
                single.setdefault(lam, []).extend(entries)
                continue
            else:
                tie = (high, tuple(i for i, l in enumerate(plev) if l == at))
                rank = high_rank if high else low_rank
                # off the tie level every entry takes the least rank
                ranks = [rank[y] if lam == at else n for _, y in entries]
                counts[case] += len(entries)
            fill = fills.setdefault(tie, ([], []))
            fill[0].extend(pos for pos, _ in entries)
            fill[1].extend(ranks)
        steps, positions = [], []
        for (high, tied), (pos, ranks) in fills.items():
            by_rank = by_high if high else by_low
            ranks, pos = zip(*sorted(zip(ranks, pos)))
            steps.append((high_rank if high else low_rank, tied, by_rank,
                          ranks, [by_rank[r] for r in ranks if r < n]))
            positions += pos
        at_entry = {pos: i for i, pos in enumerate(positions)}
        for entries in single.values():
            positions += [pos for pos, _ in entries]
        return (steps, [(lam, [y for _, y in entries])
                        for lam, entries in single.items()],
                counts, {y: at_entry[pos] for pos, y in isolated},
                itemgetter(*sorted(range(n), key=positions.__getitem__)))

    def row(prefix):
        key = (tuple(map(levels.__getitem__, prefix)),
               any(map(no_out.__getitem__, prefix)),
               any(map(no_in.__getitem__, prefix)))
        p = plans.get(key)
        if p is None:
            p = plans[key] = plan(*key)
        steps, single, cases, isolated, to_vertex_order = p
        values = []
        for rank, tied, by_rank, ranks, below in steps:
            # entries ranked below the prefix's least tied rank keep their
            # own vertex, the rest take the prefix's
            c = min([rank[prefix[i]] for i in tied], default=n)
            cut = bisect_left(ranks, c)
            values += below[:cut]
            values += by_rank[c:c + 1] * (len(ranks) - cut)
        if single:
            more = Counter()
            for lam, ys in single:
                values += single_level(prefix, lam, ys, more)
            cases = {**cases, **more}
        distinct = isolated and set(prefix)
        if distinct and len(distinct) <= 2:
            # a tuple with two distinct entries takes the zigzag's pick
            # between them
            pairs = ([y for y in isolated if y not in distinct]
                     if len(distinct) == 1 else
                     [y for y in dict.fromkeys(prefix) if y in isolated])
            for y in pairs:
                i = isolated[y]
                v0, c = values[i], prefix + (y,)
                if not picks_low(tuple("00" if x == v0 else "10"
                                       for x in c)):
                    values[i] = next(x for x in c if x != v0)
            if pairs:
                cases = {**cases, "isolated-pair": len(pairs)}
                cases["isolated-set"] -= len(pairs)
                if not cases["isolated-set"]:
                    del cases["isolated-set"]
        return to_vertex_order(values), cases

    def tuple_images(columns):
        """The relation tuple the template operation makes of the
        prefix's tuples ``columns`` and a last one, coordinatewise, as a
        function of the last."""
        rows = [f_elem.row(tuple(c[j] for c in columns))
                for j in range(gadget.k)]

        def image(last):
            r = tuple(row[elem_at[x]] for row, x in zip(rows, last))
            if r not in relation:
                raise LiftInvariantError(
                    f"coordinatewise image {r} is not a relation tuple; the "
                    "template operation is not a polymorphism")
            return r

        return image

    def single_level(prefix, lam, ys, cases):
        """The values at ``prefix + (y,)`` for last arguments ``ys`` on
        the prefix's one level ``lam`` whose tuples are not isolated,
        counting their cases.  Level 0 holds the elements, the top level
        the relation tuples, and these map through the template
        operation.  Path vertices, on the levels between, are in the
        diagonal component: each takes the matching vertex of the first
        section common to the tuple's entries, inside the target path of
        their images."""
        if lam == 0:
            row = f_elem.row(tuple(vertex_info[x].element for x in prefix))
            cases["elements"] += len(ys)
            return [elem_name(row[elem_at[vertex_info[y].element]])
                    for y in ys]
        if lam == gadget.height:
            image = tuple_images([vertex_info[x].rtuple for x in prefix])
            cases["tuples"] += len(ys)
            return [tup_name(image(vertex_info[y].rtuple)) for y in ys]
        recs = [records[x] for x in prefix]
        edges = tuple(edge for edge, _ in recs)
        common = {s: [offsets[s] for _, offsets in recs]
                  for s in (lam - 1, lam)
                  if all(s in offsets for _, offsets in recs)}
        zig_rows = {s: f_zig.row(tuple(map(_ZVERT.__getitem__, locs)))
                    for s, locs in common.items() if None not in locs}
        memo = targets.get(edges)
        if memo is None:
            memo = targets[edges] = (
                {}, f_elem.row(tuple(a for a, _ in edges)),
                tuple_images([r for _, r in edges]))
        paths, elem_row, image = memo
        values = []
        for y in ys:
            edge, offsets = records[y]
            target = paths.get(edge)
            if target is None:
                tp = gadget.paths[(elem_row[elem_at[edge[0]]],
                                   image(edge[1]))]
                target = paths[edge] = (tp.vertices, tp.qpath.section_spans,
                                        tp.qpath.single_edges)
            vertices, spans, singles = target
            section = next(filter(offsets.__contains__, common), None)
            if section is None:
                raise LiftInvariantError(
                    f"no common section at level {lam} for {prefix + (y,)}")
            lo, hi = spans[section - 1]
            locs = common[section] + [offsets[section]]
            if section in singles:
                value = vertices[lo if lam == section else hi]
                case = "diagonal-single"
            elif None not in locs:
                z = zig_rows[section][zig_at[_ZVERT[offsets[section]]]]
                value, case = vertices[lo + _ZPOS[z]], "diagonal-zigzag"
            elif locs.count(None) < len(locs):
                value = by_low[min(low_rank[vertices[lo + p]]
                                   for p in locs if p is not None)]
                case = "diagonal-mixed"
            else:
                raise LiftInvariantError(
                    "zigzag target section with no zigzag sources")
            values.append(value)
            cases[case] += 1
        return values

    return row


def _section_records(gadget):
    """Per internal vertex of the gadget: its path's (element, relation
    tuple) edge, and for each section containing its position, its
    offset into that section when the section is a zigzag in its path,
    else None."""
    out = {}
    for edge, path in gadget.paths.items():
        qp = path.qpath
        for j, v in enumerate(path.vertices[1:-1], 1):
            out[v] = (edge, {l: None if l in qp.single_edges else j - lo
                             for l, (lo, hi) in enumerate(qp.section_spans, 1)
                             if lo <= j <= hi})
    return out


# ---------------------------------------------------------------------
# verification helpers


def polymorphism_failure_on_digraph(g, op):
    """:func:`~dgcsp.algebra.polymorphism_failure` on the digraph's edge
    relation: the first combination of edges, one per argument, in
    product order over ``g.edges``, that this vertex operation breaks,
    with the images of its tails and of its heads, or None."""
    bad = polymorphism_failure(op, g.as_structure())
    return None if bad is None else bad[1:]


def verify_lifted_system(gadget, lifted, system):
    """Exhaustively check a lifted family: identities over all vertex
    assignments and the polymorphism property over all edge
    combinations, both read by rows.  Returns (ok, detail), the detail
    naming the first failure: the first failing assignment of an
    identity, or of a symbol the first edge combination it breaks, in
    product order.  A member that is no :class:`LiftedOperation` is read
    through one, by calls in vertex order."""
    verts = gadget.digraph.vertices
    lifted = {s: op if isinstance(op, LiftedOperation) else
              LiftedOperation(gadget, op.arity, lambda prefix, op=op: (
                  [op(*prefix, y) for y in verts], Counter()), name=s)
              for s, op in lifted.items()}
    ok, why = check_identities(lifted, system, domain=verts)
    if not ok:
        return False, f"identity failure: {why}"
    for s, op in lifted.items():
        bad = polymorphism_failure_on_digraph(gadget.digraph, op)
        if bad is not None:
            return False, f"{s} breaks edges: {bad}"
    return True, None
