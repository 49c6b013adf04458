"""Reductions between instance solving and gadget-digraph solving.

Forward direction: an instance X over a template A becomes a digraph G
with G -> D(A) iff X -> A.  Every variable sits at level 0; every
collapsed constraint gets a fresh top vertex, connected to each variable
in its block by a connecting path that records the variable's coordinate.

Backward direction: an arbitrary digraph G is reduced against D(A) in
stages.  Stage 1 rejects digraphs that are not balanced or are taller
than the gadget.  Stage 2 solves components shorter than the gadget
outright and leaves them out.  Stage 3 walks the interior vertex
positions of the remaining components once, with no subgraph copy, to
find each interior piece, its bases and tops, and its shape: the piece
renamed by position, with its base- and top-adjacent positions.  The
coordinates a piece blocks are computed from the shape alone, once per
distinct shape (pieces of a forward digraph repeat a handful of
shapes).  Those blocked coordinates are compiled into generalized
hyperedges plus forced equalities, which are then amalgamated into an
instance B over A's collapsed signature with G -> D(A) iff B -> A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .gadget import build_gadget, build_path, path_height
from .solver import DEFAULT_BUDGET, digraph_hom
from .structures import (
    Digraph,
    InvalidStructureError,
    RelationalStructure,
    UnionFind,
    _check_names,
    collapse_to_single_relation,
    collapsed_signature,
)


class TemplateTrivialError(ValueError):
    """The template is satisfied by a constant map, so no unsatisfiable
    instance over it exists and a definite NO cannot be materialized."""


def _fresh_names(prefix, reserved):
    """Fresh names ``prefix1``, ``prefix2``, ... in order, skipping the
    reserved ones; the counter only climbs, so no name comes twice."""
    reserved = set(reserved)
    for n in itertools.count(1):
        if (name := f"{prefix}{n}") not in reserved:
            yield name


# ---------------------------------------------------------------------
# leveling


@dataclass(frozen=True)
class LevelingFailure:
    reason: str                 # "not balanced" or "too tall"
    detail: str


@dataclass(frozen=True, eq=False)
class LevelAssignment:
    """A level function on a digraph, by vertex position: every edge
    climbs by exactly one.

    Levels are normalized so each weak component has minimum level 0.
    ``by_position[i]`` is the level of the digraph's i-th vertex and
    ``height`` the maximum level.  ``position_components`` holds the
    weak components, in :meth:`Digraph.weak_components` order, as
    ascending positions.  Two assignments are equal only when they are
    the same object.
    """

    by_position: list
    height: int
    position_components: tuple


def compute_levels(g, max_height=None):
    """Level function of a digraph, or why there is none.

    Every edge must go from level l to level l+1; levels are normalized
    to minimum 0 on each weak component.  One walk over vertex positions
    returns a :class:`LevelAssignment`, with the weak components it
    walks, or a :class:`LevelingFailure` (when the digraph is not
    balanced, or exceeds ``max_height``).
    """
    succ, pred, vs = g.succ, g.pred, g.vertices
    level = [None] * len(vs)
    components = []
    for start in range(len(vs)):
        if level[start] is not None:
            continue
        level[start] = 0
        comp, stack = [start], [start]
        while stack:
            v = stack.pop()
            # out-neighbours first, then in-neighbours
            for ws, want in ((succ[v], level[v] + 1), (pred[v], level[v] - 1)):
                for w in ws:
                    if level[w] is None:
                        level[w] = want
                        comp.append(w)
                        stack.append(w)
                    elif level[w] != want:
                        t, h = (v, w) if want > level[v] else (w, v)
                        return LevelingFailure(
                            "not balanced", f"edge ({vs[t]}, {vs[h]}) "
                            "closes an unbalanced cycle")
        low = min(map(level.__getitem__, comp))
        for v in comp:
            level[v] -= low
        components.append(sorted(comp))
    height = max(level, default=0)
    if max_height is not None and height > max_height:
        return LevelingFailure(
            "too tall", f"height {height} exceeds bound {max_height}")
    return LevelAssignment(level, height, tuple(components))


# ---------------------------------------------------------------------
# forward reduction


@dataclass(frozen=True)
class ForwardReduction:
    digraph: Digraph
    tops: tuple                 # one top vertex per collapsed constraint


def forward_translate(instance, template):
    """Compile an instance over a template into a digraph.

    The instance's variables become level-0 vertices under their own
    names; everything else is fresh.  The output digraph maps to the
    template's gadget iff the instance maps to the template.
    """
    _, k = collapsed_signature(template)
    sig = template.signature()
    for r in instance.relations:
        if r.name not in sig or sig[r.name] != r.arity:
            raise InvalidStructureError(
                f"instance relation {r.name!r} does not match the template")

    variables = list(instance.domain)
    fresh = _fresh_names("v", variables)
    vertices = list(variables)
    edges = []
    tops = []

    def add_path_copy(qpath, bottom, top):
        names = [bottom]
        names.extend(itertools.islice(fresh, qpath.last_position - 1))
        names.append(top)
        vertices.extend(names[1:-1])
        edges.extend(qpath.edges(names))

    rel_order = [r.name for r in template.relations]
    coordinate_paths = [build_path({i}, k) for i in range(1, k + 1)]
    constrained = set()
    for rel_idx, rel_name in enumerate(rel_order):
        if not instance.has_relation(rel_name):
            continue
        for scope in instance.relation(rel_name).tuples:
            # block of the collapsed constraint: the scope sits in this
            # relation's slice, every other slice is padded with fresh
            # level-0 vertices
            block = []
            for m, other in enumerate(rel_order):
                if m == rel_idx:
                    block.extend(scope)
                else:
                    pad = list(itertools.islice(
                        fresh, template.relation(other).arity))
                    vertices.extend(pad)
                    block.extend(pad)
            constrained.update(scope)
            top = next(fresh)
            vertices.append(top)
            tops.append(top)
            for qpath, v in zip(coordinate_paths, block):
                add_path_copy(qpath, v, top)

    for v in variables:
        if v not in constrained:
            top = next(fresh)
            vertices.append(top)
            tops.append(top)
            add_path_copy(build_path(set(), k), v, top)

    return ForwardReduction(Digraph(vertices, edges), tuple(tops))


# ---------------------------------------------------------------------
# backward reduction: interior pieces and their blocked coordinates


@dataclass(frozen=True)
class InternalComponent:
    """A weak component of the digraph with levels 0 and n removed.

    ``bases`` are the level-0 vertices with an edge into the piece,
    ``tops`` the level-n vertices with an edge from it.  ``shape`` is
    the piece renamed by position: its edges, the positions adjacent to
    a base, those adjacent to a top, and its size.  ``gamma`` is the
    set of coordinates the piece blocks, found from the shape alone.
    """

    vertices: tuple
    bases: tuple
    tops: tuple
    shape: tuple
    gamma: frozenset


def internal_components(g, level, full_height, n, k, budget):
    """Interior pieces of the components that reach height n, given as
    ascending positions (``full_height``) with the levels by position
    (``level``), found by one walk over their interior positions, each
    with the coordinates it blocks; :func:`forced_positions` runs once
    per distinct shape (pieces of a forward digraph repeat a handful)."""
    succ, pred, vs = g.succ, g.pred, g.vertices
    interior = sorted(v for comp in full_height for v in comp
                      if 0 < level[v] < n)
    gammas = {}
    out = []
    for comp in g._components(interior):
        pos = {v: i for i, v in enumerate(comp)}
        bases, tops = set(), set()
        base_adj, top_adj = [], []
        for i, c in enumerate(comp):     # edges climb one level
            if level[c] == 1 and pred[c]:
                bases.update(pred[c])
                base_adj.append(i)
            if level[c] == n - 1 and succ[c]:
                tops.update(succ[c])
                top_adj.append(i)
        if not bases and not tops:
            raise AssertionError(
                "interior piece with neither bases nor tops inside a "
                f"height-{n} component: {[vs[v] for v in comp[:5]]}...")
        shape = (tuple([(i, pos[w]) for i, u in enumerate(comp)
                        for w in succ[u] if w in pos]),
                 tuple(base_adj), tuple(top_adj), len(comp))
        gamma = gammas.get(shape)
        if gamma is None:
            gamma = gammas[shape] = forced_positions(shape, k, budget)
        out.append(InternalComponent(
            tuple(map(vs.__getitem__, comp)),
            tuple(map(vs.__getitem__, sorted(bases))),
            tuple(map(vs.__getitem__, sorted(tops))),
            shape, gamma))
    return out


def forced_positions(shape, k, budget):
    """Coordinates i such that a piece of this shape cannot be mapped
    into the connecting path with coordinate i removed from the full
    set.

    The piece is built from the shape, its vertices named by position.
    Base-adjacent vertices are pinned next to the path's start,
    top-adjacent ones next to its end, so the piece is placed exactly as
    it would sit inside an instantiated path of the gadget.
    """
    edges, base_adjacent, top_adjacent, size = shape
    piece = Digraph(range(size), edges)
    blocked = set()
    full = set(range(1, k + 1))
    for i in range(1, k + 1):
        qp = build_path(full - {i}, k)
        target = qp.realize("q")
        pins = {str(p): "q1" for p in base_adjacent}
        pins.update((str(p), f"q{qp.last_position - 1}")
                    for p in top_adjacent)
        if digraph_hom(piece, target, pins=pins, budget=budget) is None:
            blocked.add(i)
    return frozenset(blocked)


# ---------------------------------------------------------------------
# backward reduction: hyperedge extraction and amalgamation


@dataclass(frozen=True)
class GeneralizedHyperedge:
    """A constraint scheme: entry sets per coordinate, optionally
    labelled by the level-n vertex it came from."""

    entries: tuple              # tuple of frozensets of names
    label: str = None

    @property
    def arity(self):
        return len(self.entries)


def extract_hyperedges(level_n, level_0, comps, k):
    """Compile interior pieces (with their blocked coordinates) into
    generalized hyperedges and equalities.

    One labelled hyperedge per level-n vertex e: coordinate i collects
    the bases of every piece topped by e that blocks i; a piece without
    bases contributes a single stand-in name, reused across all its
    blocked coordinates.  Coordinates nobody blocks get an independent
    fresh name.  One unlabelled hyperedge per (level-0 vertex b, topless
    piece based at b): b itself at the blocked coordinates, fresh names
    elsewhere.  Equalities identify all tops of a piece and all bases of
    a piece.
    """
    reserved = set(level_n) | set(level_0)
    for c in comps:
        reserved.update(c.vertices)
    fresh = _fresh_names("x", reserved)

    standins = {}

    def standin(ci):
        if ci not in standins:
            standins[ci] = next(fresh)
        return standins[ci]

    # pieces by top, and topless pieces by base, in piece order
    by_top, topless_by_base = {}, {}
    for ci, comp in enumerate(comps):
        for e in comp.tops:
            by_top.setdefault(e, []).append(ci)
        if not comp.tops:
            for b in comp.bases:
                topless_by_base.setdefault(b, []).append(comp)

    hyperedges = []
    for e in level_n:
        entries = []
        for i in range(1, k + 1):
            entry = set()
            for ci in by_top.get(e, ()):
                comp = comps[ci]
                if i in comp.gamma:
                    if comp.bases:
                        entry.update(comp.bases)
                    else:
                        entry.add(standin(ci))
            if not entry:
                entry.add(next(fresh))
            entries.append(frozenset(entry))
        hyperedges.append(GeneralizedHyperedge(tuple(entries), label=e))

    for b in level_0:
        for comp in topless_by_base.get(b, ()):
            entries = [frozenset({b if i in comp.gamma else next(fresh)})
                       for i in range(1, k + 1)]
            hyperedges.append(GeneralizedHyperedge(tuple(entries)))

    equalities = [pair for comp in comps
                  for pair in itertools.combinations(comp.tops, 2)]
    equalities += [pair for comp in comps
                   for pair in itertools.combinations(comp.bases, 2)]

    return tuple(hyperedges), tuple(equalities)


def stage3a_to_json(hyperedges, equalities):
    hs = []
    for h in hyperedges:
        item = {"entries": [sorted(entry) for entry in h.entries]}
        if h.label is not None:
            item["label"] = h.label
        hs.append(item)
    return {"hyperedges": hs,
            "equalities": [list(eq) for eq in equalities]}


def stage3a_from_json(obj):
    """Read the hyperedge/equality file format: ``hyperedges``, a list
    of objects with ``entries`` (a non-empty list of non-empty lists of
    names) and optionally a string ``label``, and ``equalities``, a list
    of two-name lists.  Names are strings or integers."""
    if not isinstance(obj, dict) or not all(
            isinstance(obj.get(key), list)
            for key in ("hyperedges", "equalities")):
        raise InvalidStructureError("hyperedge file must be an object with "
                                    "'hyperedges' and 'equalities' lists")
    hyperedges = []
    for item in obj["hyperedges"]:
        entries = item.get("entries") if isinstance(item, dict) else None
        if not isinstance(entries, list) or not entries or not all(
                isinstance(e, list) and e for e in entries):
            raise InvalidStructureError(
                f"hyperedge {item!r} needs 'entries', a non-empty list of "
                "non-empty lists of names")
        _check_names(list(itertools.chain.from_iterable(entries)),
                     "hyperedge entry")
        label = item.get("label")
        if "label" in item and not isinstance(label, str):
            raise InvalidStructureError(
                f"hyperedge label {label!r} must be a string")
        hyperedges.append(GeneralizedHyperedge(
            tuple(frozenset(map(str, e)) for e in entries), label=label))
    for eq in obj["equalities"]:
        if not (isinstance(eq, list) and len(eq) == 2):
            raise InvalidStructureError(
                f"equality {eq!r} must be a list of two names")
        _check_names(eq, "equality entry")
    return tuple(hyperedges), tuple((str(a), str(b))
                                    for a, b in obj["equalities"])


@dataclass(frozen=True)
class AmalgamationResult:
    """The instance built from hyperedges plus the identification classes
    behind each of its variables."""

    structure: RelationalStructure
    classes: dict = field(compare=False)


def amalgamate(hyperedges, equalities, relation_name="R", arity=None):
    """Merge hyperedge entries along all forced identifications and
    produce the reduced instance.

    Names within one entry are identified, both sides of every equality
    are identified, and hyperedges whose labels were identified are
    merged coordinatewise.  Variables of the result are the
    identification classes of names that occur in entries; each
    hyperedge becomes one constraint tuple over those classes.
    """
    if not hyperedges:
        raise InvalidStructureError("no hyperedges to amalgamate")
    widths = {h.arity for h in hyperedges}
    if len(widths) != 1:
        raise InvalidStructureError(
            f"hyperedges have mixed widths {sorted(widths)}")
    width = widths.pop()
    if arity is not None and width != arity:
        raise InvalidStructureError(
            f"hyperedges have width {width}, expected {arity}")
    for h in hyperedges:
        if any(not entry for entry in h.entries):
            raise InvalidStructureError("hyperedge with an empty entry")

    uf = UnionFind()
    entry_names = set()
    for h in hyperedges:
        for entry in h.entries:
            entry_names.update(entry)
            first, *rest = entry
            for name in rest:
                uf.union(first, name)
    for a, b in equalities:
        uf.union(a, b)

    # merge hyperedges that carry identified labels, coordinatewise;
    # repeat in case those merges identify further labels
    labelled = [h for h in hyperedges if h.label is not None]
    while True:
        groups = {}
        for h in labelled:
            groups.setdefault(uf.find(h.label), []).append(h)
        changed = False
        for group in groups.values():
            if len(group) < 2:
                continue
            lead = group[0]
            for other in group[1:]:
                for i in range(width):
                    a = next(iter(lead.entries[i]))
                    b = next(iter(other.entries[i]))
                    if uf.find(a) != uf.find(b):
                        uf.union(a, b)
                        changed = True
        if not changed:
            break

    members_by_root = {}
    for name in sorted(entry_names):
        members_by_root.setdefault(uf.find(name), []).append(name)
    classes = {}
    root_to_class = {}
    for root, members in members_by_root.items():
        cname = min(members)
        classes[cname] = frozenset(members)
        root_to_class[root] = cname

    tuples = []
    for h in hyperedges:
        tuples.append(tuple(root_to_class[uf.find(next(iter(entry)))]
                            for entry in h.entries))
    structure = RelationalStructure(
        sorted(classes), [(relation_name, width, tuples)])
    return AmalgamationResult(structure, classes)


# ---------------------------------------------------------------------
# the full backward pipeline


@dataclass(frozen=True)
class Definite:
    """The reduction already knows the answer."""

    answer: bool
    reason: str


@dataclass(frozen=True)
class Reduced:
    """The digraph question was rewritten as an instance question."""

    instance: RelationalStructure
    classes: dict = field(compare=False)
    hyperedges: tuple = ()
    equalities: tuple = ()
    components: tuple = ()


def backward_reduce(g, template, budget=DEFAULT_BUDGET):
    """Reduce "does G map to the template's gadget?" to an instance over
    the template, or decide it outright.

    Returns :class:`Definite` when stage 1 or 2 settles the question and
    :class:`Reduced` otherwise.  The gadget D(A) is built only when a
    short component has to be solved against it, at most once per call;
    otherwise only the collapse's name and arity are read, never its
    tuples.
    """
    name, k = collapsed_signature(template)
    n = path_height(k)

    levels = compute_levels(g, max_height=n)
    if isinstance(levels, LevelingFailure):
        return Definite(False, f"{levels.reason}: {levels.detail}")

    vs = g.vertices
    level = levels.by_position
    kept = []
    gad = None
    for comp in levels.position_components:
        if max(map(level.__getitem__, comp)) < n:
            if gad is None:
                gad = build_gadget(template)
            sub = g.induced(map(vs.__getitem__, comp))
            if digraph_hom(sub, gad.digraph, budget=budget) is None:
                return Definite(
                    False,
                    f"short component at {vs[comp[0]]!r} has no image in "
                    "the gadget")
        else:
            kept.append(comp)
    if not kept:
        return Definite(True, "every component is short and embeddable")

    comps = internal_components(g, level, kept, n, k, budget)
    level_n = [v for v, l in zip(vs, level) if l == n]
    level_0 = [vs[v] for v in sorted(itertools.chain(*kept)) if level[v] == 0]
    hyperedges, equalities = extract_hyperedges(level_n, level_0, comps, k)
    res = amalgamate(hyperedges, equalities, relation_name=name, arity=k)
    return Reduced(res.structure, res.classes, hyperedges, equalities,
                   tuple(comps))


def materialize(outcome, template):
    """Turn a backward-reduction outcome into a concrete instance with
    the same answer.

    A definite YES becomes the collapsed template read as an instance
    (satisfied by the identity).  A definite NO becomes the one-variable
    instance over the collapse's signature, demanding a constant tuple;
    if the collapse has one, no unsatisfiable instance exists at all and
    this raises :class:`TemplateTrivialError`.  The collapse has the
    constant tuple of an element exactly when every relation has it, so
    a NO reads the relations' columns and never builds the collapse.
    """
    if isinstance(outcome, Reduced):
        return outcome.instance
    if outcome.answer:
        return collapse_to_single_relation(template).structure
    name, k = collapsed_signature(template)
    constant = set.intersection(*(
        {t[0] for t in zip(*r.columns) if len(set(t)) == 1}
        for r in template.relations))
    if constant:
        raise TemplateTrivialError(
            "template admits a constant tuple; every instance over it "
            "is satisfiable, so a NO outcome cannot be materialized")
    return RelationalStructure(["x0"], [(name, k, [("x0",) * k])])
