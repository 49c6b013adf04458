"""Relational structures, digraphs and a union-find.

Everything downstream works over two kinds of objects: finite relational
structures (a domain plus named relations of fixed arity) and finite
digraphs, each of which is a structure with one binary relation.  Both
are immutable once built and keep their contents in a canonical order so
that serialization and search are deterministic.

Element and vertex names are strings; files may give them as strings or
integers, and nothing else.  Relation tuples are made canonical in one
step, ``_canonical``: sorted as domain positions and kept in that one
form, as position columns.  It has two entries.  The checking
constructor takes names from outside (a digraph is built through it),
and the private ``RelationalStructure._of_columns`` takes positions from
the indicator search, which already holds them.  Tuples of names are
read off the columns only when asked for.  A digraph's adjacency is read
off the same columns, as positions.
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, itemgetter, mul


class InvalidStructureError(ValueError):
    """Raised when a structure or digraph description is malformed."""


class EmptyRelationError(InvalidStructureError):
    """Raised when a parsed structure has no relations or an empty one."""


class SizeGuardError(ValueError):
    """Raised when a construction would exceed a configured size bound."""


_NAME_TYPES = frozenset((str, int))


def _check_names(names, what):
    """Raise unless every name in the list ``names`` read from a file is
    a string or an integer, not a boolean: the constructor's ``str``
    would read a null or a list as a name."""
    if not set(map(type, names)) <= _NAME_TYPES:
        x = next(x for x in names if type(x) not in _NAME_TYPES)
        raise InvalidStructureError(
            f"{what} {json.dumps(x)} must be a string or an integer")


class UnionFind:
    """Plain union-find over hashable keys with path compression."""

    def __init__(self):
        self._parent = {}

    def add(self, x):
        if x not in self._parent:
            self._parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self._parent[ry] = rx
        return rx


@dataclass(frozen=True)
class Relation:
    """A named relation of a built structure.  Its tuples are stored once,
    as sorted ``columns`` of positions in ``domain``, one per coordinate;
    ``tuples``, the same tuples as element names, is built on first read.
    Equality compares name, arity and columns."""

    name: str
    arity: int
    columns: tuple = field(hash=False, repr=False)
    domain: tuple = field(compare=False, repr=False)

    @cached_property
    def tuples(self):
        return tuple(zip(*(map(self.domain.__getitem__, c)
                           for c in self.columns)))


def _canonical(name, arity, canon, domain):
    """The relation of the set ``canon`` of tuples of positions in
    ``domain``, in its one canonical form: sorted, as one position column
    per coordinate.  For arity 2 a pair (i, j) is given as the key
    i * len(domain) + j, which sorts the same."""
    ordered = sorted(canon)
    if arity == 2:
        n = len(domain)
        columns = (array("i", [k // n for k in ordered]),
                   array("i", [k % n for k in ordered]))
    else:
        columns = tuple(array("i", map(itemgetter(i), ordered))
                        for i in range(arity))
    return Relation(name, arity, columns, domain)


class RelationalStructure:
    """A finite relational structure.

    The domain order is significant: it fixes tuple ordering, tie-breaking
    in searches and the edge order of the gadget construction.

    This constructor is the checking entry, for names from outside: it
    turns names into strings and, from ``(name, arity, tuples)`` triples,
    rejects duplicate elements, unknown elements and tuples of the wrong
    length and turns tuples into domain positions.  The one canonical
    step, shared with the positional entry :meth:`_of_columns`, removes
    repeats, sorts the rest and keeps them as position ``columns``.  The
    domain may be empty.
    """

    def __init__(self, domain, relations):
        domain = tuple(map(str, domain))
        index = {x: i for i, x in enumerate(domain)}
        if len(index) != len(domain):
            x = next(x for i, x in enumerate(domain) if index[x] != i)
            raise InvalidStructureError(f"element {x!r} is listed twice")
        self.domain = domain
        self._index = index

        rels = []
        seen = set()
        for name, arity, tuples in relations:
            name = str(name)
            if name in seen:
                raise InvalidStructureError(f"duplicate relation name {name!r}")
            seen.add(name)
            if arity < 1:
                raise InvalidStructureError(f"relation {name!r} has arity {arity}")
            canon = set()
            if arity == 2:
                # the digraph case, unrolled: most tuples built are edges,
                # and an edge at positions (i, j) sorts as i * n + j
                n = len(domain)
                for t in tuples:
                    try:
                        u, v = t
                    except ValueError:
                        raise InvalidStructureError(
                            f"tuple {tuple(t)} of {name!r} does not have "
                            "arity 2") from None
                    u, v = str(u), str(v)
                    try:
                        canon.add(index[u] * n + index[v])
                    except KeyError as e:
                        raise InvalidStructureError(
                            f"tuple {(u, v)} of {name!r} uses {e.args[0]!r}, "
                            "which is not an element") from None
            else:
                for t in tuples:
                    t = tuple(map(str, t))
                    if len(t) != arity:
                        raise InvalidStructureError(
                            f"tuple {t} of {name!r} does not have arity {arity}")
                    try:
                        canon.add(tuple(map(index.__getitem__, t)))
                    except KeyError as e:
                        raise InvalidStructureError(
                            f"tuple {t} of {name!r} uses {e.args[0]!r}, which "
                            "is not an element") from None
            rels.append(_canonical(name, int(arity), canon, domain))
        self.relations = tuple(rels)
        self._by_name = {r.name: r for r in self.relations}

    @classmethod
    def _of_columns(cls, domain, relations):
        """The structure over ``domain``, a tuple of distinct string
        names, with relations given as ``(name, arity, columns)`` triples:
        one column of domain positions per coordinate, tuples in any order
        and repeats allowed.  Nothing is checked or looked up; the
        indicator source of :func:`~dgcsp.algebra.find_interpretations`,
        which holds its constraints as positions, is built here."""
        self = cls.__new__(cls)
        self.domain = domain
        self._index = {x: i for i, x in enumerate(domain)}
        n = len(domain)
        rels = []
        for name, arity, columns in relations:
            if arity == 2:
                u, v = columns
                canon = set(map(add, map(mul, u, itertools.repeat(n)), v))
            else:
                canon = set(zip(*columns))
            rels.append(_canonical(name, arity, canon, domain))
        self.relations = tuple(rels)
        self._by_name = {r.name: r for r in self.relations}
        return self

    # -- basic queries -------------------------------------------------

    def index(self, name):
        return self._index[name]

    def __contains__(self, name):
        return name in self._index

    def relation(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r}") from None

    def has_relation(self, name):
        return name in self._by_name

    def signature(self):
        return {r.name: r.arity for r in self.relations}

    @property
    def is_single_relation(self):
        return len(self.relations) == 1

    def __eq__(self, other):
        if not isinstance(other, RelationalStructure):
            return NotImplemented
        return self.domain == other.domain and self.relations == other.relations

    def __hash__(self):
        return hash((self.domain, self.relations))

    def __repr__(self):
        sig = ", ".join(f"{r.name}/{r.arity}:{len(r.columns[0])}"
                        for r in self.relations)
        return f"RelationalStructure(|dom|={len(self.domain)}, {sig})"

    # -- derived structures --------------------------------------------

    def induced(self, elements):
        """Substructure on the given elements, keeping domain order."""
        keep = set(elements)
        unknown = keep - set(self.domain)
        if unknown:
            raise InvalidStructureError(f"unknown elements {sorted(unknown)}")
        domain = tuple(x for x in self.domain if x in keep)
        rels = []
        for r in self.relations:
            tuples = [t for t in r.tuples if all(x in keep for x in t)]
            rels.append((r.name, r.arity, tuples))
        return RelationalStructure(domain, rels)

    # -- serialization -------------------------------------------------

    @classmethod
    def from_json(cls, obj):
        """Parse the on-disk structure format.

        Unlike the constructor, this rejects structures with no relations
        or with an empty relation, since files describe either templates
        or instances and an empty relation is almost certainly a mistake.
        """
        if not isinstance(obj, dict):
            raise InvalidStructureError("structure file must be a JSON object")
        try:
            domain = obj["domain"]
            relations = obj["relations"]
        except (KeyError, TypeError):
            raise InvalidStructureError(
                "structure file needs 'domain' and 'relations' keys") from None
        if not isinstance(domain, list):
            raise InvalidStructureError("'domain' must be a list")
        _check_names(domain, "element")
        if not isinstance(relations, list) or not relations:
            raise EmptyRelationError("structure has no relations")
        rels = []
        for rd in relations:
            try:
                name, arity, tuples = rd["name"], rd["arity"], rd["tuples"]
            except (KeyError, TypeError):
                raise InvalidStructureError(
                    "each relation needs 'name', 'arity' and 'tuples'") from None
            if not isinstance(name, str):
                raise InvalidStructureError(
                    f"relation name {name!r} must be a string")
            if not isinstance(arity, int) or isinstance(arity, bool):
                raise InvalidStructureError(
                    f"relation {name!r}: 'arity' must be an integer")
            if not isinstance(tuples, list):
                raise InvalidStructureError(
                    f"relation {name!r}: 'tuples' must be a list")
            if not tuples:
                raise EmptyRelationError(f"relation {name!r} has no tuples")
            for t in tuples:
                if not isinstance(t, list) or len(t) != arity:
                    raise InvalidStructureError(
                        f"relation {name!r}: tuple {t!r} must be a list of "
                        f"{arity} elements")
            _check_names(list(itertools.chain.from_iterable(tuples)),
                         f"relation {name!r}: element")
            rels.append((name, arity, [tuple(t) for t in tuples]))
        return cls(domain, rels)

    def to_json(self):
        return {
            "domain": list(self.domain),
            "relations": [
                {"name": r.name, "arity": r.arity,
                 "tuples": [list(t) for t in r.tuples]}
                for r in self.relations
            ],
        }


class Digraph:
    """A finite directed graph with named vertices.

    A digraph is a structure with one binary relation ``E``, built once
    by :class:`RelationalStructure`: vertex names become strings, and
    edges are kept without repeats, sorted by endpoint positions.  Vertex
    order is significant (deterministic iteration).  From the edge
    columns, ``succ`` and ``pred`` hold per vertex position the ascending
    positions of its out- and in-neighbours; walks run on them.
    """

    def __init__(self, vertices, edges):
        structure = self._structure = RelationalStructure(
            vertices, [("E", 2, edges)])
        self.vertices = structure.domain
        self._index = structure._index
        # one int object per position, shared by every neighbour tuple
        ids = list(range(len(self.vertices)))
        succ, pred = [[] for _ in ids], [[] for _ in ids]
        for u, v in zip(*structure.relations[0].columns):
            succ[u].append(ids[v])
            pred[v].append(ids[u])
        self.succ = tuple(map(tuple, succ))
        self.pred = tuple(map(tuple, pred))

    @property
    def edges(self):
        """The edges as vertex-name pairs, built on first read."""
        return self._structure.relations[0].tuples

    def index(self, v):
        return self._index[v]

    def __contains__(self, v):
        return v in self._index

    def num_vertices(self):
        return len(self.vertices)

    def num_edges(self):
        return len(self._structure.relations[0].columns[0])

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._structure == other._structure

    def __repr__(self):
        return f"Digraph({len(self.vertices)} vertices, {self.num_edges()} edges)"

    def induced(self, vertices):
        """Subgraph on the given vertices, keeping vertex order; built
        from the adjacency tuples, so it costs their degrees, not |E|."""
        keep = {self._index[v] for v in vertices if v in self._index}
        vs = self.vertices
        return Digraph([vs[u] for u in sorted(keep)],
                       [(vs[u], vs[w]) for u in sorted(keep)
                        for w in self.succ[u] if w in keep])

    def weak_components(self):
        """Connected components ignoring edge direction.

        Returns a list of vertex lists; components are ordered by their
        first vertex in vertex order, and so are the vertices inside.
        """
        vs = self.vertices
        return [list(map(vs.__getitem__, comp))
                for comp in self._components(range(len(vs)))]

    def _components(self, members):
        """Weak components of the subgraph induced on ``members``, all
        as ascending positions, ordered by their first position."""
        succ, pred = self.succ, self.pred
        unseen = bytearray(len(succ))
        for v in members:
            unseen[v] = 1
        comps = []
        for start in members:
            if not unseen[start]:
                continue
            unseen[start] = 0
            comp = [start]
            for v in comp:          # grows as the search reaches vertices
                for w in succ[v] + pred[v]:
                    if unseen[w]:
                        unseen[w] = 0
                        comp.append(w)
            comp.sort()
            comps.append(comp)
        return comps

    def as_structure(self):
        """This digraph as the structure it was built from: the vertices
        as its domain and the edges as its one binary relation ``E``,
        which may be empty.  Nothing is copied."""
        return self._structure

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise InvalidStructureError("digraph file must be a JSON object")
        try:
            vertices = obj["vertices"]
            edges = obj["edges"]
        except (KeyError, TypeError):
            raise InvalidStructureError(
                "digraph file needs 'vertices' and 'edges' keys") from None
        if not isinstance(vertices, list):
            raise InvalidStructureError("'vertices' must be a list")
        if not isinstance(edges, list):
            raise InvalidStructureError("'edges' must be a list")
        for e in edges:
            if not isinstance(e, list) or len(e) != 2:
                raise InvalidStructureError(
                    f"edge {e!r} must be a list of two vertices")
        _check_names(vertices, "vertex")
        _check_names(list(itertools.chain.from_iterable(edges)), "edge end")
        return cls(vertices, edges)

    def to_json(self):
        return {"vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges]}


def digraph_to_dot(g, levels=None):
    """Render a digraph in dot format, one vertex/edge per line.

    With ``levels``, a ``{vertex: level}`` dict, vertices of equal level
    are put on the same rank so the drawing is layered bottom-up.
    """
    lines = ["digraph G {", "  rankdir=BT;"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    if levels is not None:
        by_level = {}
        for v in g.vertices:
            by_level.setdefault(levels[v], []).append(v)
        for lvl in sorted(by_level):
            row = " ".join(f'"{v}";' for v in by_level[lvl])
            lines.append(f"  {{ rank=same; {row} }}")
    for u, v in g.edges:
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CollapsedTemplate:
    """A multi-relation template rewritten over a single relation.

    The single relation is the product of the original relations in
    declaration order.
    """

    structure: RelationalStructure


def collapsed_signature(structure):
    """The name and arity of a template's single-relation collapse, read
    without building it: a single relation keeps its own, several become
    ``"R"`` with the sum of their arities.  Raises
    :class:`EmptyRelationError` for a template with no relations or with
    an empty one, which has no collapse."""
    if not structure.relations:
        raise EmptyRelationError("template has no relations")
    for r in structure.relations:
        if not len(r.columns[0]):
            raise EmptyRelationError(f"relation {r.name!r} has no tuples")
    if structure.is_single_relation:
        r = structure.relations[0]
        return r.name, r.arity
    return "R", sum(r.arity for r in structure.relations)


def collapse_to_single_relation(structure):
    """Combine all relations of a template into one product relation,
    named and sized by :func:`collapsed_signature`.

    Solvability of instances is preserved both ways: a combined
    constraint on a block of variables says each original relation holds
    on its slice.  A template that is already single-relation is passed
    through unchanged.
    """
    name, arity = collapsed_signature(structure)
    if structure.is_single_relation:
        return CollapsedTemplate(structure)
    combined = []
    for combo in itertools.product(*(r.tuples for r in structure.relations)):
        flat = tuple(itertools.chain.from_iterable(combo))
        combined.append(flat)
    out = RelationalStructure(structure.domain, [(name, arity, combined)])
    return CollapsedTemplate(out)
