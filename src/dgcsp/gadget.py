"""Connecting paths and the path-replacement gadget.

Any template A, collapsed here to one k-ary relation R, is turned into a
digraph D(A): one vertex per element at level 0, one per tuple of R at
level k+2, and for every element/tuple pair a connecting path between
them whose shape records the coordinate set ``{i : r_i = a}``.  Section
i of a connecting path is a single climbing edge when coordinate i is in
the recorded set and a zigzag otherwise, so paths embed into each other
exactly when their recorded sets are nested.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .structures import (Digraph, InvalidStructureError, SizeGuardError,
                         collapse_to_single_relation)

FORWARD = 1
BACKWARD = -1
# bound on the element/tuple pairs, one connecting path each, of a gadget
MAX_PAIRS = 4096


def count_formula(num_elements, num_tuples, arity):
    """Closed-form size of the gadget digraph: (vertices, edges)."""
    k = arity
    v = (3 * k + 1) * num_tuples * num_elements + (1 - 2 * k) * num_tuples \
        + num_elements
    e = (3 * k + 2) * num_tuples * num_elements - 2 * k * num_tuples
    return v, e


def path_height(k):
    """Top level of a connecting path with k sections, and of D(A)."""
    return k + 2


@dataclass(frozen=True)
class QPath:
    """A connecting path for coordinate set ``single_edges`` within 1..k,
    k being its number of sections.

    The path climbs from level 0 to level k+2: an initial single edge,
    one section per coordinate (single edge when the coordinate is in
    ``single_edges``, zigzag otherwise), and a final single edge.
    ``word`` gives the edge directions: entry i is FORWARD when the edge
    points from position i to i+1, BACKWARD for the reverse.
    ``section_spans[l-1]`` is the inclusive position range of section l;
    adjacent sections share their seam position.
    """

    single_edges: frozenset
    word: tuple
    section_spans: tuple

    @property
    def last_position(self):
        return len(self.word)

    @property
    def num_vertices(self):
        return len(self.word) + 1

    def levels(self):
        """Level of each position; the path never dips below its start."""
        return tuple(itertools.accumulate(self.word, initial=0))

    def edges(self, names):
        """The path's edges, its positions 0..last named by ``names``."""
        return [(names[i], names[i + 1]) if d == FORWARD
                else (names[i + 1], names[i])
                for i, d in enumerate(self.word)]

    def realize(self, prefix):
        """The path as a digraph with vertices prefix0..prefixL."""
        names = [f"{prefix}{i}" for i in range(self.num_vertices)]
        return Digraph(names, self.edges(names))


def build_path(single_edges, k):
    """The connecting path for a coordinate set within 1..k."""
    if k < 1:
        raise InvalidStructureError(f"arity must be at least 1, got {k}")
    single_edges = frozenset(int(i) for i in single_edges)
    if not single_edges <= set(range(1, k + 1)):
        raise InvalidStructureError(
            f"coordinate set {sorted(single_edges)} not within 1..{k}")
    word = [FORWARD]
    spans = []
    pos = 1
    for l in range(1, k + 1):
        lo = pos
        if l in single_edges:
            word.append(FORWARD)
            pos += 1
        else:
            word.extend((FORWARD, BACKWARD, FORWARD))
            pos += 3
        spans.append((lo, pos))
    word.append(FORWARD)
    return QPath(single_edges, tuple(word), tuple(spans))


@dataclass(frozen=True)
class GadgetPath:
    """One instantiated connecting path inside the gadget digraph."""

    qpath: QPath
    vertices: tuple             # vertex names, position 0..last


def elem_name(a):
    return f"elem:{a}"


def tup_name(r):
    return "tup:(" + ",".join(r) + ")"


def _internal_name(a, r, j):
    return f"path:{a}|(" + ",".join(r) + f")|{j}"


class GadgetDigraph:
    """The gadget digraph D(A) of any template A.

    ``template`` is A as given, whose own relations fix its
    polymorphisms; ``relation`` is the one relation of A's collapse,
    whose tuples the tuple vertices stand for, and ``k`` its arity;
    :data:`MAX_PAIRS` is checked before the collapse.  Exposes the
    digraph itself, its levels as a ``{vertex: level}`` dict, the
    instantiated path per element/tuple pair, and per-vertex bookkeeping
    (kind, element or relation tuple, owning pair).  The digraph lists
    its vertices elements first, then relation tuples, then the internal
    vertices of each connecting path, element-major and by position
    along the path; the lift reads its tie orders off this order.
    """

    def __init__(self, template):
        # the collapsed relation has the product of the tuple counts
        pairs = len(template.domain) * math.prod(
            len(r.columns[0]) for r in template.relations)
        if pairs > MAX_PAIRS:
            raise SizeGuardError(
                f"gadget would use {pairs} connecting paths (bound {MAX_PAIRS})")
        (rel,) = collapse_to_single_relation(template).structure.relations
        self.template = template
        self.relation = rel
        self.k = rel.arity

        vertices = [elem_name(a) for a in template.domain]
        vertices.extend(tup_name(r) for r in rel.tuples)
        levels = [0] * len(template.domain) + [self.height] * len(rel.tuples)
        self.vertex_info = {}
        for a in template.domain:
            self.vertex_info[elem_name(a)] = VertexInfo("elem", element=a)
        for r in rel.tuples:
            self.vertex_info[tup_name(r)] = VertexInfo("tup", rtuple=r)

        edges = []
        self.paths = {}
        for a, r in itertools.product(template.domain, rel.tuples):
            coords = frozenset(i + 1 for i in range(self.k) if r[i] == a)
            qp = build_path(coords, self.k)
            names = [elem_name(a)]
            names.extend(_internal_name(a, r, j)
                         for j in range(1, qp.last_position))
            names.append(tup_name(r))
            qlevels = qp.levels()
            for j in range(1, qp.last_position):
                vertices.append(names[j])
                levels.append(qlevels[j])
                self.vertex_info[names[j]] = VertexInfo("path", edge=(a, r))
            edges.extend(qp.edges(names))
            self.paths[(a, r)] = GadgetPath(qp, tuple(names))

        if len(set(vertices)) != len(vertices):
            raise InvalidStructureError(
                "element names collide under gadget naming; rename them")
        self.digraph = Digraph(vertices, edges)
        self.levels = dict(zip(vertices, levels))

        expect = count_formula(len(template.domain), len(rel.tuples), self.k)
        got = (self.digraph.num_vertices(), self.digraph.num_edges())
        if got != expect:
            raise AssertionError(
                f"gadget size {got} does not match the closed form {expect}")

    @property
    def height(self):
        return path_height(self.k)


@dataclass(frozen=True)
class VertexInfo:
    kind: str                   # "elem" | "tup" | "path"
    element: str = None
    rtuple: tuple = None
    edge: tuple = None


def build_gadget(template):
    return GadgetDigraph(template)
