"""Operation tables, linear identities, and polymorphism search.

A polymorphism of a structure is an operation on its domain that maps
related tuples coordinatewise to related tuples.  Searching for
polymorphisms satisfying a system of linear identities is itself a
homomorphism problem: build one indicator variable per symbol/argument
combination, merge variables forced equal by the identities, pin the
ones forced to constants, and hand the rest to the solver.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import eq, getitem, itemgetter

from .solver import DEFAULT_BUDGET, HomInstance
from .structures import RelationalStructure, SizeGuardError, UnionFind
from .templates import zigzag_digraph_template


class IdentityParseError(ValueError):
    """Raised on malformed identity files."""


# ---------------------------------------------------------------------
# operation tables


class OperationTable:
    """A finite operation: its values once, in product order."""

    def __init__(self, domain, arity, mapping):
        self.domain = tuple(domain)
        self.arity = int(arity)
        if self.arity < 1:
            raise ValueError(f"an operation needs arity at least 1, got {arity}")
        dom = self._index = {x: i for i, x in enumerate(self.domain)}
        table = {}
        for args, value in mapping.items():
            args = tuple(args)
            if len(args) != self.arity or not {*args, value} <= dom.keys():
                raise ValueError(f"bad table row {args} -> {value}")
            table[args] = value
        if len(table) != len(self.domain) ** self.arity:
            raise ValueError(
                f"table has {len(table)} rows, expected a complete table "
                f"over {len(self.domain)} elements")
        self.values = tuple(map(table.__getitem__, itertools.product(
            self.domain, repeat=self.arity)))

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(f"expected {self.arity} arguments, got {len(args)}")
        return self.row(args[:-1])[self._index[args[-1]]]

    def row(self, prefix):
        """The values at ``prefix + (y,)`` for every ``y`` in ``domain``."""
        if len(prefix) != self.arity - 1:
            raise TypeError(f"expected {self.arity - 1} prefix entries")
        index, n, i = self._index, len(self.domain), 0
        for x in prefix:
            i = (i + index[x]) * n
        return self.values[i:i + n]

    @classmethod
    def from_function(cls, domain, arity, fn):
        mapping = {args: fn(*args)
                   for args in itertools.product(domain, repeat=arity)}
        return cls(domain, arity, mapping)

    def rows(self):
        return zip(itertools.product(self.domain, repeat=self.arity),
                   self.values)

    def polymorphism_failure(self, structure):
        """:func:`polymorphism_failure` of this table."""
        return polymorphism_failure(self, structure)


def polymorphism_failure(op, structure):
    """The first combination of relation tuples, one per argument, that
    ``op`` does not map into their relation, in product order, relations
    in order, as ``(name, combination, image)``, or None.

    ``op`` is read through ``op.row`` alone, each element at its place in
    ``op.domain``, so a table, a lifted operation or any operation with
    rows is checked alike.  Per relation and combination of every tuple
    but the last, each coordinate reads one row, re-read only when its
    prefix changes, and one set test covers every last tuple; only a
    failing combination is scanned tuple by tuple.  A value outside the
    structure is in no relation tuple, so it fails.
    """
    at = {x: i for i, x in enumerate(op.domain)}
    for r in structure.relations:
        tuples = r.tuples
        if not tuples:
            continue
        related = frozenset(tuples)
        columns = [[structure.domain[i] for i in c] for c in r.columns]
        # the row places of every last tuple's entries, always a tuple
        # (the first is read twice)
        getters = [itemgetter(*places, places[0])
                   for places in ([at[x] for x in c] for c in columns)]
        last, images = [None] * r.arity, [None] * r.arity
        for prefixes in zip(*[itertools.product(c, repeat=op.arity - 1)
                              for c in columns]):
            for j, prefix in enumerate(prefixes):
                if prefix != last[j]:
                    last[j], images[j] = prefix, getters[j](op.row(prefix))
            if not related.issuperset(zip(*images)):
                for t, image in zip(tuples, zip(*images)):
                    if image not in related:
                        return r.name, (*zip(*prefixes), t), image
    return None


def _product_indices(column, m, n):
    """The product-order indices, over n elements, of the m-fold tuples
    of the positions in ``column``, in product order: entry c is the
    index of the tuple whose j-th place is ``column[d_j]``, for d_1 ...
    d_m the base-``len(column)`` digits of c."""
    idx = [0]
    for _ in range(m):
        idx = [a * n + b for a in idx for b in column]
    return idx


def operation_to_json(op):
    """The operation file format: ``arity`` and a ``map`` of
    ``[*args, value]`` rows over ``op.domain`` in product order, read
    through ``op.row``."""
    dom = op.domain
    return {"arity": op.arity,
            "map": [[*prefix, y, value] for prefix in
                    itertools.product(dom, repeat=op.arity - 1)
                    for y, value in zip(dom, op.row(prefix))]}


# ---------------------------------------------------------------------
# linear identities


@dataclass(frozen=True)
class Term:
    """Either a bare variable (symbol None) or one symbol applied to
    variables; nesting is not supported."""

    symbol: str
    args: tuple

    def variables(self):
        return set(self.args)

    def column(self, readers, variables, domain):
        """This term's values as the last of ``variables`` runs over
        ``domain``, as a function of the others' values; ``readers`` maps a
        symbol to its rows and each element's place in them.  A term whose
        only use of the last name is its last argument is one row read."""
        n = len(domain)
        z = len(variables) - 1
        *head, last = at = [variables.index(v) for v in self.args]
        row, index = readers[self.symbol]
        places = [index[x] for x in domain]
        if last == z and z not in head:
            return lambda values: tuple(map(
                row(tuple(map(values.__getitem__, head))).__getitem__, places))
        prefix_of, last_of = itemgetter(slice(-1)), itemgetter(-1)

        def read(values):
            args = list(zip(*[domain if i == z else
                              itertools.repeat(values[i], n) for i in at]))
            return tuple(map(getitem, map(row, map(prefix_of, args)),
                             map(index.__getitem__, map(last_of, args))))

        return read

    def __str__(self):
        if self.symbol is None:
            return self.args[0]
        return f"{self.symbol}({','.join(self.args)})"


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term

    def variables(self):
        return self.lhs.variables() | self.rhs.variables()

    def is_balanced(self):
        return self.lhs.variables() == self.rhs.variables()

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


_APP_RE = re.compile(r"^(\w+)\s*\(\s*([\w\s,]*?)\s*\)$")
_VAR_RE = re.compile(r"^\w+$")


class IdentitySystem:
    """A finite set of operation symbols, linear identities over them,
    and symbols marked idempotent.  The constructor is where every
    symbol's arity, an integer of at least 1, is checked, and every term
    against it."""

    def __init__(self, symbols, identities, idempotent=()):
        self.symbols = dict(symbols)
        self.identities = tuple(identities)
        self.idempotent = frozenset(idempotent)
        for s, a in self.symbols.items():
            if type(a) is not int or a < 1:
                raise IdentityParseError(
                    f"symbol {s!r} has arity {a!r}, not an integer >= 1")
        for s in self.idempotent:
            if s not in self.symbols:
                raise IdentityParseError(f"idempotent marker for unknown symbol {s!r}")
        for ident in self.identities:
            for t in (ident.lhs, ident.rhs):
                if t.symbol is not None:
                    if t.symbol not in self.symbols:
                        raise IdentityParseError(f"unknown symbol {t.symbol!r}")
                    if len(t.args) != self.symbols[t.symbol]:
                        raise IdentityParseError(
                            f"symbol {t.symbol!r} used with {len(t.args)} "
                            f"arguments, declared {self.symbols[t.symbol]}")

    @classmethod
    def parse(cls, text):
        """Parse the identity file format: one ``lhs = rhs`` per line,
        ``idempotent f`` markers, ``#`` comments.  A symbol's arity is
        that of its first application; the constructor rejects any other
        use."""
        symbols = {}
        identities = []
        idempotent = []

        def parse_term(s):
            s = s.strip()
            m = _APP_RE.match(s)
            if m:
                sym = m.group(1)
                args = tuple(a.strip() for a in m.group(2).split(","))
                if not all(_VAR_RE.match(a) for a in args):
                    raise IdentityParseError(f"bad argument list in {s!r}")
                symbols.setdefault(sym, len(args))
                return Term(sym, args)
            if _VAR_RE.match(s):
                return Term(None, (s,))
            raise IdentityParseError(f"cannot parse term {s!r}")

        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "idempotent":
                if len(parts) != 2:
                    raise IdentityParseError(
                        f"line {lineno}: expected 'idempotent <symbol>'")
                idempotent.append(parts[1])
                continue
            if "=" not in line:
                raise IdentityParseError(f"line {lineno}: no '=' in {line!r}")
            lhs, rhs = line.split("=", 1)
            identities.append(Identity(parse_term(lhs), parse_term(rhs)))

        for s in idempotent:
            if s not in symbols:
                symbols[s] = None
        bad = [s for s, a in symbols.items() if a is None]
        if bad:
            raise IdentityParseError(
                f"symbols {bad} marked idempotent but never applied; "
                "arity cannot be inferred")
        return cls(symbols, identities, idempotent)

    def __str__(self):
        lines = [f"idempotent {s}" for s in sorted(self.idempotent)]
        lines.extend(str(i) for i in self.identities)
        return "\n".join(lines)


def check_identities(interps, system, domain=None):
    """Check a family of operations against an identity system.

    ``interps`` maps symbol names to operations (tables or lifted
    operations); idempotence of ``s`` is ``s(x,...,x) = x``.  Per
    assignment of an identity's sorted variables but the last, both
    sides' values as the last runs over ``domain`` are compared as
    tuples, read from ``op.row(prefix)`` in the order of ``op.domain``.
    Returns ``(True, None)`` or ``(False, (description, assignment))``
    with the first violation in product order.
    """
    for s, ar in system.symbols.items():
        if s not in interps:
            return False, (f"missing interpretation for {s}", {})
        if interps[s].arity != ar:
            return False, (f"symbol {s} has arity {ar}, interpretation has "
                           f"{interps[s].arity}", {})
    if domain is None:
        domain = next(iter(interps.values())).domain
    place = {x: i for i, x in enumerate(domain)}
    # a bare variable is read as the identity operation
    readers = {None: (lambda prefix: domain, place)}
    for s in system.symbols:
        op = interps[s]
        readers[s] = (op.row, {x: i for i, x in enumerate(op.domain)})
    checks = [(f"idempotent {s}", Term(s, ("x",) * system.symbols[s]),
               Term(None, ("x",))) for s in sorted(system.idempotent)]
    checks += [(str(ident), ident.lhs, ident.rhs)
               for ident in system.identities]
    for what, lhs, rhs in checks:
        vs = sorted(lhs.variables() | rhs.variables())
        left, right = (t.column(readers, vs, domain) for t in (lhs, rhs))
        for values in itertools.product(domain, repeat=len(vs) - 1):
            if (lcol := left(values)) != (rcol := right(values)):
                j = list(map(eq, lcol, rcol)).index(False)
                return False, (what, dict(zip(vs, values + (domain[j],))))
    return True, None


# ---------------------------------------------------------------------
# canned identity systems: identity text, read by the same parser as
# identity files


def wnu_system(m, symbol="w"):
    """Weak near-unanimity: idempotent, and all one-off applications
    agree.  Needs arity at least 3."""
    if m < 3:
        raise ValueError(f"weak near-unanimity needs arity >= 3, got {m}")
    args = [",".join("y" if j == pos else "x" for j in range(m))
            for pos in range(m)]
    return IdentitySystem.parse("\n".join(
        [f"idempotent {symbol}"]
        + [f"{symbol}({a}) = {symbol}({b})" for a, b in zip(args, args[1:])]))


def kkvw_system():
    """Bounded width (Kozik, Krokhin, Valeriote and Willard): idempotent
    weak near-unanimity operations of arities 3 and 4 that agree on
    one-off arguments, u(y,x,x) = v(y,x,x,x)."""
    return IdentitySystem.parse("\n".join([
        str(wnu_system(3, "u")), str(wnu_system(4, "v")),
        "u(y,x,x) = v(y,x,x,x)"]))


def cyclic_system(p):
    """Cyclic term (Barto and Kozik): idempotent, and unchanged by
    rotating its arguments, c(x1,...,xp) = c(x2,...,xp,x1).  Needs
    arity at least 2."""
    if p < 2:
        raise ValueError(f"a cyclic term needs arity >= 2, got {p}")
    xs = [f"x{i}" for i in range(1, p + 1)]
    return IdentitySystem.parse(
        f"idempotent c\nc({','.join(xs)}) = c({','.join(xs[1:] + xs[:1])})")


def majority_system():
    return IdentitySystem.parse(
        "idempotent maj\nmaj(y,x,x) = x\nmaj(x,y,x) = x\nmaj(x,x,y) = x")


def maltsev_system():
    return IdentitySystem.parse("idempotent p\np(y,x,x) = y\np(x,x,y) = y")


def three_permutability_system():
    return IdentitySystem.parse(
        "idempotent p1\nidempotent p2\n"
        "p1(x,y,y) = x\np2(x,x,y) = y\np1(x,x,y) = p2(x,y,y)")


def commutative_idempotent_binary_system():
    """A binary symmetric idempotent operation."""
    return IdentitySystem.parse("idempotent f\nf(x,y) = f(y,x)")


# ---------------------------------------------------------------------
# indicator search


MAX_INDICATOR_VARIABLES = 200_000


def find_interpretations(structure, system, budget=DEFAULT_BUDGET):
    """Search for polymorphisms of a structure satisfying an identity
    system; returns symbol -> table, or None.

    One indicator per symbol and argument tuple, keyed ``(symbol,
    args)``.  Identities merge indicators into classes and pin classes to
    constants: every merge is made before any pin is placed.  Each class
    is one solver variable, numbered in the order its first indicator
    appears; each symbol keeps its indicators' variables in one list in
    product order.  The polymorphism condition contributes the
    constraints: for each relation and symbol of arity m, one per m-fold
    combination of relation tuples in product order, each of its columns
    read from that list by product index off the relation's position
    column.  The columns are handed to the solver's source as positions,
    through ``RelationalStructure._of_columns``, over the variable names
    ``"0"``, ``"1"``, ...; no name is looked up.  The search is joint
    over all symbols.
    """
    domain = structure.domain
    total = sum(len(domain) ** ar for ar in system.symbols.values())
    if total > MAX_INDICATOR_VARIABLES:
        raise SizeGuardError(
            f"indicator construction needs {total} variables "
            f"(bound {MAX_INDICATOR_VARIABLES})")

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

    first = {}      # class root -> solver variable
    var = {s: [first.setdefault(uf.find((s, args)), len(first))
               for args in itertools.product(domain, repeat=ar)]
           for s, ar in system.symbols.items()}
    n = len(domain)
    pins = {}
    for (s, args), value in pinned:
        i = 0
        for x in args:
            i = i * n + structure.index(x)
        if pins.setdefault(var[s][i], value) != value:
            return None

    rels = []
    for r in structure.relations:
        columns = [[] for _ in r.columns]
        for s, ar in system.symbols.items():
            for column, c in zip(columns, r.columns):
                column += map(var[s].__getitem__, _product_indices(c, ar, n))
        rels.append((r.name, r.arity, columns))
    names = tuple(map(str, range(len(first))))
    source = RelationalStructure._of_columns(names, rels)
    sol = HomInstance(source, structure,
                      pins={names[x]: value for x, value in pins.items()}
                      ).solve(budget)
    if sol is None:
        return None

    out = {}
    for s, ar in system.symbols.items():
        mapping = {args: sol[names[x]] for args, x in
                   zip(itertools.product(domain, repeat=ar), var[s])}
        out[s] = OperationTable(domain, ar, mapping)

    good, why = check_identities(out, system, domain)
    if not good:
        raise AssertionError(f"search produced a bad interpretation: {why}")
    for s, table in out.items():
        bad = table.polymorphism_failure(structure)
        if bad is not None:
            raise AssertionError(f"search produced a non-polymorphism: {bad}")
    return out


def find_wnu(structure, arity, budget=DEFAULT_BUDGET):
    """A weak near-unanimity polymorphism of the given arity, or None."""
    out = find_interpretations(structure, wnu_system(arity), budget=budget)
    return out["w"] if out else None


# ---------------------------------------------------------------------
# zigzag operations


# the zigzag's vertices in path order, and each one's place on the path
_ZVERT = zigzag_digraph_template().domain
_ZPOS = {v: i for i, v in enumerate(_ZVERT)}


def zigzag_meet(x, y):
    """The vertex closer to the start of the zigzag."""
    return _ZVERT[min(_ZPOS[x], _ZPOS[y])]


def zigzag_join(x, y):
    return _ZVERT[max(_ZPOS[x], _ZPOS[y])]


def zigzag_median(x, y, z):
    return zigzag_join(zigzag_join(zigzag_meet(x, y), zigzag_meet(x, z)),
                       zigzag_meet(y, z))


def zigzag_p1(x, y, z):
    if "01" in (x, y, z) and y != z:
        return "01"
    if "10" in (x, y, z) and "01" not in (x, y, z) and y != z:
        return "10"
    return x


def zigzag_p2(x, y, z):
    if "01" in (x, y, z) and x != y:
        return "01"
    if "10" in (x, y, z) and "01" not in (x, y, z) and x != y:
        return "10"
    if x == y:
        return z
    return x


def zigzag_operations():
    """Tables of the built-in zigzag operations, keyed by name."""
    return {
        "meet": OperationTable.from_function(_ZVERT, 2, zigzag_meet),
        "join": OperationTable.from_function(_ZVERT, 2, zigzag_join),
        "median": OperationTable.from_function(_ZVERT, 3, zigzag_median),
        "p1": OperationTable.from_function(_ZVERT, 3, zigzag_p1),
        "p2": OperationTable.from_function(_ZVERT, 3, zigzag_p2),
    }


# ---------------------------------------------------------------------
# endomorphisms and cores


def endomorphisms(structure, budget=DEFAULT_BUDGET, limit=None):
    """All homomorphisms of a structure to itself, in canonical order."""
    inst = HomInstance(structure, structure)
    return inst.solve_all(budget=budget, limit=limit)


def is_core(structure, budget=DEFAULT_BUDGET):
    """Whether every endomorphism is surjective."""
    n = len(structure.domain)
    for e in endomorphisms(structure, budget=budget):
        if len(set(e.values())) != n:
            return False
    return True


@dataclass(frozen=True)
class CoreResult:
    core: RelationalStructure
    retraction: dict


def core_of(structure, budget=DEFAULT_BUDGET):
    """A core of the structure and a retraction onto it.

    Picks an endomorphism with the smallest image; the structure induced
    on that image is a core, and iterating the endomorphism yields a
    retraction (identity on the image).
    """
    endos = endomorphisms(structure, budget=budget)
    best = None
    for e in endos:
        size = len(set(e.values()))
        if best is None or size < len(set(best.values())):
            best = e
    image = sorted(set(best.values()), key=structure.index)
    r = dict(best)
    while any(r[c] != c for c in image):
        r = {x: best[r[x]] for x in structure.domain}
    core = structure.induced(image)
    return CoreResult(core, r)
