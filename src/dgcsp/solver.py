"""Backtracking homomorphism solver with per-constraint filtering.

Finds homomorphisms from a source structure to a target structure over
the same signature.  Domains are bitmasks over target elements; before
every branching decision each constraint is filtered to the values that
still have a supporting target tuple, to a fixpoint (arc consistency,
AC-3 style, with a set of pending constraints).  Search order is
deterministic: smallest domain first (ties by variable position), values
in target order.  The search works on one list of masks, undone through
a trail of old masks rather than copied per node, and takes each
branching variable from a heap of (domain size, position) entries.

A constraint is a scope and a support at one index of two parallel
lists: its scope is a tuple of distinct variable positions, read off the
relation's position columns, and its support is shared by every
constraint of its relation and repeat pattern.  A scope that names a
variable twice is rewritten, as it is built, over its distinct variables
against the relation's tuples that agree on the repeats, projected onto
the first occurrences.  A binary support has per-value in- and
out-neighbour masks and a memo per direction from a domain mask to the
union of its values' masks.  Every revision is made in the propagation
loop: a binary one is two memo lookups and two ANDs, one of another
arity scans the support's tuples.  A leaf is checked against the source
tuples' relations before it is reported; one that fails is a broken
invariant and raises :class:`AssertionError`, never a negative answer.

Every value assignment tried counts against a node budget; running out
raises :class:`BudgetExhausted`, which callers must treat as a distinct
outcome, never as "no".
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count, repeat
from operator import eq

DEFAULT_BUDGET = 10_000_000


class BudgetExhausted(RuntimeError):
    """The solver hit its node budget before finishing."""

    def __init__(self, budget, spent):
        super().__init__(f"search budget of {budget} nodes exhausted")
        self.budget = budget
        self.spent = spent


class SolverUsageError(ValueError):
    """Bad instance: mismatched signatures, unknown pins, and the like."""


class _Support:
    """The tuples a constraint ranges over as value indices: a target
    relation's, or those derived from it for a repeat pattern.  A binary
    support also has the neighbour masks and their memos."""

    def __init__(self, tuples, arity, nvals):
        self.tuples = tuple(tuples)
        if arity == 2:
            into = [0] * nvals      # into[b]: values a with (a, b) allowed
            out_of = [0] * nvals    # out_of[a]: values b with (a, b) allowed
            for a, b in self.tuples:
                into[b] |= 1 << a
                out_of[a] |= 1 << b
            self.neighbours = (into, out_of)
            self.memos = ({}, {})

    def project(self, pos, mask):
        """Values at position ``pos`` (0 or 1) supported by some value of
        ``mask`` at the other position."""
        memo = self.memos[pos]
        sup = memo.get(mask)
        if sup is None:
            nbrs = self.neighbours[pos]
            sup = 0
            rest = mask
            while rest:
                low = rest & -rest
                sup |= nbrs[low.bit_length() - 1]
                rest ^= low
            memo[mask] = sup
        return sup


class HomInstance:
    """A homomorphism search problem ``source -> target`` with pins.

    Every relation of the source must exist in the target with the same
    arity (the source may use only part of the target's signature).
    ``pins`` maps source elements to forced target elements; ``domains``
    optionally restricts the candidate set of individual variables.
    """

    def __init__(self, source, target, pins=None, domains=None):
        self.source = source
        self.target = target
        self.vars = source.domain
        self.vals = target.domain
        nvals = len(self.vals)
        full = (1 << nvals) - 1

        tsig = target.signature()
        for r in source.relations:
            if r.name not in tsig:
                raise SolverUsageError(
                    f"target has no relation {r.name!r}")
            if tsig[r.name] != r.arity:
                raise SolverUsageError(
                    f"relation {r.name!r}: source arity {r.arity} != "
                    f"target arity {tsig[r.name]}")

        self._masks = [full] * len(self.vars)
        if domains:
            for x, allowed in domains.items():
                xi = self._var_index(x)
                m = 0
                for v in allowed:
                    m |= 1 << self._val_index(v)
                self._masks[xi] &= m
        if pins:
            for x, v in pins.items():
                xi = self._var_index(x)
                self._masks[xi] &= 1 << self._val_index(v)

        # constraint ci is constraints[ci] over supports[ci], watched by
        # each variable of its scope; a leaf is checked against each
        # relation's source columns and tuple set
        self.constraints = constraints = []
        supports = self._supports = []
        self._checks = []
        watch = self._watch = [[] for _ in self.vars]
        for r in source.relations:
            support = _Support(zip(*target.relation(r.name).columns),
                               r.arity, nvals)
            self._checks.append(
                (r.name, r.columns, frozenset(support.tuples)))
            start = len(constraints)
            if r.arity == 2 and not any(map(eq, *r.columns)):
                constraints += zip(*r.columns)
                supports += repeat(support, len(r.columns[0]))
                for c, x0, x1 in zip(count(start), *r.columns):
                    watch[x0].append(c)
                    watch[x1].append(c)
                continue
            # repeat pattern (each position's first occurrence) -> support
            derived = {tuple(range(r.arity)): support}
            for ci, scope in enumerate(zip(*r.columns), start):
                first = tuple(map(scope.index, scope))
                if first not in derived:
                    keep = sorted(set(first))
                    derived[first] = _Support(
                        (tuple(map(t.__getitem__, keep))
                         for t in support.tuples
                         if tuple(map(t.__getitem__, first)) == t),
                        len(keep), nvals)
                scope = tuple(dict.fromkeys(scope))
                constraints.append(scope)
                supports.append(derived[first])
                for xi in scope:
                    watch[xi].append(ci)

    def _var_index(self, x):
        try:
            return self.source.index(x)
        except KeyError:
            raise SolverUsageError(f"unknown source element {x!r}") from None

    def _val_index(self, v):
        try:
            return self.target.index(v)
        except KeyError:
            raise SolverUsageError(f"unknown target element {v!r}") from None

    # -- propagation ---------------------------------------------------

    def _propagate(self, masks, queue=None, trail=None):
        """Revise constraints to a fixpoint; False on wipeout.

        Every revision is made here, and each has one shape: the values
        a variable keeps are those its constraint supports under the
        masks as they were on entry, and a variable whose mask shrinks
        queues its other constraints.  Scope variables are distinct, so a
        revision writes each at most once.  A binary constraint reads its
        support from the memos; one of another arity scans its tuples.
        With a ``trail`` list, each mask write first appends the variable
        and its old mask to it, so the search can undo the call, a
        wipeout included; the root call needs no undo.
        """
        constraints = self.constraints
        supports = self._supports
        watch = self._watch
        if queue is None:
            pending = set(range(len(constraints)))
        else:
            pending = set(queue)
        while pending:
            ci = pending.pop()
            scope = constraints[ci]
            support = supports[ci]
            if len(scope) != 2:
                supported = dict.fromkeys(scope, 0)
                for t in support.tuples:
                    for xi, vi in zip(scope, t):
                        if not (masks[xi] >> vi) & 1:
                            break
                    else:
                        for xi, vi in zip(scope, t):
                            supported[xi] |= 1 << vi
                for xi, sup in supported.items():
                    m = masks[xi]
                    new = m & sup
                    if new != m:
                        if not new:
                            return False
                        if trail is not None:
                            trail.append((xi, m))
                        masks[xi] = new
                        for cj in watch[xi]:
                            if cj != ci:
                                pending.add(cj)
                continue
            x0, x1 = scope
            m0 = masks[x0]
            m1 = masks[x1]
            memo_in, memo_out = support.memos
            new0 = memo_in.get(m1)
            if new0 is None:
                new0 = support.project(0, m1)
            new1 = memo_out.get(m0)
            if new1 is None:
                new1 = support.project(1, m0)
            new0 &= m0
            new1 &= m1
            if new0 != m0:
                if not new0:
                    return False
                if trail is not None:
                    trail.append((x0, m0))
                masks[x0] = new0
                for cj in watch[x0]:
                    if cj != ci:
                        pending.add(cj)
            if new1 != m1:
                if not new1:
                    return False
                if trail is not None:
                    trail.append((x1, m1))
                masks[x1] = new1
                for cj in watch[x1]:
                    if cj != ci:
                        pending.add(cj)
        return True

    # -- search --------------------------------------------------------

    def _verify(self, assignment):
        """Raise :class:`AssertionError` at a source tuple the leaf
        breaks: propagation leaves none, so one is a broken invariant."""
        value = assignment.__getitem__
        for name, columns, allowed in self._checks:
            for scope in zip(*columns):
                if tuple(map(value, scope)) not in allowed:
                    bad = ", ".join(str(self.vars[x]) for x in scope)
                    raise AssertionError(
                        f"search leaf breaks source {name} tuple ({bad})")

    def solve_all(self, budget=DEFAULT_BUDGET, limit=None):
        """Enumerate homomorphisms in canonical order.

        Returns a list of dicts (source element -> target element); with
        ``limit`` stops after that many solutions.
        """
        if limit == 0:
            return []
        masks = list(self._masks)
        if any(m == 0 for m in masks):
            return []
        if not self._propagate(masks):
            return []
        out = self._search(masks, budget, limit)
        return [
            {self.vars[xi]: self.vals[vi] for xi, vi in enumerate(sol)}
            for sol in out
        ]

    def solve(self, budget=DEFAULT_BUDGET):
        """First homomorphism in canonical order, or None."""
        sols = self.solve_all(budget=budget, limit=1)
        return sols[0] if sols else None

    def _search(self, masks, budget, limit):
        """Depth-first search below propagated ``masks``, in place.

        Each change goes on a trail of (variable, old mask) pairs.  The
        stack holds, per open decision, the trail length it branches
        from, the branching variable and the values not yet tried; going
        back to it pops the trail down to that length.  The branching
        variable is the top of a heap of (domain size, variable) entries
        whose size is still the variable's: a successful propagation
        pushes each size it changed, an undo each size it restores, if
        above one, and stale entries are skipped.
        """
        watch = self._watch
        out = []
        spent = 0
        stack = []
        trail = []
        # m & (m - 1) is nonzero when m holds more than one value
        heap = [(m.bit_count(), x) for x, m in enumerate(masks) if m & (m - 1)]
        heapify(heap)
        ok = True
        while True:
            if ok:
                while heap:
                    size, best = heap[0]
                    if masks[best].bit_count() == size:
                        stack.append((len(trail), best, masks[best]))
                        break
                    heappop(heap)
                else:
                    assignment = [m.bit_length() - 1 for m in masks]
                    self._verify(assignment)
                    out.append(tuple(assignment))
                    if len(out) == limit:
                        return out
            if not stack:
                return out
            mark, best, rest = stack[-1]
            if len(trail) > mark:
                for x, m in reversed(trail[mark:]):
                    masks[x] = m
                    if m & (m - 1):
                        heappush(heap, (m.bit_count(), x))
                del trail[mark:]
            if not rest:
                stack.pop()
                ok = False
                continue
            low = rest & -rest
            stack[-1] = (mark, best, rest ^ low)
            if spent >= budget:
                raise BudgetExhausted(budget, spent)
            spent += 1
            trail.append((best, masks[best]))
            masks[best] = low
            ok = self._propagate(masks, watch[best], trail)
            if ok:
                for x, _ in trail[mark + 1:]:
                    m = masks[x]
                    if m & (m - 1):
                        heappush(heap, (m.bit_count(), x))


def find_homomorphism(source, target, pins=None, domains=None,
                      budget=DEFAULT_BUDGET):
    """First homomorphism source -> target honoring pins, or None."""
    return HomInstance(source, target, pins=pins, domains=domains).solve(budget)


def digraph_hom(g, h, pins=None, budget=DEFAULT_BUDGET):
    """First digraph homomorphism g -> h, or None."""
    return find_homomorphism(g.as_structure(), h.as_structure(),
                             pins=pins, budget=budget)


def digraph_hom_exists(g, h, pins=None, budget=DEFAULT_BUDGET):
    return digraph_hom(g, h, pins=pins, budget=budget) is not None
