"""Backtracking homomorphism solver with per-constraint filtering.

Finds homomorphisms from a source structure to a target structure over
the same signature.  Domains are bitmasks over target elements; before
every branching decision each constraint is filtered to the values that
still have a supporting target tuple, to a fixpoint.  Search order is
deterministic: smallest domain first (ties by variable position), values
in target order.

Support is precomputed once per target relation and shared by every
constraint on it.  For a binary relation each value has a bitmask of its
in-neighbours and one of its out-neighbours, and a memo per direction
maps a domain mask to the union of its values' neighbour masks, so a
binary revision is two mask lookups and two ANDs.  Other arities scan
the relation's tuples.  A leaf is checked against the relation's tuple
set before it is reported.

Every value assignment tried counts against a node budget; running out
raises :class:`BudgetExhausted`, which callers must treat as a distinct
outcome, never as "no".
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The tuples of one target relation as value indices, and for a
    binary relation the neighbour masks and their memos."""

    def __init__(self, tuples, arity, nvals):
        self.tuples = tuple(tuples)
        self.tuple_set = frozenset(self.tuples)
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


@dataclass
class _Constraint:
    scope: tuple[int, ...]          # variable positions
    support: _Support               # the target relation it ranges over


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

        self.constraints = []
        for r in source.relations:
            support = _Support(
                (tuple(target.index(x) for x in t)
                 for t in target.relation(r.name).tuples), r.arity, nvals)
            for st in r.tuples:
                scope = tuple(source.index(x) for x in st)
                self.constraints.append(_Constraint(scope, support))

        # which constraints watch each variable
        self._watch = [[] for _ in self.vars]
        for ci, c in enumerate(self.constraints):
            for xi in set(c.scope):
                self._watch[xi].append(ci)

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

    def _filter_constraint(self, masks, c):
        """Keep only values with a supporting tuple; None on wipeout.

        Returns the set of variable positions whose mask shrank.  Each
        position's support is taken from the masks as they were on entry.
        """
        scope = c.scope
        if len(scope) == 2:
            x0, x1 = scope
            support = {x0: 0, x1: 0}
            support[x0] |= c.support.project(0, masks[x1])
            support[x1] |= c.support.project(1, masks[x0])
        else:
            support = dict.fromkeys(scope, 0)
            for t in c.support.tuples:
                ok = True
                for xi, vi in zip(scope, t):
                    if not (masks[xi] >> vi) & 1:
                        ok = False
                        break
                if ok:
                    for xi, vi in zip(scope, t):
                        support[xi] |= 1 << vi
        changed = set()
        for xi, sup in support.items():
            new = masks[xi] & sup
            if new != masks[xi]:
                if new == 0:
                    return None
                masks[xi] = new
                changed.add(xi)
        return changed

    def _propagate(self, masks, queue=None):
        """Filter all constraints to a fixpoint; False on wipeout."""
        if queue is None:
            pending = set(range(len(self.constraints)))
        else:
            pending = set(queue)
        while pending:
            ci = pending.pop()
            changed = self._filter_constraint(masks, self.constraints[ci])
            if changed is None:
                return False
            for xi in changed:
                for cj in self._watch[xi]:
                    if cj != ci:
                        pending.add(cj)
        return True

    # -- search --------------------------------------------------------

    def _verify(self, assignment):
        for c in self.constraints:
            t = tuple(assignment[xi] for xi in c.scope)
            if t not in c.support.tuple_set:
                return False
        return True

    def solve_all(self, budget=DEFAULT_BUDGET, limit=None):
        """Enumerate homomorphisms in canonical order.

        Returns a list of dicts (source element -> target element); with
        ``limit`` stops after that many solutions.
        """
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
        """Depth-first search below propagated ``masks``.

        The stack holds, per open decision, the masks it branches from,
        the branching variable and the values not yet tried.
        """
        out = []
        spent = 0
        stack = []
        node = masks
        while True:
            if node is not None:
                # branch on the unassigned variable with the smallest domain
                best = -1
                best_size = None
                for xi, m in enumerate(node):
                    size = m.bit_count()
                    if size > 1 and (best_size is None or size < best_size):
                        best, best_size = xi, size
                if best < 0:
                    assignment = [m.bit_length() - 1 for m in node]
                    if self._verify(assignment):
                        out.append(tuple(assignment))
                    if len(out) == limit:
                        return out
                else:
                    stack.append((node, best, node[best]))
            if not stack:
                return out
            parent, best, rest = stack[-1]
            if not rest:
                stack.pop()
                node = None
                continue
            low = rest & -rest
            stack[-1] = (parent, best, rest ^ low)
            if spent >= budget:
                raise BudgetExhausted(budget, spent)
            spent += 1
            node = list(parent)
            node[best] = low
            if not self._propagate(node, self._watch[best]):
                node = None


def find_homomorphism(source, target, pins=None, domains=None,
                      budget=DEFAULT_BUDGET):
    """First homomorphism source -> target honoring pins, or None."""
    return HomInstance(source, target, pins=pins, domains=domains).solve(budget)


def count_homomorphisms(source, target, pins=None, domains=None,
                        budget=DEFAULT_BUDGET):
    inst = HomInstance(source, target, pins=pins, domains=domains)
    return len(inst.solve_all(budget=budget))


def enumerate_homomorphisms(source, target, pins=None, domains=None,
                            budget=DEFAULT_BUDGET, limit=None):
    inst = HomInstance(source, target, pins=pins, domains=domains)
    return inst.solve_all(budget=budget, limit=limit)


def digraph_hom(g, h, pins=None, domains=None, budget=DEFAULT_BUDGET):
    """First digraph homomorphism g -> h, or None."""
    return find_homomorphism(g.as_structure(), h.as_structure(),
                             pins=pins, domains=domains, budget=budget)


def digraph_hom_exists(g, h, pins=None, budget=DEFAULT_BUDGET):
    return digraph_hom(g, h, pins=pins, budget=budget) is not None
