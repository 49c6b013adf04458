"""Layer spans for the traced run, recorded from outside the program.

The tracer wraps public functions and methods of ``dgcsp`` modules in
place after each fresh import; nothing under ``src/`` knows about it.
Each call becomes a span (name, start, end, parent, item id) and its
self time (duration minus the time its child spans cover) is summed per
name as it closes.  Calls of the memoized lifted operation run millions
of times per item, so they are summed but not kept as spans.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute path); several paths may share a name
TARGETS = [
    ("structures.Digraph.induced", "structures", "Digraph.induced"),
    ("structures.Digraph.weak_components", "structures",
     "Digraph.weak_components"),
    ("structures.Digraph.as_structure", "structures", "Digraph.as_structure"),
    ("structures.from_json", "structures", "RelationalStructure.from_json"),
    ("structures.from_json", "structures", "Digraph.from_json"),
    ("structures.collapse_to_single_relation", "structures",
     "collapse_to_single_relation"),
    ("gadget.build_gadget", "gadget", "build_gadget"),
    ("solver.HomInstance.init", "solver", "HomInstance.__init__"),
    ("solver.HomInstance.solve", "solver", "HomInstance.solve_all"),
    ("reductions.forward_translate", "reductions", "forward_translate"),
    ("reductions.compute_levels", "reductions", "compute_levels"),
    ("reductions.internal_components", "reductions", "internal_components"),
    ("reductions.forced_positions", "reductions", "forced_positions"),
    ("reductions.extract_hyperedges", "reductions", "extract_hyperedges"),
    ("reductions.amalgamate", "reductions", "amalgamate"),
    ("reductions.backward_reduce", "reductions", "backward_reduce"),
    ("algebra.find_interpretations", "algebra", "find_interpretations"),
    ("algebra.check_identities", "algebra", "check_identities"),
    ("algebra.OperationTable.polymorphism_failure", "algebra",
     "OperationTable.polymorphism_failure"),
    ("lifting.lift", "lifting", "lift_wnu"),
    ("lifting.lift", "lifting", "lift_general"),
    ("lifting.verify_lifted_system", "lifting", "verify_lifted_system"),
    ("lifting.polymorphism_failure_on_digraph", "lifting",
     "polymorphism_failure_on_digraph"),
    ("lifting.LiftedOperation.call", "lifting", "LiftedOperation.__call__"),
]

UNKEPT = {"lifting.LiftedOperation.call"}


def _count_constraints(tracer, args, kwargs, result):
    tracer.counts["solver.constraints"] += len(args[0].constraints)


def _count_pieces(tracer, args, kwargs, result):
    tracer.counts["reductions.pieces"] += len(result)


def _count_hyperedges(tracer, args, kwargs, result):
    tracer.counts["reductions.hyperedges"] += len(result[0])


def _count_reduced(tracer, args, kwargs, result):
    if hasattr(result, "instance"):
        tracer.counts["reductions.reduced_variables"] += \
            len(result.instance.domain)


def _count_indicators(tracer, args, kwargs, result):
    structure, system = args[0], args[1]
    tracer.counts["algebra.indicator_variables"] += sum(
        len(structure.domain) ** ar for ar in system.symbols.values())


def _keep_lifted(tracer, args, kwargs, result):
    ops = result.values() if isinstance(result, dict) else [result]
    tracer.lifted_ops.extend(ops)


AFTER = {
    "solver.HomInstance.init": _count_constraints,
    "reductions.internal_components": _count_pieces,
    "reductions.extract_hyperedges": _count_hyperedges,
    "reductions.backward_reduce": _count_reduced,
    "algebra.find_interpretations": _count_indicators,
    "lifting.lift": _keep_lifted,
}


class Tracer:
    """Spans and per-name totals of one traced phase."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.active = False
        self.in_item = False
        self.lifted_ops = []
        self._stack = []
        self._ids = 0
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.covered = 0.0

    def totals(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def begin_item(self, item, in_item=True):
        """Trace calls from now on, under this item id; ``in_item`` says
        whether their time counts as item time covered by spans."""
        self.item = item
        self.active = True
        self.in_item = in_item

    def end_item(self):
        """Stop tracing (checks of the output are not traced), fold the
        case counts of the item's lifted operations into
        ``lifting.evaluations`` and drop them, with their memos."""
        self.active = False
        for op in self.lifted_ops:
            self.counts["lifting.evaluations"] += sum(op.case_counts.values())
        self.lifted_ops = []

    def wrap(self, name, fn):
        tracer = self
        keep = name not in UNKEPT
        after = AFTER.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._ids += 1
            frame = [tracer._ids, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                tracer.self_s[name] += took - frame[1]
                tracer.calls[name] += 1
                if parent is None:
                    if tracer.in_item:
                        tracer.covered += took
                else:
                    parent[1] += took
                if keep:
                    spans.append((frame[0], name, start, end,
                                  parent[0] if parent else None, tracer.item))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every target in a freshly imported ``dgcsp`` package.

        Functions are replaced under every module-level name bound to
        them, so calls between modules go through the wrapper too.
        """
        modules = [m for m in vars(package).values() if inspect.ismodule(m)]
        modules.append(package)
        for name, modname, path in TARGETS:
            module = getattr(package, modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
                continue
            orig = getattr(module, path)
            traced = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)


def span_names():
    return list(dict.fromkeys(name for name, _, _ in TARGETS))
