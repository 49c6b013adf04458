"""Command-line front end.

One subcommand per construction: ``build`` (template to gadget digraph),
``forward`` (instance to digraph instance), ``backward`` (digraph
question back to an instance question), plus ``solve``, ``poly``,
``core``, ``lift`` and ``selftest``.  Output is deterministic: identical
inputs and seed give byte-identical bytes.

Exit codes: 0 success, 1 a requested decision came back negative,
2 usage or input error, 3 a resource ran out (the solver's node budget,
or memory), 4 internal error (a broken invariant of the program, never
a negative answer).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import templates
from .algebra import (IdentitySystem, core_of, find_interpretations,
                      operation_to_json, wnu_system)
from .gadget import build_gadget
from .lifting import (LiftInvariantError, UnliftableSystemError,
                      lift_general, verify_lifted_system)
from .reductions import (Definite, amalgamate, backward_reduce,
                         forward_translate, stage3a_from_json,
                         stage3a_to_json)
from .selftest import format_report, run_all
from .solver import DEFAULT_BUDGET, BudgetExhausted, find_homomorphism
from .structures import (Digraph, RelationalStructure, collapsed_signature,
                         digraph_to_dot)


class UsageError(Exception):
    pass


# the most rows ``lift --output`` writes per lifted symbol, and the most
# entries (n^arity over n gadget vertices) ``lift --verify`` checks
MAX_OUTPUT_ROWS = 200_000
MAX_VERIFY_ENTRIES = 10 ** 8


BUILTIN_TEMPLATES = {
    "2cycle": templates.two_cycle,
    "two-cycle": templates.two_cycle,
    "one-element": templates.one_element,
    "parity": templates.parity_template,
    "leq": templates.leq_template,
    "order": templates.leq_template,
    "zigzag": templates.zigzag_digraph_template,
}


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None


def _load_structure(arg):
    """A template/instance argument: a built-in name or a JSON file."""
    if arg in BUILTIN_TEMPLATES:
        return BUILTIN_TEMPLATES[arg]()
    return RelationalStructure.from_json(_read_json(arg))


def _load_digraph(path):
    return Digraph.from_json(_read_json(path))


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text, output):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------
# subcommands


def cmd_build(args):
    gad = build_gadget(_load_structure(args.template))
    if args.format == "dot":
        out = digraph_to_dot(gad.digraph, levels=gad.levels)
    elif args.format == "structure":
        out = _dump(gad.digraph.as_structure().to_json())
    elif args.format == "table":
        out = (f"vertices {gad.digraph.num_vertices()}\n"
               f"edges {gad.digraph.num_edges()}\n"
               f"arity {gad.k}\n"
               f"paths {len(gad.paths)}\n")
    else:
        out = _dump(gad.digraph.to_json())
    _emit(out, args.output)
    return 0


def cmd_forward(args):
    template = _load_structure(args.template)
    instance = _load_structure(args.input)
    fr = forward_translate(instance, template)
    if args.format == "dot":
        out = digraph_to_dot(fr.digraph)
    else:
        out = _dump(fr.digraph.to_json())
    _emit(out, args.output)
    return 0


def cmd_backward(args):
    if args.from_stage3a:
        if args.input or args.format != "structure":
            raise UsageError("--from-stage3a takes no --input and writes "
                             "only --format structure")
        hyperedges, equalities = stage3a_from_json(
            _read_json(args.from_stage3a))
        if args.template:
            name, k = collapsed_signature(_load_structure(args.template))
            res = amalgamate(hyperedges, equalities,
                             relation_name=name, arity=k)
        else:
            res = amalgamate(hyperedges, equalities)
        _emit(_dump(res.structure.to_json()), args.output)
        return 0
    if not args.template or not args.input:
        raise UsageError("backward needs a template and --input, "
                         "or --from-stage3a")
    template = _load_structure(args.template)
    g = _load_digraph(args.input)
    out = backward_reduce(g, template, budget=args.budget)
    if isinstance(out, Definite):
        print("YES" if out.answer else "NO")
        print(out.reason)
        return 0 if out.answer else 1
    if args.format == "stage3a":
        text = _dump(stage3a_to_json(out.hyperedges, out.equalities))
    elif args.format == "table":
        text = (f"variables {len(out.instance.domain)}\n"
                f"constraints {len(out.instance.relations[0].columns[0])}\n"
                f"components {len(out.components)}\n")
    else:
        text = _dump(out.instance.to_json())
    _emit(text, args.output)
    return 0


def cmd_solve(args):
    target = _load_structure(args.target)
    instance = _load_structure(args.input)
    hom = find_homomorphism(instance, target, budget=args.budget)
    if hom is None:
        print("NO")
        return 1
    _emit(_dump({str(k): hom[k] for k in sorted(hom)}), args.output)
    return 0


def _system_from_args(args):
    if args.wnu is not None:
        if args.wnu < 3:
            raise UsageError("--wnu needs arity at least 3")
        return wnu_system(args.wnu)
    try:
        with open(args.identities) as fh:
            return IdentitySystem.parse(fh.read())
    except OSError as exc:
        raise UsageError(
            f"cannot read {args.identities}: {exc.strerror}") from None


def cmd_poly(args):
    template = _load_structure(args.template)
    system = _system_from_args(args)
    interp = find_interpretations(template, system, budget=args.budget)
    if interp is None:
        print("none")
        return 1
    _emit(_dump({s: operation_to_json(t) for s, t in interp.items()}),
          args.output)
    return 0


def cmd_core(args):
    template = _load_structure(args.template)
    res = core_of(template, budget=args.budget)
    if args.output:
        _emit(_dump(res.core.to_json()), args.output)
    if len(res.core.domain) == len(template.domain):
        print("core")
        return 0
    print(f"not core; retracts to {len(res.core.domain)} elements")
    return 1


def cmd_lift(args):
    template = _load_structure(args.template)
    system = _system_from_args(args)
    gad = build_gadget(template)
    interp = find_interpretations(template, system, budget=args.budget)
    if interp is None:
        print("none")
        return 1
    try:
        lifted = lift_general(gad, system, interp, budget=args.budget)
    except UnliftableSystemError as exc:
        print(f"unliftable: {exc}")
        return 1
    n = gad.digraph.num_vertices()
    for s, op in sorted(lifted.items()):
        if args.output and n ** op.arity > MAX_OUTPUT_ROWS:
            raise UsageError(
                f"materializing {s} needs {n ** op.arity} rows; "
                "drop --output for a summary only")
        if args.verify and n ** op.arity > MAX_VERIFY_ENTRIES:
            raise UsageError(
                f"verifying {s} reads {n ** op.arity} entries "
                f"(bound {MAX_VERIFY_ENTRIES}); drop --verify")
    for s in sorted(lifted):
        print(f"lifted {s} (arity {lifted[s].arity}) to {n} vertices")
    if args.verify:
        ok, why = verify_lifted_system(gad, lifted, system)
        if not ok:
            raise LiftInvariantError(f"verification failed: {why}")
        print("verified")
    if args.output:
        _emit(_dump({s: operation_to_json(op) for s, op in lifted.items()}),
              args.output)
    return 0


def cmd_selftest(args):
    records = run_all(seed=args.seed)
    print(format_report(records))
    return 0 if all(r["passed"] for r in records) else 1


# ---------------------------------------------------------------------
# argument wiring


def _parser():
    p = argparse.ArgumentParser(
        prog="dgcsp",
        description="gadget reductions between constraint templates and "
                    "balanced digraphs")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, budget=True, output=True):
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="solver node budget")
        if output:
            sp.add_argument("--output", metavar="PATH",
                            help="write the result here instead of stdout")

    sp = sub.add_parser("build", help="gadget digraph of a template")
    sp.add_argument("template", help="template file or built-in name")
    sp.add_argument("--format", choices=("digraph", "dot", "structure",
                                         "table"), default="digraph")
    common(sp, budget=False)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("forward", help="compile an instance to a digraph")
    sp.add_argument("template")
    sp.add_argument("--input", required=True, metavar="INSTANCE")
    sp.add_argument("--format", choices=("digraph", "dot"), default="digraph")
    common(sp, budget=False)
    sp.set_defaults(fn=cmd_forward)

    sp = sub.add_parser("backward",
                        help="reduce a digraph question to an instance")
    sp.add_argument("template", nargs="?")
    sp.add_argument("--input", metavar="DIGRAPH")
    sp.add_argument("--from-stage3a", metavar="PATH",
                    help="amalgamate a hyperedge/equality file instead")
    sp.add_argument("--format", choices=("structure", "stage3a", "table"),
                    default="structure")
    common(sp)
    sp.set_defaults(fn=cmd_backward)

    sp = sub.add_parser("solve", help="find a homomorphism to a target")
    sp.add_argument("target")
    sp.add_argument("--input", required=True, metavar="INSTANCE")
    common(sp)
    sp.set_defaults(fn=cmd_solve)

    def identity_flags(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--wnu", type=int, metavar="M",
                       help="weak near-unanimity of this arity")
        g.add_argument("--identities", metavar="PATH",
                       help="linear identity system file")

    sp = sub.add_parser("poly", help="search for polymorphisms")
    sp.add_argument("template")
    identity_flags(sp)
    common(sp)
    sp.set_defaults(fn=cmd_poly)

    sp = sub.add_parser("core", help="core of a template")
    sp.add_argument("template")
    common(sp)
    sp.set_defaults(fn=cmd_core)

    sp = sub.add_parser("lift", help="lift polymorphisms to the gadget")
    sp.add_argument("template")
    identity_flags(sp)
    sp.add_argument("--verify", action="store_true",
                    help="exhaustively re-check the lifted operations")
    common(sp)
    sp.set_defaults(fn=cmd_lift)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "budget", 0) < 0:
            raise UsageError(f"--budget must be at least 0, not {args.budget}")
        return args.fn(args)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc!r}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LiftInvariantError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
