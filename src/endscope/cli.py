"""Command-line front end.

Subcommands: analyze, coxeter, graph-product, cayley, tower, explain.
Exit codes: 0 success, otherwise the `exit_code` of the EndscopeError raised:
2 input error, 3 contradiction detected (ContradictionError), 4 element cap
exceeded (MemoryCapExceededError) or Coxeter key width exceeded
(KeyWidthExceededError).  Any other exception is a fault in
endscope: it propagates, and the interpreter exits 1 with its traceback.  A
reader that closes standard output before the output is written (`endscope
... | head -c 0`) makes `main` exit 1 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from .atoms import PropertyAtom
from .cayley import DEFAULT_ELEMENT_CAP, build_ball, estimate_ends, oracle_from_spec
from .coxeter import CoxeterSystem, coxeter_ends
from .errors import ContradictionError, EndscopeError
from .inference import explain, infer
from .model import Artin, Coxeter, GraphProduct, parse_document
from .report import (
    analysis_report,
    contradiction_report,
    coxeter_section,
    dumps,
    envelope,
    graph_product_section,
    render_dot,
)
from .towers import lim1_report, ml_check_window, ml_decide_constant, parse_tower

def _emit(payload):
    sys.stdout.write(dumps(payload) + "\n")


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise EndscopeError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise EndscopeError(str(exc)) from None


def _write(path, text):
    # Rewrite in place and cut a longer old file only afterwards: on a file
    # truncated to 0 bytes and rewritten, as mode "w" does, ext4 starts
    # writeback of the new blocks at close, tens of ms when the disk is busy.
    data = text.encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            old = os.fstat(fh.fileno())
            fh.write(data)
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
                fh.truncate(len(data))
    except OSError as exc:
        raise EndscopeError(f"cannot write {path}: {exc.strerror}")


def _load(args, kind=None):
    """(text, registry, expr): the document `args.file` and its group
    `args.group`, which must be a `kind` description when one is given."""
    text = _read(args.file)
    registry = parse_document(text)
    if args.group not in registry.groups:
        raise EndscopeError(f"group {args.group!r} not declared")
    expr = registry.groups[args.group]
    if kind is not None and not isinstance(expr, kind):
        raise EndscopeError(f"group {args.group!r} is not a {kind.__name__} description")
    return text, registry, expr


def cmd_analyze(args):
    text = _read(args.file)
    registry = parse_document(text)
    _emit(analysis_report(registry, text))


def cmd_coxeter(args):
    text, _, expr = _load(args, Coxeter)
    ends = coxeter_ends(CoxeterSystem(expr.diagram))
    _emit(envelope(text, [coxeter_section(args.group, ends)]))


def cmd_graph_product(args):
    text, registry, _ = _load(args, GraphProduct)
    section, warnings = graph_product_section(args.group, infer(registry).decided[args.group])
    _emit(envelope(text, [section], warnings))


def cmd_cayley(args):
    oracle = oracle_from_spec(args.oracle)
    ball = build_ball(oracle, args.radius, element_cap=args.element_cap)
    sections = [{
        "type": "ball",
        "oracle": args.oracle,
        "radius": ball.radius,
        "elements": len(ball.order),
        "exhausted": ball.exhausted,
        "sphere_sizes": [len(ball.sphere(d)) for d in range(ball.radius + 1)],
    }]
    warnings = []
    if args.window:
        a, b = args.window
        estimate = estimate_ends(ball, a, b)
        sections.append({"type": "end_estimate", **estimate.as_dict()})
        warnings.append({
            "kind": "heuristic_verdict",
            "detail": "finite-radius estimate; unbounded components are"
                      " approximated by outer-sphere contact",
        })
    if args.dot:
        _write(args.dot, render_dot(ball))
    _emit(envelope(args.oracle, sections, warnings))


def cmd_tower(args):
    text = _read(args.file)
    tower = parse_tower(text)
    if tower.constant:
        verdict = ml_decide_constant(tower.ranks[0], tower.bondings[0])
        window = None
    else:
        n = len(tower.bondings)
        _, verdict = ml_check_window(tower, 1, n)
        window = n
    section = {
        "type": "tower",
        "constant": tower.constant,
        "window": window,
        "verdict": verdict._asdict(),
        "lim1": lim1_report(verdict),
    }
    _emit(envelope(text, [section], [] if tower.constant else [{
        "kind": "finite_window",
        "detail": "explicit towers are judged on a finite window only",
    }]))


def cmd_explain(args):
    _, registry, _ = _load(args)
    try:
        atom = PropertyAtom(args.atom)
    except ValueError:
        raise EndscopeError(f"unknown property atom {args.atom!r}")
    facts = infer(registry)
    sys.stdout.write(explain(facts, args.group, atom, holds=not args.negated) + "\n")


def cmd_dot(args):
    _, _, expr = _load(args)
    if isinstance(expr, (Coxeter, Artin)):
        sys.stdout.write(render_dot(expr.diagram))
    elif isinstance(expr, GraphProduct):
        sys.stdout.write(render_dot(expr.graph))
    else:
        raise EndscopeError(f"group {args.group!r} has no diagram")


@functools.cache  # parse_args keeps no state between calls
def build_parser():
    parser = argparse.ArgumentParser(
        prog="endscope",
        description="Deciders, estimators and certified inference for"
                    " behavior-at-infinity invariants of groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a group description file")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coxeter", help="finite type and end count of a Coxeter group")
    p.add_argument("file")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_coxeter)

    p = sub.add_parser("graph-product", help="ends and semistability of a graph product")
    p.add_argument("file")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_graph_product)

    p = sub.add_parser("cayley", help="Cayley ball construction and end estimate")
    p.add_argument("--oracle", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--window", type=int, nargs=2, metavar=("A", "B"))
    p.add_argument("--dot", help="write the ball as DOT to this path")
    p.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP)
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("tower", help="Mittag-Leffler verdict for an abelian tower")
    p.add_argument("file")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("explain", help="derivation tree for one derived fact")
    p.add_argument("file")
    p.add_argument("--group", required=True)
    p.add_argument("--atom", required=True)
    p.add_argument("--negated", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("dot", help="DOT export of a declared diagram")
    p.add_argument("file")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_dot)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EndscopeError.exit_code if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except EndscopeError as exc:
        if isinstance(exc, ContradictionError):
            _emit(contradiction_report(exc))
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    return 0


def main():
    try:
        code = run()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
