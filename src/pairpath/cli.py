"""Command-line front end.

Exit status convention: 0 success/pass, 1 verified-negative (invalid plan,
not-path-pairable, internal routing failure), 2 usage or parse errors, or
an input too large for memory, 3 cap-hit/inconclusive.
"""
from __future__ import annotations

import argparse
import sys
from typing import Any

import numpy as np

from . import blowup, formats, pairability, routing, verify
from .graph import (FAMILIES, Graph, GraphError, diameter, first_claims,
                    generate)

# the CLI's families: generate's, plus the blown-cycle construction
_FAMILY_PARAMS = {**FAMILIES, "blown-cycle": ("m",)}
_PARAM_FLAGS = tuple(dict.fromkeys(sum(_FAMILY_PARAMS.values(), ())))


def _add_graph_source(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=sorted(_FAMILY_PARAMS))
    source.add_argument("--graph", metavar="FILE",
                        help="read the graph from FILE")
    sub.add_argument("--format", choices=formats.GRAPH_FORMATS, default="json",
                     help="graph file format (default json)")
    for name in _PARAM_FLAGS:
        sub.add_argument(f"--{name}", type=int)


def _resolve_graph(args) -> tuple[Graph | blowup.BlownCycle,
                                  dict[str, Any]]:
    """Build or load the graph named by --family/--graph; returns annotations
    (the blown-cycle block when applicable) alongside.  A blown cycle comes
    as its BlownCycle, which answers what stats and screen read in closed
    form; commands that need its edges take `_edges` of it."""
    if args.graph is not None:
        return formats.loads_graph(_read(args.graph), args.format)
    wanted = _FAMILY_PARAMS[args.family]
    params = tuple(getattr(args, name) for name in wanted)
    if None in params:
        missing = wanted[params.index(None)]
        raise GraphError(f"family {args.family} needs --{missing}")
    for name in _PARAM_FLAGS:
        if getattr(args, name) is not None and name not in wanted:
            raise GraphError(f"family {args.family} does not take --{name}")
    if args.family == "blown-cycle":
        b = blowup.build(params[0])
        return b, {"blown_cycle": {"m": b.m, "q": b.q}}
    return generate(args.family, params), {}


def _edges(g: Graph | blowup.BlownCycle) -> Graph:
    """The graph itself, with a blown cycle's edge keys written out."""
    return g.graph if isinstance(g, blowup.BlownCycle) else g


def _resolve_blown(args) -> blowup.BlownCycle:
    """Blown cycle for route: either --m or an annotated graph file."""
    if args.graph is None:
        return blowup.build(args.m)
    g, annotations = formats.loads_graph(_read(args.graph))
    block = annotations.get("blown_cycle")
    if not isinstance(block, dict) or "m" not in block:
        raise formats.FormatError(
            "graph file carries no blown-cycle annotation; route only works "
            "on the blown-cycle construction")
    if not formats.is_json_int(block["m"]):
        raise formats.FormatError(
            f'blown-cycle annotation "m" must be an integer, got {block["m"]!r}')
    b = blowup.build(block["m"])
    # g's keys are distinct, so E of them that are all edges of b are b's
    # edges; the closed form checks them, and no second graph is built
    if (g.n != b.n or g.edge_count != b.edge_count
            or not b.has_edges(g.keys).all()):
        raise formats.FormatError(
            "graph file does not match the construction its annotation claims")
    return b


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    g, annotations = _resolve_graph(args)
    _emit(formats.dumps_graph(_edges(g), args.format, annotations or None),
          args.output)
    return 0


def _cmd_route(args) -> int:
    b = _resolve_blown(args)
    extras: dict[str, Any] = {"m": b.m}
    if args.random is not None:
        pairing = routing.random_perfect_pairing(b.n, args.random)
        extras["seed"] = args.random
    else:
        pairing = formats.loads_pairing(_read(args.pairing))
    plan = routing.route(b, pairing)
    _emit(formats.dumps_plan(plan, extras), args.output)
    # the blown cycle has diameter m by construction
    print(f"n {b.n}\ndiameter {b.m}\n"
          f"max_route_length {plan.max_route_length}\n"
          f"edges_used {plan.edges_used}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    text = sys.stdin.read() if args.plan == "-" else _read(args.plan)
    plan, extras = formats.loads_plan(text)
    if args.graph is not None:
        g, _ = formats.loads_graph(_read(args.graph), args.format)
    elif formats.is_json_int(extras.get("m")):
        g = blowup.build(extras["m"])  # edges looked up in closed form
    else:
        raise formats.FormatError(
            "verify needs --graph or a plan with an \"m\" annotation")
    if args.pairing is not None:
        pairing = formats.loads_pairing(_read(args.pairing))
    else:
        # the routes' own pairs in route order, up to the first route whose
        # x or y repeats an earlier end: it and later routes have no pair
        ends = np.stack([plan.x, plan.y], 1)
        order, first = first_claims(ends.ravel())
        cut = int(order[~first].min(initial=len(order))) // 2
        pairing = routing.Pairing(ends[:cut])
    report = verify.verify_plan(g, pairing, plan)
    sys.stdout.write(report.to_json())
    return 0 if report.ok else 1


def _cmd_decide(args) -> int:
    g, _ = _resolve_graph(args)
    verdict = pairability.is_path_pairable(_edges(g), budget=args.budget,
                                           workers=args.workers)
    sys.stdout.write(verdict.to_json())
    if verdict.status == pairability.PATH_PAIRABLE:
        return 0
    if verdict.status == pairability.NOT_PATH_PAIRABLE:
        return 1
    return 3


def _cmd_screen(args) -> int:
    g, _ = _resolve_graph(args)
    report = pairability.screen(g)
    sys.stdout.write(report.to_json())
    return 0 if report.verdict == pairability.CANNOT_RULE_OUT else 1


def _cmd_stats(args) -> int:
    g, _ = _resolve_graph(args)
    d = diameter(g)
    ratio = d / pairability.diameter_upper_bound(g.n)
    print(f"n {g.n}")
    print(f"edges {g.edge_count}")
    print(f"max_degree {g.max_degree}")
    print(f"diameter {d}")
    print(f"diameter_bound_ratio {ratio:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairpath",
        description="Construct, route, verify, decide, and screen "
                    "path-pairable graphs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="emit a named graph family")
    _add_graph_source(p)
    p.add_argument("--output", "-o", metavar="FILE")
    p.set_defaults(func=_cmd_generate)

    p = subs.add_parser("route", help="route a pairing through a blown cycle")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--m", type=int, help="half cycle length")
    source.add_argument("--graph", metavar="FILE",
                        help="graph JSON with a blown_cycle annotation")
    pairs = p.add_mutually_exclusive_group(required=True)
    pairs.add_argument("--pairing", metavar="FILE")
    pairs.add_argument("--random", type=int, metavar="SEED",
                       help="route a seeded uniform random perfect pairing")
    p.add_argument("--output", "-o", metavar="FILE")
    p.set_defaults(func=_cmd_route)

    p = subs.add_parser("verify", help="re-check a route plan")
    p.add_argument("--plan", metavar="FILE", default="-",
                   help="plan JSON (default: stdin)")
    p.add_argument("--graph", metavar="FILE")
    p.add_argument("--format", choices=formats.GRAPH_FORMATS, default="json")
    p.add_argument("--pairing", metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("decide", help="exhaustive path-pairability decision")
    _add_graph_source(p)
    p.add_argument("--budget", type=int, default=pairability.DEFAULT_NODE_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_decide)

    p = subs.add_parser("screen", help="necessary-condition screening")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_screen)

    p = subs.add_parser("stats", help="basic metrics and the diameter ratio")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except routing.RoutingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
