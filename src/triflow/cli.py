"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 domain refusal (unprotectable
network, failed verification, failed decode, generation failure).
"""

from __future__ import annotations

import argparse
import sys

from . import files
from .conditioning import (FeasibilityKind, classify_feasibility,
                           derive_coding_capacities)
from .decompose import decompose
from .errors import GenerationFailed, TriflowError, Unprotectable
from .netgen import GenParams, Structure, generate
from .plan import LABELS
from .simulate import Generation, failure_sweep, simulate_transmission
from .verify import verify_plan

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUSED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, not refusals
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triflow",
                     description="Protect a unicast connection against any single "
                                 "link failure by routing A, B and A xor B on three "
                                 "arc-disjoint subflows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a network's protectability")
    p.add_argument("network")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("decompose", help="compute a protection plan")
    p.add_argument("network")
    p.add_argument("-o", "--out", required=True, help="plan file to write")
    p.add_argument("--dot", help="also write a Graphviz rendering")

    p = sub.add_parser("verify", help="re-verify a plan against a network")
    p.add_argument("network")
    p.add_argument("plan")

    p = sub.add_parser("simulate", help="send payloads through a plan")
    p.add_argument("network")
    p.add_argument("plan")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fail", metavar="EDGE", help="fail one edge")
    group.add_argument("--sweep", action="store_true",
                       help="fail every edge in turn")
    p.add_argument("--payload-a", required=True,
                   help="hex string, or @FILE to read raw bytes")
    p.add_argument("--payload-b", required=True,
                   help="hex string, or @FILE to read raw bytes")
    p.add_argument("--seq", type=int, default=0, help="generation number")

    p = sub.add_parser("gen", help="generate a test network")
    p.add_argument("--structure", choices=[s.value for s in Structure],
                   default=Structure.LADDER.value)
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", choices=[k.value for k in FeasibilityKind],
                   help="rejection-sample until this class comes out")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    return parser


def _payload(raw: str) -> bytes:
    if raw.startswith("@"):
        with open(raw[1:], "rb") as fh:
            return fh.read()
    try:
        return bytes.fromhex(raw)
    except ValueError as exc:
        raise files.FormatError(f"payload is not valid hex: {raw!r}") from exc


def _edge_id(net, raw: str):
    if net.graph.has_edge(raw):
        return raw
    try:
        as_int = int(raw)
    except ValueError:
        as_int = None
    if as_int is not None and net.graph.has_edge(as_int):
        return as_int
    raise files.FormatError(f"unknown edge {raw!r}")


def _cmd_analyze(args) -> int:
    net = files.load_network(args.network)
    feas = classify_feasibility(derive_coding_capacities(net))
    reduced = feas.reduced_value / 2
    if args.json:
        print(files.dumps({"class": feas.kind.value,
                           "reduced_max_flow": reduced,
                           "protectable": feas.protectable}), end="")
    else:
        print(f"{feas.kind.value} (reduced max flow {reduced:g})")
    return EXIT_OK if feas.protectable else EXIT_REFUSED


def _cmd_decompose(args) -> int:
    net = files.load_network(args.network)
    try:
        plan = decompose(net)
    except Unprotectable as exc:
        print(f"unprotectable: {exc.feasibility.kind.value}", file=sys.stderr)
        return EXIT_REFUSED
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(files.dumps(files.plan_to_json(plan)))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(files.plan_to_dot(net, plan))
    used = sum(len(plan.subflows.ints[label]) for label in LABELS)
    print(f"{plan.feasibility.kind.value}: plan written to {args.out} "
          f"({used} arcs, {len(plan.roles)} relay roles)")
    return EXIT_OK


def _print_violations(report, file=None):
    for v in report.violations:
        print(f"violation[{v.kind}]: {v.detail}", file=file)


def _cmd_verify(args) -> int:
    net = files.load_network(args.network)
    plan = files.load_plan(args.plan, net)
    report = verify_plan(derive_coding_capacities(net), plan)
    worst = min((len(v) for v in report.survivability.values()), default=0)
    print(f"disjoint={report.disjointness_ok} capacity={report.capacity_ok} "
          f"connected={all(report.connectivity.values())} "
          f"min_survivors={worst} overall={report.overall}")
    _print_violations(report)
    return EXIT_OK if report.overall else EXIT_REFUSED


def _cmd_simulate(args) -> int:
    net = files.load_network(args.network)
    plan = files.load_plan(args.plan, net)
    cn = derive_coding_capacities(net)
    gen = Generation(seq=args.seq, payload_a=_payload(args.payload_a),
                     payload_b=_payload(args.payload_b))
    want = (gen.payload_a, gen.payload_b)
    failed = None if args.sweep else _edge_id(net, args.fail)
    report = verify_plan(cn, plan)  # builds the route index the simulation reads
    if not report.overall:
        _print_violations(report, sys.stderr)
        print("refused: plan fails verification", file=sys.stderr)
        return EXIT_REFUSED
    if args.sweep:
        outcomes = failure_sweep(cn, plan, gen)  # in the graph's edge order
        good = sum(1 for o in outcomes.values() if o.decoded == want)
        for edge, o in outcomes.items():
            status = "decoded" if o.decoded == want else "LOST"
            via = "+".join(o.recovered_via) if o.recovered_via else "-"
            print(f"fail {edge}: {status} via {via} "
                  f"(received {','.join(sorted(o.received_labels)) or 'none'})")
        print(f"{good}/{len(outcomes)} failures decoded")
        return EXIT_OK if good == len(outcomes) else EXIT_REFUSED
    outcome = simulate_transmission(cn, plan, gen, failed_edge=failed)
    if outcome.decoded is None:
        print(f"fail {failed}: LOST (received "
              f"{','.join(sorted(outcome.received_labels)) or 'none'})")
        return EXIT_REFUSED
    a, b = outcome.decoded
    via = "+".join(outcome.recovered_via)
    print(f"fail {failed}: decoded via {via}: a={a.hex()} b={b.hex()}")
    return EXIT_OK if (a, b) == want else EXIT_REFUSED


def _cmd_gen(args) -> int:
    try:
        params = GenParams(
            node_count=args.nodes,
            seed=args.seed,
            structure=Structure(args.structure),
            target_class=FeasibilityKind(args.target) if args.target else None,
        )
    except ValueError as exc:  # an out-of-range --nodes
        raise TriflowError(str(exc)) from exc
    net = generate(params)
    text = files.dumps(files.network_to_json(net))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except GenerationFailed as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (TriflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
