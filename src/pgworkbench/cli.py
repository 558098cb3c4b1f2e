"""Command line front end.

Verbs: space, blocking, color, solve, verify, bounds, run, recheck.
All machine-readable output is canonical JSON (sorted keys, no floats).
"""

from __future__ import annotations

import argparse
import sys

from .blocking import BlockingError, WeightedPointSet
from .certificates import (_all_ints, blocking_set_certificate, bounds_certificate,
                           canonical_json, coloring_certificate, load_certificate, recheck,
                           tmodp_certificate, transversal_certificate, write_certificate)
from .coloring import Coloring, is_proper, is_trivial_coloring, trivial_coloring
from .experiments import ExperimentConfig, default_grid, run_experiments
from .geometry import (ProjectiveSpace, count_subspaces, hypergraph_from_file,
                       hypergraph_to_file, load_json)
from .solvers import bounds_report, exact_tau, exact_ucn, verify_tmodp_theorem


def _emit(data):
    print(canonical_json(data))


def cmd_space(args):
    space = ProjectiveSpace.of_order(args.n, args.q)
    info = {"n": args.n, "q": args.q, "field": space.field.descriptor(),
            "num_points": space.num_points,
            "subspace_counts": {str(m): count_subspaces(args.n, m, args.q)
                                for m in range(args.n + 1)}}
    if args.export_hypergraph:
        hypergraph_to_file(space.hypergraph(args.k), args.export_hypergraph)
        info["exported"] = args.export_hypergraph
    _emit(info)
    return 0


def cmd_blocking(args):
    space = ProjectiveSpace.of_order(args.n, args.q)
    weights = load_json(args.weights)
    # the rule recheck applies to a blocking_set certificate's weights
    if not isinstance(weights, list) or not _all_ints(weights):
        raise BlockingError("the weights file must hold a JSON list of integers")
    B = WeightedPointSet(space, weights)
    cert = blocking_set_certificate(B, args.t, args.k)
    if args.out:
        write_certificate(cert, args.out)
    claims = cert["payload"]["claims"]
    _emit({"size": B.size, "claims": claims})
    return 0 if claims[0]["verified"] else 1


def cmd_color(args):
    flag = "transversal" if args.mode == "trivialize" else "coloring"
    if getattr(args, flag) is None:
        raise ValueError(f"--mode {args.mode} needs --{flag}")
    H = hypergraph_from_file(args.hypergraph)
    data = load_json(getattr(args, flag))
    if args.mode == "trivialize":
        _emit(trivial_coloring(data, H).to_json())
        return 0
    coloring = Coloring.from_json(data)
    proper, edge = is_proper(coloring, H)
    out = {"N": coloring.N, "proper": proper}
    if args.mode == "analyze":
        trivial, cls = is_trivial_coloring(coloring, H)
        out.update({"trivial": trivial, "witness_class": cls})
    _emit(out)
    return 0 if proper else 1


def cmd_solve(args):
    H = hypergraph_from_file(args.hypergraph)
    if args.problem == "tau":
        res = exact_tau(H, args.t)
        out = {"problem": "tau", "t": args.t, "witness": list(res.witness)}
        if args.out:
            write_certificate(transversal_certificate(H, args.t, res), args.out)
    else:
        res = exact_ucn(H)
        out = {"problem": "ucn", "witness": list(res.witness.assignment)}
        if args.out:
            write_certificate(coloring_certificate(H, res.witness), args.out)
    # a bound_only answer has no objective; its bounds give the interval
    out.update(objective=res.objective, status=res.status, nodes=res.nodes,
               lower_bound=res.lower_bound, upper_bound=res.upper_bound)
    _emit(out)
    return 0


def cmd_verify(args):
    rep = verify_tmodp_theorem(args.p, args.t, max_size=args.max_size)
    if args.out:
        write_certificate(tmodp_certificate(rep), args.out)
    _emit({"p": rep.p, "t": rep.t, "max_size": rep.max_size,
           "kernel_dim": rep.kernel_dim,
           "num_solution_classes": rep.num_solution_classes,
           "num_found": rep.num_found, "num_unions": rep.num_unions,
           "exhaustive": rep.exhaustive, "verified": rep.verified,
           "violations": rep.violations})
    return 0 if rep.verified else 1


def cmd_bounds(args):
    rep = bounds_report(args.n, args.k, args.q, args.t)
    if args.out:
        write_certificate(bounds_certificate(rep), args.out)
    _emit(rep.to_json())
    return 0


def cmd_run(args):
    grid = default_grid()
    if args.config:
        data = load_json(args.config)
        grid = data.get("grid") if isinstance(data, dict) else None
        if not isinstance(grid, list):
            raise ValueError("the config file must hold a JSON object whose 'grid' is a list")
    config = ExperimentConfig(grid=grid, outdir=args.out)
    rows, ok = run_experiments(config)
    for row in rows:
        print(f"RESULT {row.instance} {row.quantity} value={row.value} "
              f"expected={row.expected} match={row.match}")
    return 0 if ok else 1


def cmd_recheck(args):
    try:
        cert = load_certificate(args.certificate)
    except (OSError, ValueError) as exc:
        print(f"VERDICT false malformed: {exc}")
        return 1
    ok, detail = recheck(cert)
    print(f"VERDICT {'true' if ok else 'false'} {detail}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="pgws",
                                     description="Finite projective space workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="enumerate PG(n,q) and export hypergraphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--export-hypergraph", metavar="FILE")
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("blocking", help="verify blocking-set claims for a weight file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--weights", required=True, help="JSON array of point weights")
    p.add_argument("--out", help="certificate output file")
    p.set_defaults(func=cmd_blocking)

    p = sub.add_parser("color", help="verify or analyze colorings")
    p.add_argument("--mode", choices=["verify", "trivialize", "analyze"], default="verify")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--coloring", help="JSON coloring file (verify/analyze)")
    p.add_argument("--transversal", help="JSON point list (trivialize)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("solve", help="exact tau / UCN")
    p.add_argument("problem", choices=["tau", "ucn"])
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--out", help="certificate output file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="theorem verification drivers")
    p.add_argument("target", choices=["tmodp"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-size", type=int)
    p.add_argument("--out", help="certificate output file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="bound formulas and applicability flags")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--out", help="certificate output file")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("run", help="run an experiment grid")
    p.add_argument("--config", help="JSON file with a 'grid' list")
    p.add_argument("--out", default="certificates")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("recheck", help="re-verify a certificate without solving")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_recheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
