"""Command-line front end.

Subcommands
    analyze    deficiency/path/variance curves plus threshold summary
    sample     draw a Poisson(beta) hypergraph to a file
    collapse   collapse a hypergraph file, write the outcome as JSON
    chain      run reduced-chain replicas at one vertex count
    sweep      run a JSON-configured experiment over several vertex counts
    critical   bisect the family parameter to the tangency of the dip
    zdist      sample the limiting identified fraction at a tangency

All outputs are CSV or JSON with floats at 17 significant digits; every
command is reproducible from its flags and seed.  Exit codes: 0 success,
2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import chain as chain_mod
from . import hypergraph as hg
from . import montecarlo as mc
from .fluid import (FluidModel, CURVE_COLUMNS, limit_fractions,
                    patch_overlap_average, sample_limit_fraction)
from .series import (BetaSeries, CriticalStructure, critical_alpha,
                     critical_structure, from_binomial_family, resolve_model)
from .serialize import write_csv, write_json

_BETA_HELP = "comma-separated coefficients b0,b1,..."


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--beta", help=_BETA_HELP)
    sub.add_argument("--p", type=float, help="open-vertex probability (with --alpha)")
    sub.add_argument("--alpha", type=float, help="edge density (with --p)")


def _series_from_args(parser: argparse.ArgumentParser, args) -> BetaSeries:
    try:
        beta = None if args.beta is None else [float(c) for c in args.beta.split(",")]
        return resolve_model(beta, args.p, args.alpha)
    except ValueError as exc:
        parser.error(f"bad model flags: {exc}")


def cmd_analyze(parser, args) -> int:
    series = _series_from_args(parser, args)
    model = FluidModel.build(series, t_max=args.t_max,
                             tangency_tolerance=args.tangency_tol)
    curve = model.curve(args.grid)
    v_frac, edge_frac = limit_fractions(series, model.critical)
    summary = {
        "beta": list(series.coeffs),
        "z_star": model.critical.z_star,
        "zeta": list(model.critical.zeta),
        "tangency_tolerance": model.critical.tangency_tolerance,
        "v_frac": v_frac,
        "edge_frac": edge_frac,
        "avg_patch_overlap": patch_overlap_average(series),
        "t_max": model.t_max,
        "grid": int(args.grid),
    }
    write_csv(os.path.join(args.out, "curve.csv"), CURVE_COLUMNS, curve)
    write_json(summary, os.path.join(args.out, "summary.json"))
    print(f"z_star={summary['z_star']:.6g} zeta={summary['zeta']} "
          f"v_frac={v_frac:.6g} edge_frac={edge_frac:.6g}")
    print(f"wrote {args.out}/curve.csv and {args.out}/summary.json")
    return 0


def cmd_sample(parser, args) -> int:
    series = _series_from_args(parser, args)
    rng = mc.stream(args.seed)
    h = hg.sample_poisson(args.n, series, rng)
    hg.write_hypergraph(h, args.out)
    s = h.stats()
    print(f"sampled n_vertices={args.n} edges={s.total} "
          f"(patches={s.patches}, debris={s.debris}) -> {args.out}")
    return 0


def cmd_collapse(parser, args) -> int:
    h = hg.read_hypergraph(args.input)
    initial = h.stats()
    rng = mc.stream(args.seed)
    outcome = hg.collapse_all(h, rng)
    final = outcome.stable.stats()
    doc = {
        "n_vertices": h.n_vertices,
        "identified": list(outcome.identified),
        "identified_count": len(outcome.identified),
        "identified_frac": len(outcome.identified) / h.n_vertices,
        "initial_debris": initial.debris,
        "final_debris": final.debris,
        "final_debris_frac": final.debris / h.n_vertices,
        "identifiable_edge_count": outcome.identifiable_edge_count,
        "total_edges": final.total,
    }
    write_json(doc, args.out)
    print(f"identified {doc['identified_count']}/{h.n_vertices} vertices, "
          f"debris {initial.debris} -> {final.debris}; wrote {args.out}")
    return 0


def cmd_chain(parser, args) -> int:
    series = _series_from_args(parser, args)
    config = mc.ExperimentConfig(
        series=series, n_values=(args.n,), replicas=args.replicas,
        master_seed=args.seed, workers=args.threads)
    result = mc.run_replicas(config)
    rows = [(r.replica, r.seed, r.v_star_frac, r.debris_frac, r.stop_step)
            for r in result.records]
    if args.trajectory:
        rng = mc.stream(args.seed, args.n, 0)
        run0 = chain_mod.run(args.n, series, rng, record_trajectory=True)
        write_csv(args.trajectory, ("n", "Y", "Z"), run0.trajectory)
    write_csv(args.out, ("replica", "seed", "v_star_frac", "debris_frac", "stop_step"),
              rows)
    agg = result.aggregates[0]
    print(f"n_vertices={args.n} replicas={args.replicas} "
          f"mean_v={agg.mean_v:.6g} mean_debris={agg.mean_debris:.6g}; wrote {args.out}")
    return 0


def cmd_sweep(parser, args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    config = mc.config_from_json(doc)
    if args.threads is not None:
        config = replace(config, workers=args.threads)
    if args.delta is not None:
        config = replace(config, delta=args.delta)
    outputs = doc.get("outputs") or {}  # null counts as absent, as for every key
    results_csv = os.path.join(args.out, outputs.get("results_csv") or "results.csv")
    aggregates_json = os.path.join(args.out,
                                   outputs.get("aggregates_json") or "aggregates.json")
    result = mc.run_replicas(config)
    rows = [(r.n_vertices, r.replica, r.seed, r.v_star_frac, r.debris_frac, r.stop_step)
            for r in result.records]
    write_csv(results_csv, ("N", "replica", "seed", "v_star_frac", "debris_frac",
                            "stop_step"), rows)
    write_json([{"N": a.n_vertices, "mean_v": a.mean_v, "var_v": a.var_v,
                 "mean_debris": a.mean_debris, "dev_freq": a.dev_freq}
                for a in result.aggregates], aggregates_json)
    for a in result.aggregates:
        print(f"N={a.n_vertices} mean_v={a.mean_v:.6g} var_v={a.var_v:.3g} "
              f"mean_debris={a.mean_debris:.6g} dev_freq={a.dev_freq}")
    print(f"wrote {results_csv} and {aggregates_json}")
    return 0


def cmd_critical(parser, args) -> int:
    def family(a: float) -> BetaSeries:
        return from_binomial_family(a, args.family_a, args.family_b, args.family_k)

    alpha_c, zeta0 = critical_alpha(family, args.alpha_lo, args.alpha_hi,
                                    tangency_tolerance=args.tangency_tol)
    crit = critical_structure(family(alpha_c), tangency_tolerance=args.tangency_tol)
    doc = {
        "alpha_c": alpha_c,
        "zeta0": zeta0,
        "z_star": crit.z_star,
        "zeta": list(crit.zeta),
        "family": {"a": args.family_a, "b": args.family_b, "k": args.family_k},
        "alpha_lo": args.alpha_lo,
        "alpha_hi": args.alpha_hi,
    }
    write_json(doc, args.out)
    print(f"alpha_c={alpha_c:.10g} zeta0={zeta0:.6g} z_star={crit.z_star:.6g}; "
          f"wrote {args.out}")
    return 0


def cmd_zdist(parser, args) -> int:
    if args.replicas < 1:
        parser.error(f"--replicas must be at least 1, got {args.replicas}")
    if args.z_star is not None:
        try:
            zeta = tuple(sorted(map(float, args.zeta.split(",")))) if args.zeta else ()
            crit = CriticalStructure(z_star=args.z_star, zeta=zeta,
                                     tangency_tolerance=args.tangency_tol)
        except ValueError as exc:
            parser.error(f"bad --z-star/--zeta: {exc}")
    elif args.zeta:
        parser.error("--zeta needs --z-star")
    else:
        series = _series_from_args(parser, args)
        crit = critical_structure(series, tangency_tolerance=args.tangency_tol)
    rng = mc.stream(args.seed)
    atoms = list(crit.zeta) + [crit.z_star]
    counts = {a: 0 for a in atoms}
    for _ in range(args.replicas):
        counts[sample_limit_fraction(crit, rng).value] += 1
    rows = [(a, counts[a], counts[a] / args.replicas) for a in atoms]
    write_csv(args.out, ("value", "count", "frac"), rows)
    shown = " ".join(f"P({a:.6g})={c / args.replicas:.4f}" for a, c in counts.items())
    print(f"{args.replicas} draws: {shown}; wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercollapse",
        description="Poisson random hypergraphs, collapse, and their limits")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="threshold summary and limit curves")
    _add_model_flags(p)
    p.add_argument("--grid", type=int, default=1001, help="curve grid points")
    p.add_argument("--t-max", type=float, default=None, dest="t_max",
                   help="curve horizon (default: min(0.999, z_star + 0.1))")
    p.add_argument("--tangency-tol", type=float, default=1e-9, dest="tangency_tol")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("sample", help="draw a Poisson(beta) hypergraph")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="hypergraph file")
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("collapse", help="collapse a hypergraph file")
    p.add_argument("input", help="hypergraph file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="outcome JSON")
    p.set_defaults(func=cmd_collapse)

    p = subs.add_parser("chain", help="reduced-chain replicas at one vertex count")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--trajectory", help="write replica 0 trajectory CSV here")
    p.add_argument("--out", required=True, help="result CSV")
    p.set_defaults(func=cmd_chain)

    p = subs.add_parser("sweep", help="JSON-configured replica sweep")
    p.add_argument("config", help="experiment JSON document")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--delta", type=float, default=None,
                   help="deviation threshold (forces trajectory recording)")
    p.add_argument("--threads", type=int, default=None, help="worker threads")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("critical", help="tangency parameter of a(base+slope*t)^power")
    p.add_argument("--alpha-lo", type=float, required=True, dest="alpha_lo")
    p.add_argument("--alpha-hi", type=float, required=True, dest="alpha_hi")
    p.add_argument("--family-a", type=float, default=0.1, dest="family_a")
    p.add_argument("--family-b", type=float, default=0.9, dest="family_b")
    p.add_argument("--family-k", type=int, default=7, dest="family_k")
    p.add_argument("--tangency-tol", type=float, default=1e-9, dest="tangency_tol")
    p.add_argument("--out", required=True, help="result JSON")
    p.set_defaults(func=cmd_critical)

    p = subs.add_parser("zdist", help="sample the limiting identified fraction")
    _add_model_flags(p)
    p.add_argument("--z-star", type=float, default=None, dest="z_star",
                   help="threshold (overrides the model flags)")
    p.add_argument("--zeta", default="",
                   help="comma-separated tangency points (needs --z-star)")
    p.add_argument("--tangency-tol", type=float, default=1e-9, dest="tangency_tol")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=10000, help="number of draws")
    p.add_argument("--out", required=True, help="histogram CSV")
    p.set_defaults(func=cmd_zdist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except Exception as exc:  # runtime failures exit 1; argparse already exits 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
