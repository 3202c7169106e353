"""The CLI invocations of the `cli` workload and the checks on their outputs.

One pass runs every invocation once, in this order, in a fresh directory.
Flag seeds come from the workload seed and the pass index.  Each check
returns the vertex removals the call's outputs report (chain steps and
engine collapse steps), which feed `chain_steps_per_s`.
"""

from __future__ import annotations

import csv
import json
import math
import os

from common import (ALPHA_C, OVERLAP_1200, Z_STAR_EX1, ZETA0, close,
                    family_coeffs)

MODEL = ["--p", "0.1", "--alpha", "0.5"]
CHAIN_N = 10_000
SWEEP_NS = (2000, 10_000)
REPLICAS = 8


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def calls(seed: int, pass_index: int, d: str) -> list[tuple[str, list[str], int]]:
    """(name, argv after `python -m hypercollapse.cli`, expected exit code)."""
    k = str(seed * 1000 + pass_index)
    beta = ",".join(repr(c) for c in family_coeffs(1200.0))
    return [
        ("analyze-ex1", ["analyze", *MODEL, "--out", f"{d}/an_ex1"], 0),
        ("analyze-family", ["analyze", "--beta", beta, "--out", f"{d}/an_fam"], 0),
        ("critical", ["critical", "--alpha-lo", "1185", "--alpha-hi", "1200",
                      "--out", f"{d}/crit.json"], 0),
        ("zdist-model", ["zdist", *MODEL, "--seed", k, "--out", f"{d}/z_model.csv"], 0),
        ("zdist-tangent", ["zdist", "--z-star", "0.9", "--zeta", "0.25", "--seed", k,
                           "--out", f"{d}/z_tan.csv"], 0),
        ("chain", ["chain", "--n", str(CHAIN_N), *MODEL, "--replicas", str(REPLICAS),
                   "--seed", k, "--out", f"{d}/chain.csv"], 0),
        ("sweep", ["sweep", f"{d}/sweep.json", "--out", f"{d}/sweep", "--threads", "2"], 0),
        ("sample", ["sample", "--n", str(CHAIN_N), *MODEL, "--seed", k,
                    "--out", f"{d}/h.hgx"], 0),
        ("collapse", ["collapse", f"{d}/h.hgx", "--seed", k, "--out", f"{d}/collapse.json"], 0),
        ("usage-error", ["analyze", "--p", "0.1", "--out", f"{d}/usage"], 2),
        ("runtime-error", ["zdist", "--beta", "0", "--out", f"{d}/zz.csv"], 1),
    ]


def prepare(seed: int, pass_index: int, d: str) -> None:
    """Make the pass directory and the sweep config it reads."""
    os.makedirs(d, exist_ok=True)
    doc = {"p": 0.1, "alpha": 0.5, "N_values": list(SWEEP_NS), "replicas": REPLICAS,
           "master_seed": seed * 1000 + pass_index}
    with open(os.path.join(d, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(*xs: float) -> bool:
    return all(math.isfinite(float(x)) for x in xs)


def _check_chain_rows(rows: list[dict], n: int) -> int:
    """Chain invariants per replica; returns the summed stop steps."""
    steps = 0
    for row in rows:
        stop = int(row["stop_step"])
        v, debris = float(row["v_star_frac"]), float(row["debris_frac"])
        require(0 < stop <= n, f"stop_step {stop} outside (0, {n}]")
        require(v == stop / n, "v_star_frac is not stop_step/N")
        require(debris >= v, f"debris_frac {debris} < v_star_frac {v}")
        steps += stop
    return steps


def _check_zdist(path: str, atoms: list[float]) -> None:
    rows = _csv(path)
    require([float(r["value"]) for r in rows] == atoms, f"zdist atoms {rows}")
    counts = [int(r["count"]) for r in rows]
    fracs = [float(r["frac"]) for r in rows]
    require(sum(counts) == 10_000, "zdist counts do not sum to the draws")
    require(abs(sum(fracs) - 1.0) < 1e-12, f"zdist fractions sum to {sum(fracs)}")
    if len(atoms) == 2:
        # Brownian motion at time 1/3 is negative with probability 1/2
        require(0.45 < fracs[0] < 0.55, f"tangency stop fraction {fracs[0]}")


def _check_analyze(d: str, z_star: float, grid: int = 1001) -> dict:
    summary = _json(os.path.join(d, "summary.json"))
    require(close(summary["z_star"], z_star), f"z_star {summary['z_star']}")
    require(summary["zeta"] == [], f"zeta {summary['zeta']}")
    rows = _csv(os.path.join(d, "curve.csv"))
    require(len(rows) == grid and len(rows[0]) == 6, "curve.csv shape")
    require(all(_finite(*r.values()) for r in rows), "non-finite curve value")
    return summary


def check(name: str, d: str) -> int:
    """Check the outputs of one call; returns the removals they report."""
    if name == "analyze-ex1":
        summary = _check_analyze(f"{d}/an_ex1", Z_STAR_EX1)
        require(summary["v_frac"] == summary["z_star"], "v_frac != z_star")
    elif name == "analyze-family":
        summary = _check_analyze(f"{d}/an_fam", 1.0)
        overlap = summary["avg_patch_overlap"]
        require(abs(overlap - OVERLAP_1200) < 0.01 * OVERLAP_1200, f"overlap {overlap}")
    elif name == "critical":
        doc = _json(f"{d}/crit.json")
        require(close(doc["alpha_c"], ALPHA_C), f"alpha_c {doc['alpha_c']}")
        require(close(doc["zeta0"], ZETA0, 1e-6), f"zeta0 {doc['zeta0']}")
        require(doc["z_star"] == 1 and len(doc["zeta"]) == 1, "critical structure")
    elif name == "zdist-model":
        _check_zdist(f"{d}/z_model.csv", [Z_STAR_EX1])
    elif name == "zdist-tangent":
        _check_zdist(f"{d}/z_tan.csv", [0.25, 0.9])
    elif name == "chain":
        rows = _csv(f"{d}/chain.csv")
        require([int(r["replica"]) for r in rows] == list(range(REPLICAS)), "chain rows")
        return _check_chain_rows(rows, CHAIN_N)
    elif name == "sweep":
        rows = _csv(f"{d}/sweep/results.csv")
        aggs = _json(f"{d}/sweep/aggregates.json")
        require([a["N"] for a in aggs] == list(SWEEP_NS), "sweep aggregate rows")
        steps = 0
        for agg in aggs:
            group = [r for r in rows if int(r["N"]) == agg["N"]]
            require(len(group) == REPLICAS, "sweep replica count")
            steps += _check_chain_rows(group, agg["N"])
            mean_v = sum(float(r["v_star_frac"]) for r in group) / REPLICAS
            require(abs(agg["mean_v"] - mean_v) < 1e-12, "mean_v is not the row mean")
        return steps
    elif name == "sample":
        with open(f"{d}/h.hgx", encoding="utf-8") as fh:
            require(json.loads(fh.readline()) == {"N": CHAIN_N}, "hypergraph header")
            for line in fh:
                edge = json.loads(line)
                require(edge == sorted(set(edge)) and all(0 <= v < CHAIN_N for v in edge),
                        f"bad edge {edge}")
    elif name == "collapse":
        from hypercollapse import identifiable_set, read_hypergraph
        h = read_hypergraph(f"{d}/h.hgx")
        doc = _json(f"{d}/collapse.json")
        ident = doc["identified"]
        require(len(ident) == doc["identified_count"] == len(set(ident)), "identified list")
        require(set(ident) == identifiable_set(h), "identified set != peeling fixpoint")
        require(doc["total_edges"] == h.stats().total, "edge total not conserved")
        require(doc["identified_frac"] == len(ident) / CHAIN_N, "identified_frac")
        return len(ident)
    elif name == "usage-error":
        require(not os.path.exists(f"{d}/usage"), "usage error wrote output")
    elif name == "runtime-error":
        require(not os.path.exists(f"{d}/zz.csv"), "runtime error wrote output")
    return 0


def output_files(d: str) -> list[str]:
    """Every file a pass wrote, in a fixed order, for the digest."""
    out = []
    for base, dirs, files in os.walk(d):
        dirs.sort()
        out.extend(os.path.join(base, f) for f in sorted(files))
    return out
