"""The hypercollapse benchmark: one command, one workload per fresh process.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.

`--trace 0` measures workload W (sweep-long, sweep-traj, engine, cli; see
workloads.py).  Set-up is timed in SETUP_REPEATS fresh processes and
reported as the median; the last of them goes on to measure a closed loop
for T seconds.  It prints every end-to-end metric with its unit, the run's
context, and as its last line the JSON result.  Every time is scaled to a
reference host by the bursts of common.HostSpeed; the report keeps the
scale of each run.

`--trace 1` runs the layer suite (layers.py) twice in fresh processes, with
spans off and on, checks that the exact counts repeat, and reports the
per-layer metrics and the tracing overhead.  The suite is the same for
every workload; it covers every layer.

A full report goes to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from common import (OUT, ROOT, HostSpeed, child_env, context, percentile, tail_percentile,
                    workloads)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
SETUP_BURSTS = 3
SETUP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def spawn(script: str, args: list[str], timeout: float):
    """Start a benchmark process; a timer kills it if it outlives `timeout`."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, script), *args],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    return proc, timer


def finish(proc, timer) -> list[str]:
    """Read the rest of a child's output and wait for it; raise on failure."""
    try:
        lines = proc.stdout.read().splitlines()
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if rc != 0:
        raise ChildFailed(f"{proc.args[1]} exited with {rc}")
    return lines


def timed_setup(args: list[str], timeout: float):
    """Spawn a workload process and time it from spawn to its READY line."""
    t0 = time.perf_counter()
    proc, timer = spawn("workloads.py", args, timeout)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, timer)
        raise ChildFailed(f"workload process did not get ready: {line!r}")
    return setup, proc, timer


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    base = [workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups, host = [], HostSpeed("process")    # set-up is mostly process start
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        # each set-up is scaled by bursts just before it and, if it ends
        # before measuring starts, just after it; none run during it
        spent = sum(host.burst() for _ in range(SETUP_BURSTS))
        setup, proc, timer = timed_setup(
            base + ["--mode", "measure" if last else "setup"],
            SETUP_TIMEOUT_S + (seconds + PASS_TIMEOUT_S if last else 0))
        n = SETUP_BURSTS
        if not last:
            finish(proc, timer)
            spent += sum(host.burst() for _ in range(SETUP_BURSTS))
            n += SETUP_BURSTS
        setups.append(setup * host.ref_s * n / spent)
    res = json.loads(finish(proc, timer)[-1])

    # the workload process reports op times already scaled to the reference host
    lat = res["latencies_ms"]
    tail_p = tail_percentile(len(lat))
    busy = res["busy_s"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (res["round_wall_s"], "s"),
        "ops_per_s": (res["ops"] / busy, "1/s"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_tail_ms": (percentile(lat, tail_p), "ms"),
        "chain_steps_per_s": (res["round_removals"] / res["round_wall_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    report = {
        "host_scale": res["host_scale"], "setup_host_scale": host.scale(),
        "fail_frac": res["failed"] / res["ops"],
        "ops": res["ops"], "failed": res["failed"],
        "latency_samples": len(lat), "tail_percentile": tail_p,
        "rounds": res["rounds"], "measured_s": res["measured_s"],
        "setup_samples_s": setups,
        "digest": res["digest"], "digest_checked": res["digest_checked"],
        "errors": res["errors"],
    }
    return metrics, report


# The public calls `run_replicas` makes, as the layer suite splits it.
REPLICA_SPLIT = ("montecarlo.derive_seed", "numpy.PCG64", "chain.edge_rate_curve",
                 "chain.run", "fluid.path_grid")

# Exact counts of the layer suite: they must repeat across the two passes.
COUNTS = ("chain.run.steps", "chain.run.trajectory_rows",
          "montecarlo.critical_alpha.family_calls", "hypergraph.sample_poisson.edges",
          "hypergraph.collapse_all.removals", "hypergraph.write_hypergraph.bytes",
          "fluid.path_grid.rows", "serialize.write_csv.bytes", "cli.removals")


def layers(seed: int) -> tuple[dict, dict]:
    passes = []
    for traced in (0, 1):
        proc, timer = spawn("layers.py", ["--seed", str(seed), "--traced", str(traced)],
                            PASS_TIMEOUT_S)
        passes.append(json.loads(finish(proc, timer)[-1]))
    plain, traced = passes
    spans, counts, calls = traced["spans"], traced["counts"], traced["calls"]
    # spans and probes arrive scaled; pass walls are scaled here
    kt, kp = traced["host_scale"], plain["host_scale"]

    def self_s(name: str) -> float:
        return spans[name]["self_s"]

    def p50_ms(name: str) -> float:
        return 1e3 * statistics.median(spans[name]["durations_s"])

    cli_in_process = p50_ms("cli.main")
    steps = counts["chain.run.steps"]
    imp = plain["import"]
    m = {
        "import.hypercollapse_s": (imp["hypercollapse"], "s"),
        "import.scipy_s": (imp["scipy"], "s"),
        "import.numpy_s": (imp["numpy"], "s"),
        "import.process_s": (imp["process"], "s"),
        "cli.main.in_process_p50_ms": (cli_in_process, "ms"),
        "cli.process_overhead_ms":
            (statistics.median(plain["cli_subprocess_ms"]) - cli_in_process, "ms"),
        "series.critical_structure.calls": (calls["series.critical_structure"], "count"),
        "series.critical_structure.p50_ms": (p50_ms("series.critical_structure"), "ms"),
        "montecarlo.critical_alpha.self_ms": (1e3 * self_s("montecarlo.critical_alpha"), "ms"),
        "montecarlo.critical_alpha.family_calls":
            (counts["montecarlo.critical_alpha.family_calls"], "count"),
        "chain.run.calls": (calls["chain.run"], "count"),
        "chain.run.self_s": (self_s("chain.run"), "s"),
        "chain.run.steps": (steps, "count"),
        "chain.run.ns_per_step": (1e9 * self_s("chain.run") / steps, "ns"),
        "chain.run.trajectory_rows": (counts["chain.run.trajectory_rows"], "count"),
        "chain.edge_rate_curve.calls": (calls["chain.edge_rate_curve"], "count"),
        "chain.edge_rate_curve.self_s": (self_s("chain.edge_rate_curve"), "s"),
        "montecarlo.derive_seed.calls": (calls["montecarlo.derive_seed"], "count"),
        "montecarlo.derive_seed.self_s": (self_s("montecarlo.derive_seed"), "s"),
        "numpy.PCG64.self_s": (self_s("numpy.PCG64"), "s"),
        "fluid.path_grid.self_s": (self_s("fluid.path_grid"), "s"),
        "fluid.path_grid.rows": (counts["fluid.path_grid.rows"], "count"),
        "montecarlo.run_replicas.overhead_s":
            (spans["montecarlo.run_replicas"]["total_s"]
             - sum(spans[name]["total_s"] for name in REPLICA_SPLIT), "s"),
        "montecarlo.pool_speedup_2w": (plain["pool_speedup_2w"], "ratio"),
        "hypergraph.sample_poisson.self_s": (self_s("hypergraph.sample_poisson"), "s"),
        "hypergraph.sample_poisson.edges": (counts["hypergraph.sample_poisson.edges"], "count"),
        "hypergraph.collapse_all.self_s": (self_s("hypergraph.collapse_all"), "s"),
        "hypergraph.collapse_all.removals":
            (counts["hypergraph.collapse_all.removals"], "count"),
        "hypergraph.identifiable_set.self_s": (self_s("hypergraph.identifiable_set"), "s"),
        "hypergraph.write_hypergraph.self_s": (self_s("hypergraph.write_hypergraph"), "s"),
        "hypergraph.write_hypergraph.bytes":
            (counts["hypergraph.write_hypergraph.bytes"], "bytes"),
        "hypergraph.read_hypergraph.self_s": (self_s("hypergraph.read_hypergraph"), "s"),
        "fluid.FluidModel.build.self_ms": (1e3 * self_s("fluid.FluidModel.build"), "ms"),
        "fluid.patch_overlap_average.self_ms":
            (1e3 * self_s("fluid.patch_overlap_average"), "ms"),
        "fluid.sample_limit_fraction.self_s": (self_s("fluid.sample_limit_fraction"), "s"),
        "serialize.write_csv.self_s": (self_s("serialize.write_csv"), "s"),
        "serialize.write_csv.bytes": (counts["serialize.write_csv.bytes"], "bytes"),
        "serialize.write_json.self_s": (self_s("serialize.write_json"), "s"),
        "trace.overhead_share":
            (kt * traced["pass_wall_s"] / (kp * plain["pass_wall_s"]) - 1.0, "ratio"),
    }
    errors = plain["errors"] + traced["errors"]
    repeat = {k: (plain["counts"].get(k), counts.get(k)) for k in COUNTS}
    repeat.update({f"calls.{k}": (plain["calls"].get(k), v) for k, v in calls.items()})
    mismatched = [k for k, (a, b) in repeat.items() if a != b]
    errors += [f"count {k} differs across two runs: {repeat[k]}" for k in mismatched]
    report = {
        "ops": plain["checked"] + traced["checked"] + len(repeat),
        "failed": plain["failed"] + traced["failed"] + len(mismatched),
        "counts_repeat": not mismatched,
        "counts": {k: {"value": b, "unit": "count"} for k, (_, b) in repeat.items()},
        "pass_wall_s": {"untraced": plain["pass_wall_s"], "traced": traced["pass_wall_s"]},
        "host_scale": {"untraced": kp, "traced": kt},
        "spans": {k: {kk: vv for kk, vv in v.items() if kk != "durations_s"}
                  for k, v in spans.items()},
        "errors": errors[:20],
    }
    return m, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    why = workloads()
    ap.add_argument("--workload", required=True, choices=sorted(why))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "hypercollapse", "__init__.py")):
        print(f"error: no package source at {ROOT}/src/hypercollapse", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, report = layers(args.seed)
        else:
            metrics, report = measure(args.workload, args.seed, args.seconds)
    except (ChildFailed, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    report.update(workload=args.workload, why=why[args.workload],
                  trace=args.trace, seconds=args.seconds, context=context(args.seed),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    extra = {k: report[k] for k in ("fail_frac", "ops", "latency_samples",
                                    "tail_percentile", "counts_repeat") if k in report}
    print(json.dumps({"context": report["context"], "why": report["why"], **extra}))
    for err in report["errors"]:
        print(f"failed: {err}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
