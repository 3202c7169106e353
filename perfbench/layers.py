"""The layer suite: a fixed, seeded set of calls into each layer's public API.

    python3 perfbench/layers.py --seed S --traced 0|1

One process runs one pass of the suite.  With `--traced 1` every call into
the package made from this file is wrapped in a span (name, start, end,
parent); spans stay in memory and are summarized when the pass ends.  With
`--traced 0` the same calls run with spans off and the process then runs
the probes that need no spans: import cost, CLI processes, and the
two-worker pool.  Both passes count exact quantities (steps, rows, edges,
bytes, calls), so `run.py` can check that they repeat across the two runs.

`run_replicas` is split into the public calls it makes (`derive_seed`,
`PCG64`, `edge_rate_curve`, `run`, `path_grid`) and the records of the
split must equal `run_replicas`' own, so the trace measures the program
that the sweep workloads run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

import clicalls
import workloads
from common import (ALPHA_C, EX1, WORK, Z_STAR_EX1, HostSpeed, child_env, close,
                    family_coeffs, import_package)

SWEEP_LONG_REPLICAS = 12
TRAJ_REPLICAS = 40
POOL_REPLICAS = 24
ZDIST_DRAWS = 10_000
IMPORT_REPEATS = 3


class _Span:
    __slots__ = ("rec", "idx")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        parent = rec.stack[-1] if rec.stack else -1
        self.idx = len(rec.spans)
        rec.spans.append([name, 0.0, 0.0, parent])

    def __enter__(self):
        self.rec.stack.append(self.idx)
        self.rec.spans[self.idx][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec.spans[self.idx][2] = time.perf_counter()
        self.rec.stack.pop()
        return False


class Recorder:
    """Spans at layer boundaries plus exact counts; spans only when enabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.host = HostSpeed()
        self.spans: list[list] = []          # name, start, end, parent index
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.checked = 0
        self.errors: list[str] = []

    def span(self, name: str):
        self.calls[name] += 1
        return _Span(self, name) if self.enabled else contextlib.nullcontext()

    def check(self, ok: bool, msg: str) -> None:
        self.checked += 1
        if not ok:
            self.errors.append(msg)

    def summary(self) -> dict:
        """Per span name: total and self seconds and each duration, every span
        scaled to the reference host by the bursts nearest to it."""
        child = defaultdict(float)
        for _, s, e, p in self.spans:
            if p >= 0:
                child[p] += e - s
        out: dict = {}
        for i, (name, s, e, _) in enumerate(self.spans):
            k = self.host.scale_for(s, e - s)
            row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "durations_s": []})
            row["total_s"] += k * (e - s)
            row["self_s"] += k * (e - s - child[i])
            row["durations_s"].append(k * (e - s))
        return out


def decomposed_replicas(hc, config, rec: Recorder) -> list:
    """`run_replicas` (workers=1) rebuilt from the public calls it makes."""
    import numpy as np
    from hypercollapse.series import T_CAP

    series = hc.BetaSeries(config.series.coeffs)
    want_dev = config.record_trajectory
    records = []
    for n in config.n_values:
        with rec.span("chain.edge_rate_curve"):
            table = hc.edge_rate_curve(n, 2, series)
        for replica in range(config.replicas):
            with rec.span("montecarlo.derive_seed"):
                seed = hc.derive_seed(config.master_seed, n, replica)
            with rec.span("numpy.PCG64"):
                rng = np.random.Generator(np.random.PCG64(seed))
            with rec.span("chain.run"):
                result = hc.run(n, series, rng, record_trajectory=want_dev,
                                rate_table=table)
            rec.counts["chain.run.steps"] += result.removed
            deviation = None
            if want_dev:
                traj = result.trajectory
                rec.counts["chain.run.trajectory_rows"] += len(traj)
                ts = np.minimum(traj[:, 0].astype(float) / n, T_CAP)
                with rec.span("fluid.path_grid"):
                    xs = hc.path_grid(ts, series)
                rec.counts["fluid.path_grid.rows"] += len(xs)
                dev_patches = np.abs(traj[:, 1] / n - xs[:, 1])
                dev_debris = np.abs(traj[:, 2] / n - xs[:, 2])
                deviation = float(max(dev_patches.max(), dev_debris.max()))
            records.append(hc.ReplicaRecord(
                n_vertices=n, replica=replica, seed=seed,
                v_star_frac=result.removed / n, debris_frac=result.debris / n,
                stop_step=result.removed, deviation=deviation))
            rec.host.tick()
    return records


def sweep_section(hc, config, rec: Recorder, label: str):
    """`run_replicas` and its split, whose records must be the same."""
    with rec.span("montecarlo.run_replicas"):
        result = hc.run_replicas(config)
    rec.host.tick()
    records = decomposed_replicas(hc, config, rec)
    rec.check(records == result.records,
              f"{label}: split records differ from run_replicas records")
    for r in records:
        rec.check(0 < r.stop_step <= r.n_vertices and r.debris_frac >= r.v_star_frac,
                  f"{label}: replica invariant {r}")
    return result


def engine_section(hc, seed: int, workdir: str, rec: Recorder) -> None:
    eng = workloads.Engine(hc, seed, workdir, rec.host)
    path = eng.path
    for slot, (series, n) in enumerate(eng.mix):
        rng = eng.rng(0, slot)
        with rec.span("hypergraph.sample_poisson"):
            h = hc.sample_poisson(n, series, rng)
        with rec.span("hypergraph.collapse_all"):
            outcome = hc.collapse_all(h, rng)
        with rec.span("hypergraph.identifiable_set"):
            peeled = hc.identifiable_set(h)
        with rec.span("hypergraph.write_hypergraph"):
            hc.write_hypergraph(h, path)
        with rec.span("hypergraph.read_hypergraph"):
            back = hc.read_hypergraph(path)
        rec.counts["hypergraph.sample_poisson.edges"] += h.stats().total
        rec.counts["hypergraph.collapse_all.removals"] += len(outcome.identified)
        rec.counts["hypergraph.write_hypergraph.bytes"] += os.path.getsize(path)
        msg = eng.check(h, outcome, peeled, back)
        rec.check(not msg, f"engine slot {slot}: {msg}")
        rec.host.tick()


def _write_csv(rec: Recorder, path: str, header, rows) -> None:
    from hypercollapse.serialize import write_csv
    with rec.span("serialize.write_csv"):
        write_csv(path, header, rows)
    rec.counts["serialize.write_csv.bytes"] += os.path.getsize(path)


def _write_json(rec: Recorder, obj, path: str) -> None:
    from hypercollapse.serialize import write_json
    with rec.span("serialize.write_json"):
        write_json(obj, path)


def analysis_section(hc, seed: int, workdir: str, rec: Recorder, sweep_result) -> None:
    """The analysis and output calls behind `analyze`, `critical`, `zdist`, `sweep`."""
    import numpy as np
    from hypercollapse.fluid import CURVE_COLUMNS

    ex1 = hc.from_graph_params(*EX1)
    fam1200 = hc.BetaSeries(family_coeffs(1200.0))
    for label, series, z_star in (("ex1", ex1, Z_STAR_EX1), ("family", fam1200, 1.0)):
        with rec.span("fluid.FluidModel.build"):
            model = hc.FluidModel.build(series)
        rec.check(close(model.critical.z_star, z_star), f"analyze {label}: z_star")
        curve = model.curve(1001)
        _write_csv(rec, os.path.join(workdir, f"curve_{label}.csv"), CURVE_COLUMNS, curve)
        with rec.span("fluid.patch_overlap_average"):
            overlap = hc.patch_overlap_average(series)
        _write_json(rec, {"z_star": model.critical.z_star, "avg_patch_overlap": overlap},
                    os.path.join(workdir, f"summary_{label}.json"))
        rec.host.tick()

    def family(alpha: float):
        rec.counts["montecarlo.critical_alpha.family_calls"] += 1
        with rec.span("series.from_binomial_family"):
            return hc.from_binomial_family(alpha)

    with rec.span("montecarlo.critical_alpha"):
        alpha_c, zeta0 = hc.critical_alpha(family, 1185.0, 1200.0)
    rec.check(close(alpha_c, ALPHA_C), f"critical: alpha_c {alpha_c}")
    rec.host.tick()

    crits = {}
    for label, series in (("ex1", ex1), ("family", fam1200),
                          ("alpha_c", hc.from_binomial_family(alpha_c))):
        with rec.span("series.critical_structure"):
            crits[label] = hc.critical_structure(series)
    rec.check(close(crits["ex1"].z_star, Z_STAR_EX1), "critical_structure(EX1).z_star")
    rec.check(len(crits["alpha_c"].zeta) == 1, "critical_structure(alpha_c) tangency")

    tangent = hc.CriticalStructure(z_star=0.9, zeta=(0.25,), tangency_tolerance=1e-9)
    for label, crit in (("ex1", crits["ex1"]), ("tangent", tangent)):
        rng = hc.stream(seed, 17)
        counts = Counter()
        with rec.span("fluid.sample_limit_fraction"):
            for _ in range(ZDIST_DRAWS):
                counts[hc.sample_limit_fraction(crit, rng).value] += 1
        atoms = list(crit.zeta) + [crit.z_star]
        rec.check(sum(counts.values()) == ZDIST_DRAWS and set(counts) <= set(atoms),
                  f"zdist {label}: atoms {dict(counts)}")
        rows = [(a, counts[a], counts[a] / ZDIST_DRAWS) for a in atoms]
        _write_csv(rec, os.path.join(workdir, f"zdist_{label}.csv"),
                   ("value", "count", "frac"), rows)
        rec.host.tick()

    rows = [(r.n_vertices, r.replica, r.seed, r.v_star_frac, r.debris_frac, r.stop_step)
            for r in sweep_result.records]
    _write_csv(rec, os.path.join(workdir, "results.csv"),
               ("N", "replica", "seed", "v_star_frac", "debris_frac", "stop_step"), rows)
    _write_json(rec, [{"N": a.n_vertices, "mean_v": a.mean_v, "var_v": a.var_v,
                       "mean_debris": a.mean_debris, "dev_freq": a.dev_freq}
                      for a in sweep_result.aggregates],
                os.path.join(workdir, "aggregates.json"))
    rec.check(np.isfinite([r.deviation for r in sweep_result.records]).all(),
              "sweep deviations finite")


def cli_section(hc, seed: int, workdir: str, rec: Recorder) -> None:
    """Every `cli` workload invocation through `main` in this process."""
    from hypercollapse.cli import main
    d = os.path.join(workdir, "cli")
    clicalls.prepare(seed, 0, d)
    for name, argv, want_rc in clicalls.calls(seed, 0, d):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with rec.span("cli.main"):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
        msg = "" if rc == want_rc else f"exit {rc}, expected {want_rc}"
        if not msg:
            try:
                rec.counts["cli.removals"] += clicalls.check(name, d)
            except Exception as exc:
                msg = repr(exc)
        rec.check(not msg, f"cli in-process {name}: {msg}")
        rec.host.tick()


def run_pass(hc, seed: int, workdir: str, rec: Recorder) -> dict:
    ex1 = hc.from_graph_params(*EX1)
    base = seed * 1_000_003
    long_cfg = hc.ExperimentConfig(ex1, (workloads.SWEEP_LONG_N,), SWEEP_LONG_REPLICAS,
                                   master_seed=base + 1, workers=1)
    traj_cfg = hc.ExperimentConfig(ex1, workloads.TRAJ_NS, TRAJ_REPLICAS,
                                   master_seed=base + 2, delta=workloads.TRAJ_DELTA,
                                   record_trajectory=True, workers=1)
    t0, bursts0 = time.perf_counter(), rec.host.burst_s
    sweep_section(hc, long_cfg, rec, "sweep-long")
    traj_result = sweep_section(hc, traj_cfg, rec, "sweep-traj")
    # concentration_curve is the criterion-11 entry point over the same run
    plain = hc.ExperimentConfig(ex1, workloads.TRAJ_NS, TRAJ_REPLICAS,
                                master_seed=base + 2, workers=1)
    with rec.span("montecarlo.concentration_curve"):
        curve = hc.concentration_curve(plain, workloads.TRAJ_DELTA)
    rec.check(curve == [(a.n_vertices, a.dev_freq) for a in traj_result.aggregates],
              "concentration_curve differs from the sweep aggregates")
    engine_section(hc, seed, workdir, rec)
    analysis_section(hc, seed, workdir, rec, traj_result)
    cli_section(hc, seed, workdir, rec)
    rec.host.tick()
    wall = time.perf_counter() - t0 - (rec.host.burst_s - bursts0)
    return {"pass_wall_s": wall}


def pool_probe(hc, seed: int, rec: Recorder) -> float:
    """Wall of the sweep-long configuration with one worker over two workers."""
    ex1 = hc.from_graph_params(*EX1)
    walls, results = [], []
    for workers in (1, 2):
        cfg = hc.ExperimentConfig(ex1, (workloads.SWEEP_LONG_N,), POOL_REPLICAS,
                                  master_seed=seed * 1_000_003 + 3, workers=workers)
        t0 = time.perf_counter()
        results.append(hc.run_replicas(cfg))
        walls.append(time.perf_counter() - t0)
    rec.check(results[0].records == results[1].records, "pool: records depend on workers")
    return walls[0] / walls[1]


def cli_probe(hc, seed: int, workdir: str, rec: Recorder) -> list[float]:
    """The same invocations as fresh processes; returns their scaled times in ms."""
    out = workloads.Cli(hc, seed, workdir, rec.host).round(0, None)
    rec.checked += out["ops"]
    rec.errors.extend(out["errors"])
    return [1e3 * dt * rec.host.scale_for(t0, dt) for t0, dt, _, _ in out["samples"]]


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_probe(host: HostSpeed) -> dict:
    """Median import costs from `-X importtime`, and the bare import process wall,
    scaled to the reference host."""
    env = child_env()
    rows = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypercollapse"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        self_us = defaultdict(int)
        for m in _IMPORT_LINE.finditer(proc.stderr):
            own, cumulative, indent, name = int(m[1]), int(m[2]), m[3], m[4]
            top = name.split(".")[0]
            self_us[top] += own
            if name == "hypercollapse" and not indent:
                rows["hypercollapse"].append(cumulative / 1e6)
        rows["numpy"].append(self_us["numpy"] / 1e6)
        rows["scipy"].append(self_us["scipy"] / 1e6)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hypercollapse"], env=env,
                       timeout=60, check=True)
        rows["process"].append((t0, time.perf_counter() - t0))
        host.tick()
    # -X importtime figures are scaled by the run's scale, the process wall locally
    k = host.scale()
    out = {name: k * statistics.median(v) for name, v in rows.items() if name != "process"}
    out["process"] = statistics.median(dt * host.scale_for(t0, dt)
                                       for t0, dt in rows["process"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    hc = import_package()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="layers-", dir=WORK)
    rec = Recorder(bool(args.traced))
    try:
        out = run_pass(hc, args.seed, workdir, rec)
        if not args.traced:
            out["pool_speedup_2w"] = pool_probe(hc, args.seed, rec)
            out["cli_subprocess_ms"] = cli_probe(hc, args.seed, workdir, rec)
            out["import"] = import_probe(rec.host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.update(host_scale=rec.host.scale(), spans=rec.summary(), calls=dict(rec.calls),
               counts=dict(rec.counts),
               checked=rec.checked, failed=len(rec.errors), errors=rec.errors[:20])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
