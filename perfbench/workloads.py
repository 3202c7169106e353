"""One workload in its own process: set up, warm up, then a timed closed loop.

    python3 perfbench/workloads.py <workload> --seed S --seconds T --mode setup|measure

The process prints `READY` once set-up (interpreter start, package import,
inputs, and for in-process workloads one untimed warm-up op) is done; the
parent times set-up from spawn to that line.  In `measure` mode it then runs
rounds, each op after the previous one finishes, until `--seconds` have
passed, checks every op's outputs, and prints one JSON result line with op
times scaled to the reference host (common.HostSpeed).

Ops and latency samples per workload:
  sweep-long  op = one replica; a round is one `run_replicas` call of 12
              replicas at N=1e5, and its latency sample is the call's wall
              time per replica (per-replica time is not observable from
              outside `run_replicas`).
  sweep-traj  op = one replica; a round is one `run_replicas` call with the
              configuration `concentration_curve` builds for criterion 11
              (N = 2000, 4000, 8000, delta 0.05, trajectories on), 100
              replicas per N; latency as for sweep-long.
  engine      op = one instance (sample, collapse, peel, write, read); a
              round is one N=1e5 EX1 instance and three N=3e4 degree-3
              instances, each followed by 25 tiny N=6 instances.
  cli         op = one `python -m hypercollapse.cli` process; a round is
              one pass over `clicalls.calls`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import replace

import clicalls
from common import (DEFAULT_SEED, EX1, WORK, Z_STAR_EX1, Digest, HostSpeed,
                    child_env, expected_digest, import_package)

SWEEP_LONG_N = 100_000
SWEEP_LONG_REPLICAS = 12
TRAJ_NS = (2000, 4000, 8000)
TRAJ_REPLICAS = 100
TRAJ_DELTA = 0.05
TINY = ((0.2, 0.3, 0.4), 6)
LARGE = (("ex1", 100_000), ((0.05, 0.3, 0.6, 0.4), 30_000))
TINY_PER_BLOCK = 25
WARMUP_ROUND = 1 << 30      # engine warm-up input, never a timed round
CLI_TIMEOUT_S = 60


class Workload:
    """Inputs, ops and checks of one workload; `round` runs and times one round."""

    in_process = True
    burst = "cpu"               # HostSpeed kind that calibrates the ops

    def __init__(self, hc, seed: int, workdir: str, host: HostSpeed) -> None:
        self.hc = hc
        self.seed = seed
        self.workdir = workdir
        self.host = host
        self.ex1 = hc.from_graph_params(*EX1)

    def master_seed(self, index: int) -> int:
        """Sweep master seed of round `index`; the warm-up uses index -1."""
        return self.seed * 1_000_003 + index + 1


class SweepLong(Workload):
    def config(self, index: int):
        return self.hc.ExperimentConfig(self.ex1, (SWEEP_LONG_N,), SWEEP_LONG_REPLICAS,
                                        master_seed=self.master_seed(index), workers=1)

    def call(self, index: int):
        return self.hc.run_replicas(self.config(index))

    def check(self, result, digest) -> tuple[int, list[str]]:
        """Returns (failed replicas, messages); adds records to the digest."""
        failed, msgs = 0, []
        for r in result.records:
            ok = 0 < r.stop_step <= r.n_vertices and r.debris_frac >= r.v_star_frac
            if not ok:
                failed += 1
                msgs.append(f"replica {r.replica} at N={r.n_vertices}: {r}")
            if digest is not None:
                digest.add(r.n_vertices, r.replica, r.seed, r.v_star_frac,
                           r.debris_frac, r.stop_step,
                           "-" if r.deviation is None else r.deviation)
        if digest is not None:
            for agg in result.aggregates:
                digest.add(agg.n_vertices, agg.mean_v, agg.var_v, agg.mean_debris,
                           "-" if agg.dev_freq is None else agg.dev_freq)
        return failed, msgs + self.check_aggregates(result)

    def check_aggregates(self, result) -> list[str]:
        mean_v = result.aggregates[0].mean_v
        if abs(mean_v - Z_STAR_EX1) > 0.01:
            return [f"mean_v {mean_v} not within 0.01 of z_star {Z_STAR_EX1}"]
        return []

    def round(self, index: int, digest, deadline: float = math.inf) -> dict:
        config = self.config(index)
        n = len(config.n_values) * config.replicas
        t0 = time.perf_counter()
        try:
            result = self.call(index)
        except Exception as exc:
            return {"ops": n, "failed": n, "samples": [], "errors": [repr(exc)]}
        wall = time.perf_counter() - t0
        self.host.after(wall)
        try:
            failed, msgs = self.check(result, digest)
        except Exception as exc:  # a check that cannot run fails the whole call
            failed, msgs = n, [repr(exc)]
        if msgs and not failed:
            failed = n  # an aggregate-level failure fails the call's replicas
        steps = sum(r.stop_step for r in result.records)
        return {"ops": n, "failed": failed, "samples": [(t0, wall, n, steps)],
                "errors": msgs}

    def warmup(self) -> None:
        """One replica per vertex count, with the round's other settings."""
        self.hc.run_replicas(replace(self.config(-1), replicas=1))


class SweepTraj(SweepLong):
    def config(self, index: int):
        return self.hc.ExperimentConfig(self.ex1, TRAJ_NS, TRAJ_REPLICAS,
                                        master_seed=self.master_seed(index),
                                        delta=TRAJ_DELTA, record_trajectory=True,
                                        workers=1)

    def check_aggregates(self, result) -> list[str]:
        msgs = []
        if [a.n_vertices for a in result.aggregates] != list(TRAJ_NS):
            msgs.append("aggregate rows do not follow N")
        for agg in result.aggregates:
            group = [r for r in result.records if r.n_vertices == agg.n_vertices]
            devs = [r.deviation for r in group]
            if len(group) != TRAJ_REPLICAS or any(d is None or not d >= 0.0 for d in devs):
                msgs.append(f"N={agg.n_vertices}: missing or bad deviations")
                continue
            freq = sum(d > TRAJ_DELTA for d in devs) / len(devs)
            if abs(agg.dev_freq - freq) > 1e-12:
                msgs.append(f"N={agg.n_vertices}: dev_freq {agg.dev_freq} != {freq}")
        return msgs


class Engine(Workload):
    def __init__(self, hc, seed: int, workdir: str, host: HostSpeed) -> None:
        super().__init__(hc, seed, workdir, host)
        tiny = (hc.BetaSeries(TINY[0]), TINY[1])
        large = [(self.ex1 if b == "ex1" else hc.BetaSeries(b), n) for b, n in LARGE]
        # The tail is the 11th slowest op, so the slowest kind (the degree-3
        # instance) comes three times a round: at least 11 of them in a run.
        block = [tiny] * TINY_PER_BLOCK
        self.mix = [large[0], *block] + [large[1], *block] * 3
        self.path = os.path.join(workdir, "h.hgx")

    def op(self, series, n: int, rng):
        hc = self.hc
        h = hc.sample_poisson(n, series, rng)
        outcome = hc.collapse_all(h, rng)
        peeled = hc.identifiable_set(h)
        hc.write_hypergraph(h, self.path)
        back = hc.read_hypergraph(self.path)
        return h, outcome, peeled, back

    def rng(self, rnd: int, slot: int):
        import numpy as np
        return np.random.Generator(np.random.PCG64([self.seed, rnd, slot]))

    def check(self, h, outcome, peeled, back) -> str:
        ident = outcome.identified
        if len(set(ident)) != len(ident) or set(ident) != peeled:
            return "identified set differs from identifiable_set"
        if outcome.stable.stats().total != h.stats().total:
            return "edge total not conserved"
        if back != h:
            return "read_hypergraph(write_hypergraph(h)) != h"
        return ""

    def round(self, index: int, digest, deadline: float = math.inf) -> dict:
        out = {"ops": 0, "failed": 0, "samples": [], "errors": []}
        for slot, (series, n) in enumerate(self.mix):
            rng = self.rng(index, slot)
            t0 = time.perf_counter()
            try:
                h, outcome, peeled, back = self.op(series, n, rng)
                msg = ""
            except Exception as exc:
                msg = repr(exc)
            dt = time.perf_counter() - t0
            self.host.after(dt)
            out["ops"] += 1
            removals = 0
            if not msg:
                try:
                    msg = self.check(h, outcome, peeled, back)
                    removals = len(outcome.identified)
                    if digest is not None:
                        with open(self.path, "rb") as fh:
                            digest.add(fh.read(), *sorted(outcome.identified),
                                       *outcome.stable.stats(),
                                       outcome.identifiable_edge_count)
                except Exception as exc:
                    msg = repr(exc)
            out["samples"].append((t0, dt, 1, removals))
            if msg:
                out["failed"] += 1
                out["errors"].append(f"round {index} slot {slot}: {msg}")
        return out

    def warmup(self) -> None:
        """One tiny instance: a large one would time page faults, not set-up."""
        series, n = self.mix[1]
        self.op(series, n, self.rng(WARMUP_ROUND, 1))


class Cli(Workload):
    """Users pay interpreter start and import on every call: no warm-up.

    A pass takes about half the run, so whole passes would make the op count
    jump with host speed; passes after the first stop at the deadline.
    """

    in_process = False
    burst = "process"

    def round(self, index: int, digest, deadline: float = math.inf) -> dict:
        d = os.path.join(self.workdir, f"pass{index}")
        clicalls.prepare(self.seed, index, d)
        out = {"ops": 0, "failed": 0, "samples": [], "errors": []}
        env = child_env()
        for name, argv, want_rc in clicalls.calls(self.seed, index, d):
            if index > 0 and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "hypercollapse.cli", *argv],
                                      env=env, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                proc = subprocess.CompletedProcess(exc.cmd, None, "", f"timed out: {exc}")
            dt = time.perf_counter() - t0
            self.host.after(dt)
            out["ops"] += 1
            msg, removals = "", 0
            if proc.returncode != want_rc:
                msg = f"exit {proc.returncode}, expected {want_rc}: {proc.stderr[-300:]}"
            elif want_rc == 2 and "usage:" not in proc.stderr:
                msg = "usage error without a usage message"
            elif want_rc == 1 and not proc.stderr.startswith("error: "):
                msg = "runtime error without an 'error:' line"
            else:
                try:
                    removals = clicalls.check(name, d)
                except Exception as exc:
                    msg = repr(exc)
            out["samples"].append((t0, dt, 1, removals))
            if digest is not None:
                digest.add(name, proc.returncode)
            if msg:
                out["failed"] += 1
                out["errors"].append(f"pass {index} {name}: {msg}")
        if digest is not None:
            for path in clicalls.output_files(d):
                with open(path, "rb") as fh:
                    digest.add(os.path.relpath(path, d), fh.read())
        shutil.rmtree(d)
        return out

    def warmup(self) -> None:
        pass


KINDS = {"sweep-long": SweepLong, "sweep-traj": SweepTraj, "engine": Engine, "cli": Cli}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(KINDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = ap.parse_args()

    hc = import_package()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        kind = KINDS[args.workload]
        host = HostSpeed(kind.burst)
        wl = kind(hc, args.seed, workdir, host)
        wl.warmup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0

        digest = Digest()
        rounds, t_start = [], time.perf_counter()
        deadline = t_start + args.seconds
        while not rounds or time.perf_counter() < deadline:
            # only the first round feeds the digest, so its input is fixed
            rounds.append(wl.round(len(rounds), digest if not rounds else None, deadline))
        measured = time.perf_counter() - t_start
        # Scale each sample by the bursts around it.  A typical round is the
        # sum over its op slots of each slot's median across rounds, so a
        # cut-off last round still counts and one slow op does not set it.
        latencies, busy = [], 0.0
        slots = defaultdict(lambda: ([], []))
        for r in rounds:
            for i, (t0, dt, n, removals) in enumerate(r["samples"]):
                scaled = dt * host.scale_for(t0, dt)
                latencies.append(1e3 * scaled / n)
                busy += scaled
                slots[i][0].append(scaled)
                slots[i][1].append(removals)

        usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                                   else resource.RUSAGE_CHILDREN)
        want = expected_digest(args.workload) if args.seed == DEFAULT_SEED else None
        got = digest.hexdigest()
        errors = [e for r in rounds for e in r["errors"]]
        if want is not None and got != want:
            errors.append(f"digest {got} != committed {want}")
        print(json.dumps({
            "ops": sum(r["ops"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds)
                      + (1 if want is not None and got != want else 0),
            "measured_s": measured,
            "rounds": len(rounds),
            "busy_s": busy,
            "latencies_ms": latencies,
            "round_wall_s": sum(statistics.median(s) for s, _ in slots.values()),
            "round_removals": sum(statistics.median(m) for _, m in slots.values()),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "host_scale": host.scale(),
            "digest": got,
            "digest_checked": want is not None,
            "errors": errors[:20],
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
