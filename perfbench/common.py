"""Shared inputs, pinned values, checks and statistics of the benchmark.

Nothing here imports the package at module level: `run.py` imports this
module in the orchestrating process, which stays light, while the
workload processes import the package from the checkout's `src/`.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

DEFAULT_SEED = 0
TAIL_BEYOND = 10          # ops that must lie above the reported tail percentile

# EX1: the open-vertex graph model, p=0.1 and alpha=0.5.
EX1 = (0.1, 0.5)
# Pinned from the paper's models; an output outside these is a failed op.
Z_STAR_EX1 = 0.17568566620155951
ALPHA_C = 1194.7141409861797        # tangency of 0.1+0.9t family, degree 7
ZETA0 = 0.022529070947337082
OVERLAP_1200 = 5792.0               # criterion 3: within 1%
PIN_REL = 1e-9


# Host-speed calibration.  The benchmark runs on shared machines whose speed
# drifts by tens of percent within seconds and minutes.  A fixed reference
# burst runs interleaved with the timed ops in the same process, and each
# op's time is scaled by REF_BURST_S[kind] over the mean duration of the
# bursts just before and just after it, which cancels most of the drift.
# Scaled times are those of a host where a burst takes REF_BURST_S[kind],
# about what it took on an idle 2-core machine.  Contention slows starting
# a process more than interpreter work, so work that starts processes is
# scaled by the "process" burst and the rest by the "cpu" burst.
REF_BURST_S = {"cpu": 0.003, "process": 0.04}
REF_SHARE = 0.04          # burst time per unit of timed work
BRACKET = 2


class HostSpeed:
    """Reference bursts interleaved with timed work, and the scale they give."""

    def __init__(self, kind: str = "cpu") -> None:
        import numpy as np
        self._binomial = np.random.default_rng(12345).binomial
        self._burst = self._process_burst if kind == "process" else self._cpu_burst
        self.ref_s = REF_BURST_S[kind]
        self._mid: list[float] = []       # burst midpoints, increasing
        self._dur: list[float] = []
        self.burst()                      # warm, not counted
        self._mid.clear()
        self._dur.clear()
        self._debt = 0.0
        self._last = time.perf_counter()

    @property
    def burst_s(self) -> float:
        return sum(self._dur)

    def _cpu_burst(self) -> None:
        """Interpreter, small dict/set and numpy scalar work."""
        binomial = self._binomial
        table, seen, acc = {}, set(), 0
        for k in range(4000):
            table[k & 1023] = k
            seen.add(k % 777)
            acc += int(binomial(5, 0.3))

    @staticmethod
    def _process_burst() -> None:
        """Start and end a bare interpreter."""
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)

    def burst(self) -> float:
        """Run one burst; returns its time.  The cyclic garbage collector is
        off during it, as a pass over the ops' live objects is not host speed."""
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._burst()
            dt = time.perf_counter() - t0
        finally:
            if gc_was_on:
                gc.enable()
        self._mid.append(t0 + dt / 2)
        self._dur.append(dt)
        return dt

    def after(self, work_s: float) -> None:
        """Run bursts worth REF_SHARE of the timed work just done, and at least
        BRACKET of them after work long enough to carry its own scale."""
        self._debt += REF_SHARE * work_s
        need = BRACKET if work_s * REF_SHARE >= self.ref_s / 2 else 0
        while self._debt > 0.0 or need > 0 or not self._dur:
            self._debt -= self.burst()
            need -= 1

    def tick(self) -> None:
        """`after` for the work done since the previous tick."""
        self.after(time.perf_counter() - self._last)
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Scale of the whole run: multiply a measured time by it."""
        return self.ref_s * len(self._dur) / sum(self._dur)

    def scale_for(self, t0: float, dt: float) -> float:
        """Scale for work that ran from t0 for dt seconds, from the BRACKET
        bursts just before it and the BRACKET bursts just after it."""
        lo = bisect.bisect_right(self._mid, t0)
        hi = bisect.bisect_left(self._mid, t0 + dt)
        picked = self._dur[max(0, lo - BRACKET):lo] + self._dur[hi:hi + BRACKET]
        return self.ref_s * len(picked) / sum(picked)


def workloads() -> dict[str, str]:
    """Workload name -> one-line rationale, as BENCHMARK.json records them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {w["name"]: w["why"] for w in json.load(fh)["workloads"]}


def family_coeffs(alpha: float, base: float = 0.1, slope: float = 0.9,
                  power: int = 7) -> tuple[float, ...]:
    """Coefficients of alpha*(base + slope*t)**power, computed independently."""
    return tuple(alpha * math.comb(power, j) * base ** (power - j) * slope ** j
                 for j in range(power + 1))


def close(value: float, pin: float, rel: float = PIN_REL) -> bool:
    return abs(value - pin) <= rel * abs(pin)


def fmt(x) -> str:
    """17-significant-digit text of a number, as the package writes floats."""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


class Digest:
    """sha256 over the serialized outputs of a workload's first round."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, bytes):
                self._h.update(part)
            else:
                self._h.update(fmt(part).encode() if isinstance(part, (int, float))
                               else str(part).encode())
            self._h.update(b"\x1f")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def expected_digest(workload: str):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile, to 0.1, with at least TAIL_BEYOND of n ops above
    it; never below the median, so with few ops the tail is the median."""
    return max(50.0, math.floor(1000.0 * (1.0 - TAIL_BEYOND / n)) / 10.0)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout read from its .git directory, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "not installed"


def context(seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def child_env() -> dict:
    """Environment of every process the benchmark starts: the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_package():
    """Import hypercollapse and refuse a copy from outside this checkout."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hypercollapse
    if not os.path.abspath(hypercollapse.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hypercollapse imported from {hypercollapse.__file__}, "
                         f"not from {SRC}")
    return hypercollapse
