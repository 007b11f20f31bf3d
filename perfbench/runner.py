"""Run one workload's jobs through removal_lab.cli.main, one after another.

    python3 perfbench/runner.py --jobs DIR/jobs.json --seconds 30 --trace 0 --out DIR/results.json

A closed loop with one client: this single process runs every job of the
workload in order (one pass), then repeats passes while another one still
fits in --seconds.  The first pass is a warm-up (lazy imports, file cache):
its reports are kept and checked, its times are not used; at least
MIN_PASSES timed passes follow it.  Each job's stdout, exit code and
traceback are kept from the first pass; later passes must print the same
bytes.  With --trace 1 untraced and traced passes alternate, so the tracing
overhead is measured in the same run and every traced report is compared
byte for byte with the untraced one.  Before every job of a timed pass
the runner has reference.py time its kernel, so that run.py can scale the
run's times to a reference machine speed.  Without tracing it also times a fresh
interpreter importing removal_lab.cli between jobs of the timed passes, at
most once every SETUP_GAP_S seconds, so that the set-up samples are spread
over the whole run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

import removal_lab.cli as cli
from tracer import Tracer, metric_units

MIN_PASSES = 3
SETUP_GAP_S = 1.5
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import removal_lab.cli; print(time.perf_counter() - t)"


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


class SpeedProbe:
    """The reference.py process, asked for one kernel timing at a time."""

    def __init__(self):
        here = os.path.dirname(os.path.abspath(__file__))
        self.proc = subprocess.Popen([sys.executable, os.path.join(here, "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> list[float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference.py exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def peak_rss_mb() -> float:
    """High-water RSS of this process image.  VmHWM starts afresh at exec;
    ru_maxrss does not (it keeps the forking parent's size), so it is only
    the fallback where /proc is missing."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_import() -> float:
    """Seconds a fresh interpreter takes to import removal_lab.cli."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing removal_lab.cli failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout)


def run_job(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    tb = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        tb = traceback.format_exc()
    seconds = perf_counter() - start
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "traceback": tb, "s": seconds}


def run(jobs: list[dict], seconds: float, trace: bool, spans_path: str | None) -> dict:
    probe = SpeedProbe()
    try:
        return _run(jobs, seconds, trace, spans_path, probe)
    finally:
        probe.close()


def _run(jobs: list[dict], seconds: float, trace: bool, spans_path: str | None, probe: SpeedProbe) -> dict:
    tracer = Tracer() if trace else None
    first: dict[str, dict] = {}
    mismatched = {job["id"]: 0 for job in jobs}
    passes = []
    setup: list[tuple[float, list[float]]] = []  # (seconds of a fresh import, kernel parts timed right after it)
    if not trace:
        time_import()  # warm-up: bytecode caches
    last_import = float("-inf")
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        traced = trace and len(passes) % 2 == 1
        warmup = not passes
        sample_setup = not (warmup or trace)
        if traced:
            tracer.install()
            tracer.begin_pass()
        times, refs = [], []
        for job in jobs:
            if sample_setup and perf_counter() - last_import >= SETUP_GAP_S:
                last_import = perf_counter()
                imported = time_import()
                refs.append(probe.measure())
                setup.append((imported, refs[-1]))
            elif not warmup:  # traced passes too, so that both kinds run the same way
                refs.append(probe.measure())
            res = run_job(job["argv"])
            times.append(res.pop("s"))
            seen = first.setdefault(job["id"], res)
            if seen is not res and seen != res:
                mismatched[job["id"]] += 1
        wall = sum(times)
        if traced:
            tracer.end_pass()
            tracer.uninstall()
        passes.append({"traced": traced, "warmup": warmup, "wall_s": wall, "job_s": times, "ref_s": refs})
        # trace: warm-up, then traced/untraced pairs, so the run ends untraced
        timed = len(passes) - 1
        enough = timed >= 2 and timed % 2 == 0 if trace else timed >= MIN_PASSES
        now = perf_counter()
        if enough and now - start + (now - pass_start) * (2 if trace else 1) > seconds:
            break
    result = {
        "env": environment(),
        "passes": passes,
        "setup": setup,
        "reports": first,
        "mismatched": mismatched,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        per_pass = [tracer.pass_metrics(i) for i in range(len(tracer.passes))]
        units = metric_units()
        # times: median over traced passes; counts and ratios must repeat exactly
        result["layers"] = {
            k: statistics.median(m[k] for m in per_pass) if units[k] == "s" else per_pass[0][k] for k in units
        }
        result["counts_repeat"] = all(m[k] == per_pass[0][k] for m in per_pass for k in units if units[k] != "s")
        if spans_path:
            tracer.write(spans_path)
    return result


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    a = ap.parse_args()
    with open(a.jobs) as fh:
        job_list = json.load(fh)
    res = run(job_list, a.seconds, bool(a.trace), a.spans)
    with open(a.out, "w") as fh:
        json.dump(res, fh)
    sys.exit(0)
