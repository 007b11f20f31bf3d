"""The removal-lab benchmark: run one workload through the CLI, check every
report, and print its metrics.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from src/.  Steps,
each in its own process so that none of them inflates another's numbers:

1. gen.py writes the workload's inputs for --seed under .perfbench/;
2. runner.py runs the jobs through removal_lab.cli.main, passes repeated for
   about --seconds (closed loop, one client, one process), has reference.py
   time a fixed kernel before every job, and between jobs times fresh
   interpreters importing removal_lab.cli (setup_s); wall_s, job_s.p50 and
   setup_s are scaled by the kernel, timing by timing, to a reference
   machine speed (see NOTES.md);
3. check.py re-checks every report here, independently of the library.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric with its unit and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
REF_NOMINAL_S = 0.03
STEP_TIMEOUT = 150  # seconds beyond --seconds that any one step may take

END_TO_END = {"wall_s": "s", "job_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics printed on the last line: every count and ratio, and the
# times that are nonzero on all three workloads; the times of layers that a
# workload does not reach are printed in the table above it
TRACE_TIMES = ("cli.main.s", "cli.self_s", "space.read_coloring.s", "space.self_s", "fields.self_s")


def child_env() -> dict:
    """The environment of every step: src/ on the path, BLAS/OpenMP capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= nproc):
            env[var] = str(nproc)
    return env


def step(args: list[str], env: dict, timeout: float) -> str:
    """Run one step to completion and return its stdout; raise on failure."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(args[0])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def per_layer(layers: dict) -> dict:
    units = tracer.metric_units()
    keep = [m for m, u in units.items() if u != "s" or m in TRACE_TIMES]
    return {m: {"value": layers[m], "unit": units[m]} for m in keep}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    env = child_env()
    run_dir = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{int(trace)}-{size}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    step([os.path.join(HERE, "gen.py"), "--workload", workload, "--seed", str(seed), "--size", size, "--out", run_dir],
         env, STEP_TIMEOUT)
    results_path = os.path.join(run_dir, "results.json")
    runner_args = [os.path.join(HERE, "runner.py"), "--jobs", os.path.join(run_dir, "jobs.json"),
                   "--seconds", str(seconds), "--trace", str(int(trace)), "--out", results_path]
    if trace:
        runner_args += ["--spans", os.path.join(run_dir, "spans.npz")]
    step(runner_args, env, seconds + STEP_TIMEOUT)
    jobs = check.read_json(os.path.join(run_dir, "jobs.json"))
    results = check.read_json(results_path)
    attempted, failed, reasons = check.gate(jobs, results, seed, size)

    timed = [p for p in results["passes"] if not p["warmup"]]
    plain = [p for p in timed if not p["traced"]]
    # every job is scaled by the kernel timed just before it, every fresh
    # import by the kernel timed just after it (see NOTES.md)
    scaled = [[t * REF_NOMINAL_S / sum(r) for t, r in zip(p["job_s"], p["ref_s"])] for p in plain]
    raw = {"wall_s": statistics.median(p["wall_s"] for p in plain),
           "job_s.p50": statistics.median(t for p in plain for t in p["job_s"])}
    e2e = {"wall_s": statistics.median(map(sum, scaled)), "job_s.p50": statistics.median(t for s in scaled for t in s)}
    if results["setup"]:  # none in traced runs
        raw["setup_s"] = statistics.median(t for t, _ in results["setup"])
        e2e["setup_s"] = statistics.median(t * REF_NOMINAL_S / sum(r) for t, r in results["setup"])
    e2e["peak_rss_mb"] = results["peak_rss_mb"]
    summary = {
        "ref_s": statistics.median(sum(r) for p in plain for r in p["ref_s"]),
        "raw": raw,
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "env": results["env"],
        "jobs": len(jobs),
        "passes": len(plain),
        "warmup_wall_s": results["passes"][0]["wall_s"],
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "end_to_end": e2e,
        "samples": {"wall_s": len(plain), "job_s.p50": len(plain) * len(jobs), "setup_s": len(results["setup"]),
                    "peak_rss_mb": 1},
    }
    if trace:
        traced = [p["wall_s"] for p in timed if p["traced"]]
        layers = dict(results["layers"])
        layers["trace_overhead_frac"] = statistics.median(traced) / raw["wall_s"] - 1
        summary["layers"] = layers
        summary["traced_passes"] = len(traced)
        summary["traced_wall_s"] = statistics.median(traced)
        summary["counts_repeat"] = results["counts_repeat"]
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def print_summary(s: dict) -> None:
    env = s["env"]
    print(f"perfbench workload={s['workload']} seed={s['seed']} size={s['size']} trace={s['trace']} "
          f"jobs={s['jobs']} timed_untraced_passes={s['passes']} (after one warm-up pass)")
    print(f"env nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} numpy={env['numpy']} "
          f"blas_threads={env['blas_threads']} (BLAS/OpenMP capped at nproc)")
    e2e, n = s["end_to_end"], s["samples"]
    print(f"  reference kernel {s['ref_s']:.4f} s (median of {n['job_s.p50']}); raw "
          + " ".join(f"{k}={v:.4f}" for k, v in s["raw"].items()))
    print(f"  {'wall_s':<14}{e2e['wall_s']:12.4f} s    median of {n['wall_s']} passes of all {s['jobs']} jobs")
    print(f"  {'(warm-up)':<14}{s['warmup_wall_s']:12.4f} s    first pass, not in wall_s")
    print(f"  {'job_s.p50':<14}{e2e['job_s.p50']:12.4f} s    median of {n['job_s.p50']} job runs")
    if "setup_s" in e2e:
        print(f"  {'setup_s':<14}{e2e['setup_s']:12.4f} s    median of {n['setup_s']} fresh imports of removal_lab.cli")
    else:
        print(f"  {'setup_s':<14}{'-':>12}      not measured in traced runs")
    print(f"  {'peak_rss_mb':<14}{e2e['peak_rss_mb']:12.2f} MB   peak RSS of the one job-runner process")
    frac = s["failed"] / s["attempted"]
    print(f"  {'failed_frac':<14}{frac:12.4f}      {s['failed']} failed of {s['attempted']} job runs")
    for job_id, reason in s["reasons"].items():
        print(f"    FAILED {job_id}: {reason}")
    if s["trace"]:
        units = tracer.metric_units()
        print(f"  traced wall_s {s['traced_wall_s']:.4f} s (median of {s['traced_passes']} traced passes); "
              f"per-layer times are medians over traced passes; counts "
              f"{'repeat exactly' if s['counts_repeat'] else 'DIFFER'} across them")
        for name, value in s["layers"].items():
            unit = units.get(name, "frac")
            text = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"  {name:<40}{text:>16} {unit}")


def result_line(s: dict) -> str:
    if s["trace"]:
        metrics = per_layer(s["layers"])
        metrics["trace_overhead_frac"] = {"value": s["layers"]["trace_overhead_frac"], "unit": "frac"}
    else:
        metrics = {m: {"value": s["end_to_end"][m], "unit": u} for m, u in END_TO_END.items()}
    return json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"],
                       "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny: small inputs for the self-tests")
    a = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "removal_lab", "cli.py")):
        sys.stderr.write(f"perfbench: no removal_lab sources under {SRC}; run from the root of a checkout\n")
        return 2
    names = workloads.WORKLOADS if a.workload == "all" else (a.workload,)
    for name in names:
        try:
            summary = run_workload(name, a.seed, a.seconds, bool(a.trace), a.size)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"perfbench: {name}: {exc}\n")
            return 1
        print_summary(summary)
        print(result_line(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
