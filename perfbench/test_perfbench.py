"""Self-tests of the benchmark harness (python3 -m pytest perfbench -q)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in _bench()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    text = "\n".join(lines[:-1])
    for name in ("wall_s", "job_s.p50", "setup_s", "peak_rss_mb", "failed_frac"):
        assert name in text
    if trace:
        for name in tracer.metric_units():
            assert name in text
        assert "counts repeat exactly" in text


def test_run_without_program_sources_fails_without_result(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as src, open(tmp_path / "BENCHMARK.json", "wb") as dst:
        dst.write(src.read())
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            with open(os.path.join(HERE, name), "rb") as src, open(tmp_path / "perfbench" / name, "wb") as dst:
                dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def tiny_count(tmp_path_factory):
    """A real tiny count workload: jobs on disk and one report per job."""
    out = str(tmp_path_factory.mktemp("count"))
    jobs = gen.generate("count", 1, "tiny", out)
    return jobs, {job["id"]: runner.run_job(job["argv"]) for job in jobs}


def _results(reports: dict, passes: int = 2) -> dict:
    return {"passes": [{}] * passes, "reports": reports, "mismatched": {k: 0 for k in reports}}


def test_gate_accepts_real_reports(tiny_count):
    jobs, reports = tiny_count
    assert check.gate(jobs, _results(reports), 1, "tiny") == (2 * len(jobs), 0, {})


@pytest.mark.parametrize("corrupt", ["count", "garbage", "traceback", "exit1", "missing_field", "nondeterministic"])
def test_corrupted_report_counts_as_failure(tiny_count, corrupt):
    jobs, reports = tiny_count
    reports = {k: dict(v) for k, v in reports.items()}
    results = _results(reports)
    victim = reports[jobs[0]["id"]]
    report = json.loads(victim["stdout"])
    if corrupt == "count":
        report["instances"] += 1
        victim["stdout"] = json.dumps(report)
    elif corrupt == "garbage":
        victim["stdout"] = "{not json"
    elif corrupt == "traceback":
        victim["traceback"] = "Traceback (most recent call last):\nZeroDivisionError: division by zero\n"
    elif corrupt == "exit1":
        victim["exit"] = 1
    elif corrupt == "missing_field":
        del report["nonzero_instances"]
        victim["stdout"] = json.dumps(report)
    else:
        results["mismatched"][jobs[0]["id"]] = 1
    attempted, failed, reasons = check.gate(jobs, results, 1, "tiny")
    assert attempted == 2 * len(jobs)
    assert failed == (1 if corrupt == "nondeterministic" else 2)
    assert list(reasons) == [jobs[0]["id"]]


def test_repainted_recoloring_counts_as_failure(tmp_path):
    jobs = gen.generate("recolor", 1, "tiny", str(tmp_path))
    job = jobs[0]
    record = runner.run_job(job["argv"])
    reports = {job["id"]: record}
    assert check.gate([job], _results(reports), 1, "tiny") == (2, 0, {})
    report = json.loads(record["stdout"])
    assert report["model"]["codim_v1"] == job["spec"]["coloring"]["n"]
    # repaint a few points and report the change honestly: still within the
    # eps budget, but a trivial model leaves every point as it was
    with open(job["files"]["out"]) as fh:
        header, *colors = fh.read().splitlines()
    for i in range(1, 4):
        colors[i] = str(3 - int(colors[i])) if job["spec"]["coloring"]["r"] == 2 else str(int(colors[i]) % 3 + 1)
    with open(job["files"]["out"], "w") as fh:
        fh.write("\n".join([header, *colors]) + "\n")
    report["changed_count"] = 3
    record["stdout"] = json.dumps(report)
    attempted, failed, reasons = check.gate([job], _results(reports), 1, "tiny")
    assert failed == 2 and "trivial model" in reasons[job["id"]]


def test_report_with_extra_fields_still_passes(tiny_count):
    jobs, reports = tiny_count
    reports = {k: dict(v) for k, v in reports.items()}
    for record in reports.values():
        report = json.loads(record["stdout"])
        report["model_trivial"] = True
        record["stdout"] = json.dumps(report)
    assert check.gate(jobs, _results(reports), 1, "tiny")[1] == 0


def test_tracing_keeps_report_bytes_and_restores_bindings(tmp_path):
    import removal_lab.patterns as patterns
    import removal_lab.removal as removal

    originals = (patterns.pattern_stats, removal.pattern_stats, removal.Space.coset_points)
    jobs = []
    for workload in workloads.WORKLOADS:
        jobs += gen.generate(workload, 1, "tiny", str(tmp_path / workload))
    plain = [runner.run_job(job["argv"]) for job in jobs]
    t = tracer.Tracer()
    t.install()
    try:
        assert removal.pattern_stats is not originals[1]
        t.begin_pass()
        traced = [runner.run_job(job["argv"]) for job in jobs]
        t.end_pass()
    finally:
        t.uninstall()
    assert (patterns.pattern_stats, removal.pattern_stats, removal.Space.coset_points) == originals
    for a, b in zip(plain, traced):
        assert a["traceback"] is None
        assert (a["exit"], a["stdout"]) == (b["exit"], b["stdout"])
    metrics = t.pass_metrics(0)
    assert set(metrics) == set(tracer.metric_units())
    assert metrics["cli.main.calls"] == len(jobs)
    assert metrics["removal.induced_removal.calls"] == sum(
        m for k, m in metrics.items() if k.startswith("removal.outcome.")
    )
