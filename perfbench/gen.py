"""Write the input files of one workload and the job list that uses them.

    python3 perfbench/gen.py --workload count --seed 1 --size full --out DIR

Runs in its own process, so the memory that input generation takes does not
count toward the job runner's peak RSS.  Every file is written with the
library's public writers.  DIR/jobs.json lists, per job, the CLI argv and the
job description from workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os

import workloads
from removal_lab.patterns import Pattern, write_family, write_pattern
from removal_lab.ramsey import canonical_coloring
from removal_lab.space import Coloring, Space, write_coloring


def _pattern(d: dict) -> Pattern:
    return Pattern(d["p"], d["r"], d["rows"], tuple(d["psi"]))


def _coloring(desc: dict) -> Coloring:
    space = Space(desc["p"], desc["n"])
    if desc["kind"] == "canonical":
        return canonical_coloring(space, desc["chi"], desc["r"])
    return Coloring(space, desc["r"], workloads.coloring_values(desc))


def generate(workload: str, seed: int, size: str, out_dir: str) -> list[dict]:
    inputs = os.path.join(out_dir, "inputs")
    outputs = os.path.join(out_dir, "outputs")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(outputs, exist_ok=True)
    jobs = []
    for spec in workloads.jobs_for(workload, seed, size):
        files = {}
        if "coloring" in spec:
            files["coloring"] = os.path.join(inputs, spec["id"] + ".coloring")
            write_coloring(files["coloring"], _coloring(spec["coloring"]))
        if "pattern" in spec:
            files["pattern"] = os.path.join(inputs, spec["id"] + ".pattern")
            write_pattern(files["pattern"], _pattern(spec["pattern"]))
        if "family" in spec:
            files["family"] = os.path.join(inputs, spec["id"] + ".family")
            write_family(files["family"], [_pattern(d) for d in spec["family"]])
        cmd = spec["command"]
        argv = [cmd]
        for key in ("pattern", "family", "coloring"):
            if key in files:
                argv += [f"--{key}", files[key]]
        if cmd in ("recolor", "remove"):
            files["out"] = os.path.join(outputs, spec["id"] + ".coloring")
            argv += ["--eps", repr(spec["eps"]), "--seed", str(spec["seed"]), "--out", files["out"]]
        if cmd == "remove":
            argv += ["--eps-rado", repr(spec["eps_rado"])]
            if spec["acknowledge"]:
                argv.append("--acknowledge-complexity")
        jobs.append({"id": spec["id"], "argv": argv, "files": files, "spec": spec})
    with open(os.path.join(out_dir, "jobs.json"), "w") as fh:
        json.dump(jobs, fh, indent=1, sort_keys=True)
    return jobs


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    generate(a.workload, a.seed, a.size, a.out)
