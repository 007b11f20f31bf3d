"""Job lists of the three benchmark workloads, as plain data.

A job names one CLI call of removal-lab and describes its inputs abstractly
(field, dimension, coloring kind, pattern rows and colors).  gen.py turns the
descriptions into files with the library's own writers; check.py reads the
descriptions (family, eps) next to those files to re-check the reports.
The seed only changes the random content of the inputs (coloring values,
colors, the chi permutation), never their sizes, so every seed costs about
the same.

Why each workload exists is written in NOTES.md next to this file.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("count", "recolor", "pipeline")
SIZES = ("full", "tiny")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # confirms a claim made on other seeds; expected.json pins both

# sums of k variables; with k < p the canonical coloring of an injective chi
# has no all-nonzero monochromatic solution (the lead digits cannot cancel)
SUM3 = [[1, 1, 1]]
SUM4 = [[1, 1, 1, 1]]
SUM5 = [[1, 1, 1, 1, 1]]
CHAIN5 = [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]]
PAIR4 = [[1, 1, 1, 0], [0, 1, 1, 1]]

# (p, n, rows, r, coloring kind) per count job
_COUNT = {
    "full": [
        (2, 10, SUM3, 2, "random"),
        (3, 6, [[1, 1, 2]], 3, "random"),
        (5, 4, SUM3, 4, "canonical"),
        (2, 6, SUM4, 2, "random"),
        (3, 4, SUM4, 2, "canonical"),
        (5, 3, SUM4, 4, "canonical"),
        (2, 4, SUM5, 2, "random"),
        (2, 6, CHAIN5, 2, "random"),
        (3, 4, CHAIN5, 3, "random"),
        (5, 3, CHAIN5, 4, "canonical"),
        (5, 4, PAIR4, 2, "random"),
        (3, 5, PAIR4, 2, "canonical"),
        (3, 3, CHAIN5, 2, "random"),
    ],
    "tiny": [
        (2, 4, SUM3, 2, "random"),
        (5, 3, SUM3, 4, "canonical"),
        (3, 2, CHAIN5, 3, "random"),
    ],
}

# (p, n, r) per recolor job
_RECOLOR = {
    "full": [(2, 12, 2), (2, 13, 2), (2, 13, 3), (2, 14, 2), (2, 16, 2), (3, 7, 3), (3, 8, 2), (3, 9, 3)],
    "tiny": [(2, 6, 2), (3, 4, 3)],
}

# (p, r, row) of the monochromatic 3-term families given to `dichotomy`; the
# seven extra equations at p = 5, r = 2 cost about the same (70-90 ms each,
# whatever the seed) and hold the median job of the workload
_DICHOTOMY = {
    "full": [(3, 2, SUM3), (3, 3, SUM3), (5, 2, SUM3), (5, 3, SUM3), (7, 2, SUM3)]
    + [(5, 2, [row]) for row in ([1, 1, 2], [1, 1, 3], [1, 2, 2], [1, 2, 3], [1, 1, 4], [1, 2, 4], [1, 3, 4])],
    "tiny": [(3, 2, SUM3), (5, 2, SUM3)],
}


def _mono(p: int, r: int, rows, k: int) -> list[dict]:
    return [{"p": p, "r": r, "rows": rows, "psi": [c] * k} for c in range(1, r + 1)]


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _chi(rng: np.random.Generator, p: int, r: int) -> list[int]:
    """A seeded chi; injective (a permutation of 1..p-1) when r = p - 1."""
    if r == p - 1:
        return [int(c) for c in rng.permutation(np.arange(1, p))]
    return [int(c) for c in rng.integers(1, r + 1, p - 1)]


def count_jobs(seed: int, size: str) -> list[dict]:
    jobs = []
    for i, (p, n, rows, r, kind) in enumerate(_COUNT[size]):
        rng = _rng(seed, i)
        k = len(rows[0])
        if kind == "canonical":
            chi = _chi(rng, p, r)
            psi = [int(rng.integers(1, r + 1))] * k
            coloring = {"p": p, "n": n, "r": r, "kind": "canonical", "chi": chi}
        else:
            psi = [int(c) for c in rng.integers(1, r + 1, k)]
            coloring = {"p": p, "n": n, "r": r, "kind": "random", "rng": [seed, i]}
        jobs.append({
            "id": f"stats-{i:02d}-F{p}^{n}-k{k}-l{len(rows)}-{kind}",
            "command": "stats",
            "pattern": {"p": p, "r": r, "rows": rows, "psi": psi},
            "coloring": coloring,
        })
    return jobs


def recolor_jobs(seed: int, size: str) -> list[dict]:
    return [
        {
            "id": f"recolor-{i:02d}-F{p}^{n}-r{r}",
            "command": "recolor",
            "coloring": {"p": p, "n": n, "r": r, "kind": "random", "rng": [seed, 100 + i]},
            "eps": 0.5,
            "seed": seed,
        }
        for i, (p, n, r) in enumerate(_RECOLOR[size])
    ]


def pipeline_jobs(seed: int, size: str) -> list[dict]:
    jobs = [
        {"id": f"dichotomy-{i:02d}-p{p}-r{r}-{''.join(map(str, rows[0]))}", "command": "dichotomy",
         "family": _mono(p, r, rows, 3)}
        for i, (p, r, rows) in enumerate(_DICHOTOMY[size])
    ]
    tiny = size == "tiny"

    def remove(tag, coloring, family, eps_rado, ack):
        jobs.append({
            "id": f"remove-{len(jobs):02d}-{tag}",
            "command": "remove",
            "coloring": coloring,
            "family": family,
            "eps": 0.5,
            "eps_rado": eps_rado,
            "acknowledge": ack,
            "seed": seed,
        })

    # Case B on the canonical coloring of an injective chi
    chi = _chi(_rng(seed, 200), 5, 4)
    remove("canonical-F5", {"p": 5, "n": 4, "r": 4, "kind": "canonical", "chi": chi}, _mono(5, 4, SUM3, 3), 0.01, False)
    # all-2 colorings of F_2^n with a seeded fraction of points flipped to 1:
    # a light flip usually stays free (Case B), a heavy one leaves instances
    # the patch cannot remove (VerificationError, exit 2)
    n = 6 if tiny else 10
    for tag, flip, eps_rado, index in (("nearmono-F2", 0.005, 1.5, 201), ("perturbed-F2", 0.05, 0.05, 202)):
        coloring = {"p": 2, "n": n, "r": 2, "kind": "perturbed", "base": 2, "flip": flip, "rng": [seed, index]}
        remove(tag, coloring, [{"p": 2, "r": 2, "rows": SUM3, "psi": [1, 1, 1]}], eps_rado, True)
    # random colorings with eps_rado = 1.5: the sparse subfamily is the whole
    # closure and the pipeline aborts in Case A (exit 2)
    for j in range(2 if tiny else 5):
        if j % 2 == 0:
            coloring = {"p": 2, "n": 4 if tiny else 10, "r": 2, "kind": "random", "rng": [seed, 300 + j]}
            remove(f"random-F2-{j}", coloring, _mono(2, 2, SUM3, 3), 1.5, True)
        else:
            coloring = {"p": 3, "n": 4 if tiny else 6, "r": 3, "kind": "random", "rng": [seed, 300 + j]}
            remove(f"random-F3-{j}", coloring, _mono(3, 3, [[1, 1, 2]], 3), 1.5, False)
    return jobs


def jobs_for(workload: str, seed: int, size: str = "full") -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return {"count": count_jobs, "recolor": recolor_jobs, "pipeline": pipeline_jobs}[workload](seed, size)


def coloring_values(desc: dict) -> np.ndarray | None:
    """Values of a random or perturbed coloring; None for canonical ones."""
    size = desc["p"] ** desc["n"]
    if desc["kind"] == "random":
        return _rng(*desc["rng"]).integers(1, desc["r"] + 1, size).astype(np.int64)
    if desc["kind"] == "perturbed":
        values = np.full(size, desc["base"], dtype=np.int64)
        flips = _rng(*desc["rng"]).random(size) < desc["flip"]
        values[flips] = 1 if desc["base"] != 1 else 2
        return values
    return None
