"""Correctness gate: re-check every job's report independently of the library.

Nothing here imports removal_lab.  Input and output colorings are parsed from
the files, instance counts are recomputed by an exact character sum (a
different algorithm from the library's enumeration), certificates are
re-checked by direct arithmetic, and canonical colorings are rebuilt from
their definition.  A job fails on a traceback, on exit 1 (every input here is
valid), on an exit code its command does not allow, or on any report field an
independent re-check contradicts.  Reports are compared field by field, so a
report that gains fields still passes, and every valid outcome of `remove`
(verified success, Case A abort, refusal with evidence) is accepted.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from itertools import combinations, product

import numpy as np

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- F_p arithmetic, independent of the library ------------------------------------


def digits(p: int, n: int) -> np.ndarray:
    """(p^n, n) table of little-endian coordinates."""
    idx = np.arange(p**n, dtype=np.int64)
    return np.stack([(idx // p**i) % p for i in range(n)], axis=1) if n else np.zeros((1, 0), dtype=np.int64)


def rank_mod(mat, p: int) -> int:
    m = np.array(mat, dtype=np.int64).reshape(len(mat), -1) % p if len(mat) else np.zeros((0, 0), dtype=np.int64)
    r = 0
    for c in range(m.shape[1] if m.size else 0):
        piv = next((i for i in range(r, m.shape[0]) if m[i, c]), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        for i in range(m.shape[0]):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
    return r


def canonical_values(p: int, n: int, chi) -> np.ndarray:
    """Color of each point: chi(first nonzero coordinate), color 1 at 0."""
    d = digits(p, n)
    lead = d[np.arange(d.shape[0]), np.argmax(d != 0, axis=1)]
    return np.concatenate(([1], np.asarray(chi, dtype=np.int64)))[lead]


def count_solutions(rows, indicators: list[np.ndarray], p: int, n: int) -> int:
    """#{x in V^k : A x = 0, f_i(x_i) = 1 for all i}, by the character sum

        |V|^-l * sum_{xi in V^l} prod_i F_i(sum_j A[j, i] xi_j),
        F_i(z) = sum_x f_i(x) e(x . z / p),

    evaluated in floating point and rounded; the rounding must be clean.
    """
    size = p**n
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(indicators)) % p
    hats = [np.fft.ifftn(np.asarray(f, dtype=np.float64).reshape((p,) * n)).reshape(size) * size for f in indicators]
    d = digits(p, n)
    pows = p ** np.arange(n, dtype=np.int64)
    l = rows.shape[0]
    xi = [d[t] for t in np.unravel_index(np.arange(size**l), (size,) * l)] if l else []
    total = np.ones(size**l, dtype=np.complex128)
    for i, hat in enumerate(hats):
        z = np.zeros((size**l, n), dtype=np.int64)
        for j in range(l):
            z += rows[j, i] * xi[j]
        total *= hat[(z % p) @ pows]
    value = total.sum() / size**l
    exact = round(value.real)
    require(abs(value.real - exact) < 0.25 and abs(value.imag) < 0.25,
            f"independent count not exact: {value}")
    return int(exact)


def nonzero_points(instance, p: int, n: int) -> bool:
    """Whether instance is a list of nonzero point indices of F_p^n."""
    return all(isinstance(x, int) and 0 < x < p**n for x in instance)


def is_solution(rows, instance, p: int, n: int) -> bool:
    coords = digits(p, n)[np.asarray(instance, dtype=np.int64)]
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, coords.shape[0])
    return not np.any(rows @ coords % p)


def extends(rows, k: int, idx: tuple[int, ...], y, p: int, n: int) -> bool:
    """Whether the points y on variables idx extend to a full solution of A x = 0."""
    a = np.asarray(rows, dtype=np.int64).reshape(-1, k) % p
    rest = [i for i in range(k) if i not in idx]
    coords = digits(p, n)[np.asarray(y, dtype=np.int64)]
    b = -(a[:, list(idx)] @ coords) % p  # one right-hand side per coordinate
    if not rest:
        return not b.any()
    base = rank_mod(a[:, rest], p)
    return all(rank_mod(np.concatenate([a[:, rest], b[:, t : t + 1]], axis=1), p) == base for t in range(n))


# --- file readers ---------------------------------------------------------------


def read_colors(path: str) -> tuple[dict, np.ndarray]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        values = np.array([int(line) for line in fh if line.strip()], dtype=np.int64)
    require(values.size == header["p"] ** header["n"], f"{path}: wrong number of colors")
    return header, values


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# --- per-command checks -------------------------------------------------------------


def _member_free(h: dict, values: np.ndarray, p: int, n: int) -> bool:
    nz = np.arange(values.size) != 0
    fs = [(values == c) & nz for c in h["psi"]]
    return count_solutions(h["rows"], fs, p, n) == 0


def _check_case_a(certs: list, family: list[dict], p: int, r: int, n: int, *, closure: bool) -> None:
    """Case A certificates: one per chi, each an all-nonzero instance in the
    canonical coloring of chi.  Dichotomy certificates name a family member;
    a removal abort names a member of the sparse subpattern closure, so there
    the instance must extend to a solution of some member on some variables.
    """
    chis = [tuple(c["chi"]) for c in certs]
    require(sorted(chis) == list(product(range(1, r + 1), repeat=p - 1)), "certificates do not cover every chi once")
    for cert in certs:
        inst = cert["instance"]
        require(nonzero_points(inst, p, n), f"certificate {cert['chi']} is not a list of nonzero points")
        colors = [int(c) for c in canonical_values(p, n, cert["chi"])[inst]]
        if not closure:
            h = family[cert["pattern_index"]]
            require(colors == h["psi"], f"certificate {cert['chi']} colors {colors} != psi {h['psi']}")
            require(is_solution(h["rows"], inst, p, n), f"certificate {cert['chi']} is not a solution")
            continue
        ok = any(
            [h["psi"][i] for i in idx] == colors and extends(h["rows"], len(h["psi"]), idx, inst, p, n)
            for h in family
            for idx in combinations(range(len(h["psi"])), len(inst))
        )
        require(ok, f"certificate {cert['chi']} is no instance of any induced subpattern")


def check_stats(job, report, expected) -> None:
    spec = job["spec"]
    pat = spec["pattern"]
    header, values = read_colors(job["files"]["coloring"])
    p, n, k = header["p"], header["n"], len(pat["psi"])
    require(report["solutions"] == p ** (n * (k - rank_mod(pat["rows"], p))), "solutions != p^(n(k - rank A))")
    require(report["density"] == str(Fraction(report["instances"], report["solutions"])), "density != instances/solutions")
    require(report["is_free"] == (report["nonzero_instances"] == 0), "is_free disagrees with nonzero_instances")
    fs = [values == c for c in pat["psi"]]
    require(report["instances"] == count_solutions(pat["rows"], fs, p, n), "instances != independent count")
    nz = np.arange(values.size) != 0
    require(report["nonzero_instances"] == count_solutions(pat["rows"], [f & nz for f in fs], p, n),
            "nonzero_instances != independent count")
    require(0 <= report["generic_instances"] <= report["nonzero_instances"], "generic_instances out of range")
    if expected is not None:
        for key, value in expected.items():
            require(report[key] == value, f"{key} = {report[key]}, expected {value} for this seed")


def check_recolor(job, report, expected) -> None:
    spec = job["spec"]
    header, before = read_colors(job["files"]["coloring"])
    _, after = read_colors(job["files"]["out"])
    eps = Fraction(spec["eps"])
    changed = int(np.count_nonzero(before != after))
    require(report["changed_count"] == changed, "changed_count != points that differ in the output")
    require(changed <= eps * before.size, "more than eps|V| points changed")
    require(after.min() >= 1 and after.max() <= header["r"], "output colors out of range")
    require(report["conditions"]["ok"] is True, "recolor conditions not ok")
    model = report["model"]
    require(math.ceil(1 / eps) <= model["codim_v1"] <= model["codim_v2"] <= header["n"], "codimensions out of order")
    # V_1 = {0}: every V_1-coset is one point, whose own color is dense in it,
    # so no point may change
    if model["codim_v1"] == header["n"]:
        require(changed == 0, f"trivial model (codim V_1 = n) but {changed} points changed")
    if expected is not None:
        got = {"changed_count": report["changed_count"], "codim_v1": model["codim_v1"], "codim_v2": model["codim_v2"]}
        for key, value in expected.items():
            require(got[key] == value, f"{key} = {got[key]}, expected {value} for this seed")


def check_dichotomy(job, report) -> None:
    family = job["spec"]["family"]
    p, r = family[0]["p"], family[0]["r"]
    n = max(len(h["psi"]) for h in family)
    require((report["p"], report["r"], report["n"]) == (p, r, n), "dichotomy reports the wrong space")
    require(report["verified"] is True, "dichotomy not verified")
    if report["case"] == "A":
        _check_case_a(report["certificates"], family, p, r, n, closure=False)
    else:
        require(report["case"] == "B", "case is neither A nor B")
        values = canonical_values(p, n, report["chi"])
        require(all(_member_free(h, values, p, n) for h in family), "Case B coloring is not family-free")


def check_remove(job, report, code) -> None:
    spec = job["spec"]
    family = spec["family"]
    header, before = read_colors(job["files"]["coloring"])
    p, n = header["p"], header["n"]
    if code == 0:
        _, after = read_colors(job["files"]["out"])
        require(report["verified_free"] is True and report["case"] == "B", "success without a verified Case B")
        require(all(_member_free(h, after, p, n) for h in family), "output coloring is not family-free")
        changed = int(np.count_nonzero(before != after))
        require(report["changed_count"] == changed, "changed_count != points that differ in the output")
        budget = Fraction(spec["eps"]) / 2 + Fraction(1, p ** report["codim_v1"])
        require(changed <= budget * before.size, "change budget exceeded")
        return
    kind = report.get("error")
    if kind == "CaseAAbort":
        d = report["dichotomy"]
        require(report["phase"] == "dichotomy" and d["case"] == "A", "Case A abort without a Case A dichotomy")
        _check_case_a(d["certificates"], family, d["p"], d["r"], d["n"], closure=True)
    elif kind == "VerificationError":
        ev = report["evidence"]
        inst = ev["instance"]
        h = next((h for h in family if h["psi"] == ev["pattern_psi"]), None)
        require(h is not None, "evidence names no family member")
        require(nonzero_points(inst, p, n) and is_solution(h["rows"], inst, p, n), "evidence is not a nonzero solution")
        # the patched coloring is not written on refusal; the benchmark's
        # inputs only refuse after a trivial model, which changes no point
        require([int(c) for c in before[inst]] == h["psi"], "evidence colors do not match")
    else:
        raise CheckFailed(f"exit 2 with unexpected error {kind!r}")


ALLOWED_EXIT = {"stats": (0,), "recolor": (0,), "dichotomy": (0,), "remove": (0, 2)}


def check_job(job: dict, record: dict, expected: dict | None) -> str | None:
    """None if the job's report re-checks, else the reason it failed."""
    if record["traceback"]:
        return "traceback: " + record["traceback"].strip().splitlines()[-1]
    code = record["exit"]
    cmd = job["spec"]["command"]
    if code not in ALLOWED_EXIT[cmd]:
        return f"exit {code} for valid input"
    try:
        report = json.loads(record["stdout"])
        require(isinstance(report, dict), "report is not a JSON object")
        if code == 0:
            require(report.get("command") == cmd, "report names the wrong command")
        if cmd == "stats":
            check_stats(job, report, expected)
        elif cmd == "recolor":
            check_recolor(job, report, expected)
        elif cmd == "dichotomy":
            check_dichotomy(job, report)
        else:
            check_remove(job, report, code)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OSError) as exc:
        return f"malformed report or output: {type(exc).__name__}: {exc}"
    return None


def expected_for(seed: int, size: str) -> dict:
    """Stored counts for the named seeds (empty for any other seed or size)."""
    if size != "full":
        return {}
    return read_json(EXPECTED_PATH).get(str(seed), {})


def gate(jobs: list[dict], results: dict, seed: int, size: str) -> tuple[int, int, dict[str, str]]:
    """(attempted, failed, reasons): every execution of a job whose report
    fails the re-check counts as failed, and so does every execution whose
    bytes differ from the job's first one."""
    expected = expected_for(seed, size)
    npasses = len(results["passes"])
    attempted = npasses * len(jobs)
    failed = 0
    reasons = {}
    for job in jobs:
        reason = check_job(job, results["reports"][job["id"]], expected.get(job["id"]))
        if reason is None and results["mismatched"][job["id"]]:
            reason = f"report bytes differ in {results['mismatched'][job['id']]} of {npasses} passes"
            failed += results["mismatched"][job["id"]]
        elif reason is not None:
            failed += npasses
        if reason is not None:
            reasons[job["id"]] = reason
    return attempted, failed, reasons
