"""Acceptance battery: ten numbered criteria, each with a hard pass/fail.

Every test here is named test_criterion_NN_* so the conftest terminal summary
can print one PASS/FAIL line per criterion.  The checks re-derive their
expectations inside the test (brute-force counts, character-matrix DFTs,
direct certificate arithmetic) instead of trusting the library's own flags,
and the timed criteria assert their wall-clock budgets.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from removal_lab.energy import Partition, increment_subspace, project_energy
from removal_lab.errors import CaseAAbort
from removal_lab.fields import Subspace, rank, rowspace_basis
from removal_lab.fourier import lambda_fourier, transform
from removal_lab.patterns import (
    Pattern,
    complexity1_check,
    lam,
    pattern_stats,
    solutions,
    subpattern,
    subpattern_closure,
)
from removal_lab.ramsey import canonical_coloring, decide_dichotomy
from removal_lab.regularize import (
    green_regularize,
    regular_model,
    regularity_recolor,
    strong_regularize,
    verify_model,
)
from removal_lab.removal import count_inhomogeneous, induced_removal, inhomogeneous_reduce
from removal_lab.space import Coloring, Space

TOL = 1e-9

AP4 = [[1, -2, 1, 0], [0, 1, -2, 1]]
CS2_TRUE1 = [[2, 1, 1, -1, 0, 0], [1, 2, 1, 0, -1, 0], [1, 1, 2, 0, 0, -1]]


def mono_family(p, r, rows, k):
    return [Pattern(p, r, rows, (c,) * k) for c in range(1, r + 1)]


def check_instance(pattern, coloring, instance):
    """Direct arithmetic re-check: relations, all-nonzero, colors."""
    sp = coloring.space
    xs = np.asarray(instance, dtype=np.int64)
    coords = sp.decode(xs)
    if pattern.rows.shape[0]:
        assert not (pattern.rows @ coords % sp.p).any()
    assert (xs != 0).all()
    assert coloring.values[xs].tolist() == list(pattern.psi)


# --- criterion 1: golden freeness ------------------------------------------------


def test_criterion_01_canonical_coloring_is_free_for_sums():
    chi = (1, 2, 3, 4)
    for n in (2, 3, 4):
        sp = Space(5, n)
        col = canonical_coloring(sp, chi)
        start = time.perf_counter()
        for c in range(1, 5):
            h = Pattern(5, 4, [[1, 1, 1]], (c, c, c))
            assert pattern_stats(h, col).nonzero_instance_count == 0
        if n == 4:
            assert time.perf_counter() - start < 10.0


# --- criterion 2: complexity golden triple ----------------------------------------


def test_criterion_02_complexity_golden_triple():
    assert complexity1_check([[1, 1, 1]], 5) is True
    assert complexity1_check(AP4, 5) is False
    assert complexity1_check(CS2_TRUE1, 7) is True


# --- criterion 3: subpatterns ------------------------------------------------------


def test_criterion_03_subpattern_goldens_and_extendability():
    h = Pattern(5, 1, AP4, (1, 1, 1, 1))
    sub = subpattern(h, [1, 2, 3])
    assert np.array_equal(rowspace_basis(sub.rows, 5), rowspace_basis([[1, -2, 1]], 5))
    g = Pattern(5, 1, [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]], (1,) * 5)
    sub = subpattern(g, [1, 2, 4, 5])
    assert np.array_equal(rowspace_basis(sub.rows, 5), rowspace_basis([[1, 1, -1, -1]], 5))

    # extendability over V = F_p: projecting the solution set onto any index
    # set I gives exactly the subpattern's solution set (all I, k <= 5)
    for p in (2, 3, 5):
        rng = np.random.default_rng(300 + p)
        sp = Space(p, 1)
        mats = [np.zeros((0, 3), dtype=np.int64)]
        if p == 5:
            mats.append(np.array(AP4, dtype=np.int64) % 5)
        for k in range(1, 6):
            for _ in range(8):
                mats.append(rng.integers(0, p, size=(int(rng.integers(1, 3)), k)).astype(np.int64))
        for a in mats:
            k = a.shape[1]
            hk = Pattern(p, 1, a, (1,) * k)
            full = solutions(a, sp)
            for mask in range(1, 1 << k):
                idx = [i + 1 for i in range(k) if mask >> i & 1]
                cols = [i - 1 for i in idx]
                sub = subpattern(hk, idx)
                proj = {tuple(row) for row in full[:, cols]}
                subs = {tuple(row) for row in solutions(sub.rows, sp)}
                assert proj == subs, (p, a.tolist(), idx)


# --- criterion 4: fourier suite -----------------------------------------------------


def test_criterion_04_fourier_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    shapes = [(p, n) for p in (2, 3, 5) for n in range(1, 12) if p**n <= 3125]
    tables = {}
    worst = 0.0
    for _ in range(100):
        p, n = shapes[int(rng.integers(len(shapes)))]
        sp = Space(p, n)
        if (p, n) not in tables:
            w = np.exp(-2j * np.pi / p)
            tables[(p, n)] = w ** ((sp.digits @ sp.digits.T) % p)
        f = rng.uniform(-1, 1, sp.size)
        hat = transform(f, sp)
        worst = max(worst, float(np.abs(hat - tables[(p, n)] @ f / sp.size).max()))
        assert np.abs(transform(hat, sp, "inverse") - f).max() <= TOL
        assert abs((np.abs(hat) ** 2).sum() - (f**2).mean()) <= TOL
    assert worst <= TOL

    # spectral Lambda agrees with direct enumeration on single equations
    n_cap = {2: {2: 11, 3: 8, 4: 6}, 3: {2: 7, 3: 5, 4: 4}, 5: {2: 5, 3: 3, 4: 3}}
    for _ in range(50):
        p = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, n_cap[p][k] + 1))
        sp = Space(p, n)
        row = rng.integers(0, p, size=(1, k)).astype(np.int64)
        fs = [rng.uniform(0, 1, sp.size) for _ in range(k)]
        assert abs(lambda_fourier(row, fs, sp) - lam(row, fs, sp).value) <= TOL
    assert time.perf_counter() - start < 60.0


# --- criterion 5: energy laws --------------------------------------------------------


def test_criterion_05_energy_monotone_pythagoras_and_increments():
    rng = np.random.default_rng(505)
    for _ in range(200):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 5 if p == 5 else 6))
        sp = Space(p, n)
        d_small = int(rng.integers(0, n))
        d_big = int(rng.integers(d_small + 1, n + 1))
        while True:
            big = Subspace.from_rows(p, n, rng.integers(0, p, size=(d_big, n)).astype(np.int64))
            if big.dim == d_big:
                break
        small = Subspace.from_rows(p, n, big.basis[:d_small])
        carrier = None
        if rng.random() < 0.5:
            keep = rng.random(sp.size) < 0.8
            keep[0] = True
            carrier = np.nonzero(keep)[0]
        coarse = Partition.from_cosets(sp, big, carrier)
        fine = Partition.from_cosets(sp, small, carrier)
        fs = [rng.uniform(-1, 1, sp.size) for _ in range(int(rng.integers(1, 4)))]
        proj_c, e_c = project_energy(coarse, fs)
        proj_f, e_f = project_energy(fine, fs)
        assert e_f >= e_c - TOL
        on = coarse.labels >= 0
        gap = sum(((pf - pc)[on] ** 2).mean() for pf, pc in zip(proj_f, proj_c))
        assert abs((e_f - e_c) - gap) <= TOL

    found = 0
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        sp = Space(p, int(rng.integers(2, 5)))
        eps = float(rng.uniform(0.03, 0.2))
        g = rng.uniform(0, 1, sp.size)
        out = increment_subspace(g, sp, eps)
        if out is None:
            continue
        found += 1
        _, cut = out
        trivial = Partition(sp, np.zeros(sp.size, dtype=np.int64))
        _, e0 = project_energy(trivial, [g])
        _, e1 = project_energy(Partition.from_cosets(sp, cut), [g])
        assert e1 - e0 > eps**2 - TOL
    assert found >= 15


# --- criterion 6: regularization self-certification ------------------------------------


def test_criterion_06_regularization_battery():
    start = time.perf_counter()
    checks = []
    for seed in range(50):
        rng = np.random.default_rng(6000 + seed)
        p = 2 if seed % 2 == 0 else 3
        n = 4 + seed % 7 if p == 2 else 3 + seed % 4
        sp = Space(p, n)
        eps = 0.15 + 0.35 * float(rng.random())
        fs = [
            (rng.random(sp.size) < rng.uniform(0.2, 0.8)).astype(np.float64)
            for _ in range(1 + seed % 2)
        ]
        if seed % 5 == 0:
            inner = Subspace.from_rows(p, n, np.eye(n, dtype=np.int64)[2:])
            fs[0][:] = 0.0
            fs[0][sp.subspace_points(inner)] = 1.0
        full = Subspace.full(p, n)

        checks.append(green_regularize(fs, sp, full, eps).verified)
        srep = strong_regularize(fs, sp, full, max(eps**2 / 4, 0.02), lambda c: min(eps, float(p) ** -c))
        checks.append(srep.verified)
        model = regular_model(fs, sp, full, eps, seed=seed)
        checks.append(verify_model(fs, sp, model.v1, model.v2, model.u, eps)["ok"])
        col = Coloring(sp, 2 + seed % 2, rng.integers(1, 3 + seed % 2, sp.size).astype(np.int64))
        eps_prime = (lambda d: 1.0 / (d + 2)) if seed % 4 == 0 else 0.25
        checks.append(regularity_recolor(col, 0.5, eps_prime, seed=seed).conditions["ok"])
    assert len(checks) == 200
    assert all(checks), f"{checks.count(False)} verifier failures"
    assert time.perf_counter() - start < 300.0


# --- criterion 7: dichotomy soundness ---------------------------------------------------


def test_criterion_07_dichotomy_soundness():
    fam = mono_family(5, 4, [[1, 1, 1]], 3)
    out = decide_dichotomy(fam)
    assert out.case == "B"
    assert out.chi == (1, 2, 3, 4)
    for n in (3, 4, 5):
        col = canonical_coloring(Space(5, n), out.chi)
        for h in fam:
            assert pattern_stats(h, col).is_free

    red = [Pattern(2, 1, [[1, 1, 1]], (1, 1, 1))]
    out = decide_dichotomy(red)
    assert out.case == "A"
    assert len(out.certificates) == 1  # r = 1: a single canonical coloring
    dsp = Space(2, out.n)
    for cert in out.certificates:
        check_instance(red[cert.pattern_index], canonical_coloring(dsp, cert.chi, r=1), cert.instance)


# --- criterion 8: end-to-end removal ------------------------------------------------------


def test_criterion_08_removal_20_runs_no_third_outcome():
    start = time.perf_counter()
    outcomes = {"free": 0, "abort": 0}
    for seed in range(20):
        if seed % 2 == 0:
            sp, r, fam = Space(2, 8), 2, mono_family(2, 2, [[1, 1, 1]], 3)
            kw = {"acknowledge_complexity": True}
        else:
            sp, r, fam = Space(3, 5), 3, mono_family(3, 3, [[1, 1, 2]], 3)
            kw = {}
        eps = 0.5
        rng = np.random.default_rng(800 + seed)
        phi = Coloring(sp, r, rng.integers(1, r + 1, sp.size).astype(np.int64))
        try:
            rep = induced_removal(phi, fam, eps, eps_rado=1.5, seed=seed, **kw)
        except CaseAAbort as e:
            outcomes["abort"] += 1
            d = e.dichotomy
            assert e.phase == "dichotomy"
            assert d.case == "A"
            # every canonical coloring must carry a certificate
            assert {c.chi for c in d.certificates} == set(product(range(1, r + 1), repeat=sp.p - 1))
            # eps_rado > 1 makes the sparse subfamily the whole closure, in order
            closure = subpattern_closure(fam)
            dsp = Space(sp.p, d.n)
            for cert in d.certificates:
                check_instance(closure[cert.pattern_index], canonical_coloring(dsp, cert.chi, r), cert.instance)
        else:
            outcomes["free"] += 1
            assert rep.changed_count <= eps * sp.size
            assert rep.recolor.model.v1.codim >= math.log(2 / eps, sp.p) - TOL
            for h in fam:
                assert pattern_stats(h, rep.coloring).is_free
    assert outcomes["free"] + outcomes["abort"] == 20

    # structured inputs that land in the repair branch
    phi = canonical_coloring(Space(5, 4), (1, 2, 3, 4))
    fam = mono_family(5, 4, [[1, 1, 1]], 3)
    rep = induced_removal(phi, fam, 0.5, eps_rado=0.01, seed=0)
    assert rep.dichotomy.case == "B"
    assert rep.changed_count <= 0.5 * phi.space.size
    assert rep.recolor.model.v1.codim >= math.log(4, 5) - TOL
    for h in fam:
        assert pattern_stats(h, rep.coloring).is_free

    sp = Space(2, 6)
    mono = Coloring(sp, 2, np.full(sp.size, 2, dtype=np.int64))
    rep = induced_removal(
        mono, [Pattern(2, 2, [[1, 1, 1]], (1, 1, 1))], 0.5, eps_rado=1.5, acknowledge_complexity=True, seed=0
    )
    assert rep.dichotomy.case == "B"
    assert rep.changed_count == 0
    assert time.perf_counter() - start < 600.0


# --- criterion 9: inhomogeneous correspondence ----------------------------------------------


def test_criterion_09_inhomogeneous_bijection_exhaustive():
    sp = Space(2, 4)
    rng = np.random.default_rng(909)
    phi = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    e = np.eye(4, dtype=np.int64)
    cases = [
        ([[1]], (1,), [e[0]]),
        ([[1, 1]], (1, 2), [e[0] + e[2]]),
        ([[1, 1, 1]], (1, 1, 2), [e[1] + e[2]]),
        ([[1, 1, 1]], (2, 2, 2), [np.zeros(4, dtype=np.int64)]),  # b = 0 identity
        ([[1, 1, 0], [0, 1, 1]], (1, 2, 1), [e[0], e[1]]),
        ([[1, 0], [0, 1], [1, 1]], (1, 1), [e[0], e[1], (e[0] + e[1]) % 2]),
        ([[1, 0], [0, 1], [1, 1]], (1, 1), [e[0], e[1], e[2]]),  # inconsistent
    ]
    for rows, psi, b_vecs in cases:
        a = np.array(rows, dtype=np.int64)
        k = a.shape[1]
        h = Pattern(2, 2, a, psi)
        offsets = tuple(int(sp.encode(v[None, :] % 2)[0]) for v in b_vecs)
        red = inhomogeneous_reduce(phi, [(h, offsets)])

        # direct side: brute force over V^k
        grids = np.stack(np.meshgrid(*([np.arange(sp.size)] * k), indexing="ij"), axis=-1).reshape(-1, k)
        coords = sp.digits[grids]
        b_mat = np.stack([v % 2 for v in b_vecs])
        ok = (np.einsum("lk,mkn->mln", a, coords) % 2 == b_mat[None]).all(axis=(1, 2))
        ok &= (phi.values[grids] == np.array(psi)[None, :]).all(axis=1)
        direct = sorted(map(tuple, grids[ok]))
        assert len(direct) == count_inhomogeneous(phi, h, offsets)

        # quotient side: every expanded instance maps to a distinct direct one
        mapped = []
        for e_idx, exp in enumerate(red.expansions[0]):
            sols = solutions(exp.pattern.rows, red.tilde_space)
            hits = sols[(red.coloring.values[sols] == np.array(exp.pattern.psi)[None, :]).all(axis=1)]
            mapped.extend(tuple(red.instance_map(0, e_idx, inst)) for inst in hits)
        assert len(set(mapped)) == len(mapped)
        assert sorted(mapped) == direct

        if red.expansions[0]:
            size_b = 2**red.b_subspace.dim
            assert len(red.expansions[0]) == size_b ** (k - rank(a, 2)) * 2 ** (k * (size_b - 1))
        if not any(v.any() for v in b_vecs):
            assert red.tilde_space.size == sp.size
            assert np.array_equal(red.coloring.values, phi.values)
            assert len(red.expansions[0]) == 1
            assert red.expansions[0][0].u_tuple == (0,) * k


# --- criterion 10: constants are recorded, never asserted -------------------------------------


def test_criterion_10_constants_recorded_never_asserted():
    phi = canonical_coloring(Space(5, 4), (1, 2, 3, 4))
    fam = mono_family(5, 4, [[1, 1, 1]], 3)
    a = induced_removal(phi, fam, 0.5, eps_rado=0.01, seed=0)
    b = induced_removal(phi, fam, 0.5, eps_rado=0.003, seed=0)
    for rep in (a, b):
        tc = rep.theoretical_constants
        assert {"eps_count_value", "delta_formula", "eps_rado_formula", "k_max"} <= set(tc)
        assert tc["eps_count_value"] > 0
        assert "n_rado not computed" in tc["eps_rado_formula"]
        assert rep.verified_free
    # the recorded scale moves with eps_rado; the verified outcome does not
    assert a.theoretical_constants["eps_count_value"] != b.theoretical_constants["eps_count_value"]
    assert a.changed_count == b.changed_count == 0
