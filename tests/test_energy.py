import numpy as np
import pytest

from removal_lab.energy import Partition, increment_subspace, project, project_energy
from removal_lab.fields import Subspace
from removal_lab.space import Space

TOL = 1e-9


def random_subspace(rng, p, n, dim):
    while True:
        sub = Subspace.from_rows(p, n, rng.integers(0, p, size=(dim, n)).astype(np.int64))
        if sub.dim == dim:
            return sub


# --- partitions ---------------------------------------------------------------


def test_partition_labels_are_canonical():
    sp = Space(2, 2)
    a = Partition(sp, np.array([5, 5, 9, 9]))
    b = Partition(sp, np.array([0, 0, 1, 1]))
    assert np.array_equal(a.labels, b.labels)
    assert a.num_parts == 2


def test_partition_carrier_and_validation():
    sp = Space(2, 2)
    part = Partition(sp, np.array([-1, 0, 0, 3]))
    assert part.labels.tolist() == [-1, 0, 0, 1] and part.num_parts == 2
    with pytest.raises(ValueError):
        Partition(sp, np.full(sp.size, -1))
    with pytest.raises(ValueError):
        Partition(sp, np.zeros(3, dtype=np.int64))


def test_project_averages_within_parts():
    sp = Space(2, 2)
    part = Partition(sp, np.array([0, 0, 1, -1]))
    out = project(part, np.array([1.0, 3.0, 5.0, 100.0]))
    assert np.allclose(out, [2.0, 2.0, 5.0, 0.0])


def test_energy_monotone_and_pythagoras_on_random_nested_pairs():
    """E(Q) >= E(P) and E(Q) - E(P) = sum ||f_Q - f_P||^2 for Q refining P."""
    rng = np.random.default_rng(60)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5))
        sp = Space(p, n)
        d_small = int(rng.integers(0, n))
        d_big = int(rng.integers(d_small + 1, n + 1))
        big = random_subspace(rng, p, n, d_big)
        # nested: a sub-subspace spanned by a prefix of big's basis
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


def test_common_refinement_energy_dominates_both():
    rng = np.random.default_rng(61)
    sp = Space(2, 4)
    a, b = random_subspace(rng, 2, 4, 2), random_subspace(rng, 2, 4, 2)
    pa, pb = Partition.from_cosets(sp, a), Partition.from_cosets(sp, b)
    # the cosets of a meet b are the intersections of an a-coset and a b-coset
    both = Partition.from_cosets(sp, a.meet(b))
    fs = [rng.uniform(-1, 1, sp.size)]
    _, ea = project_energy(pa, fs)
    _, eb = project_energy(pb, fs)
    _, ec = project_energy(both, fs)
    assert ec >= max(ea, eb) - TOL


# --- increment step -------------------------------------------------------------


def test_increment_subspace_none_when_regular():
    sp = Space(3, 2)
    assert increment_subspace(np.full(sp.size, 0.3), sp, 0.1) is None


def test_increment_subspace_realizes_energy_gain():
    rng = np.random.default_rng(8)
    sp = Space(3, 3)
    eps = 0.05
    found = 0
    for _ in range(20):
        g = rng.uniform(0, 1, sp.size)
        out = increment_subspace(g, sp, eps)
        if out is None:
            continue
        found += 1
        z, cut = out
        assert cut.dim == sp.n - 1
        assert (sp.digits[sp.subspace_points(cut)] @ sp.digits[z] % 3 == 0).all()
        # splitting the carrier along the cut gains more than eps^2
        trivial = Partition(sp, np.zeros(sp.size, dtype=np.int64))
        split = Partition.from_cosets(sp, cut)
        _, e0 = project_energy(trivial, [g])
        _, e1 = project_energy(split, [g])
        assert e1 - e0 > eps**2 - TOL
    assert found >= 10  # random tables at this size are rarely 0.05-regular


# --- field lines ----------------------------------------------------------------


def test_field_line_decomposition_golden():
    """F_3^2 minus the line U = <(0,1)> is tiled by U's three complements.

    Each complement of U is a field line through 0; the seeded complements
    that regular_model draws reach exactly these three lines.
    """
    sp = Space(3, 2)
    u = Subspace.from_rows(3, 2, [[0, 1]])
    lines = [Subspace.from_rows(3, 2, rows) for rows in ([[1, 0]], [[1, 1]], [[1, 2]])]
    assert [w.basis.tolist() for w in lines] == [[[1, 0]], [[1, 1]], [[1, 2]]]
    assert {u.complement(seed=s) for s in range(40)} == set(lines)
    assert u.complement() == lines[0]
    labels = np.full(sp.size, -1, dtype=np.int64)
    for i, w in enumerate(lines):
        assert w.codim == 1 and w.meet(u).dim == 0
        pts = sp.subspace_points(w)
        pts = pts[pts != 0]
        assert (labels[pts] == -1).all()  # the lines meet only in 0
        labels[pts] = i
    part = Partition(sp, labels)
    assert part.num_parts == 3
    u_mask = np.zeros(sp.size, dtype=bool)
    u_mask[sp.subspace_points(u)] = True
    assert np.array_equal(part.labels >= 0, ~u_mask)
