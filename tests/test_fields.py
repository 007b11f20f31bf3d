import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from removal_lab.fields import (
    Subspace,
    annihilator,
    null_space,
    rank,
    rref,
    rref_rank_null,
    solve,
)

PRIMES = [2, 3, 5, 7]


def random_matrix(rng, p, rows, cols):
    return rng.integers(0, p, size=(rows, cols)).astype(np.int64)


@st.composite
def fp_matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    r = draw(st.integers(0, 5))
    c = draw(st.integers(1, 6))
    data = draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c))
    return p, np.array(data, dtype=np.int64).reshape(r, c)


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent_and_pivots(pm):
    p, m = pm
    r1, piv1 = rref(m, p)
    r2, piv2 = rref(r1, p)
    assert np.array_equal(r1, r2)
    assert piv1 == piv2
    for row, col in enumerate(piv1):
        assert r1[row, col] == 1
        # pivot column is zero everywhere else
        assert np.count_nonzero(r1[:, col]) == 1


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_null_space_annihilates_and_rank_formula(pm):
    p, m = pm
    _, rk, ns = rref_rank_null(m, p)
    assert ns.shape == (m.shape[1] - rk, m.shape[1])
    if m.shape[0] and ns.shape[0]:
        assert not np.any(m @ ns.T % p)
    assert rank(ns, p) == ns.shape[0]


@given(fp_matrices())
@settings(max_examples=100, deadline=None)
def test_annihilator_involution(pm):
    p, m = pm
    ann = annihilator(m, p)
    back = annihilator(ann, p)
    # double annihilator = row space
    assert rank(np.vstack([m, back]), p) == rank(m, p) == rank(back, p)


def test_solve_consistent_and_inconsistent():
    p = 5
    a = np.array([[1, 2, 0], [0, 1, 4]], dtype=np.int64)
    x = np.array([3, 1, 2], dtype=np.int64)
    b = a @ x % p
    got = solve(a, b, p)
    assert got is not None
    assert np.array_equal(a @ got % p, b)
    # b outside the column space
    bad = np.array([[1, 1], [2, 2]], dtype=np.int64)
    assert solve(bad, np.array([1, 3]), p) is None
    # an (l, d) right-hand side: one solution column per column of B
    xs = np.array([[3, 0, 4], [1, 1, 0], [2, 4, 1]], dtype=np.int64)
    got = solve(a, a @ xs % p, p)
    assert got.shape == (3, 3)
    assert np.array_equal(a @ got % p, a @ xs % p)
    for j in range(3):
        assert np.array_equal(got[:, j], solve(a, a @ xs[:, j] % p, p))
    # one inconsistent column makes the whole system inconsistent
    assert solve(bad, np.array([[2, 1, 0], [4, 3, 0]]), p) is None
    # l = 0 rows: everything solves, by zero
    empty = np.zeros((0, 3), dtype=np.int64)
    assert np.array_equal(solve(empty, np.zeros((0, 2), dtype=np.int64), p), np.zeros((3, 2)))
    assert np.array_equal(solve(empty, np.zeros(0, dtype=np.int64), p), np.zeros(3))


def test_null_space_special_solution_layout():
    # one free column -> single special solution with 1 at the free index
    a = np.array([[1, 1, 1]], dtype=np.int64)
    ns = null_space(a, 5)
    assert ns.shape == (2, 3)
    assert ns[0][1] == 1 and ns[1][2] == 1


class TestSubspace:
    def test_canonical_equality(self):
        s1 = Subspace.from_rows(3, 4, [[1, 1, 0, 0], [0, 0, 1, 2]])
        s2 = Subspace.from_rows(3, 4, [[1, 1, 1, 2], [0, 0, 2, 4]])
        assert s1 == s2
        assert hash(s1) == hash(s2)

    def test_contains_and_leq(self):
        s = Subspace.from_rows(5, 3, [[1, 2, 3]])
        assert s.contains(np.array([2, 4, 6]) % 5)
        assert not s.contains(np.array([1, 0, 0]))
        assert s.leq(Subspace.full(5, 3))
        assert Subspace.zero(5, 3).leq(s)

    def test_meet_join_dimension(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(2, 6))
            a = Subspace.from_rows(p, n, random_matrix(rng, p, rng.integers(0, n + 1), n))
            b = Subspace.from_rows(p, n, random_matrix(rng, p, rng.integers(0, n + 1), n))
            meet, join = a.meet(b), a.join(b)
            assert meet.dim + join.dim == a.dim + b.dim
            assert meet.leq(a) and meet.leq(b)
            assert a.leq(join) and b.leq(join)

    def test_complement_deterministic_and_seeded(self):
        s = Subspace.from_rows(3, 5, [[1, 0, 2, 0, 1], [0, 1, 1, 0, 0]])
        c = s.complement()
        assert c == s.complement()
        assert s.meet(c).dim == 0
        assert s.join(c).dim == 5
        seen = set()
        for seed in range(8):
            cs = s.complement(seed=seed)
            assert s.meet(cs).dim == 0 and s.join(cs).dim == 5
            assert cs == s.complement(seed=seed)  # reproducible
            seen.add(cs)
        assert len(seen) > 1  # seeds actually vary the complement

    def test_annihilator_matrix_cuts_out_subspace(self):
        s = Subspace.from_rows(2, 6, [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]])
        y = s.annihilator_matrix()
        assert y.shape[0] == s.codim
        assert not np.any(y @ s.basis.T % 2)
