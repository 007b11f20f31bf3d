import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from removal_lab.fields import (
    Subspace,
    annihilator,
    null_space,
    rank,
    rref,
    rowspace_basis,
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


def raw_ints(p, shape):
    """Integer arrays of the given shape with entries in [-3p, 3p], most of them outside [0, p)."""
    return arrays(np.int64, shape, elements=st.integers(-3 * p, 3 * p))


@given(st.sampled_from(PRIMES), st.integers(0, 5), st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_routines_reduce_raw_input(p, r, c, data):
    # every routine gives on a raw integer matrix what it gives on the matrix mod p
    raw = data.draw(raw_ints(p, (r, c)))
    red, kept = raw % p, raw.copy()
    got, want = rref(raw, p), rref(red, p)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(raw, kept), "rref must not write into its input"
    for fn in (rowspace_basis, null_space, annihilator):
        assert np.array_equal(fn(raw, p), fn(red, p))
    for shape in ((r,), (r, 2)):
        b = data.draw(raw_ints(p, shape))
        x_raw, x_red = solve(raw, b, p), solve(red, b % p, p)
        assert (x_raw is None) == (x_red is None)
        if x_red is not None:
            assert np.array_equal(x_raw, x_red)


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

    def test_contains_refuses_a_vector_of_another_length(self):
        s = Subspace.zero(2, 3)
        # length 2n would otherwise reshape into two rows of F_2^3
        for vec in ([0] * 5, [0] * 6, [0, 0]):
            with pytest.raises(ValueError, match="ambient mismatch"):
                s.contains(vec)

    def test_from_rows_refuses_another_width(self):
        # rows of width 2n, a flat 2n-vector and a 3-D array hold a multiple of n entries but are not rows of F_2^3
        for rows in ([[1, 1, 0, 1, 0, 1]], [1, 1, 0, 1, 0, 1], np.ones((2, 2, 3), dtype=np.int64)):
            with pytest.raises(ValueError, match="width"):
                Subspace.from_rows(2, 3, rows)

    def test_from_rows_takes_no_rows_and_a_vector(self):
        assert Subspace.from_rows(2, 3, []) == Subspace.zero(2, 3)
        assert Subspace.from_rows(2, 3, np.zeros((0, 3), dtype=np.int64)) == Subspace.zero(2, 3)
        line = Subspace.from_rows(3, 3, [2, 0, 4])
        assert line.dim == 1 and np.array_equal(line.basis, [[1, 0, 2]])

    def test_leq_refuses_another_dimension(self):
        with pytest.raises(ValueError, match="ambient mismatch"):
            Subspace.zero(2, 3).leq(Subspace.full(3, 4))
        with pytest.raises(ValueError, match="ambient mismatch"):
            Subspace.full(2, 3).leq(Subspace.full(2, 4))

    def test_leq_refuses_another_field(self):
        with pytest.raises(ValueError, match="ambient mismatch"):
            Subspace.from_rows(2, 3, [[1, 1, 0]]).leq(Subspace.full(3, 3))
        with pytest.raises(ValueError, match="ambient mismatch"):
            Subspace.full(3, 3).leq(Subspace.from_rows(2, 3, [[1, 1, 0]]))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_leq_and_contains_match_the_span_oracle(self, p):
        # x in S iff appending x to S's basis keeps the rank; S <= T iff every basis row of S is in T
        rng = np.random.default_rng(p)
        n = 4
        for _ in range(40):
            s = Subspace.from_rows(p, n, random_matrix(rng, p, rng.integers(0, n + 1), n))
            t = Subspace.from_rows(p, n, random_matrix(rng, p, rng.integers(0, n + 1), n))
            x = random_matrix(rng, p, 1, n)[0] * rng.integers(0, 2)
            assert s.contains(x) == (rank(np.vstack([s.basis, x]), p) == s.dim)
            assert s.leq(t) == (rank(np.vstack([t.basis, s.basis]), p) == t.dim)
            assert s.leq(s.join(t)) and Subspace.zero(p, n).leq(s)

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
