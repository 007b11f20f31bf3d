import itertools

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from removal_lab import patterns
from removal_lab.fields import annihilator, null_space, rank, rowspace_basis, subspace_bases
from removal_lab.patterns import (
    ENUMERATION_CAP,
    Pattern,
    batch_rank,
    color_tables,
    complexity1_check,
    count_matches,
    first_instance,
    generic_count,
    iter_matches,
    iter_solution_chunks,
    lam,
    pattern_stats,
    read_family,
    read_pattern,
    solutions,
    subpattern,
    subpattern_closure,
    write_family,
    write_pattern,
)
from removal_lab.removal import count_inhomogeneous
from removal_lab.space import Coloring, Space
from removal_lab.errors import ResourceCapError, UnsupportedCharacteristicError

AP4 = [[1, -2, 1, 0], [0, 1, -2, 1]]
CHAIN5 = [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]]
PAIR4 = [[1, 1, 1, 0], [0, 1, 1, 1]]
# Cauchy-Schwarz complexity 2 yet controlled by the U^2 norm; the interesting
# positive case for the squared-forms test.
CS2_TRUE1 = [[2, 1, 1, -1, 0, 0], [1, 2, 1, 0, -1, 0], [1, 1, 2, 0, 0, -1]]


def red_pattern(p, rows, k):
    return Pattern(p, 1, rows, (1,) * k)


# --- complexity decision ----------------------------------------------------


def test_complexity1_golden_triple():
    assert complexity1_check([[1, 1, 1]], 5) is True
    assert complexity1_check(AP4, 5) is False
    assert complexity1_check(CS2_TRUE1, 7) is True


def test_complexity1_single_equation_rule():
    # >= 3 nonzero coefficients <=> complexity 1, for a single equation
    assert complexity1_check([[1, 1, -1]], 7)
    assert complexity1_check([[1, 2, 3, 4]], 5)
    assert not complexity1_check([[1, -1, 0]], 5)
    assert not complexity1_check([[1, 0, 0]], 3)


def test_complexity1_rejects_characteristic_two():
    with pytest.raises(UnsupportedCharacteristicError):
        complexity1_check([[1, 1, 1]], 2)


# --- enumeration ------------------------------------------------------------


def test_unconstrained_enumeration_is_index_order():
    sp = Space(3, 2)
    sol = solutions(np.zeros((0, 1), dtype=np.int64), sp)
    assert np.array_equal(sol[:, 0], np.arange(sp.size))


def test_solutions_satisfy_system_and_are_distinct():
    sp = Space(5, 2)
    a = np.array([[1, 1, 1], [0, 1, 4]], dtype=np.int64)
    sol = solutions(a, sp)
    assert sol.shape[0] == sp.size ** (3 - rank(a, 5))
    coords = sp.decode(sol.reshape(-1)).reshape(sol.shape[0], 3, sp.n)
    residues = np.einsum("lk,bkn->bln", a % 5, coords) % 5
    assert not residues.any()
    keys = {tuple(row) for row in sol}
    assert len(keys) == sol.shape[0]


def _digit_arithmetic_solutions(rows, sp):
    """Every solution in enumeration order by the gather-and-encode arithmetic, one coordinate at a time.

    The tuple index is u = sum_j t_j |V|^j, so coordinate c of t_j is digit
    j*n + c of u in base p, and coordinate c of x_i is sum_j t_j[c] N[j, i] mod p.
    """
    basis = null_space(rows, sp.p)
    m, k = basis.shape
    u = np.arange(sp.size**m, dtype=np.int64)
    xs = np.zeros((u.size, k), dtype=np.int64)
    for c in range(sp.n):
        tc = u[:, None] // sp.p ** (np.arange(m, dtype=np.int64) * sp.n + c) % sp.p
        xs += tc @ basis % sp.p * sp.p**c
    return xs


@pytest.mark.parametrize(
    "p,n,rows",
    [
        (3, 1, [[1, 1, 1]]),
        (2, 10, [[1, 1, 1]]),
        (3, 6, [[1, 1, 2]]),
        (5, 3, [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]]),
        (5, 2, [[1, 0], [0, 1]]),
        (3, 0, [[1, 1, 1]]),
        (131101, 1, [[1, 1]]),
    ],
    ids=["F3^1-x+y+z", "F2^10-x+y+z", "F3^6-x+y+2z", "F5^3-chain", "full-rank", "n0", "prime-above-2^17"],
)
def test_enumeration_order_is_little_endian_in_t(p, n, rows):
    sp = Space(p, n)
    chunks = list(iter_solution_chunks(null_space(rows, p), sp))
    assert all(xs.shape[0] <= 1 << 17 for xs in chunks)
    assert np.array_equal(np.concatenate(chunks), _digit_arithmetic_solutions(np.array(rows, dtype=np.int64), sp))


def test_enumeration_cap_raises_with_evidence(monkeypatch):
    assert ENUMERATION_CAP == 10**8
    # the cap is read at call time, so lowering the module constant lowers it
    monkeypatch.setattr(patterns, "ENUMERATION_CAP", 10**4)
    sp = Space(5, 3)
    with pytest.raises(ResourceCapError) as exc:
        list(iter_solution_chunks(null_space(np.zeros((0, 3), dtype=np.int64), 5), sp))
    assert exc.value.requested == 125**3
    assert exc.value.cap == 10**4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_lists_each_tuple_of_a_full_rank_parametrization_once(p):
    # B = b @ N for a full-rank b, as generic_count passes: the kernel takes B itself, not an annihilator
    sp = Space(p, 2)
    rng = np.random.default_rng(p)
    basis = null_space(CHAIN5, p)
    for d in (1, 2, 3):
        b = rng.integers(0, p, (d, basis.shape[0]))
        while rank(b, p) < d:
            b = rng.integers(0, p, (d, basis.shape[0]))
        prod = b @ basis % p
        xs = np.concatenate(list(iter_solution_chunks(prod, sp)))
        listed = {tuple(row) for row in xs}
        assert xs.shape[0] == len(listed) == sp.size**d
        assert listed == {tuple(row) for row in solutions(annihilator(prod, p), sp)}


def test_pattern_computes_its_parametrization_once(monkeypatch):
    calls = []

    def counting_null_space(rows, p):
        calls.append(p)
        return null_space(rows, p)

    monkeypatch.setattr(patterns, "null_space", counting_null_space)
    sp = Space(2, 3)
    rng = np.random.default_rng(11)
    h = Pattern(2, 2, [[1, 1, 1, 1]], (1, 2, 1, 2))
    col = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    nonzero = pattern_stats(h, col).nonzero_instance_count
    assert nonzero > 0 and h.num_free <= sp.n  # so generic_count runs its Moebius terms
    generic_count(h, col, nonzero)
    assert first_instance(h, col) is not None
    assert calls == [2]


def test_one_chunk_enumeration_lists_no_rep_images(monkeypatch):
    calls = []
    image_points = Space.image_points

    def counting_image_points(self, rep, rows):
        calls.append(rows.shape[0])
        return image_points(self, rep, rows)

    monkeypatch.setattr(Space, "image_points", counting_image_points)
    sp = Space(2, 4)
    h = red_pattern(2, [[1, 1, 1, 1]], 4)  # m n = 12 <= 17 low digits: one chunk
    chunks = list(iter_solution_chunks(h.null_basis, sp))
    assert len(chunks) == 1 and chunks[0].shape == (sp.size**3, 4)
    assert calls == [12] * 4


# --- exact counts on the dual code --------------------------------------------


def _enumerated(h, tables, sp):
    return sum(xs.shape[0] for xs in iter_matches(h.null_basis, tables, sp))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_dual_count_matches_enumeration(p, l):
    rng = np.random.default_rng([p, l])
    for n in ({2: 3, 3: 2, 5: 1, 7: 1}[p], 0):
        sp = Space(p, n)
        for k in range(3, 6):
            rows = rng.integers(0, p, (l, k))
            while rank(rows, p) < l:
                rows = rng.integers(0, p, (l, k))
            # a zero row changes neither the code nor its dual
            h = Pattern(p, 2, np.vstack([rows, np.zeros((1, k), dtype=np.int64)]), tuple(rng.integers(1, 3, k)))
            col = Coloring(sp, 2, rng.integers(1, 3, sp.size))
            table_sets = [color_tables(col, h.psi), color_tables(col, h.psi, require_nonzero=True)]
            want = [_enumerated(h, tables, sp) for tables in table_sets]
            assert patterns._dual_count(h.null_basis, table_sets, sp) == want
            assert count_matches(h.null_basis, table_sets, sp) == want


def test_dual_count_combines_two_primes():
    # x1+...+x4 = 0 on F_2^10: 2^30 solutions, past one prime below 2^29
    sp = Space(2, 10)
    h = red_pattern(2, [[1, 1, 1, 1]], 4)
    col = Coloring(sp, 1, np.ones(sp.size, dtype=np.int64))
    v = sp.size
    table_sets = [color_tables(col, h.psi), color_tables(col, h.psi, require_nonzero=True)]
    # all-nonzero solutions of a sum of k terms: ((|V|-1)^k + (-1)^k (|V|-1)) / |V|
    assert count_matches(h.null_basis, table_sets, sp) == [v**3, ((v - 1) ** 4 + v - 1) // v]


def test_dual_count_is_exact_at_the_largest_p():
    # p = 31 is the largest p the dual route takes; from the second axis on its transform reduces between steps
    p = patterns.DUAL_MAX_P
    rng = np.random.default_rng(p)
    for n, rows in ((2, [[1, 2, 3]]), (3, [[1, 2]])):
        sp = Space(p, n)
        h = Pattern(p, 2, rows, (1, 2, 1)[: len(rows[0])])
        col = Coloring(sp, 2, rng.integers(1, 3, sp.size))
        table_sets = [color_tables(col, h.psi), color_tables(col, h.psi, require_nonzero=True)]
        want = [_enumerated(h, tables, sp) for tables in table_sets]
        assert patterns._dual_count(h.null_basis, table_sets, sp) == count_matches(h.null_basis, table_sets, sp) == want


def test_count_matches_enumerates_past_the_largest_p(monkeypatch):
    p = 37
    assert p > patterns.DUAL_MAX_P
    monkeypatch.setattr(patterns, "_dual_count", None)  # calling it would fail the test
    sp = Space(p, 2)
    h = Pattern(p, 2, [[1, 2, 3]], (1, 2, 1))
    col = Coloring(sp, 2, np.random.default_rng(p).integers(1, 3, sp.size))
    table_sets = [color_tables(col, h.psi), color_tables(col, h.psi, require_nonzero=True)]
    assert count_matches(h.null_basis, table_sets, sp) == [_enumerated(h, tables, sp) for tables in table_sets]


def test_dual_count_work_is_capped(monkeypatch):
    monkeypatch.setattr(patterns, "ENUMERATION_CAP", 1000)
    sp = Space(2, 10)
    h = red_pattern(2, [[1, 1, 1]], 3)
    col = Coloring(sp, 1, np.ones(sp.size, dtype=np.int64))
    with pytest.raises(ResourceCapError) as exc:
        count_matches(h.null_basis, [color_tables(col, h.psi)], sp)
    assert exc.value.requested == sp.size  # one prime times |V|^l
    assert exc.value.cap == 1000


def _spy_dual_routes(monkeypatch):
    """The m of every parametrization that count_matches sends to the dual route, in call order."""
    routes = []
    dual_count = patterns._dual_count

    def spy(basis, table_sets, space):
        routes.append(basis.shape[0])
        return dual_count(basis, table_sets, space)

    monkeypatch.setattr(patterns, "_dual_count", spy)
    return routes


def _mask_count(basis, tables, sp):
    """Matched tuples of t N, from the enumeration and one boolean mask per chunk."""
    total = 0
    for xs in iter_solution_chunks(basis, sp):
        mask = np.ones(xs.shape[0], dtype=bool)
        for i, table in enumerate(tables):
            mask &= table[xs[:, i]]
        total += int(np.count_nonzero(mask))
    return total


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 1)])
def test_count_matches_on_moebius_terms(p, n, monkeypatch):
    # every B_U N of a 5-term equation (m = 4), none of them a pattern's null basis:
    # dim U = 3 has a 2-dimensional dual and takes the dual route, dim U <= 2 enumerates
    routes = _spy_dual_routes(monkeypatch)
    sp = Space(p, n)
    rng = np.random.default_rng([p, n])
    basis = null_space(rng.integers(1, p, (1, 5)), p)
    psi = tuple(int(c) for c in rng.integers(1, 3, 5))
    col = Coloring(sp, 2, rng.integers(1, 3, sp.size))
    table_sets = [color_tables(col, psi), color_tables(col, psi, require_nonzero=True)]
    dims = []
    for dim in (1, 2, 3):
        for b in subspace_bases(4, dim, p):
            term = b @ basis % p
            assert count_matches(term, table_sets, sp) == [_mask_count(term, tables, sp) for tables in table_sets]
            dims.append(dim)
    assert routes == [dim for dim in dims if dim == 3]


# --- stats ------------------------------------------------------------------


def test_all_red_schur_stats_golden():
    """16 solutions to x+y+z=0 in F_2^2, all monochromatic, 6 zero-free."""
    sp = Space(2, 2)
    col = Coloring(sp, 1, np.ones(sp.size, dtype=np.int64))
    st_ = pattern_stats(red_pattern(2, [[1, 1, 1]], 3), col)
    assert st_.total_solutions == 16
    assert st_.instance_count == 16
    assert st_.density == Fraction(1)
    assert st_.nonzero_instance_count == 6
    assert generic_count(red_pattern(2, [[1, 1, 1]], 3), col, st_.nonzero_instance_count) == 6
    assert not st_.is_free


def gaussian_binomial(m, d, p):
    num = den = 1
    for i in range(d):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("m, p", [(m, p) for m in range(1, 5) for p in (2, 3)] + [(3, 5)])
def test_subspace_walk_lists_each_subspace_once(m, p):
    for d in range(m + 1):
        bases = list(subspace_bases(m, d, p))
        assert all(b.shape == (d, m) and np.array_equal(rowspace_basis(b, p), b) for b in bases)
        assert len({b.tobytes() for b in bases}) == len(bases) == gaussian_binomial(m, d, p)


# (p, n, rows, r, seed): the seed draws psi and a coloring under which many
# matched all-nonzero tuples have dependent parameters (generic < nonzero);
# in the sum5 cases the terms of dimension 3 take the dual route
GENERIC_CASES = {
    "F2^4-sum5": (2, 4, [[1, 1, 1, 1, 1]], 2, 0),
    "F2^5-sum5": (2, 5, [[1, 1, 1, 1, 1]], 2, 0),
    "F3^3-chain5": (3, 3, CHAIN5, 2, 0),
    "F5^2-pair4": (5, 2, PAIR4, 2, 4),
    "F2^3-k4-rank1": (2, 3, [[1, 1, 1, 1]], 2, 6),
    "F2^2-sum5-m-above-n": (2, 2, [[1, 1, 1, 1, 1]], 2, 6),
}


@pytest.mark.parametrize("name", sorted(GENERIC_CASES))
def test_generic_count_matches_rank_oracle(name, monkeypatch):
    p, n, rows, r, seed = GENERIC_CASES[name]
    sp = Space(p, n)
    rng = np.random.default_rng(seed)
    k = len(rows[0])
    h = Pattern(p, r, rows, tuple(int(c) for c in rng.integers(1, r + 1, k)))
    col = Coloring(sp, r, rng.integers(1, r + 1, sp.size).astype(np.int64))
    # oracle: the rank of every matched all-nonzero tuple, as a (k, n) digit matrix
    tables = color_tables(col, h.psi, require_nonzero=True)
    sel = np.concatenate(list(iter_matches(h.null_basis, tables, sp)))
    ranks = batch_rank(sp.decode(sel.reshape(-1)).reshape(-1, k, n), p)
    expect = int(np.count_nonzero(ranks == h.num_free))
    nonzero = pattern_stats(h, col).nonzero_instance_count
    assert nonzero == sel.shape[0]
    if h.num_free > n:
        assert expect == 0 < nonzero
    else:
        assert 0 < expect < nonzero
    routes = _spy_dual_routes(monkeypatch)
    assert generic_count(h, col, nonzero) == expect
    # a Moebius term of dimension u takes the dual route exactly when k - u < u
    m = h.num_free
    dual_dims = [u for u in range(1, m) if k - u < u] if m <= n else []
    assert sorted(routes) == sorted(u for u in dual_dims for _ in range(gaussian_binomial(m, u, p)))


def test_moebius_sum_refused_before_its_first_term(monkeypatch):
    # x1+...+x6 = 0 on F_2^9: the dimension-4 terms take the dual route, but each
    # dimension-3 term would enumerate |V|^3 = 2^27 tuples, so the sum is refused up front
    sp = Space(2, 9)
    h = Pattern(2, 2, [[1] * 6], (1,) * 6)
    col = Coloring(sp, 2, np.random.default_rng(9).integers(1, 3, sp.size))
    nonzero = pattern_stats(h, col).nonzero_instance_count
    counted, count = [], patterns.count_matches

    def spy(basis, table_sets, space):
        counted.append(basis.shape[0])
        return count(basis, table_sets, space)

    monkeypatch.setattr(patterns, "count_matches", spy)
    with pytest.raises(ResourceCapError) as exc:
        generic_count(h, col, nonzero)
    assert str(exc.value) == "solution enumeration needs 134217728 tuples, cap is 100000000"
    assert exc.value.requested == 2**27
    assert exc.value.cap == ENUMERATION_CAP
    assert counted == []


def test_stats_require_matching_field_and_colors():
    sp = Space(3, 2)
    col = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    with pytest.raises(ValueError):
        pattern_stats(Pattern(5, 2, [[1, 1, 1]], (1, 1, 1)), col)
    with pytest.raises(ValueError):
        pattern_stats(Pattern(3, 3, [[1, 1, 1]], (1, 1, 1)), col)


def test_density_equals_lambda_on_indicators():
    # rational equality against the weighted count, random instances
    rng = np.random.default_rng(2024)
    for trial in range(40):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 3))
        sp = Space(p, n)
        k = int(rng.integers(1, 5))
        nrows = int(rng.integers(0, 3))
        a = rng.integers(0, p, size=(nrows, k)).astype(np.int64)
        r = int(rng.integers(1, 4))
        psi = tuple(int(c) for c in rng.integers(1, r + 1, size=k))
        h = Pattern(p, r, a, psi)
        col = Coloring(sp, r, rng.integers(1, r + 1, sp.size).astype(np.int64))
        st_ = pattern_stats(h, col)
        val = lam(a, [col.indicator(c) for c in psi], sp)
        assert val.exact is not None
        assert val.exact == st_.density
        assert generic_count(h, col, st_.nonzero_instance_count) <= st_.nonzero_instance_count <= st_.instance_count


def test_lambda_real_valued_has_no_exact_part():
    sp = Space(3, 2)
    rng = np.random.default_rng(5)
    fs = [rng.uniform(-1, 1, sp.size) for _ in range(3)]
    out = lam([[1, 1, 1]], fs, sp)
    assert out.exact is None
    # mean of a product over an explicit solution listing
    sol = solutions([[1, 1, 1]], sp)
    ref = (fs[0][sol[:, 0]] * fs[1][sol[:, 1]] * fs[2][sol[:, 2]]).mean()
    assert abs(out.value - ref) <= 1e-12


def test_first_instance_is_least_in_enumeration_order():
    sp = Space(3, 1)
    col = Coloring(sp, 2, np.array([1, 2, 2], dtype=np.int64))
    h = Pattern(3, 2, [[1, 1, 1]], (2, 2, 2))
    got = first_instance(h, col)
    # manual scan over the same parametrization
    best = None
    for xs in iter_solution_chunks(h.null_basis, sp):
        for row in xs:
            if (row != 0).all() and all(col.values[v] == c for v, c in zip(row, h.psi)):
                best = row
                break
        if best is not None:
            break
    assert best is not None and np.array_equal(got, best)
    # with zeros allowed the all-zero solution wins iff colors match at 0
    h0 = Pattern(3, 2, [[1, 1, 1]], (1, 1, 1))
    z = first_instance(h0, col, require_nonzero=False)
    assert z is not None and not z.any()


def test_first_instance_none_when_free():
    sp = Space(3, 2)
    col = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    h = Pattern(3, 2, [[1, 1, 1]], (2, 2, 2))
    assert first_instance(h, col) is None
    assert pattern_stats(h, col).is_free


# --- subpatterns ------------------------------------------------------------


def test_subpattern_golden_three_term_progression():
    h = red_pattern(5, AP4, 4)
    sub = subpattern(h, [1, 2, 3])
    assert np.array_equal(rowspace_basis(sub.rows, 5), rowspace_basis([[1, -2, 1]], 5))
    assert sub.psi == (1, 1, 1)


def test_subpattern_golden_two_equation_merge():
    h = red_pattern(5, [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]], 5)
    sub = subpattern(h, [1, 2, 4, 5])
    assert np.array_equal(rowspace_basis(sub.rows, 5), rowspace_basis([[1, 1, -1, -1]], 5))


def test_subpattern_full_index_set_is_identity_on_rowspace():
    h = red_pattern(5, AP4, 4)
    sub = subpattern(h, [1, 2, 3, 4])
    assert np.array_equal(rowspace_basis(sub.rows, 5), rowspace_basis(h.rows, 5))


def test_subpattern_rejects_bad_indices():
    h = red_pattern(3, [[1, 1, 1]], 3)
    with pytest.raises(ValueError):
        subpattern(h, [])
    with pytest.raises(ValueError):
        subpattern(h, [0, 1])
    with pytest.raises(ValueError):
        subpattern(h, [4])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subpattern_extendability_exhaustive(p):
    """Projections of the solution set coincide with subpattern solution sets.

    Checked over V = F_p itself, which is enough: solution sets over any V are
    spans of the same null basis with V-coefficients.
    """
    rng = np.random.default_rng(100 + p)
    sp = Space(p, 1)
    for _ in range(6):
        k = int(rng.integers(2, 6))
        a = rng.integers(0, p, size=(rng.integers(1, 3), k)).astype(np.int64)
        h = red_pattern(p, a, k)
        full = solutions(a, sp)
        for mask in range(1, 1 << k):
            idx = [i + 1 for i in range(k) if mask >> i & 1]
            cols = [i - 1 for i in idx]
            sub = subpattern(h, idx)
            projected = {tuple(row) for row in full[:, cols]}
            direct = {tuple(row) for row in solutions(sub.rows, sp)}
            assert projected == direct


def test_lambda_marginalization_identity():
    # Lambda_A(f_1..f_j, 1, .., 1) = Lambda_{A'}(f_1..f_j) with A' the
    # subpattern matrix on the first j variables
    rng = np.random.default_rng(31)
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        sp = Space(p, n)
        a = rng.integers(0, p, size=(2, 4)).astype(np.int64)
        h = red_pattern(p, a, 4)
        j = 2
        sub = subpattern(h, [1, 2])
        ones = np.ones(sp.size)
        # exact route: indicators
        ind = [(rng.random(sp.size) < 0.5).astype(np.float64) for _ in range(j)]
        lhs = lam(a, ind + [ones, ones], sp)
        rhs = lam(sub.rows, ind, sp)
        assert lhs.exact == rhs.exact
        # float route
        fs = [rng.uniform(-1, 1, sp.size) for _ in range(j)]
        lhs_f = lam(a, fs + [ones, ones], sp)
        rhs_f = lam(sub.rows, fs, sp)
        assert abs(lhs_f.value - rhs_f.value) <= 1e-9


def test_closure_dedups_presentations():
    h = red_pattern(5, AP4, 4)
    clo = subpattern_closure([h])
    assert len(clo) == 6
    assert len(subpattern_closure([h, h])) == 6
    keys = {s.canonical_key() for s in clo}
    assert subpattern(h, [1, 2, 3]).canonical_key() in keys
    assert subpattern(h, [2, 3, 4]).canonical_key() in keys
    # shifted progression projects to the same constraint
    assert subpattern(h, [1, 2, 3]) == subpattern(h, [2, 3, 4])
    # every member really is a subpattern of h
    for s in clo:
        assert s.p == 5 and s.r == 1


def test_closure_mixed_family_keeps_psi_distinct():
    a = Pattern(3, 2, [[1, 1, 1]], (1, 1, 1))
    b = Pattern(3, 2, [[1, 1, 1]], (2, 2, 2))
    clo = subpattern_closure([a, b])
    # same matrices, different colors: nothing may collapse across psi
    assert len(clo) == len(subpattern_closure([a])) * 2


# --- pattern identity and files ----------------------------------------------


def test_pattern_equality_is_by_rowspace():
    a = Pattern(5, 1, [[1, -2, 1]], (1, 1, 1))
    b = Pattern(5, 1, [[2, 1, 2]], (1, 1, 1))  # scalar multiple, same row space
    c = Pattern(5, 1, [[1, -2, 1]], (1, 1, 1))
    assert a == b == c
    assert hash(a) == hash(b)
    assert a != Pattern(5, 2, [[1, -2, 1]], (1, 1, 1))


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(5, 2, [[1, 1, 1]], (1, 3, 1))
    with pytest.raises(ValueError):
        Pattern(5, 2, [[1, 1]], ())


def test_pattern_file_roundtrip(tmp_path):
    h = Pattern(5, 3, AP4, (1, 2, 3, 1))
    path = tmp_path / "h.json"
    write_pattern(path, h)
    assert read_pattern(path) == h
    fam = [h, Pattern(5, 3, [[1, 1, 1, 0]], (2, 2, 2, 2))]
    fpath = tmp_path / "fam.json"
    write_family(fpath, fam)
    back = read_family(fpath)
    assert back == fam


def test_integral_json_numbers_load_and_fractions_do_not():
    # a JSON number with zero fraction is an integer; a fraction or a boolean is refused, not truncated
    h = Pattern.from_dict({"p": 5.0, "r": 1, "rows": [[1.0, 1, 1]], "psi": [1, 1, 1]})
    assert h == Pattern(5, 1, [[1, 1, 1]], (1, 1, 1))
    assert Pattern.from_dict({"p": 5, "r": 1, "rows": [], "psi": [1, 1]}).rows.shape == (0, 2)
    for rows in ([[True, 1, 1]], [[1, 1, 1], 2.5]):
        with pytest.raises(ValueError):
            Pattern.from_dict({"p": 5, "r": 1, "rows": rows, "psi": [1, 1, 1]})


def test_family_file_must_be_a_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 5}\n')
    with pytest.raises(ValueError):
        read_family(path)


# --- the enumerate-and-match kernel against brute force over V^k ---------------


@st.composite
def kernel_cases(draw):
    """(pattern, coloring, offsets) on a space of at most 8 points, k <= 4."""
    p, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1)]))
    sp = Space(p, n)
    k = draw(st.integers(1, 4))
    l = draw(st.integers(0, 3))
    r = draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=l * k, max_size=l * k))
    psi = draw(st.lists(st.integers(1, r), min_size=k, max_size=k))
    values = draw(st.lists(st.integers(1, r), min_size=sp.size, max_size=sp.size))
    offsets = draw(st.lists(st.integers(0, sp.size - 1), min_size=l, max_size=l))
    h = Pattern(p, r, np.array(entries, dtype=np.int64).reshape(l, k), tuple(psi))
    return h, Coloring(sp, r, np.array(values, dtype=np.int64)), tuple(offsets)


@given(kernel_cases())
@settings(max_examples=200, deadline=None)
def test_kernel_counts_match_brute_force(case):
    h, col, offsets = case
    sp, p = col.space, col.space.p
    tuples = np.array(list(itertools.product(range(sp.size), repeat=h.k)), dtype=np.int64)
    lhs = np.einsum("lk,bkn->bln", h.rows, sp.digits[tuples]) % p  # A x for every x in V^k
    homogeneous = ~lhs.any(axis=(1, 2))
    inhomogeneous = (lhs == sp.digits[list(offsets)][None]).all(axis=(1, 2))
    colored = (col.values[tuples] == np.array(h.psi)).all(axis=1)
    nonzero = (tuples != 0).all(axis=1)
    instances = homogeneous & colored
    generic = sum(rank(sp.digits[x], p) == h.num_free for x in tuples[instances & nonzero])

    stats = pattern_stats(h, col)
    assert stats.total_solutions == np.count_nonzero(homogeneous)
    assert stats.instance_count == np.count_nonzero(instances)
    assert stats.nonzero_instance_count == np.count_nonzero(instances & nonzero)
    # the dual route on every input, not only where count_matches picks it
    table_sets = [color_tables(col, h.psi), color_tables(col, h.psi, require_nonzero=True)]
    want = [np.count_nonzero(instances), np.count_nonzero(instances & nonzero)]
    assert patterns._dual_count(h.null_basis, table_sets, sp) == want
    assert generic_count(h, col, stats.nonzero_instance_count) == generic
    fs = [col.indicator(c) for c in h.psi]
    assert lam(h.rows, fs, sp).exact == Fraction(int(np.count_nonzero(instances)), int(np.count_nonzero(homogeneous)))
    assert count_inhomogeneous(col, h, offsets) == np.count_nonzero(inhomogeneous & colored)

    # first_instance is the first match in solutions() order, which lists the solution set once
    order = solutions(h.rows, sp)
    assert sorted(map(tuple, order)) == sorted(map(tuple, tuples[homogeneous]))
    for require_nonzero in (True, False):
        wanted = {tuple(x) for x in tuples[instances & nonzero if require_nonzero else instances]}
        expect = next((x for x in order if tuple(x) in wanted), None)
        got = first_instance(h, col, require_nonzero=require_nonzero)
        assert (got is None) == (expect is None)
        assert got is None or np.array_equal(got, expect)
