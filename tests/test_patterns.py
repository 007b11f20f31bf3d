import itertools
import math
import tracemalloc

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
    count_members,
    first_instance,
    generic_count,
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
    h = Pattern(2, 2, [[1, 1, 1, 1]], (1, 2, 1, 2))

    def counting_null_space(rows, p):
        # the dual count's null_space calls take a parametrization, not the pattern's rows
        calls.append(np.array_equal(rows, h.rows))
        return null_space(rows, p)

    monkeypatch.setattr(patterns, "null_space", counting_null_space)
    sp = Space(2, 3)
    rng = np.random.default_rng(11)
    col = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    nonzero = pattern_stats(h, col).nonzero_instance_count
    assert nonzero > 0 and h.num_free <= sp.n  # so generic_count runs its Moebius terms
    generic_count(h, col, nonzero)
    assert first_instance(h, col) is not None
    assert calls.count(True) == 1


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
    return sum(int(np.count_nonzero(patterns._hits(tables, xs))) for xs in iter_solution_chunks(h.null_basis, sp))


def _moduli(basis, sp):
    """The primes a dual count of basis runs on, for calling _dual_count on any shape."""
    return patterns._dual_moduli(*basis.shape, sp)


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
            assert patterns._dual_count(h.null_basis, table_sets, _moduli(h.null_basis, sp), sp, {}) == want
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


def _sum4_oracle(tables, sp):
    """#{x1+x2+x3+x4 = 0 : tables[i][x_i] for all i}, by three additive convolutions over the add table."""
    idx = np.arange(sp.size)
    add = np.concatenate([sp.add_points(idx[i : i + 128, None], idx) for i in range(0, sp.size, 128)])
    dist = tables[0].astype(np.float64)  # dist[s]: matched (x1, ..., x_j) summing to s, exact below 2^53
    for table in tables[1:]:
        dist = np.bincount(add.reshape(-1), weights=np.outer(dist, table).reshape(-1), minlength=sp.size)
    return int(dist[0])


@pytest.mark.parametrize("p, n", [(2, 10), (3, 7)])
def test_dual_count_combines_two_primes_on_random_colorings(p, n):
    # x1+...+x4 = 0: |V|^3 solutions (2^30, 3^21), past one prime below 2^29
    sp = Space(p, n)
    assert len(patterns._dual_moduli(3, 4, sp)) == 2
    rng = np.random.default_rng([p, n])
    h = Pattern(p, 3, [[1, 1, 1, 1]], tuple(int(c) for c in rng.integers(1, 4, 4)))
    values = rng.integers(1, 4, sp.size)
    values[0] = h.psi[0]  # so clearing entry 0 drops matched solutions
    col = Coloring(sp, 3, values)
    table_sets = [color_tables(col, h.psi), color_tables(col, h.psi, require_nonzero=True)]
    want = [_sum4_oracle(tables, sp) for tables in table_sets]
    assert 0 < want[1] < want[0]
    assert count_matches(h.null_basis, table_sets, sp) == want


def test_dual_count_memory_is_bounded_by_its_tables():
    # x+y+z = 0 on F_2^16: the Walsh spectra of the 6 tables, one butterfly buffer and a C^perp chunk
    sp = Space(2, 16)
    h = red_pattern(2, [[1, 1, 1]], 3)
    col = Coloring(sp, 2, np.random.default_rng(16).integers(1, 3, sp.size))
    table_sets = [color_tables(col, h.psi), color_tables(col, h.psi, require_nonzero=True)]
    table_bytes = 2 * 3 * sp.size * 8  # the tables as int64
    tracemalloc.start()
    try:
        count_matches(h.null_basis, table_sets, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * table_bytes


def test_dual_count_is_exact_at_the_largest_p():
    # p = 31 is the largest p the dual route takes: its 31-term dot products of residues come closest to 2^63
    p = patterns.DUAL_MAX_P
    rng = np.random.default_rng(p)
    for n, rows in ((2, [[1, 2, 3]]), (3, [[1, 2]])):
        sp = Space(p, n)
        h = Pattern(p, 2, rows, (1, 2, 1)[: len(rows[0])])
        col = Coloring(sp, 2, rng.integers(1, 3, sp.size))
        table_sets = [color_tables(col, h.psi), color_tables(col, h.psi, require_nonzero=True)]
        want = [_enumerated(h, tables, sp) for tables in table_sets]
        dual = patterns._dual_count(h.null_basis, table_sets, _moduli(h.null_basis, sp), sp, {})
        assert dual == count_matches(h.null_basis, table_sets, sp) == want


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
    """The shape (m, k') of every merged parametrization that count_matches sends to the dual route, in call order."""
    routes = []
    dual_count = patterns._dual_count

    def spy(basis, *rest):
        routes.append(basis.shape)
        return dual_count(basis, *rest)

    monkeypatch.setattr(patterns, "_dual_count", spy)
    return routes


def _merged_dual_route(term, table_sets, sp):
    """The shape (m, k') that count_matches should route to the dual code for term, or None.

    k' counts the distinct directions of the nonzero columns, two columns being one
    direction when together they have rank 1; the term is unrouted when each set has
    a zero column whose table is false at 0, and enumerated when k' - m >= m.
    """
    m = term.shape[0]
    zero = [j for j in range(term.shape[1]) if not term[:, j].any()]
    if all(any(not tables[j][0] for j in zero) for tables in table_sets):
        return None
    cols = [term[:, j] for j in range(term.shape[1]) if term[:, j].any()]
    directions = sum(all(rank(np.stack([c, d]), sp.p) == 2 for d in cols[:i]) for i, c in enumerate(cols))
    return (m, directions) if directions - m < m else None


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
    # every B_U N of a 5-term equation (m = 4), none of them a pattern's null basis: each is
    # routed on its merged shape, so a dim U = 2 term with 3 directions takes the dual route too
    routes = _spy_dual_routes(monkeypatch)
    sp = Space(p, n)
    rng = np.random.default_rng([p, n])
    basis = null_space(rng.integers(1, p, (1, 5)), p)
    psi = tuple(int(c) for c in rng.integers(1, 3, 5))
    col = Coloring(sp, 2, rng.integers(1, 3, sp.size))
    table_sets = [color_tables(col, psi), color_tables(col, psi, require_nonzero=True)]
    expected = []
    for dim in (1, 2, 3):
        for b in subspace_bases(4, dim, p):
            term = b @ basis % p
            assert count_matches(term, table_sets, sp) == [_mask_count(term, tables, sp) for tables in table_sets]
            expected.append(_merged_dual_route(term, table_sets, sp))
    assert routes == [shape for shape in expected if shape is not None]


@st.composite
def folded_bases(draw):
    """(basis, table_sets, space): a full-row-rank basis with forced zero and parallel columns.

    The basis holds the m unit columns, up to two random columns and one to three forced
    ones (a zero column, or c times an earlier column with c != 1 at odd p), shuffled.
    Each of one to three table sets holds tables true at about 3/4 of the points; some
    sets have entry 0 cleared, as in pattern_stats's second set.
    """
    p, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]))
    sp = Space(p, n)
    m = draw(st.integers(1, 3))
    columns = np.eye(m, dtype=np.int64).tolist()
    for _ in range(draw(st.integers(0, 2))):
        columns.append(draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            columns.append([0] * m)
        else:
            source = columns[draw(st.integers(0, len(columns) - 1))]
            c = draw(st.integers(2, p - 1)) if p > 2 else 1
            columns.append([c * v % p for v in source])
    order = draw(st.permutations(range(len(columns))))
    basis = np.array([columns[j] for j in order], dtype=np.int64).T
    table_sets = []
    for _ in range(draw(st.integers(1, 3))):
        marks = draw(st.lists(st.integers(0, 3), min_size=basis.shape[1] * sp.size, max_size=basis.shape[1] * sp.size))
        tables = list(np.array(marks).reshape(basis.shape[1], sp.size) != 0)
        if draw(st.booleans()):
            for table in tables:
                table[0] = False
        table_sets.append(tables)
    return basis, table_sets, sp


@given(folded_bases())
@settings(max_examples=150, deadline=None)
def test_column_merge_keeps_every_count(case):
    basis, table_sets, sp = case
    assert rank(basis, sp.p) == basis.shape[0]
    assert count_matches(basis, table_sets, sp) == [_mask_count(basis, tables, sp) for tables in table_sets]


def test_column_merge_edge_cases(monkeypatch):
    sp = Space(5, 1)
    full = [np.ones(sp.size, dtype=bool)] * 4
    # a (0, k) basis lists only x = 0, so a set counts 1 exactly when each table holds 0
    no_zero = [full[0], full[1], np.arange(sp.size) != 0]
    empty = np.zeros((0, 3), dtype=np.int64)
    assert count_matches(empty, [full[:3], no_zero], sp) == [1, 0] == [_mask_count(empty, t, sp) for t in (full[:3], no_zero)]
    # x = (t, 2t, 3t, 4t): every column folds into the first, so one form is counted on the dual code
    routes = _spy_dual_routes(monkeypatch)
    line = np.array([[1, 2, 3, 4]], dtype=np.int64)
    tables = [np.isin(np.arange(sp.size), keep) for keep in ((0, 1, 2, 4), (0, 2, 3, 4), (0, 1, 3, 4), (0, 1, 2, 3))]
    assert count_matches(line, [tables, full], sp) == [_mask_count(line, t, sp) for t in (tables, full)] == [2, 5]
    assert routes == [(1, 1)]
    # a zero column clears exactly the sets whose table for it is false at 0
    sp = Space(3, 2)
    basis = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int64)
    rng = np.random.default_rng(3)
    held = [rng.random(sp.size) < 0.7 for _ in range(3)]
    held[1][0] = True
    cleared = [held[0], np.arange(sp.size) != 0, held[2]]
    counts = count_matches(basis, [held, cleared, held], sp)
    assert counts == [_mask_count(basis, t, sp) for t in (held, cleared, held)]
    assert counts[0] == counts[2] > 0 == counts[1]
    # a call whose every set is cleared returns before routing
    monkeypatch.setattr(patterns, "_route", None)  # calling it would fail the test
    assert count_matches(basis, [cleared, cleared], sp) == [0, 0]


@st.composite
def dual_cases(draw):
    """(basis, folded, table_sets, space): an (m, m + l) basis of full row rank with l in {0, 1, 2} and
    l < m, the same basis with forced zero and parallel columns, and table sets for each.

    The tables are drawn from a pool of one to three, so sets repeat tables; a drawn table may
    have entry 0 flipped, so tables differ only at entry 0.  The folded basis makes count_matches
    merge tables before its dual count.
    """
    p, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]))
    sp = Space(p, n)
    l = draw(st.integers(0, 2))
    m = draw(st.integers(l + 1, 3))
    free = draw(st.lists(st.integers(0, p - 1), min_size=m * l, max_size=m * l))
    columns = np.hstack([np.eye(m, dtype=np.int64), np.array(free, dtype=np.int64).reshape(m, l)]).T.tolist()
    basis = np.array([columns[j] for j in draw(st.permutations(range(m + l)))], dtype=np.int64).T
    extra = []
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(0, p - 1))  # c = 0 is a zero column
        extra.append(c * basis[:, draw(st.integers(0, m + l - 1))] % p)
    folded = np.hstack([basis] + [col[:, None] for col in extra])
    marks = st.lists(st.booleans(), min_size=sp.size, max_size=sp.size)
    pool = [np.array(draw(marks)) for _ in range(draw(st.integers(1, 3)))]
    table_sets = []
    for _ in range(draw(st.integers(1, 3))):
        tables = []
        for _ in range(folded.shape[1]):
            table = pool[draw(st.integers(0, len(pool) - 1))].copy()
            if draw(st.booleans()):
                table[0] = not table[0]
            tables.append(table)
        table_sets.append(tables)
    return basis, folded, table_sets, sp


@given(dual_cases())
@settings(max_examples=200, deadline=None)
def test_dual_count_on_points_lines_and_planes(case):
    basis, folded, table_sets, sp = case
    k = basis.shape[1]
    direct = [tables[:k] for tables in table_sets]
    want = [_mask_count(basis, tables, sp) for tables in direct]
    moduli = _moduli(basis, sp)
    assert patterns._dual_count(basis, direct, moduli, sp, {}) == want
    # a store that holds some keys is filled on the first call and read on the second
    store = {patterns._spectrum_key(t): {} for t in direct[0][::2]}
    assert patterns._dual_count(basis, direct, moduli, sp, store) == want
    assert patterns._dual_count(basis, direct, moduli, sp, store) == want
    assert count_matches(folded, table_sets, sp) == [_mask_count(folded, tables, sp) for tables in table_sets]


# --- a family counted per distinct null basis -----------------------------------


@st.composite
def shared_basis_members(draw):
    """(members, space): one to six (null basis, tables) members on one or two null bases.

    The bases come from freely drawn rows, with a unit row sometimes added, which fixes
    x_j = 0 and so gives the basis a zero column.  Each member reads one random 3-coloring
    through its own psi, with entry 0 cleared or not, so sets on a zero column may be dead.
    The space may be F_p^0, where the closure counts of a trivial model run.
    """
    p, n = draw(st.sampled_from([(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (5, 1)]))
    sp = Space(p, n)
    col = Coloring(sp, 3, np.array(draw(st.lists(st.integers(1, 3), min_size=sp.size, max_size=sp.size))))
    bases = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k), max_size=2))
        if draw(st.booleans()):
            rows.append([int(j == draw(st.integers(0, k - 1))) for j in range(k)])
        bases.append(Pattern(p, 3, np.array(rows, dtype=np.int64).reshape(-1, k), (1,) * k).null_basis)
    members = []
    for _ in range(draw(st.integers(1, 6))):
        basis = bases[draw(st.integers(0, len(bases) - 1))]
        psi = draw(st.lists(st.integers(1, 3), min_size=basis.shape[1], max_size=basis.shape[1]))
        members.append((basis, color_tables(col, psi, require_nonzero=draw(st.booleans()))))
    return members, sp


@given(shared_basis_members())
@settings(max_examples=200, deadline=None)
def test_grouped_counts_match_each_member_counted_alone(case):
    members, sp = case
    alone = [count_matches(basis, [tables], sp)[0] for basis, tables in members]
    assert list(count_members(members, sp)) == alone == [_mask_count(basis, tables, sp) for basis, tables in members]


def test_grouped_counts_merge_route_and_count_each_basis_once(monkeypatch):
    # a 3-color family of x+y+z = 0 and one of x+2y = 0 at p = 3, interleaved: two bases, one count each
    sp = Space(3, 3)
    col = Coloring(sp, 3, np.random.default_rng(5).integers(1, 4, sp.size))
    family = [Pattern(3, 3, rows, (c,) * len(rows[0])) for c in (1, 2, 3) for rows in ([[1, 1, 1]], [[1, 2]])]
    members = [(h.null_basis, color_tables(col, h.psi, require_nonzero=True)) for h in family]
    expected = [pattern_stats(h, col).nonzero_instance_count for h in family]
    calls = {name: [] for name in ("_merge_columns", "_route", "_count")}
    for name, seen in calls.items():
        monkeypatch.setattr(patterns, name, lambda *a, f=getattr(patterns, name), seen=seen: seen.append(a[0]) or f(*a))
    assert list(count_members(members, sp)) == expected
    assert [len(seen) for seen in calls.values()] == [2, 2, 2]


# six pairwise independent columns in F_2^3, and a zero column: merged to (3, 6), so counting
# a live set enumerates |V|^3 tuples, since l = 3 is not below m = 3
WIDE_F2 = np.array([[1, 0, 0, 1, 0, 1, 0], [0, 1, 0, 1, 1, 0, 0], [0, 0, 1, 0, 1, 1, 0]], dtype=np.int64)


def test_grouped_counts_refuse_where_the_member_loop_does(monkeypatch):
    monkeypatch.setattr(patterns, "ENUMERATION_CAP", 1000)
    sp = Space(2, 4)  # 16^3 = 4096 tuples for WIDE_F2, over the cap
    ones = np.ones(sp.size, dtype=bool)
    dead = [ones] * 6 + [np.arange(sp.size) != 0]  # x_7 = 0 is unmatched
    live = [ones] * 7
    point = np.ones((1, 1), dtype=np.int64)
    # a dead set is not routed, before or after a live member of another basis
    assert list(count_members([(WIDE_F2, dead), (point, [ones]), (WIDE_F2, dead)], sp)) == [0, 16, 0]
    # a dead set before a refused live member of its basis: the refusal the member loop raises
    counts = count_members([(WIDE_F2, dead), (WIDE_F2, live)], sp)
    assert next(counts) == 0 == count_matches(WIDE_F2, [dead], sp)[0]
    with pytest.raises(ResourceCapError, match="solution enumeration needs 4096 tuples, cap is 1000") as grouped:
        next(counts)
    with pytest.raises(ResourceCapError) as alone:
        count_matches(WIDE_F2, [live], sp)
    assert (grouped.value.requested, grouped.value.cap) == (alone.value.requested, alone.value.cap) == (4096, 1000)
    # a caller that stops at an earlier member's count routes no later basis
    counts = count_members([(point, [ones]), (WIDE_F2, live)], sp)
    assert next(counts) == 16
    with pytest.raises(ResourceCapError):
        next(counts)


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
    sel = np.concatenate([xs[patterns._hits(tables, xs)] for xs in iter_solution_chunks(h.null_basis, sp)])
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
    # a Moebius term takes the dual route exactly when its merged shape (u, k') has k' - u < u
    m = h.num_free
    terms = [b @ h.null_basis % p for u in range(1, m) for b in subspace_bases(m, u, p)] if m <= n else []
    shapes = [_merged_dual_route(term, [tables], sp) for term in terms]
    assert sorted(routes) == sorted(shape for shape in shapes if shape is not None)


def test_moebius_sum_refused_before_its_first_term(monkeypatch):
    # x1+x2+x3+x4 = 0 on F_5^6: the 5^18 solutions are counted on the dual code, but some live
    # dimension-2 terms keep 4 pairwise independent columns, so either route needs |V|^2 = 5^12
    # tuples, and the sum is refused before any term is counted
    sp = Space(5, 6)
    h = Pattern(5, 2, [[1] * 4], (1,) * 4)
    col = Coloring(sp, 2, np.random.default_rng(14).integers(1, 3, sp.size))
    nonzero = pattern_stats(h, col).nonzero_instance_count
    counted, count = [], patterns._count

    def spy(basis, *rest):
        counted.append(basis.shape[0])
        return count(basis, *rest)

    monkeypatch.setattr(patterns, "_count", spy)
    with pytest.raises(ResourceCapError) as exc:
        generic_count(h, col, nonzero)
    assert str(exc.value) == "solution enumeration needs 244140625 tuples, cap is 100000000"
    assert exc.value.requested == 5**12
    assert exc.value.cap == ENUMERATION_CAP
    assert counted == []


def test_moebius_sum_refusal_lists_no_term_past_the_refused_one():
    # x1+...+x11 = 0 on F_2^10: the first live dimension-8 term needs 3 primes x 2^30 products.
    # Listing all [10, 2]_2 = 174,251 dimension-8 bases at once would hold 111 MB of int64
    # before the product with N; routing each term as it is built stops at the first refused one.
    sp = Space(2, 10)
    h = Pattern(2, 2, [[1] * 11], (1,) * 11)
    col = Coloring(sp, 2, np.random.default_rng(9).integers(1, 3, sp.size))
    nonzero = pattern_stats(h, col).nonzero_instance_count
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError) as exc:
            generic_count(h, col, nonzero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.requested == 3 * 2**30
    assert peak < 2**22


@pytest.mark.parametrize("k, n", [(5, 14), (6, 9)])
def test_moebius_sum_reaches_past_shapes_no_live_term_has(k, n):
    # on the all-ones coloring every all-nonzero solution of x1+...+xk = 0 matches; a generic one
    # has its first k - 1 points independent and the last their sum, prod_{i < k-1} (2^n - 2^i) in
    # all. No live dimension-3 term keeps all k columns over F_2, so every term fits the cap,
    # while the shape (3, k) would not
    sp = Space(2, n)
    h = Pattern(2, 1, [[1] * k], (1,) * k)
    col = Coloring(sp, 1, np.ones(sp.size, dtype=np.int64))
    nonzero = pattern_stats(h, col).nonzero_instance_count
    assert generic_count(h, col, nonzero) == math.prod(2**n - 2**i for i in range(k - 1))


def _sum_input(name):
    """The pattern and coloring of a stats golden: sum5_f2 or chain5_f3 (tests/test_golden.py's write_inputs)."""
    rng = np.random.default_rng(1)
    col2 = Coloring(Space(2, 4), 2, rng.integers(1, 3, 16).astype(np.int64))
    if name == "sum5_f2":
        return Pattern(2, 2, [[1, 1, 1, 1, 1]], (1,) * 5), col2
    return Pattern(3, 3, CHAIN5, (1, 2, 1, 2, 1)), Coloring(Space(3, 4), 3, rng.integers(1, 4, 81).astype(np.int64))


def test_moebius_sum_lists_no_point_or_line_and_transforms_its_tables_once(monkeypatch):
    h, col = _sum_input("sum5_f2")
    duals, listed, walshed = [], [], []
    dual_count, enumerate_, walsh = patterns._dual_count, patterns.iter_solution_chunks, patterns._walsh

    def dual_spy(basis, *rest):
        duals.append(basis.shape[1] - basis.shape[0])
        try:
            return dual_count(basis, *rest)
        finally:
            duals.append(None)

    def enumerate_spy(basis, space):
        if duals and duals[-1] is not None:  # inside a dual count
            listed.append(basis.shape[0])
        return enumerate_(basis, space)

    def walsh_spy(a):
        walshed.extend(row.copy() for row in a)
        return walsh(a)

    terms, merged, merge, count = [], [], patterns._merge_columns, patterns._count

    def merge_spy(basis, space):
        terms.append(basis)
        return merge(basis, space)

    def count_spy(basis, *rest):
        merged.append(basis)
        return count(basis, *rest)

    monkeypatch.setattr(patterns, "_dual_count", dual_spy)
    monkeypatch.setattr(patterns, "iter_solution_chunks", enumerate_spy)
    monkeypatch.setattr(patterns, "_walsh", walsh_spy)
    nonzero = pattern_stats(h, col).nonzero_instance_count
    walshed.clear()
    monkeypatch.setattr(patterns, "_merge_columns", merge_spy)
    monkeypatch.setattr(patterns, "_count", count_spy)
    assert generic_count(h, col, nonzero) == 480  # the golden's generic_instances
    # a term with a zero column counts 0 and is dropped before it is merged; each live term is counted once
    assert terms and all(term.any(axis=0).all() for term in terms)
    assert len(merged) == len(terms)
    dims = [l for l in duals if l is not None]
    assert dims.count(1) > 1  # the main count and the sum count lines
    assert listed == [l for l in dims if l >= 2]
    # the sum's own table, entry 0 cleared, is transformed once: one Walsh spectrum serves every prime
    own = color_tables(col, h.psi, require_nonzero=True)[0].astype(np.int64)
    assert sum(np.array_equal(row, own) for row in walshed) == 1


@pytest.mark.parametrize("name, calls", [("sum5_f2", (20, 20, 20)), ("chain5_f3", (9, 9, 5))])
def test_moebius_sum_merges_and_routes_each_term_once(name, calls, monkeypatch):
    # one merge and one route per live term, and primes only for the terms that take the dual route
    h, col = _sum_input(name)
    sp, p, m = col.space, col.space.p, h.num_free
    nonzero = pattern_stats(h, col).nonzero_instance_count
    tables = color_tables(col, h.psi, require_nonzero=True)
    terms = [b @ h.null_basis % p for u in range(1, m) for b in subspace_bases(m, u, p)]
    live = [term for term in terms if term.any(axis=0).all()]
    dual = [term for term in live if _merged_dual_route(term, [tables], sp) is not None]
    assert (len(live), len(live), len(dual)) == calls
    made = dict.fromkeys(["_merge_columns", "_route", "_dual_moduli"], 0)

    def spy(fn, f):
        def counted(*args):
            made[fn] += 1
            return f(*args)

        return counted

    for fn in made:
        monkeypatch.setattr(patterns, fn, spy(fn, getattr(patterns, fn)))
    generic_count(h, col, nonzero)
    assert tuple(made.values()) == calls


def test_moebius_sum_keeps_only_its_own_spectra(monkeypatch):
    # chain5 on F_3^4: terms merge x_j = 2 x_i into tables of their own, transformed per call
    h, col = _sum_input("chain5_f3")
    nonzero = pattern_stats(h, col).nonzero_instance_count
    stores, unkept, key_spectra = [], [], patterns._key_spectra

    def spy(keys, tables, moduli, space, spectra):
        out = key_spectra(keys, tables, moduli, space, spectra)
        stores.append({(key, q): id(s) for key, by_q in spectra.items() for q, s in by_q.items()})
        unkept.extend(set(keys) - set(spectra))
        return out

    monkeypatch.setattr(patterns, "_key_spectra", spy)
    generic_count(h, col, nonzero)
    own = {patterns._spectrum_key(t) for t in color_tables(col, h.psi, require_nonzero=True)}
    assert unkept  # some terms count merged tables
    assert {key for key, _ in stores[-1]} == own
    # a kept spectrum is computed once and read by every later term
    for before, after in zip(stores, stores[1:]):
        assert after.items() >= before.items()


def test_moebius_sum_memory_is_bounded_by_its_own_spectra():
    # x1+...+x5 = 0 on F_2^14. The store keeps 2 keys x 2 primes; the first term adds their
    # Walsh spectra, the copies it stores and a block's products. The peak reads 15.5 tables of
    # int64 here.
    sp = Space(2, 14)
    h = Pattern(2, 2, [[1] * 5], (1, 2, 1, 2, 1))
    col = Coloring(sp, 2, np.random.default_rng(14).integers(1, 3, sp.size))
    nonzero = pattern_stats(h, col).nonzero_instance_count
    tracemalloc.start()
    try:
        generic_count(h, col, nonzero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * sp.size * 8


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
    assert patterns._dual_count(h.null_basis, table_sets, _moduli(h.null_basis, sp), sp, {}) == want
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
