from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from removal_lab import patterns, ramsey
from removal_lab.errors import ResourceCapError, VerificationError
from removal_lab.fields import null_space
from removal_lab.patterns import Pattern, first_instance, iter_solution_chunks, pattern_stats, subpattern_closure
from removal_lab.ramsey import ChiCertificate, Dichotomy, _class_table, canonical_coloring, decide_dichotomy
from removal_lab.space import Space


def mono_family(p, r, rows, k):
    return [Pattern(p, r, rows, (c,) * k) for c in range(1, r + 1)]


# --- canonical colorings ------------------------------------------------------


def test_canonical_coloring_golden_f3():
    sp = Space(3, 2)
    col = canonical_coloring(sp, (1, 2))
    assert col.values.tolist() == [1, 1, 2, 1, 1, 2, 2, 1, 2]


def test_canonical_coloring_definition_pointwise():
    sp = Space(5, 3)
    chi = (2, 1, 3, 2)
    col = canonical_coloring(sp, chi, r=3)
    for idx in range(sp.size):
        coords = sp.digits[idx]
        nz = [int(c) for c in coords if c != 0]
        expect = 1 if not nz else chi[nz[0] - 1]
        assert col.values[idx] == expect


def test_canonical_coloring_identity_chi_uses_all_colors():
    sp = Space(5, 2)
    col = canonical_coloring(sp, (1, 2, 3, 4))
    assert set(np.unique(col.values)) == {1, 2, 3, 4}


def test_canonical_coloring_validation():
    sp = Space(3, 2)
    with pytest.raises(ValueError):
        canonical_coloring(sp, (1,))
    with pytest.raises(ValueError):
        canonical_coloring(sp, (0, 1))
    with pytest.raises(ValueError):
        canonical_coloring(sp, (1, 3), r=2)
    # r larger than max(chi) is allowed and recorded
    assert canonical_coloring(sp, (1, 1), r=4).r == 4


# --- dichotomy ------------------------------------------------------------------


def test_schur_one_color_is_case_a_with_checked_certificate():
    fam = [Pattern(2, 1, [[1, 1, 1]], (1, 1, 1))]
    out = decide_dichotomy(fam)
    assert out.case == "A"
    assert out.verified
    assert len(out.certificates) == 1  # single chi for (p, r) = (2, 1)
    cert = out.certificates[0]
    sp = Space(2, out.n)
    xs = np.array(cert.instance)
    assert (xs != 0).all()
    assert not (np.array([[1, 1, 1]]) @ sp.digits[xs] % 2).any()


def test_mono_sum_family_f5_four_colors_is_case_b_identity_chi():
    fam = mono_family(5, 4, [[1, 1, 1]], 3)
    out = decide_dichotomy(fam)
    assert out.case == "B"
    assert out.chi == (1, 2, 3, 4)
    assert out.n == 3
    col = canonical_coloring(Space(5, out.n), out.chi, r=4)
    for h in fam:
        assert pattern_stats(h, col).is_free


def test_case_b_witness_is_lex_first_failing_chi():
    fam = [Pattern(3, 2, [[1, 1, 1]], (1, 1, 1))]
    out = decide_dichotomy(fam)
    sp = Space(3, 3)
    expected = None
    for chi in product((1, 2), repeat=2):
        col = canonical_coloring(sp, chi, r=2)
        if all(pattern_stats(h, col).is_free for h in fam):
            expected = chi
            break
    assert expected is not None
    assert out.case == "B" and out.chi == expected


@pytest.mark.parametrize(
    "instance,message",
    [((1, 1, 3), "violates the linear relations"), ((0, 0, 0), "touches zero"), ((2, 2, 2), "colors do not match")],
    ids=["not-a-solution", "touches-zero", "wrong-color"],
)
def test_certificate_defects_are_refused_with_the_instance(instance, message):
    # on F_3^3 under chi (1, 2), point 1 = e_0 and point 3 = e_1 take color 1, point 2 = 2 e_0 color 2
    space = Space(3, 3)
    h = Pattern(3, 2, [[1, 1, 1]], (1, 1, 1))
    ramsey._check_certificates([h], [ChiCertificate((1, 2), 0, (1, 1, 1))], space)
    with pytest.raises(VerificationError, match=message) as info:
        ramsey._check_certificates([h], [ChiCertificate((1, 2), 0, instance)], space)
    assert info.value.evidence == instance


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 2, 1, 3), (3, 2, 1, 0)], ids=["walk", "swapped", "reversed"])
def test_certificate_check_refuses_the_first_defect_in_walk_order(order):
    # two members of different k; one sound certificate per member and two defective ones
    space = Space(3, 3)
    family = [Pattern(3, 2, [[1, 1, 1]], (1, 1, 1)), Pattern(3, 2, [[1, 2]], (2, 2))]
    certs = [
        ChiCertificate((1, 2), 0, (1, 1, 1)),
        ChiCertificate((2, 1), 1, (1, 1)),  # x + 2y = 3 e_0 = 0, and lead 1 is colored 2 under (2, 1)
        ChiCertificate((1, 1), 0, (0, 0, 0)),  # touches zero
        ChiCertificate((2, 2), 1, (1, 3)),  # e_0 + 2 e_1 != 0: violates the relations
    ]
    walk = [certs[i] for i in order]
    first = next(c for c in walk if c.instance in ((0, 0, 0), (1, 3)))
    message = "touches zero" if first.instance == (0, 0, 0) else "violates the linear relations"
    with pytest.raises(VerificationError, match=message) as info:
        ramsey._check_certificates(family, walk, space)
    assert info.value.evidence == first.instance
    ramsey._check_certificates(family, [certs[0], certs[1]], space)


@pytest.mark.parametrize("p,r", [(3, 2), (5, 3), (7, 2)])
def test_certificate_colors_are_the_canonical_colors(p, r):
    # a certificate passes the color check exactly when its canonical coloring gives psi at the instance
    space = Space(p, 3)
    rng = np.random.default_rng([p, r])
    rows = [[1, 1, 1]]
    xs = [x for x in np.concatenate(list(iter_solution_chunks(null_space(rows, p), space))) if x.all()]
    for chi in product(range(1, r + 1), repeat=p - 1):
        x = tuple(int(v) for v in xs[rng.integers(len(xs))])
        psi = tuple(int(c) for c in canonical_coloring(space, chi, r).values[list(x)])
        ramsey._check_certificates([Pattern(p, r, rows, psi)], [ChiCertificate(chi, 0, x)], space)
        other = (psi[0] % r + 1, *psi[1:])
        with pytest.raises(VerificationError, match="colors do not match"):
            ramsey._check_certificates([Pattern(p, r, rows, other)], [ChiCertificate(chi, 0, x)], space)


def test_case_b_recount_disagreement_is_refused_with_the_chi(monkeypatch):
    fam = [Pattern(3, 2, [[1, 1, 1]], (1, 1, 1))]
    chi = decide_dichotomy(fam).chi
    monkeypatch.setattr(ramsey, "count_members", lambda members, space: iter([1] * len(members)))
    with pytest.raises(VerificationError, match="recount disagrees") as info:
        decide_dichotomy(fam)
    assert info.value.evidence == chi


# six pairwise independent columns in F_2^3 (rows [I_3 | C], C of weight-2 columns): the
# all-nonzero count enumerates |V|^3 tuples, since l = 3 is not below m = 3
WIDE_ROWS_F2 = [[1, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1]]


@pytest.mark.parametrize("wide_first", [False, True], ids=["instance-first", "refused-first"])
def test_case_b_recount_reports_in_member_order(monkeypatch, wide_first):
    # the walk is made to miss every class, so chi (1,) reaches the recount; x alone has 63
    # instances on F_2^6, and the wide member's basis is over a cap of 10^5 (64^3 tuples)
    family = [Pattern(2, 1, np.zeros((0, 1), dtype=np.int64), (1,)), Pattern(2, 1, WIDE_ROWS_F2, (1,) * 6)]
    if wide_first:
        family.reverse()
    monkeypatch.setattr(ramsey, "_class_table", lambda basis, space: (np.zeros((0, basis.shape[1]), dtype=np.int64),) * 2)
    monkeypatch.setattr(patterns, "ENUMERATION_CAP", 10**5)
    if wide_first:
        with pytest.raises(ResourceCapError) as exc:
            decide_dichotomy(family)
        assert exc.value.requested == 64**3
    else:
        with pytest.raises(VerificationError, match="recount disagrees") as info:
            decide_dichotomy(family)
        assert info.value.evidence == (1,)


def test_case_a_has_certificate_for_every_chi():
    # monochromatic x+y=z in every color over F_3: scaling by 2 swaps colors,
    # so no canonical coloring avoids both color classes
    fam = mono_family(3, 2, [[1, 1, 2]], 3)
    out = decide_dichotomy(fam)
    assert out.case == "A"
    assert [c.chi for c in out.certificates] == list(product((1, 2), repeat=2))
    sp = Space(3, out.n)
    for cert in out.certificates:
        col = canonical_coloring(sp, cert.chi, r=2)
        h = fam[cert.pattern_index]
        xs = np.array(cert.instance)
        assert (xs != 0).all()
        assert not (h.rows @ sp.digits[xs] % 3).any()
        assert col.values[xs].tolist() == list(h.psi)


def test_decision_space_uses_largest_pattern():
    fam = [
        Pattern(2, 2, [[1, 1, 1]], (1, 1, 1)),
        Pattern(2, 2, np.zeros((0, 4), dtype=np.int64), (2, 2, 2, 2)),
    ]
    out = decide_dichotomy(fam)
    assert out.n == 4


def test_empty_family_is_case_b_all_ones():
    out = decide_dichotomy([], p=3, r=2)
    assert out.case == "B"
    assert out.chi == (1, 1)
    assert out.n == 1
    with pytest.raises(ValueError):
        decide_dichotomy([])


def test_empty_family_is_case_b_at_once_past_the_chi_budget():
    # 2^28 chi of 29 points each are over the enumeration cap, but the first chi is free
    out = decide_dichotomy([], p=29, r=2)
    assert out.case == "B"
    assert out.chi == (1,) * 28


def test_chi_walk_reads_the_enumeration_cap_at_call_time(monkeypatch):
    # each chi of x+y+z = 0 on F_3^3 costs 27 table entries plus 27^2 tuples per member tried,
    # so under a cap of 1000 the walk stops at its third chi; the bound covers all 4 chi
    monkeypatch.setattr(patterns, "ENUMERATION_CAP", 1000)
    with pytest.raises(ResourceCapError) as exc:
        decide_dichotomy(mono_family(3, 2, [[1, 1, 1]], 3))
    assert exc.value.requested == 4 * (27 + 2 * 27**2)
    assert exc.value.cap == 1000


def test_family_must_share_field_and_colors():
    fam = [
        Pattern(3, 2, [[1, 1, 1]], (1, 1, 1)),
        Pattern(3, 3, [[1, 1, 1]], (1, 1, 1)),
    ]
    with pytest.raises(ValueError):
        decide_dichotomy(fam)


def test_dichotomy_as_dict_shapes():
    a = decide_dichotomy([Pattern(2, 1, [[1, 1, 1]], (1, 1, 1))]).as_dict()
    assert a["case"] == "A" and "certificates" in a and "chi" not in a
    b = decide_dichotomy([], p=2, r=1).as_dict()
    assert b["case"] == "B" and b["chi"] == [1] and "certificates" not in b


# --- the class-table search against a per-chi enumeration -----------------------


def reference_hits(family, space, r, chis):
    """Per chi, (pattern index, first instance) of the first member with an instance, or None."""
    out = []
    for chi in chis:
        coloring = canonical_coloring(space, chi, r)
        hit = None
        for idx, h in enumerate(family):
            inst = first_instance(h, coloring)
            if inst is not None:
                hit = (idx, tuple(int(x) for x in inst))
                break
        out.append(hit)
    return out


@st.composite
def small_families(draw):
    """1-2 members sharing (p, r), k <= 3, rows drawn freely (zero and repeated rows allowed)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(1, 3))
    family = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 3))
        l = draw(st.integers(0, 2))
        entries = draw(st.lists(st.integers(0, p - 1), min_size=l * k, max_size=l * k))
        psi = draw(st.lists(st.integers(1, r), min_size=k, max_size=k))
        family.append(Pattern(p, r, np.array(entries, dtype=np.int64).reshape(l, k), tuple(psi)))
    return family


@st.composite
def shared_row_families(draw):
    """2-3 members with the same rows and pairwise different psi: one null basis, one class table."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    l = draw(st.integers(0, 2))
    rows = np.array(draw(st.lists(st.integers(0, p - 1), min_size=l * k, max_size=l * k)), dtype=np.int64)
    psis = draw(st.lists(st.tuples(*[st.integers(1, r)] * k), min_size=2, max_size=3, unique=True))
    return [Pattern(p, r, rows.reshape(l, k), psi) for psi in psis]


@given(st.one_of(small_families(), shared_row_families()))
@settings(max_examples=200, deadline=None)
def test_dichotomy_matches_per_chi_first_instance_walk(family):
    p, r = family[0].p, family[0].r
    space = Space(p, max(h.k for h in family))
    # the reference enumerates every member for every chi: keep it to a few million tuples
    assume(r ** (p - 1) * sum(space.size**h.num_free for h in family) <= 3 * 10**6)
    out = decide_dichotomy(family)
    chis = list(product(range(1, r + 1), repeat=p - 1))
    hits = reference_hits(family, space, r, chis)
    if None in hits:
        assert out.case == "B" and out.chi == chis[hits.index(None)] and out.certificates == ()
    else:
        assert out.case == "A"
        assert [(c.chi, c.pattern_index, c.instance) for c in out.certificates] == [
            (chi, *hit) for chi, hit in zip(chis, hits)
        ]


@pytest.mark.parametrize(
    "p,rows",
    [
        # 390,625 tuples in 5 chunks of 5^7
        (5, [[1, 1, 1, 0], [0, 1, 1, 1]]),
        # 3^15 tuples in chunks of 2 * 3^10; x_5 is the last parameter t_3, whose
        # lead is 1 in the first chunk, so leads with x_5 -> 2 appear only later
        (3, [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]]),
    ],
    ids=["p5-k4", "p3-k5"],
)
def test_dichotomy_reads_classes_past_the_first_chunk(p, rows):
    k = len(rows[0])
    family = [Pattern(p, 2, rows, (c,) * k) for c in (1, 2)]
    out = decide_dichotomy(family)
    assert out.case == "A"
    n_chi = len(out.certificates)
    picks = sorted(np.random.default_rng(0).choice(n_chi, size=min(6, n_chi), replace=False))
    certs = [out.certificates[i] for i in picks]
    hits = reference_hits(family, Space(p, k), 2, [c.chi for c in certs])
    assert [(c.pattern_index, c.instance) for c in certs] == hits


# --- the class table ---------------------------------------------------------------


def reference_class_table(rows, space):
    """Per lead-digit class of the all-nonzero solutions, its first solution in solutions() order, by a loop.

    solutions() concatenates iter_solution_chunks, so the loop reads the chunks
    and stops once every one of the (p-1)^k classes has its first solution.
    """
    basis = null_space(rows, space.p)
    k = basis.shape[1]
    lead = np.array([next((int(c) for c in d if c), 0) for d in space.digits])
    classes = {}
    for xs in iter_solution_chunks(basis, space):
        for digits, x in zip(lead[xs].tolist(), xs.tolist()):
            if 0 not in digits:
                classes.setdefault(tuple(digits), x)
        if len(classes) == (space.p - 1) ** k:
            break
    return np.array(list(classes), dtype=np.int64).reshape(-1, k), np.array(list(classes.values())).reshape(-1, k)


@pytest.mark.parametrize(
    "p,rows,n_classes,chunks",
    [
        (5, np.zeros((0, 1), dtype=np.int64), 4, 1),  # k = 1
        (5, [[1]], 0, 1),  # k = 1, only the solution 0
        (2, [[1, 1, 1]], 1, 1),  # q = 1: a single class
        (3, np.zeros((0, 2), dtype=np.int64), 4, 1),
        (7, [[1, 1, 1]], 120, 1),  # 120 of the 216 classes are reachable
        (5, [[1, 1, 1, 0], [0, 1, 1, 1]], 48, 5),  # 5 chunks, 48 of 256 classes
        (3, [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]], 32, 2),  # all 32 classes by the 2nd of 122 chunks
    ],
    ids=["k1", "k1-zero", "p2", "p3-all", "p7-sum3", "p5-k4", "p3-k5"],
)
def test_class_table_matches_first_solution_per_class(monkeypatch, p, rows, n_classes, chunks):
    k = np.shape(rows)[1]
    space = Space(p, k)
    read = []

    def counted(basis, space):
        for xs in iter_solution_chunks(basis, space):
            read.append(xs.shape[0])
            yield xs

    monkeypatch.setattr(ramsey, "iter_solution_chunks", counted)
    leads, instances = _class_table(null_space(rows, p), space)
    ref_leads, ref_instances = reference_class_table(rows, space)
    assert leads.shape == instances.shape == (n_classes, k)
    assert np.array_equal(leads, ref_leads)
    assert np.array_equal(instances, ref_instances)
    assert len(read) == chunks  # the pass stops at the chunk that completes the (p-1)^k classes


@pytest.mark.parametrize(
    "family,bases",
    [
        (mono_family(5, 3, [[1, 1, 1]], 3), 1),
        # two null bases of one shape; the walk reads both (x+2y+4z=0 gives certificates)
        ([Pattern(7, 2, rows, (c,) * 3) for c in (1, 2) for rows in ([[1, 1, 1]], [[1, 2, 4]])], 2),
        # the sparse subfamily `remove` decides for a canonical coloring of F_5^4
        # against the 4-color x+y+z=0 family: the closure's members of colors 2..4
        ([h for h in subpattern_closure(mono_family(5, 4, [[1, 1, 1]], 3)) if h.psi[0] != 1], 3),
    ],
    ids=["mono-p5-r3", "two-bases-p7-r2", "closure-p5-r4"],
)
def test_one_class_table_per_distinct_null_basis(monkeypatch, family, bases):
    built = []

    def counted(basis, space):
        built.append((basis.tobytes(), basis.shape))
        return _class_table(basis, space)

    monkeypatch.setattr(ramsey, "_class_table", counted)
    decide_dichotomy(family)
    assert len({(h.null_basis.tobytes(), h.null_basis.shape) for h in family}) == bases
    assert len(built) == len(set(built)) == bases
