from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from removal_lab.patterns import Pattern, first_instance, pattern_stats
from removal_lab.ramsey import ChiCertificate, Dichotomy, canonical_coloring, decide_dichotomy
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


@given(small_families())
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
