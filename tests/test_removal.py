import numpy as np
import pytest

from removal_lab import regularize, removal
from removal_lab.errors import CaseAAbort, ResourceCapError, VerificationError
from removal_lab.fields import Subspace
from removal_lab.patterns import Pattern, first_instance, pattern_stats
from removal_lab.ramsey import canonical_coloring
from removal_lab.removal import (
    count_inhomogeneous,
    induced_removal,
    inhomogeneous_reduce,
)
from removal_lab.space import Coloring, Space


def mono_family(p, r, rows, k):
    return [Pattern(p, r, rows, (c,) * k) for c in range(1, r + 1)]


# --- the pipeline -----------------------------------------------------------------


def test_removal_canonical_input_needs_no_changes():
    sp = Space(5, 4)
    phi = canonical_coloring(sp, (1, 2, 3, 4))
    fam = mono_family(5, 4, [[1, 1, 1]], 3)
    rep = induced_removal(phi, fam, 0.5, eps_rado=0.01, seed=0)
    assert rep.dichotomy.case == "B"
    assert rep.changed_count == 0
    assert rep.verified_free
    assert rep.complexity_checked
    for h in fam:
        assert pattern_stats(h, rep.coloring).is_free
    # constants are reported, never asserted
    tc = rep.theoretical_constants
    assert tc["eps_count_value"] > 0
    assert "n_rado not computed" in tc["eps_rado_formula"]
    assert rep.as_dict()["case"] == "B"


def test_removal_monochromatic_input_with_disjoint_pattern():
    sp = Space(2, 6)
    phi = Coloring(sp, 2, np.full(sp.size, 2, dtype=np.int64))
    fam = [Pattern(2, 2, [[1, 1, 1]], (1, 1, 1))]
    rep = induced_removal(phi, fam, 0.5, eps_rado=1.5, acknowledge_complexity=True, seed=0)
    assert rep.dichotomy.case == "B"
    assert rep.dichotomy.chi == (2,)
    assert rep.changed_count == 0
    assert not rep.complexity_checked
    # eps_rado > 1 makes every closure member sparse
    assert set(rep.sparse_indices) == set(range(rep.closure_size))


def test_removal_case_a_abort_carries_reverifiable_certificates():
    sp = Space(3, 3)
    rng = np.random.default_rng(0)
    phi = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    fam = mono_family(3, 2, [[1, 1, 2]], 3)
    with pytest.raises(CaseAAbort) as exc:
        induced_removal(phi, fam, 0.7, eps_rado=1.5, seed=0)
    abort = exc.value
    assert abort.phase == "dichotomy"
    assert abort.dichotomy.case == "A"
    dsp = Space(3, abort.dichotomy.n)
    for cert in abort.dichotomy.certificates:
        col = canonical_coloring(dsp, cert.chi, r=2)
        xs = np.array(cert.instance)
        assert (xs != 0).all()
        # the certificate names a closure member, not an input pattern, so
        # only re-check color membership and that some mono equation holds
        assert len(set(col.values[xs])) <= 2


def test_removal_budget_respected_when_patch_is_nontrivial():
    # family-free already, but dense colors force the patch through chi search
    sp = Space(2, 6)
    rng = np.random.default_rng(4)
    vals = rng.integers(1, 3, sp.size).astype(np.int64)
    phi = Coloring(sp, 2, vals)
    fam = [Pattern(2, 2, np.array([[1, 1, 0], [0, 1, 1]]), (1, 2, 1))]
    try:
        rep = induced_removal(phi, fam, 0.9, eps_rado=0.001, acknowledge_complexity=True, seed=2)
    except CaseAAbort:
        pytest.skip("this seed landed in Case A; covered elsewhere")
    assert rep.changed_count <= 0.9 * sp.size
    assert rep.verified_free


def sparse_two_coloring(n):
    """All 1s on F_2^n except 8 seeded points colored 2."""
    values = np.ones(2**n, dtype=np.int64)
    values[np.random.default_rng(n).choice(2**n, 8, replace=False)] = 2
    return Coloring(Space(2, n), 2, values)


@pytest.mark.parametrize("n", [16, 18])
def test_removal_case_b_through_a_nontrivial_model(n):
    # dim V_1 > 0: the model, its structural check and the recoloring are not the degenerate V_1 = {0} ones
    fam = [Pattern(2, 2, [[1, 1, 1]], (2, 2, 2))]
    rep = induced_removal(sparse_two_coloring(n), fam, 0.5, acknowledge_complexity=True)
    model = rep.recolor.model
    assert model.v1.dim > 0 and model.v1.codim == model.v2.codim == 7
    assert model.details["structural_ok"]
    assert rep.dichotomy.case == "B" and rep.dichotomy.chi == (1,)
    assert rep.changed_count == 8
    assert rep.verified_free
    assert all(pattern_stats(h, rep.coloring).is_free for h in fam)


def test_removal_scans_each_coset_family_once(monkeypatch):
    # strong regularization concludes from its last Green pass: no norm scan repeats (table, V_2, reps)
    real = regularize.batch_coset_norms
    keys = []

    def spy(f, space, sub, reps):
        keys.append((np.asarray(f).tobytes(), sub, np.asarray(reps).tobytes()))
        return real(f, space, sub, reps)

    monkeypatch.setattr(regularize, "batch_coset_norms", spy)
    fam = [Pattern(2, 2, [[1, 1, 1]], (2, 2, 2))]
    rep = induced_removal(sparse_two_coloring(16), fam, 0.5, acknowledge_complexity=True)
    assert rep.verified_free and rep.recolor.model.v1.dim > 0
    assert keys
    assert len(set(keys)) == len(keys), f"{len(keys)} scans, {len(set(keys))} distinct"


def test_removal_validates_inputs():
    sp = Space(3, 3)
    phi = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    fam = mono_family(3, 2, [[1, 1, 1]], 3)
    with pytest.raises(ValueError):
        induced_removal(phi, [], 0.5)
    with pytest.raises(ValueError):
        induced_removal(phi, fam, 0.0)
    with pytest.raises(ValueError):
        induced_removal(phi, fam, 2.0)
    with pytest.raises(ValueError):
        induced_removal(phi, [Pattern(3, 3, [[1, 1, 1]], (1, 1, 1))], 0.5)


def test_removal_complexity_gate_names_the_override():
    sp = Space(5, 4)
    phi = canonical_coloring(sp, (1, 2, 3, 4))
    ap4 = Pattern(5, 4, [[1, -2, 1, 0], [0, 1, -2, 1]], (1, 1, 1, 1))
    with pytest.raises(ValueError, match="acknowledge_complexity"):
        induced_removal(phi, [ap4], 0.5)


# --- inhomogeneous reduction ----------------------------------------------------------


def test_inhom_zero_offsets_reduce_to_the_same_problem():
    sp = Space(2, 4)
    rng = np.random.default_rng(23)
    phi = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    h = Pattern(2, 2, [[1, 1, 1]], (1, 2, 1))
    red = inhomogeneous_reduce(phi, [(h, (0,))])
    assert red.b_subspace.dim == 0
    assert red.tilde_space.size == sp.size
    assert np.array_equal(red.coloring.values, phi.values)
    assert len(red.expansions[0]) == 1
    exp = red.expansions[0][0]
    assert exp.u_tuple == (0, 0, 0)
    assert exp.pattern.psi == h.psi
    assert np.array_equal(
        red.instance_map(0, 0, [3, 5, 6]),
        np.array([red.lift_point(3, 0), red.lift_point(5, 0), red.lift_point(6, 0)]),
    )


def test_inhom_expansion_count_formula():
    sp = Space(2, 4)
    rng = np.random.default_rng(29)
    phi = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    h = Pattern(2, 2, [[1, 1, 1]], (1, 1, 2))
    b = int(sp.encode(np.array([[1, 0, 1, 0]]))[0])
    red = inhomogeneous_reduce(phi, [(h, (b,))])
    size_b = 2**red.b_subspace.dim
    expect = size_b ** (h.k - 1) * phi.r ** (h.k * (size_b - 1))
    assert len(red.expansions[0]) == expect == 32


def test_inhom_total_counts_are_preserved():
    """The expansion is a bijection on instances, so totals must match."""
    sp = Space(2, 4)
    rng = np.random.default_rng(31)
    phi = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    b = int(sp.encode(np.array([[0, 1, 1, 0]]))[0])
    for psi in [(1, 1, 1), (1, 2, 2), (2, 1, 2)]:
        h = Pattern(2, 2, [[1, 1, 1]], psi)
        red = inhomogeneous_reduce(phi, [(h, (b,))])
        direct = count_inhomogeneous(phi, h, (b,))
        via_quotient = sum(
            pattern_stats(e.pattern, red.coloring).instance_count for e in red.expansions[0]
        )
        assert via_quotient == direct


def test_inhom_instance_map_produces_real_instances():
    sp = Space(2, 4)
    rng = np.random.default_rng(37)
    phi = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    h = Pattern(2, 2, [[1, 1, 0], [0, 1, 1]], (1, 2, 1))
    b1 = int(sp.encode(np.array([[1, 0, 0, 0]]))[0])
    b2 = int(sp.encode(np.array([[0, 1, 0, 0]]))[0])
    red = inhomogeneous_reduce(phi, [(h, (b1, b2))])
    b_coords = sp.digits[[b1, b2]]
    mapped = 0
    for e_idx, exp in enumerate(red.expansions[0]):
        inst = first_instance(exp.pattern, red.coloring, require_nonzero=False)
        if inst is None:
            continue
        mapped += 1
        xs = red.instance_map(0, e_idx, inst)
        coords = sp.digits[xs]
        assert np.array_equal(h.rows @ coords % 2, b_coords % 2)
        assert phi.values[xs].tolist() == list(h.psi)
    assert mapped > 0


def test_inhom_project_lift_roundtrip():
    sp = Space(3, 3)
    phi = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    h = Pattern(3, 2, [[1, 1, 1]], (1, 1, 1))
    b = int(sp.encode(np.array([[1, 1, 0]]))[0])
    red = inhomogeneous_reduce(phi, [(h, (b,))])
    lifted = [red.lift_point(t, int(u)) for t in range(red.tilde_space.size) for u in red.b_points]
    assert sorted(lifted) == list(range(sp.size))


def test_inhom_quotient_colors_encode_coset_colors():
    sp = Space(2, 3)
    rng = np.random.default_rng(41)
    phi = Coloring(sp, 3, rng.integers(1, 4, sp.size).astype(np.int64))
    h = Pattern(2, 3, [[1, 1, 1]], (1, 1, 1))
    b = int(sp.encode(np.array([[1, 1, 1]]))[0])
    red = inhomogeneous_reduce(phi, [(h, (b,))])
    for t in range(red.tilde_space.size):
        colors = [int(phi.values[red.lift_point(t, int(u))]) for u in red.b_points]
        # little-endian base-r digits, the color at b_points[j] in digit j
        assert int(red.coloring.values[t]) == 1 + sum((c - 1) * 3**j for j, c in enumerate(colors))


def test_inhom_color_cap(monkeypatch):
    monkeypatch.setattr(removal, "REDUCE_CAP", 5)
    sp = Space(2, 3)
    phi = Coloring(sp, 3, np.ones(sp.size, dtype=np.int64))
    h = Pattern(2, 3, [[1, 1, 1]], (1, 1, 1))
    b = int(sp.encode(np.array([[1, 0, 0]]))[0])
    with pytest.raises(ResourceCapError):
        inhomogeneous_reduce(phi, [(h, (b,))])


def test_inhom_offset_arity_checked():
    sp = Space(2, 3)
    phi = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    h = Pattern(2, 2, [[1, 1, 1]], (1, 1, 1))
    with pytest.raises(ValueError):
        inhomogeneous_reduce(phi, [(h, (1, 2))])


def test_count_inhomogeneous_brute_force_oracle():
    sp = Space(2, 3)
    rng = np.random.default_rng(43)
    phi = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    h = Pattern(2, 2, [[1, 1]], (1, 2))
    b = 5
    direct = count_inhomogeneous(phi, h, (b,))
    brute = 0
    for x in range(sp.size):
        for y in range(sp.size):
            if int(sp.add_points(np.array([x]), y)[0]) == b:
                if phi.values[x] == 1 and phi.values[y] == 2:
                    brute += 1
    assert direct == brute


@pytest.mark.parametrize("offset", [8, 99999, -1])
def test_offsets_outside_the_space_are_refused(offset):
    sp = Space(2, 3)
    phi = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    h = Pattern(2, 2, [[1, 1, 1]], (1, 1, 1))
    with pytest.raises(ValueError, match="point code"):
        count_inhomogeneous(phi, h, (offset,))
    with pytest.raises(ValueError, match="point code"):
        inhomogeneous_reduce(phi, [(h, (offset,))])


def test_count_inhomogeneous_inconsistent_system_is_zero():
    sp = Space(2, 3)
    phi = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    h = Pattern(2, 2, np.zeros((1, 2), dtype=np.int64), (1, 1))
    assert count_inhomogeneous(phi, h, (3,)) == 0
