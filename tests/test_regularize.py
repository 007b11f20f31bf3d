import math
from fractions import Fraction

import numpy as np
import pytest

from removal_lab import regularize
from removal_lab.energy import Partition, project_energy
from removal_lab.errors import RetryCapError, SpaceExhaustedError
from removal_lab.fields import Subspace
from removal_lab.fourier import batch_coset_norms
from removal_lab.ramsey import canonical_coloring
from removal_lab.regularize import (
    _coset_energy,
    green_regularize,
    regular_model,
    regularity_recolor,
    strong_regularize,
    verify_model,
)
from removal_lab.space import Coloring, Space

TOL = 1e-9


def random_tables(rng, space, count, kind="unit"):
    if kind == "indicator":
        return [(rng.random(space.size) < rng.uniform(0.2, 0.8)).astype(np.float64) for _ in range(count)]
    return [rng.uniform(-1, 1, space.size) for _ in range(count)]


def coset_union_indicator(space, sub, reps):
    f = np.zeros(space.size)
    for rep in reps:
        f[space.coset_points(rep, sub)] = 1.0
    return f


# --- Green-style iteration ----------------------------------------------------


def test_green_verifies_on_random_inputs():
    rng = np.random.default_rng(3)
    for p, n in [(2, 7), (3, 4)]:
        sp = Space(p, n)
        fs = random_tables(rng, sp, 2, "indicator")
        rep = green_regularize(fs, sp, Subspace.full(p, n), 0.2)
        assert rep.verified
        assert all(frac <= 0.2 + TOL for frac in rep.final_bad_fractions)
        assert len(rep.rounds) <= n + 1
        for rd in rep.rounds:
            assert rd.gain > 0.2**3 - TOL
            assert rd.codim_after > rd.codim_before


def test_green_resolves_hyperplane_structure():
    # f constant on cosets of a hyperplane is fully regular once V_1 <= H
    sp = Space(2, 6)
    h = Subspace.from_rows(2, 6, np.eye(6, dtype=np.int64)[1:])
    f = coset_union_indicator(sp, h, [0])
    rep = green_regularize([f], sp, Subspace.full(2, 6), 0.05)
    assert rep.verified
    assert rep.v1.leq(h)
    reps = sp.transversal(rep.v1)
    norms, _ = batch_coset_norms(f, sp, rep.v1, reps)
    assert norms.max() <= TOL


def test_green_eps_one_needs_no_rounds():
    sp = Space(3, 3)
    rng = np.random.default_rng(11)
    rep = green_regularize(random_tables(rng, sp, 3), sp, Subspace.full(3, 3), 1.0)
    assert rep.verified and len(rep.rounds) == 0
    assert rep.v1 == Subspace.full(3, 3)


def test_green_zero_start_is_vacuous():
    sp = Space(2, 3)
    rng = np.random.default_rng(12)
    rep = green_regularize(random_tables(rng, sp, 1), sp, Subspace.zero(2, 3), 0.01)
    assert rep.verified and len(rep.rounds) == 0 and rep.v1.dim == 0


def bad_fractions_of(fs, space, sub, eps):
    """The fraction of cosets of sub on which each f has norm above eps, measured from sub alone."""
    reps = space.transversal(sub)
    return tuple(int(np.count_nonzero(batch_coset_norms(f, space, sub, reps)[0] > eps)) / reps.size for f in fs)


def half_structured_pair(space, seed):
    """f: a codim-2 set on x_0 = 0 and noise elsewhere; g: a hyperplane with 5% of its bits flipped.

    Their final scans keep some cosets above eps, so the re-measured fractions below are not all zero.
    """
    rng = np.random.default_rng(seed)
    d = space.digits
    vals = d @ rng.integers(0, space.p, (3, space.n)).T % space.p
    f = np.where(d[:, 0] == 0, (vals[:, 0] == 0) & (vals[:, 1] == 0), rng.random(space.size) < 0.5)
    g = (vals[:, 2] == 0) ^ (rng.random(space.size) < 0.05)
    return [f.astype(float), g.astype(float)]


@pytest.mark.parametrize("p,n,seed,eps", [(2, 7, 1, 0.2), (2, 7, 35, 0.25), (3, 4, 11, 0.25), (3, 5, 36, 0.2)])
def test_green_conclusion_re_measured_from_v1(p, n, seed, eps):
    # green_regularize reports the scan that ended its loop; re-measure it on the published V_1 alone
    sp = Space(p, n)
    fs = half_structured_pair(sp, seed)
    rep = green_regularize(fs, sp, Subspace.full(p, n), eps)
    again = bad_fractions_of(fs, sp, rep.v1, eps)
    assert again == rep.final_bad_fractions
    assert 0 < max(again) <= eps
    assert rep.rounds and rep.v1.dim > 0


def test_strong_regularize_reaches_stable_pair():
    rng = np.random.default_rng(21)
    sp = Space(2, 8)
    fs = random_tables(rng, sp, 2, "indicator")
    delta = 0.05
    eps_seq = lambda c: min(0.3, 2.0 ** (-c) / 4)
    rep = strong_regularize(fs, sp, Subspace.full(2, 8), delta, eps_seq)
    assert rep.verified
    assert rep.v2.leq(rep.v1)
    assert rep.final_gap <= delta + TOL
    assert all(frac <= rep.eps_final + TOL for frac in rep.bad_fractions)
    assert rep.stages[0].codim <= rep.stages[-1].codim


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3)])
def test_coset_energy_is_bit_equal_to_project_energy(p, n):
    rng = np.random.default_rng(10 * p + n)
    sp = Space(p, n)
    subs = [Subspace.zero(p, n), Subspace.full(p, n)]
    subs += [Subspace.from_rows(p, n, rng.integers(0, p, (d, n))) for d in range(1, n) for _ in range(2)]
    for kind in ("unit", "indicator"):
        fs = random_tables(rng, sp, 3, kind)
        for sub in subs:
            assert _coset_energy(fs, sp, sub) == project_energy(Partition.from_cosets(sp, sub), fs)[1]


def test_strong_stage_energies_are_the_measured_coset_energies():
    # (2, 6): the last pass makes rounds; (3, 4): it makes none and keeps the energy;
    # (5, 4): 625 cosets, under a lower eps cap since every coefficient here is about 1/5
    for p, n, seed, cap, last_codims in [(2, 6, 2, 0.3, (4, 6)), (3, 4, 0, 0.3, (4, 4)), (5, 4, 0, 0.15, (4, 4))]:
        sp = Space(p, n)
        d = sp.digits
        rng = np.random.default_rng(seed)
        base = ((d[:, 0] == 0) & (d[:, 1] == 0)) | (d[:, 2] == 1)
        fs = [(base ^ (rng.random(sp.size) < 0.1)).astype(float), (d[:, n - 1] == 0).astype(float)]
        rep = strong_regularize(fs, sp, Subspace.full(p, n), 0.05, lambda c: min(cap, p ** (-c) / 4))
        assert len(rep.stages) >= 3
        assert (rep.v1.codim, rep.v2.codim) == last_codims
        for stage, v in zip(rep.stages[-2:], (rep.v1, rep.v2)):
            assert stage.codim == v.codim
            assert stage.energy == project_energy(Partition.from_cosets(sp, v), fs)[1]


@pytest.mark.parametrize("p,n,seed,eps", [(2, 7, 35, 0.25), (3, 4, 11, 0.25)])
def test_strong_conclusion_re_measured_from_v2(p, n, seed, eps):
    sp = Space(p, n)
    fs = half_structured_pair(sp, seed)
    rep = strong_regularize(fs, sp, Subspace.full(p, n), 0.02, lambda c: eps)
    # the report holds the last Green pass's exit scan of V_2, at its strict threshold eps_final
    again = bad_fractions_of(fs, sp, rep.v2, rep.eps_final)
    assert again == rep.bad_fractions
    assert 0 < max(again) <= rep.eps_final
    assert rep.v2.dim > 0


# --- regular models ---------------------------------------------------------------


def test_regular_model_verifies():
    rng = np.random.default_rng(51)
    sp = Space(2, 7)
    fs = random_tables(rng, sp, 2, "indicator")
    v0 = Subspace.from_rows(2, 7, np.eye(7, dtype=np.int64)[2:])
    model = regular_model(fs, sp, v0, 0.3, seed=5)
    assert model.as_dict()["backend"] == "strong"  # the route every model report names
    assert model.v2.leq(model.v1)
    assert model.v1.leq(v0)
    out = verify_model(fs, sp, model.v1, model.v2, model.u, 0.3)
    assert out["ok"]
    assert out["structural_ok"]
    assert_cosets_of(model, sp)


def assert_cosets_of(model, sp):
    """The arrays a model carries are those of its own V_1, V_2 and U, and no report prints them."""
    ids1, ids2, u_pts = model.cosets
    assert np.array_equal(ids1, sp.coset_ids(model.v1))
    assert np.array_equal(ids2, sp.coset_ids(model.v2))
    assert np.array_equal(u_pts, sp.subspace_points(model.u))
    assert "cosets" not in model.details and "cosets" not in model.as_dict()


def test_regular_model_is_deterministic_per_seed():
    rng = np.random.default_rng(52)
    sp = Space(3, 4)
    fs = random_tables(rng, sp, 2, "indicator")
    v0 = Subspace.from_rows(3, 4, np.eye(4, dtype=np.int64)[1:])
    a = regular_model(fs, sp, v0, 0.35, seed=9)
    b = regular_model(fs, sp, v0, 0.35, seed=9)
    assert a.v1 == b.v1 and a.v2 == b.v2 and a.u == b.u
    assert a.attempts == b.attempts


def test_regular_model_trivializes_when_codim_need_exceeds_n():
    sp = Space(2, 3)
    rng = np.random.default_rng(53)
    fs = random_tables(rng, sp, 1, "indicator")
    model = regular_model(fs, sp, Subspace.full(2, 3), 1e-3, seed=0)
    assert model.v1.dim == 0 and model.v2.dim == 0
    assert model.u == Subspace.full(2, 3)
    assert verify_model(fs, sp, model.v1, model.v2, model.u, 1e-3)["ok"]
    assert_cosets_of(model, sp)


def test_regular_model_raises_retry_cap_after_64_failed_attempts(monkeypatch):
    verify = regularize.verify_model
    monkeypatch.setattr(regularize, "verify_model", lambda *args: {**verify(*args), "ok": False})
    sp = Space(3, 4)
    fs = random_tables(np.random.default_rng(52), sp, 2, "indicator")
    with pytest.raises(RetryCapError) as info:
        regular_model(fs, sp, Subspace.full(3, 4), 0.35, seed=9)
    assert info.value.attempts == 64
    assert [s["attempt"] for s in info.value.stats] == list(range(64))
    assert not any("cosets" in s or s["ok"] for s in info.value.stats)


def test_regular_model_rejects_unknown_backend():
    # strong regularization is the only route: there is no backend to choose
    sp = Space(2, 2)
    with pytest.raises(TypeError):
        regular_model([np.ones(4)], sp, Subspace.full(2, 2), 0.5, backend="other")


def test_verify_model_flags_structural_breakage():
    sp = Space(2, 3)
    f = np.ones(sp.size)
    v1 = Subspace.from_rows(2, 3, [[1, 0, 0]])
    out = verify_model([f], sp, v1, v1, v1, 0.5)  # u is not a complement of v1
    assert not out["structural_ok"] and not out["ok"]


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3)])
def test_verify_model_structural_check_matches_the_meet_oracle(p, n):
    # the reference is the direct reading: V_2 <= V_1, U meet V_1 = 0 and U + V_1 = V
    sp = Space(p, n)
    rng = np.random.default_rng(p)
    f = rng.random(sp.size)

    def span(rows):
        return Subspace.from_rows(p, n, np.asarray(rows, dtype=np.int64).reshape(-1, n))

    outcomes = set()
    for _ in range(25):
        v1 = span(rng.integers(0, p, (rng.integers(0, n + 1), n)))
        inside = rng.integers(0, p, (rng.integers(0, v1.dim + 1), v1.dim)) @ v1.basis % p
        outside = rng.integers(0, p, (rng.integers(0, n + 1), n))
        v2 = span(inside if rng.random() < 0.7 else outside)
        c = v1.complement(seed=int(rng.integers(1 << 30)))
        us = [v1, c, span(outside)]
        if v1.dim:
            us.append(c.join(span(v1.basis[:1])))  # overlaps V_1 and spans with it
            us.append(span(np.vstack([c.basis[1:], v1.basis[:1]])))  # overlaps V_1 with the complement's dimension
        if c.dim:
            us.append(span(c.basis[1:]))  # meets V_1 in 0 but does not span with it
        for u in us:
            want = v2.leq(v1) and u.meet(v1).dim == 0 and u.join(v1).dim == n
            assert verify_model([f], sp, v1, v2, u, 0.5)["structural_ok"] == want
            outcomes.add(want)
    assert outcomes == {True, False}


# --- recoloring --------------------------------------------------------------------


def test_recolor_plain_mode_budget_and_conditions():
    sp = Space(2, 6)
    rng = np.random.default_rng(71)
    col = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    rep = regularity_recolor(col, 0.5, 0.2, seed=3)
    assert rep.mode == "plain"
    assert rep.conditions["ok"]
    assert rep.changed_count <= 0.5 * sp.size
    assert rep.changed_count == int((rep.coloring.values != col.values).sum())
    assert rep.model.v1.codim >= math.ceil(1 / 0.5)
    assert rep.eps_prime_final == 0.2


def test_recolor_sequence_mode_fixpoint(monkeypatch):
    models = []
    model_of = regularize.regular_model

    def recording_model(fs, space, v0, eps, **kwargs):
        models.append((eps, model_of(fs, space, v0, eps, **kwargs)))
        return models[-1][1]

    monkeypatch.setattr(regularize, "regular_model", recording_model)
    # F_2^6: the first guess is the fixpoint; F_2^10: eps' drops past codim 2, so the loop takes a second pass
    for n, r, eps_prime, passes in [
        (6, 3, lambda d: 1.0 / (d + 2), [(0.5 / 12, 6)]),
        (10, 2, lambda d: 1.0 if d <= 2 else 1e-3, [(0.0625, 10), (1e-3, 10)]),
    ]:
        sp = Space(2, n)
        rng = np.random.default_rng(72)
        col = Coloring(sp, r, rng.integers(1, r + 1, sp.size).astype(np.int64))
        models.clear()
        rep = regularity_recolor(col, 0.5, eps_prime, seed=1)
        assert [(eps, model.v1.codim) for eps, model in models] == passes
        assert rep.mode == "sequence" and rep.model is models[-1][1]
        assert rep.eps_prime_final == eps_prime(rep.model.v1.codim)
        assert rep.conditions["ok"] and rep.conditions["restriction_regularity_ok"]
        assert_cosets_of(rep.model, sp)  # the last model of the fixpoint loop, not an earlier one
        assert rep.conditions["max_restriction_norm"] <= rep.eps_prime_final + TOL


def test_recolor_same_seed_same_output():
    sp = Space(3, 3)
    rng = np.random.default_rng(73)
    col = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    a = regularity_recolor(col, 0.7, 0.3, seed=4)
    b = regularity_recolor(col, 0.7, 0.3, seed=4)
    assert np.array_equal(a.coloring.values, b.coloring.values)
    assert a.changed_count == b.changed_count


def test_recolor_space_exhausted():
    sp = Space(2, 6)
    col = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    with pytest.raises(SpaceExhaustedError):
        regularity_recolor(col, 0.1, 0.2)


def test_recolor_eps_validation():
    sp = Space(2, 4)
    col = Coloring(sp, 2, np.ones(sp.size, dtype=np.int64))
    with pytest.raises(ValueError):
        regularity_recolor(col, 0.0, 0.2)
    with pytest.raises(ValueError):
        regularity_recolor(col, 1.5, 0.2)


def test_recolor_refuses_a_non_positive_eps_prime_in_either_mode(monkeypatch):
    sp = Space(2, 10)
    col = Coloring(sp, 2, np.random.default_rng(72).integers(1, 3, sp.size).astype(np.int64))
    models, model_of = [], regularize.regular_model

    def recording_model(*args, **kwargs):
        models.append(model_of(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(regularize, "regular_model", recording_model)
    # the first value is read before any model is built; a later one once the model's codim is known
    for eps_prime, built in [(0.0, 0), (-0.5, 0), (lambda d: 0.0, 0), (lambda d: 1.0 if d <= 2 else 0.0, 1)]:
        models.clear()
        with pytest.raises(ValueError, match="^eps_prime must be positive$"):
            regularity_recolor(col, 0.5, eps_prime, seed=1)
        assert len(models) == built


def test_recolor_monochromatic_input_is_untouched():
    sp = Space(2, 5)
    col = Coloring(sp, 2, np.full(sp.size, 2, dtype=np.int64))
    rep = regularity_recolor(col, 0.5, 0.25, seed=0)
    assert rep.changed_count == 0
    assert np.array_equal(rep.coloring.values, col.values)


def test_recolor_follows_the_density_rule_per_coset():
    # the rule re-derived coset by coset through coset_points, a route independent of coset_ids
    rng = np.random.default_rng(1)
    cases = [(canonical_coloring(Space(2, 10), (2,)), 1.0)]
    for p, n, modulus, flips, eps in [(2, 10, 4, 1, 1.0), (2, 10, 8, 1, 1.0), (2, 8, 2, 0, 0.5), (3, 5, 9, 0, 0.5)]:
        vals = np.where(np.arange(p**n) % modulus == 0, 1, 2)
        idx = rng.choice(vals.size, flips, replace=False)
        vals[idx] = 3 - vals[idx]
        cases.append((Coloring(Space(p, n), 2, vals), eps))
    for modulus, lone in [(4, 6), (8, 0)]:
        vals = np.where(np.arange(2**12) % modulus == 0, 3, 2)
        vals[lone] = 1
        cases.append((Coloring(Space(2, 12), 3, vals), 1.0))
    cases.append((Coloring(Space(3, 4), 3, rng.integers(1, 4, 81).astype(np.int64)), 0.5))
    repainted = nontrivial = 0
    for col, eps in cases:
        rep = regularity_recolor(col, eps, 0.5, seed=1)
        sp, r, v1, v2 = col.space, col.r, rep.model.v1, rep.model.v2
        for x in sp.subspace_points(rep.model.u):
            counts = np.bincount(col.values[sp.coset_points(int(x), v2)], minlength=r + 1)
            size2 = sp.p**v2.dim
            dense = [c for c in range(1, r + 1) if Fraction(int(counts[c]), size2) >= Fraction(eps) / (2 * r)]
            pts1 = sp.coset_points(int(x), v1)
            want = np.where(np.isin(col.values[pts1], dense), col.values[pts1], min(dense))
            assert np.array_equal(rep.coloring.values[pts1], want)
        repainted += rep.changed_count > 0
        nontrivial += v1.codim < sp.n
    assert repainted >= 4 and nontrivial >= 6
