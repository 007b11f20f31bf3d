"""Regularity decompositions with mechanical self-certification.

Each algorithm here follows an energy-increment proof directly: refine while
some function is irregular on too many cosets, and assert the measured energy
gain that the argument promises on every round.  Green's report is built from
its final scan, a measurement of the published V_1 itself.  Strong
regularization concludes from its last Green pass: conclusion (2) is the
loop's exit test and (3) is that pass's exit scan of V_2.  verify_model
re-measures every claim of a model from the published subspaces alone.

Decision thresholds are strict (a coset is refined iff its norm exceeds eps),
verifier thresholds allow FLOAT_TOL of slack.  The asymmetry keeps both sides
of the tolerance honest: a borderline coset gets refined rather than
certified, and float dust alone never fails a verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import RetryCapError, SpaceExhaustedError, VerificationError
from .fields import Subspace, null_space
from .fourier import FLOAT_TOL, batch_coset_norms
from .space import Coloring, Space


def _check_tables(fs: Sequence[np.ndarray], space: Space) -> list[np.ndarray]:
    out = []
    for f in fs:
        a = np.asarray(f, dtype=np.float64)
        if a.shape != (space.size,):
            raise ValueError("function table has wrong length")
        out.append(a)
    if not out:
        raise ValueError("need at least one function")
    return out


def _coset_energy(fs: Sequence[np.ndarray], space: Space, sub: Subspace) -> float:
    # energy.project_energy on Partition.from_cosets(space, sub): ids are dense, each coset has p^dim(sub) points
    ids = space.coset_ids(sub)
    energy = 0.0
    for f in fs:
        pr = (np.bincount(ids, weights=f) / space.p**sub.dim)[ids]
        energy += float((pr * pr).sum()) / space.size
    return energy


def _shrink_to_codim(space: Space, sub: Subspace, codim: int) -> Subspace:
    """Deterministic subspace of sub with codimension exactly `codim` in V."""
    if sub.codim >= codim:
        return sub
    keep = space.n - codim
    return Subspace.from_rows(space.p, space.n, sub.basis[sub.dim - keep :])


def _min_codim_for(space: Space, eps: float) -> int:
    # smallest d with p^d >= 4/eps, i.e. |V_0| <= (eps/4)|V|
    d = 0
    while space.p**d * eps < 4 and d <= space.n:
        d += 1
    return d


# --- Green-style regularization ---------------------------------------------


@dataclass(frozen=True)
class GreenRound:
    index: int
    codim_before: int
    codim_after: int
    worst_function: int
    bad_fractions: tuple[float, ...]
    num_cuts: int
    energy_before: float
    energy_after: float

    @property
    def gain(self) -> float:
        return self.energy_after - self.energy_before


@dataclass(frozen=True)
class GreenReport:
    v1: Subspace
    eps: float
    rounds: tuple[GreenRound, ...]
    final_bad_fractions: tuple[float, ...]
    verified = True  # built only from the final scan of the published V_1, with every fraction within eps

    def as_dict(self) -> dict:
        return {
            "codim_v1": self.v1.codim,
            "eps": self.eps,
            "rounds": [
                {
                    "index": r.index,
                    "codim_before": r.codim_before,
                    "codim_after": r.codim_after,
                    "worst_function": r.worst_function,
                    "bad_fractions": list(r.bad_fractions),
                    "num_cuts": r.num_cuts,
                    "energy_gain": r.gain,
                }
                for r in self.rounds
            ],
            "final_bad_fractions": list(self.final_bad_fractions),
            "verified": self.verified,
        }


def _coset_irregularity(fs, space, sub, eps):
    """Per function: (witnesses of its cosets of norm > eps, their fraction) over a transversal of sub."""
    reps = space.transversal(sub)
    out = []
    for f in fs:
        norms, wits = batch_coset_norms(f, space, sub, reps)
        bad = norms > eps
        out.append((wits[bad], Fraction(int(np.count_nonzero(bad)), int(reps.size))))
    return out


def green_regularize(
    fs: Sequence[np.ndarray], space: Space, v0: Subspace, eps: float, *, start_energy: float | None = None
) -> GreenReport:
    """Refine v0 until every f_i is eps-regular on all but an eps-fraction of cosets.

    One function is treated per round (the smallest index over budget); the cut
    intersects the witness hyperplanes of all of its bad cosets at once, and the
    measured energy gain of each round must exceed eps^3.  Terminates
    unconditionally: each round strictly drops dim V_m, and at dim 0 every
    restriction is a constant.  start_energy is the coset energy of v0 when the
    caller has measured it; otherwise it is measured here.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    fs = _check_tables(fs, space)
    v = v0
    rounds: list[GreenRound] = []
    eps_frac = Fraction(eps)
    energy = _coset_energy(fs, space, v) if start_energy is None else start_energy
    while True:
        scan = _coset_irregularity(fs, space, v, eps)
        fractions = tuple(float(frac) for _, frac in scan)
        worst = next((i for i, (_, frac) in enumerate(scan) if frac > eps_frac), None)
        if worst is None:
            # this scan of the published V_1 is the conclusion: every fraction is within eps
            return GreenReport(v1=v, eps=eps, rounds=tuple(rounds), final_bad_fractions=fractions)
        bad_wits = scan[worst][0]
        cut_t = null_space(Space(space.p, v.dim).decode(bad_wits), space.p)
        v_next = Subspace.from_rows(space.p, space.n, cut_t @ v.basis)
        assert v_next.dim < v.dim, "cut must strictly shrink the subspace"
        energy_next = _coset_energy(fs, space, v_next)
        assert energy_next - energy > eps**3 - FLOAT_TOL, (
            f"round gain {energy_next - energy} below eps^3 = {eps**3}"
        )
        rounds.append(
            GreenRound(
                index=len(rounds),
                codim_before=v.codim,
                codim_after=v_next.codim,
                worst_function=worst,
                bad_fractions=fractions,
                num_cuts=int(bad_wits.size),
                energy_before=energy,
                energy_after=energy_next,
            )
        )
        v, energy = v_next, energy_next
        assert len(rounds) <= space.n + 1, "more rounds than dimensions"


@dataclass(frozen=True)
class StrongStage:
    """The subspace one Green pass ended at (the start v0 for stage 0): its codimension and coset energy."""

    codim: int
    energy: float


@dataclass(frozen=True)
class StrongReport:
    """(V_1, V_2), every stage, and the last Green pass's energy gap and exit scan of V_2 at eps_final."""

    v1: Subspace
    v2: Subspace
    stages: tuple[StrongStage, ...]
    final_gap: float
    bad_fractions: tuple[float, ...]
    eps_final: float
    verified = True  # built only at the loop's exit test (gap <= delta), from a pass whose exit scan of V_2 passed


def strong_regularize(
    fs: Sequence[np.ndarray],
    space: Space,
    v0: Subspace,
    delta: float,
    eps_seq: Callable[[int], float],
) -> StrongReport:
    """Iterate green_regularize until one pass gains at most delta energy.

    eps_seq maps the current codimension to the regularity parameter of the
    next pass.  Returns the last two subspaces (V_1, V_2).  Conclusion (2)
    (energy gap <= delta) is the loop's exit test, and conclusion (3)
    (regularity of V_2-restrictions at parameter eps_seq(codim V_1), measured
    over cosets) is the last pass's exit scan of V_2, which started at V_1
    with that parameter; verify_model re-measures a model built on them.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    fs = _check_tables(fs, space)
    k = len(fs)
    stages = [StrongStage(v0.codim, _coset_energy(fs, space, v0))]
    v1 = v0
    for _ in range(math.ceil(k / delta) + 2):
        g = green_regularize(fs, space, v1, eps_seq(v1.codim), start_energy=stages[-1].energy)
        # the pass measured the energy of its last subspace; without a round it is unchanged
        energy = g.rounds[-1].energy_after if g.rounds else stages[-1].energy
        gap = energy - stages[-1].energy
        stages.append(StrongStage(g.v1.codim, energy))
        if gap <= delta:
            return StrongReport(
                v1=v1, v2=g.v1, stages=tuple(stages), final_gap=gap, bad_fractions=g.final_bad_fractions, eps_final=g.eps
            )
        v1 = g.v1
    raise AssertionError("energy increment exceeded its k/delta budget")


# --- the regular model ---------------------------------------------------------


@dataclass(frozen=True)
class RegularModel:
    v0: Subspace
    v1: Subspace
    v2: Subspace
    u: Subspace
    eps: float
    seed: int
    attempts: int
    details: dict
    # (coset_ids(v1), coset_ids(v2), subspace_points(u)) as the passing verify_model computed them; not reported
    cosets: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        d = {
            "backend": "strong",  # a report field; strong regularization is the only route
            "seed": self.seed,
            "attempts": self.attempts,
            "eps": self.eps,
            "codim_v0": self.v0.codim,
            "codim_v1": self.v1.codim,
            "codim_v2": self.v2.codim,
            "dim_u": self.u.dim,
        }
        d.update(self.details)
        return d


def verify_model(fs: Sequence[np.ndarray], space: Space, v1: Subspace, v2: Subspace, u: Subspace, eps: float) -> dict:
    """Re-measure the three regular-model conclusions from scratch.

    (1) is structural (V_2 <= V_1, U + V_1 = V direct); (2) bounds the fraction
    of x in U whose V_1- and V_2-coset means differ by more than eps for some
    f; (3) demands eps-regularity of every f on x + V_2 for every nonzero x in
    U.  Returns a dict with an overall "ok" plus the measurements, and under
    "cosets" the arrays measured on, (coset_ids(v1), coset_ids(v2),
    subspace_points(u)), which regular_model moves out of the dict.
    """
    fs = _check_tables(fs, space)
    # dim(U meet V_1) = dim U + dim V_1 - dim(U + V_1), so the two dimension counts make the sum direct
    structural = v2.leq(v1) and u.dim + v1.dim == space.n and u.join(v1).dim == space.n
    ids1 = space.coset_ids(v1)
    ids2 = space.coset_ids(v2)
    u_pts = space.subspace_points(u)
    worst_gap = 0.0
    bad = np.zeros(u_pts.size, dtype=bool)
    for f in fs:
        # every coset of V_i holds p^dim(V_i) points: the divisor np.bincount(ids_i) would give, as one scalar
        m1 = np.bincount(ids1, weights=f) / space.p**v1.dim
        m2 = np.bincount(ids2, weights=f) / space.p**v2.dim
        gap = np.abs(m1[ids1[u_pts]] - m2[ids2[u_pts]])
        worst_gap = max(worst_gap, float(gap.max()))
        bad |= gap > eps + FLOAT_TOL
    frac_bad = Fraction(int(np.count_nonzero(bad)), int(u_pts.size))
    nonzero = u_pts[u_pts != 0]
    max_norm = max(float(batch_coset_norms(f, space, v2, nonzero)[0].max(initial=0.0)) for f in fs)
    ok = (
        structural
        and frac_bad <= Fraction(eps) + Fraction(FLOAT_TOL)
        and max_norm <= eps + FLOAT_TOL
    )
    return {
        "ok": bool(ok),
        "structural_ok": bool(structural),
        "density_gap_bad_fraction": float(frac_bad),
        "worst_density_gap": worst_gap,
        "max_restriction_norm": max_norm,
        "cosets": (ids1, ids2, u_pts),
    }


_MODEL_ATTEMPTS = 64


def _derived_seed(seed: int, attempt: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)).generate_state(1)[0])


def regular_model(
    fs: Sequence[np.ndarray],
    space: Space,
    v0: Subspace,
    eps: float,
    *,
    seed: int = 0,
) -> RegularModel:
    """Produce verified (V_2 <= V_1 <= V_0, U) with U + V_1 = V direct.

    Runs strong_regularize and draws seeded uniform random complements U of
    V_1 until the verifier passes; retries up to 64 times and raises
    RetryCapError with per-attempt stats if nothing verifies.  With p^n eps < 4
    the model is V_1 = V_2 = {0} without strong regularization: U = V passes on
    attempt 1, v0 is kept as given, and the details report trivial_fallback.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    fs = _check_tables(fs, space)
    k = len(fs)
    need = _min_codim_for(space, eps)
    trivial = need > space.n
    if trivial:
        v1 = v2 = Subspace.zero(space.p, space.n)
    else:
        v0 = _shrink_to_codim(space, v0, need)
        inner = strong_regularize(fs, space, v0, eps**3 / 4, lambda c: min(eps, space.p ** (-c) / (2 * k)))
        v1, v2 = inner.v1, inner.v2
    stats: list[dict] = []
    for attempt in range(_MODEL_ATTEMPTS):
        u = v1.complement(seed=_derived_seed(seed, attempt))
        details = verify_model(fs, space, v1, v2, u, eps)
        cosets = details.pop("cosets")
        stats.append({"attempt": attempt, **details})
        if details["ok"]:
            if trivial:
                details["trivial_fallback"] = True
            return RegularModel(v0, v1, v2, u, eps, seed, attempt + 1, details, cosets)
    raise RetryCapError("no random complement verified", attempts=_MODEL_ATTEMPTS, stats=stats)


# --- regularity recoloring ------------------------------------------------------


@dataclass(frozen=True)
class RecolorReport:
    coloring: Coloring
    model: RegularModel
    eps: float
    eps_prime_final: float
    changed_count: int
    mode: str
    conditions: dict

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "eps_prime_final": self.eps_prime_final,
            "changed_count": self.changed_count,
            "changed_fraction": self.changed_count / self.coloring.space.size,
            "mode": self.mode,
            "model": self.model.as_dict(),
            "conditions": self.conditions,
        }


def regularity_recolor(
    coloring: Coloring,
    eps: float,
    eps_prime,
    *,
    seed: int = 0,
) -> RecolorReport:
    """Recolor <= eps|V| points so colors surviving in a V_1-coset are dense in V_2.

    eps_prime may be a float (plain mode) or a nonincreasing callable of the
    codimension (sequence mode, where the regularity achieved in conclusion
    (3) is allowed to depend on codim V_1; realized as a fixpoint loop over the
    codimension guess); a value <= 0 raises ValueError.  Conclusions (1) and (2)
    are re-measured exactly, (3) is checked against the restriction norm
    verify_model measured for the returned model, and the change budget is asserted.

    The repaint is one pass over coset ids.  A color c is dense in a V_2-coset
    when it colors at least need = ceil(eps |V_2| / (2r)) of its points, the
    exact integer form of density >= eps / (2r).  Each point y, with x the
    point of U in y + V_1, keeps its color when that color is dense in
    x + V_2, and otherwise takes the smallest color dense there.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    space = coloring.space
    r = coloring.r
    d0 = math.ceil(1 / eps)
    if d0 > space.n:
        raise SpaceExhaustedError(
            f"conclusion codim V_1 >= 1/eps needs dimension >= {d0}, have {space.n}"
        )
    sequence_mode = callable(eps_prime)
    # plain mode is sequence mode with a constant eps': its first pass exits
    eps_seq = eps_prime if sequence_mode else lambda d: eps_prime
    d = d0
    while True:
        # the eps' a pass is built from is refused first; the loop ends only on an eps' >= eps2 > 0
        eps_d = float(eps_seq(d))
        if not eps_d > 0:
            raise ValueError("eps_prime must be positive")
        eps2 = min(eps / (4 * r), eps_d)
        # v0 = {x : x_0 = ... = x_{d-1} = 0}, the last n - d rows of the full space's basis
        v0 = Subspace.from_rows(space.p, space.n, np.eye(space.n, dtype=np.int64)[d:])
        # the r indicator tables are built per pass and freed with it: alive in the repaint below,
        # they would be r |V|-point float tables on top of its peak memory
        model = regular_model(coloring.indicators(), space, v0, eps2, seed=seed)
        d_new = model.v1.codim
        if eps2 <= float(eps_seq(d_new)):
            eps_prime_final = float(eps_seq(d_new))
            break
        assert d_new > d, "codimension guess must strictly increase"
        d = d_new

    v1, v2 = model.v1, model.v2
    ids1, ids2, u_pts = model.cosets
    # U is a complement of V_1, so each V_1-coset holds exactly one x in U;
    # central[y] is the id of x + V_2 for the x in y + V_1
    x_of = np.empty(space.p**v1.codim, dtype=np.int64)
    x_of[ids1[u_pts]] = u_pts
    central = ids2[x_of[ids1]]
    counts = np.bincount(ids2 * (r + 1) + coloring.values, minlength=space.p**v2.codim * (r + 1))
    counts = counts.reshape(-1, r + 1)
    # counts are integers: count / |V_2| >= eps / (2r) iff count >= need
    need = math.ceil(Fraction(eps) * space.p**v2.dim / (2 * r))
    dense = counts >= need
    dense[:, 0] = False
    assert dense[ids2[u_pts]].any(axis=1).all(), "pigeonhole guarantees a dense color for eps <= 1"
    keep = dense[central, coloring.values]
    recolored = Coloring(space, r, np.where(keep, coloring.values, dense.argmax(axis=1)[central]))
    changed = recolored.changed_from(coloring)
    assert Fraction(changed, space.size) <= Fraction(eps), (
        f"recolored {changed} points, budget {eps}|V|"
    )

    # conclusion (2): every surviving color is dense in the V_2-coset, exactly
    cond2 = bool((counts[central, recolored.values] >= need).all())
    # conclusion (3): regularity of the *original* indicators on x + V_2, x != 0,
    # as verify_model measured it for this model from the same indicators, V_2 and U
    max_norm = model.details["max_restriction_norm"]
    cond1 = d0 <= v1.codim <= v2.codim
    cond3 = max_norm <= eps_prime_final + FLOAT_TOL
    conditions = {
        "codim_bound_ok": bool(cond1),
        "survivor_density_ok": bool(cond2),
        "restriction_regularity_ok": bool(cond3),
        "max_restriction_norm": max_norm,
        "ok": bool(cond1 and cond2 and cond3),
    }
    if not conditions["ok"]:
        raise VerificationError("recoloring conclusions failed", evidence=conditions)
    return RecolorReport(
        coloring=recolored,
        model=model,
        eps=eps,
        eps_prime_final=eps_prime_final,
        changed_count=changed,
        mode="sequence" if sequence_mode else "plain",
        conditions=conditions,
    )
