"""The induced removal pipeline and the inhomogeneous-to-homogeneous
reduction.

induced_removal recolors a small fraction of points so the result has no
all-nonzero instance of any pattern in the given family, or aborts with a
Case-A certificate showing that every canonical recoloring of the sparse
subpatterns is obstructed.  Freeness of the output is always established by
an exact count, never inferred from the construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CaseAAbort, VerificationError
from .fields import Subspace, solve
from .patterns import (
    Pattern,
    color_tables,
    complexity1_check,
    count_matches,
    count_members,
    first_instance,
    pattern_stats,  # noqa: F401  (bound here for perfbench's tracer test, which reads removal.pattern_stats)
    solutions,
    subpattern_closure,
)
from .ramsey import Dichotomy, canonical_coloring, decide_dichotomy
from .regularize import RecolorReport, regularity_recolor
from .space import Coloring, Space, capped_power, check_cap

# inhomogeneous_reduce builds one Python Pattern per expansion and an
# (r^|B|, |B|) int64 digit table, so its cap is sized for memory
# rather than for the array enumeration that ENUMERATION_CAP bounds
REDUCE_CAP = 10**6


@dataclass(frozen=True)
class RemovalReport:
    coloring: Coloring
    recolor: RecolorReport
    dichotomy: Dichotomy
    closure_size: int
    sparse_indices: tuple[int, ...]
    closure_densities: tuple[float, ...]
    changed_count: int
    eps: float
    eps_rado: float
    theoretical_constants: dict
    complexity_checked: bool
    verified_free = True  # built only after the exact freeness count came out 0

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "eps_rado": self.eps_rado,
            "changed_count": self.changed_count,
            "changed_fraction": self.changed_count / self.coloring.space.size,
            "closure_size": self.closure_size,
            "sparse_indices": list(self.sparse_indices),
            "closure_densities": list(self.closure_densities),
            "codim_v1": self.recolor.model.v1.codim,
            "codim_v2": self.recolor.model.v2.codim,
            "case": self.dichotomy.case,
            "chi": list(self.dichotomy.chi) if self.dichotomy.chi else None,
            "recolor": self.recolor.as_dict(),
            "theoretical_constants": self.theoretical_constants,
            "complexity_checked": self.complexity_checked,
            "verified_free": self.verified_free,
        }


def _theoretical_constants(eps: float, eps_rado: float, r: int, k_max: int, family_size: int, codim_v1: int) -> dict:
    """Worst-case theoretical constants, recorded for the report but never asserted.

    The density floor for the counting step is computable from the run's own
    parameters; the removal delta additionally uses the achieved codimension.
    The recommended eps_rado needs Ramsey numbers far outside enumeration
    range, so only its shape is recorded.
    """
    eps_count = (1.0 / (2 * k_max)) * (eps / (4 * r)) ** k_max * eps_rado
    return {
        "eps_count_formula": "(1/(2*k_max)) * (eps/(4*r))**k_max * eps_rado",
        "eps_count_value": eps_count,
        "delta_formula": "min((1/4) * p**(-k_max*codim_v1) * (eps/(4*r))**k_max * eps_rado, p**(-n0*k_max))",
        "eps_rado_formula": "(1/(10*family_size)) * p**(-n_rado*k_max)  [n_rado not computed]",
        "k_max": k_max,
        "family_size": family_size,
        "codim_v1": codim_v1,
    }


def _closure_densities(closure, restricted: Coloring) -> list[Fraction]:
    """Per closure member, its density in restricted, pattern_stats' density: one count per null basis."""
    space = restricted.space
    members = [(h.null_basis, color_tables(restricted, h.psi)) for h in closure]
    return [Fraction(c, space.size**h.num_free) for h, c in zip(closure, count_members(members, space))]


def induced_removal(
    phi: Coloring,
    family,
    eps: float,
    *,
    eps_rado: float = 0.1,
    eps_reg: float = 0.05,
    seed: int = 0,
    acknowledge_complexity: bool = False,
) -> RemovalReport:
    """Recolor at most eps|V| points of phi to make it family-free, or abort.

    Pipeline: (i) regularize-and-recolor phi at eps/2 so every color surviving
    in a V_1-coset is dense in the central V_2-coset; (ii) collect the
    subpattern closure and keep the members of density < eps_rado in the
    restriction phi|_{V_2}; (iii) decide the canonical dichotomy for that
    sparse subfamily.  Case A raises CaseAAbort carrying the certificates.
    Case B patches V_1 \\ {0} with the witness canonical coloring and then
    proves the output family-free by an exact count of all-nonzero instances
    (raising VerificationError with the first instance otherwise).  The
    closure densities and the freeness count take one count per distinct
    null basis (patterns.count_members), so a family's members, which differ
    only in psi, are counted together; each member still gets its own count,
    refusal or instance, in member order.

    Every family member must pass the complexity-1 criterion unless
    acknowledge_complexity is set (required at p = 2, where the criterion is
    undecidable by the squared-forms test).
    """
    family = list(family)
    if not family:
        raise ValueError("need at least one pattern")
    space = phi.space
    for h in family:
        if h.p != space.p or h.r != phi.r:
            raise ValueError("family and coloring disagree on (p, r)")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    complexity_checked = not acknowledge_complexity
    if complexity_checked:
        for h in family:
            if not complexity1_check(h.rows, h.p):
                raise ValueError(
                    "family member fails the complexity-1 criterion; "
                    "pass acknowledge_complexity=True to run regardless"
                )

    recolor = regularity_recolor(phi, eps / 2, eps_reg, seed=seed)
    phi1 = recolor.coloring
    v1, v2 = recolor.model.v1, recolor.model.v2

    closure = subpattern_closure(family)
    densities = _closure_densities(closure, phi.restrict(0, v2))
    sparse = [idx for idx, d in enumerate(densities) if d < eps_rado]
    sub_family = [closure[i] for i in sparse]

    dichotomy = decide_dichotomy(sub_family, p=space.p, r=phi.r)
    if dichotomy.case == "A":
        raise CaseAAbort(
            "every canonical recoloring admits a sparse-subpattern instance",
            dichotomy=dichotomy,
        )

    values = phi1.values.copy()
    # V_1 = {0} in most models the pipeline builds, and then the patch writes no point (pts[1:] is
    # empty): the guard saves a coloring of Space(p, 0) and a slot in _lead_digits' 4-entry cache
    if v1.dim > 0:
        pts = space.subspace_points(v1)
        patch = canonical_coloring(Space(space.p, v1.dim), dichotomy.chi, phi.r)
        values[pts[1:]] = patch.values[1:]
    out = phi1.with_values(values)

    changed = out.changed_from(phi)
    budget = Fraction(eps) / 2 + Fraction(1, space.p**v1.codim)
    assert Fraction(changed, space.size) <= budget, (
        f"changed {changed} points, budget (eps/2 + p^-codim)|V| = {float(budget) * space.size}"
    )

    members = [(h.null_basis, color_tables(out, h.psi, require_nonzero=True)) for h in family]
    for h, count in zip(family, count_members(members, space)):
        if count:
            instance = first_instance(h, out)
            raise VerificationError(
                "patched coloring still has a family instance",
                evidence={"pattern_psi": list(h.psi), "instance": [int(x) for x in instance]},
            )

    k_max = max(h.k for h in family)
    return RemovalReport(
        coloring=out,
        recolor=recolor,
        dichotomy=dichotomy,
        closure_size=len(closure),
        sparse_indices=tuple(sparse),
        closure_densities=tuple(float(d) for d in densities),
        changed_count=changed,
        eps=eps,
        eps_rado=eps_rado,
        theoretical_constants=_theoretical_constants(
            eps, eps_rado, phi.r, k_max, len(family), v1.codim
        ),
        complexity_checked=complexity_checked,
    )


# --- inhomogeneous reduction ----------------------------------------------------


@dataclass(frozen=True)
class ExpandedPattern:
    u_tuple: tuple[int, ...]
    pattern: Pattern


@dataclass(frozen=True)
class InhomReduction:
    space: Space
    b_subspace: Subspace
    b_points: np.ndarray
    tilde_basis: np.ndarray
    tilde_space: Space
    coloring: Coloring
    expansions: tuple[tuple[ExpandedPattern, ...], ...]

    def lift_point(self, tilde_x: int, u: int) -> int:
        """A point of the quotient space plus an offset in B -> a point of V."""
        coords = self.tilde_space.decode(np.array([tilde_x]))[0] @ self.tilde_basis % self.space.p
        lifted = (coords + self.space.decode(np.array([u]))[0]) % self.space.p
        return int(self.space.encode(lifted[None, :])[0])

    def instance_map(self, pair_index: int, expansion_index: int, tilde_instance) -> np.ndarray:
        """An instance of one expanded pattern -> the ambient instance it encodes."""
        exp = self.expansions[pair_index][expansion_index]
        xs = np.asarray(tilde_instance, dtype=np.int64)
        return np.array(
            [self.lift_point(int(xs[i]), exp.u_tuple[i]) for i in range(xs.size)], dtype=np.int64
        )


def _offset_points(offsets, space: Space) -> np.ndarray:
    """Offsets as point codes; ValueError for a code outside [0, |V|)."""
    pts = [int(o) for o in offsets]
    if any(not 0 <= o < space.size for o in pts):
        raise ValueError(f"offsets {pts} must be point codes of {space!r}, in [0, {space.size})")
    return np.array(pts, dtype=np.int64)


def _solve_offset_tuples(pattern: Pattern, b_sub: Subspace, part: np.ndarray, space: Space) -> list[tuple[int, ...]]:
    """All u in B^k with A u = b, as tuples of point codes.

    u runs over the particular solution part (in B-coordinates) plus every
    solution of A y = 0 in B-coordinates, in the solution enumeration order
    on F_p^dim B.
    """
    b_space = Space(space.p, b_sub.dim)
    coords = b_space.decode(solutions(pattern.rows, b_space)) + part  # (count, k, dim B), reduced by encode
    return [tuple(int(x) for x in row) for row in space.encode(coords @ b_sub.basis)]


def inhomogeneous_reduce(phi: Coloring, pairs) -> InhomReduction:
    """Encode inhomogeneous pattern problems as homogeneous ones on a quotient.

    pairs is a sequence of (pattern, offsets) with offsets a tuple of point
    codes, one per matrix row, giving the system A x = b.  B is the span of
    all offsets; the quotient coloring on a complement of B assigns each point
    the tuple of phi-colors along its B-coset (encoded little-endian in the
    t-order of B), and every pair expands into patterns over the quotient
    whose instances correspond bijectively to the original inhomogeneous
    instances.  The expected expansion count |B|^(k - rank A) * r^(k(|B|-1))
    is asserted whenever the offset system is consistent.  The r^|B| x |B|
    encoded color table and the total expansion count are checked against
    REDUCE_CAP before either is built.
    """
    space = phi.space
    r = phi.r
    pairs = [(h, tuple(int(x) for x in _offset_points(b, space))) for h, b in pairs]
    for h, b in pairs:
        if h.p != space.p or h.r != r:
            raise ValueError("pattern and coloring disagree on (p, r)")
        if len(b) != h.rows.shape[0]:
            raise ValueError("need one offset per matrix row")
    b_rows = space.decode(np.array([x for _, b in pairs for x in b], dtype=np.int64))
    b_sub = Subspace.from_rows(space.p, space.n, b_rows)
    b_pts = space.subspace_points(b_sub)
    comp = b_sub.complement()
    tilde_space = Space(space.p, comp.dim)

    b_size = int(b_pts.size)
    check_cap(capped_power(r, b_size, b_size), REDUCE_CAP, "encoded color table exceeds the cap")
    n_colors = r**b_size
    # the basis of B is in RREF, so a point's B-coordinates are its pivot coordinates
    parts = [solve(h.rows, space.decode(np.array(b))[:, b_sub.pivots()], space.p) for h, b in pairs]
    # |B|^(k - rank A) * r^(k(|B|-1)) expansions for a consistent offset system, none otherwise
    sizes = [
        0 if part is None else space.p ** (b_sub.dim * h.num_free) * r ** (h.k * (b_size - 1))
        for (h, _), part in zip(pairs, parts)
    ]
    check_cap(sum(sizes), REDUCE_CAP, "expansion count exceeds the cap")

    # quotient coloring: little-endian base-r digits over the B-coset colors, row j at offset b_pts[j]
    colors = phi.values[space.coset_points(b_pts, comp)] - 1
    tilde_phi = Coloring(tilde_space, n_colors, r ** np.arange(b_size) @ colors + 1)

    # digit[c, j] is the phi-color (minus 1) at offset b_pts[j] that encoded color c + 1 records
    encoded = np.arange(n_colors)
    digit = encoded[:, None] // r ** np.arange(b_pts.size) % r
    pos = {int(pt): idx for idx, pt in enumerate(b_pts)}
    expansions = []
    for (h, _), part, size in zip(pairs, parts, sizes):
        exp_list = []
        for u in [] if part is None else _solve_offset_tuples(h, b_sub, part, space):
            # per variable: encoded colors whose digit at u_i equals psi(i)
            per_var = [(encoded[digit[:, pos[u[i]]] == h.psi[i] - 1] + 1).tolist() for i in range(h.k)]
            for combo in itertools.product(*per_var):
                exp_list.append(ExpandedPattern(u, Pattern(space.p, n_colors, h.rows, combo)))
        assert len(exp_list) == size, "expansion count mismatch"
        expansions.append(tuple(exp_list))
    return InhomReduction(
        space=space,
        b_subspace=b_sub,
        b_points=b_pts,
        tilde_basis=comp.basis,
        tilde_space=tilde_space,
        coloring=tilde_phi,
        expansions=tuple(expansions),
    )


def count_inhomogeneous(phi: Coloring, pattern: Pattern, offsets) -> int:
    """Direct count of x with A x = b and matching colors, for cross-checks.

    x = u + y with u a particular solution and A y = 0: each color table is
    shifted once by u_i, and count_matches counts the solutions y it marks.
    """
    space = phi.space
    part = solve(pattern.rows, space.decode(_offset_points(offsets, space)), space.p)
    if part is None:
        return 0
    pts = np.arange(space.size)
    tables = [t[space.add_points(pts, int(u))] for t, u in zip(color_tables(phi, pattern.psi), space.encode(part))]
    return count_matches(pattern.null_basis, [tables], space)[0]
