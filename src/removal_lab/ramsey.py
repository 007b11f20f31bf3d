"""Canonical colorings and the finite pattern-family dichotomy.

The canonical coloring assigns each point the color its first nonzero
coordinate (its lead digit) gets under a map chi: {1..p-1} -> {1..r} (0 gets
stored color 1).  For a finite family of patterns sharing (p, r), exactly one
of two things happens on the decision space F_p^{k_max}:

  Case A: every chi admits an all-nonzero instance of some family member
          (certified per chi by the pattern index and the instance tuple), or
  Case B: some chi yields a family-free canonical coloring (certified by an
          exact count of all-nonzero instances, never by the search's early
          exit).

Enumeration of chi is lexicographic over (chi(1), ..., chi(p-1)), and the
returned Case-B witness is the first failing chi in that order.

Under a canonical coloring an all-nonzero tuple's colors depend only on its
lead digits, so the search enumerates each member's solutions once, into a
class table: the first solution of every lead-digit tuple that some
all-nonzero solution reaches, in enumeration order.  Per chi, the first class
whose lead digits chi maps onto psi gives the member's first instance, the
tuple an enumeration of that chi's coloring would find.  Certificates are
still re-checked against the coloring itself: each Case-A instance directly,
the Case-B witness by an exact recount (patterns.count_matches).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product

import numpy as np

from .errors import ResourceCapError, VerificationError
from .patterns import ENUMERATION_CAP, Pattern, color_tables, count_matches, iter_solution_chunks
from .space import Coloring, Space, capped_power


@lru_cache(maxsize=4)
def _lead_digits(p: int, n: int) -> np.ndarray:
    """Per point of F_p^n, its first nonzero coordinate; 0 at point 0.

    Coordinate 0 is the least significant digit, so a point x0 + p*y has lead
    x0 unless x0 = 0, when it has the lead of y in F_p^(n-1).
    """
    lead = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        nxt = np.tile(np.arange(p, dtype=np.int64), (lead.size, 1))
        nxt[:, 0] = lead
        lead = nxt.reshape(-1)
    lead.setflags(write=False)
    return lead


def canonical_coloring(space: Space, chi, r: int | None = None) -> Coloring:
    """Color each point by chi(first nonzero coordinate); 0 gets color 1."""
    chi = tuple(int(c) for c in chi)
    if len(chi) != space.p - 1:
        raise ValueError(f"chi must assign all {space.p - 1} nonzero field values")
    r = max(chi) if r is None else r
    if min(chi) < 1 or max(chi) > r:
        raise ValueError(f"chi colors must lie in 1..{r}")
    table = np.array((1, *chi), dtype=np.int64)
    return Coloring(space, r, table[_lead_digits(space.p, space.n)])


def _class_table(pattern: Pattern, space: Space) -> tuple[np.ndarray, np.ndarray]:
    """(leads, instances) of the lead-digit classes of pattern's all-nonzero solutions.

    Row j holds the first solution of a class and its lead digits; rows are in
    the enumeration order of those first solutions.  The pass stops once all
    (p-1)^k classes are seen.
    """
    lead = _lead_digits(space.p, space.n)
    q, k = space.p - 1, pattern.k
    seen = np.zeros(q**k, dtype=bool)  # q^k <= p^k <= |V|
    firsts = []
    count = 0
    for xs in iter_solution_chunks(pattern.null_basis, space):
        digits = lead[xs]
        keep = (digits != 0).all(axis=1)
        xs, digits = xs[keep], digits[keep]
        code = np.zeros(xs.shape[0], dtype=np.int64)
        for i in reversed(range(k)):
            code = code * q + (digits[:, i] - 1)
        _, first = np.unique(code, return_index=True)
        first = np.sort(first[~seen[code[first]]])
        seen[code[first]] = True
        firsts.append(xs[first])
        count += first.size
        if count == seen.size:
            break
    instances = np.concatenate(firsts) if firsts else np.empty((0, k), dtype=np.int64)
    return lead[instances], instances


@dataclass(frozen=True)
class ChiCertificate:
    chi: tuple[int, ...]
    pattern_index: int
    instance: tuple[int, ...]


@dataclass(frozen=True)
class Dichotomy:
    case: str
    p: int
    r: int
    n: int
    certificates: tuple[ChiCertificate, ...]
    chi: tuple[int, ...] | None
    verified = True  # built only after the certificates were re-checked

    def as_dict(self) -> dict:
        d = {"case": self.case, "p": self.p, "r": self.r, "n": self.n, "verified": self.verified}
        if self.case == "A":
            d["certificates"] = [
                {"chi": list(c.chi), "pattern_index": c.pattern_index, "instance": list(c.instance)}
                for c in self.certificates
            ]
        else:
            d["chi"] = list(self.chi)
        return d


def _check_certificate(pattern: Pattern, coloring: Coloring, instance: tuple[int, ...]) -> None:
    """Direct re-check of one instance: linear relations, nonzero, colors."""
    space = coloring.space
    xs = np.array(instance, dtype=np.int64)
    coords = space.decode(xs)
    if pattern.rows.shape[0] and np.any(pattern.rows @ coords % space.p):
        raise VerificationError("certificate violates the linear relations", evidence=instance)
    if np.any(xs == 0):
        raise VerificationError("certificate touches zero", evidence=instance)
    if np.any(coloring.values[xs] != np.array(pattern.psi)):
        raise VerificationError("certificate colors do not match", evidence=instance)


def decide_dichotomy(family, *, p: int | None = None, r: int | None = None) -> Dichotomy:
    """Decide Case A / Case B for a pattern family on F_p^{k_max}.

    For an empty family p and r must be given explicitly and the outcome is
    Case B with the all-1s chi.  Each member's class table is built the first
    time the walk reaches the member; a chi is then one lookup per member
    tried.  Certificates on both sides are re-verified mechanically: each
    Case-A instance directly against its canonical coloring, the Case-B
    coloring by an exact all-nonzero count of 0 for every family member.

    The chi budget charges each chi what a search enumerating that chi's
    coloring would spend, |V| plus the solution count of each member it tries,
    an upper bound on the lookups done; once the chi tried cost over
    ENUMERATION_CAP, ResourceCapError.
    """
    family = list(family)
    if family:
        p = family[0].p
        r = family[0].r
        for h in family:
            if (h.p, h.r) != (p, r):
                raise ValueError("family members disagree on (p, r)")
        n = max(h.k for h in family)
    else:
        if p is None or r is None:
            raise ValueError("empty family needs explicit p and r")
        n = 1
    space = Space(p, max(n, 1))
    cost = list(accumulate((space.size**h.num_free for h in family), initial=space.size))
    work = capped_power(r, p - 1, cost[-1])
    over = ResourceCapError(f"the chi search needs up to {work} entries", requested=work, cap=ENUMERATION_CAP)
    if r > ENUMERATION_CAP:  # product lists range(1, r + 1) before its first chi
        raise over
    spent = 0
    certificates: list[ChiCertificate] = []
    tables: list[tuple[np.ndarray, np.ndarray]] = []
    for chi in product(range(1, r + 1), repeat=p - 1):
        if spent > ENUMERATION_CAP:
            raise over
        color_of = np.array((1, *chi), dtype=np.int64)
        hit = None
        for idx, h in enumerate(family):
            if idx == len(tables):
                tables.append(_class_table(h, space))
            leads, instances = tables[idx]
            match = np.flatnonzero((color_of[leads] == h.psi).all(axis=1))
            if match.size:
                hit = ChiCertificate(chi, idx, tuple(int(x) for x in instances[match[0]]))
                spent += cost[idx + 1]
                break
        if hit is None:
            coloring = canonical_coloring(space, chi, r)
            for h in family:
                if count_matches(h, [color_tables(coloring, h.psi, require_nonzero=True)], space)[0]:
                    raise VerificationError("search claimed freeness but exhaustive recount disagrees", evidence=chi)
            return Dichotomy("B", p, r, space.n, (), chi)
        certificates.append(hit)
    for cert in certificates:
        _check_certificate(family[cert.pattern_index], canonical_coloring(space, cert.chi, r), cert.instance)
    return Dichotomy("A", p, r, space.n, tuple(certificates), None)
