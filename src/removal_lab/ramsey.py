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
lead digits, so the search enumerates each parametrization once, into a
class table: the first solution of every lead-digit tuple that some
all-nonzero solution reaches, in enumeration order.  The table depends on the
member's null basis N alone, not on psi, so there is one class table per
distinct null basis: the r members of a monochromatic family share one.  Per
chi, the first class whose lead digits chi maps onto the member's psi gives
its first instance, the tuple an enumeration of that chi's coloring would
find.  Certificates are still re-checked against the coloring itself: each
Case-A instance directly, the Case-B witness by an exact recount
(patterns.count_matches).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product

import numpy as np

from . import patterns
from .errors import VerificationError
from .patterns import Pattern, color_tables, count_matches, iter_solution_chunks
from .space import Coloring, Space, capped_power, check_cap


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


def _class_table(basis: np.ndarray, space: Space) -> tuple[np.ndarray, np.ndarray]:
    """(leads, instances) of the lead-digit classes of the all-nonzero tuples t basis.

    Row j holds the first tuple of a class and its lead digits; rows are in
    the enumeration order of those first tuples.  The pass stops once all
    (p-1)^k classes are seen.

    A tuple's class code is sum_i (lead(x_i) - 1) q^i, q = p - 1, summed from
    one column table per variable.  Point 0 is the only point with lead digit
    0; its entry is the sentinel q^k instead, so a code clipped at q^k is q^k
    exactly when the tuple touches 0.  No sort is needed: the first row of
    each class in a chunk is a minimum over row numbers.
    """
    lead = _lead_digits(space.p, space.n)
    q, k = space.p - 1, basis.shape[1]
    sentinel = q**k  # q^k <= p^k <= |V|
    columns = (lead - 1) * q ** np.arange(k, dtype=np.int64)[:, None]  # (k, |V|)
    columns[:, 0] = sentinel
    seen = np.zeros(sentinel + 1, dtype=bool)
    seen[sentinel] = True  # the tuples that touch 0 form no class
    firsts = []
    count = 0
    for xs in iter_solution_chunks(basis, space):
        code = columns[0, xs[:, 0]]
        for i in range(1, k):
            code += columns[i, xs[:, i]]
        np.minimum(code, sentinel, out=code)
        # first[c] = the first row of class c in this chunk (ufunc.at is exact on repeated indices)
        first = np.full(sentinel + 1, xs.shape[0], dtype=np.int64)
        np.minimum.at(first, code, np.arange(xs.shape[0]))
        new = np.flatnonzero((first < xs.shape[0]) & ~seen)
        seen[new] = True
        rows = np.sort(first[new])
        firsts.append(xs[rows])
        count += rows.size
        if count == sentinel:
            break
    instances = np.concatenate(firsts)  # iter_solution_chunks yields at least one chunk
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
    Case B with the all-1s chi.  There is one class table per distinct null
    basis, built the first time the walk reaches a member with that basis; a
    chi is then one lookup per member tried.  Certificates on both sides are
    re-verified mechanically: each Case-A instance directly against its
    canonical coloring, the Case-B coloring by an exact all-nonzero count of 0
    for every family member.

    The chi budget charges each chi what a search enumerating that chi's
    coloring would spend, |V| plus the solution count of each member it tries.
    Sharing tables does not change that charge, which stays an upper bound on
    the work done; once the chi tried cost over patterns.ENUMERATION_CAP,
    ResourceCapError.
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
    over, cap = f"the chi search needs up to {work} entries", patterns.ENUMERATION_CAP
    check_cap(r, cap, over, work)  # product lists range(1, r + 1) before its first chi
    spent = 0
    certificates: list[ChiCertificate] = []
    # a class table depends on the member's null basis alone, not on its psi
    keys = [(h.null_basis.tobytes(), h.null_basis.shape) for h in family]
    tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for chi in product(range(1, r + 1), repeat=p - 1):
        check_cap(spent, cap, over, work)
        color_of = np.array((1, *chi), dtype=np.int64)
        hit = None
        for idx, h in enumerate(family):
            if keys[idx] not in tables:
                tables[keys[idx]] = _class_table(h.null_basis, space)
            leads, instances = tables[keys[idx]]
            match = np.flatnonzero((color_of[leads] == h.psi).all(axis=1))
            if match.size:
                hit = ChiCertificate(chi, idx, tuple(int(x) for x in instances[match[0]]))
                spent += cost[idx + 1]
                break
        if hit is None:
            coloring = canonical_coloring(space, chi, r)
            for h in family:
                if count_matches(h.null_basis, [color_tables(coloring, h.psi, require_nonzero=True)], space)[0]:
                    raise VerificationError("search claimed freeness but exhaustive recount disagrees", evidence=chi)
            return Dichotomy("B", p, r, space.n, (), chi)
        certificates.append(hit)
    for cert in certificates:
        _check_certificate(family[cert.pattern_index], canonical_coloring(space, cert.chi, r), cert.instance)
    return Dichotomy("A", p, r, space.n, tuple(certificates), None)
