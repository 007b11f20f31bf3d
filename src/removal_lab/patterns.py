"""Colored linear patterns and exact instance counting.

A pattern is a pair (A, psi): an l x k coefficient matrix over F_p and a color
psi(i) for each of the k variables.  The solutions x in V^k of A x = 0 are
enumerated once each as x = sum_j t_j N_j, t in V^m, m = k - rank A, by the
coset-points kernel Space.image_points, in chunks of at most 2^17 tuples.

iter_matches is the one enumerate-and-match loop: every instance count and
search (pattern_stats, generic_count, first_instance,
removal.count_inhomogeneous) filters the enumeration through boolean tables,
one per variable, and reads its answer off the matched tuples; lam sums table
products over the same chunks.  generic_count (the matched all-nonzero tuples
of full rank, which only `stats` reports) is a signed sum of all-nonzero
counts over the subspaces of the parameter space, by Moebius inversion, so no
tuple is rank-reduced; its terms enumerate at most about 1.2 times the main
solution count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceCapError, UnsupportedCharacteristicError
from .fields import annihilator, as_fp_matrix, check_prime, null_space, rank, rowspace_basis, subspace_bases
from .space import Space, capped_power, check_capped_prime, json_int

ENUMERATION_CAP = 10**8


@dataclass(frozen=True)
class Pattern:
    """An r-colored pattern (A, psi) over F_p.

    rows may have zero rows (no constraints); psi entries are colors in 1..r.
    """

    p: int
    r: int
    rows: np.ndarray
    psi: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        k = len(self.psi)
        if k < 1:
            raise ValueError("pattern needs at least one variable")
        m = np.atleast_2d(np.asarray(self.rows, dtype=np.int64)) % self.p
        if m.size and (m.ndim != 2 or m.shape[1] != k):
            raise ValueError(f"rows must have {k} columns, one per variable in psi")
        m = m.reshape(-1, k)
        m.setflags(write=False)
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "psi", tuple(int(c) for c in self.psi))
        if any(not 1 <= c <= self.r for c in self.psi):
            raise ValueError("psi colors must lie in 1..r")

    @property
    def k(self) -> int:
        return len(self.psi)

    @property
    def num_free(self) -> int:
        """m = k - rank A, the dimension of the solution parametrization."""
        return self.k - rank(self.rows, self.p)

    def null_basis(self) -> np.ndarray:
        return null_space(self.rows, self.p)

    def canonical_key(self) -> tuple:
        """Dedup key: (canonical row-space basis, psi)."""
        return (self.p, self.r, rowspace_basis(self.rows, self.p).tobytes(), self.rows.shape[1], self.psi)

    def __eq__(self, other):
        return isinstance(other, Pattern) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def to_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "rows": [[int(v) for v in row] for row in self.rows], "psi": list(self.psi)}

    @staticmethod
    def from_dict(d: dict) -> "Pattern":
        if not isinstance(d, dict):
            raise ValueError("pattern must be a JSON object")
        for key in ("p", "r", "rows", "psi"):
            if key not in d:
                raise ValueError(f"pattern object missing {key!r}")
        for key in ("rows", "psi"):
            if not isinstance(d[key], list):
                raise ValueError(f"pattern field {key!r} must be a list")
        p = check_capped_prime(json_int(d["p"], "pattern field 'p'"))
        try:
            rows = np.asarray(d["rows"], dtype=np.int64)
        except (TypeError, OverflowError):
            raise ValueError("pattern field 'rows' must hold rows of integers") from None
        psi = tuple(json_int(c, "pattern color") for c in d["psi"])
        return Pattern(p, json_int(d["r"], "pattern field 'r'"), rows, psi)


def write_pattern(path, pattern: Pattern):
    with open(path, "w") as fh:
        json.dump(pattern.to_dict(), fh, sort_keys=True)
        fh.write("\n")


def read_pattern(path) -> Pattern:
    with open(path) as fh:
        return Pattern.from_dict(json.load(fh))


def write_family(path, family: Sequence[Pattern]):
    with open(path, "w") as fh:
        json.dump([h.to_dict() for h in family], fh, sort_keys=True)
        fh.write("\n")


def read_family(path) -> list[Pattern]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("family file must hold a JSON list")
    return [Pattern.from_dict(d) for d in data]


# --- solution enumeration -------------------------------------------------


def solution_count(rows, space: Space) -> int:
    """Number of solution tuples of A x = 0 in V^k (= |V|^(k - rank A))."""
    m = as_fp_matrix(rows, space.p)
    return space.size ** (m.shape[1] - rank(m, space.p))


def iter_solution_chunks(rows, space: Space) -> Iterator[np.ndarray]:
    """Yield (batch, k) arrays of point indices covering every solution once.

    Order is little-endian over the parameter tuple (t_1, ..., t_m), t_1 least
    significant; within a pattern this order is what "first instance" means
    everywhere in this package.

    x_i is the image of t in F_p^(mn) under kron(N[:, i], I_n).  A chunk runs over
    the low a digits, p^a <= 2^17 < p^(a+1), for max(1, 2^17 // p^a) settings of the rest.
    """
    a = as_fp_matrix(rows, space.p)
    basis = null_space(a, space.p)
    m, k = basis.shape
    total = capped_power(space.size, m)
    if isinstance(total, str) or total > ENUMERATION_CAP:
        raise ResourceCapError(
            f"solution enumeration needs {total} tuples, cap is {ENUMERATION_CAP}", requested=total, cap=ENUMERATION_CAP
        )
    low = next(d for d in range(18) if space.p ** (d + 1) > 1 << 17)
    block = max(1, (1 << 17) // space.p**low)
    # images[i] = kron(N[:, i], I_n): row j*n + c is N[j, i] times unit vector c
    images = (basis.T[:, :, None, None] * np.eye(space.n, dtype=np.int64)).reshape(k, m * space.n, space.n)
    reps = [space.image_points(0, mi[low:]) for mi in images]
    inner = space.p ** min(low, m * space.n)
    for start in range(0, reps[0].size, block):
        # filled column by column: one column image is alive next to the chunk, not k
        xs = np.empty((min(block, reps[0].size - start) * inner, k), dtype=np.int64)
        for i, (r, mi) in enumerate(zip(reps, images)):
            xs[:, i] = space.image_points(r[start : start + block], mi[:low]).reshape(-1)
        yield xs


def solutions(rows, space: Space) -> np.ndarray:
    """All solution tuples as one (count, k) array (desk scale only)."""
    chunks = list(iter_solution_chunks(rows, space))
    return np.concatenate(chunks, axis=0)


def color_tables(coloring, psi, *, require_nonzero: bool = False) -> list[np.ndarray]:
    """Tables for iter_matches: table i marks the points colored psi[i].

    With require_nonzero entry 0 is cleared, so every match has all coordinates nonzero.
    """
    tables = [coloring.values == c for c in psi]
    if require_nonzero:
        for t in tables:
            t[0] = False
    return tables


def iter_matches(rows, tables: Sequence[np.ndarray], space: Space) -> Iterator[np.ndarray]:
    """Per solution chunk in enumeration order, the tuples x with tables[i][x_i] true for all i.

    tables are boolean arrays of length |V|, one per variable.
    """
    for xs in iter_solution_chunks(rows, space):
        hit = tables[0][xs[:, 0]]
        for i in range(1, len(tables)):
            hit &= tables[i][xs[:, i]]
        yield xs[hit]


# --- lambda counts ----------------------------------------------------------


@dataclass(frozen=True)
class LambdaValue:
    value: float
    exact: Fraction | None

    def __float__(self):
        return self.value


def lam(rows, fs: Sequence[np.ndarray], space: Space) -> LambdaValue:
    """Lambda_A(f_1, ..., f_k) = E_{x: Ax=0} prod_i f_i(x_i).

    When every f_i is {0,1}-valued the result also carries the exact rational
    count / |V|^m; otherwise exact is None.
    """
    a = as_fp_matrix(rows, space.p)
    k = a.shape[1]
    if len(fs) != k:
        raise ValueError(f"need {k} functions, got {len(fs)}")
    fs = [np.asarray(f, dtype=np.float64) for f in fs]
    if any(f.shape != (space.size,) for f in fs):
        raise ValueError("function table has wrong length")
    total = solution_count(a, space)
    acc = 0.0
    for xs in iter_solution_chunks(a, space):
        prod = fs[0][xs[:, 0]].copy()
        for i in range(1, k):
            prod *= fs[i][xs[:, i]]
        acc += float(prod.sum())
    # under the cap a sum of 0/1 products is exact, so acc / total is the rounded Fraction
    exact = Fraction(int(acc), total) if np.isin(fs, (0.0, 1.0)).all() else None
    return LambdaValue(acc / total, exact)


# --- statistics against a coloring ------------------------------------------


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of small matrices over F_p; mats has shape (B, R, C).

    The per-tuple rank oracle that the tests check generic_count against.
    """
    m = (np.asarray(mats, dtype=np.int64) % p).copy()
    nb, nrows, ncols = m.shape
    inv = np.zeros(p, dtype=np.int64)
    for v in range(1, p):
        inv[v] = pow(v, -1, p)
    row = np.zeros(nb, dtype=np.int64)
    rows_idx = np.arange(nrows)[None, :]
    for c in range(ncols):
        col = m[:, :, c]
        eligible = (rows_idx >= row[:, None]) & (col != 0)
        has = eligible.any(axis=1)
        b = np.nonzero(has)[0]
        if b.size == 0:
            continue
        pr = np.argmax(eligible[b], axis=1)
        rr = row[b]
        # swap pivot row into place, normalize, eliminate the rest of the column
        tmp = m[b, pr].copy()
        m[b, pr] = m[b, rr]
        m[b, rr] = tmp
        pivrow = m[b, rr] * inv[m[b, rr, c]][:, None] % p
        m[b, rr] = pivrow
        colvals = m[b, :, c]
        m[b] = (m[b] - colvals[:, :, None] * pivrow[:, None, :]) % p
        m[b, rr] = pivrow
        row[b] += 1
        if (row == nrows).all():
            break
    return row


@dataclass(frozen=True)
class PatternStats:
    instance_count: int
    total_solutions: int
    density: Fraction
    nonzero_instance_count: int
    is_free: bool


def _check_pair(pattern: Pattern, coloring) -> None:
    if pattern.p != coloring.space.p:
        raise ValueError("pattern and coloring field mismatch")
    if coloring.r != pattern.r:
        raise ValueError("pattern and coloring color count mismatch")


def pattern_stats(pattern: Pattern, coloring) -> PatternStats:
    """Exhaustive instance statistics for one pattern against one coloring.

    instance_count uses the stored color at 0, so zero-touching solutions
    count toward the density (the density normalization is |V|^(k - rank A)).
    Freeness looks only at tuples with every coordinate nonzero.
    """
    _check_pair(pattern, coloring)
    space = coloring.space
    count = 0
    nonzero = 0
    for xs in iter_matches(pattern.rows, color_tables(coloring, pattern.psi), space):
        count += xs.shape[0]
        nonzero += int(np.count_nonzero((xs != 0).all(axis=1)))
    total = solution_count(pattern.rows, space)
    return PatternStats(
        instance_count=count,
        total_solutions=total,
        density=Fraction(count, total),
        nonzero_instance_count=nonzero,
        is_free=(nonzero == 0),
    )


def generic_count(pattern: Pattern, coloring, nonzero: int) -> int:
    """Matched all-nonzero solutions whose k coordinates span dimension m = k - rank A.

    nonzero is pattern_stats(pattern, coloring).nonzero_instance_count.  A
    solution is x = t N with N the (m, k) null basis of full row rank, so
    rank(x_1..x_k) = rank(t_1..t_m), and x is generic iff the parameters t
    are independent.  Moebius inversion over the lattice of subspaces U of
    F_p^m turns that into a signed sum of nonzero counts:

        generic = sum_U mu_U #{matched all-nonzero x = (s B_U) N},
        mu_U = (-1)^d p^(d(d-1)/2), d = m - dim U,

    B_U the RREF basis of U.  U = F_p^m contributes nonzero and U = 0 nothing;
    every other term runs the enumerate-and-match kernel over the solutions
    with parameter basis B_U N.  For m > n no m points of V are independent,
    so the count is 0 without enumeration.

    Work: the terms enumerate sum_{d >= 1} G(m, d)_p |V|^(m - d) tuples, G the
    Gaussian binomial.  For n >= m that is at most 1.18 |V|^m at p = 2 and
    0.53 |V|^m at p = 3 (the sup over m, at n = m), and each term is smaller
    than the main enumeration, so it is under the cap that one passed.
    """
    _check_pair(pattern, coloring)
    space, p = coloring.space, coloring.space.p
    basis = pattern.null_basis()
    m = basis.shape[0]
    if nonzero == 0 or m > space.n:
        return 0
    tables = color_tables(coloring, pattern.psi, require_nonzero=True)
    total = nonzero
    for d in range(1, m):
        mu = (-1) ** d * p ** (d * (d - 1) // 2)
        for b in subspace_bases(m, m - d, p):
            rows = annihilator(b @ basis % p, p)
            total += mu * sum(xs.shape[0] for xs in iter_matches(rows, tables, space))
    return total


def first_instance(pattern: Pattern, coloring, *, require_nonzero: bool = True) -> np.ndarray | None:
    """First instance in enumeration order, or None; used for certificates."""
    tables = color_tables(coloring, pattern.psi, require_nonzero=require_nonzero)
    for xs in iter_matches(pattern.rows, tables, coloring.space):
        if xs.shape[0]:
            return xs[0].copy()
    return None


# --- subpatterns -------------------------------------------------------------


def subpattern(pattern: Pattern, indices: Sequence[int]) -> Pattern:
    """The induced pattern on a subset of variables (1-based indices).

    The solution set of A x = 0 projects onto the selected coordinates to the
    row space of the corresponding null-basis columns; the returned matrix is
    the canonical annihilator of that projection, so a tuple satisfies it iff
    it extends to a full solution.
    """
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValueError("need at least one variable")
    if idx[0] < 1 or idx[-1] > pattern.k:
        raise ValueError(f"indices must lie in 1..{pattern.k}")
    cols = [i - 1 for i in idx]
    proj = pattern.null_basis()[:, cols]
    return Pattern(pattern.p, pattern.r, annihilator(proj, pattern.p), tuple(pattern.psi[i] for i in cols))


def subpattern_closure(family: Sequence[Pattern]) -> list[Pattern]:
    """One representative of every subpattern of every member, deduplicated.

    Only nonempty index sets are used.  Dedup key is the canonical row space
    together with psi, so equivalent presentations collapse.
    """
    seen: dict[tuple, Pattern] = {}
    for h in family:
        for mask in range(1, 1 << h.k):
            idx = [i + 1 for i in range(h.k) if mask >> i & 1]
            sub = subpattern(h, idx)
            seen.setdefault(sub.canonical_key(), sub)
    return list(seen.values())


# --- complexity --------------------------------------------------------------


def complexity1_check(rows, p: int) -> bool:
    """Decide whether the system has complexity 1 (odd p only).

    Writes the solution space as x = t N and tests whether the squared linear
    forms (t . L_i)^2, L_i the i-th null-basis column, are linearly independent
    as quadratic forms — equivalently whether the flattened outer products
    L_i L_i^T span a k-dimensional space over F_p.
    """
    check_prime(p)
    if p == 2:
        raise UnsupportedCharacteristicError(
            "the squared-form criterion requires odd characteristic"
        )
    a = as_fp_matrix(rows, p)
    basis = null_space(a, p)
    m, k = basis.shape
    flat = np.empty((k, m * m), dtype=np.int64)
    for i in range(k):
        col = basis[:, i]
        flat[i] = np.outer(col, col).reshape(-1) % p
    return rank(flat, p) == k
