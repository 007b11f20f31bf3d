"""Exact linear algebra over prime fields.

Routines take any integer array and return int64 arrays with entries in
[0, p); rref is the one place that reduces its input mod p.  All routines are
exact (no floats) and deterministic.  Subspaces are represented by their
reduced-row-echelon basis, so two Subspace objects are equal iff they describe
the same set of vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, mod p; mat is left unchanged."""
    m = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = m[r] * inv % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rref_rank_null(mat, p: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(rref, rank, null-space basis) of a matrix over F_p.

    The null basis rows are the standard special solutions: one per free
    column, ordered by free column, with a 1 in that column.  For a rank-rk
    matrix with k columns the basis has k - rk rows.
    """
    red, pivots = rref(mat, p)
    k = red.shape[1]
    free = [c for c in range(k) if c not in pivots]
    basis = np.zeros((len(free), k), dtype=np.int64)
    for i, j in enumerate(free):
        basis[i, j] = 1
        for r, c in enumerate(pivots):
            basis[i, c] = (-red[r, j]) % p
    return red, len(pivots), basis


def rank(mat, p: int) -> int:
    return rref_rank_null(mat, p)[1]


def null_space(mat, p: int) -> np.ndarray:
    return rref_rank_null(mat, p)[2]


def rowspace_basis(rows, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the row space; zero rows dropped."""
    red, pivots = rref(rows, p)
    return red[: len(pivots)]


def annihilator(rows, p: int) -> np.ndarray:
    """Canonical basis of {y : s . y = 0 for all s in rowspace(rows)}."""
    return rowspace_basis(null_space(rows, p), p)


def subspace_bases(m: int, d: int, p: int) -> Iterator[np.ndarray]:
    """Every d-dimensional subspace of F_p^m once, as its (d, m) RREF basis.

    One basis per choice of pivot columns and of the entries right of each
    pivot outside the pivot columns, so G(m, d)_p bases in all.
    """
    for pivots in itertools.combinations(range(m), d):
        free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, m) if j not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            basis = np.zeros((d, m), dtype=np.int64)
            basis[range(d), pivots] = 1
            for (i, j), v in zip(free, values):
                basis[i, j] = v
            yield basis


def solve(a, b, p: int) -> np.ndarray | None:
    """One solution x of A x = b over F_p, or None when inconsistent.

    An (l, d) b is solved through one RREF of [A | B]: x is (k, d), and None if any column is inconsistent.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    bm = np.asarray(b, dtype=np.int64)
    if a.shape[0] != bm.shape[0]:
        raise ValueError("shape mismatch")
    k = a.shape[1]
    red, pivots = rref(np.concatenate([a, bm[:, None] if bm.ndim == 1 else bm], axis=1), p)
    if pivots and pivots[-1] >= k:
        return None
    x = np.zeros((k, red.shape[1] - k), dtype=np.int64)
    x[pivots] = red[: len(pivots), k:]
    return x[:, 0] if bm.ndim == 1 else x


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n, stored by its canonical RREF basis.

    basis has shape (dim, n); dim may be 0.  Equality and hashing use the
    canonical basis, so they agree with set equality of the subspaces.
    """

    p: int
    n: int
    basis: np.ndarray = field(compare=False)
    _key: bytes = field(init=False, repr=False, compare=True)

    def __post_init__(self):
        check_prime(self.p)
        rows = np.atleast_2d(self.basis)
        if rows.size and (rows.ndim != 2 or rows.shape[1] != self.n):
            raise ValueError("basis width does not match ambient dimension")
        b = rowspace_basis(rows, self.p) if rows.size else np.zeros((0, self.n), dtype=np.int64)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "_key", b.tobytes() + self.p.to_bytes(8, "big") + self.n.to_bytes(8, "big"))

    @classmethod
    def from_rows(cls, p: int, n: int, rows) -> "Subspace":
        """The span of a length-n vector or of rows of width n (ValueError otherwise); no rows give {0}."""
        return cls(p, n, np.asarray(rows, dtype=np.int64))

    @classmethod
    def full(cls, p: int, n: int) -> "Subspace":
        return cls(p, n, np.eye(n, dtype=np.int64))

    @classmethod
    def zero(cls, p: int, n: int) -> "Subspace":
        return cls(p, n, np.zeros((0, n), dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def codim(self) -> int:
        return self.n - self.dim

    def pivots(self) -> list[int]:
        return [int(np.nonzero(row)[0][0]) for row in self.basis]

    def free_columns(self) -> list[int]:
        pivots = set(self.pivots())
        return [c for c in range(self.n) if c not in pivots]

    def contains(self, vec) -> bool:
        """Whether vec lies in self; ValueError("ambient mismatch") unless vec has length n."""
        v = np.asarray(vec, dtype=np.int64).reshape(-1)
        if v.size != self.n:
            raise ValueError("ambient mismatch")
        return Subspace.from_rows(self.p, self.n, v).leq(self)

    def leq(self, other: "Subspace") -> bool:
        """Whether self <= other, by one RREF of the join; ValueError("ambient mismatch") across ambients."""
        return self.join(other) == other

    def meet(self, other: "Subspace") -> "Subspace":
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("ambient mismatch")
        stacked = np.concatenate([self.annihilator_matrix(), other.annihilator_matrix()], axis=0)
        return Subspace.from_rows(self.p, self.n, null_space(stacked, self.p))

    def join(self, other: "Subspace") -> "Subspace":
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("ambient mismatch")
        return Subspace.from_rows(self.p, self.n, np.concatenate([self.basis, other.basis], axis=0))

    def annihilator_matrix(self) -> np.ndarray:
        """Rows y with self = {x : y . x = 0 for all rows y}; shape (codim, n), eye(n) for {0}."""
        return annihilator(self.basis, self.p)

    def complement(self, seed: int | None = None) -> "Subspace":
        """A direct complement T (self + T = F_p^n, intersection 0).

        Deterministic mode (seed None) takes the standard basis vectors at the
        non-pivot coordinates.  Seeded mode draws uniformly among *all*
        complements: each complement is the graph of a unique linear map from
        the deterministic complement into self, so sampling the map's matrix
        uniformly samples complements uniformly.
        """
        det_rows = np.eye(self.n, dtype=np.int64)[self.free_columns()]
        # V_1 = {0} in most models; the draw gives the same rows but pages in numpy.random (recolor peak RSS +0.16 MB)
        if seed is None or self.dim == 0:
            return Subspace.from_rows(self.p, self.n, det_rows)
        rng = np.random.default_rng(seed)
        m = rng.integers(0, self.p, size=(det_rows.shape[0], self.dim), dtype=np.int64)
        return Subspace.from_rows(self.p, self.n, det_rows + m @ self.basis)
