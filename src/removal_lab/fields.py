"""Exact linear algebra over prime fields.

Matrices are numpy int64 arrays with entries in [0, p).  All routines are
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


def as_fp_matrix(rows, p: int) -> np.ndarray:
    m = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    return m % p


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, mod p."""
    m = as_fp_matrix(mat, p).copy()
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
    m = as_fp_matrix(mat, p)
    red, pivots = rref(m, p)
    k = m.shape[1]
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
    red, pivots = rref(as_fp_matrix(rows, p), p)
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
    a = as_fp_matrix(a, p)
    bm = np.asarray(b, dtype=np.int64) % p
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
        b = rowspace_basis(self.basis, self.p) if self.basis.size else np.zeros((0, self.n), dtype=np.int64)
        if b.shape[1] != self.n and b.shape[0] > 0:
            raise ValueError("basis width does not match ambient dimension")
        b = b.reshape(b.shape[0], self.n)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "_key", b.tobytes() + self.p.to_bytes(8, "big") + self.n.to_bytes(8, "big"))

    @classmethod
    def from_rows(cls, p: int, n: int, rows) -> "Subspace":
        r = as_fp_matrix(rows, p) if np.asarray(rows).size else np.zeros((0, n), dtype=np.int64)
        return cls(p, n, r.reshape(-1, n) if r.size else np.zeros((0, n), dtype=np.int64))

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
        v = np.asarray(vec, dtype=np.int64).reshape(-1) % self.p
        for row in self.basis:
            c = int(np.nonzero(row)[0][0])
            v = (v - v[c] * row) % self.p
        return not v.any()

    def leq(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.basis)

    def meet(self, other: "Subspace") -> "Subspace":
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("ambient mismatch")
        stacked = np.concatenate([self.annihilator_matrix(), other.annihilator_matrix()], axis=0)
        return Subspace.from_rows(self.p, self.n, null_space(stacked, self.p))

    def join(self, other: "Subspace") -> "Subspace":
        return Subspace.from_rows(self.p, self.n, np.concatenate([self.basis, other.basis], axis=0))

    def annihilator_matrix(self) -> np.ndarray:
        """Rows y with self = {x : y . x = 0 for all rows y}; shape (codim, n)."""
        # V_1 = {0} in most pipeline models; on F_2^16 eye(n) takes 3 us, annihilator 230 us (2 cores, numpy 2.4)
        if self.dim == 0:
            return np.eye(self.n, dtype=np.int64)
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
        return Subspace.from_rows(self.p, self.n, (det_rows + m @ self.basis) % self.p)
