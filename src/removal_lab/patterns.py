"""Colored linear patterns and exact instance counting.

A pattern is a pair (A, psi): an l x k coefficient matrix over F_p and a color
psi(i) for each of the k variables.  The solutions x in V^k of A x = 0 are
x = t N, t in V^m, for the (m, k) null basis N = Pattern.null_basis of full
row rank, m = k - rank A.  The enumeration kernel takes such a parametrization,
not A, and lists each t N once, in t-order, by the coset-points kernel
Space.image_points, in chunks of at most 2^17 tuples.

iter_matches is the enumerate-and-match loop of the instance search
(first_instance): it filters the enumeration through boolean tables, one per
variable, and yields the matched tuples; lam sums table products over the
same chunks.

count_matches is the one exact count of matched solutions, for one or more
table sets in one pass.  It takes an (m, k) parametrization N of full row
rank: a pattern's null basis, or a Moebius term B_U N of generic_count (the
matched all-nonzero tuples of full rank, a signed sum of all-nonzero counts
over the subspaces of the parameter space, so no tuple is rank-reduced).  It
enumerates with the match test of iter_matches, or takes the dual route:
Poisson summation over the code C = {t N : t in V^m} in V^k, of size |V|^m,
whose dual C^perp is the annihilator of N (for a null basis, the row space of
A) over V, of size |V|^l, l = k - m:

    sum_{x in C} prod_i f_i(x_i) = |V|^-l sum_{z in C^perp} prod_i F_i(z_i),

F_i the unnormalised DFT of table i, F(z) = sum_x f(x) omega^(x . z).  The
identity holds in Z/q for a prime q = 1 (mod p) and an omega of order p mod
q: the characters z -> omega^(x . z) of C^perp still sum to 0 for x outside C,
and |V| is invertible mod q.  A count lies in [0, |V|^m], so its residues mod
primes q < 2^29 whose product exceeds |V|^m give it exactly by the Chinese
remainder theorem; one prime suffices up to |V|^m < 2^28.  The DFT applies
the p x p matrix omega^(ab) mod q along each of the n axes, the finite-field
FFT of Pollard (1971); with p <= 31 a p-term dot product of residues stays
under p q^2 < 2^63, so int64 never overflows, and the roots are kept as
signed residues, so entries are reduced only when the next step could
overflow (at p = 2, never before the end).  C^perp is listed by the same
kernel, iter_solution_chunks on the RREF basis R = fields.annihilator(N).
Route: the dual when l < m and p <= 31, enumeration otherwise; both are
exact, so the choice never changes a count.  _route picks it from the shape
(m, k) and the space alone and refuses its work past ENUMERATION_CAP, so
generic_count refuses a Moebius sum before its first term, never part-way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import UnsupportedCharacteristicError
from .fields import annihilator, check_prime, is_prime, null_space, rank, rowspace_basis, subspace_bases
from .space import Space, capped_power, check_cap, check_capped_prime, json_int

ENUMERATION_CAP = 10**8
# the dual route's residues are below 2^29, so a p-term int64 dot product of them is below p 2^58 < 2^63
DUAL_MAX_P = 31


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
        return self.null_basis.shape[0]

    @cached_property
    def null_basis(self) -> np.ndarray:
        """The (m, k) N of full row rank with solutions x = t N, t in V^m; read-only."""
        basis = null_space(self.rows, self.p)
        basis.setflags(write=False)
        return basis

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
        what = "pattern field 'rows' entry"
        rows = [[json_int(v, what) for v in row] if isinstance(row, list) else json_int(row, what) for row in d["rows"]]
        try:
            rows = np.asarray(rows, dtype=np.int64)
        except OverflowError:
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


def _check_enumeration(m: int, space: Space) -> None:
    """Refuse listing |V|^m tuples past ENUMERATION_CAP."""
    total = capped_power(space.size, m)
    check_cap(total, ENUMERATION_CAP, f"solution enumeration needs {total} tuples, cap is {ENUMERATION_CAP}")


def iter_solution_chunks(basis: np.ndarray, space: Space) -> Iterator[np.ndarray]:
    """Yield (batch, k) arrays of point indices listing each t N, t in V^m, once.

    basis is an (m, k) matrix N of full row rank, for a pattern its null_basis.
    Order is t-order, little-endian over (t_1, ..., t_m), t_1 least significant;
    on a pattern's null_basis it is what "first instance" means in this package.

    x_i is the image of t in F_p^(mn) under kron(N[:, i], I_n).  A chunk runs over
    the low a digits, p^a <= 2^17 < p^(a+1), for max(1, 2^17 // p^a) settings of the rest.
    """
    m, k = basis.shape
    _check_enumeration(m, space)
    low = next(d for d in range(18) if space.p ** (d + 1) > 1 << 17)
    block = max(1, (1 << 17) // space.p**low)
    # images[i] = kron(N[:, i], I_n): row j*n + c is N[j, i] times unit vector c
    images = (basis.T[:, :, None, None] * np.eye(space.n, dtype=np.int64)).reshape(k, m * space.n, space.n)
    if m * space.n > low:
        reps = [space.image_points(0, mi[low:]) for mi in images]
    else:  # one chunk covers every t, and its only rep is the point 0
        reps = [np.zeros(1, dtype=np.int64)] * k
    inner = space.p ** min(low, m * space.n)
    for start in range(0, reps[0].size, block):
        # filled column by column: one column image is alive next to the chunk, not k
        xs = np.empty((min(block, reps[0].size - start) * inner, k), dtype=np.int64)
        for i, (r, mi) in enumerate(zip(reps, images)):
            xs[:, i] = space.image_points(r[start : start + block], mi[:low]).reshape(-1)
        yield xs


def solutions(rows, space: Space) -> np.ndarray:
    """All solution tuples of A x = 0 as one (count, k) array, in t-order (desk scale only)."""
    return np.concatenate(list(iter_solution_chunks(null_space(rows, space.p), space)), axis=0)


def color_tables(coloring, psi, *, require_nonzero: bool = False) -> list[np.ndarray]:
    """Tables for count_matches and iter_matches: table i marks the points colored psi[i].

    With require_nonzero entry 0 is cleared, so every match has all coordinates nonzero.
    """
    tables = [coloring.values == c for c in psi]
    if require_nonzero:
        for t in tables:
            t[0] = False
    return tables


def _hits(tables: Sequence[np.ndarray], xs: np.ndarray) -> np.ndarray:
    """The rows x of xs with tables[i][x_i] true for all i, as a boolean mask."""
    hit = tables[0][xs[:, 0]]
    for i in range(1, len(tables)):
        hit &= tables[i][xs[:, i]]
    return hit


def iter_matches(basis: np.ndarray, tables: Sequence[np.ndarray], space: Space) -> Iterator[np.ndarray]:
    """Per chunk of iter_solution_chunks(basis, space), the tuples x with tables[i][x_i] true for all i.

    tables are boolean arrays of length |V|, one per variable.
    """
    for xs in iter_solution_chunks(basis, space):
        yield xs[_hits(tables, xs)]


@lru_cache(maxsize=None)
def _modulus(p: int, j: int) -> tuple[int, int]:
    """(q, omega): the j-th largest prime q < 2^29 with q = 1 (mod p), and an omega of order p mod q."""
    q = _modulus(p, j - 1)[0] - p if j else ((1 << 29) - 2) // p * p + 1
    while not is_prime(q):
        q -= p
    # g^((q-1)/p) has order dividing p, so order exactly p unless it is 1
    omega = next(w for w in (pow(g, (q - 1) // p, q) for g in range(2, q)) if w != 1)
    return q, omega


def _dual_residues(
    rowspace: np.ndarray, table_sets: Sequence[Sequence[np.ndarray]], space: Space, q: int, omega: int
) -> list[int]:
    """Per table set, #{x in ker A : tables[i][x_i] for all i} mod q, by Poisson summation over the row space.

    rowspace is the (l, k) RREF basis R of A, so iter_solution_chunks(R) lists C^perp once.
    """
    p, half = space.p, q // 2
    # omega^(ab) as signed residues: at p = 2 they are +-1, so no step of the transform needs a reduction
    w = np.array([[(pow(omega, a * b, q) + half) % q - half for b in range(p)] for a in range(p)], dtype=np.int64)
    grow = p * int(np.abs(w).max())
    dft = np.array(table_sets, dtype=np.int64)
    sets, k = dft.shape[:2]
    dft = dft.reshape(sets * k, -1)
    bound = 1  # |entries of dft| <= bound; one step multiplies it by at most grow
    for _ in range(space.n):
        if bound * grow >= 1 << 63:
            dft %= q
            bound = q
        # contract the leading axis (the most significant coordinate) and move its result last;
        # after n steps every axis is transformed and back in place
        dft = (w @ dft.reshape(sets * k, p, -1)).transpose(0, 2, 1).reshape(sets * k, -1)
        bound *= grow
    dft = dft.reshape(sets, k, -1) % q
    acc = np.zeros(sets, dtype=np.int64)
    for zs in iter_solution_chunks(rowspace, space):
        prod = dft[:, 0, zs[:, 0]]
        for i in range(1, k):
            prod = prod * dft[:, i, zs[:, i]] % q
        acc = (acc + prod.sum(axis=1)) % q  # a chunk sums at most 2^17 residues < 2^29
    scale = pow(space.size ** rowspace.shape[0], -1, q)
    return [int(a) * scale % q for a in acc]


def count_matches(basis: np.ndarray, table_sets: Sequence[Sequence[np.ndarray]], space: Space) -> list[int]:
    """Per table set, #{t in V^m : tables[i][(t N)_i] for all i}, exactly, in one pass.

    basis is an (m, k) N of full row rank, as iter_solution_chunks takes it.
    Each set holds k boolean tables of length |V|, one per variable.  _route
    picks the dual route (see the module docstring) or enumeration, and
    refuses either past ENUMERATION_CAP before it starts.
    """
    if _route(*basis.shape, space):
        return _dual_count(basis, table_sets, space)
    counts = [0] * len(table_sets)
    for xs in iter_solution_chunks(basis, space):
        for j, tables in enumerate(table_sets):
            counts[j] += int(np.count_nonzero(_hits(tables, xs)))
    return counts


def _route(m: int, k: int, space: Space) -> bool:
    """Whether an (m, k) parametrization is counted on the dual route (l = k - m < m, p <= DUAL_MAX_P,
    |V|^m short enough to print) rather than enumerated; either route's work is refused here past the cap."""
    if k - m < m and space.p <= DUAL_MAX_P and not isinstance(capped_power(space.size, m), str):
        _dual_moduli(m, k, space)
        return True
    _check_enumeration(m, space)
    return False


def _dual_moduli(m: int, k: int, space: Space) -> list[tuple[int, int]]:
    """The (q, omega) of the primes whose product first exceeds |V|^m; their work, (primes used) x |V|^l
    products, l = k - m, is refused past ENUMERATION_CAP."""
    moduli, product = [], 1
    while product <= space.size**m:
        moduli.append(_modulus(space.p, len(moduli)))
        product *= moduli[-1][0]
    work = len(moduli) * space.size ** (k - m)
    check_cap(work, ENUMERATION_CAP, f"dual count needs {work} products, cap is {ENUMERATION_CAP}")
    return moduli


def _dual_count(basis: np.ndarray, table_sets: Sequence[Sequence[np.ndarray]], space: Space) -> list[int]:
    """count_matches by Poisson summation, from residues mod primes whose product exceeds |V|^m."""
    moduli = _dual_moduli(*basis.shape, space)
    rowspace = annihilator(basis, space.p)
    counts, modulus = [0] * len(table_sets), 1
    for q, omega in moduli:
        for j, residue in enumerate(_dual_residues(rowspace, table_sets, space, q, omega)):
            # Chinese remainder step: the count mod modulus * q from the count mod modulus and mod q
            counts[j] += modulus * ((residue - counts[j]) * pow(modulus, -1, q) % q)
        modulus *= q
    return counts


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
    basis = null_space(rows, space.p)
    m, k = basis.shape
    if len(fs) != k:
        raise ValueError(f"need {k} functions, got {len(fs)}")
    fs = [np.asarray(f, dtype=np.float64) for f in fs]
    if any(f.shape != (space.size,) for f in fs):
        raise ValueError("function table has wrong length")
    total = space.size**m
    acc = 0.0
    for xs in iter_solution_chunks(basis, space):
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
    """Exact instance statistics for one pattern against one coloring, by count_matches.

    instance_count uses the stored color at 0, so zero-touching solutions
    count toward the density (the density normalization is |V|^(k - rank A)).
    Freeness looks only at tuples with every coordinate nonzero.
    """
    _check_pair(pattern, coloring)
    space = coloring.space
    table_sets = [color_tables(coloring, pattern.psi), color_tables(coloring, pattern.psi, require_nonzero=True)]
    count, nonzero = count_matches(pattern.null_basis, table_sets, space)
    total = space.size**pattern.num_free
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
    every other term is count_matches on the parametrization B_U N, of full row
    rank since B_U and N are, so it takes the dual route when k - dim U < dim U.
    For m > n no m points of V are independent, so the count is 0 at once.

    A term's route and refusal depend on its shape (dim U, k) alone, so the sum
    is refused before its first term, with the report of the first refused term
    in summation order.  A term may be refused where the main count was not:
    x1+...+x4 = 0 on F_2^14 has its 2^42 solutions counted on the dual code,
    but each dim-2 term needs 2^28 products by either route.
    """
    _check_pair(pattern, coloring)
    space, p = coloring.space, coloring.space.p
    m = pattern.num_free
    if nonzero == 0 or m > space.n:
        return 0
    for d in range(1, m):
        _route(m - d, pattern.k, space)
    tables = color_tables(coloring, pattern.psi, require_nonzero=True)
    total = nonzero
    for d in range(1, m):
        mu = (-1) ** d * p ** (d * (d - 1) // 2)
        for b in subspace_bases(m, m - d, p):
            total += mu * count_matches(b @ pattern.null_basis % p, [tables], space)[0]
    return total


def first_instance(pattern: Pattern, coloring, *, require_nonzero: bool = True) -> np.ndarray | None:
    """First instance in enumeration order, or None; used for certificates."""
    tables = color_tables(coloring, pattern.psi, require_nonzero=require_nonzero)
    for xs in iter_matches(pattern.null_basis, tables, coloring.space):
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
    proj = pattern.null_basis[:, cols]
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
    basis = null_space(rows, p)
    m, k = basis.shape
    flat = np.empty((k, m * m), dtype=np.int64)
    for i in range(k):
        col = basis[:, i]
        flat[i] = np.outer(col, col).reshape(-1) % p
    return rank(flat, p) == k
