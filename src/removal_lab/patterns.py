"""Colored linear patterns and exact instance counting.

A pattern is a pair (A, psi): an l x k coefficient matrix over F_p and a color
psi(i) for each of the k variables.  The solutions x in V^k of A x = 0 are
x = t N, t in V^m, for the (m, k) null basis N = Pattern.null_basis of full
row rank, m = k - rank A.  The enumeration kernel takes such a parametrization,
not A, and lists each t N once, in t-order, by the coset-points kernel
Space.image_points, in chunks of at most 2^17 tuples.

first_instance and lam run over the same chunks: the first stops at the first
tuple its boolean tables match, one table per variable; lam sums table products.

count_matches is the one exact count of matched solutions, for one or more
table sets in one pass.  It takes an (m, k) parametrization N of full row
rank: a pattern's null basis, or a Moebius term B_U N of generic_count (the
matched all-nonzero tuples of full rank, a signed sum of all-nonzero counts
over the subspaces of the parameter space, so no tuple is rank-reduced).  It
enumerates with the same match test, or takes the dual route: Poisson
summation over the code C = {t N : t in V^m} in V^k, of size |V|^m, whose
dual C^perp is the annihilator of N (for a null basis, the row space of A)
over V, of size |V|^l, l = k - m:

    sum_{x in C} prod_i f_i(x_i) = |V|^-l sum_{z in C^perp} prod_i F_i(z_i),

F_i the unnormalised DFT of table i, F(z) = sum_x f(x) omega^(x . z).  The
identity holds in Z/q for a prime q = 1 (mod p) and an omega of order p mod
q: the characters z -> omega^(x . z) of C^perp still sum to 0 for x outside C,
and |V| is invertible mod q.  A count lies in [0, |V|^m], so its residues mod
primes q < 2^29 whose product exceeds |V|^m give it exactly by the Chinese
remainder theorem; one prime suffices up to |V|^m < 2^28.  The DFT is the
finite-field FFT of Pollard (1971), run in stages as fourier._walsh runs its
butterfly: at odd p stage c applies the p x p matrix omega^(ab) along
coordinate c and reduces mod q.  At p = 2, omega = -1 for every q, so F_i is
the integer Walsh-Hadamard transform: _walsh computes it once, exactly in
int64, and every prime reads its residues from it.

A count costs about what its distinct tables cost.  Tables with the same key,
their entries 1 and up, share one transform: the point mass at 0 transforms
to all ones at every p, so F_t = F_key + t(0), F_key the spectrum of the key's
table with entry 0 cleared.  generic_count keeps the spectra of its own tables
for its whole sum; a merged table is transformed per call.  C^perp is never
listed for a point or a line: with R = fields.null_space(N) of l rows, l = 0
leaves the tuple 0, and a set counts the product of its table sizes; l = 1
gives C^perp = {y r : y in V}, whose column i is F_i itself at r_i = 1, the
constant F_i(0) at r_i = 0, and F_i at the points r_i y otherwise.  Only at
l >= 2 is C^perp listed, by iter_solution_chunks on R: a sum of residues
depends neither on the basis of C^perp nor on its order.

Before routing, count_matches merges columns: a zero column of N fixes x_i = 0
and a column c times an earlier one fixes x_j = c x_i, so each folds into the
tables (a set with x_i = 0 unmatched counts 0) and leaves N with k' <= k
pairwise independent columns.  A forced equality (x1 = x4 in x1+x2+x3 = 0,
x2+x3+x4 = 0) or a Moebius term with fewer directions than columns is thus
counted on k' forms.  Route: the dual when l' = k' - m < m and p <= 31,
enumeration otherwise; both are exact, so the choice never changes a count.
_route picks it from the merged shape (m, k') and the space alone and refuses
its work past ENUMERATION_CAP.  generic_count's tables all clear entry 0, so
a term with a zero column counts 0 and is dropped; each live term's merged
shape is routed before the first count, so a Moebius sum is refused whole,
never part-way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import UnsupportedCharacteristicError
from .fields import annihilator, check_prime, is_prime, null_space, rank, rowspace_basis, subspace_bases
from .fourier import _walsh
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
    """Tables for count_matches and first_instance: table i marks the points colored psi[i].

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


@lru_cache(maxsize=None)
def _modulus(p: int, j: int) -> tuple[int, int]:
    """(q, omega): the j-th largest prime q < 2^29 with q = 1 (mod p), and an omega of order p mod q."""
    q = _modulus(p, j - 1)[0] - p if j else ((1 << 29) - 2) // p * p + 1
    while not is_prime(q):
        q -= p
    # g^((q-1)/p) has order dividing p, so order exactly p unless it is 1
    omega = next(w for w in (pow(g, (q - 1) // p, q) for g in range(2, q)) if w != 1)
    return q, omega


def count_matches(
    basis: np.ndarray, table_sets: Sequence[Sequence[np.ndarray]], space: Space, *, spectra: dict | None = None
) -> list[int]:
    """Per table set, #{t in V^m : tables[i][(t N)_i] for all i}, exactly, in one pass.

    basis is an (m, k) N of full row rank, as iter_solution_chunks takes it.
    Each set holds k boolean tables of length |V|, one per variable.  First
    _merge_columns folds the zero and parallel columns of N into the tables;
    then _route reads the merged shape (m, k'), picks the dual route (see the
    module docstring) or enumeration, and refuses either past ENUMERATION_CAP
    before it starts.  A set that the merge finds dead counts 0 unrouted.
    The dual route lists no point or line C^perp and transforms each distinct
    table once (see _dual_count).  spectra, if given, maps table keys to their
    spectra by prime; the dual route reads and fills the keys it holds, so a
    caller keeps them across calls, as generic_count does for a sum.
    """
    basis, merged = _merge_columns(basis, table_sets, space)
    live = [tables for tables in merged if tables is not None]
    if not live:
        return [0] * len(merged)
    if _route(*basis.shape, space):
        counts = _dual_count(basis, live, space, spectra)
    else:
        counts = [0] * len(live)
        for xs in iter_solution_chunks(basis, space):
            for j, tables in enumerate(live):
                counts[j] += int(np.count_nonzero(_hits(tables, xs)))
    live_counts = iter(counts)
    return [0 if tables is None else next(live_counts) for tables in merged]


def _merge_columns(
    basis: np.ndarray, table_sets: Sequence[Sequence[np.ndarray]], space: Space
) -> tuple[np.ndarray, list]:
    """basis without its zero and parallel columns, and each table set folded to match, None if it counts 0.

    A zero column j fixes x_j = 0: a set whose tables[j][0] is false counts 0, any other drops
    table j.  A column j = c column i, i the first column of its direction, fixes x_j = c x_i:
    table i becomes table_i & table_j[c y].  The column span, so full row rank, and the product
    of the 0/1 tables are unchanged, so every count is too.  With nothing to fold, or m = 0,
    the inputs come back as they are.
    """
    if not basis.shape[0]:
        return basis, table_sets
    p = space.p
    first: dict[tuple, tuple[int, int]] = {}  # a column scaled to lead entry 1 -> (its first column, lead)
    folds = []  # (j, i, c): column j is c times column i; i is None for a zero column
    for j, column in enumerate(basis.T.tolist()):
        lead = next((v for v in column if v), 0)
        if not lead:
            folds.append((j, None, 0))
            continue
        inverse = pow(lead, -1, p)
        i, lead_i = first.setdefault(tuple(v * inverse % p for v in column), (j, lead))
        if i != j:
            folds.append((j, i, lead * pow(lead_i, -1, p) % p))
    if not folds:
        return basis, table_sets
    dropped = {j for j, _, _ in folds}
    keep = [j for j in range(basis.shape[1]) if j not in dropped]
    scaled: dict[int, np.ndarray] = {}  # c -> the points c y, y in index order
    merged = []
    for tables in table_sets:
        if any(i is None and not tables[j][0] for j, i, _ in folds):
            merged.append(None)
            continue
        tables = list(tables)
        for j, i, c in folds:
            if i is not None:
                if c != 1 and c not in scaled:
                    scaled[c] = space.scale_points(c, np.arange(space.size))
                tables[i] = tables[i] & (tables[j] if c == 1 else tables[j][scaled[c]])
        merged.append([tables[i] for i in keep])
    return basis[:, keep], merged


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


def _dual_count(
    basis: np.ndarray, table_sets: Sequence[Sequence[np.ndarray]], space: Space, spectra: dict | None = None
) -> list[int]:
    """count_matches by Poisson summation, from residues mod primes whose product exceeds |V|^m.

    C^perp has l = k - m dimensions.  At l = 0 it is the tuple 0, and x = t N is a bijection
    of V^m, so a set counts prod_i F_i(0), the product of its table sizes, exactly.  Else
    R = null_space(N) has l rows, and a column that is 0 on all of C^perp is the constant
    factor F_i(0), exactly.  At l = 1, C^perp = {y r : y in V}, so a column reads F_i itself
    at r_i = 1 and F_i at the points r_i y otherwise, in blocks of at most 2^17 points y, as
    the kernel chunks.  At l >= 2 iter_solution_chunks lists C^perp.  Each block serves every
    prime, and each factor is one 1-D gather from a spectrum reduced mod q, done once per
    distinct table and column.  The spectra come from _key_spectra, one transform per key;
    spectra is its per-sum store, kept by generic_count.

    int64 never overflows: at odd p a stage sums p products of residues, under p q^2 < 2^63
    for p <= DUAL_MAX_P; a factor is a residue, or a residue plus 1, so a product of two is
    under 2^58, and a block sums at most 2^17 residues below 2^29.
    """
    if basis.shape[0] == basis.shape[1]:  # l = 0: x = t N is a bijection of V^m
        return [math.prod(int(np.count_nonzero(t)) for t in tables) for tables in table_sets]
    rowspace = null_space(basis, space.p)
    moduli = _dual_moduli(*basis.shape, space)
    keys: dict[bytes, int] = {}  # a table's key -> its index in bases
    bases, refs = [], []  # one table per key; per set, (key index, t(0)) per column
    for tables in table_sets:
        row = []
        for t in tables:
            j = keys.setdefault(_spectrum_key(t), len(keys))
            if j == len(bases):
                bases.append(t)
            row.append((j, int(t[0])))
        refs.append(row)
    key_spectra = _key_spectra(list(keys), bases, moduli, space, spectra)
    live = rowspace.any(axis=0)  # the columns not constantly 0 on C^perp
    consts = [math.prod(int(np.count_nonzero(t)) for t, on in zip(tables, live) if not on) for tables in table_sets]
    rows = rowspace[:, live]
    if rows.shape[0] == 1:
        blocks = _line_columns(rows[0], space)
    else:  # each form's index column, read in place: a transposed copy of a 2^17-row chunk cost more than it saved
        blocks = (zs.T for zs in iter_solution_chunks(rows, space))
    cols = np.flatnonzero(live).tolist()
    acc = [[0] * len(table_sets) for _ in moduli]
    for zs in blocks:
        for (q, _), spectrum, sums in zip(moduli, key_spectra, acc):
            prods = [None] * len(refs)
            for i, z in zip(cols, zs):
                gathered: dict[int, np.ndarray] = {}  # key -> its factor in column i, shared by the sets
                for j, row in enumerate(refs):
                    key, t0 = row[i]
                    f = gathered.get(key)
                    if f is None:
                        f = gathered[key] = spectrum[key][z]
                    if t0:  # F = F_key + t(0)
                        f = f + 1
                    prods[j] = f if prods[j] is None else prods[j] * f % q
            for j, prod in enumerate(prods):
                sums[j] = (sums[j] + int(prod.sum())) % q
    counts, modulus = [0] * len(table_sets), 1
    for (q, _), sums in zip(moduli, acc):
        scale = pow(space.size ** rowspace.shape[0], -1, q)
        for j, (a, c) in enumerate(zip(sums, consts)):
            # Chinese remainder step: the count mod modulus * q from the count mod modulus and mod q
            counts[j] += modulus * ((a * c * scale - counts[j]) * pow(modulus, -1, q) % q)
        modulus *= q
    return counts


def _line_columns(r: np.ndarray, space: Space) -> Iterator[list]:
    """Per block of at most 2^17 points y, in index order, the indices of the points r_i y, one per entry of r != 0.

    An entry 1 gives the block itself as a slice, so its factor is a view; each other
    value is one scale_points map per block.
    """
    for start in range(0, space.size, 1 << 17):
        ys = slice(start, min(start + (1 << 17), space.size))
        maps = {c: space.scale_points(c, np.arange(ys.start, ys.stop)) for c in set(r.tolist()) - {1}}
        yield [ys if c == 1 else maps[c] for c in r.tolist()]


def _spectrum_key(table: np.ndarray) -> bytes:
    """The bytes of a table's entries 1 and up; tables with one key share a transform."""
    return table[1:].tobytes()


def _key_spectra(
    keys: list[bytes], tables: list[np.ndarray], moduli: list[tuple[int, int]], space: Space, spectra: dict | None
) -> list[list[np.ndarray]]:
    """Per prime q, the spectrum mod q of each key's table with entry 0 cleared, F_key.

    The point mass at 0 transforms to all ones at every p, so a table t of that key has
    the spectrum F_key + t(0).  Each key is transformed once.  spectra maps a key to its
    spectra by prime: a key it holds is read from there, or transformed once and stored
    there, for the rest of a sum; any other key is transformed for this call only.
    """
    p = space.p
    store = {} if spectra is None else spectra
    todo = [i for i, key in enumerate(keys) if any(q not in store.get(key, {}) for q, _ in moduli)]
    by_key: list[dict[int, np.ndarray]] = [store.get(key, {}) for key in keys]
    if todo:
        a = np.array([tables[i] for i in todo], dtype=np.int64)
        a[:, 0] = 0
        if p == 2:  # the exact spectra, read by every prime; _walsh overwrote a
            a = _walsh(a)
        for q, omega in moduli:
            spectrum = a
            if p == 2:
                spectrum = a % q
            else:
                w = np.array([[pow(omega, x * y, q) for y in range(p)] for x in range(p)], dtype=np.int64)
                for c in range(space.n):  # the length-p DFT along coordinate c, the digit of stride p^c
                    spectrum = (w @ spectrum.reshape(len(todo), -1, p, p**c)).reshape(len(todo), -1)
                    spectrum %= q
            for i, row in zip(todo, spectrum):
                # a stored row is a copy, so that the call's other spectra are freed with the call
                by_key[i][q] = row.copy() if keys[i] in store else row
    return [[spectra_q[q] for spectra_q in by_key] for q, _ in moduli]


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
    rank since B_U and N are, so it takes the dual route when k' - dim U < dim U,
    k' its merged column count.
    For m > n no m points of V are independent, so the count is 0 at once.

    Since the tables clear entry 0, a term with a zero column counts 0, so only
    terms without one are kept and reach count_matches.  All terms share one
    spectra store holding the k tables' keys: each is transformed once per prime
    for the whole sum, while a table that a term merges is transformed per call,
    so the store holds at most k spectra per prime.

    Each live term's merged shape is routed as the term is built, before the
    first count, so a sum is refused whole, with the report of its first refused
    term in summation order, and no term past that one is built.
    """
    _check_pair(pattern, coloring)
    space, p = coloring.space, coloring.space.p
    m = pattern.num_free
    if nonzero == 0 or m > space.n:
        return 0
    live = []  # (mu_U, B_U N) of each term without a zero column, in summation order
    for d in range(1, m):
        mu = (-1) ** d * p ** (d * (d - 1) // 2)
        for basis in subspace_bases(m, m - d, p):
            term = basis @ pattern.null_basis % p
            if term.any(axis=0).all():  # a term with a zero column counts 0
                _route(*_merge_columns(term, [], space)[0].shape, space)
                live.append((mu, term))
    tables = color_tables(coloring, pattern.psi, require_nonzero=True)
    spectra = {_spectrum_key(t): {} for t in tables}  # the own tables' spectra, kept for the whole sum
    total = nonzero
    for mu, term in live:
        total += mu * count_matches(term, [tables], space, spectra=spectra)[0]
    return total


def first_instance(pattern: Pattern, coloring, *, require_nonzero: bool = True) -> np.ndarray | None:
    """First instance in enumeration order, or None; used for certificates."""
    tables = color_tables(coloring, pattern.psi, require_nonzero=require_nonzero)
    for xs in iter_solution_chunks(pattern.null_basis, coloring.space):
        hit = np.flatnonzero(_hits(tables, xs))
        if hit.size:
            return xs[hit[0]].copy()
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
        flat[i] = np.outer(col, col).reshape(-1)
    return rank(flat, p) == k
