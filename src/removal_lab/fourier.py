"""Discrete Fourier analysis on F_p^n.

Characters are e_p(x . z) = exp(2*pi*i * (x . z) / p).  The forward transform
is an expectation, fhat(z) = E_x f(x) e_p(-x . z), and the inverse is the
plain sum f(x) = sum_z g(z) e_p(x . z), so transform(transform(f)) round-trips.

One branch, _spectra, gives every forward spectrum; one kernel,
batch_coset_norms, every regularity norm (regularity_norm's on the coset 0 + V).
At odd p _spectra runs numpy's fftn over each table reshaped to a (p, ..., p)
tensor; coordinate i of a point lives on tensor axis n-1-i because point indices
are little-endian, and since every coordinate transforms along its own axis the
flat little-endian indexing of the spectrum comes out right (ifftn likewise).

At p = 2 every character is +-1, so each axis is the sign-only butterfly
(x + y, x - y) and no complex arithmetic is needed: _walsh runs it, the fast
Walsh-Hadamard transform, in constant geometry, so every stage is the same
pass over adjacent pairs whatever the table.  Its stages take the coordinates
in fftn's order (coordinate 0, the last tensor axis, first) with the same
sums, so its results are bit-equal to fftn's on any real or complex table.
On int64 tables it is exact, so patterns' dual count takes its p = 2 spectra
from it.
"""

from __future__ import annotations

import numpy as np

from .fields import Subspace
from .space import Space

FLOAT_TOL = 1e-9


def _walsh(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row of a (batch, 2^d) array.

    Constant geometry (Pease, J. ACM 15, 1968): every stage reads the pairs
    (x, y) at entries (2i, 2i + 1) and writes x + y to entry i and x - y to
    entry i + 2^(d-1), the length-2 DFT along the coordinate in the lowest
    digit, which moves to the top.  After d stages every coordinate has been
    transformed, coordinate 0 first, and is back in place.  a is overwritten;
    the result is a or a buffer of its shape.
    """
    batch, size = a.shape
    half = size // 2
    b = np.empty_like(a)
    for _ in range(size.bit_length() - 1):
        x = a.reshape(batch, half, 2)
        np.add(x[:, :, 0], x[:, :, 1], out=b[:, :half])
        np.subtract(x[:, :, 0], x[:, :, 1], out=b[:, half:])
        a, b = b, a
    return a


def _spectra(tables: np.ndarray, p: int, d: int) -> np.ndarray:
    """Unnormalized forward spectra of the rows of a (batch, p^d) array; at p = 2 _walsh overwrites them."""
    if p == 2:
        return _walsh(tables)
    return np.fft.fftn(tables.reshape(len(tables), *(p,) * d), axes=range(1, d + 1)).reshape(tables.shape)


def transform(values: np.ndarray, space: Space, direction: str = "forward") -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (space.size,):
        raise ValueError("table has wrong length")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if direction == "inverse" and space.p != 2:
        return np.fft.ifftn(v.reshape((space.p,) * space.n)).reshape(space.size) * space.size
    # at p = 2 the inverse is the unnormalized forward sum; the copy guards values, which _walsh would overwrite
    out = _spectra(v.reshape(1, -1).copy(), space.p, space.n)[0]
    if direction == "forward":
        out /= space.size
    return out


def regularity_norm(values: np.ndarray, space: Space) -> tuple[float, int | None]:
    """(max_{z != 0} |fhat(z)|, smallest maximizing z), z None when n = 0: batch_coset_norms of the coset 0 + V."""
    values = np.asarray(values, dtype=np.float64).reshape(space.size)  # ValueError unless one value per point
    if space.n == 0:
        return 0.0, None
    norms, wits = batch_coset_norms(values, space, Subspace.full(space.p, space.n), [0])
    return float(norms[0]), int(wits[0])


def batch_coset_norms(values, space: Space, sub, reps) -> tuple[np.ndarray, np.ndarray]:
    """Regularity norms of f restricted to the cosets rep + sub, all reps at once.

    Returns (norms, witnesses) with witnesses as little-endian frequency
    indices in the restriction coordinates (the same t-indexing that
    coset_restrict uses); witness -1 when dim sub = 0.
    """
    v = np.asarray(values, dtype=np.float64).reshape(space.size)  # ValueError unless one value per point
    reps = np.asarray(reps, dtype=np.int64)
    d = sub.dim
    if d == 0:
        return np.zeros(reps.size), np.full(reps.size, -1, dtype=np.int64)
    size = space.p**d
    norms = np.empty(reps.size)
    wits = np.empty(reps.size, dtype=np.int64)
    block = max(1, (1 << 22) // size)
    for start in range(0, reps.size, block):
        sel = reps[start : start + block]
        tables = v[space.coset_points(sel, sub)].reshape(sel.size, size)
        hats = _spectra(tables, space.p, d)
        hats /= size
        mags = np.abs(hats)
        mags[:, 0] = -1.0
        w = np.argmax(mags, axis=1)
        norms[start : start + block] = mags[np.arange(sel.size), w]
        wits[start : start + block] = w
    return norms, wits


def lambda_fourier(coeffs, fs, space: Space) -> float:
    """Lambda for a single equation sum_i a_i x_i = 0 via the spectrum.

    Lambda_A(f_1, ..., f_k) = sum_z prod_i fhat_i(a_i z); an independent route
    to the same number as the direct solution-enumeration count.
    """
    a = [int(c) % space.p for c in np.asarray(coeffs, dtype=np.int64).reshape(-1)]
    if len(fs) != len(a):
        raise ValueError("coefficient/function count mismatch")
    hats = [transform(f, space) for f in fs]
    if not any(a):
        # degenerate row constrains nothing: Lambda is the product of means
        val = complex(np.prod([hat[0] for hat in hats]))
        assert abs(val.imag) < 1e-7
        return float(val.real)
    idx = np.arange(space.size, dtype=np.int64)
    acc = np.ones(space.size, dtype=np.complex128)
    for ai, hat in zip(a, hats):
        acc *= hat[space.scale_points(ai, idx)]
    val = complex(acc.sum())
    assert abs(val.imag) < 1e-7, f"lambda_fourier picked up imaginary mass {val.imag}"
    return float(val.real)
