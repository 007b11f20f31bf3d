"""Discrete Fourier analysis on F_p^n.

Characters are e_p(x . z) = exp(2*pi*i * (x . z) / p).  The forward transform
is an expectation, fhat(z) = E_x f(x) e_p(-x . z), and the inverse is the
plain sum f(x) = sum_z g(z) e_p(x . z), so transform(transform(f)) round-trips.

The fast path reshapes the table to a (p, ..., p) tensor and runs numpy's
fftn; coordinate i of a point lives on tensor axis n-1-i because point indices
are little-endian, and since every coordinate transforms along its own axis
the flat little-endian indexing of the spectrum comes out right.
"""

from __future__ import annotations

import numpy as np

from .space import Space

FLOAT_TOL = 1e-9


def transform(values: np.ndarray, space: Space, direction: str = "forward") -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (space.size,):
        raise ValueError("table has wrong length")
    if space.n == 0:
        return v.copy()
    tensor = v.reshape((space.p,) * space.n)
    if direction == "forward":
        out = np.fft.fftn(tensor) / space.size
    elif direction == "inverse":
        out = np.fft.ifftn(tensor) * space.size
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return out.reshape(space.size)


def regularity_norm(values: np.ndarray, space: Space) -> tuple[float, int | None]:
    """(max_{z != 0} |fhat(z)|, witness index), witness None when n = 0.

    Among maximizing frequencies the one with the smallest index is returned.
    """
    if space.n == 0:
        return 0.0, None
    mags = np.abs(transform(values, space))
    mags[0] = -1.0
    z = int(np.argmax(mags))
    return float(mags[z]), z


def batch_coset_norms(values, space: Space, sub, reps) -> tuple[np.ndarray, np.ndarray]:
    """Regularity norms of f restricted to the cosets rep + sub, all reps at once.

    Returns (norms, witnesses) with witnesses as little-endian frequency
    indices in the restriction coordinates (the same t-indexing that
    coset_restrict uses); witness -1 when dim sub = 0.
    """
    v = np.asarray(values, dtype=np.float64)
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
        tables = v[space.coset_points(sel, sub)].reshape(sel.size, *(space.p,) * d)
        hats = np.fft.fftn(tables, axes=range(1, d + 1)).reshape(sel.size, -1) / size
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
