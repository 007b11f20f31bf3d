"""Discrete Fourier analysis on F_p^n.

Characters are e_p(x . z) = exp(2*pi*i * (x . z) / p).  The forward transform
is an expectation, fhat(z) = E_x f(x) e_p(-x . z), and the inverse is the
plain sum f(x) = sum_z g(z) e_p(x . z), so transform(transform(f)) round-trips.

At odd p the table is reshaped to a (p, ..., p) tensor and run through
numpy's fftn; coordinate i of a point lives on tensor axis n-1-i because point
indices are little-endian, and since every coordinate transforms along its own
axis the flat little-endian indexing of the spectrum comes out right.

At p = 2 every character is +-1, so each axis is the sign-only butterfly
(x + y, x - y) and no complex arithmetic is needed: _walsh runs it, the fast
Walsh-Hadamard transform.  Its stages take the coordinates in fftn's order
(coordinate 0, the last tensor axis, first) with the same sums, so its
results are bit-equal to fftn's on any real or complex table.
"""

from __future__ import annotations

import numpy as np

from .space import Space

FLOAT_TOL = 1e-9


def _walsh(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row of a (batch, 2^d) array.

    Stage h (h = 1, 2, 4, ...) maps each pair (x, y) of entries h apart to
    (x + y, x - y): the length-2 DFT along coordinate log2(h).  a is
    overwritten; the result is a or a buffer of its shape.
    """
    batch = a.shape[0]
    b = np.empty_like(a)
    h = 1
    while h < a.shape[1]:
        x, out = a.reshape(batch, -1, 2, h), b.reshape(batch, -1, 2, h)
        np.add(x[:, :, 0], x[:, :, 1], out=out[:, :, 0])
        np.subtract(x[:, :, 0], x[:, :, 1], out=out[:, :, 1])
        a, b = b, a
        h *= 2
    return a


def transform(values: np.ndarray, space: Space, direction: str = "forward") -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (space.size,):
        raise ValueError("table has wrong length")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if space.n == 0:
        return v.copy()
    if space.p == 2:
        out = _walsh(v.reshape(1, -1).copy())[0]  # _walsh overwrites its input, which may be values
        if direction == "forward":
            out /= space.size
        return out
    tensor = v.reshape((space.p,) * space.n)
    if direction == "forward":
        out = np.fft.fftn(tensor) / space.size
    else:
        out = np.fft.ifftn(tensor) * space.size
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
        tables = v[space.coset_points(sel, sub)].reshape(sel.size, size)
        if space.p == 2:
            mags = np.abs(_walsh(tables))
            mags /= size
        else:
            hats = np.fft.fftn(tables.reshape(sel.size, *(space.p,) * d), axes=range(1, d + 1))
            mags = np.abs(hats.reshape(sel.size, -1) / size)
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
