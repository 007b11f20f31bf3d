import numpy as np
import pytest

from removal_lab.fourier import (
    _walsh,
    batch_coset_norms,
    lambda_fourier,
    regularity_norm,
    transform,
)
from removal_lab.patterns import lam
from removal_lab.fields import Subspace
from removal_lab.space import Space, coset_restrict

TOL = 1e-9


def naive_dft(f, space):
    """Character-matrix transform, the oracle the fast path is held to."""
    w = np.exp(-2j * np.pi / space.p)
    table = w ** ((space.digits @ space.digits.T) % space.p)
    return table @ np.asarray(f, dtype=np.complex128) / space.size


def fftn_coset_norms(values, space, sub, reps):
    """batch_coset_norms by numpy's complex fftn over the coset axes, 64 cosets at a time."""
    shape, size = (space.p,) * sub.dim, space.p**sub.dim
    norms, wits = [], []
    for start in range(0, len(reps), 64):
        sel = np.asarray(reps[start : start + 64])
        tables = np.asarray(values, dtype=np.float64)[space.coset_points(sel, sub)].reshape(sel.size, *shape)
        mags = np.abs(np.fft.fftn(tables, axes=range(1, sub.dim + 1)).reshape(sel.size, -1) / size)
        mags[:, 0] = -1.0
        wits.append(np.argmax(mags, axis=1))
        norms.append(mags[np.arange(sel.size), wits[-1]])
    return np.concatenate(norms), np.concatenate(wits)


def random_tables(rng, kind, shape):
    if kind == "01":
        return rng.integers(0, 2, shape).astype(np.float64)
    if kind == "float":
        return rng.uniform(-1e3, 1e3, shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", range(1, 15))
def test_walsh_is_bit_equal_to_fftn(n):
    rng = np.random.default_rng(n)
    axes = range(1, n + 1)
    for batch in (1, 3, 64):
        for kind in ("01", "float", "complex"):
            tables = random_tables(rng, kind, (batch, 2**n))
            tensor = tables.reshape(batch, *(2,) * n)
            got = _walsh(tables.copy())
            forward = np.fft.fftn(tensor, axes=axes).reshape(batch, -1)
            inverse = np.fft.ifftn(tensor, axes=axes).reshape(batch, -1) * 2**n
            for ref in (forward, inverse):
                if kind != "complex":
                    assert not ref.imag.any()
                    ref = ref.real
                assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (2, 11), (2, 14), (3, 1), (3, 6)])
def test_transform_is_bit_equal_to_fftn(p, n):
    sp = Space(p, n)
    rng = np.random.default_rng(7 * p + n)
    for kind in ("01", "float", "complex"):
        f = random_tables(rng, kind, sp.size)
        tensor = f.astype(np.complex128).reshape((p,) * n)
        assert np.array_equal(transform(f, sp), (np.fft.fftn(tensor) / sp.size).reshape(-1))
        assert np.array_equal(transform(f, sp, "inverse"), (np.fft.ifftn(tensor) * sp.size).reshape(-1))
        # a complex128 table is transformed without a conversion copy, and must be left as it was
        assert np.array_equal(f, tensor.reshape(-1))


@pytest.mark.parametrize(
    "p,n,d,num_reps",
    [(2, 8, 1, None), (2, 8, 4, None), (2, 8, 8, None), (2, 12, 6, None), (3, 5, 2, None), (3, 6, 4, None),
     # 2^22 // 2^12 = 1024 reps per block, so 1027 reps drawn from 50 points take two blocks
     (2, 14, 12, 1027)],
)
def test_batch_coset_norms_is_bit_equal_to_fftn(p, n, d, num_reps):
    rng = np.random.default_rng(100 * p + 10 * n + d)
    sp = Space(p, n)
    for _ in range(10):
        sub = Subspace.from_rows(p, n, rng.integers(0, p, (d, n)))
        if sub.dim == d:
            break
    assert sub.dim == d
    if num_reps is None:
        pool = sp.transversal(sub)
        picks = np.arange(pool.size)
    else:
        pool = rng.integers(0, sp.size, 50)
        picks = rng.integers(0, pool.size, num_reps)
    for kind in ("01", "float"):
        f = random_tables(rng, kind, sp.size)
        norms, wits = batch_coset_norms(f, sp, sub, pool[picks])
        ref_norms, ref_wits = fftn_coset_norms(f, sp, sub, pool)
        assert np.array_equal(norms, ref_norms[picks])
        assert np.array_equal(wits, ref_wits[picks])


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (5, 2), (5, 3)])
def test_fast_transform_matches_character_matrix(p, n):
    rng = np.random.default_rng(41 * p + n)
    sp = Space(p, n)
    for _ in range(8):
        f = rng.uniform(-1, 1, sp.size)
        fast = transform(f, sp)
        assert np.abs(fast - naive_dft(f, sp)).max() <= TOL


def test_transform_roundtrip_and_parseval():
    rng = np.random.default_rng(9)
    for p, n in [(2, 5), (3, 3), (5, 2)]:
        sp = Space(p, n)
        f = rng.uniform(-1, 1, sp.size) + 1j * rng.uniform(-1, 1, sp.size)
        hat = transform(f, sp)
        back = transform(hat, sp, "inverse")
        assert np.abs(back - f).max() <= TOL
        # sum over frequencies vs expectation over points
        assert abs((np.abs(hat) ** 2).sum() - (np.abs(f) ** 2).mean()) <= TOL


@pytest.mark.parametrize("p", [2, 3])
def test_transform_of_dimension_zero_is_a_new_equal_array(p):
    sp = Space(p, 0)
    for f in (np.array([2.5]), np.array([2.5 - 1j])):
        before = f.copy()
        for direction in ("forward", "inverse"):
            out = transform(f, sp, direction)
            assert np.array_equal(out, f) and not np.shares_memory(out, f)
            assert np.array_equal(f, before)


def test_transform_validates_input():
    sp = Space(3, 2)
    with pytest.raises(ValueError):
        transform(np.zeros(5), sp)
    with pytest.raises(ValueError):
        transform(np.zeros(sp.size), sp, "sideways")
    with pytest.raises(ValueError):
        transform(np.zeros(4), Space(2, 2), "sideways")
    with pytest.raises(ValueError):
        transform(np.ones(1), Space(2, 0), "bogus")
    # the norm kernels read one value per point: a longer table is refused, not cut short
    for values in (np.zeros(8), np.zeros(10)):
        with pytest.raises(ValueError):
            regularity_norm(values, sp)
        with pytest.raises(ValueError):
            batch_coset_norms(values, sp, Subspace.full(3, 2), [0])


def test_constant_function_has_zero_regularity_norm():
    sp = Space(5, 2)
    norm, wit = regularity_norm(np.full(sp.size, 0.7), sp)
    assert norm <= TOL and wit is not None


def test_character_real_part_has_norm_half():
    # f = Re e_p(x . z0) concentrates spectrum on +-z0 with weight 1/2 each
    sp = Space(3, 2)
    z0 = 4
    phases = (sp.digits @ sp.digits[z0]) % 3
    f = np.cos(2 * np.pi * phases / 3)
    norm, wit = regularity_norm(f, sp)
    assert abs(norm - 0.5) <= TOL
    assert wit in (z0, sp.encode(-sp.digits[z0] % 3))


def test_regularity_norm_dimension_zero():
    sp = Space(3, 0)
    norm, wit = regularity_norm(np.array([2.5]), sp)
    assert norm == 0.0 and wit is None
    assert regularity_norm(np.zeros(1), sp) == (0.0, None)
    # F_p^0 has one point, so a table of any other length is refused before the early return
    for values in (np.zeros(5), np.zeros(0)):
        with pytest.raises(ValueError):
            regularity_norm(values, sp)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_regularity_norm_is_bit_equal_to_the_transform_argmax(p):
    """The whole-space norm on batch_coset_norms is the one the transform gives: abs, entry 0 at -1, argmax."""
    rng = np.random.default_rng(p)
    for n in range(6):
        sp = Space(p, n)
        for kind in ("01", "float"):
            f = random_tables(rng, kind, sp.size)
            if n == 0:
                assert regularity_norm(f, sp) == (0.0, None)
                continue
            mags = np.abs(transform(f, sp))
            mags[0] = -1.0
            z = int(np.argmax(mags))
            norm, wit = regularity_norm(f, sp)
            assert (norm, wit) == (float(mags[z]), z) and type(norm) is float and type(wit) is int


def test_batch_coset_norms_matches_restrictions():
    rng = np.random.default_rng(77)
    sp = Space(3, 4)
    sub = Subspace.from_rows(3, 4, np.array([[1, 0, 0, 0], [0, 1, 2, 0]]))
    f = rng.uniform(0, 1, sp.size)
    reps = sp.transversal(sub)
    norms, wits = batch_coset_norms(f, sp, sub, reps)
    for rep, norm, wit in zip(reps, norms, wits):
        vals, rsp = coset_restrict(f, sp, int(rep), sub)
        ref_norm, ref_wit = regularity_norm(vals, rsp)
        assert abs(norm - ref_norm) <= TOL
        # tie-break free comparison: magnitudes agree at both witnesses
        hat = np.abs(transform(vals, rsp))
        assert abs(hat[wit] - hat[ref_wit]) <= TOL


def test_batch_coset_norms_zero_dimensional_subspace():
    sp = Space(2, 3)
    sub = Subspace.zero(2, 3)
    norms, wits = batch_coset_norms(np.ones(sp.size), sp, sub, np.arange(sp.size))
    assert not norms.any()
    assert (wits == -1).all()


def test_lambda_fourier_subspace_golden():
    # x + y + z = 0 against the indicator of a half-density subspace: two free
    # picks inside W force the third, so the value is exactly 1/4
    sp = Space(2, 3)
    w = Subspace.from_rows(2, 3, np.array([[1, 0, 0], [0, 1, 0]]))
    f = np.zeros(sp.size)
    f[sp.subspace_points(w)] = 1.0
    val = lambda_fourier([1, 1, 1], [f, f, f], sp)
    assert abs(val - 0.25) <= TOL


def test_lambda_fourier_agrees_with_enumeration():
    rng = np.random.default_rng(123)
    for trial in range(12):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 4 if p == 5 else 5))
        sp = Space(p, n)
        k = int(rng.integers(2, 5))
        coeffs = rng.integers(0, p, size=k).astype(np.int64)
        fs = [rng.uniform(-1, 1, sp.size) for _ in range(k)]
        via_spectrum = lambda_fourier(coeffs, fs, sp)
        direct = lam(coeffs.reshape(1, -1), fs, sp)
        assert abs(via_spectrum - direct.value) <= TOL


def test_lambda_fourier_coefficient_count_checked():
    sp = Space(3, 1)
    with pytest.raises(ValueError):
        lambda_fourier([1, 1, 1], [np.ones(3)], sp)
