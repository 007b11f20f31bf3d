import numpy as np
import pytest

from removal_lab.fourier import (
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


def test_transform_validates_input():
    sp = Space(3, 2)
    with pytest.raises(ValueError):
        transform(np.zeros(5), sp)
    with pytest.raises(ValueError):
        transform(np.zeros(sp.size), sp, "sideways")


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
