import numpy as np
import pytest

from blockpivot import (
    BlockMatrix,
    GenSpec,
    InvalidInputError,
    ORDERED_PAIR_MODES,
    block_diagonalize,
    imag_part,
    inertia,
    is_ep,
    is_psd,
    kernel_basis,
    loewner_leq,
    pinv,
    rand_hermitian,
    rand_im_psd,
    rand_matrix,
    rand_ordered_pair,
    rand_psd_pair_same_kernel,
    rand_psd_with_kernel,
    rand_saddle_instance,
    rand_saddle_rhs,
    rand_with_invertible_pivot,
    subspace_eq,
)
from blockpivot.rng import Xoshiro256pp


def test_genspec_validation():
    with pytest.raises(InvalidInputError):
        GenSpec(-1, 2, "real", 1)
    with pytest.raises(InvalidInputError):
        GenSpec(1, 2, "rational", 1)
    with pytest.raises(InvalidInputError):
        GenSpec(1, 2, "real", -5)
    with pytest.raises(InvalidInputError):
        GenSpec(1, 2, "real", 1, magnitude=0.0)


def test_generators_are_deterministic():
    spec = GenSpec(2, 3, "complex", 31415)
    assert np.array_equal(rand_hermitian(spec).data, rand_hermitian(spec).data)
    a1, b1 = rand_ordered_pair(spec, "generic")
    a2, b2 = rand_ordered_pair(spec, "generic")
    assert a1 == a2 and b1 == b2
    assert np.array_equal(
        rand_matrix(3, 5, "real", 99), rand_matrix(3, 5, "real", 99)
    )
    # different seeds give different output
    assert not np.array_equal(
        rand_matrix(3, 5, "real", 99), rand_matrix(3, 5, "real", 100)
    )


def test_rand_hermitian_is_hermitian():
    for seed in (1, 2, 3):
        for fld in ("real", "complex"):
            m = rand_hermitian(GenSpec(2, 2, fld, seed))
            assert m.is_hermitian()
            assert (m.field_tag == "complex") == (fld == "complex")


def test_rand_with_invertible_pivot_condition_bound():
    for seed in (5, 6, 7):
        for fld in ("real", "complex"):
            a = rand_with_invertible_pivot(GenSpec(2, 4, fld, seed))
            s = np.linalg.svd(a.a22, compute_uv=False)
            assert s[-1] > 0
            assert s[0] / s[-1] <= 100.0 + 1e-9


def test_rand_psd_with_kernel():
    kernel = kernel_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))  # span(1,-1)
    m = rand_psd_with_kernel(GenSpec(0, 2, "real", 17), kernel)
    assert is_psd(m)
    assert subspace_eq(kernel_basis(m), kernel)
    # full-space kernel forces the zero matrix
    full = kernel_basis(np.zeros((3, 3)))
    z = rand_psd_with_kernel(GenSpec(0, 3, "real", 18), full)
    assert np.array_equal(z, np.zeros((3, 3)))


@pytest.mark.parametrize("mode", ORDERED_PAIR_MODES)
def test_ordered_pair_is_ordered(mode):
    rng = Xoshiro256pp(4242)
    for _ in range(12):
        n1 = rng.randint(4)
        n2 = 1 + rng.randint(4)
        fld = "complex" if rng.randint(2) else "real"
        a, b = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), mode)
        assert a.is_hermitian() and b.is_hermitian()
        assert loewner_leq(a.data, b.data)


def test_constant_rank_mode_preserves_pivot_structure():
    rng = Xoshiro256pp(868)
    for _ in range(12):
        n1 = rng.randint(3)
        n2 = 1 + rng.randint(4)
        fld = "complex" if rng.randint(2) else "real"
        a, b = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), "constant_rank")
        ia, ib = inertia(a.a22), inertia(b.a22)
        assert (ia.n_pos, ia.n_neg, ia.n_zero) == (ib.n_pos, ib.n_neg, ib.n_zero)
        assert subspace_eq(kernel_basis(a.a22), kernel_basis(b.a22))
        # interior of the segment keeps the rank too
        for t in (0.25, 0.5, 0.75):
            mid = (1 - t) * a.a22 + t * b.a22
            i_mid = inertia(mid)
            assert i_mid.n_zero == ia.n_zero


def test_kernel_break_mode_changes_pivot_rank_or_kernel():
    rng = Xoshiro256pp(90)
    for _ in range(12):
        n1 = rng.randint(3)
        n2 = 1 + rng.randint(4)
        fld = "complex" if rng.randint(2) else "real"
        a, b = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), "kernel_break")
        same_kernel = subspace_eq(kernel_basis(a.a22), kernel_basis(b.a22))
        ia, ib = inertia(a.a22), inertia(b.a22)
        same_inertia = (ia.n_pos, ia.n_neg) == (ib.n_pos, ib.n_neg)
        assert not (same_kernel and same_inertia)
    with pytest.raises(InvalidInputError):
        rand_ordered_pair(GenSpec(2, 0, "real", 1), "kernel_break")
    with pytest.raises(InvalidInputError):
        rand_ordered_pair(GenSpec(2, 2, "real", 1), "sideways")


def test_psd_pair_same_kernel():
    rng = Xoshiro256pp(321)
    for ordered in (False, True):
        for _ in range(8):
            n1 = 1 + rng.randint(3)
            n2 = 1 + rng.randint(3)
            fld = "complex" if rng.randint(2) else "real"
            a, b = rand_psd_pair_same_kernel(
                GenSpec(n1, n2, fld, rng.next_uint64()), ordered=ordered
            )
            assert is_psd(a.data) and is_psd(b.data)
            assert subspace_eq(kernel_basis(a.a22), kernel_basis(b.a22))
            if ordered:
                assert loewner_leq(a.data, b.data)


def test_rand_im_psd():
    rng = Xoshiro256pp(654)
    saw_singular = False
    for _ in range(12):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        a = rand_im_psd(GenSpec(n1, n2, "complex", rng.next_uint64()))
        im = imag_part(a.data)
        assert loewner_leq(np.zeros_like(im), im)
        assert is_ep(a.a22)
        if kernel_basis(a.a22).dim > 0:
            saw_singular = True
    assert saw_singular  # the singular-pivot branch fires somewhere
    with pytest.raises(InvalidInputError):
        rand_im_psd(GenSpec(1, 1, "real", 3))


def test_saddle_instance_inclusions():
    rng = Xoshiro256pp(777)
    for hermitian in (True, False):
        for _ in range(8):
            n1 = rng.randint(4)
            n2 = 1 + rng.randint(3)
            fld = "complex" if rng.randint(2) else "real"
            a = rand_saddle_instance(
                GenSpec(n1, n2, fld, rng.next_uint64()), hermitian=hermitian
            )
            if hermitian:
                assert a.is_hermitian()
                assert is_psd(a.a22)
            # both inclusions hold, so the diagonalization succeeds
            result = block_diagonalize(a)
            assert result.residual <= 1e-10


def test_saddle_rhs_is_attainable():
    rng = Xoshiro256pp(888)
    for _ in range(8):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        a = rand_saddle_instance(GenSpec(n1, n2, fld, rng.next_uint64()))
        x1, y2 = rand_saddle_rhs(a, rng.next_uint64())
        resid = y2 - a.a21 @ x1
        p = pinv(a.a22)
        defect = resid - a.a22 @ (p @ resid)
        assert float(np.linalg.norm(defect)) <= 1e-10


def test_rand_matrix_shapes_and_complex_interleaving():
    m = rand_matrix(2, 3, "real", 5)
    assert m.shape == (2, 3) and m.dtype == np.float64
    z = rand_matrix(2, 2, "complex", 5)
    assert z.dtype == np.complex128
    # the complex draw interleaves re/im over the same raw stream
    raw = Xoshiro256pp(5).uniform_sym(8, 1.0)
    expected = (raw[0::2] + 1j * raw[1::2]).reshape(2, 2)
    assert np.array_equal(z, expected)


@pytest.mark.parametrize("fld, dtype", [("real", np.float64), ("complex", np.complex128)])
def test_generated_matrices_come_through_the_trusted_path(fld, dtype):
    spec = GenSpec(2, 3, fld, 1618)
    outs = [rand_hermitian(spec), rand_with_invertible_pivot(spec)]
    for mode in ORDERED_PAIR_MODES:
        outs += rand_ordered_pair(spec, mode)
    for ordered in (False, True):
        outs += rand_psd_pair_same_kernel(spec, ordered)
    outs += [rand_saddle_instance(spec, hermitian) for hermitian in (True, False)]
    if fld == "complex":
        outs.append(rand_im_psd(spec))
    for x in outs:
        # a locked array of the field's dtype, equal to the public constructor's value
        assert not x.data.flags.writeable
        assert x.data.dtype == dtype
        assert x == BlockMatrix(x.n1, x.n2, x.data)


@pytest.mark.parametrize("fld", ["real", "complex"])
def test_overflowing_draws_still_raise(fld):
    # the trusted path keeps the finiteness check: entries of 1e300 square
    # to inf in the Gram and coupling products
    spec = GenSpec(2, 2, fld, 1, magnitude=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        for mode in ORDERED_PAIR_MODES:
            with pytest.raises(InvalidInputError, match="data contains non-finite entries"):
                rand_ordered_pair(spec, mode)
        for ordered in (False, True):
            with pytest.raises(InvalidInputError, match="data contains non-finite entries"):
                rand_psd_pair_same_kernel(spec, ordered)


def _draws(spec):
    """Every generator's fixtures for one spec, as arrays."""
    kernel = kernel_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
    a = rand_saddle_instance(spec)
    out = [
        rand_matrix(spec.n1, spec.n2, spec.field, spec.seed),
        rand_hermitian(spec).data,
        rand_with_invertible_pivot(spec).data,
        rand_psd_with_kernel(spec, kernel),
        a.data,
        rand_saddle_instance(spec, hermitian=False).data,
        *rand_saddle_rhs(a, spec.seed),
    ]
    if spec.field == "complex":
        out.append(rand_im_psd(spec).data)
    for mode in ORDERED_PAIR_MODES:
        out += [x.data for x in rand_ordered_pair(spec, mode)]
    for ordered in (False, True):
        out += [x.data for x in rand_psd_pair_same_kernel(spec, ordered)]
    return out


@pytest.mark.parametrize("fld", ["real", "complex"])
def test_numpy_integer_sizes_give_the_same_fixtures(fld):
    spec = GenSpec(np.int64(2), np.int64(3), fld, 1618)
    assert type(spec.n1) is int and type(spec.n2) is int
    plain = _draws(GenSpec(2, 3, fld, 1618))
    for x, y in zip(_draws(spec), plain, strict=True):
        assert np.array_equal(x, y)
    with pytest.raises(InvalidInputError, match="n2 must be a nonnegative integer"):
        GenSpec(1, np.int64(-1), fld, 1)
