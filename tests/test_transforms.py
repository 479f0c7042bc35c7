import numpy as np
import pytest

from blockpivot import (
    DEFAULT_TOL,
    BlockMatrix,
    GenSpec,
    InclusionError,
    PreconditionError,
    block_diagonalize,
    ep_congruence_schur,
    gppt,
    hat_embedding,
    hermitian_part,
    imag_part,
    jppt,
    jppt_im_congruence,
    loewner_leq,
    max_abs,
    pinv,
    rand_im_psd,
    rand_matrix,
    rand_saddle_instance,
    rand_with_invertible_pivot,
    schur_complement,
    signature_matrix,
)
from blockpivot.rng import Xoshiro256pp
from blockpivot.transforms import _gppt_stack


def test_signature_matrix():
    j = signature_matrix(2, 1)
    assert np.array_equal(j, np.diag([1.0, 1.0, -1.0]))
    assert signature_matrix(0, 0).shape == (0, 0)


def test_jppt_scalar_pair(pair_2x2):
    a, b = pair_2x2
    assert max_abs(jppt(a).data - np.diag([0.0, 1.0])) <= 1e-12
    assert max_abs(jppt(b).data - np.diag([0.0, -1.0])) <= 1e-12


def test_jppt_rank_one_pivot_pair(pair_4x4):
    a, b = pair_4x4
    expected_a = np.array([
        [-0.125, 0.0, 0.25, 0.25],
        [0.0, 0.0, 0.0, 0.0],
        [0.25, 0.0, -0.5, -0.5],
        [0.25, 0.0, -0.5, -0.5],
    ])
    expected_b = np.array([
        [0.4375, 0.0, 0.125, 0.125],
        [0.0, 0.0, 0.0, 0.0],
        [0.125, 0.0, -0.25, -0.25],
        [0.125, 0.0, -0.25, -0.25],
    ])
    assert max_abs(jppt(a).data - expected_a) <= 1e-12
    assert max_abs(jppt(b).data - expected_b) <= 1e-12


def test_schur_complement_values(pair_4x4):
    a, b = pair_4x4
    assert max_abs(schur_complement(a) - np.array([[-0.125, 0.0], [0.0, 0.0]])) <= 1e-12
    assert max_abs(schur_complement(b) - np.array([[0.4375, 0.0], [0.0, 0.0]])) <= 1e-12


def test_gppt_identity_is_identity():
    eye = BlockMatrix(2, 2, np.eye(4))
    assert max_abs(gppt(eye).data - np.eye(4)) <= 1e-14
    assert max_abs(jppt(eye).data - (signature_matrix(2, 2) @ np.eye(4))) <= 1e-14


def test_gppt_degenerate_partitions():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    # n2 = 0: nothing is pivoted, the transform is the identity map
    whole = BlockMatrix(2, 0, m)
    assert np.array_equal(gppt(whole).data, m)
    # n1 = 0: the whole matrix is pivoted to its pseudoinverse
    empty_top = BlockMatrix(0, 2, m)
    assert max_abs(gppt(empty_top).data - pinv(m)) <= 1e-12
    assert max_abs(jppt(empty_top).data + pinv(m)) <= 1e-12


def test_jppt_is_signature_times_gppt():
    rng = Xoshiro256pp(31337)
    for _ in range(20):
        n1 = rng.randint(4)
        n2 = rng.randint(4)
        cplx = rng.randint(2) == 1
        fld = "complex" if cplx else "real"
        a = BlockMatrix(n1, n2, rand_matrix(n1 + n2, n1 + n2, fld, rng.next_uint64()))
        g = gppt(a)
        # the order routines read jppt, A/A22 and A22^+ off gppt's blocks
        assert np.array_equal(jppt(a).data, signature_matrix(n1, n2) @ g.data)
        assert np.array_equal(g.a11, schur_complement(a))
        assert np.array_equal(g.a22, pinv(a.a22))


def test_gppt_stack_equals_gppt_of_each_matrix():
    # one stacked SVD of the pivot blocks, the gppt formula over the stack:
    # the same bits as gppt of each matrix, for pivots of mixed rank
    rng = Xoshiro256pp(4077)
    for n1, n2 in ((2, 3), (1, 1), (0, 3), (3, 0), (0, 0)):
        for fld in ("real", "complex"):
            mats = []
            for i in range(10):
                m = rand_matrix(n1 + n2, n1 + n2, fld, rng.next_uint64())
                r = i % (n2 + 1)
                m[n1:, n1:] = rand_matrix(n2, r, fld, rng.next_uint64()) @ rand_matrix(r, n2, fld, rng.next_uint64())
                mats.append(m)
            stacked = _gppt_stack(np.stack(mats), n1, DEFAULT_TOL)
            for m, g in zip(mats, stacked):
                expected = gppt(BlockMatrix(n1, n2, m)).data
                assert g.dtype == expected.dtype
                assert np.array_equal(g, expected), (n1, n2, fld)


def test_gppt_involution():
    rng = Xoshiro256pp(777)
    for _ in range(25):
        n1 = rng.randint(4)
        n2 = 1 + rng.randint(4)
        fld = "complex" if rng.randint(2) else "real"
        a = rand_with_invertible_pivot(GenSpec(n1, n2, fld, rng.next_uint64()))
        assert max_abs(gppt(gppt(a)).data - a.data) <= 1e-9


def test_hat_embedding_structure(pair_2x2):
    a, _ = pair_2x2
    hat = hat_embedding(a)
    assert (hat.n1, hat.n2) == (2, 1)
    expected = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0],
        [0.0, -1.0, -1.0],
    ])
    assert max_abs(hat.data - expected) <= 1e-12


def test_jppt_equals_schur_of_embedding():
    rng = Xoshiro256pp(2718)
    for _ in range(30):
        n1 = rng.randint(4)
        n2 = rng.randint(4)
        fld = "complex" if rng.randint(2) else "real"
        if rng.randint(2) and n2 >= 1:
            a = rand_saddle_instance(GenSpec(n1, n2, fld, rng.next_uint64()), hermitian=False)
        else:
            a = BlockMatrix(n1, n2, rand_matrix(n1 + n2, n1 + n2, fld, rng.next_uint64()))
        lhs = jppt(a).data
        rhs = schur_complement(hat_embedding(a))
        assert max_abs(lhs - rhs) <= 1e-10


def test_ep_congruence_on_hermitian():
    rng = Xoshiro256pp(404)
    for _ in range(15):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        raw = rand_matrix(n1 + n2, n1 + n2, fld, rng.next_uint64())
        a = BlockMatrix(n1, n2, hermitian_part(raw))
        cong = ep_congruence_schur(a)
        assert cong.schur_identity_residual <= 1e-10
        assert cong.im_identity_residual <= 1e-10
        # the vector map actually realizes the congruence
        v = cong.vector_map
        assert max_abs(v.conj().T @ a.data @ v - schur_complement(a)) <= 1e-10


def test_ep_congruence_rejects_non_ep_pivot():
    # nilpotent pivot block: ran and co-range projectors differ
    a = BlockMatrix(1, 2, np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
    ]))
    with pytest.raises(PreconditionError) as err:
        ep_congruence_schur(a)
    assert err.value.certificate is not None
    with pytest.raises(PreconditionError):
        jppt_im_congruence(a)


def test_im_psd_matrices_keep_psd_imag_through_jppt():
    rng = Xoshiro256pp(515)
    for _ in range(15):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        a = rand_im_psd(GenSpec(n1, n2, "complex", rng.next_uint64()))
        im_in = imag_part(a.data)
        assert loewner_leq(np.zeros_like(im_in), im_in)
        im_out = imag_part(jppt(a).data)
        assert loewner_leq(np.zeros_like(im_out), im_out)
        w = jppt_im_congruence(a)
        assert w.residual <= 1e-10
        # explicit congruence: Im(jppt(A)) = W* Im(A) W
        wm = w.congruence_map
        assert max_abs(wm.conj().T @ im_in @ wm - im_out) <= 1e-10


def test_block_diagonalize_reassembles():
    rng = Xoshiro256pp(606)
    for _ in range(15):
        n1 = rng.randint(4)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        a = rand_saddle_instance(GenSpec(n1, n2, fld, rng.next_uint64()), hermitian=False)
        result = block_diagonalize(a)
        assert result.residual <= 1e-10
        assert max_abs(result.reassemble() - a.data) <= 1e-10
        assert max_abs(result.w - schur_complement(a)) <= 1e-12
        assert np.array_equal(result.z, a.a22)


def test_block_diagonalize_inclusion_errors():
    # ker A22 not inside ker A12
    bad12 = BlockMatrix(1, 1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InclusionError) as err:
        block_diagonalize(bad12)
    assert err.value.which == "ker22_in_ker12"
    # ran A21 not inside ran A22
    bad21 = BlockMatrix(1, 1, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(InclusionError) as err:
        block_diagonalize(bad21)
    assert err.value.which == "ran21_in_ran22"
