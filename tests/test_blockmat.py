import numpy as np
import pytest

from blockpivot import (
    DEFAULT_TOL,
    BlockMatrix,
    GenSpec,
    InvalidInputError,
    bordered_embedding,
    gppt,
    hat_embedding,
    jppt,
    rand_ordered_pair,
)
from blockpivot.monotone import _OrderPair
from blockpivot.saddle import _SaddleInstance


def assert_owned(x: BlockMatrix, dtype) -> None:
    """x came through the trusted path: a locked float64 or complex128
    array, integer partition sizes, and the value the public constructor
    would give."""
    assert not x.data.flags.writeable
    assert x.data.dtype == dtype
    assert type(x.n1) is int and type(x.n2) is int
    assert x == BlockMatrix(x.n1, x.n2, x.data)


def test_construction_and_views():
    data = np.arange(9, dtype=float).reshape(3, 3)
    bm = BlockMatrix(2, 1, data)
    assert bm.n == 3
    assert np.array_equal(bm.a11, data[:2, :2])
    assert np.array_equal(bm.a12, data[:2, 2:])
    assert np.array_equal(bm.a21, data[2:, :2])
    assert np.array_equal(bm.a22, data[2:, 2:])
    assert bm.field_tag == "real"
    assert BlockMatrix(1, 1, np.eye(2, dtype=complex)).field_tag == "complex"


def test_construction_validation():
    with pytest.raises(InvalidInputError):
        BlockMatrix(2, 2, np.eye(3))  # partition does not match the shape
    with pytest.raises(InvalidInputError):
        BlockMatrix(-1, 3, np.eye(2))
    with pytest.raises(InvalidInputError):
        BlockMatrix(1, 1, np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        BlockMatrix(1, 1, np.zeros((2, 3)))


def test_data_is_copied_and_locked():
    src = np.eye(2)
    bm = BlockMatrix(1, 1, src)
    src[0, 0] = 99.0
    assert bm.data[0, 0] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        bm.data[0, 0] = 5.0


def test_from_blocks_round_trip():
    data = np.arange(16, dtype=float).reshape(4, 4)
    bm = BlockMatrix(1, 3, data)
    rebuilt = BlockMatrix.from_blocks(1, 3, bm.a11, bm.a12, bm.a21, bm.a22)
    assert rebuilt == bm
    with pytest.raises(InvalidInputError):
        BlockMatrix.from_blocks(1, 3, np.zeros((2, 1)), bm.a12, bm.a21, bm.a22)


def test_from_blocks_empty_tiles():
    bm = BlockMatrix.from_blocks(
        0, 2, np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2)
    )
    assert bm.n1 == 0 and bm.n2 == 2
    assert np.array_equal(bm.data, np.eye(2))


def test_repartition():
    data = np.arange(9, dtype=float).reshape(3, 3)
    bm = BlockMatrix(2, 1, data)
    other = bm.repartition(1, 2)
    assert (other.n1, other.n2) == (1, 2)
    assert np.array_equal(other.data, data)
    with pytest.raises(InvalidInputError):
        bm.repartition(2, 2)


def test_adjoint_and_hermitian():
    z = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]])
    bm = BlockMatrix(1, 1, z)
    assert bm.is_hermitian()
    assert bm.adjoint() == bm
    skew = BlockMatrix(1, 1, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not skew.is_hermitian()
    assert np.array_equal(skew.adjoint().data, -skew.data)


def test_eq_and_hash():
    a = BlockMatrix(1, 1, np.eye(2))
    b = BlockMatrix(1, 1, np.eye(2))
    c = BlockMatrix(2, 0, np.eye(2))
    assert a == b and hash(a) == hash(b)
    assert a != c  # same entries, different partition
    assert a != "not a matrix"


def test_norm_max():
    bm = BlockMatrix(1, 1, np.array([[1.0, -7.0], [2.0, 3.0]]))
    assert bm.norm_max() == 7.0


def test_owned_wraps_the_array_and_locks_it():
    data = np.arange(9, dtype=float).reshape(3, 3)
    bm = BlockMatrix._owned(np.int64(2), 1, data)
    assert bm.data is data  # no copy
    assert_owned(bm, np.float64)
    rebuilt = BlockMatrix._owned_blocks(2, 1, bm.a11, bm.a12, bm.a21, 1j * bm.a22)
    assert_owned(rebuilt, np.complex128)
    assert rebuilt == BlockMatrix.from_blocks(2, 1, bm.a11, bm.a12, bm.a21, 1j * bm.a22)
    empty = BlockMatrix._owned_blocks(0, 2, np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))
    assert empty == BlockMatrix(0, 2, np.eye(2))


def test_owned_keeps_the_finiteness_check():
    for bad in (np.inf, np.nan, complex(0.0, np.inf), complex(np.nan, 0.0)):
        data = np.eye(2, dtype=type(bad))
        data[1, 0] = bad
        with pytest.raises(InvalidInputError, match="data contains non-finite entries"):
            BlockMatrix._owned(1, 1, data)
        with pytest.raises(InvalidInputError, match="data contains non-finite entries"):
            BlockMatrix._owned_blocks(1, 1, data[:1, :1], data[:1, 1:], data[1:, :1], data[1:, 1:])


@pytest.mark.parametrize("fld, dtype", [("real", np.float64), ("complex", np.complex128)])
def test_transformed_matrices_come_through_the_trusted_path(fld, dtype):
    a, b = rand_ordered_pair(GenSpec(2, 3, fld, 2718), "kernel_break")
    for x in (
        gppt(a),
        jppt(a),
        hat_embedding(a),
        *_OrderPair.of_blocks(a, b, DEFAULT_TOL).transforms,
        _SaddleInstance(a, DEFAULT_TOL)._g,
        *bordered_embedding(a.a22, b.a22),
    ):
        assert_owned(x, dtype)


def test_overflowing_transform_still_raises():
    # finite input whose transform overflows: A12 A22^+ A21 = 1e300 * 1e300 * 1e300
    a = BlockMatrix(1, 1, np.array([[1.0, 1e300], [1e300, 1e-300]]))
    with np.errstate(over="ignore", invalid="ignore"):
        for transform in (gppt, jppt):
            with pytest.raises(InvalidInputError, match="non-finite"):
                transform(a)
