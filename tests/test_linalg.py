import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import blockpivot
from blockpivot import (
    DEFAULT_TOL,
    InvalidInputError,
    PreconditionError,
    ToleranceConfig,
    adjoint,
    hermitian_part,
    imag_part,
    inertia,
    is_ep,
    is_hermitian,
    is_psd,
    kernel_basis,
    loewner_leq,
    max_abs,
    pinv,
    projector_corange,
    projector_range,
    range_basis,
    rank,
    subspace_eq,
    subspace_leq,
)
from blockpivot.linalg import _pinv_stack, _psd_verdict, as_matrix, as_vector
from blockpivot.rng import Xoshiro256pp


def _rand(rng, rows, cols, cplx=False):
    m = rng.uniform(rows * cols, -1.0, 1.0).reshape(rows, cols)
    if cplx:
        m = m + 1j * rng.uniform(rows * cols, -1.0, 1.0).reshape(rows, cols)
    return m


def test_as_matrix_validation():
    with pytest.raises(InvalidInputError):
        as_matrix([1.0, 2.0], "v")  # 1-D
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.nan]]), "m")
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.inf]]), "m")
    out = as_matrix([[1, 2], [3, 4]], "m")
    assert out.dtype == np.float64


def test_as_vector_validation():
    v = as_vector([1, 2, 3], 3, "v")
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(InvalidInputError):
        as_vector([1, 2], 3, "v")
    with pytest.raises(InvalidInputError):
        as_vector([[1, 2]], 2, "v")


def test_pinv_known_values():
    ones = np.ones((2, 2))
    assert np.allclose(pinv(ones), ones / 4.0, atol=1e-14)
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)
    assert np.allclose(pinv(np.zeros((3, 2))), np.zeros((2, 3)), atol=0)


def test_pinv_penrose_seeded_loop():
    rng = Xoshiro256pp(2024)
    for _ in range(50):
        rows = 1 + rng.randint(6)
        cols = 1 + rng.randint(6)
        cplx = rng.randint(2) == 1
        m = _rand(rng, rows, cols, cplx)
        p = pinv(m)
        scale = 1.0 + max_abs(m) + max_abs(p)
        assert max_abs(m @ p @ m - m) <= 1e-12 * scale
        assert max_abs(p @ m @ p - p) <= 1e-12 * scale
        assert max_abs(adjoint(m @ p) - m @ p) <= 1e-12 * scale
        assert max_abs(adjoint(p @ m) - p @ m) <= 1e-12 * scale
        assert max_abs(pinv(p) - m) <= 1e-10 * scale


@seed(7)
@settings(max_examples=50, deadline=None)
@given(
    m=arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=-10.0, max_value=10.0),
    )
)
def test_pinv_penrose_hypothesis(m):
    p = pinv(m)
    scale = 1.0 + max_abs(m) + max_abs(p)
    assert max_abs(m @ p @ m - m) <= 1e-10 * scale
    assert max_abs(p @ m @ p - p) <= 1e-10 * scale
    assert max_abs(adjoint(m @ p) - m @ p) <= 1e-10 * scale
    assert max_abs(adjoint(p @ m) - p @ m) <= 1e-10 * scale


def test_pinv_empty_shapes():
    assert pinv(np.zeros((0, 3))).shape == (3, 0)
    assert pinv(np.zeros((3, 0))).shape == (0, 3)
    assert pinv(np.zeros((0, 0))).shape == (0, 0)


def test_pinv_stack_equals_pinv_of_each_matrix():
    # one stacked SVD with the zero test row by row: the same bits as pinv of
    # each matrix, whatever mix of ranks (0 included) the stack holds
    rng = Xoshiro256pp(6061)
    for rows, cols in ((3, 3), (2, 4), (4, 1), (0, 0), (0, 3), (3, 0)):
        for cplx in (False, True):
            mats = []
            for i in range(10):
                r = i % (min(rows, cols) + 1)
                m = _rand(rng, rows, r, cplx) @ _rand(rng, r, cols, cplx)
                mats.append(m * 10.0 ** rng.randint(7) if i % 3 else m)
            stacked = _pinv_stack(np.stack(mats), DEFAULT_TOL)
            assert stacked.shape == (10, cols, rows)
            for m, p in zip(mats, stacked):
                expected = pinv(m)
                assert p.dtype == expected.dtype
                assert np.array_equal(p, expected), (rows, cols, cplx, rank(m))


def test_rank_values():
    assert rank(np.zeros((3, 3))) == 0
    assert rank(np.eye(4)) == 4
    assert rank(np.ones((3, 3))) == 1
    assert rank(np.zeros((0, 5))) == 0
    # relative cutoff: a uniformly tiny matrix still has full rank
    assert rank(1e-14 * np.eye(3)) == 3


def test_kernel_and_range_bases():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    k = kernel_basis(m)
    assert k.dim == 1
    assert np.allclose(m @ k.vectors, 0.0, atol=1e-12)
    r = range_basis(m)
    assert r.dim == 1
    # bases are orthonormal
    assert np.allclose(adjoint(k.vectors) @ k.vectors, np.eye(1), atol=1e-12)
    assert np.allclose(adjoint(r.vectors) @ r.vectors, np.eye(1), atol=1e-12)


def test_kernel_of_empty_row_matrix_is_full_space():
    # a 0 x 3 matrix kills nothing: its kernel is all of R^3
    k = kernel_basis(np.zeros((0, 3)))
    assert k.ambient_dim == 3 and k.dim == 3
    k2 = kernel_basis(np.zeros((3, 0)))
    assert k2.ambient_dim == 0 and k2.dim == 0


def test_projectors():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    pr = projector_range(m)
    pc = projector_corange(m)
    assert np.allclose(pr, m / 2.0, atol=1e-12)
    assert np.allclose(pc, m / 2.0, atol=1e-12)
    assert np.allclose(pr @ pr, pr, atol=1e-12)


def test_inertia_counts():
    i = inertia(np.diag([3.0, -2.0, 0.0, 1.0]))
    assert (i.n_pos, i.n_neg, i.n_zero) == (2, 1, 1)
    assert i.dim == 4
    # near-zero eigenvalues count as zero under psd_tol
    i2 = inertia(np.diag([1e-12, 1.0]))
    assert (i2.n_pos, i2.n_neg, i2.n_zero) == (1, 0, 1)
    with pytest.raises(PreconditionError):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_inertia_agrees_with_rank_and_scale():
    # one eigenvalue +-eps, eps log-uniform in [1e-12, 1e-6], on either side
    # of the zero test's cutoff rank_rel_tol * max|eigenvalue|
    rng = Xoshiro256pp(2718)
    for _ in range(200):
        n = 1 + rng.randint(5)
        q, _ = np.linalg.qr(_rand(rng, n, n, rng.randint(2) == 1))
        eps = 10.0 ** float(rng.uniform(1, -12.0, -6.0)[0])
        w = np.concatenate([[eps], rng.uniform(n - 1, 0.1, 1.0)])
        w *= np.where(rng.uniform(n) < 0.5, -1.0, 1.0)
        h = hermitian_part(q @ (w[:, None] * adjoint(q)))
        i = inertia(h)
        assert i.n_zero == n - rank(h)
        for s in (1e-6, 1e6):
            assert inertia(s * h) == i


def test_subspace_leq_and_eq():
    e1 = kernel_basis(np.array([[0.0, 1.0], [0.0, 0.0]]))  # span(e1)
    full = kernel_basis(np.zeros((2, 2)))
    assert subspace_leq(e1, full)
    assert not subspace_leq(full, e1)
    assert subspace_eq(full, full)
    assert not subspace_eq(e1, full)
    with pytest.raises(InvalidInputError):
        subspace_leq(e1, kernel_basis(np.zeros((3, 3))))


def test_loewner_leq():
    assert loewner_leq(np.diag([0.0, -1.0]), np.diag([0.0, 1.0]))
    assert not loewner_leq(np.diag([0.0, 1.0]), np.diag([0.0, -1.0]))
    assert loewner_leq(np.zeros((0, 0)), np.zeros((0, 0)))
    # ties at the psd_tol boundary count as ordered
    assert loewner_leq(np.diag([1e-9]), np.diag([0.0]))
    with pytest.raises(PreconditionError):
        loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_is_psd():
    assert is_psd(np.eye(2))
    assert not is_psd(-np.eye(2))
    assert is_psd(np.zeros((2, 2)))


def test_psd_verdict_of_one_matrix_and_of_a_stack():
    slack = DEFAULT_TOL.psd_tol
    assert _psd_verdict(np.array([-slack, 1.0]), DEFAULT_TOL)
    assert not _psd_verdict(np.array([-2.0 * slack, 1.0]), DEFAULT_TOL)
    assert _psd_verdict(np.zeros(0), DEFAULT_TOL)
    w = np.array([[-1.0, 0.0], [0.0, 1.0], [-slack, -slack]])
    assert _psd_verdict(w, DEFAULT_TOL).tolist() == [False, True, True]
    assert _psd_verdict(np.zeros((3, 0)), DEFAULT_TOL).tolist() == [True] * 3


def _readers(knob):
    """The functions of the package that read ``tol.<knob>``; the CLI only
    turns its flags into a ToleranceConfig and echoes it back, so it is not
    scanned."""
    readers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == knob and isinstance(node.ctx, ast.Load):
            readers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(blockpivot.__file__).parent.glob("*.py")):
        if path.name != "cli.py":
            visit(ast.parse(path.read_text()), path.stem)
    return readers


def test_psd_tol_is_read_in_one_function():
    # one function decides the order slack, so a change of policy has one
    # place to go
    assert _readers("psd_tol") == {"linalg._psd_verdict"}


def test_eq_tol_is_read_in_one_function():
    # one function scales the equality threshold, so a scale-aware policy
    # has one place to go
    assert _readers("eq_tol") == {"tolerances.ToleranceConfig.scaled_eq_tol"}


def test_scaled_eq_tol_reads_arrays_and_numbers():
    tol = ToleranceConfig(eq_tol=1e-6)
    assert tol.scaled_eq_tol() == 1e-6
    assert tol.scaled_eq_tol(np.zeros((0, 3))) == 1e-6
    assert tol.scaled_eq_tol(np.array([[1.0, -3.0]]), 2.0) == 1e-6 * 4.0
    assert tol.scaled_eq_tol(-1.0, np.array([1j])) == 1e-6 * 2.0


def test_scaled_eq_tol_gives_numbers_and_arrays_the_same_bits():
    values = np.random.default_rng(7).standard_normal(200) * 10.0 ** np.arange(-100, 100)
    for v in values:
        expected = DEFAULT_TOL.scaled_eq_tol(np.array([v]))
        for number in (float(v), np.float64(v), -float(v)):
            got = DEFAULT_TOL.scaled_eq_tol(number)
            assert got == expected and type(got) is float
    assert DEFAULT_TOL.scaled_eq_tol(3) == DEFAULT_TOL.scaled_eq_tol(np.array([3]))


def test_is_ep():
    assert is_ep(np.array([[1.0, 2.0], [2.0, 5.0]]))  # Hermitian
    assert is_ep(np.array([[0.0, -1.0], [1.0, 0.0]]))  # normal
    assert not is_ep(np.array([[0.0, 1.0], [0.0, 0.0]]))  # nilpotent
    with pytest.raises(InvalidInputError):
        is_ep(np.zeros((2, 3)))


def test_hermitian_helpers():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    h = hermitian_part(m)
    assert is_hermitian(h)
    assert not is_hermitian(m)
    z = np.array([[1.0 + 1.0j, 2.0], [3.0, 4.0]])
    im = imag_part(z)
    assert np.allclose(z, hermitian_part(z) + 1j * im, atol=1e-14)
    assert is_hermitian(im)


def test_loewner_matches_inertia_of_difference():
    rng = Xoshiro256pp(99)
    cfg = ToleranceConfig()
    for _ in range(40):
        n = 1 + rng.randint(5)
        cplx = rng.randint(2) == 1
        a = hermitian_part(_rand(rng, n, n, cplx))
        b = hermitian_part(_rand(rng, n, n, cplx))
        ordered = loewner_leq(a, b, cfg)
        i = inertia(b - a, cfg)
        assert ordered == (i.n_neg == 0)


def test_adjoint_duality_kernel_range():
    rng = Xoshiro256pp(5150)
    for _ in range(25):
        rows = 1 + rng.randint(5)
        cols = 1 + rng.randint(5)
        cplx = rng.randint(2) == 1
        m = _rand(rng, rows, cols, cplx)
        # ker(M*) is the orthogonal complement of ran(M)
        km = kernel_basis(adjoint(m))
        rm = range_basis(m)
        assert km.dim + rm.dim == rows
        assert max_abs(adjoint(rm.vectors) @ km.vectors) <= 1e-10
