"""Dense linear algebra primitives over the real or complex field.

This module decides zero for the whole package, with one test: a singular
value or eigenvalue v of a matrix is zero when |v| <= ``rank_rel_tol *
max|v|`` over that matrix's values.  Pseudoinverse, rank, kernel, range,
inertia and the Hermitian eigen-split all apply it, so criteria built on
``pinv`` and on eigenvalue counts call the same eigenvalues zero.
``psd_tol`` is only the slack of the semidefinite order, and one function,
``_psd_verdict``, applies it for every order and gap verdict.

The pseudoinverse of a ``(k, m, n)`` stack (``_pinv_stack``) comes from one
stacked SVD and applies the same zero test row by row, to each matrix's
own singular values; it equals ``pinv`` of each matrix bit for bit.

Each public function validates its inputs.  Three private twins skip
that for callers that hold arrays already validated: ``_is_hermitian`` is
``is_hermitian`` of a finite 2-d array, ``_hermitian`` is
``hermitian_part`` of a finite square array, and ``_loewner_leq`` is
``loewner_leq`` of two finite Hermitian arrays of equal shape.  The
callers guarantee that contract, which the twins do not check; they do
the same arithmetic as the public functions, so their results are the
same bits.  (``_loewner_leq`` checks only that the difference is finite,
which costs one pass, so that operands which overflowed still raise.)

A Hermitian matrix's pseudoinverse can also be read off its eigen-split
(``_herm_split``): ``_pinv_of_split`` is V diag(1/w) V^H over the
nonzero eigenvalues w, under the same zero test, so a caller that holds
the split gets pinv, rank, kernel, support and inertia from one ``eigh``.
It agrees with ``pinv`` up to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PreconditionError
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "Inertia",
    "SubspaceBasis",
    "as_matrix",
    "check_square_pair",
    "check_hermitian_pair",
    "adjoint",
    "max_abs",
    "is_hermitian",
    "hermitian_part",
    "imag_part",
    "pinv",
    "rank",
    "inertia",
    "kernel_basis",
    "range_basis",
    "subspace_leq",
    "subspace_eq",
    "loewner_leq",
    "is_psd",
    "is_ep",
    "projector_range",
    "projector_corange",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a 2-d array to float64 or complex128.

    Raises InvalidInputError for wrong dimensionality or non-finite
    entries.
    """
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    if not np.isfinite(arr).all():  # a complex entry is finite when both parts are
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate a 1-d array, optionally of a required length."""
    arr = np.asarray(v)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    arr = as_matrix(arr[None, :], name)[0]
    if length is not None and arr.shape[0] != length:
        raise InvalidInputError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


def check_square_pair(c, d) -> tuple[np.ndarray, np.ndarray]:
    """Validate two square matrices of equal size."""
    ca = as_matrix(c, "c")
    da = as_matrix(d, "d")
    if ca.shape != da.shape or ca.shape[0] != ca.shape[1]:
        raise InvalidInputError(f"need square matrices of equal size, got {ca.shape} and {da.shape}")
    return ca, da


def check_hermitian_pair(c, d, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Validate two Hermitian matrices of equal size."""
    ca, da = check_square_pair(c, d)
    if not _is_hermitian(ca, tol) or not _is_hermitian(da, tol):
        raise PreconditionError("both matrices must be Hermitian")
    return ca, da


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.abs(m).max())


def is_hermitian(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return _is_hermitian(as_matrix(m), tol)


def _is_hermitian(arr: np.ndarray, tol: ToleranceConfig) -> bool:
    """``is_hermitian`` of a validated 2-d array, unchecked."""
    if arr.shape[0] != arr.shape[1]:
        return False
    return max_abs(arr - adjoint(arr)) <= tol.scaled_eq_tol(arr)


def hermitian_part(m) -> np.ndarray:
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"hermitian part needs a square matrix, got {arr.shape}")
    return _hermitian(arr)


def _hermitian(arr: np.ndarray) -> np.ndarray:
    """``hermitian_part`` of a validated square array (or stack), unchecked."""
    return (arr + arr.conj().swapaxes(-1, -2)) / 2.0


def imag_part(m) -> np.ndarray:
    """The self-adjoint matrix (M - M^H) / 2i.  Zero for Hermitian M."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"imaginary part needs a square matrix, got {arr.shape}")
    return (arr.astype(np.complex128) - adjoint(arr).astype(np.complex128)) / 2j


@dataclass(frozen=True)
class Inertia:
    """Signature counts (n_pos, n_neg, n_zero) of a Hermitian matrix."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def dim(self) -> int:
        return self.n_pos + self.n_neg + self.n_zero


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal column basis of a subspace of F^ambient_dim."""

    ambient_dim: int
    vectors: np.ndarray  # shape (ambient_dim, dim), orthonormal columns

    def __post_init__(self):
        v = self.vectors
        if v.ndim != 2 or v.shape[0] != self.ambient_dim:
            raise InvalidInputError(
                f"basis vectors shape {v.shape} does not match ambient dim {self.ambient_dim}"
            )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the spanned subspace."""
        return self.vectors @ adjoint(self.vectors)


def _nonzero(v: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """The zero test: mask of |v| > rank_rel_tol * max|v|, for the singular
    values or eigenvalues v of one matrix (or of each matrix of a stack,
    one per row of a 2-d ``v``)."""
    mag = np.abs(v)
    return mag > tol.rank_rel_tol * mag.max(axis=-1, keepdims=True, initial=0.0)


def _svd_factor(arr: np.ndarray, tol: ToleranceConfig):
    """Shared SVD with the zero test.

    Returns (u, s, vh, r) where r is the numerical rank.  The same cutoff
    feeds pinv, rank, kernel_basis and range_basis.
    """
    u, s, vh = np.linalg.svd(arr, full_matrices=True)
    return u, s, vh, int(np.count_nonzero(_nonzero(s, tol)))


def _pinv_of_svd(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: int) -> np.ndarray:
    """V_r diag(1/s_r) U_r^H from the SVD of a matrix of rank r (zeros at
    r = 0), or from the SVDs of a stack of matrices that all have rank r."""
    v_r = vh[..., :r, :].conj().swapaxes(-1, -2)
    u_r_h = u[..., :, :r].conj().swapaxes(-1, -2)
    return v_r @ ((1.0 / s[..., :r])[..., :, None] * u_r_h)


def pinv(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with relative rank cutoff."""
    return _pinv_of_svd(*_svd_factor(as_matrix(m), tol))


def _pinv_stack(m: np.ndarray, tol: ToleranceConfig, check=None) -> np.ndarray:
    """``pinv`` of each matrix of a validated ``(k, p, q)`` stack.

    One stacked SVD; the zero test takes each matrix's rank from its own
    singular values, and the matrices of each rank are assembled together.
    ``check``, if given, sees the SVD's ``vh`` and ranks before any pseudoinverse
    is assembled (matrix i's kernel is spanned by the rows ``vh[i, ranks[i]:]``).
    """
    k, p, q = m.shape
    out = np.zeros((k, q, p), dtype=m.dtype)
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    ranks = np.count_nonzero(_nonzero(s, tol), axis=-1)
    if check is not None:
        check(vh, ranks)
    for r in np.unique(ranks[ranks > 0]):
        rows = ranks == r
        out[rows] = _pinv_of_svd(u[rows], s[rows], vh[rows], int(r))
    return out


def rank(m, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    arr = as_matrix(m)
    return _svd_factor(arr, tol)[3]


def _herm_split(h: np.ndarray, tol: ToleranceConfig):
    """Eigen-split of a Hermitian matrix under the zero test.

    Returns (kernel basis, support basis, nonzero eigenvalues); the
    eigenvalues belong to the support basis columns, so their count is
    the rank.  A Hermitian part that overflows raises, rather than leaving
    NaN eigenvalues that the zero test would call zero.
    """
    w, v = np.linalg.eigh(_hermitian(h))
    if not np.isfinite(w).all():
        raise InvalidInputError("matrix contains non-finite entries")
    nz = _nonzero(w, tol)
    return v[:, ~nz], v[:, nz], w[nz]


def _pinv_of_split(support: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(1/w) V^H from the support basis V and the nonzero eigenvalues
    w of a ``_herm_split``: the pseudoinverse of that Hermitian matrix."""
    return support @ ((1.0 / w)[:, None] * adjoint(support))


def inertia(h, tol: ToleranceConfig = DEFAULT_TOL) -> Inertia:
    """Eigenvalue sign counts of a Hermitian matrix; zero by the zero test."""
    arr = as_matrix(h)
    if not _is_hermitian(arr, tol):
        raise PreconditionError("inertia needs a Hermitian matrix")
    w = np.linalg.eigvalsh(_hermitian(arr))
    w = w[_nonzero(w, tol)]
    n_pos = int(np.sum(w > 0.0))
    return Inertia(n_pos, w.size - n_pos, arr.shape[0] - w.size)


def kernel_basis(m, tol: ToleranceConfig = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the null space, from the SVD."""
    arr = as_matrix(m)
    _, _, vh, r = _svd_factor(arr, tol)
    return SubspaceBasis(arr.shape[1], adjoint(vh[r:, :]))


def range_basis(m, tol: ToleranceConfig = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space, from the SVD."""
    arr = as_matrix(m)
    u, _, _, r = _svd_factor(arr, tol)
    return SubspaceBasis(arr.shape[0], u[:, :r])


def subspace_leq(s1: SubspaceBasis, s2: SubspaceBasis, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether span(s1) is contained in span(s2), by projector residual."""
    if s1.ambient_dim != s2.ambient_dim:
        raise InvalidInputError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    if s1.dim == 0:
        return True
    v = s1.vectors
    resid = v - s2.projector() @ v
    if resid.size == 0:
        return True
    col_norms = np.linalg.norm(resid, axis=0)
    return float(np.max(col_norms)) <= tol.scaled_eq_tol()


def subspace_eq(s1: SubspaceBasis, s2: SubspaceBasis, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return subspace_leq(s1, s2, tol) and subspace_leq(s2, s1, tol)


def loewner_leq(h1, h2, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether H1 <= H2 in the semidefinite order, within psd_tol."""
    a1, a2 = _order_operands(h1, h2, tol)
    return _loewner_leq(a1, a2, tol)


def _order_operands(h1, h2, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    a1 = as_matrix(h1, "h1")
    a2 = as_matrix(h2, "h2")
    if a1.shape != a2.shape:
        raise PreconditionError(f"dimension mismatch: {a1.shape} vs {a2.shape}")
    if not _is_hermitian(a1, tol) or not _is_hermitian(a2, tol):
        raise PreconditionError("ordering is defined for Hermitian matrices only")
    return a1, a2


def _loewner_leq(a1: np.ndarray, a2: np.ndarray, tol: ToleranceConfig) -> bool:
    """``loewner_leq`` of validated Hermitian arrays of equal shape, unchecked.

    An operand computed from validated arrays can still overflow; then
    the difference is not finite, and the checks raise ``loewner_leq``'s
    error.
    """
    if a1.shape[0] == 0:  # PSD, as _psd_verdict says, with no eigvalsh
        return True
    diff = a2.astype(np.result_type(a1, a2)) - a1
    if not np.isfinite(diff).all():
        _order_operands(a1, a2, tol)
        as_matrix(diff)
    return bool(_psd_verdict(np.linalg.eigvalsh(_hermitian(diff)), tol))


def _psd_verdict(w: np.ndarray, tol: ToleranceConfig):
    """The order decision, the only reader of ``psd_tol``: whether a Hermitian
    difference is PSD, from its sorted eigenvalues ``w`` (or for each matrix
    of a stack, one row of ``w`` each).  An empty matrix is PSD."""
    if not w.shape[-1]:
        return np.ones(w.shape[:-1], dtype=bool)
    return w.T[0] >= -tol.psd_tol  # each matrix's smallest eigenvalue


def is_psd(h, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    arr = as_matrix(h)
    return loewner_leq(np.zeros_like(arr), arr, tol)


def is_ep(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether M commutes with its pseudoinverse (range = co-range)."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"EP test needs a square matrix, got {arr.shape}")
    p = pinv(arr, tol)
    return max_abs(arr @ p - p @ arr) <= tol.scaled_eq_tol()


def projector_range(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector M M^+ onto the range of M."""
    arr = as_matrix(m)
    return arr @ pinv(arr, tol)


def projector_corange(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector M^+ M onto the row space of M."""
    arr = as_matrix(m)
    return pinv(arr, tol) @ arr
