"""Block transforms of partitioned matrices.

Implements the generalized Schur complement, the principal pivot
transform and its signature-symmetrized form, an embedding that realizes
the symmetrized transform as a Schur complement of a larger matrix,
congruence identities available when the pivot block is EP, and a
generalized Aitken block diagonalization.

All transforms are total in the pivot block: the Moore-Penrose
pseudoinverse replaces the inverse, so a singular (2,2) block is legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockMatrix
from .errors import InclusionError, PreconditionError
from .linalg import _pinv_stack, adjoint, imag_part, max_abs, pinv
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "signature_matrix",
    "schur_complement",
    "gppt",
    "jppt",
    "hat_embedding",
    "EpCongruence",
    "ep_congruence_schur",
    "ImCongruence",
    "jppt_im_congruence",
    "BlockDiagonalization",
    "block_diagonalize",
]


def signature_matrix(n1: int, n2: int) -> np.ndarray:
    """diag(I_n1, -I_n2); squares to the identity and is Hermitian."""
    return np.diag(np.concatenate([np.ones(n1), -np.ones(n2)]))


def schur_complement(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """A11 - A12 A22^+ A21, the generalized Schur complement."""
    return a.a11 - a.a12 @ pinv(a.a22, tol) @ a.a21


def _gppt_formula(data: np.ndarray, n1: int, p: np.ndarray) -> np.ndarray:
    """[[A/A22, A12 P], [-P A21, P]] with P = A22^+, for one matrix with
    partition (n1, n - n1) or for each matrix of a stack of them."""
    a12p = data[..., :n1, n1:] @ p
    out = np.empty(data.shape, dtype=np.result_type(data, p))
    out[..., :n1, :n1] = data[..., :n1, :n1] - a12p @ data[..., n1:, :n1]
    out[..., :n1, n1:] = a12p
    out[..., n1:, :n1] = -p @ data[..., n1:, :n1]
    out[..., n1:, n1:] = p
    return out


def _gppt_stack(data: np.ndarray, n1: int, tol: ToleranceConfig, check=None) -> np.ndarray:
    """``gppt(...).data`` of each matrix of a validated ``(k, n, n)`` stack
    with partition (n1, n - n1), from one ``_pinv_stack`` of the pivot blocks.
    At n1 = 0 that stack is the transform itself (the same bits as the
    formula's), so no formula runs."""
    p = _pinv_stack(data[:, n1:, n1:], tol, check)
    return _gppt_formula(data, n1, p) if n1 else p


def gppt(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> BlockMatrix:
    """Generalized principal pivot transform on the (2,2) block.

    Blocks: [[A/A22, A12 A22^+], [-A22^+ A21, A22^+]].  Defined for every
    partitioned matrix; an involution when A22 is invertible.
    """
    return BlockMatrix._owned(a.n1, a.n2, _gppt_formula(a.data, a.n1, pinv(a.a22, tol)))


def jppt(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> BlockMatrix:
    """Signature-symmetrized pivot transform: J * gppt(A).

    Blocks: [[A/A22, A12 A22^+], [A22^+ A21, -A22^+]].  Maps Hermitian
    matrices to Hermitian matrices.
    """
    g = gppt(a, tol)
    j = signature_matrix(a.n1, a.n2)
    return BlockMatrix._owned(a.n1, a.n2, j @ g.data)


def hat_embedding(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> BlockMatrix:
    """The (n+n2)-dimensional matrix whose Schur complement is jppt(A).

    With partition (n, n2): the (1,1) block is diag(A11, 0), the
    off-diagonal blocks stack A12 over -A22^+ A22 and put A21 beside
    -A22 A22^+, and the pivot block is A22 itself.
    """
    n1, n2 = a.n1, a.n2
    n = n1 + n2
    p = pinv(a.a22, tol)
    dtype = np.result_type(a.data, p)
    top = np.zeros((n, n), dtype=dtype)
    top[:n1, :n1] = a.a11
    right = np.zeros((n, n2), dtype=dtype)
    right[:n1, :] = a.a12
    right[n1:, :] = -p @ a.a22
    bottom = np.zeros((n2, n), dtype=dtype)
    bottom[:, :n1] = a.a21
    bottom[:, n1:] = -a.a22 @ p
    return BlockMatrix._owned_blocks(n, n2, top, right, bottom, a.a22)


def _require_ep_pivot(a: BlockMatrix, tol: ToleranceConfig) -> BlockMatrix:
    """gppt(A), once A22 is certified to commute with its pseudoinverse."""
    g = gppt(a, tol)
    p = g.a22
    resid = max_abs(a.a22 @ p - p @ a.a22)
    if not resid <= tol.eq_tol:  # the is_ep test, which a NaN residual fails
        raise PreconditionError(
            "the (2,2) block must commute with its pseudoinverse", certificate=resid
        )
    return g


@dataclass(frozen=True)
class EpCongruence:
    """Congruence representation of the Schur complement for EP pivots.

    ``vector_map`` is V = [I; -A22^+ A21]; on success V^H A V reproduces
    A/A22 and V^H Im(A) V reproduces Im(A/A22), with the reported
    max-norm residuals.
    """

    vector_map: np.ndarray
    schur_identity_residual: float
    im_identity_residual: float


def ep_congruence_schur(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> EpCongruence:
    g = _require_ep_pivot(a, tol)
    n1 = a.n1
    v = np.zeros((a.n, n1), dtype=np.result_type(a.data, g.data))
    v[:n1, :] = np.eye(n1)
    v[n1:, :] = g.a21
    s = g.a11
    schur_resid = max_abs(s - adjoint(v) @ a.data @ v)
    im_resid = max_abs(imag_part(s) - adjoint(v) @ imag_part(a.data) @ v)
    return EpCongruence(v, schur_resid, im_resid)


@dataclass(frozen=True)
class ImCongruence:
    """Congruence carrying Im(A) to Im(jppt(A)) for EP pivots.

    ``congruence_map`` is W = [[I, 0], [-A22^+ A21, A22^+]]; ``residual``
    is the max-norm of Im(jppt(A)) - W^H Im(A) W.
    """

    congruence_map: np.ndarray
    residual: float


def jppt_im_congruence(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ImCongruence:
    g = _require_ep_pivot(a, tol)
    n1 = a.n1
    w = np.zeros((a.n, a.n), dtype=np.result_type(a.data, g.data))
    w[:n1, :n1] = np.eye(n1)
    w[n1:, :n1] = g.a21
    w[n1:, n1:] = g.a22
    lhs = imag_part(signature_matrix(n1, a.n2) @ g.data)
    rhs = adjoint(w) @ imag_part(a.data) @ w
    return ImCongruence(w, max_abs(lhs - rhs))


@dataclass(frozen=True)
class BlockDiagonalization:
    """Factors of [I,-X;0,I] A [I,0;-Y,I] = diag(W, Z).

    X = A12 A22^+, Y = A22^+ A21, W = A/A22, Z = A22.  ``residual`` is
    the max-norm defect of the identity above.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray
    residual: float

    def reassemble(self) -> np.ndarray:
        """[I,X;0,I] diag(W,Z) [I,0;Y,I] — recovers the original matrix."""
        n1 = self.w.shape[0]
        n2 = self.z.shape[0]
        n = n1 + n2
        dtype = np.result_type(self.w, self.z, self.x, self.y)
        left = np.eye(n, dtype=dtype)
        left[:n1, n1:] = self.x
        mid = np.zeros((n, n), dtype=dtype)
        mid[:n1, :n1] = self.w
        mid[n1:, n1:] = self.z
        right = np.eye(n, dtype=dtype)
        right[n1:, :n1] = self.y
        return left @ mid @ right


def block_diagonalize(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> BlockDiagonalization:
    """Generalized Aitken block diagonalization.

    Succeeds exactly when ker A22 is contained in ker A12 and ran A21 in
    ran A22, certified by the residuals A12 - A12 A22^+ A22 and
    A21 - A22 A22^+ A21.  Raises InclusionError naming the failed
    inclusion otherwise.
    """
    g = gppt(a, tol)
    p = g.a22
    cert_tol = tol.scaled_eq_tol(a.data)
    r12 = max_abs(a.a12 - a.a12 @ p @ a.a22)
    if r12 > cert_tol:
        raise InclusionError(
            "kernel of the (2,2) block is not contained in the kernel of the (1,2) block",
            which="ker22_in_ker12",
            certificate=r12,
        )
    r21 = max_abs(a.a21 - a.a22 @ p @ a.a21)
    if r21 > cert_tol:
        raise InclusionError(
            "range of the (2,1) block is not contained in the range of the (2,2) block",
            which="ran21_in_ran22",
            certificate=r21,
        )
    x = g.a12.copy()
    y = p @ a.a21
    w = g.a11.copy()
    z = a.a22.copy()
    n1, n2, n = a.n1, a.n2, a.n
    dtype = np.result_type(a.data, p)
    left = np.eye(n, dtype=dtype)
    left[:n1, n1:] = -x
    right = np.eye(n, dtype=dtype)
    right[n1:, :n1] = -y
    product = left @ a.data @ right
    target = np.zeros((n, n), dtype=dtype)
    target[:n1, :n1] = w
    target[n1:, n1:] = z
    residual = max_abs(product - target)
    return BlockDiagonalization(x, y, w, z, residual)
