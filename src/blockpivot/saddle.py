"""Variational principles attached to the pivot transform.

For Hermitian A with PSD pivot block and the kernel inclusion
ker A22 <= ker A12, the Schur complement is the value matrix of the
partial quadratic minimization over x2, and the symmetrized pivot
transform is the value matrix of the same minimization with a linear
coupling to y2.  The saddle solver returns the full solution set of the
mixed block system (x1, y2 given; y1, x2 sought), which exists without
any semidefiniteness assumption when the range and kernel inclusions
hold.

Each public routine builds a private saddle instance that factors A once
(one SVD of A22 gives its pseudoinverse and kernel basis) and certifies
the minimization hypotheses once; the saddle suite asks one instance for
its solution, its minimum and every objective value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockmat import BlockMatrix
from .errors import InvalidInputError, NoSolutionError, PreconditionError
from .linalg import (
    SubspaceBasis,
    _pinv_of_svd,
    _svd_factor,
    adjoint,
    as_vector,
    loewner_leq,
    max_abs,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .transforms import _gppt_formula, _require_inclusions, signature_matrix

__all__ = [
    "AffineSet",
    "MinimizationResult",
    "SaddleSolution",
    "objective",
    "schur_min",
    "ppt_min",
    "solve_saddle",
    "reconstruct_jppt_from_minima",
]


@dataclass(frozen=True)
class AffineSet:
    """particular + span(kernel): a minimizer or solution set."""

    particular: np.ndarray
    kernel: SubspaceBasis

    def __post_init__(self):
        if self.particular.ndim != 1 or self.particular.shape[0] != self.kernel.ambient_dim:
            raise InvalidInputError(
                f"particular vector length {self.particular.shape} does not match "
                f"ambient dimension {self.kernel.ambient_dim}"
            )

    @property
    def ambient_dim(self) -> int:
        return self.kernel.ambient_dim

    def contains(self, v, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        vec = as_vector(v, self.ambient_dim, "candidate")
        delta = vec - self.particular
        resid = delta - self.kernel.projector() @ delta
        return float(np.linalg.norm(resid)) <= tol.scaled_eq_tol(np.linalg.norm(self.particular))

    def point(self, coefficients) -> np.ndarray:
        """particular + kernel @ coefficients."""
        coeff = np.asarray(coefficients)
        if coeff.shape != (self.kernel.dim,):
            raise InvalidInputError(
                f"expected {self.kernel.dim} coefficients, got shape {coeff.shape}"
            )
        if self.kernel.dim == 0:
            return self.particular.copy()
        return self.particular + self.kernel.vectors @ coeff


@dataclass(frozen=True)
class MinimizationResult:
    value: float
    minimizers: AffineSet


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of the mixed block system A [x1; x2] = [y1; y2].

    ``y1`` is determined uniquely; ``x2_set`` collects every admissible
    x2.  ``packaging_residual`` reports how well jppt(A) [x1; y2] equals
    [y1; -particular_x2], the closed-form packaging of the solution.
    """

    y1: np.ndarray
    x2_set: AffineSet
    packaging_residual: float

    @property
    def particular_x2(self) -> np.ndarray:
        return self.x2_set.particular


def _split_z(a: BlockMatrix, x1, y2) -> tuple[np.ndarray, np.ndarray]:
    return (
        as_vector(x1, a.n1, "x1"),
        as_vector(y2, a.n2, "y2"),
    )


def _real_quadratic(m: np.ndarray, v: np.ndarray, tol: ToleranceConfig, what: str) -> float:
    q = complex(np.vdot(v, m @ v))
    if abs(q.imag) > tol.scaled_eq_tol(abs(q)):
        raise PreconditionError(f"{what} is not real", certificate=abs(q.imag))
    return q.real


def _ppt_min_value(jg: np.ndarray, z: np.ndarray, tol: ToleranceConfig) -> float:
    """(1/2)(z, jppt(A) z), given jg = jppt(A) of a certified A."""
    return 0.5 * _real_quadratic(jg, z, tol, "the pivot-transform quadratic form")


class _SaddleInstance:
    """A partitioned matrix A factored once for the variational routines.

    On first use it keeps one SVD of A22, reads A22^+ and the kernel basis
    of A22 off it as ``pinv`` and ``kernel_basis`` do, builds gppt(A) from
    A22^+, and certifies the minimization hypotheses once.  The public
    routines build one instance per call and raise the same errors in the
    same order; the saddle suite asks one instance for its solution, its
    minimum and every objective value.
    """

    def __init__(self, a: BlockMatrix, tol: ToleranceConfig):
        self._a = a
        self._tol = tol
        self._certified = False

    @cached_property
    def _svd(self):
        return _svd_factor(self._a.a22, self._tol)

    @cached_property
    def _p(self) -> np.ndarray:
        return _pinv_of_svd(*self._svd)

    @cached_property
    def _g(self) -> BlockMatrix:
        """gppt(A), from the kept A22^+."""
        a = self._a
        return BlockMatrix._owned(a.n1, a.n2, _gppt_formula(a.data, a.n1, self._p))

    @cached_property
    def _kernel(self) -> SubspaceBasis:
        _, _, vh, r = self._svd
        return SubspaceBasis(self._a.n2, adjoint(vh[r:]))

    def certify_min(self) -> BlockMatrix:
        """gppt(A), once the minimization hypotheses are certified: A
        Hermitian, A22 PSD and ker A22 <= ker A12 (an InclusionError)."""
        a, tol = self._a, self._tol
        if not self._certified:
            if not a.is_hermitian(tol):
                raise PreconditionError("the matrix must be Hermitian")
            if not loewner_leq(np.zeros_like(a.a22), a.a22, tol):
                raise PreconditionError("the pivot block must be positive semidefinite")
            # the kernel inclusion only (the range one is its adjoint for Hermitian
            # A): a (2,1) block with no columns makes the range test vacuous
            _require_inclusions(a.a12, a.a21[:, :0], a.a22, self._g.a22, tol.scaled_eq_tol(a.data))
            self._certified = True
        return self._g

    def objective(self, x1, x2, y2) -> float:
        a, tol = self._a, self._tol
        x1v = as_vector(x1, a.n1, "x1")
        x2v = as_vector(x2, a.n2, "x2")
        y2v = as_vector(y2, a.n2, "y2")
        quad = _real_quadratic(a.data, np.concatenate([x1v, x2v]), tol, "the quadratic form")
        proj = a.a22 @ self._p
        coupling = complex(np.vdot(y2v, proj @ x2v))
        return 0.5 * quad - coupling.real

    def schur_min(self, x1) -> MinimizationResult:
        g = self.certify_min()
        x1v = as_vector(x1, self._a.n1, "x1")
        value = _real_quadratic(g.a11, x1v, self._tol, "the Schur quadratic form")
        particular = g.a21 @ x1v
        return MinimizationResult(value, AffineSet(particular, self._kernel))

    def ppt_min(self, x1, y2) -> MinimizationResult:
        a = self._a
        g = self.certify_min()
        x1v, y2v = _split_z(a, x1, y2)
        z = np.concatenate([x1v, y2v])
        value = _ppt_min_value(signature_matrix(a.n1, a.n2) @ g.data, z, self._tol)
        particular = g.a21 @ x1v + g.a22 @ y2v
        return MinimizationResult(value, AffineSet(particular, self._kernel))

    def solve(self, x1, y2) -> SaddleSolution:
        a, tol = self._a, self._tol
        x1v, y2v = _split_z(a, x1, y2)
        g = self._g
        p = g.a22
        _require_inclusions(a.a12, a.a21, a.a22, p, tol.scaled_eq_tol(a.data))
        rhs2 = y2v - a.a21 @ x1v
        unreachable = rhs2 - a.a22 @ (p @ rhs2)
        defect = float(np.linalg.norm(unreachable))
        if defect > tol.scaled_eq_tol(float(np.linalg.norm(y2v)) + a.norm_max()):
            raise NoSolutionError(
                "y2 - A21 x1 lies outside the range of the pivot block; no solution exists",
                certificate=defect,
            )
        y1 = g.a11 @ x1v + a.a12 @ (p @ y2v)
        particular = g.a21 @ x1v + p @ y2v
        x2_set = AffineSet(particular, self._kernel)
        z = np.concatenate([x1v, y2v])
        packaged = (signature_matrix(a.n1, a.n2) @ g.data) @ z
        expected = np.concatenate([y1, -particular])
        packaging_residual = max_abs(packaged - expected)
        return SaddleSolution(y1, x2_set, packaging_residual)


def objective(a: BlockMatrix, x1, x2, y2, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """(1/2)(z, Az) - Re(y2, A22 A22^+ x2) with z = [x1; x2].

    The quadratic term must be real (A Hermitian); an imaginary part
    beyond eq_tol raises.
    """
    return _SaddleInstance(a, tol).objective(x1, x2, y2)


def schur_min(a: BlockMatrix, x1, tol: ToleranceConfig = DEFAULT_TOL) -> MinimizationResult:
    """Minimize (z, Az) over x2 with the first block fixed at x1.

    Value: (x1, (A/A22) x1).  Minimizers: -A22^+ A21 x1 plus the kernel
    of the pivot block.  Needs A Hermitian, PSD pivot block, and the
    kernel inclusion.
    """
    return _SaddleInstance(a, tol).schur_min(x1)


def ppt_min(a: BlockMatrix, x1, y2, tol: ToleranceConfig = DEFAULT_TOL) -> MinimizationResult:
    """Minimize the coupled objective over x2.

    Value: (1/2)([x1; y2], jppt(A) [x1; y2]).  Minimizers:
    -A22^+ A21 x1 + A22^+ y2 plus the kernel of the pivot block.  Same
    preconditions as schur_min; at y2 = 0 the value is half the
    schur_min value and the minimizer sets coincide.
    """
    return _SaddleInstance(a, tol).ppt_min(x1, y2)


def solve_saddle(a: BlockMatrix, x1, y2, tol: ToleranceConfig = DEFAULT_TOL) -> SaddleSolution:
    """All (y1, x2) with A11 x1 + A12 x2 = y1 and A21 x1 + A22 x2 = y2.

    Requires ran A21 <= ran A22 and ker A22 <= ker A12 (certified by
    residuals; no semidefiniteness is assumed).  For the given y2 a
    solution exists iff y2 - A21 x1 lies in ran A22; otherwise a
    NoSolutionError carries the unreachable component's norm.  The
    unique y1 is (A/A22) x1 + A12 A22^+ y2, and the x2 solutions form
    -A22^+ A21 x1 + A22^+ y2 plus ker A22.
    """
    return _SaddleInstance(a, tol).solve(x1, y2)


def reconstruct_jppt_from_minima(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Recover jppt(A) entrywise from minimization values by polarization.

    Takes the ppt_min value on basis vectors z = [x1; y2] and their
    pairwise (and, over the complex field, imaginary-unit) combinations;
    the doubled values are the quadratic form of the unique self-adjoint
    representing matrix, which this reassembles.  The minimization
    hypotheses are certified, and A factored, once per call.
    """
    n = a.n
    complex_field = a.field_tag == "complex"
    dtype = np.complex128 if complex_field else np.float64
    m = np.zeros((n, n), dtype=dtype)
    if n == 0:
        return m
    jg = signature_matrix(a.n1, a.n2) @ _SaddleInstance(a, tol).certify_min().data

    def q(z: np.ndarray) -> float:
        return 2.0 * _ppt_min_value(jg, z, tol)

    basis = np.eye(n, dtype=dtype)
    diag = np.array([q(basis[i]) for i in range(n)])
    for i in range(n):
        m[i, i] = diag[i]
    for i in range(n):
        for j in range(i + 1, n):
            re = (q(basis[i] + basis[j]) - diag[i] - diag[j]) / 2.0
            if complex_field:
                im = -(q(basis[i] + 1j * basis[j]) - diag[i] - diag[j]) / 2.0
                m[i, j] = re + 1j * im
                m[j, i] = re - 1j * im
            else:
                m[i, j] = re
                m[j, i] = re
    return m
