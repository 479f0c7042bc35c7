"""Concavity of the symmetrized pivot transform and what follows from it.

On Hermitian PSD pairs whose pivot blocks share a kernel, the map
A -> jppt(A) is concave along the segment: the transform of a convex
combination dominates the combination of transforms.  Extracting the
(1,1) block gives concavity of the Schur complement; embedding a plain
PSD pair as pivot blocks bordered by zeros gives convexity of the
pseudoinverse.  Each operation returns the gap matrix with a PSD
verdict rather than a bare boolean, so failures are inspectable.

Every gap is evaluated on a concavity segment: the pair is checked once
when the segment is built, each endpoint transform is computed on first
use and kept, and only the mixed matrix is transformed at each t.  The
public functions build a segment for one t; the concavity suite builds
one per pair and evaluates it at every t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockMatrix, check_hermitian_block_pair
from .errors import InvalidInputError, PreconditionError
from .linalg import (
    check_hermitian_pair,
    check_square_pair,
    hermitian_part,
    kernel_basis,
    loewner_leq,
    pinv,
    subspace_eq,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .transforms import jppt, schur_complement

__all__ = [
    "GapResult",
    "jppt_concavity_gap",
    "schur_concavity_gap",
    "pinv_convexity_gap",
    "bordered_embedding",
]


@dataclass(frozen=True)
class GapResult:
    gap: np.ndarray
    psd: bool


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"t must lie in [0, 1], got {t}")
    return t


def _check_psd_equal_kernels(c, d, kc, kd, what: str, tol: ToleranceConfig) -> None:
    """Require C and D PSD, and equal kernels of KC and KD (named ``what``)."""
    for name, m in (("first", c), ("second", d)):
        if not loewner_leq(np.zeros_like(m), m, tol):
            raise PreconditionError(f"the {name} matrix must be positive semidefinite")
    if not subspace_eq(kernel_basis(kc, tol), kernel_basis(kd, tol), tol):
        raise PreconditionError(f"{what} must have equal kernels")


def _check_concavity_pair(a: BlockMatrix, b: BlockMatrix, tol: ToleranceConfig):
    check_hermitian_block_pair(a, b, tol)
    _check_psd_equal_kernels(a.data, b.data, a.a22, b.a22, "pivot blocks", tol)


def _psd_verdict(gap: np.ndarray, tol: ToleranceConfig) -> GapResult:
    """The gap's Hermitian part and whether it is PSD within psd_tol.

    ``hermitian_part`` raises on non-finite entries and returns an exactly
    Hermitian matrix, so one ``eigvalsh`` decides what ``loewner_leq(0, g)``
    would.
    """
    if not gap.size:
        return GapResult(gap, True)
    g = hermitian_part(gap)
    return GapResult(g, float(np.linalg.eigvalsh(g)[0]) >= -tol.psd_tol)


class _ConcavitySegment:
    """The segment (1-t)X + tY of a pair whose preconditions hold.

    Build it with ``of_blocks`` (block pair: jppt and Schur gaps) or
    ``of_matrices`` (plain pair: pinv gap); either checks the pair once.
    Each endpoint transform is computed on its first use and kept.  At
    each t the mixed matrix is transformed by the public ``jppt``,
    ``schur_complement`` or ``pinv``, the code under test.
    """

    def __init__(self, x, y, tol: ToleranceConfig):
        self._x = x
        self._y = y
        self._tol = tol
        self._ends: dict = {}

    @classmethod
    def of_blocks(cls, a: BlockMatrix, b: BlockMatrix, tol: ToleranceConfig) -> "_ConcavitySegment":
        _check_concavity_pair(a, b, tol)
        return cls(a, b, tol)

    @classmethod
    def of_matrices(cls, c, d, tol: ToleranceConfig) -> "_ConcavitySegment":
        ca, da = check_hermitian_pair(c, d, tol)
        _check_psd_equal_kernels(ca, da, ca, da, "the matrices", tol)
        return cls(ca, da, tol)

    def _at_ends(self, transform):
        """(transform(X), transform(Y)), computed once."""
        if transform not in self._ends:
            self._ends[transform] = (transform(self._x, self._tol), transform(self._y, self._tol))
        return self._ends[transform]

    def _mix(self, t: float) -> BlockMatrix:
        a, b = self._x, self._y
        return BlockMatrix(a.n1, a.n2, (1.0 - t) * a.data + t * b.data)

    def jppt_gap(self, t: float) -> GapResult:
        t = _check_t(t)
        mixed = jppt(self._mix(t), self._tol).data
        ja, jb = self._at_ends(jppt)
        return _psd_verdict(mixed - ((1.0 - t) * ja.data + t * jb.data), self._tol)

    def schur_gap(self, t: float) -> GapResult:
        t = _check_t(t)
        mixed = schur_complement(self._mix(t), self._tol)
        sa, sb = self._at_ends(schur_complement)
        return _psd_verdict(mixed - ((1.0 - t) * sa + t * sb), self._tol)

    def pinv_gap(self, t: float) -> GapResult:
        t = _check_t(t)
        mix = (1.0 - t) * self._x + t * self._y
        pc, pd = self._at_ends(pinv)
        gap = ((1.0 - t) * pc + t * pd) - pinv(hermitian_part(mix), self._tol)
        return _psd_verdict(gap, self._tol)


def jppt_concavity_gap(
    a: BlockMatrix, b: BlockMatrix, t: float, tol: ToleranceConfig = DEFAULT_TOL
) -> GapResult:
    """jppt((1-t)A + tB) - [(1-t) jppt(A) + t jppt(B)]; PSD under the
    preconditions (Hermitian PSD pair, shared pivot kernel)."""
    t = _check_t(t)
    return _ConcavitySegment.of_blocks(a, b, tol).jppt_gap(t)


def schur_concavity_gap(
    a: BlockMatrix, b: BlockMatrix, t: float, tol: ToleranceConfig = DEFAULT_TOL
) -> GapResult:
    """Schur-complement gap of the convex combination; equals the (1,1)
    block of the jppt gap."""
    t = _check_t(t)
    return _ConcavitySegment.of_blocks(a, b, tol).schur_gap(t)


def bordered_embedding(c, d) -> tuple[BlockMatrix, BlockMatrix]:
    """Embed square matrices as pivot blocks bordered by one zero row/column.

    The bordered matrices have partition (1, m) and zeros outside the
    pivot block, so their pivot transforms carry the pseudoinverses of C
    and D in the (negated) pivot position.
    """
    ca, da = check_square_pair(c, d)
    m = ca.shape[0]
    dtype = np.result_type(ca, da)
    top = np.zeros((m + 1, m + 1), dtype=dtype)
    bot = np.zeros((m + 1, m + 1), dtype=dtype)
    top[1:, 1:] = ca
    bot[1:, 1:] = da
    return BlockMatrix(1, m, top), BlockMatrix(1, m, bot)


def pinv_convexity_gap(c, d, t: float, tol: ToleranceConfig = DEFAULT_TOL) -> GapResult:
    """(1-t) C^+ + t D^+ - [(1-t)C + tD]^+ for Hermitian PSD C, D with
    equal kernels; PSD under the preconditions.

    Equals the pivot-block extraction of the jppt concavity gap of the
    bordered embedding of (C, D).
    """
    t = _check_t(t)
    return _ConcavitySegment.of_matrices(c, d, tol).pinv_gap(t)
