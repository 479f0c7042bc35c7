"""Concavity of the symmetrized pivot transform and what follows from it.

On Hermitian PSD pairs whose pivot blocks share a kernel, the map
A -> jppt(A) is concave along the segment: the transform of a convex
combination dominates the combination of transforms.  Extracting the
(1,1) block gives concavity of the Schur complement; embedding a plain
PSD pair as pivot blocks bordered by zeros gives convexity of the
pseudoinverse.  Each operation returns the gap matrix with a PSD
verdict rather than a bare boolean, so failures are inspectable.

Every gap is evaluated on a concavity segment: the pair is checked once
when the segment is built, and each gap kind is evaluated for a whole
vector of t at once.  A plain pair is the block pair whose pivot is the
whole matrix.  The endpoints and mixes of all the t values form one stack;
one stacked ``gppt``, whose SVD also gives the endpoints' pivot kernels,
serves every gap kind, and one stacked ``eigvalsh`` decides every gap of a
kind.  The public functions are the one-t case; the concavity suite
builds one segment per pair and evaluates each gap kind once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockMatrix, check_hermitian_block_pair
from .errors import InvalidInputError, PreconditionError
from .linalg import (
    SubspaceBasis,
    _hermitian,
    _psd_verdict,
    adjoint,
    check_hermitian_pair,
    check_square_pair,
    subspace_eq,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .transforms import _gppt_stack, signature_matrix

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


def _check_psd(c: np.ndarray, d: np.ndarray, tol: ToleranceConfig) -> None:
    """Require the validated Hermitian arrays C and D to be PSD; a failure is
    certified by its smallest eigenvalue."""
    for name, m in (("first", c), ("second", d)):
        w = np.linalg.eigvalsh(_hermitian(m))
        if not _psd_verdict(w, tol):
            raise PreconditionError(f"the {name} matrix must be positive semidefinite", float(w[0]))


def _weights(ts) -> np.ndarray:
    """The t values, each checked, shaped (k, 1, 1) to scale a stack."""
    return np.array([_check_t(t) for t in ts], dtype=np.float64).reshape(-1, 1, 1)


def _psd_verdicts(gaps: np.ndarray, tol: ToleranceConfig) -> list[GapResult]:
    """Each gap's Hermitian part and whether it is PSD within psd_tol.

    The Hermitian parts are exact, so one stacked ``eigvalsh`` decides what
    ``loewner_leq(0, g)`` would for each gap.
    """
    if not np.isfinite(gaps).all():
        raise InvalidInputError("matrix contains non-finite entries")
    herm = _hermitian(gaps)
    psd = _psd_verdict(np.linalg.eigvalsh(herm), tol)
    return [GapResult(g, bool(v)) for g, v in zip(herm, psd)]


class _ConcavitySegment:
    """The segment (1-t)X + tY of a Hermitian PSD pair with split n1.

    ``of_blocks`` keeps a block pair's arrays and n1, ``of_matrices`` a
    plain pair with n1 = 0; each checks that the pair is Hermitian and PSD.
    A gap method takes a sequence of t, checks every t first, then reads
    the gppt stack of [X, Y, mix(t_1), ...] (one SVD of the pivot blocks,
    which requires equal pivot kernels off its rows 0 and 1), and returns
    one GapResult per t, equal to the public one-t function's.  Every gap
    kind reads the one stack: the jppt gaps are J times it, the Schur gaps
    its (1,1) blocks and the pseudoinverse gaps its (2,2) blocks, the
    pivots' pseudoinverses.  ``what`` names the pair in the kernel error.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, n1: int, what: str, tol: ToleranceConfig):
        self._x = x
        self._y = y
        self._n1 = n1
        self._what = what
        self._tol = tol
        self._gppt = (None, None)  # (weights, gppt stack) of the last gaps

    @classmethod
    def of_blocks(cls, a: BlockMatrix, b: BlockMatrix, tol: ToleranceConfig) -> "_ConcavitySegment":
        check_hermitian_block_pair(a, b, tol)
        _check_psd(a.data, b.data, tol)
        return cls(a.data, b.data, a.n1, "pivot blocks", tol)

    @classmethod
    def of_matrices(cls, c, d, tol: ToleranceConfig) -> "_ConcavitySegment":
        ca, da = check_hermitian_pair(c, d, tol)
        _check_psd(ca, da, tol)
        return cls(ca, da, 0, "the matrices", tol)

    def bordered(self) -> "_ConcavitySegment":
        """The segment of the bordered embedding of this segment's pivot
        blocks, unchecked: they are principal blocks of a checked PSD pair,
        and bordering by zeros keeps them PSD.  Its gaps and
        ``pinv_gaps`` factor the same pivots."""
        n1 = self._n1
        x, y = _bordered(self._x[n1:, n1:], self._y[n1:, n1:])
        return _ConcavitySegment(x, y, 1, self._what, self._tol)

    def _require_equal_kernels(self, vh: np.ndarray, ranks: np.ndarray) -> None:
        """Equal kernels of the pivot blocks of the stack's first two
        matrices, X and Y, read off the stacked SVD's ``vh`` and ranks."""
        kx, ky = (SubspaceBasis(vh.shape[-1], adjoint(vh[i, ranks[i]:])) for i in (0, 1))
        if not subspace_eq(kx, ky, self._tol):
            raise PreconditionError(f"{self._what} must have equal kernels")

    def _transformed(self, w: np.ndarray) -> np.ndarray:
        """gppt of the stack [X, Y, mixes], kept for the next call with the
        same weights."""
        kept_w, kept = self._gppt
        if kept_w is None or not np.array_equal(kept_w, w):
            x, y = self._x, self._y
            stack = np.concatenate([x[None], y[None], (1.0 - w) * x + w * y])
            kept = _gppt_stack(stack, self._n1, self._tol, self._require_equal_kernels)
            self._gppt = (w, kept)
        return kept

    def _block_gaps(self, w: np.ndarray, out: np.ndarray) -> list[GapResult]:
        """Gaps from a transformed stack [X, Y, mixes]: at each t, the mix's
        part minus the combination of the endpoints' parts."""
        return _psd_verdicts(out[2:] - ((1.0 - w) * out[0] + w * out[1]), self._tol)

    def jppt_gaps(self, ts) -> list[GapResult]:
        w = _weights(ts)
        j = signature_matrix(self._n1, self._x.shape[0] - self._n1)
        return self._block_gaps(w, j @ self._transformed(w))

    def schur_gaps(self, ts) -> list[GapResult]:
        w = _weights(ts)
        n1 = self._n1
        return self._block_gaps(w, self._transformed(w)[:, :n1, :n1])

    def pinv_gaps(self, ts) -> list[GapResult]:
        w = _weights(ts)
        n1 = self._n1
        p = self._transformed(w)[:, n1:, n1:]
        return _psd_verdicts(((1.0 - w) * p[0] + w * p[1]) - p[2:], self._tol)


def jppt_concavity_gap(
    a: BlockMatrix, b: BlockMatrix, t: float, tol: ToleranceConfig = DEFAULT_TOL
) -> GapResult:
    """jppt((1-t)A + tB) - [(1-t) jppt(A) + t jppt(B)]; PSD under the
    preconditions (Hermitian PSD pair, shared pivot kernel)."""
    t = _check_t(t)
    return _ConcavitySegment.of_blocks(a, b, tol).jppt_gaps([t])[0]


def schur_concavity_gap(
    a: BlockMatrix, b: BlockMatrix, t: float, tol: ToleranceConfig = DEFAULT_TOL
) -> GapResult:
    """Schur-complement gap of the convex combination; equals the (1,1)
    block of the jppt gap."""
    t = _check_t(t)
    return _ConcavitySegment.of_blocks(a, b, tol).schur_gaps([t])[0]


def _bordered(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New arrays of C and D, square of equal size, each bordered by one
    leading zero row and column, in their common dtype."""
    m = c.shape[0]
    ec, ed = (np.zeros((m + 1, m + 1), dtype=np.result_type(c, d)) for _ in range(2))
    ec[1:, 1:] = c
    ed[1:, 1:] = d
    return ec, ed


def bordered_embedding(c, d) -> tuple[BlockMatrix, BlockMatrix]:
    """Embed square matrices as pivot blocks bordered by one zero row/column.

    The bordered matrices have partition (1, m) and zeros outside the
    pivot block, so their pivot transforms carry the pseudoinverses of C
    and D in the (negated) pivot position.
    """
    ca, da = check_square_pair(c, d)
    ec, ed = _bordered(ca, da)
    m = ca.shape[0]
    return BlockMatrix._owned(1, m, ec), BlockMatrix._owned(1, m, ed)


def pinv_convexity_gap(c, d, t: float, tol: ToleranceConfig = DEFAULT_TOL) -> GapResult:
    """(1-t) C^+ + t D^+ - [(1-t)C + tD]^+ for Hermitian PSD C, D with
    equal kernels; PSD under the preconditions.

    Equals the pivot-block extraction of the jppt concavity gap of the
    bordered embedding of (C, D).
    """
    t = _check_t(t)
    return _ConcavitySegment.of_matrices(c, d, tol).pinv_gaps([t])[0]
