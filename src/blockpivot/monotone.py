"""Ordering checks for partitioned Hermitian matrices.

The central report evaluates three conditions for a Hermitian pair
A <= B — the symmetrized pivot transforms stay ordered, the pivot-block
pseudoinverses reverse order, and the pivot-block segment keeps constant
rank — by independent algorithms, together with the Schur-complement
ordering these conditions imply.  The three are equivalent in exact
arithmetic, so the report carries a consistency verdict.

This module decides no zero of its own: kernels, ranks, negative
eigenvalue counts and the singularity of the pencil come from ``linalg``'s
zero test (|eigenvalue| <= rank_rel_tol * max|eigenvalue|).  Each pivot
block is factored once, by one eigen-split, and every pseudoinverse, rank
and singularity verdict is read off an eigen-split (only
``albert_psd_conditions`` runs an SVD), so the three criteria call the
same pivot eigenvalues zero by construction.  ``psd_tol`` is the
slack of the semidefinite order only, applied by ``linalg._psd_verdict``.

Each public order function checks its pair once and reads its verdict
off a private order pair: one eigen-split per pivot block, gppt of each
operand built from it, and one eigvalsh of the pivot difference D - C,
which decides both C <= D and the grid oracles' precondition.  A block
pair is checked as a whole, and its pivot routines work on the Hermitian
parts of A22 and B22, so every order function accepts the same block
pairs.  The monotonicity suite reads all of its verdicts off one pair, so
each of its pairs is checked and factored once.

Grid oracles are provided as independent cross-checks of the
deterministic verdicts.  They require C <= D or D <= C, certified by one
eigvalsh of D - C (PreconditionError otherwise), so every sorted
eigenvalue of (1-t)C + tD is monotone in t (Weyl); one stacked eigvalsh
over the grid then shows every crossing as a rank drop at a sample or a
sign change between neighbouring samples.  In exact arithmetic that
monotonicity makes the endpoint inertias sufficient on their own, so the
grid cross-checks the code path and the rounding, not the theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockmat import BlockMatrix, check_hermitian_block_pair
from .errors import InvalidInputError, PreconditionError
from .linalg import (
    SubspaceBasis,
    _herm_split,
    _hermitian,
    _loewner_leq,
    _nonzero,
    _pinv_of_split,
    _psd_verdict,
    adjoint,
    check_hermitian_pair,
    hermitian_part,
    loewner_leq,
    max_abs,
    subspace_eq,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .transforms import _gppt_formula, gppt, signature_matrix

__all__ = [
    "RankPathReport",
    "MonotonicityReport",
    "AlbertConditions",
    "PinvMonotoneResult",
    "SpectralPathResult",
    "OrderConditions",
    "SchurDifferenceResult",
    "albert_psd_conditions",
    "pinv_monotone",
    "spectral_path_check",
    "rank_path_constant",
    "rank_path_sampled",
    "det_sign_path_check",
    "ppt_monotonicity_report",
    "ppt_order_conditions",
    "schur_difference_identity",
]


# ---------------------------------------------------------------------------
# Grid-oracle helpers


def _segment_spectra(ca: np.ndarray, da: np.ndarray, tol: ToleranceConfig, points: int):
    """Sorted eigenvalues of (1-t)C + tD at ``points`` uniform t, from one
    stacked eigvalsh, with each sample's rank under the zero test.

    Returns (ts, eigenvalues of shape (points, m), ranks, nonzero mask).
    """
    if points < 1:
        raise InvalidInputError(f"points must be at least 1, got {points}")
    ts = np.linspace(0.0, 1.0, points)
    return (ts, *_spectra_at(ca, da, tol, ts))


def _spectra_at(ca: np.ndarray, da: np.ndarray, tol: ToleranceConfig, ts: np.ndarray):
    """Sorted eigenvalues of (1-t)C + tD at each t of ``ts``, from one
    stacked eigvalsh, with each sample's rank and nonzero mask."""
    stack = (1.0 - ts)[:, None, None] * _hermitian(ca) + ts[:, None, None] * _hermitian(da)
    w = np.linalg.eigvalsh(stack)
    nz = _nonzero(w, tol)
    return w, nz.sum(axis=1), nz


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class RankPathReport:
    """Verdict on whether rank((1-t)C + tD) is constant on [0, 1].

    ``method`` records which algorithm decided: 'kernel_inertia' (the
    kernels of the endpoints differ), 'spectral' (eigenvalues of the
    compressed pencil), or 'sampled' (grid oracle).  ``witness_t`` is a
    point where the rank deviates, present iff ``constant`` is false; for
    'sampled' it is the first grid point whose rank is below the largest
    sampled rank, or the right end of the first grid cell across which an
    eigenvalue changes sign.  ``common_rank`` is present iff ``constant``
    is true.
    """

    constant: bool
    common_rank: int | None
    witness_t: float | None
    method: str
    endpoint_ranks: tuple[int, int]


@dataclass(frozen=True)
class MonotonicityReport:
    """Evaluated ordering conditions for a Hermitian pair A <= B.

    ppt_ordered: the symmetrized pivot transforms satisfy
    jppt(A) <= jppt(B).  pinv_reversed: the pivot-block pseudoinverses
    satisfy B22^+ <= A22^+.  rank_path: constant-rank verdict for the
    pivot-block segment.  schur_ordered: A/A22 <= B/B22.  The three
    conditions are equivalent and each implies schur_ordered, so
    ``consistent`` is true iff they agree and (when they hold)
    schur_ordered holds too.  When A <= B fails, hypothesis_ok is false
    and the fields are diagnostic only.
    """

    hypothesis_ok: bool
    ppt_ordered: bool
    pinv_reversed: bool
    rank_path: RankPathReport
    schur_ordered: bool
    consistent: bool


@dataclass(frozen=True)
class AlbertConditions:
    """The three block conditions equivalent to 0 <= A for Hermitian A."""

    psd22: bool
    ker_incl: bool
    psd_schur: bool
    overall: bool


@dataclass(frozen=True)
class PinvMonotoneResult:
    """Whether C <= D forces D^+ <= C^+: kernels equal and negative
    eigenvalue counts equal."""

    holds: bool
    ker_equal: bool
    inertia_equal: bool


@dataclass(frozen=True)
class SpectralPathResult:
    """Eigenvalues of D^-1 C and the derived no-crossing verdict.

    no_crossing is true when C is nonsingular under the zero test and
    every eigenvalue has positive real part; equivalently det[(1-t)C + tD]
    never vanishes on [0, 1].  real_spectrum flags imaginary parts within
    eq_tol (always the case when C <= D).
    """

    no_crossing: bool
    real_spectrum: bool
    eigvals: tuple


@dataclass(frozen=True)
class OrderConditions:
    """Block conditions equivalent to jppt(A) <= jppt(B)."""

    pinv_leq: bool
    ker_incl: bool
    residual_psd: bool
    overall: bool


@dataclass(frozen=True)
class SchurDifferenceResult:
    """Both closed forms for the Schur complement of a difference.

    lhs is (B-A)/(B-A)22; rhs subtracts the correction term built from
    (A22^+ - B22^+)^+, rhs_alt the one built from
    A22 + A22 (B22 - A22)^+ A22.  inclusions_ok reports the kernel and
    range inclusions that accompany the identity.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    rhs_alt: np.ndarray
    residual: float
    residual_alt: float
    inclusions_ok: bool


# ---------------------------------------------------------------------------
# The order pair


class _OrderPair:
    """A Hermitian pair, checked once, whose order verdicts share their
    factorizations.

    Build it with ``of_blocks`` (a block pair A, B; the pivot routines
    work on C and D, the Hermitian parts of A22 and B22) or ``of_pivots``
    (a plain pair C, D).  Either checks its pair once and no pivot routine
    checks again.  On first use it keeps the eigen-split of C and of D
    (one eigh each), gppt of each operand with its pivot pseudoinverse read
    off that split, and the eigenvalues of D - C (one eigvalsh), which
    decide both C <= D and the grid oracles' precondition.  Each public
    order function checks its inputs and reads one verdict off a new pair;
    the monotonicity suite reads all of its verdicts off one pair.
    """

    def __init__(self, a, b, c: np.ndarray, d: np.ndarray, tol: ToleranceConfig):
        self._a = a
        self._b = b
        self._c = c
        self._d = d
        self._tol = tol

    @classmethod
    def of_blocks(cls, a: BlockMatrix, b: BlockMatrix, tol: ToleranceConfig) -> "_OrderPair":
        check_hermitian_block_pair(a, b, tol)
        return cls(a, b, _hermitian(a.a22), _hermitian(b.a22), tol)

    @classmethod
    def of_pivots(cls, c, d, tol: ToleranceConfig) -> "_OrderPair":
        ca, da = check_hermitian_pair(c, d, tol)
        return cls(None, None, ca, da, tol)

    @cached_property
    def splits(self):
        """The eigen-splits (kernel, support, nonzero eigenvalues) of C and D."""
        return _herm_split(self._c, self._tol), _herm_split(self._d, self._tol)

    @cached_property
    def transforms(self) -> tuple[BlockMatrix, BlockMatrix]:
        """gppt(A) and gppt(B), each pivot pseudoinverse V diag(1/w) V^H read
        off the pivot's eigen-split, so the transforms and the rank path
        call the same eigenvalues zero and no SVD runs."""
        return tuple(
            BlockMatrix._owned(x.n1, x.n2, _gppt_formula(x.data, x.n1, _pinv_of_split(supp, w)))
            for x, (_, supp, w) in zip((self._a, self._b), self.splits)
        )

    @cached_property
    def kernels_equal(self) -> bool:
        (ker_c, _, _), (ker_d, _, _) = self.splits
        m = self._c.shape[0]
        return subspace_eq(SubspaceBasis(m, ker_c), SubspaceBasis(m, ker_d), self._tol)

    @cached_property
    def step(self) -> np.ndarray:
        """Sorted eigenvalues of D - C, formed as ``loewner_leq(C, D)`` forms it."""
        return np.linalg.eigvalsh(hermitian_part(self._d - self._c))

    def _pivots_ordered(self) -> bool:
        """C <= D within psd_tol."""
        return bool(_psd_verdict(self.step, self._tol))

    def _step_semidefinite(self) -> bool:
        """D - C is PSD or NSD within psd_tol, so every sorted eigenvalue of
        the segment is monotone in t."""
        w = self.step
        return bool(_psd_verdict(w, self._tol) or _psd_verdict(-w[::-1], self._tol))

    def _require_semidefinite_step(self) -> None:
        """The grid oracles' precondition."""
        if not self._step_semidefinite():
            raise PreconditionError("the grid oracles require C <= D or D <= C")

    @cached_property
    def pinv_reversed(self) -> bool:
        """B22^+ <= A22^+, read off the two transforms."""
        ga, gb = self.transforms
        return _loewner_leq(_hermitian(gb.a22), _hermitian(ga.a22), self._tol)

    @cached_property
    def difference(self):
        """Terms shared by the order conditions and the difference identity.

        (dp = A22^+ - B22^+, dp^+, g = B12 B22^+ - A12 A22^+,
        gr = B22^+ B21 - A22^+ A21, B/B22 - A/A22), dp^+ off dp's eigen-split.
        gppt's (2,1) block is -A22^+ A21, hence the sign of gr's terms.
        """
        ga, gb = self.transforms
        dp = hermitian_part(ga.a22 - gb.a22)
        _, supp, w = _herm_split(dp, self._tol)
        return dp, _pinv_of_split(supp, w), gb.a12 - ga.a12, ga.a21 - gb.a21, gb.a11 - ga.a11

    def report(self) -> MonotonicityReport:
        a, b, tol = self._a, self._b, self._tol
        hypothesis_ok = _loewner_leq(a.data, b.data, tol)
        # gppt's blocks are A/A22 and A22^+, and J gppt(A) is jppt(A).
        ga, gb = self.transforms
        j = signature_matrix(a.n1, a.n2)
        ppt_ordered = _loewner_leq(_hermitian(j @ ga.data), _hermitian(j @ gb.data), tol)
        pinv_reversed = self.pinv_reversed
        path = self.rank_path(require_order=False)
        schur_ordered = _loewner_leq(_hermitian(ga.a11), _hermitian(gb.a11), tol)
        agree = ppt_ordered == pinv_reversed == path.constant
        consistent = agree and ((not ppt_ordered) or schur_ordered)
        return MonotonicityReport(
            hypothesis_ok, ppt_ordered, pinv_reversed, path, schur_ordered, consistent
        )

    def order_conditions(self) -> OrderConditions:
        dp, dp_pinv, g, gr, schur_diff = self.difference
        pinv_leq = self.pinv_reversed
        ker_resid = max_abs(g - g @ dp_pinv @ dp)
        ker_incl = ker_resid <= self._tol.scaled_eq_tol(g, dp)
        s = hermitian_part(schur_diff - g @ dp_pinv @ gr)
        residual_psd = _loewner_leq(np.zeros_like(s), s, self._tol)
        return OrderConditions(
            pinv_leq, ker_incl, residual_psd, pinv_leq and ker_incl and residual_psd
        )

    def pinv_monotone(self) -> PinvMonotoneResult:
        if not self._pivots_ordered():
            raise PreconditionError("requires C <= D in the semidefinite order")
        (_, _, w_c), (_, _, w_d) = self.splits
        ker_equal = self.kernels_equal
        inertia_equal = bool(np.sum(w_c < 0.0) == np.sum(w_d < 0.0))
        return PinvMonotoneResult(ker_equal and inertia_equal, ker_equal, inertia_equal)

    def rank_path(self, require_order: bool) -> RankPathReport:
        if require_order and not self._pivots_ordered():
            raise PreconditionError("rank path analysis requires C <= D")
        m = self._c.shape[0]
        (ker_c, _, _), (ker_d, supp_d, _) = self.splits
        r0 = m - ker_c.shape[1]
        r1 = m - ker_d.shape[1]
        if not self.kernels_equal:
            witness = 0.0 if r0 < r1 else 1.0
            if r0 == r1:
                witness = self._equal_rank_witness(r0)
                if witness is None:
                    return RankPathReport(True, r0, None, "kernel_inertia", (r0, r1))
            return RankPathReport(False, None, witness, "kernel_inertia", (r0, r1))
        if r1 == 0:
            return RankPathReport(True, 0, None, "spectral", (0, 0))
        cr = _hermitian(adjoint(supp_d) @ self._c @ supp_d)
        dr = _hermitian(adjoint(supp_d) @ self._d @ supp_d)
        lam = np.linalg.eigvals(np.linalg.solve(dr, cr)).real
        if np.all(lam > 0.0):
            return RankPathReport(True, r0, None, "spectral", (r0, r1))
        # (1-t)C + tD = D((1-t)D^-1 C + tI) is singular at t = lam/(lam-1),
        # which decreases in lam, so the largest crossing lam gives the first t
        top = float(lam[lam <= 0.0].max())
        witness = max(0.0, top / (top - 1.0))
        return RankPathReport(False, None, witness, "spectral", (r0, r1))

    def _equal_rank_witness(self, r: int) -> float | None:
        """A t where rank((1-t)C + tD) is not r, for kernels that differ at
        equal endpoint ranks r, or None if there is none: the three cases
        of ``rank_path_constant``'s route (i)."""
        c, d, tol = self._c, self._d, self._tol
        m = c.shape[0]
        ts, w, ranks, _ = _segment_spectra(c, d, tol, m + 3)
        off = np.flatnonzero(ranks[1:-1] != r)
        if off.size:
            return float(ts[1 + off[0]])
        if self._step_semidefinite():
            mags = -np.sort(-np.abs(w[1:-1]), axis=1)
            return float(ts[1 + np.argmax(mags[:, r] / mags[:, 0])])
        # Q^H ((1-t)C + tD) Q = diag(w_s) + (t - t_s) Q^H (D - C) Q, Q the
        # support of the middle sample, is singular at t = t_s - 1/mu for
        # each eigenvalue mu of diag(1/w_s) Q^H (D - C) Q
        t_s = ts[(m + 2) // 2]
        _, q, w_s = _herm_split((1.0 - t_s) * c + t_s * d, tol)
        mu = np.linalg.eigvals((adjoint(q) @ (d - c) @ q) / w_s[:, None])
        roots = (t_s - 1.0 / mu[mu != 0.0]).real
        roots = np.sort(roots[(roots > 0.0) & (roots < 1.0)])
        _, root_ranks, _ = _spectra_at(c, d, tol, roots)
        drops = roots[root_ranks != r]
        return float(drops[0]) if drops.size else None

    def rank_path_sampled(self, points: int = 101) -> RankPathReport:
        self._require_semidefinite_step()
        ts, w, ranks, nz = _segment_spectra(self._c, self._d, self._tol, points)
        endpoint = (int(ranks[0]), int(ranks[-1]))
        r_max = int(ranks.max())
        signs = np.sign(w) * nz
        flipped = np.any(signs[:-1] * signs[1:] < 0.0, axis=1)
        bad = np.flatnonzero((ranks < r_max) | np.concatenate(([False], flipped)))
        if bad.size:
            return RankPathReport(False, None, float(ts[bad[0]]), "sampled", endpoint)
        return RankPathReport(True, r_max, None, "sampled", endpoint)

    def det_sign_path(self, points: int = 101) -> bool:
        self._require_semidefinite_step()
        _, w, ranks, _ = _segment_spectra(self._c, self._d, self._tol, points)
        negatives = np.sum(w < 0.0, axis=1)
        return bool(np.all(ranks == self._c.shape[0]) and np.all(negatives == negatives[0]))


# ---------------------------------------------------------------------------
# Operations


def albert_psd_conditions(a: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> AlbertConditions:
    """Blockwise semidefiniteness test for a Hermitian partitioned matrix.

    0 <= A holds iff the pivot block is PSD, its kernel is contained in
    the kernel of the (1,2) block, and the Schur complement is PSD.
    """
    if not a.is_hermitian(tol):
        raise PreconditionError("the matrix must be Hermitian")
    a22 = a.a22
    psd22 = loewner_leq(np.zeros_like(a22), a22, tol)
    g = gppt(a, tol)
    resid = max_abs(a.a12 - g.a12 @ a22)
    ker_incl = resid <= tol.scaled_eq_tol(a.data)
    s = hermitian_part(g.a11)
    psd_schur = loewner_leq(np.zeros_like(s), s, tol)
    return AlbertConditions(psd22, ker_incl, psd_schur, psd22 and ker_incl and psd_schur)


def pinv_monotone(c, d, tol: ToleranceConfig = DEFAULT_TOL) -> PinvMonotoneResult:
    """Whether the pseudoinverses of an ordered Hermitian pair reverse order.

    For C <= D, D^+ <= C^+ holds exactly when ker C = ker D and the
    negative eigenvalue counts agree.
    """
    return _OrderPair.of_pivots(c, d, tol).pinv_monotone()


def spectral_path_check(c, d, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralPathResult:
    """No-crossing test for the segment from C to D via eigenvalues of D^-1 C.

    Requires D nonsingular under the zero test.  The segment determinant
    det[(1-t)C + tD] vanishes for some t in [0, 1] exactly when D^-1 C has
    an eigenvalue in (-inf, 0].  The singularity of C and D is read off
    their eigen-splits, as the rank path reads it; the eigenvalues of
    D^-1 C only need positive real parts.
    """
    pair = _OrderPair.of_pivots(c, d, tol)
    if pair._c.shape[0] == 0:
        return SpectralPathResult(True, True, ())
    (ker_c, _, _), (ker_d, _, _) = pair.splits
    if ker_d.shape[1]:
        raise PreconditionError("D must be invertible for the spectral path test")
    eig = np.linalg.eigvals(np.linalg.solve(pair._d, pair._c))
    real_spectrum = float(np.max(np.abs(eig.imag))) <= tol.eq_tol
    no_crossing = bool(ker_c.shape[1] == 0 and np.all(eig.real > 0.0))
    return SpectralPathResult(no_crossing, real_spectrum, tuple(eig.tolist()))


def rank_path_constant(
    c,
    d,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    require_order: bool = True,
) -> RankPathReport:
    """Deterministic constant-rank verdict for the segment from C to D.

    Route (i), 'kernel_inertia': the kernels differ.  At unequal endpoint
    ranks the witness is the smaller-rank endpoint.  At equal ranks r,
    one of m + 1 interior samples (m the order) has the generic rank g,
    since a g x g minor is a nonzero polynomial of degree <= m in t.  Under
    C <= D or D <= C, g > r (Rellich, Hellmann-Feynman): the witness is
    the first sample whose rank is not r, or, if the zero test reads r at
    all of them, the one nearest to rank r + 1.  Without the order g can
    be r (C = [[0,0,1],[0,0,0],[1,0,0]], D = [[0,0,0],[0,0,1],[0,1,0]] has
    rank 2 on [0, 1]); the rank is then constant unless it drops at a
    root of det(Q^H ((1-t)C + tD) Q), Q the support of a sample, which
    holds every drop point.  Route (ii), 'spectral': with a common kernel,
    C and D are compressed onto D's support, where their eigen-splits make
    both nonsingular, and the rank is constant iff every eigenvalue of
    D^-1 C has positive real part; a failing segment's witness is its
    smallest crossing, t = lam/(lam-1) for the largest real part lam <= 0.

    ``require_order=False`` skips the C <= D precondition so the verdict
    can be used diagnostically.
    """
    return _OrderPair.of_pivots(c, d, tol).rank_path(require_order)


def rank_path_sampled(
    c,
    d,
    tol: ToleranceConfig = DEFAULT_TOL,
    points: int = 101,
) -> RankPathReport:
    """Grid-sampling oracle for the constant-rank verdict.

    Independent of the spectral route: the segment is sampled at
    ``points`` uniform t values, with ranks by the zero test on each
    sample's eigenvalues.  Requires C <= D or D <= C (PreconditionError
    otherwise); then every sorted eigenvalue is monotone in t, so a
    crossing between two samples shows as a strict sign change of a
    nonzero eigenvalue, and one at a sample as a rank below the maximum.
    The rank is not constant iff either is seen; the witness is the first
    such sample, the right end of the cell for a sign change.  In exact
    arithmetic monotonicity makes the endpoint inertias sufficient on
    their own, so the grid cross-checks the code path and the rounding,
    not the theorem.
    """
    return _OrderPair.of_pivots(c, d, tol).rank_path_sampled(points)


def det_sign_path_check(
    c,
    d,
    tol: ToleranceConfig = DEFAULT_TOL,
    points: int = 101,
) -> bool:
    """Determinant-sign/rank grid oracle for the no-crossing verdict.

    Samples (1-t)C + tD at ``points`` uniform t values, with the same
    precondition (C <= D or D <= C) and caveat as ``rank_path_sampled``.
    A sample of rank below the order, or a change in the count of negative
    eigenvalues between neighbouring samples, counts as a crossing; the
    sign of the determinant is the parity of that count, and the count
    also sees two crossings inside one cell.  Returns True when no
    crossing is detected.
    """
    return _OrderPair.of_pivots(c, d, tol).det_sign_path(points)


def ppt_monotonicity_report(
    a: BlockMatrix, b: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> MonotonicityReport:
    """Evaluate the equivalent ordering conditions for a Hermitian pair.

    When the hypothesis A <= B fails, the conditions are still evaluated
    for diagnostics but the equivalence is not claimed
    (hypothesis_ok=False); the consistency verdict is computed from the
    same formula either way.
    """
    return _OrderPair.of_blocks(a, b, tol).report()


def ppt_order_conditions(
    a: BlockMatrix, b: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> OrderConditions:
    """Block conditions equivalent to jppt(A) <= jppt(B), no A <= B needed.

    These are the semidefiniteness conditions applied to the difference
    of the symmetrized pivot transforms: the pivot pseudoinverses
    reverse order, a kernel inclusion ties the pseudoinverse drop to the
    coupling drop, and a corrected Schur-complement difference is PSD.
    """
    return _OrderPair.of_blocks(a, b, tol).order_conditions()


def schur_difference_identity(
    a: BlockMatrix, b: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> SchurDifferenceResult:
    """Closed forms for the Schur complement of B - A.

    Hypotheses (each certified, with a PreconditionError naming the
    failure): the Hermitian pivot blocks share their kernel, hence their
    range, the kernel of the pivot difference is contained in the kernel
    of the (1,2) difference, and the range of the (2,1) difference is
    contained in the range of the pivot difference; an inclusion error
    carries its residual as ``certificate``.  Under them, (B-A)/(B-A)22
    equals the difference of Schur complements minus a correction term, in
    two algebraically equivalent forms whose residuals are reported.  Each
    pseudoinverse is read off an eigen-split; lhs is D11 - D12 D22^+ D21
    with D22 the Hermitian part of B22 - A22.
    """
    pair = _OrderPair.of_blocks(a, b, tol)
    if not pair.kernels_equal:
        raise PreconditionError("pivot blocks must have equal kernels")
    d22 = hermitian_part(b.a22 - a.a22)
    _, supp, w = _herm_split(d22, tol)
    d22_pinv = _pinv_of_split(supp, w)
    cert_tol = tol.scaled_eq_tol(a.data, b.data)
    d12 = b.a12 - a.a12
    resid = max_abs(d12 - d12 @ d22_pinv @ d22)
    if resid > cert_tol:
        raise PreconditionError(
            "kernel of the pivot difference must lie in the kernel of the (1,2) difference",
            certificate=resid,
        )
    d21 = b.a21 - a.a21
    resid = max_abs(d21 - d22 @ d22_pinv @ d21)
    if resid > cert_tol:
        raise PreconditionError(
            "range of the (2,1) difference must lie in the range of the pivot difference",
            certificate=resid,
        )
    lhs = b.a11 - a.a11 - d12 @ d22_pinv @ d21
    dp, dp_pinv, g, gr, schur_diff = pair.difference
    rhs = schur_diff - g @ dp_pinv @ gr
    mid_alt = a.a22 + a.a22 @ d22_pinv @ a.a22
    rhs_alt = schur_diff - g @ mid_alt @ gr
    incl_tol = tol.scaled_eq_tol(g, gr, dp)
    inclusions_ok = (
        max_abs(g - g @ dp_pinv @ dp) <= incl_tol
        and max_abs(gr - dp @ dp_pinv @ gr) <= incl_tol
    )
    return SchurDifferenceResult(
        lhs,
        rhs,
        rhs_alt,
        max_abs(lhs - rhs),
        max_abs(lhs - rhs_alt),
        inclusions_ok,
    )
