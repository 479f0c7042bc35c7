"""Seeded generators for every hypothesis class the checkers need.

Outputs are deterministic functions of a GenSpec: same spec, bitwise
identical matrices.  Orthonormal frames come from re-orthogonalized
Gram-Schmidt over the portable PRNG stream, with no LAPACK call, but two
draws call LAPACK's SVD: ``_psd_with_given_22`` (kernel_break pairs and
``rand_psd_pair_same_kernel``) for the pseudoinverse of its (2,2) block,
and the constant_rank mode through ``_spectral_norm``.  Bitwise identity
therefore rests on the same numpy, BLAS and LAPACK builds giving the same
bits, which holds for a given installation but not across platforms in
general.

Draw discipline (normative, see also blockpivot.rng): matrices are
filled row-major; complex entries consume two consecutive uniform draws
(real part, then imaginary part).  Each generator's docstring states the
order in which it consumes draws.

The generators build every matrix themselves, so they wrap it with
``BlockMatrix``'s trusted constructors: no re-validation or copy, only the
finiteness check, under which an overflowing draw (say at magnitude 1e300)
still raises ``InvalidInputError``.  The fixtures keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockmat import BlockMatrix, _store_sizes
from .errors import InvalidInputError
from .linalg import SubspaceBasis, _hermitian, _pinv_of_svd, _svd_factor, adjoint
from .rng import Xoshiro256pp
from .tolerances import DEFAULT_TOL

__all__ = [
    "GenSpec",
    "rand_matrix",
    "rand_hermitian",
    "rand_with_invertible_pivot",
    "rand_psd_with_kernel",
    "rand_ordered_pair",
    "rand_psd_pair_same_kernel",
    "rand_im_psd",
    "rand_saddle_instance",
    "rand_saddle_rhs",
    "ORDERED_PAIR_MODES",
]

ORDERED_PAIR_MODES = ("generic", "constant_rank", "kernel_break")


@dataclass(frozen=True)
class GenSpec:
    """Dimensions, field, seed and entry scale for one generated fixture."""

    n1: int
    n2: int
    field: str
    seed: int
    magnitude: float = 1.0

    def __post_init__(self):
        _store_sizes(self)
        if self.field not in ("real", "complex"):
            raise InvalidInputError(f"field must be 'real' or 'complex', got {self.field!r}")
        if not (
            isinstance(self.magnitude, (int, float))
            and math.isfinite(self.magnitude)
            and self.magnitude > 0
        ):
            raise InvalidInputError(f"magnitude must be finite and positive, got {self.magnitude!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidInputError("seed must fit in an unsigned 64-bit integer")

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def _draw_matrix(rng: Xoshiro256pp, rows: int, cols: int, field: str, magnitude: float) -> np.ndarray:
    """Row-major uniform fill; complex entries are (re, im) draw pairs."""
    count = rows * cols
    if field == "complex":
        return rng.uniform_sym(2 * count, magnitude).view(np.complex128).reshape(rows, cols)
    return rng.uniform_sym(count, magnitude).reshape(rows, cols)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d array, computed as it computes it."""
    if np.iscomplexobj(v):
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def _gram(m: np.ndarray) -> np.ndarray:
    return _hermitian(adjoint(m) @ m)


def _orthonormal_columns(
    rng: Xoshiro256pp,
    ambient: int,
    k: int,
    field: str,
    magnitude: float,
    avoid: np.ndarray | None = None,
) -> np.ndarray:
    """k orthonormal columns, orthogonal to the ``avoid`` frame if given.

    Built by twice-iterated Gram-Schmidt on fresh uniform draws; a draw
    whose projected norm collapses is discarded and redrawn, so the
    result is deterministic in the stream.
    """
    dtype = np.complex128 if field == "complex" else np.float64
    occupied = 0 if avoid is None else avoid.shape[1]
    if k + occupied > ambient:
        raise InvalidInputError(
            f"cannot fit {k} orthonormal columns beside {occupied} in dimension {ambient}"
        )
    if k == 0:
        return np.zeros((ambient, 0), dtype=dtype)
    floor = 1e-6 * magnitude * max(1.0, math.sqrt(ambient))
    project = avoid is not None and avoid.shape[1]
    cols: list[np.ndarray] = []
    while len(cols) < k:
        # the candidates still needed, in one draw: row i is the stream's
        # next candidate after row i - 1, as if each were drawn alone
        for v in _draw_matrix(rng, k - len(cols), ambient, field, magnitude):
            for _ in range(2):
                if project:
                    v = v - avoid @ (adjoint(avoid) @ v)
                for u in cols:
                    v = v - u * np.vdot(u, v)
            nrm = _norm(v)
            if nrm < floor:
                continue
            cols.append((v / nrm).astype(dtype, copy=False))
    return np.column_stack(cols)


def _spectral_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def rand_matrix(rows: int, cols: int, field: str, seed: int, magnitude: float = 1.0) -> np.ndarray:
    """A plain uniform matrix of any shape (row-major draw order)."""
    if field not in ("real", "complex"):
        raise InvalidInputError(f"field must be 'real' or 'complex', got {field!r}")
    if rows < 0 or cols < 0:
        raise InvalidInputError("rows and cols must be nonnegative")
    rng = Xoshiro256pp(seed)
    return _draw_matrix(rng, rows, cols, field, magnitude)


def rand_hermitian(spec: GenSpec) -> BlockMatrix:
    """A Hermitian matrix: one n x n draw, then exact symmetrization."""
    rng = Xoshiro256pp(spec.seed)
    m = _draw_matrix(rng, spec.n, spec.n, spec.field, spec.magnitude)
    return BlockMatrix._owned(spec.n1, spec.n2, _hermitian(m))


def rand_with_invertible_pivot(spec: GenSpec) -> BlockMatrix:
    """A matrix whose pivot block has singular values in
    [magnitude/100, magnitude], hence condition number at most 100.

    Draws: left pivot frame, right pivot frame, singular values, then
    the (1,1), (1,2) and (2,1) blocks.
    """
    rng = Xoshiro256pp(spec.seed)
    n1, n2 = spec.n1, spec.n2
    field, mag = spec.field, spec.magnitude
    left = _orthonormal_columns(rng, n2, n2, field, mag)
    right = _orthonormal_columns(rng, n2, n2, field, mag)
    sigma = rng.uniform(n2, mag / 100.0, mag)
    a22 = left @ (sigma[:, None] * adjoint(right))
    a11 = _draw_matrix(rng, n1, n1, field, mag)
    a12 = _draw_matrix(rng, n1, n2, field, mag)
    a21 = _draw_matrix(rng, n2, n1, field, mag)
    return BlockMatrix._owned_blocks(n1, n2, a11, a12, a21, a22)


def rand_psd_with_kernel(spec: GenSpec, kernel: SubspaceBasis) -> np.ndarray:
    """PSD matrix with the prescribed kernel.

    Draws: complement frame columns (redraws included), then the
    positive eigenvalues, uniform in [magnitude/100, magnitude).
    Returns the kernel's ambient-sized square matrix; a full-space
    kernel yields the zero matrix.
    """
    rng = Xoshiro256pp(spec.seed)
    ambient = kernel.ambient_dim
    r = ambient - kernel.dim
    dtype = np.complex128 if spec.field == "complex" else np.float64
    if r <= 0:
        return np.zeros((ambient, ambient), dtype=dtype)
    q = _orthonormal_columns(rng, ambient, r, spec.field, spec.magnitude, avoid=kernel.vectors)
    lam = rng.uniform(r, spec.magnitude / 100.0, spec.magnitude)
    return _hermitian(q @ (lam[:, None] * adjoint(q)))


def _assemble_hermitian(n1: int, n2: int, a11, a12, a22) -> BlockMatrix:
    return BlockMatrix._owned_blocks(n1, n2, a11, a12, adjoint(a12), a22)


def _psd_with_given_22(rng: Xoshiro256pp, n1: int, n2: int, field: str, magnitude: float,
                       d22: np.ndarray) -> BlockMatrix:
    """A PSD block matrix with the prescribed PSD (2,2) block.

    Draws: coupling matrix N (n1 x n2), then a Gram factor for the
    Schur-complement part ((n1+1) x n1).  The (1,2) block is N d22, which
    pins the kernel inclusion; the (1,1) block adds the Gram part to the
    induced completion term.
    """
    coupling = _draw_matrix(rng, n1, n2, field, magnitude)
    d12 = coupling @ d22
    s = _gram(_draw_matrix(rng, n1 + 1, n1, field, magnitude))
    d11 = _hermitian(s + d12 @ _pinv_of_svd(*_svd_factor(d22, DEFAULT_TOL)) @ adjoint(d12))
    return _assemble_hermitian(n1, n2, d11, d12, d22)


def rand_ordered_pair(spec: GenSpec, mode: str) -> tuple[BlockMatrix, BlockMatrix]:
    """A Hermitian pair A <= B in one of three structured modes.

    generic: A is a Hermitian draw and B adds an (n+1)-row Gram bump;
    draws are A's matrix, then the bump factor.

    constant_rank: the pivot block of A has a drawn rank and signs, and
    B adds a Gram bump scaled to half the pivot's spectral gap and
    supported on the pivot's range, so the kernel, the inertia, and the
    rank of the pivot path are preserved for every t in [0, 1].  Draws:
    pivot rank, pivot frame, signs, pivot eigenvalues, A's (1,2) and
    (1,1) blocks, then the bump factors.

    kernel_break: the pivot path is forced to change rank, by one of two
    drawn sub-patterns — (0) a sign-crossing direction (opposite-sign
    eigenvalue at t=0 and t=1, crossing zero at t=1/2), or (1) a kernel
    direction of A's pivot that B's pivot makes positive.  Requires
    n2 >= 1.  Draws: sub-pattern, pivot frame, crossing magnitude,
    off-direction eigenvalues with signs and bumps, A's (1,2) and (1,1)
    blocks, the PSD completion of the difference.
    """
    if mode not in ORDERED_PAIR_MODES:
        raise InvalidInputError(f"unknown mode {mode!r}; expected one of {ORDERED_PAIR_MODES}")
    rng = Xoshiro256pp(spec.seed)
    n1, n2, n = spec.n1, spec.n2, spec.n
    field, mag = spec.field, spec.magnitude

    if mode == "generic":
        a = _hermitian(_draw_matrix(rng, n, n, field, mag))
        bump = _gram(_draw_matrix(rng, n + 1, n, field, mag))
        return BlockMatrix._owned(n1, n2, a), BlockMatrix._owned(n1, n2, a + bump)

    if mode == "constant_rank":
        r22 = rng.randint(n2 + 1) if n2 else 0
        frame = _orthonormal_columns(rng, n2, r22, field, mag)
        signs = np.array([1.0 if rng.randint(2) == 0 else -1.0 for _ in range(r22)])
        lam = rng.uniform(r22, mag / 10.0, mag) * signs
        a22 = _hermitian(frame @ (lam[:, None] * adjoint(frame)))
        a12 = _draw_matrix(rng, n1, n2, field, mag)
        a11 = _hermitian(_draw_matrix(rng, n1, n1, field, mag))
        a = _assemble_hermitian(n1, n2, a11, a12, a22)
        l1 = _draw_matrix(rng, n + 1, n1, field, mag)
        coeff = _draw_matrix(rng, n + 1, r22, field, mag)
        l2 = coeff @ adjoint(frame)
        factor = np.concatenate([l1, l2], axis=1)
        bump = _gram(factor)
        gap = float(np.min(np.abs(lam))) if r22 else 1.0
        bump22 = bump[n1:, n1:]
        norm22 = _spectral_norm(bump22)
        eps = 1.0 if norm22 == 0.0 else 0.5 * gap / norm22
        b = BlockMatrix._owned(n1, n2, a.data + eps * bump)
        return a, b

    # kernel_break
    if n2 < 1:
        raise InvalidInputError("kernel_break mode needs n2 >= 1")
    sub = rng.randint(2)
    frame = _orthonormal_columns(rng, n2, n2, field, mag)
    alpha = float(rng.uniform(1, mag / 10.0, mag)[0])
    mu = np.zeros(n2 - 1)
    delta = np.zeros(n2 - 1)
    for i in range(n2 - 1):
        sign = 1.0 if rng.randint(2) == 0 else -1.0
        mu[i] = sign * float(rng.uniform(1, mag / 10.0, mag)[0])
        delta[i] = float(rng.uniform(1, 0.0, mag / 20.0)[0])
    if sub == 0:
        diag_a = np.concatenate([[-alpha], mu])
        diag_b = np.concatenate([[alpha], mu + delta])
    else:
        diag_a = np.concatenate([[0.0], mu])
        diag_b = np.concatenate([[alpha], mu + delta])
    a22 = _hermitian(frame @ (diag_a[:, None] * adjoint(frame)))
    b22 = _hermitian(frame @ (diag_b[:, None] * adjoint(frame)))
    a12 = _draw_matrix(rng, n1, n2, field, mag)
    a11 = _hermitian(_draw_matrix(rng, n1, n1, field, mag))
    a = _assemble_hermitian(n1, n2, a11, a12, a22)
    d22 = _hermitian(b22 - a22)
    diff = _psd_with_given_22(rng, n1, n2, field, mag, d22)
    b = BlockMatrix._owned(n1, n2, _hermitian(a.data + diff.data))
    return a, b


def rand_psd_pair_same_kernel(
    spec: GenSpec, ordered: bool = False
) -> tuple[BlockMatrix, BlockMatrix]:
    """Two PSD block matrices whose pivot blocks share an exact kernel.

    Draws: kernel dimension, kernel frame, then for each of A and B a
    complement frame, pivot eigenvalues in [magnitude/10, magnitude),
    coupling and Gram draws for the PSD completion.  With ``ordered``,
    B is instead A plus a Gram bump whose pivot part is compressed onto
    the kernel's complement, which keeps the shared kernel and gives
    A <= B.
    """
    rng = Xoshiro256pp(spec.seed)
    n1, n2, n = spec.n1, spec.n2, spec.n
    field, mag = spec.field, spec.magnitude
    k22 = rng.randint(n2 + 1) if n2 else 0
    kernel = _orthonormal_columns(rng, n2, k22, field, mag)
    r = n2 - k22

    def one_psd() -> BlockMatrix:
        frame = _orthonormal_columns(rng, n2, r, field, mag, avoid=kernel)
        lam = rng.uniform(r, mag / 10.0, mag)
        x22 = _hermitian(frame @ (lam[:, None] * adjoint(frame)))
        return _psd_with_given_22(rng, n1, n2, field, mag, x22)

    a = one_psd()
    if not ordered:
        return a, one_psd()
    proj = np.eye(n2, dtype=kernel.dtype) - kernel @ adjoint(kernel)
    l1 = _draw_matrix(rng, n + 1, n1, field, mag)
    l2 = _draw_matrix(rng, n + 1, n2, field, mag) @ proj
    if r == 0:
        # an empty complement must kill the pivot bump identically; the
        # projector alone leaves ~1e-32 residue with no larger singular
        # value to set the relative rank cutoff's scale
        l2 = np.zeros_like(l2)
    bump = _gram(np.concatenate([l1, l2], axis=1))
    b = BlockMatrix._owned(n1, n2, _hermitian(a.data + bump))
    return a, b


def rand_im_psd(spec: GenSpec) -> BlockMatrix:
    """A complex matrix whose imaginary part is PSD.

    A = H + iG with H a Hermitian draw and G a Gram matrix.  Draws: H's
    matrix, the Gram factor, then (when n2 >= 1) a branch selector; on
    branch 1 a trailing-block size k in 1..n2 is drawn and the last k
    rows and columns are zeroed, making the pivot block singular while
    keeping Im(A) PSD.
    """
    if spec.field != "complex":
        raise InvalidInputError("imaginary-part generators need field='complex'")
    rng = Xoshiro256pp(spec.seed)
    n1, n2, n = spec.n1, spec.n2, spec.n
    mag = spec.magnitude
    h = _hermitian(_draw_matrix(rng, n, n, "complex", mag))
    factor = _draw_matrix(rng, n, n, "complex", mag)
    if n2 >= 1 and rng.randint(2) == 1:
        k = 1 + rng.randint(n2)
        h[n - k :, :] = 0.0
        h[:, n - k :] = 0.0
        factor[:, n - k :] = 0.0
    g = _gram(factor)
    return BlockMatrix._owned(n1, n2, h + 1j * g)


def rand_saddle_instance(spec: GenSpec, hermitian: bool = True) -> BlockMatrix:
    """A block matrix satisfying the saddle solver's inclusions exactly.

    The pivot block is PSD with a drawn rank; the (2,1) block is the
    pivot times a draw (pinning its range into the pivot's range) and
    the (1,2) block is either its adjoint (hermitian=True, which also
    pins the kernel inclusion and yields a Hermitian matrix) or an
    independent draw times the pivot.  Draws: pivot rank, pivot frame,
    pivot eigenvalues, right coupling, the (1,1) block, and for
    hermitian=False the left coupling.
    """
    rng = Xoshiro256pp(spec.seed)
    n1, n2 = spec.n1, spec.n2
    field, mag = spec.field, spec.magnitude
    r = rng.randint(n2 + 1) if n2 else 0
    frame = _orthonormal_columns(rng, n2, r, field, mag)
    lam = rng.uniform(r, mag / 10.0, mag)
    a22 = _hermitian(frame @ (lam[:, None] * adjoint(frame)))
    right = _draw_matrix(rng, n2, n1, field, mag)
    a21 = a22 @ right
    if hermitian:
        a12 = adjoint(a21)
        a11 = _hermitian(_draw_matrix(rng, n1, n1, field, mag))
    else:
        a11 = _draw_matrix(rng, n1, n1, field, mag)
        left = _draw_matrix(rng, n1, n2, field, mag)
        a12 = left @ a22
    return BlockMatrix._owned_blocks(n1, n2, a11, a12, a21, a22)


def rand_saddle_rhs(a: BlockMatrix, seed: int, magnitude: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """An admissible right-hand side (x1, y2) for a saddle instance.

    Draws x1 (length n1) and an auxiliary w (length n2), then forms
    y2 = A21 x1 + A22 w, which lies in the attainable set by
    construction.
    """
    rng = Xoshiro256pp(seed)
    x1 = _draw_matrix(rng, a.n1, 1, a.field_tag, magnitude)[:, 0]
    w = _draw_matrix(rng, a.n2, 1, a.field_tag, magnitude)[:, 0]
    y2 = a.a21 @ x1 + a.a22 @ w
    return x1, y2
