"""Seeded property suites driven by the generators.

Each suite runs a number of independent trials; a trial derives its own
seed from the master seed, draws dimensions and field from its own
stream, generates fixtures, and checks the advertised identities and
equivalences.  Failures carry the trial seed so any trial can be
reproduced in isolation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import convexity as cvx
from . import generate as gen
from . import monotone as mono
from . import saddle as sdl
from .blockmat import BlockMatrix
from .errors import InvalidInputError
from .linalg import adjoint, imag_part, is_ep, loewner_leq, max_abs, pinv
from .rng import Xoshiro256pp, splitmix64_stream
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .transforms import (
    ep_congruence_schur,
    gppt,
    hat_embedding,
    jppt,
    jppt_im_congruence,
    schur_complement,
    signature_matrix,
)

__all__ = ["SUITE_NAMES", "SuiteResult", "TrialFailure", "run_suite"]


@dataclass(frozen=True)
class TrialFailure:
    index: int
    seed: int
    detail: str


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[TrialFailure] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the trial loop

    @property
    def passed(self) -> bool:
        return not self.failures


def _trial_field(rng: Xoshiro256pp) -> str:
    return "real" if rng.randint(2) == 0 else "complex"


def _penrose_trial(seed: int, tol: ToleranceConfig) -> list[str]:
    rng = Xoshiro256pp(seed)
    rows = 1 + rng.randint(8)
    cols = 1 + rng.randint(8)
    fld = _trial_field(rng)
    m = gen.rand_matrix(rows, cols, fld, rng.next_uint64())
    p = pinv(m, tol)
    scale = 1.0 + max_abs(m) + max_abs(p)
    bound = 1e-10 * scale
    bad = []
    for name, resid in (
        ("m p m = m", max_abs(m @ p @ m - m)),
        ("p m p = p", max_abs(p @ m @ p - p)),
        ("(m p)* = m p", max_abs(adjoint(m @ p) - m @ p)),
        ("(p m)* = p m", max_abs(adjoint(p @ m) - p @ m)),
        ("double pinv", max_abs(pinv(p, tol) - m)),
    ):
        if resid > bound:
            bad.append(f"{name}: residual {resid:.3e} > {bound:.3e}")
    return bad


def _involution_trial(seed: int, tol: ToleranceConfig) -> list[str]:
    rng = Xoshiro256pp(seed)
    n1 = rng.randint(5)
    n2 = 1 + rng.randint(5)
    fld = _trial_field(rng)
    a = gen.rand_with_invertible_pivot(gen.GenSpec(n1, n2, fld, rng.next_uint64()))
    round_trip = gppt(gppt(a, tol), tol)
    resid = max_abs(round_trip.data - a.data)
    if resid > 1e-8:
        return [f"double pivot transform residual {resid:.3e} > 1e-8"]
    return []


def _embedding_trial(seed: int, tol: ToleranceConfig) -> list[str]:
    rng = Xoshiro256pp(seed)
    n1 = rng.randint(5)
    n2 = rng.randint(5)
    fld = _trial_field(rng)
    singular = rng.randint(2) == 1
    if singular and n2 >= 1:
        spec = gen.GenSpec(n1, n2, fld, rng.next_uint64())
        a = gen.rand_saddle_instance(spec, hermitian=False)
    else:
        a = BlockMatrix._owned(n1, n2, gen.rand_matrix(n1 + n2, n1 + n2, fld, rng.next_uint64()))
    lhs = jppt(a, tol).data
    rhs = schur_complement(hat_embedding(a, tol), tol)
    resid = max_abs(lhs - rhs)
    # the identity's rounding error grows with |A22^+|
    bound = 1e-10 * (1.0 + max_abs(a.data) + max_abs(pinv(a.a22, tol)))
    if resid > bound:
        return [f"pivot transform vs embedded Schur complement: {resid:.3e} > {bound:.3e}"]
    return []


def _monotonicity_trial(seed: int, tol: ToleranceConfig) -> list[str]:
    rng = Xoshiro256pp(seed)
    mode = gen.ORDERED_PAIR_MODES[rng.randint(3)]
    n1 = rng.randint(7)
    n2 = 1 + rng.randint(6)
    fld = _trial_field(rng)
    a, b = gen.rand_ordered_pair(gen.GenSpec(n1, n2, fld, rng.next_uint64()), mode)
    # the pair is checked once, and every verdict is read off its factorizations
    pair = mono._OrderPair.of_blocks(a, b, tol)
    report = pair.report()
    bad = []
    if not report.hypothesis_ok:
        bad.append(f"mode {mode}: generated pair is not ordered")
    if not report.consistent:
        bad.append(
            f"mode {mode}: inconsistent statements "
            f"(ppt {report.ppt_ordered}, pinv {report.pinv_reversed}, "
            f"rank {report.rank_path.constant})"
        )
    if report.pinv_reversed and not report.schur_ordered:
        bad.append(f"mode {mode}: ordered pseudoinverses without ordered Schur complements")
    sampled = pair.rank_path_sampled()
    if sampled.constant != report.rank_path.constant:
        bad.append(
            f"mode {mode}: sampled rank path {sampled.constant} "
            f"vs deterministic {report.rank_path.constant}"
        )
    pm = pair.pinv_monotone()
    if pm.holds != report.pinv_reversed:
        bad.append(
            f"mode {mode}: kernel/inertia criterion {pm.holds} "
            f"vs direct pseudoinverse ordering {report.pinv_reversed}"
        )
    conditions = pair.order_conditions()
    if conditions.overall != report.ppt_ordered:
        bad.append(
            f"mode {mode}: blockwise order conditions {conditions.overall} "
            f"vs direct transform ordering {report.ppt_ordered}"
        )
    return bad


def _saddle_trial(seed: int, tol: ToleranceConfig) -> list[str]:
    rng = Xoshiro256pp(seed)
    n1 = rng.randint(6)
    n2 = rng.randint(6)
    fld = _trial_field(rng)
    hermitian = rng.randint(2) == 0
    a = gen.rand_saddle_instance(gen.GenSpec(n1, n2, fld, rng.next_uint64()), hermitian=hermitian)
    x1, y2 = gen.rand_saddle_rhs(a, rng.next_uint64())
    # one instance factors A once for the solution, the minimum and every objective value
    inst = sdl._SaddleInstance(a, tol)
    sol = inst.solve(x1, y2)
    bad = []
    scale = 1.0 + a.norm_max()
    z = np.concatenate([x1, sol.particular_x2])
    rhs = np.concatenate([sol.y1, y2])
    resid = float(np.linalg.norm(a.data @ z - rhs))
    if resid > 1e-9 * scale:
        bad.append(f"block equation residual {resid:.3e}")
    if sol.packaging_residual > 1e-9 * scale:
        bad.append(f"packaging residual {sol.packaging_residual:.3e}")
    if sol.x2_set.kernel.dim:
        coeff = rng.uniform(sol.x2_set.kernel.dim, -1.0, 1.0)
        if fld == "complex":
            coeff = coeff + 1j * rng.uniform(sol.x2_set.kernel.dim, -1.0, 1.0)
        shifted = sol.x2_set.point(coeff)
        resid2 = float(np.linalg.norm(a.a21 @ x1 + a.a22 @ shifted - y2))
        if resid2 > 1e-9 * scale:
            bad.append(f"kernel-shifted solution residual {resid2:.3e}")
    if hermitian:
        result = inst.ppt_min(x1, y2)
        at_min = inst.objective(x1, result.minimizers.particular, y2)
        if abs(at_min - result.value) > 1e-9 * scale:
            bad.append(f"objective at minimizer off by {abs(at_min - result.value):.3e}")
        for k in range(10):
            delta = gen.rand_matrix(n2, 1, fld, rng.next_uint64())[:, 0]
            trial_val = inst.objective(x1, result.minimizers.particular + delta, y2)
            if trial_val < result.value - 1e-8 * scale:
                bad.append(f"perturbation {k} beat the minimum by {result.value - trial_val:.3e}")
                break
    return bad


def _concavity_trial(seed: int, tol: ToleranceConfig) -> list[str]:
    rng = Xoshiro256pp(seed)
    n1 = 1 + rng.randint(4)
    n2 = 1 + rng.randint(4)
    fld = _trial_field(rng)
    a, b = gen.rand_psd_pair_same_kernel(gen.GenSpec(n1, n2, fld, rng.next_uint64()))
    ts = [i / 10.0 for i in range(11)] + list(rng.uniform(3, 0.0, 1.0))
    # each pair is checked once, and each gap kind is evaluated at all t at once
    segment = cvx._ConcavitySegment.of_blocks(a, b, tol)
    bordered = segment.bordered()
    gaps = (segment.jppt_gaps(ts), segment.schur_gaps(ts), segment.pinv_gaps(ts), bordered.jppt_gaps(ts))
    bad = []
    for t, big, small, pgap, egap in zip(ts, *gaps):
        if not big.psd:
            bad.append(f"transform concavity gap not PSD at t={t:.3f}")
            break
        if not small.psd:
            bad.append(f"Schur concavity gap not PSD at t={t:.3f}")
            break
        if max_abs(small.gap - big.gap[:n1, :n1]) > 1e-10:
            bad.append(f"Schur gap is not the (1,1) block of the transform gap at t={t:.3f}")
            break
        if not pgap.psd:
            bad.append(f"pseudoinverse convexity gap not PSD at t={t:.3f}")
            break
        if max_abs(pgap.gap - egap.gap[1:, 1:]) > 1e-10:
            bad.append(f"pseudoinverse gap is not the pivot block of the bordered gap at t={t:.3f}")
            break
    return bad


def _schur_difference_trial(seed: int, tol: ToleranceConfig) -> list[str]:
    rng = Xoshiro256pp(seed)
    n1 = 1 + rng.randint(4)
    n2 = 1 + rng.randint(4)
    fld = _trial_field(rng)
    a, b = gen.rand_ordered_pair(gen.GenSpec(n1, n2, fld, rng.next_uint64()), "constant_rank")
    result = mono.schur_difference_identity(a, b, tol)
    bad = []
    if result.residual > 1e-9:
        bad.append(f"primary correction form residual {result.residual:.3e} > 1e-9")
    if result.residual_alt > 1e-9:
        bad.append(f"alternate correction form residual {result.residual_alt:.3e} > 1e-9")
    if not result.inclusions_ok:
        bad.append("kernel/range inclusions of the difference identity failed")
    return bad


def _ep_congruence_trial(seed: int, tol: ToleranceConfig) -> list[str]:
    rng = Xoshiro256pp(seed)
    n1 = 1 + rng.randint(4)
    n2 = 1 + rng.randint(4)
    use_im = rng.randint(2) == 1
    bad = []
    if use_im:
        a = gen.rand_im_psd(gen.GenSpec(n1, n2, "complex", rng.next_uint64()))
        if not is_ep(a.a22, tol):
            bad.append("pivot block of an Im-PSD matrix is not EP")
            return bad
    else:
        fld = _trial_field(rng)
        a = gen.rand_hermitian(gen.GenSpec(n1, n2, fld, rng.next_uint64()))
    g = gppt(a, tol)
    # the congruences' rounding error grows with |A22^+|
    bound = 1e-10 * (1.0 + max_abs(a.data) + max_abs(g.a22))
    cong = ep_congruence_schur(a, tol)
    if cong.schur_identity_residual > bound:
        bad.append(f"Schur congruence residual {cong.schur_identity_residual:.3e} > {bound:.3e}")
    if cong.im_identity_residual > bound:
        bad.append(f"imaginary-part congruence residual {cong.im_identity_residual:.3e} > {bound:.3e}")
    wcong = jppt_im_congruence(a, tol)
    if wcong.residual > bound:
        bad.append(f"transform congruence residual {wcong.residual:.3e} > {bound:.3e}")
    if use_im:
        im_j = imag_part(signature_matrix(a.n1, a.n2) @ g.data)
        if not loewner_leq(np.zeros_like(im_j), im_j, tol):
            bad.append("imaginary part of the transform lost semidefiniteness")
        im_s = imag_part(g.a11)
        if not loewner_leq(np.zeros_like(im_s), im_s, tol):
            bad.append("imaginary part of the Schur complement lost semidefiniteness")
    return bad


_SUITE_TRIALS = {
    "penrose": _penrose_trial,
    "involution": _involution_trial,
    "embedding": _embedding_trial,
    "monotonicity": _monotonicity_trial,
    "saddle": _saddle_trial,
    "concavity": _concavity_trial,
    "schur-difference": _schur_difference_trial,
    "ep-congruence": _ep_congruence_trial,
}

SUITE_NAMES = tuple(_SUITE_TRIALS) + ("all",)


def run_suite(
    name: str,
    trials: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SuiteResult]:
    """Run a named suite (or every suite) with per-trial derived seeds."""
    if trials < 1:
        raise InvalidInputError(f"trials must be at least 1, got {trials}")
    if name not in SUITE_NAMES:
        raise InvalidInputError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    names = list(_SUITE_TRIALS) if name == "all" else [name]
    results = []
    for suite_name in names:
        trial_fn = _SUITE_TRIALS[suite_name]
        trial_seeds = splitmix64_stream(seed, trials)
        result = SuiteResult(suite_name, trials)
        start = time.perf_counter()
        for i, trial_seed in enumerate(trial_seeds):
            details = trial_fn(trial_seed, tol)
            for detail in details:
                result.failures.append(TrialFailure(i, trial_seed, detail))
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
