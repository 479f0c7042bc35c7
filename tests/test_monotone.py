import numpy as np
import pytest

from blockpivot import (
    DEFAULT_TOL,
    BlockMatrix,
    GenSpec,
    Inertia,
    InvalidInputError,
    ORDERED_PAIR_MODES,
    PreconditionError,
    adjoint,
    albert_psd_conditions,
    block_diagonalize,
    det_sign_path_check,
    ep_congruence_schur,
    gppt,
    hermitian_part,
    inertia,
    is_psd,
    jppt,
    jppt_concavity_gap,
    jppt_im_congruence,
    kernel_basis,
    loewner_leq,
    max_abs,
    pinv,
    pinv_monotone,
    ppt_min,
    ppt_monotonicity_report,
    ppt_order_conditions,
    rand_hermitian,
    rand_ordered_pair,
    rand_saddle_instance,
    rand_saddle_rhs,
    rank_path_constant,
    rank_path_sampled,
    reconstruct_jppt_from_minima,
    schur_complement,
    schur_difference_identity,
    schur_min,
    solve_saddle,
    spectral_path_check,
    subspace_eq,
)
from blockpivot import blockmat, linalg
from blockpivot import generate as gen
from blockpivot.convexity import _ConcavitySegment
from blockpivot.monotone import _OrderPair
from blockpivot.rng import Xoshiro256pp
from blockpivot.suites import _ep_congruence_trial, _monotonicity_trial, _saddle_trial


def test_report_on_scalar_pair(pair_2x2):
    a, b = pair_2x2
    r = ppt_monotonicity_report(a, b)
    assert r.hypothesis_ok
    assert not r.ppt_ordered
    assert not r.pinv_reversed
    assert not r.rank_path.constant
    assert abs(r.rank_path.witness_t - 0.5) <= 1e-6
    assert r.schur_ordered
    assert r.consistent


def test_report_on_rank_one_pivot_pair(pair_4x4):
    a, b = pair_4x4
    r = ppt_monotonicity_report(a, b)
    assert r.hypothesis_ok
    assert r.ppt_ordered
    assert r.pinv_reversed
    assert r.rank_path.constant
    assert r.rank_path.common_rank == 1
    assert r.schur_ordered
    assert r.consistent
    # the displayed pivot pseudoinverses
    assert max_abs(pinv(a.a22) - np.full((2, 2), 0.5)) <= 1e-12
    assert max_abs(pinv(b.a22) - np.full((2, 2), 0.25)) <= 1e-12


def test_report_same_matrix_twice(pair_4x4):
    a, _ = pair_4x4
    r = ppt_monotonicity_report(a, a)
    assert r.hypothesis_ok and r.consistent
    assert r.ppt_ordered and r.pinv_reversed and r.rank_path.constant


def test_report_validation(pair_2x2):
    a, _ = pair_2x2
    with pytest.raises(InvalidInputError):
        ppt_monotonicity_report(a, BlockMatrix(2, 0, np.eye(2)))
    skew = BlockMatrix(1, 1, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(PreconditionError):
        ppt_monotonicity_report(a, skew)


# A pair that is Hermitian at the scale of its large (1,1) blocks but whose
# pivot blocks are not Hermitian at their own scale.
_BIG = np.diag([1e8, 1.0, 1.0])
_SKEW_PIVOT = _BIG.copy()
_SKEW_PIVOT[2, 1] = 1e-4

_MISMATCH = (BlockMatrix(1, 1, np.eye(2)), BlockMatrix(2, 0, np.eye(2)))
_SKEWED = (np.eye(2), _SKEW_PIVOT[1:, 1:])
# a block pair that is not Hermitian at its own scale
_SKEWED_BLOCKS = (BlockMatrix(1, 2, np.eye(3)), BlockMatrix(1, 2, np.eye(3) + 1e-4 * np.eye(3, k=-1)))
_UNORDERED = (np.diag([1.0, 1.0]), np.diag([0.0, 1.0]))
_INDEFINITE_STEP = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
_MISMATCH_TEXT = "partition mismatch: (1, 1) vs (2, 0)"
_NOT_HERMITIAN = "both matrices must be Hermitian"
_SIZES = "need square matrices of equal size, got (2, 2) and (3, 3)"
_GRID = "the grid oracles require C <= D or D <= C"
_ORDER = "requires C <= D in the semidefinite order"
_RANK_PATH = "rank path analysis requires C <= D"


def _rejection(n, fn, args, error, message):
    """One rejection case, under the id pytest generated for row n when the
    ids were positional; the id is explicit, so adding or deleting a row
    renames no other case.  A new row takes the next unused n."""
    return pytest.param(fn, args, error, message, id=f"{fn.__name__}-args{n}-{error.__name__}-{message}")


_REJECTIONS = (
    # (id number, function, arguments, error type, message)
    _rejection(0, ppt_monotonicity_report, _MISMATCH, InvalidInputError, _MISMATCH_TEXT),
    _rejection(1, ppt_order_conditions, _MISMATCH, InvalidInputError, _MISMATCH_TEXT),
    _rejection(2, schur_difference_identity, _MISMATCH, InvalidInputError, _MISMATCH_TEXT),
    _rejection(3, ppt_monotonicity_report, _SKEWED_BLOCKS, PreconditionError, _NOT_HERMITIAN),
    _rejection(4, pinv_monotone, _SKEWED, PreconditionError, _NOT_HERMITIAN),
    _rejection(5, rank_path_constant, _SKEWED, PreconditionError, _NOT_HERMITIAN),
    _rejection(6, rank_path_sampled, _SKEWED, PreconditionError, _NOT_HERMITIAN),
    _rejection(7, det_sign_path_check, _SKEWED, PreconditionError, _NOT_HERMITIAN),
    _rejection(8, spectral_path_check, _SKEWED, PreconditionError, _NOT_HERMITIAN),
    _rejection(9, pinv_monotone, (np.eye(2), np.eye(3)), InvalidInputError, _SIZES),
    _rejection(10, rank_path_sampled, (np.eye(2), np.eye(3)), InvalidInputError, _SIZES),
    _rejection(11, pinv_monotone, _UNORDERED, PreconditionError, _ORDER),
    _rejection(12, rank_path_constant, _UNORDERED, PreconditionError, _RANK_PATH),
    _rejection(13, rank_path_sampled, _INDEFINITE_STEP, PreconditionError, _GRID),
    _rejection(14, det_sign_path_check, _INDEFINITE_STEP, PreconditionError, _GRID),
)


@pytest.mark.parametrize("fn, args, error, message", _REJECTIONS)
def test_order_functions_reject_with_the_same_error(fn, args, error, message):
    with pytest.raises(error) as info:
        fn(*args)
    assert str(info.value) == message


def test_block_pair_order_functions_share_one_validity_policy():
    # a block pair is checked once, at its own scale, and its pivot
    # routines work on the Hermitian parts of A22 and B22, so the report
    # and the order conditions both give a verdict on pivots that are
    # Hermitian only at the scale of the whole pair
    a, b = BlockMatrix(1, 2, _BIG), BlockMatrix(1, 2, _SKEW_PIVOT)
    report = ppt_monotonicity_report(a, b)
    conditions = ppt_order_conditions(a, b)
    assert not report.hypothesis_ok
    assert conditions.pinv_leq == report.pinv_reversed
    # so does the concavity segment: its pseudoinverse and bordered gaps
    # read the pivots of the checked pair, with no check of their own
    segment = _ConcavitySegment.of_blocks(a, b, DEFAULT_TOL)
    ts = [0.25, 0.5]
    for gaps in (segment.pinv_gaps(ts), segment.bordered().jppt_gaps(ts), [jppt_concavity_gap(a, b, 0.5)]):
        assert all(isinstance(gap.psd, bool) for gap in gaps)


def test_report_without_order_hypothesis():
    # B - A indefinite: the fields stay diagnostic, hypothesis_ok is false
    a = BlockMatrix(1, 1, np.diag([1.0, 0.0]))
    b = BlockMatrix(1, 1, np.diag([0.0, 1.0]))
    r = ppt_monotonicity_report(a, b)
    assert not r.hypothesis_ok


def test_albert_conditions():
    psd = BlockMatrix(1, 1, np.array([[2.0, 1.0], [1.0, 1.0]]))
    c = albert_psd_conditions(psd)
    assert c.psd22 and c.ker_incl and c.psd_schur and c.overall
    indefinite = BlockMatrix(1, 1, np.diag([1.0, -1.0]))
    assert not albert_psd_conditions(indefinite).overall
    # kernel inclusion is the failing leg here
    broken = BlockMatrix(1, 1, np.array([[1.0, 1.0], [1.0, 0.0]]))
    cb = albert_psd_conditions(broken)
    assert cb.psd22 and not cb.ker_incl and not cb.overall


def test_albert_matches_direct_psd_check():
    rng = Xoshiro256pp(246)
    for _ in range(25):
        n1 = rng.randint(4)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        raw = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), "generic")
        for m in raw:
            direct = loewner_leq(np.zeros_like(m.data), m.data)
            assert albert_psd_conditions(m).overall == direct


def test_pinv_monotone():
    shared = np.full((2, 2), 0.5)
    doubled = np.full((2, 2), 1.0)
    r = pinv_monotone(shared, doubled)
    assert r.holds and r.ker_equal and r.inertia_equal
    assert loewner_leq(pinv(doubled), pinv(shared))
    r2 = pinv_monotone(np.diag([0.0, 1.0]), np.diag([1.0, 1.0]))
    assert not r2.holds and not r2.ker_equal
    with pytest.raises(PreconditionError):
        pinv_monotone(np.diag([1.0, 1.0]), np.diag([0.0, 1.0]))  # not ordered


def test_spectral_path_check():
    r = spectral_path_check(np.array([[-1.0]]), np.array([[1.0]]))
    assert r.real_spectrum and not r.no_crossing
    r2 = spectral_path_check(np.array([[2.0]]), np.array([[1.0]]))
    assert r2.no_crossing
    with pytest.raises(PreconditionError):
        spectral_path_check(np.eye(2), np.diag([1.0, 0.0]))  # singular endpoint
    # trivial dimension
    assert spectral_path_check(np.zeros((0, 0)), np.zeros((0, 0))).no_crossing


def test_rank_path_routes():
    # kernels differ: decided by rank comparison, witness at an endpoint
    r = rank_path_constant(np.diag([0.0, 1.0]), np.diag([1.0, 1.0]), require_order=False)
    assert not r.constant
    assert r.method == "kernel_inertia"
    assert r.endpoint_ranks == (1, 2)
    assert r.witness_t == 0.0
    # same kernels, no crossing
    r2 = rank_path_constant(np.diag([1.0, 2.0]), np.diag([3.0, 1.0]), require_order=False)
    assert r2.constant and r2.common_rank == 2
    # sign flip crossing in the interior
    r3 = rank_path_constant(np.array([[-1.0]]), np.array([[1.0]]), require_order=False)
    assert not r3.constant and abs(r3.witness_t - 0.5) <= 1e-6
    # an ordered pair whose kernels differ at equal endpoint ranks: the
    # witness is an interior sample
    c, d = np.diag([-1.0, 0.0]), np.diag([0.0, 1.0])
    r4 = rank_path_constant(c, d)
    assert not r4.constant
    assert r4.method == "kernel_inertia"
    assert r4.endpoint_ranks == (1, 1)
    w = r4.witness_t
    assert np.linalg.matrix_rank((1.0 - w) * c + w * d) != 1
    # without the order, kernels can differ while the rank stays 2 on [0, 1]
    c = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    d = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    r5 = rank_path_constant(c, d, require_order=False)
    assert r5.constant and r5.common_rank == 2 and r5.witness_t is None
    assert r5.method == "kernel_inertia" and r5.endpoint_ranks == (2, 2)
    # with 1 and -3 appended the rank drops to 2 at t = 1/4, between the
    # m + 1 samples k/6: the drop-point search finds it
    c4, d4 = np.zeros((4, 4)), np.zeros((4, 4))
    c4[:3, :3], c4[3, 3] = c, 1.0
    d4[:3, :3], d4[3, 3] = d, -3.0
    r6 = rank_path_constant(c4, d4, require_order=False)
    assert not r6.constant and r6.endpoint_ranks == (3, 3)
    assert abs(r6.witness_t - 0.25) <= 1e-12
    # ordered, kernels differ, and the zero test reads rank 1 at every
    # sample: the theorem still says not constant, as pinv_monotone does
    c, d = np.diag([-1.0, 0.0]), np.diag([0.0, 1e-11])
    assert not pinv_monotone(c, d).ker_equal
    for args, order in (((c, d), True), ((c, d), False), ((d, c), False)):
        r7 = rank_path_constant(*args, require_order=order)
        assert not r7.constant and r7.method == "kernel_inertia"
        assert 0.0 < r7.witness_t < 1.0
    a = BlockMatrix(1, 2, np.diag([1.0, -1.0, 0.0]))
    b = BlockMatrix(1, 2, np.diag([1.0, 0.0, 1e-11]))
    assert ppt_monotonicity_report(a, b).consistent


# Pairs on which minimizing the smallest singular value over a grid and
# a golden-section search settles at a point off the crossing.
CROSSING_PAIRS = (
    GenSpec(5, 2, "complex", 13602026196145896528),
    GenSpec(0, 5, "complex", 4311084623238927041),
)


def _witness_is_a_crossing(c, d, r, tol=DEFAULT_TOL):
    """(1-w)C + wD has more |eigenvalues| <= psd_tol than C's kernel dimension."""
    w = r.witness_t
    ev = np.linalg.eigvalsh(hermitian_part((1.0 - w) * c + w * d))
    return int(np.sum(np.abs(ev) <= tol.psd_tol)) > c.shape[0] - r.endpoint_ranks[0]


@pytest.mark.parametrize("spec", CROSSING_PAIRS)
def test_spectral_witness_is_a_crossing(spec):
    a, b = rand_ordered_pair(spec, "generic")
    r = rank_path_constant(a.a22, b.a22)
    assert not r.constant and r.method == "spectral"
    assert _witness_is_a_crossing(a.a22, b.a22, r)


def test_spectral_witnesses_are_crossings_on_generated_pairs():
    rng = Xoshiro256pp(20261018)
    checked = 0
    for mode in ORDERED_PAIR_MODES:
        for _ in range(150):
            n1 = rng.randint(7)
            n2 = 1 + rng.randint(6)
            fld = "complex" if rng.randint(2) else "real"
            a, b = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), mode)
            r = rank_path_constant(a.a22, b.a22)
            if r.method == "spectral" and not r.constant:
                checked += 1
                assert _witness_is_a_crossing(a.a22, b.a22, r), (mode, n1, n2, fld)
    assert checked > 0


def test_rank_path_requires_order_by_default():
    with pytest.raises(PreconditionError):
        rank_path_constant(np.diag([1.0]), np.diag([0.0]))


def test_sampled_oracle_catches_near_endpoint_crossing():
    # crossing at t* = 0.001/1.001, far inside the first grid cell
    c = np.array([[-0.001]])
    d = np.array([[1.0]])
    det = rank_path_constant(c, d, require_order=False)
    smp = rank_path_sampled(c, d)
    assert not det.constant and not smp.constant
    assert not det_sign_path_check(c, d)
    # and mirrored at the right endpoint
    assert not rank_path_sampled(d, c).constant


def test_grid_oracles_require_a_semidefinite_step():
    # D - C = diag(-1, 1) is indefinite, so the sorted eigenvalues of the
    # segment need not be monotone and a grid could miss a crossing
    c, d = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    with pytest.raises(PreconditionError):
        rank_path_sampled(c, d)
    with pytest.raises(PreconditionError):
        det_sign_path_check(c, d)


def test_grid_oracles_need_a_sample():
    for fn in (rank_path_sampled, det_sign_path_check):
        with pytest.raises(InvalidInputError):
            fn([[1.0]], [[2.0]], points=0)


def test_oracles_agree_on_generated_pairs():
    rng = Xoshiro256pp(13579)
    for mode in ORDERED_PAIR_MODES:
        for _ in range(20):
            n1 = rng.randint(3)
            n2 = 1 + rng.randint(4)
            fld = "complex" if rng.randint(2) else "real"
            a, b = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), mode)
            det = rank_path_constant(a.a22, b.a22, require_order=False)
            smp = rank_path_sampled(a.a22, b.a22)
            assert det.constant == smp.constant


def test_order_conditions(pair_2x2, pair_4x4):
    a, b = pair_4x4
    c = ppt_order_conditions(a, b)
    assert c.pinv_leq and c.ker_incl and c.residual_psd and c.overall
    a0, b0 = pair_2x2
    c0 = ppt_order_conditions(a0, b0)
    assert not c0.pinv_leq and not c0.overall


def test_order_conditions_match_direct_ordering():
    rng = Xoshiro256pp(8642)
    for mode in ORDERED_PAIR_MODES:
        for _ in range(12):
            n1 = rng.randint(3)
            n2 = 1 + rng.randint(3)
            fld = "complex" if rng.randint(2) else "real"
            a, b = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), mode)
            report = ppt_monotonicity_report(a, b)
            assert ppt_order_conditions(a, b).overall == report.ppt_ordered


def test_pivot_blocks_are_decomposed_once_per_operand(monkeypatch):
    # the order-pair functions run no SVD (test_order_pair_functions_run_no_svd);
    # the saddle routines read A22^+ and the minimizers' kernel basis off one SVD
    # (they ran 2, one for each); the polarization reconstruction certifies
    # and factors once per call (it used to run ppt_min, 2 SVDs, for each of
    # its n(n+1)/2 or n^2 values)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)

    def svd_count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = Xoshiro256pp(4242)
    for fld in ("real", "complex"):
        spec = GenSpec(1 + rng.randint(4), 1 + rng.randint(4), fld, rng.next_uint64())
        a, b = rand_ordered_pair(spec, "constant_rank")
        # the transforms factor their pivot block once
        for fn, arg in ((pinv, a.a22), (gppt, a), (jppt, a)):
            assert svd_count(fn, arg) == 1, fn.__name__
        spec = GenSpec(1 + rng.randint(4), 1 + rng.randint(4), fld, rng.next_uint64())
        h = rand_hermitian(spec)
        s = rand_saddle_instance(spec)
        x1, y2 = rand_saddle_rhs(s, rng.next_uint64())
        for fn, args, limit in (
            (ep_congruence_schur, (h,), 1),
            (jppt_im_congruence, (h,), 1),
            (block_diagonalize, (s,), 1),
            (schur_min, (s, x1), 1),
            (ppt_min, (s, x1, y2), 1),
            (solve_saddle, (s, x1, y2), 1),
            (reconstruct_jppt_from_minima, (s,), 1),
        ):
            assert svd_count(fn, *args) <= limit, fn.__name__
    # one gppt, then one SVD in is_ep and one in each congruence
    # (seed 12345 takes the Im-PSD branch)
    assert svd_count(_ep_congruence_trial, 12345, DEFAULT_TOL) <= 4
    # one saddle instance: one SVD of A22 gives gppt and the pivot kernel
    # basis, which serve the solution, the minimum and all 11 objective
    # values (it ran 2 with a kernel SVD of its own, and 15 with one pinv
    # per objective call)
    assert svd_count(_saddle_trial, 12345, DEFAULT_TOL) <= 1


def test_schur_difference_identity_exact(pair_4x4):
    a, b = pair_4x4
    result = schur_difference_identity(a, b)
    expected = np.array([[0.5, 0.0], [0.0, 0.0]])
    assert max_abs(result.lhs - expected) <= 1e-12
    assert max_abs(result.rhs - expected) <= 1e-12
    assert max_abs(result.rhs_alt - expected) <= 1e-12
    assert result.residual <= 1e-12
    assert result.residual_alt <= 1e-12
    assert result.inclusions_ok


def test_schur_difference_identity_on_generated_pairs():
    rng = Xoshiro256pp(1122)
    for _ in range(15):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        a, b = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), "constant_rank")
        result = schur_difference_identity(a, b)
        assert result.residual <= 1e-9
        assert result.residual_alt <= 1e-9


def test_schur_difference_hypothesis_violations():
    # pivot kernels differ
    a = BlockMatrix(1, 2, np.zeros((3, 3)))
    bdat = np.zeros((3, 3))
    bdat[1, 1] = 1.0
    b = BlockMatrix(1, 2, bdat)
    with pytest.raises(PreconditionError):
        schur_difference_identity(a, b)


def _schur_difference_inclusion_breaks():
    # pivots equal but the (1,2) difference escapes the pivot difference
    b2dat = np.diag([0.0, 1.0, 1.0])
    b2dat[0, 1] = 1.0
    b2dat[1, 0] = 1.0
    yield "(1,2)", BlockMatrix(1, 2, np.diag([0.0, 1.0, 1.0])), BlockMatrix(1, 2, b2dat)
    # Hermitian at the scale of the (1,1) entry, whose (2,1) differences
    # add up to more than the certificate threshold at that scale
    a3 = BlockMatrix(1, 1, [[1e8, 0.0], [-0.9, 1.0]])
    b3 = BlockMatrix(1, 1, [[1e8, 0.0], [0.9, 1.0]])
    yield "(2,1)", a3, b3


@pytest.mark.parametrize("which, a, b", _schur_difference_inclusion_breaks())
def test_schur_difference_inclusion_errors_carry_certificates(which, a, b):
    with pytest.raises(PreconditionError) as info:
        schur_difference_identity(a, b)
    assert which in str(info.value)
    assert info.value.certificate > DEFAULT_TOL.scaled_eq_tol(a.data, b.data)


def test_seam_pair_verdicts_agree():
    # A22 = 3e-9 is below psd_tol but far above the zero test's cutoff
    r = ppt_monotonicity_report(BlockMatrix(0, 1, [[3e-9]]), BlockMatrix(0, 1, [[1.0]]))
    assert r.consistent
    assert pinv_monotone([[3e-9]], [[1.0]]).holds == r.pinv_reversed
    assert inertia([[3e-9]]) == Inertia(1, 0, 0)
    assert rank_path_sampled([[3e-9]], [[1.0]]).constant
    assert det_sign_path_check([[3e-9]], [[1.0]])


def _lifted_seam_pair(rng):
    """An ordered pair whose pivot A22 has one eigenvalue +-eps, eps
    log-uniform in [1e-12, 1e-6], that B22 lifts by U[0.1, 1]; the other
    pivot eigenvalues are +-U[0.1, 1] and B22 lifts them by U[0, 0.05]."""
    n1 = rng.randint(3)
    n2 = 1 + rng.randint(4)
    fld = "complex" if rng.randint(2) else "real"
    frame = gen._orthonormal_columns(rng, n2, n2, fld, 1.0)
    signs = np.array([1.0 if rng.randint(2) == 0 else -1.0 for _ in range(n2)])
    eps = 10.0 ** float(rng.uniform(1, -12.0, -6.0)[0])
    diag_a = np.concatenate([[eps], rng.uniform(n2 - 1, 0.1, 1.0)]) * signs
    lift = np.concatenate([rng.uniform(1, 0.1, 1.0), rng.uniform(n2 - 1, 0.0, 0.05)])
    a22 = linalg._hermitian(frame @ (diag_a[:, None] * adjoint(frame)))
    d22 = linalg._hermitian(frame @ (lift[:, None] * adjoint(frame)))
    a12 = gen._draw_matrix(rng, n1, n2, fld, 1.0)
    a11 = linalg._hermitian(gen._draw_matrix(rng, n1, n1, fld, 1.0))
    a = gen._assemble_hermitian(n1, n2, a11, a12, a22)
    diff = gen._psd_with_given_22(rng, n1, n2, fld, 1.0, d22)
    return a, BlockMatrix(n1, n2, linalg._hermitian(a.data + diff.data))


def test_lifted_seam_pairs_are_consistent():
    # the three criteria must call the same tiny pivot eigenvalue zero
    rng = Xoshiro256pp(31415)
    for i in range(320):
        a, b = _lifted_seam_pair(rng)
        r = ppt_monotonicity_report(a, b)
        assert r.hypothesis_ok and r.consistent, i
        assert pinv_monotone(a.a22, b.a22).holds == r.pinv_reversed, i
        assert rank_path_sampled(a.a22, b.a22).constant == r.rank_path.constant, i


def _counting(monkeypatch, names, *modules):
    """Count the calls of the functions ``names``, patched on each of
    ``modules`` (every module that holds its own reference to them)."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(modules[0], name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
    return counts


def test_monotonicity_trial_factors_each_operand_once(monkeypatch):
    # one pair per trial: one eigen-split per pivot and one of the pivot
    # difference (3 eigh), which give both transforms' pivot pseudoinverses
    # and dp^+, and one eigvalsh per order test, with D22 - C22 decided once
    # for the pinv criterion and the grid oracle, and the rank path's
    # singularity read off the splits; five public calls ran 5, 4 and 9
    # SVD/eigh/eigvalsh, one pair with an SVD per gppt 3, 2 and 7, and one
    # with an SVD pinv of dp and its own zero tests in the rank path 1, 2 and 7
    counts = _counting(monkeypatch, ("svd", "eigh", "eigvalsh"), np.linalg)
    _monotonicity_trial(12345, DEFAULT_TOL)
    assert counts["svd"] == 0
    assert counts["eigh"] <= 3
    assert counts["eigvalsh"] <= 5


def test_report_checks_each_matrix_once(monkeypatch):
    # the block pair check, one test per matrix; the report made 13.7
    # Hermitian tests when every order test re-validated its operands, and
    # 5.7 when it checked its pivots a second time
    counts = _counting(monkeypatch, ("_is_hermitian",), linalg, blockmat)
    rng = Xoshiro256pp(5151)
    for mode in ORDERED_PAIR_MODES:
        for fld in ("real", "complex"):
            a, b = rand_ordered_pair(GenSpec(2, 3, fld, rng.next_uint64()), mode)
            counts["_is_hermitian"] = 0
            ppt_monotonicity_report(a, b)
            assert counts["_is_hermitian"] <= 2, (mode, fld)


def _seeded_pairs(seed: int):
    """24 ordered pairs per mode, both fields, n1 = 0 for every fourth."""
    rng = Xoshiro256pp(seed)
    for mode in ORDERED_PAIR_MODES:
        for k in range(24):
            n1 = 0 if k % 4 == 0 else rng.randint(4)
            n2 = 1 + rng.randint(4)
            fld = ("real", "complex")[k % 2]
            a, b = rand_ordered_pair(GenSpec(n1, n2, fld, rng.next_uint64()), mode)
            yield (mode, k, n1, n2, fld), a, b


_ORDER_PAIR_FUNCTIONS = (
    (ppt_monotonicity_report, True),
    (ppt_order_conditions, True),
    (schur_difference_identity, True),
    (pinv_monotone, False),
    (rank_path_constant, False),
    (rank_path_sampled, False),
    (det_sign_path_check, False),
    (spectral_path_check, False),
)


def test_order_pair_functions_run_no_svd(monkeypatch):
    # every pseudoinverse, rank and singularity verdict of the order pair
    # comes from an eigen-split
    def no_svd(*args, **kwargs):
        raise AssertionError("an order-pair function ran an SVD")

    # the report, the order conditions and the difference identity ran 2, 3
    # and 5 SVDs when each gppt ran its own, and the latter two 1 and 3 with
    # an SVD pinv of each pivot difference
    pairs = list(_seeded_pairs(90909))  # the generator runs SVDs
    crossing = rand_ordered_pair(CROSSING_PAIRS[0], "generic")
    assert not ppt_monotonicity_report(*crossing).rank_path.constant
    pairs.append(("crossing", *crossing))
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for where, a, b in pairs:
        for fn, blocks in _ORDER_PAIR_FUNCTIONS:
            args = (a, b) if blocks else (a.a22, b.a22)
            try:
                fn(*args)
            except PreconditionError:
                # the difference identity needs equal pivot kernels, the
                # spectral test an invertible D
                assert fn in (schur_difference_identity, spectral_path_check), (fn.__name__, where)


def test_pair_transforms_match_gppt():
    # the pair reads each pivot pseudoinverse off the pivot's eigen-split,
    # public gppt off an SVD of the pivot: they agree up to rounding
    for where, a, b in _seeded_pairs(70707):
        pair = _OrderPair.of_blocks(a, b, DEFAULT_TOL)
        for x, transform in zip((a, b), pair.transforms):
            expected = gppt(x).data
            assert max_abs(transform.data - expected) <= 1e-10 * (1.0 + max_abs(expected)), where


def test_split_rank_matches_rank():
    # the eigen-split and the SVD call the same pivot eigenvalues zero
    for where, a, b in _seeded_pairs(80808):
        pair = _OrderPair.of_blocks(a, b, DEFAULT_TOL)
        for x, (_, support, w) in zip((a, b), pair.splits):
            assert support.shape[1] == w.size == linalg.rank(x.a22), where


def test_overflow_raises_as_gppt_does():
    # a transform that overflows raises gppt's error
    a = BlockMatrix(1, 1, [[1.0, 1e200], [1e200, 1e-200]])
    b = BlockMatrix(1, 1, [[2.0, 1e200], [1e200, 1e-200]])
    # so does a pivot whose Hermitian part overflows, rather than giving an
    # eigen-split that calls its NaN eigenvalues zero
    big = np.diag([1.0, 1e308, 1e308])
    c, d = BlockMatrix(1, 2, big), BlockMatrix(1, 2, big + np.diag([1.0, 0.0, 0.0]))
    cases = (
        (gppt, (a,), "data"),
        (ppt_monotonicity_report, (a, b), "data"),
        (ppt_order_conditions, (a, b), "data"),
        (ppt_monotonicity_report, (c, d), "matrix"),
        (ppt_order_conditions, (c, d), "matrix"),
        (pinv_monotone, (c.a22, d.a22), "matrix"),
        (rank_path_constant, (c.a22, d.a22), "matrix"),
    )
    with np.errstate(all="ignore"):
        for fn, args, name in cases:
            with pytest.raises(InvalidInputError) as info:
                fn(*args)
            assert str(info.value) == f"{name} contains non-finite entries", fn.__name__


def test_pair_verdicts_match_public_primitives():
    # every verdict the monotonicity suite reads off one pair, recomputed
    # from the public primitives on the same arrays
    for where, a, b in _seeded_pairs(60606):
        a22, b22 = a.a22, b.a22
        pair = _OrderPair.of_blocks(a, b, DEFAULT_TOL)
        report = pair.report()
        assert report.hypothesis_ok == loewner_leq(a.data, b.data), where
        assert report.ppt_ordered == loewner_leq(jppt(a).data, jppt(b).data), where
        assert report.pinv_reversed == loewner_leq(pinv(b22), pinv(a22)), where
        schur_ordered = loewner_leq(schur_complement(a), schur_complement(b))
        assert report.schur_ordered == schur_ordered, where
        assert report.rank_path == rank_path_constant(a22, b22, require_order=False), where
        sampled = pair.rank_path_sampled()
        assert sampled == rank_path_sampled(a22, b22), where
        assert sampled.constant == report.rank_path.constant, where
        pm = pair.pinv_monotone()
        ker_equal = subspace_eq(kernel_basis(a22), kernel_basis(b22))
        inertia_equal = inertia(a22).n_neg == inertia(b22).n_neg
        assert (pm.ker_equal, pm.inertia_equal) == (ker_equal, inertia_equal), where
        assert pm == pinv_monotone(a22, b22), where
        conditions = pair.order_conditions()
        ga, gb = gppt(a), gppt(b)
        dp = hermitian_part(ga.a22 - gb.a22)
        dp_pinv = pinv(dp)
        g, gr = gb.a12 - ga.a12, ga.a21 - gb.a21
        s = hermitian_part(gb.a11 - ga.a11 - g @ dp_pinv @ gr)
        assert conditions.pinv_leq == report.pinv_reversed, where
        assert conditions.ker_incl == (
            max_abs(g - g @ dp_pinv @ dp) <= DEFAULT_TOL.scaled_eq_tol(g, dp)
        ), where
        assert conditions.residual_psd == is_psd(s), where
        assert conditions == ppt_order_conditions(a, b), where
