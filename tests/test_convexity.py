import numpy as np
import pytest

from blockpivot import (
    DEFAULT_TOL,
    BlockMatrix,
    GenSpec,
    InvalidInputError,
    PreconditionError,
    bordered_embedding,
    jppt,
    jppt_concavity_gap,
    loewner_leq,
    max_abs,
    pinv,
    pinv_convexity_gap,
    rand_matrix,
    rand_psd_pair_same_kernel,
    schur_complement,
    schur_concavity_gap,
)
from blockpivot.convexity import _ConcavitySegment
from blockpivot.rng import Xoshiro256pp
from blockpivot.suites import _concavity_trial


def test_pinv_convexity_gap_known_value():
    c = np.diag([0.0, 1.0])
    d = np.diag([0.0, 2.0])
    result = pinv_convexity_gap(c, d, 0.5)
    assert result.psd
    # (1/2)(1 + 1/2) - 1/(3/2) = 3/4 - 2/3 = 1/12 in the nonzero slot
    assert max_abs(result.gap - np.diag([0.0, 1.0 / 12.0])) <= 1e-12


def test_gaps_vanish_at_segment_ends():
    rng = Xoshiro256pp(112)
    a, b = rand_psd_pair_same_kernel(GenSpec(2, 2, "real", rng.next_uint64()))
    for t in (0.0, 1.0):
        assert max_abs(jppt_concavity_gap(a, b, t).gap) <= 1e-10
        assert max_abs(schur_concavity_gap(a, b, t).gap) <= 1e-10
        assert max_abs(pinv_convexity_gap(a.a22, b.a22, t).gap) <= 1e-10


def test_gaps_are_psd_on_same_kernel_pairs():
    rng = Xoshiro256pp(225)
    for _ in range(10):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        a, b = rand_psd_pair_same_kernel(GenSpec(n1, n2, fld, rng.next_uint64()))
        for t in (0.1, 0.5, 0.9):
            big = jppt_concavity_gap(a, b, t)
            assert big.psd
            small = schur_concavity_gap(a, b, t)
            assert small.psd
            # the Schur gap sits in the (1,1) corner of the transform gap
            assert max_abs(small.gap - big.gap[:n1, :n1]) <= 1e-10
            assert pinv_convexity_gap(a.a22, b.a22, t).psd


def test_gap_matches_direct_formula():
    rng = Xoshiro256pp(334)
    a, b = rand_psd_pair_same_kernel(GenSpec(2, 1, "real", rng.next_uint64()))
    t = 0.375
    mix = BlockMatrix(2, 1, (1 - t) * a.data + t * b.data)
    direct = jppt(mix).data - ((1 - t) * jppt(a).data + t * jppt(b).data)
    assert max_abs(jppt_concavity_gap(a, b, t).gap - direct) <= 1e-12


def test_bordered_embedding_structure():
    c = np.diag([1.0, 2.0])
    d = np.diag([3.0, 4.0])
    ec, ed = bordered_embedding(c, d)
    assert (ec.n1, ec.n2) == (1, 2)
    assert np.array_equal(ec.a22, c)
    assert np.array_equal(ed.a22, d)
    assert max_abs(ec.a11) == 0.0 and max_abs(ec.a12) == 0.0 and max_abs(ec.a21) == 0.0
    # pivot transform of the bordered matrix carries the negated pseudoinverse
    assert max_abs(jppt(ec).data[1:, 1:] + pinv(c)) <= 1e-12


def test_pinv_gap_is_bordered_jppt_gap_block():
    rng = Xoshiro256pp(445)
    for _ in range(8):
        m = 1 + rng.randint(4)
        fld = "complex" if rng.randint(2) else "real"
        pair = rand_psd_pair_same_kernel(GenSpec(0, m, fld, rng.next_uint64()))
        c, d = pair[0].a22, pair[1].a22
        t = float(rng.uniform(1, 0.05, 0.95)[0])
        pgap = pinv_convexity_gap(c, d, t)
        ec, ed = bordered_embedding(c, d)
        egap = jppt_concavity_gap(ec, ed, t)
        assert max_abs(pgap.gap - egap.gap[1:, 1:]) <= 1e-10


def test_concavity_linked_to_monotonicity():
    # ordered same-kernel pair: along the segment the Schur complement grows
    rng = Xoshiro256pp(556)
    a, b = rand_psd_pair_same_kernel(GenSpec(2, 2, "real", rng.next_uint64()), ordered=True)
    s_a = schur_complement(a)
    s_b = schur_complement(b)
    assert loewner_leq(s_a, s_b)


def test_precondition_rejections():
    c = np.diag([0.0, 1.0])
    d = np.diag([1.0, 1.0])
    with pytest.raises(PreconditionError):
        pinv_convexity_gap(c, d, 0.5)  # kernels differ
    with pytest.raises(PreconditionError) as info:
        pinv_convexity_gap(-np.eye(2), np.eye(2), 0.5)  # not PSD
    # the certificate is the failing matrix's smallest eigenvalue
    assert info.value.certificate == -1.0
    assert info.value.certificate < -DEFAULT_TOL.psd_tol
    with pytest.raises(PreconditionError, match="^the second matrix") as info:
        jppt_concavity_gap(BlockMatrix(1, 1, np.eye(2)), BlockMatrix(1, 1, np.diag([1.0, -2.0])), 0.5)
    assert info.value.certificate == -2.0
    with pytest.raises(InvalidInputError):
        pinv_convexity_gap(np.eye(2), np.eye(2), 1.5)  # t outside [0, 1]
    a = BlockMatrix(1, 1, np.diag([1.0, 0.0]))
    b = BlockMatrix(1, 1, np.diag([1.0, 1.0]))
    with pytest.raises(PreconditionError):
        jppt_concavity_gap(a, b, 0.5)  # pivot kernels differ
    with pytest.raises(InvalidInputError):
        schur_concavity_gap(a, a, -0.1)
    # t is checked before the pair: a bad t wins over a failed precondition
    with pytest.raises(InvalidInputError):
        pinv_convexity_gap(c, d, 1.5)
    with pytest.raises(InvalidInputError):
        jppt_concavity_gap(a, b, -0.1)


def test_segment_gaps_equal_public_gaps():
    # the suite's once-checked segments, each gap kind over a whole vector of
    # t, and the one-t public functions give the same bits and verdicts; a
    # block segment's pseudoinverse gaps are its pivots' own
    rng = Xoshiro256pp(778)
    for k in range(12):
        fld = ("real", "complex")[k % 2]
        a, b = rand_psd_pair_same_kernel(
            GenSpec(rng.randint(4), 1 + rng.randint(3), fld, rng.next_uint64())
        )
        ts = [i / 10.0 for i in range(11)] + list(rng.uniform(3, 0.0, 1.0))
        ea, eb = bordered_embedding(a.a22, b.a22)
        segment = _ConcavitySegment.of_blocks(a, b, DEFAULT_TOL)
        pivots = _ConcavitySegment.of_matrices(a.a22, b.a22, DEFAULT_TOL)
        stacked = (
            segment.jppt_gaps(ts),
            segment.schur_gaps(ts),
            segment.pinv_gaps(ts),
            segment.bordered().jppt_gaps(ts),
            pivots.pinv_gaps(ts),
            pivots.bordered().jppt_gaps(ts),
        )
        assert all(len(gaps) == len(ts) for gaps in stacked)
        for t, *seg_gaps in zip(ts, *stacked):
            pinv_gap = pinv_convexity_gap(a.a22, b.a22, t)
            bordered_gap = jppt_concavity_gap(ea, eb, t)
            public_gaps = (
                jppt_concavity_gap(a, b, t),
                schur_concavity_gap(a, b, t),
                pinv_gap,
                bordered_gap,
                pinv_gap,
                bordered_gap,
            )
            for seg_gap, public_gap in zip(seg_gaps, public_gaps):
                assert seg_gap.gap.dtype == public_gap.gap.dtype
                assert np.array_equal(seg_gap.gap, public_gap.gap)
                assert seg_gap.psd == public_gap.psd


def test_bordered_gaps_factor_the_segment_pivots():
    # a pair Hermitian only at its own scale: the pseudoinverse gaps and the
    # bordered gaps read the same raw pivot blocks, so they agree within the
    # concavity trial's absolute 1e-10 (they differed by 6.3e-10 when the
    # bordered segment embedded the pivots' Hermitian parts)
    big = np.diag([1e8, 1.0, 1.0])
    skew = big.copy()
    skew[2, 1] += 1e-4
    segment = _ConcavitySegment.of_blocks(BlockMatrix(1, 2, big), BlockMatrix(1, 2, skew), DEFAULT_TOL)
    ts = [0.25, 0.5]
    for pgap, egap in zip(segment.pinv_gaps(ts), segment.bordered().jppt_gaps(ts)):
        assert max_abs(pgap.gap - egap.gap[1:, 1:]) <= 1e-10


def _bordered_pair(c, d):
    """The block pairs diag(1, C) and diag(1, D), with partition (1, m)."""
    m = c.shape[0]
    a, b = np.eye(m + 1, dtype=c.dtype), np.eye(m + 1, dtype=d.dtype)
    a[1:, 1:] = c
    b[1:, 1:] = d
    return BlockMatrix(1, m, a), BlockMatrix(1, m, b)


@pytest.mark.parametrize(
    "c, d",
    [
        (np.diag([0.0, 1.0]), np.diag([1.0, 1.0])),
        (np.diag([2.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 3.0]).astype(complex)),
        # a subnormal pivot: its pseudoinverse would overflow, so a gap formed
        # before the kernel check would fail as non-finite instead
        (np.diag([1e-320, 0.0]), np.diag([0.0, 1e-320])),
    ],
    ids=["real", "complex", "subnormal"],
)
def test_kernel_mismatch_raises_before_any_gap(c, d):
    # a PSD pair whose pivot kernels differ raises the kernel error on every
    # path, after t, the Hermitian and the PSD checks, and before any
    # pseudoinverse is assembled, so no overflow is raised first
    a, b = _bordered_pair(c, d)
    ts = [0.25, 0.5]
    blocks = "pivot blocks must have equal kernels"
    plain = "the matrices must have equal kernels"
    paths = (
        (lambda: jppt_concavity_gap(a, b, 0.5), blocks),
        (lambda: schur_concavity_gap(a, b, 0.5), blocks),
        (lambda: pinv_convexity_gap(c, d, 0.5), plain),
        (lambda: _ConcavitySegment.of_blocks(a, b, DEFAULT_TOL).jppt_gaps(ts), blocks),
        (lambda: _ConcavitySegment.of_blocks(a, b, DEFAULT_TOL).schur_gaps(ts), blocks),
        (lambda: _ConcavitySegment.of_matrices(c, d, DEFAULT_TOL).pinv_gaps(ts), plain),
        (lambda: _ConcavitySegment.of_blocks(a, b, DEFAULT_TOL).pinv_gaps(ts), blocks),
        (lambda: _ConcavitySegment.of_matrices(c, d, DEFAULT_TOL).bordered().jppt_gaps(ts), plain),
    )
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for path, text in paths:
            with pytest.raises(PreconditionError) as info:
                path()
            assert str(info.value) == text


def test_segment_checks_every_t_before_factoring(monkeypatch):
    rng = Xoshiro256pp(779)
    a, b = rand_psd_pair_same_kernel(GenSpec(2, 2, "complex", rng.next_uint64()))
    segment = _ConcavitySegment.of_blocks(a, b, DEFAULT_TOL)
    pivots = _ConcavitySegment.of_matrices(a.a22, b.a22, DEFAULT_TOL)
    bordered = pivots.bordered()

    def no_svd(*args, **kwargs):
        raise AssertionError("factored before every t was checked")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for bad in (-0.1, 1.5, float("nan")):
        for pos in (0, 3, 6):
            ts = [0.25] * 7
            ts[pos] = bad
            for gaps in (
                segment.jppt_gaps,
                segment.schur_gaps,
                segment.pinv_gaps,
                pivots.pinv_gaps,
                bordered.jppt_gaps,
            ):
                with pytest.raises(InvalidInputError):
                    gaps(ts)


def test_non_finite_gaps_are_rejected():
    # a subnormal pivot has an infinite pseudoinverse, so the gaps are not finite
    tiny = np.array([[5e-324]])
    a = BlockMatrix(1, 1, np.diag([1.0, 5e-324]))
    pivots = _ConcavitySegment.of_matrices(tiny, tiny, DEFAULT_TOL)
    segment = _ConcavitySegment.of_blocks(a, a, DEFAULT_TOL)
    with np.errstate(all="ignore"):
        for gaps in (
            lambda: pinv_convexity_gap(tiny, tiny, 0.5),
            lambda: pivots.pinv_gaps([0.25, 0.5]),
            lambda: jppt_concavity_gap(a, a, 0.5),
            lambda: segment.jppt_gaps([0.25, 0.5]),
            lambda: segment.pinv_gaps([0.25, 0.5]),
        ):
            with pytest.raises(InvalidInputError, match="^matrix contains non-finite entries$"):
                gaps()


def test_gaps_decompose_each_pair_once(monkeypatch):
    counts = {"svd": 0, "eigvalsh": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)

    def run(fn, *args):
        for name in counts:
            counts[name] = 0
        fn(*args)
        return counts["svd"], counts["eigvalsh"]

    # per trial: the generator (2 SVDs), the block pair's PSD checks (2
    # eigvalsh), one stacked gppt shared by the jppt, Schur and pinv gaps,
    # one stacked gppt for the bordered gaps, and one stacked eigvalsh per
    # gap kind over the endpoints and all 14 values of t.  Each stacked SVD
    # also gives its endpoints' kernels.  A pivots segment of its own, with
    # its own PSD checks and pinv stack, ran 5 SVDs and 8 eigvalsh;
    # comparing the kernels with two SVDs of their own ran 7 SVDs;
    # transforming the block stack once per gap kind as well ran 10; per-t
    # segment calls ran 72 SVDs and 62 eigvalsh, and per-t public gap calls
    # 282 and 168.
    svds, eigs = run(_concavity_trial, 12345, DEFAULT_TOL)
    assert svds <= 4 and eigs <= 6
    # a one-shot call transforms a stack of three matrices (1 SVD) and reads
    # the pair's kernels off it; it ran 3 SVDs with a kernel check of its
    # own, and 5 before the stacked segment
    rng = Xoshiro256pp(4343)
    for fld in ("real", "complex"):
        a, b = rand_psd_pair_same_kernel(GenSpec(2, 3, fld, rng.next_uint64()))
        assert run(jppt_concavity_gap, a, b, 0.3)[0] <= 1
        assert run(schur_concavity_gap, a, b, 0.3)[0] <= 1
        assert run(pinv_convexity_gap, a.a22, b.a22, 0.3)[0] <= 1


def test_equal_kernel_hypothesis_is_needed():
    # PSD pairs whose pivot kernels differ (e1 in ker A22, e2 in ker B22):
    # the raw transform gap is indefinite, and the gap function refuses them
    rng = Xoshiro256pp(2026)
    for k in range(300):
        n1 = 1 + rng.randint(3)
        n2 = 2 + rng.randint(3)
        fld = ("real", "complex")[k % 2]
        n = n1 + n2
        ga = rand_matrix(n, n, fld, rng.next_uint64())
        gb = rand_matrix(n, n, fld, rng.next_uint64())
        ga[n1, :] = 0.0
        gb[n1 + 1, :] = 0.0
        a = BlockMatrix(n1, n2, ga @ ga.conj().T)
        b = BlockMatrix(n1, n2, gb @ gb.conj().T)
        for t in (0.25, 0.5, 0.75):
            mix = BlockMatrix(n1, n2, (1 - t) * a.data + t * b.data)
            gap = jppt(mix).data - ((1 - t) * jppt(a).data + t * jppt(b).data)
            w_min = np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0]
            assert w_min < -DEFAULT_TOL.psd_tol, (k, t, w_min)
        with pytest.raises(PreconditionError):
            jppt_concavity_gap(a, b, 0.5)
