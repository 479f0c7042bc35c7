"""Self-tests for the benchmark's tail-percentile rule and output gates.

    python3 -m pytest perfbench/test_harness.py
"""

from types import SimpleNamespace

import pytest

from harness import (
    TAIL_BEYOND,
    Tally,
    order_large_ok,
    order_small_ok,
    path_verdict,
    report_verdict,
    segmented_tail,
    suite_trial_ok,
    tail_percentile,
)


def path(constant=True, method="spectral", common_rank=2, witness_t=None):
    return SimpleNamespace(constant=constant, method=method, common_rank=common_rank, witness_t=witness_t)


def report(**overrides):
    fields = dict(hypothesis_ok=True, ppt_ordered=True, pinv_reversed=True, schur_ordered=True,
                  consistent=True, rank_path=path())
    fields.update(overrides)
    return SimpleNamespace(**fields)


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (100, 90.0), (1000, 99.0), (4000, 99.75)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    samples = list(range(n, 0, -1))  # distinct, in reverse order
    pct, value = tail_percentile(samples)
    assert pct == pytest.approx(percentile)
    assert sum(s > value for s in samples) == TAIL_BEYOND
    # the next sample up has one fewer beyond it, so it is not allowed
    assert sum(s > value + 1 for s in samples) == TAIL_BEYOND - 1


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * TAIL_BEYOND)


def test_segmented_tail_ignores_a_stall_in_one_segment():
    samples = [1.0] * 500
    samples[100:120] = [9.0] * 20  # a stall inside the second of five segments
    pct, value, per_segment = segmented_tail(samples)
    assert (pct, value, per_segment) == (90.0, 1.0, 100)
    assert tail_percentile(samples)[1] == 9.0
    # too few samples for five segments: as many as keep ten beyond each tail
    assert segmented_tail(list(range(30)))[2] == 15
    assert segmented_tail(list(range(11)))[1:] == tail_percentile(list(range(11)))[1:] + (11,)


def test_order_small_gate():
    sampled = path()
    assert order_small_ok(report(), sampled)
    assert not order_small_ok(report(hypothesis_ok=False), sampled)
    assert not order_small_ok(report(consistent=False), sampled)
    assert not order_small_ok(report(), path(constant=False, method="sampled", common_rank=None))
    broken = report(ppt_ordered=False, pinv_reversed=False, rank_path=path(False, "spectral", None, 0.5))
    assert order_small_ok(broken, path(constant=False, method="sampled", common_rank=None))


def test_order_large_gate():
    assert order_large_ok(report())
    assert not order_large_ok(report(hypothesis_ok=False))
    assert not order_large_ok(report(consistent=False))
    assert not order_large_ok(report(rank_path=path(False, "spectral", None, 0.5)))


def test_suite_trial_gate():
    passed = SimpleNamespace(trials=1, passed=True)
    assert suite_trial_ok([passed])
    assert not suite_trial_ok([SimpleNamespace(trials=1, passed=False)])
    assert not suite_trial_ok([passed, passed])
    assert not suite_trial_ok([SimpleNamespace(trials=2, passed=True)])


def test_raised_exception_is_a_failed_item():
    def item(i):
        if i == 1:
            raise ArithmeticError("boom")
        return True, [i]

    tally = Tally(prefix=3)
    for i in range(4):
        tally.run(i, item)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.fail_frac == 0.25
    assert "ArithmeticError" in tally.failures[0]


def test_verdict_that_changes_between_passes_fails():
    tally = Tally(prefix=2)
    tally.run(0, lambda i: (True, ["a"]))
    tally.run(0, lambda i: (True, ["b"]))
    assert tally.failed == 1


def test_digest_covers_the_prefix_and_ignores_the_witness():
    def digest(witness, beyond_prefix):
        tally = Tally(prefix=2)
        tally.record(0, True, report_verdict(report(rank_path=path(False, "spectral", None, witness))))
        tally.record(1, True, path_verdict(path()))
        tally.record(2, True, beyond_prefix)
        return tally.digest()

    assert digest(0.25, "x") == digest(0.75, "y")
    other = Tally(prefix=2)
    other.record(0, True, report_verdict(report(consistent=False)))
    other.record(1, True, path_verdict(path()))
    assert other.digest() != digest(0.25, "x")
    with pytest.raises(ValueError):
        Tally(prefix=2).digest()
