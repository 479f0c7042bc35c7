"""Unit tests for the property-suite runner."""

import pytest

from blockpivot.errors import InvalidInputError
from blockpivot.rng import splitmix64_stream
from blockpivot.suites import SUITE_NAMES, run_suite
from blockpivot.tolerances import ToleranceConfig


def test_suite_names_cover_all_checks():
    assert SUITE_NAMES == (
        "penrose",
        "involution",
        "embedding",
        "monotonicity",
        "saddle",
        "concavity",
        "schur-difference",
        "ep-congruence",
        "all",
    )


def test_single_suite_result_shape():
    results = run_suite("penrose", 4, 99, ToleranceConfig())
    assert len(results) == 1
    r = results[0]
    assert r.name == "penrose"
    assert r.trials == 4
    assert list(r.failures) == []
    assert r.passed


def test_all_runs_every_concrete_suite():
    results = run_suite("all", 2, 7, ToleranceConfig())
    assert [r.name for r in results] == list(SUITE_NAMES[:-1])
    assert all(r.passed for r in results)


def test_trial_seeds_derive_from_master_seed():
    # a trial's failure report must carry a seed that reproduces it; the
    # runner derives per-trial seeds from the master via the split stream
    expected = splitmix64_stream(13, 3)
    assert len(set(expected)) == 3
    first = run_suite("involution", 3, 13, ToleranceConfig())
    second = run_suite("involution", 3, 13, ToleranceConfig())
    assert list(first[0].failures) == list(second[0].failures) == []


@pytest.mark.parametrize("trials", [0, -5])
def test_rejects_nonpositive_trials(trials):
    with pytest.raises(InvalidInputError):
        run_suite("penrose", trials, 1, ToleranceConfig())


def test_rejects_unknown_suite():
    with pytest.raises(InvalidInputError, match="suite"):
        run_suite("nonesuch", 2, 1, ToleranceConfig())


@pytest.mark.parametrize("name", SUITE_NAMES[:-1])
def test_every_suite_green_on_short_run(name):
    results = run_suite(name, 6, 2024, ToleranceConfig())
    assert results[0].passed, results[0].failures


@pytest.mark.parametrize("name, seed", [("embedding", 76841004), ("ep-congruence", 76841011)])
def test_residual_bounds_scale_with_the_pivot_pseudoinverse(name, seed):
    # each run holds a trial whose large |A22^+| lifts the rounding error
    # of an exact identity above an absolute 1e-10
    results = run_suite(name, 200, seed, ToleranceConfig())
    assert results[0].passed, results[0].failures
