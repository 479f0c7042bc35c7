"""Per-layer probes: timed calls into each module's public functions.

Each probe times a fixed, seeded set of calls and reports the median over
a few passes, so one stall of the machine does not set the figure.  Probes
run untraced.  Every input comes from the seed; only the validation and
transform probes take the workload's own matrices.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from blockpivot import convexity as cvx
from blockpivot import generate as gen
from blockpivot import linalg, matrixio, saddle, suites, transforms
from blockpivot import monotone as mono
from blockpivot.blockmat import BlockMatrix
from blockpivot.errors import PreconditionError
from blockpivot.rng import Xoshiro256pp

from workloads import (
    LARGE_SIZES,
    PASSING_SUITES,
    concavity_pairs,
    large_pairs,
    ordered_pairs,
    ordered_specs,
    saddle_instances,
)

SUITE_TRIALS = 20
CONCAVITY_TS = [i / 10.0 for i in range(11)]  # the concavity suite's fixed t grid
CLI_RUNS = 3


def per_call_s(fn, calls, passes: int = 5, min_pass_s: float = 0.02) -> float:
    """Median seconds per call of ``fn(*args)`` over ``calls``.

    One untimed pass warms up and sizes the repeat count so that each timed
    pass lasts at least ``min_pass_s``.
    """
    start = time.perf_counter()
    for args in calls:
        fn(*args)
    repeat = max(1, math.ceil(min_pass_s / max(time.perf_counter() - start, 1e-9)))
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        for _ in range(repeat):
            for args in calls:
                fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / (repeat * len(calls))


def validation_and_transforms(pairs) -> dict:
    mats = [a for a, _ in pairs]
    us = 1e6
    return {
        "blockmat.construct_us": us * per_call_s(BlockMatrix, [(a.n1, a.n2, a.data) for a in mats]),
        "linalg.as_matrix_us": us * per_call_s(linalg.as_matrix, [(a.data,) for a in mats]),
        "linalg.is_hermitian_us": us * per_call_s(linalg.is_hermitian, [(a.data,) for a in mats]),
        "linalg.pinv_us": us * per_call_s(linalg.pinv, [(a.a22,) for a in mats]),
        "linalg.loewner_leq_us": us * per_call_s(linalg.loewner_leq, [(a.data, b.data) for a, b in pairs]),
        "transforms.jppt_us": us * per_call_s(transforms.jppt, [(a,) for a in mats]),
        "transforms.schur_us": us * per_call_s(transforms.schur_complement, [(a,) for a in mats]),
    }


def reports_and_oracles(seed: int) -> dict:
    """Report, rank-path route and oracle times on acceptance-03 pairs, per mode."""
    pairs = ordered_pairs(seed, 8 * len(gen.ORDERED_PAIR_MODES))
    out = {}
    for mode in gen.ORDERED_PAIR_MODES:
        mine = [(a, b) for m, a, b in pairs if m == mode]
        out[f"monotone.report_us.{mode}"] = 1e6 * per_call_s(mono.ppt_monotonicity_report, mine, passes=3)
        out[f"monotone.rank_path_us.{mode}"] = 1e6 * per_call_s(
            lambda a, b: mono.rank_path_constant(a.a22, b.a22, require_order=False), mine, passes=3
        )
    pivots = [(a.a22, b.a22) for _, a, b in pairs]
    out["monotone.rank_path_sampled_us"] = 1e6 * per_call_s(mono.rank_path_sampled, pivots, passes=3)
    out["monotone.det_sign_us"] = 1e6 * per_call_s(mono.det_sign_path_check, pivots, passes=3)
    invertible = []
    for c, d in pivots:
        try:
            mono.spectral_path_check(c, d)
        except PreconditionError:  # the spectral test needs an invertible D
            continue
        invertible.append((c, d))
    out["monotone.spectral_us"] = 1e6 * per_call_s(mono.spectral_path_check, invertible, passes=3)
    return out


def report_sizes(seed: int) -> dict:
    """Report time on constant-rank pairs of each order-large size, both fields."""
    pairs = large_pairs(seed, 1)
    return {
        f"monotone.report_ms.n{n}": 1e3 * per_call_s(
            mono.ppt_monotonicity_report, [(a, b) for m, _, a, b in pairs if m == n], passes=3, min_pass_s=0.0
        )
        for n in LARGE_SIZES
    }


def convexity_gaps(seed: int) -> dict:
    pairs = concavity_pairs(seed, 8)
    calls = [(a, b, t) for a, b in pairs for t in CONCAVITY_TS]
    pivot_calls = [(a.a22, b.a22, t) for a, b, t in calls]
    return {
        "convexity.jppt_gap_us": 1e6 * per_call_s(cvx.jppt_concavity_gap, calls, passes=3),
        "convexity.schur_gap_us": 1e6 * per_call_s(cvx.schur_concavity_gap, calls, passes=3),
        "convexity.pinv_gap_us": 1e6 * per_call_s(cvx.pinv_convexity_gap, pivot_calls, passes=3),
    }


def saddle_layer(seed: int) -> dict:
    instances = saddle_instances(seed, 8)
    return {
        "saddle.solve_us": 1e6 * per_call_s(saddle.solve_saddle, instances),
        "saddle.ppt_min_us": 1e6 * per_call_s(saddle.ppt_min, instances),
        "saddle.reconstruct_us": 1e6 * per_call_s(
            saddle.reconstruct_jppt_from_minima, [(a,) for a, _, _ in instances], passes=3
        ),
    }


def reference_uniform(seed: int, count: int, lo: float, hi: float) -> tuple[np.ndarray, tuple]:
    """xoshiro256++ seeded by four splitmix64 outputs, written from the
    algorithm's definition rather than from the package, for the bit check."""
    mask = (1 << 64) - 1
    words, state = [], seed
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    if not any(words):
        words[0] = 1
    s0, s1, s2, s3 = words
    out = np.empty(count)

    def rotl(x: int, k: int) -> int:
        return ((x << k) & mask) | (x >> (64 - k))

    for i in range(count):
        r = (rotl((s0 + s3) & mask, 23) + s0) & mask
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = rotl(s3, 45)
        out[i] = lo + ((r >> 11) * 2.0**-53) * (hi - lo)
    return out, (s0, s1, s2, s3)


def generators(seed: int) -> tuple[dict, bool]:
    """Generator times and the RNG draw rate; also whether the package's
    uniform draws match the reference bit for bit."""
    specs = ordered_specs(seed, 24)
    big = [(gen.GenSpec(128, 128, "real", seed), "constant_rank")]

    expected, state = reference_uniform(seed, 4096, -3.0, 5.0)
    check = Xoshiro256pp(seed)
    got = check.uniform(4096, -3.0, 5.0)
    identical = np.array_equal(got.view(np.uint64), expected.view(np.uint64)) and check.state == state

    draws = 100_000
    rates = []
    for _ in range(3):
        stream = Xoshiro256pp(seed)
        start = time.perf_counter()
        stream.uniform(draws, -1.0, 1.0)
        rates.append(draws / (time.perf_counter() - start))
    return {
        "generate.ordered_pair_us": 1e6 * per_call_s(gen.rand_ordered_pair, specs, passes=3),
        "generate.ordered_pair_ms.n256": 1e3 * per_call_s(gen.rand_ordered_pair, big, passes=3, min_pass_s=0.0),
        "rng.uniform_draws_per_s": statistics.median(rates),
    }, identical


def suite_seconds(seed: int) -> tuple[dict, bool]:
    """Seconds for ``blockpivot verify --suite <name> --trials 20 --seed S``,
    for the suites that are not known to fail."""
    out, passed = {}, True
    for name in PASSING_SUITES:
        start = time.perf_counter()
        results = suites.run_suite(name, SUITE_TRIALS, seed)
        out[f"suites.{name}_s"] = time.perf_counter() - start
        passed = passed and all(r.passed for r in results)
    return out, passed


def io_and_cli(seed: int, root: str, workdir: str) -> tuple[dict, bool]:
    """Loading a matrix file, and cold ``check-monotone`` CLI calls run one
    after another on one constant-rank pair."""
    _, a, b = ordered_pairs(seed, 2)[1]
    paths = [os.path.join(workdir, name) for name in ("smaller.json", "larger.json")]
    matrixio.save_matrix(a, paths[0])
    matrixio.save_matrix(b, paths[1])
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "blockpivot", "check-monotone", *paths]
    times, passed = [], True
    for _ in range(CLI_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        passed = passed and proc.returncode == 0
    return {
        "matrixio.load_us": 1e6 * per_call_s(matrixio.load_matrix, [(paths[0],)]),
        "cli.check_monotone_cold_s": statistics.median(times),
    }, passed
