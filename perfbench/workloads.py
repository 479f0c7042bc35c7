"""The benchmark's workloads and the seeded inputs the probes share.

Every input comes from blockpivot's public generators and is a
deterministic function of the run's seed.  Each workload is a fixed,
endless item sequence; a run works through it from item 0 in a closed loop
(one caller, one process, one thread) for as long as the run lasts.

* ``suite-six``: one trial of each of six suites in turn.  Item ``6r + k``
  is trial ``r`` of suite ``k`` as ``blockpivot verify --suite all --trials
  200 --seed S`` runs it; after trial 199 the cycle repeats.  Python glue,
  input validation and the convexity layer do most of the work.  It leaves
  out the two suites in KNOWN_FAILING.
* ``suite-all``: the same with all eight suites.  It is not one of the
  workloads in BENCHMARK.json, because some of its trials fail (see
  KNOWN_FAILING), but it runs and is gated the same way.
* ``order-small``: ``ppt_monotonicity_report`` and then the
  ``rank_path_sampled`` oracle on ordered pairs of order at most 12, the
  three generator modes in turn.  The witness search and the grid oracle
  do most of the work; the convexity layer does none.
* ``order-large``: ``ppt_monotonicity_report`` alone on constant-rank pairs
  of order 32, 128 and 256.  LAPACK time bounds these reports; there is no
  witness search, no oracle and no significant validation cost, so changes
  to glue, validation or the witness search should leave it flat.  It is
  not one of the workloads in BENCHMARK.json: on a small shared host its
  throughput follows the host's LAPACK speed, which swings by a third
  between runs.  The per-layer probes time the same reports by size.
"""

from __future__ import annotations

from blockpivot import generate as gen
from blockpivot import monotone as mono
from blockpivot import suites
from blockpivot.rng import Xoshiro256pp, splitmix64_stream

from harness import order_large_ok, order_small_ok, path_verdict, report_verdict, suite_trial_ok

FIELDS = ("real", "complex")
LARGE_SIZES = (32, 128, 256)
SUITES = tuple(name for name in suites.SUITE_NAMES if name != "all")
# Suites with trials that fail for some seeds: their residual checks use an
# absolute bound of 1e-10, and about one trial in 3000 exceeds it (residuals
# up to 1e-7).  `verify --suite all --trials 200` fails for about one seed
# in eight because of them.  The listed workloads and the probes leave them out.
KNOWN_FAILING = ("embedding", "ep-congruence")
PASSING_SUITES = tuple(name for name in SUITES if name not in KNOWN_FAILING)
_GAMMA = 0x9E3779B97F4A7C15  # the splitmix64 increment
_MASK64 = (1 << 64) - 1


def _field(rng: Xoshiro256pp) -> str:
    return FIELDS[rng.randint(2)]


def ordered_specs(seed: int, count: int) -> list:
    """``(spec, mode)`` with the modes in turn, n1 in [0, 6], n2 in [1, 6]
    and both fields: the acceptance-03 distribution.  Any prefix of a longer
    list is the shorter list."""
    rng = Xoshiro256pp(seed)
    out = []
    for i in range(count):
        mode = gen.ORDERED_PAIR_MODES[i % len(gen.ORDERED_PAIR_MODES)]
        n1 = rng.randint(7)
        n2 = 1 + rng.randint(6)
        out.append((gen.GenSpec(n1, n2, _field(rng), rng.next_uint64()), mode))
    return out


def ordered_pairs(seed: int, count: int) -> list:
    """``(mode, a, b)`` for the pairs of ``ordered_specs``."""
    return [(mode,) + gen.rand_ordered_pair(spec, mode) for spec, mode in ordered_specs(seed, count)]


def large_pairs(seed: int, reps: int) -> list:
    """``(n, field, a, b)`` constant-rank pairs with n1 = n2 = n/2, cycling
    through the sizes and fields ``reps`` times."""
    seeds = iter(splitmix64_stream(seed, reps * len(LARGE_SIZES) * len(FIELDS)))
    out = []
    for _ in range(reps):
        for n in LARGE_SIZES:
            for fld in FIELDS:
                spec = gen.GenSpec(n // 2, n // 2, fld, next(seeds))
                out.append((n, fld) + gen.rand_ordered_pair(spec, "constant_rank"))
    return out


def concavity_pairs(seed: int, count: int) -> list:
    """``(a, b)`` PSD pairs with a shared pivot kernel, shaped like the
    concavity suite's fixtures (n1, n2 in [1, 4], both fields)."""
    rng = Xoshiro256pp(seed)
    out = []
    for _ in range(count):
        n1 = 1 + rng.randint(4)
        n2 = 1 + rng.randint(4)
        spec = gen.GenSpec(n1, n2, _field(rng), rng.next_uint64())
        out.append(gen.rand_psd_pair_same_kernel(spec))
    return out


def saddle_instances(seed: int, count: int) -> list:
    """``(a, x1, y2)`` Hermitian saddle fixtures shaped like the saddle
    suite's (n1, n2 in [0, 5], both fields)."""
    rng = Xoshiro256pp(seed)
    out = []
    for _ in range(count):
        n1 = rng.randint(6)
        n2 = rng.randint(6)
        spec = gen.GenSpec(n1, n2, _field(rng), rng.next_uint64())
        a = gen.rand_saddle_instance(spec, hermitian=True)
        out.append((a,) + gen.rand_saddle_rhs(a, rng.next_uint64()))
    return out


class SuiteCycle:
    """One trial of each of ``names`` in turn, as ``verify --suite all`` runs them."""

    rounds = 200  # the trials of `blockpivot verify --suite all --trials 200`, cycled

    def __init__(self, seed: int, names: tuple):
        self.seed = seed
        self.names = names
        self.window = 8 * len(names)  # items per throughput window: eight rounds
        self.prefix = 8 * len(names)  # items in the verdict digest and the call counts
        # Trial r of run_suite(name, N, seed) runs with splitmix64 output r of
        # `seed`, which is output 0 of `seed + r * gamma`.
        for r in range(3):
            if splitmix64_stream(self.round_seed(r), 1) != splitmix64_stream(seed, r + 1)[r:]:
                raise RuntimeError("suite trial seeds no longer follow the splitmix64 stream")

    def round_seed(self, r: int) -> int:
        return (self.seed + r * _GAMMA) & _MASK64

    def item(self, i: int):
        name = self.names[i % len(self.names)]
        r = (i // len(self.names)) % self.rounds
        ok = suite_trial_ok(suites.run_suite(name, 1, self.round_seed(r)))
        return ok, [name, r, ok]

    def warm_up(self) -> None:
        for name in self.names:
            suites.run_suite(name, 1, self.seed)

    def matrices(self) -> list:
        return concavity_pairs(self.seed, 16)


class SuiteSix(SuiteCycle):
    name = "suite-six"

    def __init__(self, seed: int):
        super().__init__(seed, PASSING_SUITES)


class SuiteAll(SuiteCycle):
    name = "suite-all"

    def __init__(self, seed: int):
        super().__init__(seed, SUITES)


class OrderSmall:
    name = "order-small"
    window = 64
    prefix = 128
    # Large enough that a run rarely sees a pair twice, so the tail latency
    # reflects the distribution rather than the few slowest pairs of the pool.
    pool = 1024

    def __init__(self, seed: int):
        self.pairs = ordered_pairs(seed, self.pool)

    def item(self, i: int):
        mode, a, b = self.pairs[i % len(self.pairs)]
        report = mono.ppt_monotonicity_report(a, b)
        sampled = mono.rank_path_sampled(a.a22, b.a22)
        return order_small_ok(report, sampled), [mode, report_verdict(report), path_verdict(sampled)]

    def warm_up(self) -> None:
        self.item(0)

    def matrices(self) -> list:
        return [(a, b) for _, a, b in self.pairs[:16]]


class OrderLarge:
    name = "order-large"
    window = 2 * len(LARGE_SIZES) * len(FIELDS)  # one pass over the pool
    prefix = window

    def __init__(self, seed: int):
        self.pairs = large_pairs(seed, 2)

    def item(self, i: int):
        n, fld, a, b = self.pairs[i % len(self.pairs)]
        report = mono.ppt_monotonicity_report(a, b)
        return order_large_ok(report), [n, fld, report_verdict(report)]

    def warm_up(self) -> None:
        self.item(0)

    def matrices(self) -> list:
        return [(a, b) for _, _, a, b in self.pairs]


WORKLOADS = {cls.name: cls for cls in (SuiteSix, SuiteAll, OrderSmall, OrderLarge)}
