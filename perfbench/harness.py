"""Statistics, output gates and verdict digests for the benchmark.

This module imports nothing from blockpivot, so its self-tests run without
the package.  Report objects are read by attribute only.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field

# The tail percentile is the highest one that still has this many samples
# beyond it, so it never rests on a handful of outliers.
TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns ``(percentile, value)``.  With the samples sorted ascending, the
    value is the one at index ``N - TAIL_BEYOND - 1`` (nearest rank), which
    has exactly TAIL_BEYOND samples after it; its percentile is
    ``100 * (N - TAIL_BEYOND) / N``.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    ordered = sorted(samples)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def segmented_tail(samples, segments: int = 5) -> tuple[float, float, int]:
    """The tail of each of ``segments`` consecutive runs of samples, and the
    median of those tails.

    A stall of the host that lasts a fraction of a run moves the tail of
    the segments it falls in, not the median.  Returns ``(percentile,
    value, samples per segment)``; fewer segments are used when there are
    too few samples for ten beyond each tail.
    """
    n = len(samples)
    k = max(1, min(segments, n // (TAIL_BEYOND + 1)))
    tails = [tail_percentile(samples[i * n // k:(i + 1) * n // k]) for i in range(k)]
    return tails[0][0], statistics.median(value for _, value in tails), n // k


# ---------------------------------------------------------------------------
# Output gates: an item passes only if its outputs are what the workload
# guarantees.  An exception raised by the item is a failure too (see Tally).


def order_small_ok(report, sampled) -> bool:
    """A generated ordered pair: hypothesis holds, statements agree, oracle agrees."""
    return bool(
        report.hypothesis_ok
        and report.consistent
        and sampled.constant == report.rank_path.constant
    )


def order_large_ok(report) -> bool:
    """A constant-rank pair: ordered, consistent, and the path keeps its rank."""
    return bool(report.hypothesis_ok and report.consistent and report.rank_path.constant)


def suite_trial_ok(results) -> bool:
    """One trial of one suite, as returned by ``run_suite(name, 1, seed)``."""
    return len(results) == 1 and results[0].trials == 1 and results[0].passed


def path_verdict(path) -> list:
    """Route and rank verdicts of a rank-path report; the witness is left out
    because a better witness search may legitimately move it."""
    common = None if path.common_rank is None else int(path.common_rank)
    return [bool(path.constant), str(path.method), common]


def report_verdict(report) -> list:
    return [
        bool(report.hypothesis_ok),
        bool(report.ppt_ordered),
        bool(report.pinv_reversed),
        bool(report.schur_ordered),
        bool(report.consistent),
        path_verdict(report.rank_path),
    ]


@dataclass
class Tally:
    """Outcome of every item a run attempted, and the verdicts of its prefix.

    ``prefix`` items (the first ones of the workload's fixed item sequence)
    make the digest, so two runs of the same seed can show identical output
    however many items each got through in its time.
    """

    prefix: int
    attempted: int = 0
    failed: int = 0
    verdicts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def record(self, index: int, ok: bool, verdict, detail: str = "") -> None:
        if index < self.prefix:
            first = self.verdicts.setdefault(index, verdict)
            if first != verdict:  # outputs must not depend on the pass or on tracing
                ok, detail = False, f"verdict {verdict} differs from the earlier {first}"
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"item {index}: {detail or verdict}")

    def run(self, index: int, item) -> None:
        """Run one item and record it; ``item(index)`` returns ``(ok, verdict)``."""
        try:
            ok, verdict = item(index)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            self.record(index, False, ["raised", type(exc).__name__], f"{type(exc).__name__}: {exc}")
            return
        self.record(index, ok, verdict)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def digest(self) -> str:
        missing = [i for i in range(self.prefix) if i not in self.verdicts]
        if missing:
            raise ValueError(f"digest prefix incomplete: {len(missing)} items missing")
        text = json.dumps([self.verdicts[i] for i in range(self.prefix)], separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()
