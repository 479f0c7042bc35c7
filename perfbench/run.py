"""End-to-end and per-layer benchmark of blockpivot.

    python3 perfbench/run.py --workload {suite-six,order-small,suite-all,order-large}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` and nothing else.  The workloads are described in workloads.py.

``--trace 0`` measures the end-to-end metrics: ``items_per_s`` (median over
windows of whole items), ``item_p50_ms`` and ``item_tail_ms`` (the highest
percentile with ten samples beyond it, median over five consecutive segments
of the run), ``setup_s`` (median of nine fresh
processes that import the package, make the inputs and run one warm-up
item) and ``peak_rss_mb``.  ``--trace 1`` measures the per-layer metrics:
decomposition counts on a fixed item prefix, the trace overhead from
alternating untraced and traced windows, and the probes in probes.py; its
spans are written to ``.bench_out/``.

Every item's output is checked (see harness.py).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: a plain single-threaded baseline, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 9  # this process plus eight fresh children


def setup(workload: str, seed: int):
    """Import the package, make the inputs and run one warm-up item."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import blockpivot

    if not os.path.abspath(blockpivot.__file__).startswith(SRC + os.sep):
        raise ImportError(f"blockpivot was imported from {blockpivot.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    wl.warm_up()
    return wl, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def header(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def blas_threads(np) -> int | str:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in an export that has no .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                return next(line.split()[0] for line in f if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown (no .git)"


def closed_loop(wl, tally, seconds: float, tracer=None, between=None):
    """Run whole windows of items from item 0 until ``seconds`` of window
    time have passed.

    Returns per-item latencies and per-window ``(rate, traced)`` pairs.
    With a tracer, odd windows run traced and even ones untraced.
    ``between(measured_seconds)`` runs before each window, off the clock.
    """
    latencies, windows = [], []
    index = 0
    measured = 0.0
    while not windows or measured < seconds:
        if between is not None:
            between(measured)
        traced = tracer is not None and len(windows) % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        for _ in range(wl.window):
            t0 = time.perf_counter()
            if traced:
                tracer.run_item(tally, index, wl.item)
            else:
                tally.run(index, wl.item)
            latencies.append(time.perf_counter() - t0)
            index += 1
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        windows.append((wl.window / elapsed, traced))
        measured += elapsed
    for i in range(index, wl.prefix):  # a very slow run still completes the digest
        tally.run(i, wl.item)
    return latencies, windows


def untraced_run(args, wl, setup_s: float, tally):
    from harness import segmented_tail

    # The host's speed drifts over seconds, so the fresh-process set-ups are
    # spread evenly over the run rather than taken back to back.
    samples = [setup_s]
    gap = args.seconds / (SETUP_SAMPLES - 1)

    def sample_setup(measured: float) -> None:
        if len(samples) < SETUP_SAMPLES and measured >= gap * (len(samples) - 1):
            samples.append(child_setup_seconds(args))

    latencies, windows = closed_loop(wl, tally, args.seconds, between=sample_setup)
    while len(samples) < SETUP_SAMPLES:
        samples.append(child_setup_seconds(args))
    rates = [rate for rate, _ in windows]
    pct, tail, per_segment = segmented_tail(latencies)
    n = len(latencies)
    return [
        ("items_per_s", statistics.median(rates), "1/s",
         f"median of {len(rates)} windows of {wl.window} items"),
        ("item_p50_ms", 1e3 * statistics.median(latencies), "ms", f"p50 of {n} items"),
        ("item_tail_ms", 1e3 * tail, "ms",
         f"median over {n // per_segment} consecutive segments of {per_segment} items "
         f"of p{pct:.2f}, the highest percentile with 10 items beyond it"),
        ("setup_s", statistics.median(samples), "s",
         f"median of {len(samples)} fresh processes: " + ", ".join(f"{s:.3f}" for s in samples)),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "this process, inputs included"),
    ]


def traced_run(args, wl, tally):
    import probes
    from tracing import EIG, Tracer

    tracer = Tracer()
    # Decomposition counts and the witness share come from the fixed prefix,
    # so they repeat exactly from run to run.
    tracer.install()
    for i in range(wl.prefix):
        tracer.run_item(tally, i, wl.item)
    tracer.uninstall()
    counts = dict(tracer.calls)
    witness = len(tracer.witness_items)

    lapack_before = tracer.lapack_s
    latencies, windows = closed_loop(wl, tally, args.seconds, tracer)
    untraced = [rate for rate, traced in windows if not traced]
    traced = [rate for rate, traced in windows if traced]
    traced_seconds = sum(wl.window / rate for rate in traced)

    os.makedirs(OUT, exist_ok=True)
    m = {}
    m.update(probes.validation_and_transforms(wl.matrices()))
    m.update(probes.reports_and_oracles(args.seed))
    m.update(probes.report_sizes(args.seed))
    m.update(probes.convexity_gaps(args.seed))
    m.update(probes.saddle_layer(args.seed))
    gen_metrics, rng_identical = probes.generators(args.seed)
    m.update(gen_metrics)
    suite_metrics, suites_passed = probes.suite_seconds(args.seed)
    m.update(suite_metrics)
    io_metrics, cli_passed = probes.io_and_cli(args.seed, ROOT, OUT)
    m.update(io_metrics)
    checks = {"rng bit-identical to the reference": rng_identical,
              "suites passed": suites_passed, "check-monotone exited 0": cli_passed}

    rows = [(name, value, unit_of(name), "probe") for name, value in m.items()]
    prefix_note = f"over the first {wl.prefix} items"
    rows += [
        ("linalg.svd_per_item", counts["svd"] / wl.prefix, "count", prefix_note),
        ("linalg.eig_per_item", sum(counts[k] for k in EIG) / wl.prefix, "count", prefix_note),
        ("linalg.solve_per_item", counts["solve"] / wl.prefix, "count", prefix_note),
        ("monotone.witness_share", witness / wl.prefix, "frac", prefix_note),
        ("linalg.lapack_share", (tracer.lapack_s - lapack_before) / traced_seconds, "frac",
         f"numpy.linalg time over item time in {len(traced)} traced windows"),
        ("trace.overhead_frac", 1.0 - statistics.median(traced) / statistics.median(untraced), "frac",
         f"traced {statistics.median(traced):.2f} vs untraced {statistics.median(untraced):.2f} items/s, "
         f"medians of {len(traced)} and {len(untraced)} windows"),
    ]

    spans_path = os.path.join(OUT, f"spans-{args.workload}.npz")
    tracer.write(spans_path)
    own = sorted(tracer.self_seconds().items(), key=lambda kv: -kv[1])
    print(f"# spans: {len(tracer.start)} written to {os.path.relpath(spans_path, ROOT)}")
    for name, seconds in own[:12]:
        print(f"# self time {name}: {seconds:.3f} s")
    print("# decompositions over the prefix: " + json.dumps(counts))
    return rows, checks


def unit_of(name: str) -> str:
    """Unit from the name's suffix: ``layer.what_us[.split]`` and so on."""
    stem = name.split(".")[1]
    return "1/s" if stem.endswith("_per_s") else stem.rsplit("_", 1)[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blockpivot end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=("suite-six", "order-small", "suite-all", "order-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit (used for setup_s)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**64 and seconds > 0")

    try:
        wl, setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import blockpivot from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from harness import Tally

    print("# header " + json.dumps(header(args)))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    tally = Tally(wl.prefix)
    if args.trace:
        rows, checks = traced_run(args, wl, tally)
        expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        rows, checks = untraced_run(args, wl, setup_s, tally), {}
        expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(f"# digest {args.workload} seed={args.seed} first {wl.prefix} items: sha256={tally.digest()}")
    print(f"# items attempted {tally.attempted}, failed {tally.failed}, fail_frac {tally.fail_frac:.6f}")
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    for name, ok in checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    for name, value, unit, note in rows:
        print(f"{name} = {value:.6g} {unit}  ({note})")

    got = {name: unit for name, _, unit, _ in rows}
    if got != expected:
        print(f"error: metrics {sorted(set(got.items()) ^ set(expected.items()))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0 and all(checks.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
