"""fatscreens benchmark: one workload per process, a closed loop with one item in flight.

    python3 perfbench/run.py --workload detect_genus2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each

Run from the repository root; the library is imported from ``src``.  With
``--trace 0`` the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed job (``trace_passes`` passes over the item
set) untraced and then traced, reports the per-layer metrics and writes the
spans to ``perfbench/out``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at a nominal machine speed: see ``calibrate``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# the names of workloads.WORKLOADS, known before the library is imported
WORKLOADS = ("detect_genus2", "census_12", "invert_mixed", "lengths_12")
# fresh processes timed for setup_s, which reports their median
SETUP_REPEATS = 5
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
               "print(run.timed_setup(sys.argv[2], int(sys.argv[3])))")
# calibration bursts just before and just after each timed set-up
SETUP_BURSTS = 4
# item_ms_tail's percentile: at and beyond p98 the runs of one workload
# spread by 10% and more on machine jitter alone, at p95 by about 5%
TAIL_PERCENTILE = 95.0
# share of --seconds spent on untimed warm-up items before measuring
WARMUP_SHARE = 0.05
# items run in windows of this many seconds with a calibration burst after each
WINDOW_S = 0.1
# nominal duration of one calibration burst; times are rescaled to it
CALIBRATION_S = 0.004
# a window's speed is the mean of the bursts up to this many windows away
SMOOTH_WINDOWS = 1


def calibrate() -> float:
    """Seconds that one fixed burst of pure-Python work takes right now.

    On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) the speed of
    a single thread flips between a fast and a slow state, about 1.5 times
    apart, over seconds to minutes, and this burst of set, tuple, dict and
    sort work slows down with the items.  A burst after every ``WINDOW_S``
    of items samples the state, and each window is scaled by
    ``CALIBRATION_S`` over the mean of the bursts around it.  Over five
    20 s runs of ``census_12`` the quartile spread of ``items_per_s`` was
    28% in wall-clock time and 2.6% with this scaling, and that of
    ``item_ms_p50`` 36% and 3.7%.
    """
    t0 = time.perf_counter()
    rng = random.Random(7)
    acc = 0
    for _ in range(400):
        s = frozenset(rng.randrange(64) for _ in range(12))
        t = tuple(sorted(s))
        d = {x: (x * 3) & 63 for x in t}
        acc += len(s & frozenset(d.values())) + hash(t) % 7
    return time.perf_counter() - t0


def load_library():
    """Import the library from ``src`` and return the workloads module."""
    # one thread of numerical work: the loop keeps one item in flight
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import fatscreens
    import workloads
    # an installed copy elsewhere would be measured in place of this checkout
    if Path(fatscreens.__file__).resolve().parent != src / "fatscreens":
        raise ImportError(f"fatscreens was imported from {fatscreens.__file__}")
    return workloads


def timed_setup(name: str, seed: int) -> float:
    """Nominal seconds for the import and one set-up in a fresh process."""
    bursts = [calibrate() for _ in range(SETUP_BURSTS)]
    t0 = time.perf_counter()
    workloads = load_library()
    workloads.WORKLOADS[name]().setup(seed)
    wall = time.perf_counter() - t0
    bursts += [calibrate() for _ in range(SETUP_BURSTS)]
    return wall * CALIBRATION_S / statistics.fmean(bursts)


def setup_seconds(name: str, seed: int) -> float:
    """Median of ``timed_setup`` over ``SETUP_REPEATS`` fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), name, str(seed)],
                              stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def nearest_rank(sorted_values: list, p: float) -> tuple[float, int]:
    """Value at percentile ``p`` (nearest rank) and the count of samples above it."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(sorted_values: list, p: float) -> tuple[float, float, int]:
    """The workload's tail percentile, lowered while fewer than ten samples lie beyond it."""
    while True:
        value, beyond = nearest_rank(sorted_values, p)
        if beyond >= 10 or p <= 50.0:
            return p, value, beyond
        p = 100.0 - 2.0 * (100.0 - p)


class Runner:
    """Runs items of one workload in windows between calibration bursts.

    Counts attempts and failures, and keeps each item's wall time and each
    window's (first item, end item, wall seconds).
    """

    def __init__(self, wl, errors, tracer=None):
        self.wl, self.errors, self.tracer = wl, errors, tracer
        self.attempted = self.failed = 0
        self.latencies: list[float] = []
        self.windows: list[tuple[int, int, float]] = []
        self.bursts: list[float] = []

    def item(self, item) -> None:
        t0 = time.perf_counter()
        try:
            reason = self.wl.run(item)
        except self.errors.DomainError as exc:   # NonConvergenceError included
            reason = f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {self.wl.name}: {reason}", file=sys.stderr)

    def traced_item(self, item) -> None:
        self.tracer.item = self.attempted
        with self.tracer.span("bench.item"):
            self.item(item)

    def start_pass(self, rng: random.Random) -> list:
        if self.tracer is None:
            return self.wl.start_pass(rng)
        with self.tracer.span("bench.pass"):
            return self.wl.start_pass(rng)

    def _window(self, items, seconds: float) -> bool:
        """Items for ``seconds``, then a burst; False once ``items`` ran out."""
        run = self.item if self.tracer is None else self.traced_item
        first = len(self.latencies)
        w0 = time.perf_counter()
        end = w0 + seconds
        more = True
        while more and time.perf_counter() < end:
            item = next(items, None)
            more = item is not None
            if more:
                run(item)
        self.windows.append((first, len(self.latencies), time.perf_counter() - w0))
        self.bursts.append(calibrate())
        return more

    def for_seconds(self, seconds: float, rng: random.Random) -> None:
        """Passes of the whole job, enumeration included, for ``seconds`` of wall time."""
        def stream():
            while True:
                yield from self.start_pass(rng)

        items = stream()
        self.bursts.append(calibrate())
        while self.wall() < seconds:
            self._window(items, min(WINDOW_S, seconds - self.wall()))

    def passes(self, n: int, rng: random.Random) -> None:
        """``n`` whole passes over the item set."""
        items = (item for _ in range(n) for item in self.start_pass(rng))
        self.bursts.append(calibrate())
        while self._window(items, WINDOW_S):
            pass

    def wall(self) -> float:
        return sum(w for _, _, w in self.windows)

    def nominal(self) -> tuple[list[float], float]:
        """Item times and total window time, each window scaled to nominal speed."""
        lat, total = [], 0.0
        for k, (first, end, wall) in enumerate(self.windows):
            # burst k precedes window k and burst k + 1 follows it
            near = self.bursts[max(0, k + 1 - SMOOTH_WINDOWS): k + 1 + SMOOTH_WINDOWS]
            scale = CALIBRATION_S / statistics.fmean(near)
            lat += [t * scale for t in self.latencies[first:end]]
            total += wall * scale
        return lat, total


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool) -> dict:
    from fatscreens import errors
    wl = workloads.WORKLOADS[name]()
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        wl.setup(seed)
        tracer.uninstall()
        Runner(wl, errors).for_seconds(seconds * WARMUP_SHARE, random.Random(seed))
        plain = Runner(wl, errors)
        plain.passes(wl.trace_passes, random.Random(seed))
        tracer.install()
        traced = Runner(wl, errors, tracer)
        traced.passes(wl.trace_passes, random.Random(seed))
        tracer.uninstall()
        tracer.write(OUT / f"spans_{name}_seed{seed}.tsv.gz")
        plain_s, traced_s = plain.nominal()[1], traced.nominal()[1]
        metrics = tracer.metrics(scale=traced_s / traced.wall())
        metrics["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        return {"metrics": metrics, "shown": metrics, "attempted": attempted,
                "failed": failed,
                "summary": (f"traced {traced.attempted} items in {traced_s:.3f} s, "
                            f"untraced in {plain_s:.3f} s")}

    wl.setup(seed)
    setup_s = setup_seconds(name, seed)
    Runner(wl, errors).for_seconds(seconds * WARMUP_SHARE, random.Random(seed ^ 0x5EED))
    runner = Runner(wl, errors)
    runner.for_seconds(seconds, random.Random(seed))
    lat, nominal = runner.nominal()
    wall = runner.wall()
    lat.sort()
    p, tail_value, beyond = tail(lat, TAIL_PERCENTILE)
    attempted, failed = runner.attempted, runner.failed
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (attempted / nominal, "1/s"),
        "item_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "item_ms_tail": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # failed_frac is printed but not in the result line: it is 0 on a correct
    # run, and the line's attempted and failed fields carry it
    shown = dict(metrics, failed_frac=(failed / attempted, "ratio"))
    summary = (f"item_ms_tail is p{p:g} with {beyond} of {len(lat)} samples beyond; "
               f"{failed} of {attempted} items failed\n"
               f"  wall clock: items_per_s {attempted / wall:.6g}; "
               f"calibration burst mean {statistics.fmean(runner.bursts) * 1e3:.3f} ms "
               f"(nominal {CALIBRATION_S * 1e3:g} ms)")
    return {"metrics": metrics, "shown": shown, "attempted": attempted,
            "failed": failed, "summary": summary}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def print_metrics(name: str, metrics: dict, summary: str) -> None:
    print(f"== {name}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<42} {value:>14.6g} {unit}")
    print(f"  {summary}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": (v["value"], v["unit"])
                        for k, v in res["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args)
    try:
        workloads = load_library()
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        res = run_workload(workloads, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except workloads.BenchError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    print_metrics(args.workload, res["shown"], res["summary"])
    correct = res["failed"] == 0
    print(result_line(correct, res["attempted"], res["failed"], res["metrics"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
