"""Benchmark for parreg: end-to-end metrics per workload, or per-layer metrics
from a traced run.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and exits non-zero if any of them did.

Workloads (see ``workloads.py``): ``corpus`` (seeded classify / system /
columns traffic), ``reproduce`` (the fixed regression table; the seed does
not apply) and ``boxscan`` (seeded box scans).  Each is a closed loop with
one client and no threads.  The program is imported from ``src/`` next to
this directory; only the standard library is needed.

``--trace 0`` repeats whole passes over the workload's requests until
``--seconds`` have gone by and reports percentiles over the requests, each
timed by its fastest repeat.  ``setup_s`` is the median wall time of fresh
interpreters that import parreg and build the sieve the workload needs, some
started before the passes and some after.

``--trace 1`` runs one untraced pass and one traced pass over the same
requests, reports per-layer calls, time and self time for every probed public
function (see ``tracing.py``), the tracing overhead, and the serial and
two-worker timings of the program's two parallel paths.  Spans are written to
``bench/out/``.

Human-readable lines come first; the last line of standard output is one JSON
object.  A wrong output from the program aborts the run with exit code 1; an
exception raised by the program counts the request as failed and the run goes
on.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-ups timed before and after the measured passes; setup_s is their median
SETUP_BEFORE, SETUP_AFTER = 4, 3

WORKLOAD_NAMES = ("corpus", "reproduce", "boxscan")


class Pass:
    """Per-request records of one or more whole passes over the same requests:
    each request's fastest time, whether every attempt at it succeeded, its
    kind and the work its check reported.
    """

    def __init__(self, size: int):
        self.size = size
        self.best = [math.inf] * size
        self.ok = [True] * size
        self.kind = [""] * size
        self.work = [0] * size
        self.failures = Counter()
        self.passes = 0
        self.busy = 0.0

    # A request counts once in `attempted` and `failed`, however many passes
    # repeat it: the number of passes depends on the host's speed, so counting
    # attempts would make both counts differ between runs of the same seed.
    @property
    def attempted(self) -> int:
        return self.size

    @property
    def failed(self) -> int:
        return self.size - sum(self.ok)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; q in [0, 1]."""
    v = sorted(values)
    k = (len(v) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    if v[lo] == v[hi]:
        return v[lo]
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def run_passes(wl, reqs, seconds: float, tracer=None, max_passes: int = 0, first_pass=True) -> Pass:
    """Closed loop over `reqs`, whole passes only, until `seconds` elapse or
    `max_passes` are done.  Only the call into the program is timed; the
    correctness check after it is not.
    """
    rec = Pass(len(reqs))
    started = time.perf_counter()
    while True:
        first = first_pass and rec.passes == 0
        for i, req in enumerate(reqs):
            if tracer is not None:
                root = tracer.begin_request(i)
            t0 = time.perf_counter()
            try:
                out = wl.execute(req)
            except Exception as e:  # the program failed this request; go on
                out = e
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
            rec.busy += dt
            rec.best[i] = min(rec.best[i], dt)
            rec.kind[i] = req[0]
            if isinstance(out, Exception):
                name = type(out).__name__
                if not rec.failures[name]:
                    tb = "".join(traceback.format_exception(out))
                    print(f"request {i} raised:\n{tb}", file=sys.stderr)
                rec.failures[name] += 1
                rec.ok[i] = False
            else:
                rec.work[i] = wl.check(i, req, out, first)
        rec.passes += 1
        if (max_passes and rec.passes >= max_passes) or time.perf_counter() - started >= seconds:
            return rec


def setup_times(wl, repeats: int, warm: bool) -> list:
    """Wall times of fresh interpreters that import parreg and build the
    sieve the workload needs.  `warm` adds one untimed start first, so that
    bytecode caches are written before timing.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import parreg"
    if wl.sieve_bound:
        code += f"; from parreg import arith; arith.sieve({wl.sieve_bound})"
    cmd = [sys.executable, "-I", "-c", code]
    times = []
    for i in range(repeats + warm):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        if i or not warm:
            times.append(time.perf_counter() - t0)
    return times


def _block_rates(best: list, ok: list, block: int) -> list:
    """Succeeded requests per second of request time, for each run of `block`
    consecutive requests.
    """
    return [sum(ok[i : i + block]) / sum(best[i : i + block]) for i in range(0, len(best), block)]


def end_to_end(wl, rec: Pass, setup_s: float) -> tuple[dict, dict]:
    """The declared end-to-end metrics, and extras that only some workloads
    have (printed, not gated).

    Timings use each request's fastest repeat: other tenants of the host slow
    it by up to 1.7x for seconds at a time, and that only ever adds time.
    """
    best, ok, kinds, work = rec.best, rec.ok, rec.kind, rec.work
    lat = [t if good else math.inf for t, good in zip(best, ok)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (sum(ok) / rec.size, "ratio"),
        "items_per_s": (statistics.median(_block_rates(best, ok, wl.block or rec.size)), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
    }
    extras = {
        "failed_frac": (1 - sum(ok) / rec.size, "ratio"),
        "latency_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "requests": (rec.size, "count"),
        "passes": (rec.passes, "count"),
    }
    if wl.name == "reproduce":
        extras["wall_s"] = (statistics.median(lat), "s")
    if wl.name == "boxscan":
        full = [(t, w) for t, k, w in zip(lat, kinds, work) if k != "first_hit"]
        extras["cells_per_s"] = (sum(w for _, w in full) / sum(t for t, _ in full), "1/s")
        first = [t for t, k in zip(lat, kinds) if k == "first_hit"]
        extras["first_hit_p50_ms"] = (percentile(first, 0.5) * 1e3, "ms")
        extras["first_hit_p90_ms"] = (percentile(first, 0.9) * 1e3, "ms")
    return metrics, extras


def per_layer(wl, reqs, seed: int) -> tuple[dict, Pass]:
    import tracing
    from workloads import parallel_paths

    untraced = run_passes(wl, reqs, 0, max_passes=1)
    with tracing.Tracer() as tracer:
        traced = run_passes(wl, reqs, 0, tracer=tracer, max_passes=1, first_pass=False)
    values = tracer.metrics()
    values["cli.report_bytes"] = sum(traced.work) if wl.name == "corpus" else 0
    values["trace.wall_s"] = traced.busy
    values["trace.overhead_s"] = traced.busy - untraced.busy
    values.update(parallel_paths())
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{wl.name}-{seed}.csv.gz")
    units = tracing.metric_units()
    return {k: (values[k], units[k]) for k in units}, traced


def _declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _print_table(metrics: dict) -> None:
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        # each workload in its own process, so that peak_rss_mb is its own
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for w in WORKLOAD_NAMES
        ]
        return max(codes)

    if not (SRC / "parreg" / "__init__.py").is_file():
        print(f"error: no parreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a sieve cache named in the environment would read or write a file
    # outside the checkout
    os.environ.pop("PARREG_SIEVE_CACHE", None)
    import parreg
    from parreg import arith
    from workloads import WORKLOADS, GateFailure

    if Path(parreg.__file__).resolve().parent != SRC / "parreg":
        print(f"error: imported parreg from {parreg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]()
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        setups = [] if args.trace else setup_times(wl, SETUP_BEFORE, warm=True)
        if wl.sieve_bound:
            arith.sieve(wl.sieve_bound)
        reqs = wl.requests(args.seed)
        # keep the collector from rescanning the benchmark's own inputs
        gc.collect()
        gc.freeze()
        for req in reqs[: wl.warmup]:
            try:
                wl.execute(req)
            except Exception:  # counted when the measured pass repeats it
                pass
        if args.trace:
            metrics, rec = per_layer(wl, reqs, args.seed)
            extras = {}
        else:
            rec = run_passes(wl, reqs, args.seconds)
            setups += setup_times(wl, SETUP_AFTER, warm=False)
            metrics, extras = end_to_end(wl, rec, statistics.median(setups))
    except GateFailure as e:
        print(f"correctness gate failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1

    declared = _declared(kind)
    if declared != {k: u for k, (_, u) in metrics.items()}:
        print(f"error: BENCHMARK.json {kind} does not match the metrics reported", file=sys.stderr)
        return 2
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  nproc {os.cpu_count()}")
    _print_table(metrics)
    if extras:
        print("-- not gated --")
        _print_table(extras)
    for name, count in sorted(rec.failures.items()):
        print(f"attempts failed with {name}: {count}")
    result = {
        "correct": True,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
