"""Per-layer tracing for the benchmark, done from outside the program.

The layers are the seven modules of ``src/parreg``.  A ``Tracer`` swaps each
probed public function for a wrapper at every module that binds its name
(``classify``, ``witness`` and ``density`` import what they call by name, so a
patch in ``arith`` alone would miss most calls), records one span per call and
puts the originals back on exit.  Spans stay in memory, in flat typed arrays,
until ``write_spans`` writes them out once at the end.

Counts are derived from each call's arguments and return value only; nothing
under ``src/`` changes to produce them.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter_ns

import parreg
from parreg import arith, classify, cli, coloring, density, radolinear, witness

MODULES = (arith, witness, classify, coloring, density, radolinear, cli)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

ROOT = "request"

# primes_examined is counted against this sieve; every search in the
# workloads is bounded by it (RunConfig's witness_bound)
COUNT_BOUND = 10**6


@lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _arguments(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counter hooks: (counts, tracer, fn, args, kwargs, result, parent span name).


def _count_witness(c, tr, fn, args, kwargs, result, parent):
    a = _arguments(fn, args, kwargs)
    top = a["search_bound"] if result is None else result.p
    c["primes_examined"] += bisect_right(tr.primes, top) - bisect_right(
        tr.primes, a["min_exclusive"]
    )
    c["hits"] += result is not None


def _count_system_witness(c, tr, fn, args, kwargs, result, parent):
    top = _arguments(fn, args, kwargs)["search_bound"] if result is None else result.p
    c["primes_examined"] += bisect_right(tr.primes, top)
    c["hits"] += result is not None


def _count_verdict(c, tr, fn, args, kwargs, result, parent):
    # classify_system hands a single row to classify_equation: count only the
    # verdict its caller receives
    if parent.startswith("classify.classify_"):
        return
    c["statuses"] += 3
    c["unknown"] += (result.status_N, result.status_Z, result.status_Q).count(
        classify.UNKNOWN
    )


def _count_reverify(c, tr, fn, args, kwargs, result, parent):
    c["rejected"] += result is not True


def _count_scan(c, tr, fn, args, kwargs, result, parent):
    stop = _arguments(fn, args, kwargs)["stop_on_find"]
    c["examined" if stop else "cells"] += result.candidates_scanned


def _count_system_scan(c, tr, fn, args, kwargs, result, parent):
    c["cells"] += result.candidates_scanned


def _count_survey(c, tr, fn, args, kwargs, result, parent):
    c["primes"] += result.admissible_count


def _count_columns(c, tr, fn, args, kwargs, result, parent):
    c["hits"] += result is not None


@dataclass(frozen=True)
class Probe:
    """One span name over one or more public functions of a module."""

    span: str
    functions: tuple[str, ...]
    count: object = None
    outermost_only: bool = False
    extras: tuple[str, ...] = ()


PROBES = (
    Probe("arith.sieve", ("sieve", "load_or_build_sieve")),
    Probe("arith.factor", ("factor",), extras=("errors",)),
    Probe("arith.nth_power_mod_p", ("nth_power_mod_p",)),
    Probe("arith.is_probable_prime", ("is_probable_prime",)),
    Probe("arith.nth_power_in_Q", ("nth_power_in_Q",)),
    Probe("arith.nth_power_in_Qp", ("nth_power_in_Qp",)),
    Probe(
        "witness.find_witness_prime",
        ("find_witness_prime",),
        _count_witness,
        extras=("primes_examined", "hit_ratio", "errors"),
    ),
    Probe(
        "witness.find_system_witness",
        ("find_system_witness",),
        _count_system_witness,
        extras=("primes_examined", "hit_ratio"),
    ),
    Probe("witness.verify_witness", ("verify_witness",)),
    Probe("witness.verify_system_witness", ("verify_system_witness",)),
    Probe("witness.check_hypotheses", ("check_hypotheses",)),
    Probe("classify.classify_equation", ("classify_equation",), _count_verdict, extras=("errors",)),
    Probe("classify.classify_system", ("classify_system",), _count_verdict, extras=("errors",)),
    Probe("classify.reverify", ("reverify",), _count_reverify, extras=("rejected",)),
    Probe(
        "coloring.verify_no_mono_solution",
        ("verify_no_mono_solution",),
        _count_scan,
        extras=("cells", "examined"),
    ),
    Probe(
        "coloring.verify_system_no_mono",
        ("verify_system_no_mono",),
        _count_system_scan,
        extras=("cells",),
    ),
    Probe("density.survey", ("survey",), _count_survey, extras=("primes",)),
    Probe("density.joint_survey", ("joint_survey",), _count_survey, extras=("primes",)),
    Probe("density.hit_primes", ("hit_primes",)),
    Probe("density.admissible_primes", ("admissible_primes",)),
    Probe("radolinear.columns_condition", ("columns_condition",), _count_columns, extras=("hit_ratio",)),
    Probe("radolinear.verify_columns_certificate", ("verify_columns_certificate",)),
    # both recurse through their own module-level name: one span per value
    Probe("cli.encode_value", ("encode_value",), outermost_only=True),
    Probe("cli.decode_value", ("decode_value",), outermost_only=True),
    Probe("cli.emit", ("emit",)),
    Probe("cli.reproduction_table", ("reproduction_table",)),
)

# Metrics the traced run adds besides the per-probe ones.
EXTRA_METRICS = (
    ("classify.unknown_frac", "ratio"),
    ("cli.report_bytes", "B"),
    ("request.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("coloring.full.w1_s", "s"),
    ("coloring.full.w2_s", "s"),
    ("witness.find_witness_prime.w1_s", "s"),
    ("witness.find_witness_prime.w2_s", "s"),
)


def _extra_unit(name: str) -> str:
    return "ratio" if name.endswith("_ratio") else "count"


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    out = {}
    for p in PROBES:
        out[f"{p.span}.calls"] = "count"
        out[f"{p.span}.s"] = "s"
        out[f"{p.span}.self_s"] = "s"
        for e in p.extras:
            out[f"{p.span}.{e}"] = _extra_unit(e)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = "s"
    out.update(EXTRA_METRICS)
    return out


class Tracer:
    """Span recorder.  Use as a context manager: entering installs the
    wrappers, leaving restores the original functions.
    """

    def __init__(self):
        self.names = [ROOT] + [p.span for p in PROBES]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.current = -1
        self.request_id = -1
        self.errors = defaultdict(int)
        self.counts = {p.span: defaultdict(int) for p in PROBES}
        self.primes = arith.sieve(COUNT_BOUND).primes
        self._patched = []

    # -- spans -------------------------------------------------------------

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.request.append(self.request_id)
        self.end.append(0)
        self.current = idx
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.current = self.parent[idx]

    def begin_request(self, request_id: int) -> int:
        self.request_id = request_id
        return self.open(0)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, probe: Probe, fn):
        name_id = self._name_id[probe.span]
        counts = self.counts[probe.span]
        count = probe.count
        names = self.names
        tracer = self

        def wrapper(*args, **kwargs):
            cur = tracer.current
            if probe.outermost_only and cur >= 0 and tracer.name[cur] == name_id:
                return fn(*args, **kwargs)
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                tracer.errors[probe.span] += 1
                raise
            tracer.close(idx)
            if count is not None:
                parent = tracer.parent[idx]
                parent_name = names[tracer.name[parent]] if parent >= 0 else ""
                count(counts, tracer, fn, args, kwargs, result, parent_name)
            return result

        return wrapper

    def __enter__(self):
        modules = MODULES + (parreg,)
        for probe in PROBES:
            owner = MODULES[LAYERS.index(probe.span.split(".", 1)[0])]
            for fname in probe.functions:
                original = getattr(owner, fname)
                wrapper = self._wrap(probe, original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._patched.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """calls, total and self time per probe, the counters, and per-layer
        self-time roll-ups.  Times are in seconds.
        """
        n = len(self.name)
        total = defaultdict(int)
        calls = defaultdict(int)
        child = array("q", bytes(8 * n))
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
        selft = defaultdict(int)
        for i in range(n):
            nm = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[nm] += 1
            total[nm] += dur
            selft[nm] += dur - child[i]
        out = {}
        layer_self = defaultdict(float)
        for p in PROBES:
            c = self.counts[p.span]
            out[f"{p.span}.calls"] = calls[p.span]
            out[f"{p.span}.s"] = total[p.span] / 1e9
            out[f"{p.span}.self_s"] = selft[p.span] / 1e9
            layer_self[p.span.split(".", 1)[0]] += selft[p.span] / 1e9
            for e in p.extras:
                if e == "errors":
                    out[f"{p.span}.errors"] = self.errors[p.span]
                elif e == "hit_ratio":
                    out[f"{p.span}.hit_ratio"] = c["hits"] / calls[p.span] if calls[p.span] else 0.0
                else:
                    out[f"{p.span}.{e}"] = c[e]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_self[layer]
        statuses = sum(self.counts[s]["statuses"] for s in ("classify.classify_equation", "classify.classify_system"))
        unknown = sum(self.counts[s]["unknown"] for s in ("classify.classify_equation", "classify.classify_system"))
        out["classify.unknown_frac"] = unknown / statuses if statuses else 0.0
        out["request.self_s"] = selft[ROOT] / 1e9
        out["trace.spans"] = n
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: id, name, start and end (ns), parent id
        (-1 at a request root), request id.
        """
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("span,name,start_ns,end_ns,parent,request\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.request[i]}\n"
                )
