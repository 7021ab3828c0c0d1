"""The benchmark's three workloads and their correctness gates.

Each workload turns a seed into a fixed list of requests (``reproduce`` has
fixed inputs and ignores the seed); a request's first element names its kind.
``execute`` runs one request through the program and ``check`` checks its
output.  ``check`` raises ``GateFailure`` on a wrong output; the driver aborts
the run on that, while an exception raised by the program itself only counts
the request as failed.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import time
from fractions import Fraction
from math import gcd

# The program is called through its module attributes, so that the traced run
# sees every call the workload makes.
from parreg import classify, cli, coloring, radolinear, witness
from parreg.classify import EquationSpec, SystemSpec
from parreg.coloring import ENGINE_FULL, ModColoring, SearchBox, ValuationColoring
from parreg.radolinear import QMatrix

SIEVE_BOUND = 10**6


class GateFailure(Exception):
    """The program returned a wrong output."""


def _gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


def _signed(rng: random.Random, magnitude: int) -> int:
    return magnitude if rng.random() < 0.5 else -magnitude


def _log_uniform(rng: random.Random, hi: int) -> int:
    return max(1, round(hi ** rng.random()))


# ---------------------------------------------------------------------------
# corpus: everyday classify / system / columns traffic


class Corpus:
    """2,000 classify-style requests in fixed proportions: 80% equations,
    15% systems, 5% columns matrices, shuffled by the seed.  A request
    classifies, re-verifies, emits the JSON report as ``parreg ... --json``
    does, and decodes it again.
    """

    name = "corpus"
    sieve_bound = SIEVE_BOUND
    size = 2_000
    # requests per throughput block: a witness search that exhausts the bound
    # (about one request in 5,000) costs as much as 400 others, so the mean
    # over a pass swings with the seed and the median block does not
    block = 200
    warmup = 500

    def __init__(self):
        # the CLI's defaults with --json
        self.config = cli.RunConfig(output="json")
        self._reports = {}

    def requests(self, seed: int) -> list:
        rng = random.Random(seed)
        n_eq = self.size * 80 // 100
        n_sys = self.size * 15 // 100
        reqs = [self._equation(rng) for _ in range(n_eq)]
        reqs += [self._system(rng) for _ in range(n_sys)]
        reqs += [self._columns(rng) for _ in range(self.size - n_eq - n_sys)]
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _equation(rng):
        a = _signed(rng, _log_uniform(rng, 10**6))
        b = _signed(rng, _log_uniform(rng, 10**6))
        c = _signed(rng, _log_uniform(rng, 100))
        m = 1 if rng.random() < 0.75 else rng.randint(2, 4)
        return ("classify", EquationSpec(a, b, c, m, rng.randint(1, 12)))

    @staticmethod
    def _system(rng):
        rows = tuple(
            (
                _signed(rng, rng.randint(1, 10**4)),
                _signed(rng, rng.randint(1, 10**4)),
                _signed(rng, rng.randint(1, 10)),
            )
            for _ in range(rng.randint(2, 3))
        )
        return ("system", SystemSpec(rows, rng.randint(2, 12)))

    @staticmethod
    def _columns(rng):
        rows, cols = rng.randint(1, 3), rng.randint(4, 8)
        return (
            "columns",
            QMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]),
        )

    def execute(self, req):
        command, subject = req
        if command == "classify":
            value = classify.classify_equation(subject, config=self.config)
            accepted = classify.reverify(value)
        elif command == "system":
            value = classify.classify_system(subject, config=self.config)
            accepted = classify.reverify(value)
        else:
            cert = radolinear.columns_condition(subject)
            accepted = cert is None or radolinear.verify_columns_certificate(subject, cert)
            value = None if cert is None else {
                "ordered_partition": cert.ordered_partition,
                "span_witnesses": cert.span_witnesses,
            }
        buf = io.StringIO()
        cli.emit(buf, cli.report(command, self.config, value), self.config, ())
        text = buf.getvalue()
        return value, accepted, text, cli.decode_value(json.loads(text)["result"])

    def check(self, index: int, req, out, first_pass: bool) -> int:
        value, accepted, text, decoded = out
        _gate(accepted is True, f"request {index}: certificate re-verification failed")
        _gate(decoded == value, f"request {index}: JSON round trip changed the result")
        # the same request must give the same report bytes on every pass
        digest = hash(text)
        if first_pass:
            self._reports[index] = digest
        else:
            _gate(self._reports.get(index) == digest, f"request {index}: report differs between passes")
        return len(text)


# ---------------------------------------------------------------------------
# reproduce: the paper's regression table, fixed inputs


class Reproduce:
    """One request is one in-process ``parreg reproduce``: 21 fixture rows,
    diff included.  The seed does not apply.
    """

    name = "reproduce"
    block = 0  # the whole pass
    sieve_bound = SIEVE_BOUND
    warmup = 0
    rows = 21

    def requests(self, seed: int) -> list:
        return [("reproduce",)]

    def execute(self, req):
        buf = io.StringIO()
        code = cli.main(["reproduce"], out=buf)
        return code, buf.getvalue()

    def check(self, index: int, req, out, first_pass: bool) -> int:
        code, text = out
        lines = text.splitlines()
        _gate(
            code == 0 and lines[-1:] == [f"{self.rows}/{self.rows} rows match"],
            f"reproduce returned {code}: {lines[-1:]}",
        )
        return len(text)


# ---------------------------------------------------------------------------
# boxscan: exhaustive and first-hit monochromatic-solution scans


def _color(x: Fraction | int, spec) -> int:
    """The colour of x, computed here rather than by the program."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if isinstance(spec, ValuationColoring):
        p = spec.p
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
        return num * pow(den, -1, p) % p
    return spec.palette[num * pow(den, -1, spec.modulus) % spec.modulus]


def _in_box(x, half: int, rational: bool) -> bool:
    x = Fraction(x)
    if x == 0:
        return False
    if rational:
        return abs(x.numerator) <= half and x.denominator <= half
    return x.denominator == 1 and abs(x) <= half


def _box_size(half: int, rational: bool) -> int:
    if not rational:
        return 2 * half
    return 2 * sum(1 for p in range(1, half + 1) for q in range(1, half + 1) if gcd(p, q) == 1)


class Boxscan:
    """Box-scan requests over small random equations (|a|, |b| <= 9,
    |c| <= 2, m <= 2, n <= 3).  Every pass holds the same request shapes,
    the colouring and box half-width of each request, in fixed numbers:
    exhaustive scans under 2-4-colour residue probes and under valuation
    colourings, first-hit scans, system scans and rational scans.  The
    seed pairs a fixed multiset of coefficients with the shapes and draws the
    system rows and the order, so a pass costs about the same for every
    seed.  Every fourth equation request of the first pass
    is also walked by the full engine, untimed, and the two must agree.
    """

    name = "boxscan"
    block = 0  # the whole pass
    repeat = 8
    sieve_bound = 0
    warmup = 4
    reference_every = 4

    @staticmethod
    def _shapes():
        mod = [ModColoring(k, tuple(range(k))) for k in (2, 3, 4)]
        val = [ValuationColoring(p) for p in (3, 5, 7, 11, 13)]
        for spec in mod:
            for half in (12, 15, 18, 22):
                yield ("scan", spec, half, False, False)
                yield ("scan", spec, half, False, False)
        for spec in val:
            for half in (15, 22, 30):
                yield ("scan", spec, half, False, False)
        for spec in mod + val:
            for half in (15, 22, 30):
                yield ("first_hit", spec, half, True, False)
        for spec in val[1:]:
            for half in (3, 4, 5):
                yield ("scan", spec, half, False, True)
        for spec in mod:
            for half in (7, 10, 15):
                yield ("system", spec, half)

    def requests(self, seed: int) -> list:
        rng = random.Random(seed)
        shapes = [shape for _ in range(self.repeat) for shape in self._shapes()]
        # the coefficients set the cost of a scan as much as the box does, so
        # every pass holds the same multiset of them, cycled over |a|, |b|,
        # c, (m, n) and the signs; the seed pairs them with the shapes
        coeffs = [
            (1 + j % 9, 1 + j // 9 % 9, (1, -1, 2, -2)[j // 81 % 4], divmod(j % 6, 3), j // 3 % 2, j // 7 % 2)
            for j in range(len(shapes))
        ]
        rng.shuffle(coeffs)
        reqs = []
        for (kind, spec, half, *flags), (a, b, c, (m, n), neg_a, neg_b) in zip(shapes, coeffs):
            if kind == "system":
                rows = tuple(
                    (_signed(rng, rng.randint(1, 9)), _signed(rng, rng.randint(1, 9)), _signed(rng, rng.randint(1, 2)))
                    for _ in range(rng.randint(2, 3))
                )
                reqs.append((kind, (rows, rng.randint(1, 3)), spec, half))
            else:
                params = (-a if neg_a else a, -b if neg_b else b, c, m + 1, n + 1)
                reqs.append((kind, params, spec, half, *flags))
        rng.shuffle(reqs)
        return reqs

    def execute(self, req):
        if req[0] == "system":
            _, subject, spec, half = req
            return coloring.verify_system_no_mono(subject, spec, SearchBox(-half, half))
        _, params, spec, half, stop, rational = req
        return coloring.verify_no_mono_solution(
            params, spec, SearchBox(-half, half), stop_on_find=stop, rational=rational
        )

    def _check_tuple(self, t, abc, m, n, spec, half, rational, color=None):
        a, b, c = abc
        w, x, y, z = t
        _gate(a * x + b * y == c * w**m * z**n, f"{t} does not solve {a}x + {b}y = {c}w^{m}z^{n}")
        _gate(all(_in_box(v, half, rational) for v in t), f"{t} leaves the box [-{half}, {half}]")
        colors = {_color(v, spec) for v in t}
        _gate(len(colors) == 1 and (color is None or colors == {color}), f"{t} is not monochromatic")
        return colors.pop()

    def check(self, index: int, req, rep, first_pass: bool) -> int:
        if req[0] == "system":
            _, (rows, n), spec, half = req
            _gate((rep.found is None) == (rep.solutions_found == 0), f"request {index}: found/count disagree")
            _gate(rep.candidates_scanned == len(rows) * (2 * half) ** 3, f"request {index}: wrong cell count")
            if rep.found is not None:
                _gate(len(rep.found) == len(rows), f"request {index}: one tuple per row expected")
                color = None
                for row, t in zip(rows, rep.found):
                    color = self._check_tuple(t, row, 1, n, spec, half, False, color)
            return rep.candidates_scanned
        _, (a, b, c, m, n), spec, half, stop, rational = req
        total = _box_size(half, rational) ** 3
        if rep.found is not None:
            self._check_tuple(rep.found, (a, b, c), m, n, spec, half, rational)
        if stop:
            _gate(rep.solutions_found == (rep.found is not None), f"request {index}: first hit miscounted")
            _gate(rep.candidates_scanned <= total, f"request {index}: examined beyond the box")
        else:
            _gate((rep.found is None) == (rep.solutions_found == 0), f"request {index}: found/count disagree")
            _gate(rep.candidates_scanned == total, f"request {index}: wrong cell count")
        if first_pass and index % self.reference_every == 0:
            ref = coloring.verify_no_mono_solution(
                (a, b, c, m, n), spec, SearchBox(-half, half), engine=ENGINE_FULL, rational=rational
            )
            if stop:
                _gate((ref.solutions_found > 0) == (rep.found is not None), f"request {index}: first hit vs full walk")
            else:
                _gate(
                    (rep.solutions_found, rep.found) == (ref.solutions_found, ref.found),
                    f"request {index}: bucketed scan disagrees with the full walk",
                )
        return rep.candidates_scanned


WORKLOADS = {w.name: w for w in (Corpus, Reproduce, Boxscan)}


# ---------------------------------------------------------------------------
# the program's parallel paths, serial against two workers


def _median_time(fn, repeats: int, key=lambda r: r):
    times, results = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        r = fn()
        times.append(time.perf_counter() - t0)
        results.append(key(r))
    _gate(all(r == results[0] for r in results), "a parallel-path result changed between repeats")
    return statistics.median(times), results[0]


def _least_nonresidue_prime(targets, n: int) -> int:
    """Smallest prime modulo which no target is an n-th power residue, by
    brute force over residues."""
    p = 2
    while True:
        p += 1
        if all(p % d for d in range(2, p)):
            powers = {pow(x, n, p) for x in range(1, p)}
            if all(t % p and t % p not in powers for t in targets):
                return p


def parallel_paths(repeats: int = 3) -> dict:
    """Seconds for the full-engine box scan that AC3's speedup gate times
    (2x + 3y = w*z^2, 43-colouring, [-120, 120]) and for find_witness_prime
    on an early-hit and an exhausted target set, at workers=1 and workers=2.
    """
    eq, spec, box = (2, 3, 1, 1, 2), ValuationColoring(43), SearchBox(-120, 120)
    early = ((2, 3, 5), 2, 1)
    # 16 = 2^4 is an 8th-power residue modulo every prime, so no witness exists
    exhausted = ((16, 17, 33), 8, 33)
    out, scans, hits = {}, {}, {}
    for workers in (1, 2):
        t_scan, scans[workers] = _median_time(
            lambda: coloring.verify_no_mono_solution(eq, spec, box, engine=ENGINE_FULL, workers=workers),
            repeats,
            key=lambda rep: (rep.found, rep.solutions_found, rep.candidates_scanned),
        )
        hits[workers] = []
        t_wit = 0.0
        for targets, n, lo in (early, exhausted):
            t, w = _median_time(
                lambda: witness.find_witness_prime(targets, n, min_exclusive=lo, workers=workers), repeats
            )
            t_wit += t
            hits[workers].append(None if w is None else w.p)
        out[f"coloring.full.w{workers}_s"] = t_scan
        out[f"witness.find_witness_prime.w{workers}_s"] = t_wit
    _gate(scans[1] == scans[2], "full-engine scan differs between 1 and 2 workers")
    _gate(scans[1][2] == 240**3, "full-engine scan miscounted its cells")
    want = [_least_nonresidue_prime(early[0], early[1]), None]
    _gate(hits[1] == want and hits[2] == want, f"witness primes {hits} differ from {want}")
    return out
