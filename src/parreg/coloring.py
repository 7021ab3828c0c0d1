"""Colorings (the valuation coloring of certificates and the residue probe)
and exhaustive monochromatic-solution scans over finite boxes.

The scan is evidence, not proof: absence of a monochromatic solution over a
finite box supports a non-partition-regularity certificate but every report
carries BOX_CAVEAT saying exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import DegenerateInput, _as_int, _int_rows, is_probable_prime

BOX_CAVEAT = "finite box scan: absence here is evidence, not a proof"

ENGINE_BUCKETED = "bucketed"
ENGINE_FULL = "full"


@dataclass(frozen=True)
class ValuationColoring:
    """x maps to the unit left over after stripping all powers of p, mod p.

    The color lies in [1, p-1] and is multiplicative.
    """

    p: int

    def __post_init__(self):
        if not is_probable_prime(self.p):
            raise DegenerateInput("p must be prime")


@dataclass(frozen=True)
class ModColoring:
    """palette[x mod modulus]; defined when the denominator is a unit mod
    modulus.  A probe coloring, never part of a certificate.
    """

    modulus: int
    palette: tuple

    def __post_init__(self):
        if self.modulus < 1 or len(self.palette) != self.modulus:
            raise DegenerateInput("palette must have one entry per residue")


def color_of(x, spec):
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else (int(x), 1)
    if num == 0:
        raise DegenerateInput("0 has no color")
    if isinstance(spec, ValuationColoring):
        p = spec.p
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
        r = num % p
        if den != 1:
            r = r * pow(den, p - 2, p) % p
        return r
    if isinstance(spec, ModColoring):
        m = spec.modulus
        r = num % m
        if den != 1:
            den %= m
            try:
                r = r * pow(den, -1, m) % m
            except ValueError:
                raise DegenerateInput(f"denominator not invertible mod {m}") from None
        return spec.palette[r]
    raise DegenerateInput(f"unknown coloring {type(spec).__name__}")


@dataclass(frozen=True)
class SearchBox:
    """Integer interval [lo, hi]; lo > hi is the empty box.  exclude_zero stays
    True for scans over the nonzero integers.
    """

    lo: int
    hi: int
    exclude_zero: bool = True

    def __post_init__(self):
        _as_int(self.lo)
        _as_int(self.hi)

    def values(self) -> list[int]:
        if self.lo > self.hi:
            return []
        vs = list(range(self.lo, self.hi + 1))
        if self.exclude_zero and self.lo <= 0 <= self.hi:
            vs.remove(0)
        return vs


def rational_box_values(box: SearchBox) -> list[Fraction]:
    """All fractions num/den with num, den drawn from the box (den != 0),
    deduplicated and sorted.  Small boxes only.
    """
    vs = box.values()
    out = {Fraction(p, q) for p in vs for q in vs if q != 0}
    if box.exclude_zero:
        out.discard(Fraction(0))
    return sorted(out)


@dataclass(frozen=True)
class MonoReport:
    """Outcome of one exhaustive scan.

    found is a single (w, x, y, z) tuple for an equation, or one such tuple
    per row (all sharing a color) for a system; None certifies absence over
    the box.  candidates_scanned is the full triple-space size on a completed
    scan; when the scan stopped at the first hit it is lookups times the
    class size, summed over the classes reached, which never exceeds the
    full size.  pairs_indexed (the sum of k^2 over the color classes of size
    k that were indexed) and lookups (the (w, z) probes made) count the work
    the sumset join actually did; the full engine leaves both at 0.
    """

    subject: tuple
    coloring: object
    box: SearchBox
    found: tuple | None
    candidates_scanned: int
    solutions_found: int
    caveat: str = field(default=BOX_CAVEAT)
    pairs_indexed: int = 0
    lookups: int = 0


def _eq_params(eq) -> tuple[int, int, int, int, int]:
    if hasattr(eq, "a"):
        t = (eq.a, eq.b, eq.c, eq.m, eq.n)
    else:
        t = tuple(eq)
    a, b, c, m, n = map(_as_int, t)
    if a == 0 or b == 0 or c == 0:
        raise DegenerateInput("coefficients must be nonzero")
    if m < 1 or n < 1:
        raise DegenerateInput("exponents must be >= 1")
    return a, b, c, m, n


def _color_map(values, spec) -> dict:
    return {v: color_of(v, spec) for v in values}


def _buckets(values, cmap) -> list[list]:
    """The box split into color classes, classes in repr order of their
    color and values in box order within each class.
    """
    buckets: dict = {}
    for v in values:
        buckets.setdefault(cmap[v], []).append(v)
    return [buckets[d] for d in sorted(buckets, key=repr)]


def _scan_bucketed(vals, params, stop_on_find):
    """Sumset join over one color class vals (ascending, as in the box): only
    same-colored tuples can be monochromatic, so every variable ranges over
    vals.

    The class is first scaled to integers by the common denominator den of
    its values (1 on an integer box); a*x + b*y = c*w^m*z^n then becomes
    A*X + B*Y = c*W^m*Z^n with A, B = a, b times den^(m+n-1), so every key
    below is an exact integer.  Index A*X + B*Y over the class's (X, Y)
    pairs, each key mapped to its pair count and its least X (Y follows
    from the key), then look up c*W^m*Z^n once per (W, Z), with Z^n
    computed once per class.

    Returns (count, best, lookups): the class's solution count, its least
    (w, x, y, z) in the original values and the number of (w, z) probes.
    Under stop_on_find the join stops at the first (w, z) in walk order
    that hits and returns its least x, the very tuple the literal walk
    meets first, with count 1.
    """
    from math import lcm

    a, b, c, m, n = params
    # a list, not a generator: on CPython 3.11 lcm(*generator) made the
    # process's peak RSS creep up by about 3 MB over repeated scans
    den = lcm(*[v.denominator for v in vals])
    ivals = [v.numerator * (den // v.denominator) for v in vals]
    scale = den ** (m + n - 1)
    a, b = a * scale, b * scale
    orig = dict(zip(ivals, vals))
    bys = [b * y for y in ivals]
    counts: dict = {}
    least: dict = {}
    for x in reversed(ivals):  # descending, so each key keeps its least x
        ax = a * x
        for by in bys:
            key = ax + by
            counts[key] = counts.get(key, 0) + 1
            least[key] = x
    zns = [z**n for z in ivals]
    k = len(vals)
    count = 0
    best = None
    for i, w in enumerate(ivals):
        cwm = c * w**m
        row = [cwm * zn for zn in zns]
        if counts.keys().isdisjoint(row):
            continue
        for j, rhs in enumerate(row):
            hits = counts.get(rhs)
            if hits is None:
                continue
            x = least[rhs]
            t = (vals[i], orig[x], orig[(rhs - a * x) // b], vals[j])
            if stop_on_find:
                return 1, t, i * k + j + 1
            count += hits
            if best is None or t < best:
                best = t
    return count, best, k * k


def _scan_full_shard(args):
    """One w-shard of the literal (w, z, x) triple walk.  Triples whose w and z
    colors already differ are rejected before the x scan; the walk is still
    exhaustive over the shard.
    """
    values, cmap, params, w_chunk = args
    a, b, c, m, n = params
    exact = isinstance(values[0], int) if values else True
    count = 0
    best = None
    for w in w_chunk:
        d = cmap[w]
        cwm = c * w**m
        for z in values:
            if cmap[z] != d:
                continue
            rhs = cwm * z**n
            for x in values:
                if cmap[x] != d:
                    continue
                num = rhs - a * x
                if exact:
                    y, r = divmod(num, b)
                    if r:
                        continue
                else:
                    y = num / b
                if cmap.get(y) != d:
                    continue
                count += 1
                t = (w, x, y, z)
                if best is None or t < best:
                    best = t
    return count, best


def _merge(parts):
    count = 0
    best = None
    for c, b in parts:
        count += c
        if b is not None and (best is None or b < best):
            best = b
    return count, best


def verify_no_mono_solution(
    eq,
    spec,
    box: SearchBox,
    engine: str = ENGINE_BUCKETED,
    workers: int = 1,
    stop_on_find: bool = False,
    rational: bool = False,
) -> MonoReport:
    """Find the monochromatic solutions of a*x + b*y = c*w^m*z^n with every
    variable in the box.

    The bucketed engine runs the sumset join of _scan_bucketed once per
    color class and reports pairs_indexed and lookups.  The full engine is
    the literal reference walk: it solves for y exactly at every (w, z, x)
    triple and shards by w across workers; its reports are identical for
    any worker count.  Both give the same found (the least tuple),
    solutions_found and closed-form candidates_scanned.  found None
    certifies absence over this box only.  stop_on_find needs the bucketed
    engine (it ignores workers) and makes candidates_scanned lookups times
    the class size.
    """
    params, workers = _eq_params(eq), _as_int(workers)
    values = rational_box_values(box) if rational else box.values()
    cmap = _color_map(values, spec)
    total = len(values) ** 3
    if stop_on_find and engine != ENGINE_BUCKETED:
        raise DegenerateInput("stop_on_find needs the bucketed engine")
    count, best, pairs, lookups, examined = 0, None, 0, 0, 0
    if not values:
        scanned = 0
    elif engine == ENGINE_BUCKETED:
        for vals in _buckets(values, cmap):
            k = len(vals)
            rc, rb, rl = _scan_bucketed(vals, params, stop_on_find)
            pairs += k * k
            lookups += rl
            examined += rl * k
            count += rc
            if rb is not None and (best is None or rb < best):
                best = rb
            if stop_on_find and rb is not None:
                break
        scanned = examined if stop_on_find else total
    elif engine == ENGINE_FULL:
        if workers <= 1:
            count, best = _scan_full_shard((values, cmap, params, tuple(values)))
        else:
            step = (len(values) + workers - 1) // workers
            shards = [
                (values, cmap, params, tuple(values[i : i + step]))
                for i in range(0, len(values), step)
            ]
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                count, best = _merge(pool.map(_scan_full_shard, shards))
        scanned = total
    else:
        raise DegenerateInput(f"unknown engine {engine!r}")
    return MonoReport(
        subject=("equation",) + params,
        coloring=spec,
        box=box,
        found=best,
        candidates_scanned=scanned,
        solutions_found=count,
        pairs_indexed=pairs,
        lookups=lookups,
    )


def _system_params(system) -> tuple[tuple[tuple[int, int, int], ...], int]:
    if hasattr(system, "rows"):
        rows, n = system.rows, system.n
    else:
        rows, n = system
    rows, n = _int_rows(rows), _as_int(n)
    if not rows:
        raise DegenerateInput("need at least one row")
    if any(a == 0 or b == 0 or c == 0 for a, b, c in rows):
        raise DegenerateInput("row coefficients must be nonzero")
    if n < 1:
        raise DegenerateInput("exponents must be >= 1")
    return rows, n


def verify_system_no_mono(system, spec, box: SearchBox) -> MonoReport:
    """Join each row a_i*x + b_i*y = c_i*w*z^n separately per color class,
    building one index per row per class; a monochromatic system solution
    is one per-row tuple for every row with all values sharing a single
    color.  solutions_found multiplies the per-row counts within each color
    (rows have disjoint variables), and a class stops at its first row
    without a solution.  candidates_scanned stays the closed form rows *
    |box|^3; pairs_indexed and lookups count the join's work.
    """
    rows, n = _system_params(system)
    values = box.values()
    cmap = _color_map(values, spec)
    total = len(rows) * len(values) ** 3
    count = 0
    best = None
    pairs = 0
    lookups = 0
    for vals in _buckets(values, cmap):
        per_row = []
        prod = 1
        for a, b, c in rows:
            rc, rb, rl = _scan_bucketed(vals, (a, b, c, 1, n), False)
            pairs += len(vals) ** 2
            lookups += rl
            if rc == 0:
                prod = 0
                break
            per_row.append(rb)
            prod *= rc
        count += prod
        if prod and (best is None or tuple(per_row) < best):
            best = tuple(per_row)
    return MonoReport(
        subject=("system", rows, n),
        coloring=spec,
        box=box,
        found=best,
        candidates_scanned=total,
        solutions_found=count,
        pairs_indexed=pairs,
        lookups=lookups,
    )
