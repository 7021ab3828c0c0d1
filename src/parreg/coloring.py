"""Colorings (the valuation coloring of certificates and the residue probe)
and exhaustive monochromatic-solution scans over finite boxes.

The scan is evidence, not proof: absence of a monochromatic solution over a
finite box supports a non-partition-regularity certificate but every report
carries BOX_CAVEAT saying exactly that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm

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
    modulus.  A probe coloring, never part of a certificate.  The palette is
    stored as a tuple, so a spec built from a list hashes.
    """

    modulus: int
    palette: tuple

    def __post_init__(self):
        object.__setattr__(self, "palette", tuple(self.palette))
        if _as_int(self.modulus) < 1 or len(self.palette) != self.modulus:
            raise DegenerateInput("palette must have one entry per residue")


def color_of(x, spec):
    """The colour of a nonzero int or Fraction x; any other x, such as a
    float or a numeric string, is refused rather than rounded."""
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else (_as_int(x), 1)
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


def _box(box: SearchBox, rational: bool) -> tuple[list, list | None]:
    """The values a scan walks and, for a rational box, the reduced integer
    pairs (num, den) with den > 0 they are made from (None for an integer
    box).  A rational box's values are every fraction num/den with num and
    den drawn from the box (den != 0), deduplicated and sorted.

    Each rational value is hashed and sorted as a pair, and its Fraction is
    made once.  The sort key num / den is exact while every
    |num|, den <= H < 2**17: int division rounds correctly, so the key is
    monotone in the value, and two distinct values differ by at least
    1/H**2, while two values that round to the same float differ by at most
    one ulp of a float of size <= H, which is <= H * 2**-52 < 1/H**2 for
    H**3 < 2**52.  Wider boxes sort by the Fractions themselves.
    """
    vs = box.values()
    if not rational:
        return vs, None
    pairs = set()
    for q in vs:
        if q:
            for p in vs:
                g = gcd(p, q) if q > 0 else -gcd(p, q)
                pairs.add((p // g, q // g))
    if max(abs(box.lo), abs(box.hi)) < 2**17:
        pairs = sorted(pairs, key=lambda t: t[0] / t[1])
    else:
        pairs = sorted(pairs, key=lambda t: Fraction(*t))
    return [Fraction(p, q) for p, q in pairs], pairs


@dataclass(frozen=True)
class MonoReport:
    """Outcome of one exhaustive scan.

    found is a single (w, x, y, z) tuple for an equation, or one such tuple
    per row (all sharing a color) for a system; None certifies absence over
    the box.  candidates_scanned is the full triple-space size on a completed
    scan; when the scan stopped at the first hit it is lookups times the
    class size, summed over the classes reached, which never exceeds the
    full size.  pairs_indexed (the sum of k^2 over the color classes of size
    k reached) and lookups (the (w, z) probes in walk order, up to the hit
    under stop_on_find) count each class's full pair and probe space,
    whether the class was joined or ruled out by its unit congruence
    (_live_test), so they are the same with or without that test; the full
    engine leaves both at 0.
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


def _colors(values, spec, pairs=None) -> list:
    """[color_of(v, spec) for v in values], in their order; no value is
    hashed.

    On an integer box a residue coloring reads palette[v % m] and a
    valuation coloring v % p, so only the multiples of p (and 0, which has
    no color) go through color_of.  Rational values come with their pairs
    from `_box`, and a valuation coloring reads num/den mod p where p
    divides neither num nor den.  Other values and specs take color_of.
    """
    if pairs is not None and isinstance(spec, ValuationColoring):
        p = spec.p
        return [
            num * pow(den, -1, p) % p if num % p and den % p else color_of(v, spec)
            for v, (num, den) in zip(values, pairs)
        ]
    if values and isinstance(values[0], int):
        if isinstance(spec, ModColoring):
            if 0 in values:
                raise DegenerateInput("0 has no color")
            palette, m = spec.palette, spec.modulus
            return [palette[v % m] for v in values]
        if isinstance(spec, ValuationColoring):
            p = spec.p
            return [v % p or color_of(v, spec) for v in values]
    return [color_of(v, spec) for v in values]


# Building a box of V values and its colors costs O(V) per scan, while the
# joins that follow cost about V^2/colors pair keys, so the cache saves a
# share of the scan that shrinks as the box grows: boxes of more than
# _CACHE_VALUES values are built afresh, and nothing is kept for them.  An
# entry then holds at most _CACHE_VALUES values; tracemalloc on CPython 3.11
# reads 150 KB for 4,096 integers in a few classes and 750 KB for 4,096
# one-value classes, so _CACHE_ENTRIES entries keep at most about 48 MB
# alive, the least recently used going first.
_CACHE_VALUES = 4096
_CACHE_ENTRIES = 64


def _color_classes(box: SearchBox, spec, rational: bool) -> tuple[int, tuple]:
    """(number of values, classes) of the box under spec, as _classes
    builds them; from the cache when spec is one of this module's colorings
    and the box holds at most _CACHE_VALUES values (hi - lo + 1 integers,
    whose square bounds the rationals).
    """
    n = max(box.hi - box.lo + 1, 0)
    if rational:
        n *= n
    if isinstance(spec, (ValuationColoring, ModColoring)) and n <= _CACHE_VALUES:
        return _classes(box, spec, rational, repr(spec))
    return _classes.__wrapped__(box, spec, rational, None)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _classes(box: SearchBox, spec, rational: bool, spec_repr) -> tuple[int, tuple]:
    """The number of values in the box and its color classes, each a tuple
    (color, values, ivals, den) in repr order of the color; values keep box
    order, and ivals are the integers values * den that the join keys on,
    den the least common denominator (1, with ivals the values, on an
    integer box).  No value is hashed.

    spec_repr only keys the cache: ModColoring(2, (1, 5)) and
    ModColoring(2, (True, 5)) compare and hash equal, but the colors 1 and
    True order the classes differently.
    """
    values, reduced = _box(box, rational)
    items = values if reduced is None else zip(values, reduced)
    buckets: dict = {}
    for v, d in zip(items, _colors(values, spec, reduced)):
        buckets.setdefault(d, []).append(v)
    classes = []
    for d in sorted(buckets, key=repr):
        if reduced is None:
            vals = tuple(buckets[d])
            classes.append((d, vals, vals, 1))
        else:
            vals, pairs = zip(*buckets[d])
            # a list, not a generator: on CPython 3.11 lcm(*generator) made
            # the process's peak RSS creep up by about 3 MB over repeated
            # scans
            den = lcm(*[q for _, q in pairs])
            classes.append((d, vals, tuple([p * (den // q) for p, q in pairs]), den))
    return len(values), tuple(classes)


def _live_test(spec, params):
    """live(color), False only where the unit congruence of the coloring
    leaves the class of that color no monochromatic solution of
    a*x + b*y = c*w^m*z^n.

    Under ValuationColoring(p) write a, b, c as p-powers times units a', b',
    c' (their colors).  If x, y, w, z all have color r, the unit of a*x + b*y
    is a'r, b'r or, when the two valuations tie, (a'+b')r, and the unit of
    the right side is c'r^(m+n); so c'r^(m+n-1) is a', b' or a'+b' mod p.
    When p divides a'+b' a tie leaves the unit open and every class stays
    live; at p = 2 every unit is 1, so a'+b' is even and this is the case.
    The units are read in Z_(p), so this holds for rational values too.
    Under ModColoring(M) reduce mod M, a ring map from the rationals whose
    denominators are units mod M (color_of refuses the others): every value
    of color d reduces into R_d = {r : palette[r] = d}, so some a*s + b*t,
    s, t in R_d, must equal some c*u^m*v^n, u, v in R_d.  Each valuation
    class costs one modular power and a residue class about |R_d|^2 small
    products.
    """
    a, b, c, m, n = params
    if isinstance(spec, ValuationColoring):
        p = spec.p
        ua, ub, uc = (color_of(v, spec) for v in (a, b, c))
        if (ua + ub) % p == 0:
            return lambda r: True
        units, e = {ua, ub, (ua + ub) % p}, m + n - 1
        return lambda r: uc * pow(r, e, p) % p in units
    if not isinstance(spec, ModColoring):
        return lambda d: True
    mod, residues = spec.modulus, {}
    # keyed as _classes keys its buckets, so each class's color finds its R_d
    for r, d in enumerate(spec.palette):
        residues.setdefault(d, []).append(r)

    def live(d):
        rs = residues[d]
        sums = {(s + t) % mod for s in {a * r % mod for r in rs} for t in {b * r % mod for r in rs}}
        zs = {pow(r, n, mod) for r in rs}
        return any(cw * z % mod in sums for cw in {c * pow(r, m, mod) for r in rs} for z in zs)

    return live


def _scan_bucketed(cls, params, stop_on_find):
    """Sumset join over one color class cls = (color, vals, ivals, den) of
    _classes (vals ascending, as in the box): only same-colored tuples can
    be monochromatic, so every variable ranges over vals.

    A class of Fractions comes scaled to the integers ivals by the common
    denominator den of its values; a*x + b*y = c*w^m*z^n then becomes
    A*X + B*Y = c*W^m*Z^n with A, B = a, b times den^(m+n-1), so every key
    below is an exact integer.  An integer class is used as it is.  The
    set of keys A*X + B*Y over the class's (X, Y) pairs meets the probes
    c*W^m*Z^n, one per (W, Z) in walk order, or the class has no solution.
    Otherwise the first W row with a hit holds the least tuple, since W
    grows with the row, and each hit's least x is found by walking x up
    from the least value; the count sums each probe's pair count.

    Returns (count, best, lookups): the class's solution count, its least
    (w, x, y, z) in the original values and the number of (w, z) probes.
    Under stop_on_find the join stops at the first (w, z) in walk order
    that hits and returns its least x, the very tuple the literal walk
    meets first, with count 1.
    """
    a, b, c, m, n = params
    _, vals, ivals, den = cls
    if den != 1:
        scale = den ** (m + n - 1)
        a, b = a * scale, b * scale
    k = len(vals)
    bys = [b * y for y in ivals]
    keys = [ax + by for ax in [a * x for x in ivals] for by in bys]
    keyset = set(keys)
    zns = [z**n for z in ivals]

    def solution(i, j, rhs):  # the least (w, x, y, z) of the hit probe (i, j)
        for t, x in enumerate(ivals):
            y, r = divmod(rhs - a * x, b)
            if not r and y in index:
                return vals[i], vals[t], vals[index[y]], vals[j]

    if stop_on_find:
        # one W row at a time, so no probe past the first hit is built
        for i, w in enumerate(ivals):
            cwm = c * w**m
            row = [cwm * zn for zn in zns]
            if not keyset.isdisjoint(row):
                j = next(j for j, q in enumerate(row) if q in keyset)
                index = {v: t for t, v in enumerate(ivals)}
                return 1, solution(i, j, row[j]), i * k + j + 1
        return 0, None, k * k
    probes = [cwm * zn for cwm in [c * w**m for w in ivals] for zn in zns]
    if keyset.isdisjoint(probes):
        return 0, None, k * k
    # the first W row with a hit starts at probe `row`
    row = next(i for i in range(0, k * k, k) if not keyset.isdisjoint(probes[i : i + k]))
    index = {v: t for t, v in enumerate(ivals)}
    best = min(solution(q // k, q % k, probes[q]) for q in range(row, row + k) if probes[q] in keyset)
    counts = Counter(keys)
    return sum(map(counts.get, probes[row:], repeat(0))), best, k * k


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
    color class that its unit congruence (_live_test) leaves live, and
    reports pairs_indexed and lookups.  The full engine is
    the literal reference walk: it solves for y exactly at every (w, z, x)
    triple and shards by w across workers; its reports are identical for
    any worker count.  Both give the same found (the least tuple),
    solutions_found and closed-form candidates_scanned.  found None
    certifies absence over this box only.  stop_on_find needs the bucketed
    engine (it ignores workers) and makes candidates_scanned lookups times
    the class size.

    The bucketed engine takes the color classes of a (box, coloring) from
    a per-process cache (_color_classes), built once and kept for boxes of
    at most _CACHE_VALUES = 4,096 values in at most _CACHE_ENTRIES = 64
    entries; the full engine builds its own box and colors and never reads
    it.
    """
    params, workers = _eq_params(eq), _as_int(workers)
    if stop_on_find and engine != ENGINE_BUCKETED:
        raise DegenerateInput("stop_on_find needs the bucketed engine")
    count, best, pairs, lookups, examined = 0, None, 0, 0, 0
    if engine == ENGINE_BUCKETED:
        size, classes = _color_classes(box, spec, rational)
        live = _live_test(spec, params)
        for cls in classes:
            d, vals = cls[:2]
            k = len(vals)
            # a ruled-out class counts as a join without a hit
            rc, rb, rl = _scan_bucketed(cls, params, stop_on_find) if live(d) else (0, None, k * k)
            pairs += k * k
            lookups += rl
            examined += rl * k
            count += rc
            if rb is not None and (best is None or rb < best):
                best = rb
            if stop_on_find and rb is not None:
                break
        scanned = examined if stop_on_find else size**3
    elif engine == ENGINE_FULL:
        # the literal walk builds its own box and colors, never the cached
        # classes, and looks a solved y up by value
        values, reduced = _box(box, rational)
        cmap = dict(zip(values, _colors(values, spec, reduced)))
        if workers <= 1 or not values:
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
        scanned = len(values) ** 3
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


def verify_system_no_mono(system, spec, box: SearchBox, rational: bool = False) -> MonoReport:
    """Join each row a_i*x + b_i*y = c_i*w*z^n separately per color class,
    building one index per row per class; a monochromatic system solution
    is one per-row tuple for every row with all values sharing a single
    color.  solutions_found multiplies the per-row counts within each color
    (rows have disjoint variables), and a class stops at its first row
    without a solution; a row whose unit congruence (_live_test) rules the
    class out is not joined and counts as a join without a hit.  rational
    scans the rational values of `_box` in place of the integers.
    candidates_scanned stays the closed form rows * |values|^3;
    pairs_indexed and lookups count each row's full pair and probe space
    per class reached.  The classes come from the same per-process cache
    as verify_no_mono_solution's bucketed engine: built once per
    (box, coloring) of at most 4,096 values, 64 entries at most.
    """
    rows, n = _system_params(system)
    size, classes = _color_classes(box, spec, rational)
    count = 0
    best = None
    pairs = 0
    lookups = 0
    row_params = [(a, b, c, 1, n) for a, b, c in rows]
    lives = [_live_test(spec, params) for params in row_params]
    for cls in classes:
        d, vals = cls[:2]
        per_row = []
        prod = 1
        k = len(vals)
        for params, live in zip(row_params, lives):
            rc, rb, rl = _scan_bucketed(cls, params, False) if live(d) else (0, None, k * k)
            pairs += k * k
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
        candidates_scanned=len(rows) * size**3,
        solutions_found=count,
        pairs_indexed=pairs,
        lookups=lookups,
    )
