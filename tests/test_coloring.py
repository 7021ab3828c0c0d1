"""Valuation colorings and exhaustive finite-box scans.

The oracle color function and the quadruple enumerations below are written
from scratch so scan results are cross-checked against independent logic.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parreg import coloring
from parreg.arith import DegenerateInput
from parreg.classify import EquationSpec, SystemSpec
from parreg.coloring import (
    BOX_CAVEAT,
    ENGINE_BUCKETED,
    ENGINE_FULL,
    ModColoring,
    SearchBox,
    ValuationColoring,
    _box,
    _colors,
    _live_test,
    _scan_full_shard,
    color_of,
    verify_no_mono_solution,
    verify_system_no_mono,
)

# ---------------------------------------------------------------------------
# oracle


def oracle_color(x, p):
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    return num * pow(den, -1, p) % p


def oracle_vp(x, p):
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def literal_rational_box_values(box):
    # the definition: every num/den with both drawn from the box, as a set
    vs = box.values()
    out = {Fraction(p, q) for p in vs for q in vs if q != 0}
    if box.exclude_zero:
        out.discard(Fraction(0))
    return sorted(out)


def oracle_scan(a, b, c, m, n, p, values):
    vals = sorted(set(values))
    allowed = set(vals)
    hits = []
    for w in vals:
        for z in vals:
            rhs = Fraction(c) * Fraction(w) ** m * Fraction(z) ** n
            for x in vals:
                y = (rhs - a * Fraction(x)) / b
                if y not in allowed:
                    continue
                cset = {oracle_color(t, p) for t in (w, x, y, z)}
                if len(cset) == 1:
                    hits.append((w, x, y, z))
    return hits


# ---------------------------------------------------------------------------
# colorings


def test_color_of_pinned():
    chi43 = ValuationColoring(43)
    chi7 = ValuationColoring(7)
    assert color_of(86, chi43) == 2
    assert color_of(5, chi7) == 5
    assert color_of(Fraction(3, 7), chi7) == 3
    assert color_of(43, chi43) == 1
    assert color_of(Fraction(1, 43), chi43) == 1
    assert color_of(-1, chi7) == 6


def test_color_of_refuses_what_int_would_round():
    # 1.5 was coloured as 1 and "6" as 6
    for spec in (ValuationColoring(3), ModColoring(3, (0, 1, 2))):
        for x in (1.5, "6", 6.0, None):
            with pytest.raises(DegenerateInput):
                color_of(x, spec)


def test_color_rejects_zero_and_nonprime():
    with pytest.raises(DegenerateInput):
        color_of(0, ValuationColoring(7))
    with pytest.raises(DegenerateInput):
        ValuationColoring(10)
    with pytest.raises(DegenerateInput):
        ValuationColoring(7.0)


def test_multiplicativity_random_pairs():
    rng = random.Random(424242)
    chi = ValuationColoring(43)
    for _ in range(10**4):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
        y = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
        assert color_of(x * y, chi) == color_of(x, chi) * color_of(y, chi) % 43


def test_three_case_addition():
    rng = random.Random(99)
    p = 7
    chi = ValuationColoring(p)
    checked = {"lt": 0, "gt": 0, "eq": 0}
    while min(checked.values()) < 200:
        x = Fraction(rng.randint(1, 9999), rng.randint(1, 99)) * Fraction(p) ** rng.randint(-3, 3)
        y = Fraction(rng.randint(1, 9999), rng.randint(1, 99)) * Fraction(p) ** rng.randint(-3, 3)
        vx, vy = oracle_vp(x, p), oracle_vp(y, p)
        s = x + y
        if vx < vy:
            assert color_of(s, chi) == color_of(x, chi)
            checked["lt"] += 1
        elif vx > vy:
            assert color_of(s, chi) == color_of(y, chi)
            checked["gt"] += 1
        else:
            if (color_of(x, chi) + color_of(y, chi)) % p != 0:
                assert color_of(s, chi) == (color_of(x, chi) + color_of(y, chi)) % p
                checked["eq"] += 1


def test_mod_coloring():
    mod = ModColoring(5, ("a", "b", "c", "d", "e"))
    assert color_of(7, mod) == "c"
    assert color_of(Fraction(1, 2), mod) == "d"  # 2^-1 = 3 mod 5
    with pytest.raises(DegenerateInput):
        color_of(Fraction(1, 5), mod)
    with pytest.raises(DegenerateInput):
        ModColoring(3, ("a",))
    with pytest.raises(DegenerateInput):
        color_of(1, {1: 0})


def test_mod_coloring_refuses_an_inexact_modulus():
    # ModColoring(2.0, (0, 1)) was accepted and the scan then raised
    # TypeError indexing the palette with a float
    for modulus in (2.0, "2", None, Fraction(2)):
        with pytest.raises(DegenerateInput):
            ModColoring(modulus, (0, 1))
    with pytest.raises(DegenerateInput):
        ModColoring(0, ())


# ---------------------------------------------------------------------------
# boxes


def test_box_values():
    assert SearchBox(-2, 2).values() == [-2, -1, 1, 2]
    assert SearchBox(1, 3).values() == [1, 2, 3]
    assert SearchBox(5, 4).values() == []
    assert SearchBox(-1, 1, exclude_zero=False).values() == [-1, 0, 1]


def test_rational_box_values():
    vals = _box(SearchBox(1, 3), True)[0]
    assert Fraction(1, 2) in vals and Fraction(3, 2) in vals
    assert len(vals) == len(set(vals))
    assert vals == sorted(vals)
    assert set(vals) == {
        Fraction(a, b) for a in range(1, 4) for b in range(1, 4)
    }


small_boxes = st.builds(
    SearchBox,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.booleans(),
)
wide_boxes = st.builds(
    lambda lo, width, exclude_zero: SearchBox(lo, lo + width, exclude_zero),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-2, max_value=40),
    st.booleans(),
)
color_map_specs = st.one_of(
    st.sampled_from((2, 3, 5, 7, 11, 13)).map(ValuationColoring),
    st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.lists(st.integers(0, 3), min_size=m, max_size=m).map(
            lambda pal: ModColoring(m, tuple(pal))
        )
    ),
)


def _color_outcome(make):
    try:
        return list(make())
    except DegenerateInput:  # 0 in the box, or a denominator with no inverse
        return "refused"


@given(
    color_map_specs,
    st.one_of(
        st.tuples(small_boxes, st.booleans()),
        st.tuples(wide_boxes, st.just(False)),
    ),
)
@settings(max_examples=300, deadline=None)
def test_color_map_matches_color_of(spec, box_mode):
    box, rational = box_mode
    values = literal_rational_box_values(box) if rational else box.values()
    got, pairs = _box(box, rational)
    assert got == values
    if rational:
        assert pairs == [(v.numerator, v.denominator) for v in values]
    literal = _color_outcome(lambda: [color_of(v, spec) for v in values])
    assert _color_outcome(lambda: _colors(values, spec, pairs)) == literal


def test_color_map_refusals():
    over_zero = SearchBox(-3, 3, exclude_zero=False)
    for spec in (ValuationColoring(5), ModColoring(5, (0, 1, 2, 3, 4))):
        for rational in (False, True):
            values, pairs = _box(over_zero, rational)
            with pytest.raises(DegenerateInput, match="0 has no color"):
                _colors(values, spec, pairs)
    values, pairs = _box(SearchBox(1, 4), True)
    with pytest.raises(DegenerateInput, match="not invertible"):
        _colors(values, ModColoring(4, (0, 1, 2, 3)), pairs)
    assert _colors([], ModColoring(1, ("a",))) == []


# ---------------------------------------------------------------------------
# equation scans


def test_scan_agrees_with_oracle_when_solutions_exist():
    eq = EquationSpec(1, 1, 1, 1, 1)
    box = SearchBox(1, 50)
    rep = verify_no_mono_solution(eq, ValuationColoring(43), box)
    hits = oracle_scan(1, 1, 1, 1, 1, 43, box.values())
    assert rep.solutions_found == len(hits) > 0
    assert rep.found == min(hits)
    assert rep.found == (1, 1, 43, 44)
    assert rep.candidates_scanned == 50**3
    assert rep.caveat == BOX_CAVEAT


def test_scan_negative_window():
    eq = EquationSpec(2, 3, 1, 1, 2)
    box = SearchBox(-25, 25)
    rep = verify_no_mono_solution(eq, ValuationColoring(7), box)
    hits = oracle_scan(2, 3, 1, 1, 2, 7, box.values())
    assert rep.solutions_found == len(hits)
    assert rep.found == (min(hits) if hits else None)
    assert rep.candidates_scanned == 50**3


def test_obstructed_equation_has_no_solutions_smallbox():
    eq = EquationSpec(2, 3, 1, 1, 2)
    rep = verify_no_mono_solution(eq, ValuationColoring(43), SearchBox(-60, 60))
    assert rep.found is None
    assert rep.solutions_found == 0
    assert rep.candidates_scanned == 120**3


def test_engines_agree():
    eq = EquationSpec(1, 2, 1, 1, 2)
    box = SearchBox(-18, 18)
    chi = ValuationColoring(5)
    a = verify_no_mono_solution(eq, chi, box, engine=ENGINE_BUCKETED)
    b = verify_no_mono_solution(eq, chi, box, engine=ENGINE_FULL)
    assert (a.found, a.solutions_found, a.candidates_scanned) == (
        b.found,
        b.solutions_found,
        b.candidates_scanned,
    )


def test_full_engine_workers_deterministic():
    eq = EquationSpec(1, 1, 1, 1, 1)
    box = SearchBox(1, 30)
    chi = ValuationColoring(7)
    one = verify_no_mono_solution(eq, chi, box, engine=ENGINE_FULL, workers=1)
    four = verify_no_mono_solution(eq, chi, box, engine=ENGINE_FULL, workers=4)
    assert (one.found, one.solutions_found) == (four.found, four.solutions_found)
    assert one.candidates_scanned == four.candidates_scanned == 30**3


def test_stop_on_find():
    eq = EquationSpec(1, 1, 1, 1, 1)
    box = SearchBox(1, 300)
    rep = verify_no_mono_solution(
        eq, ValuationColoring(43), box, stop_on_find=True
    )
    assert rep.solutions_found == 1
    w, x, y, z = rep.found
    assert x + y == w * z
    assert len({color_of(t, ValuationColoring(43)) for t in rep.found}) == 1
    assert rep.candidates_scanned < 300**3
    with pytest.raises(DegenerateInput):
        verify_no_mono_solution(
            eq, ValuationColoring(43), box, engine=ENGINE_FULL, stop_on_find=True
        )


def test_three_colour_probe_pinned():
    # pinned from the literal triple walk, which test_engines_agree ties to
    # the full engine; the join runs it in well under the ceiling
    start = time.perf_counter()
    rep = verify_no_mono_solution(
        EquationSpec(2, 3, 1, 1, 2), ModColoring(3, (0, 1, 2)), SearchBox(-300, 300)
    )
    elapsed = time.perf_counter() - start
    assert rep.solutions_found == 12_380
    assert rep.found == (-165, -297, -297, -3)
    assert rep.candidates_scanned == 216_000_000
    assert elapsed < 2.0, f"3-colour probe took {elapsed:.2f}s"


def test_work_counts_pinned():
    eq = EquationSpec(1, 1, 1, 1, 1)
    spec = ModColoring(3, (0, 1, 2))
    box = SearchBox(1, 12)
    # three classes of four values each: {3, 6, 9, 12}, {1, 4, 7, 10}, {2, 5, 8, 11}
    rep = verify_no_mono_solution(eq, spec, box)
    assert rep.pairs_indexed == 3 * 4**2
    assert rep.lookups == 48
    assert rep.candidates_scanned == 12**3
    # the class of color 0 comes first and 3 + 6 = 3 * 3 hits at the first
    # (w, z) probe: one class indexed, one lookup, one class size examined
    first = verify_no_mono_solution(eq, spec, box, stop_on_find=True)
    assert first.found == (3, 3, 6, 3)
    assert (first.pairs_indexed, first.lookups, first.candidates_scanned) == (16, 1, 4)
    full = verify_no_mono_solution(eq, spec, box, engine=ENGINE_FULL)
    assert (full.pairs_indexed, full.lookups) == (0, 0)
    assert (full.found, full.solutions_found) == (rep.found, rep.solutions_found)


def test_stop_on_find_examined_is_lookups_times_class_size():
    eq = EquationSpec(2, 3, 1, 1, 2)
    spec = ValuationColoring(43)
    box = SearchBox(-60, 60)
    rep = verify_no_mono_solution(eq, spec, box, stop_on_find=True)
    # no solution: every class is indexed and fully probed
    colors = [oracle_color(v, 43) for v in box.values()]
    sizes = [colors.count(d) for d in set(colors)]
    assert rep.found is None and rep.solutions_found == 0
    assert rep.pairs_indexed == rep.lookups == sum(k * k for k in sizes)
    assert rep.candidates_scanned == sum(k**3 for k in sizes) < 120**3


def test_empty_box():
    rep = verify_no_mono_solution(
        EquationSpec(1, 1, 1, 1, 1), ValuationColoring(7), SearchBox(5, 4)
    )
    assert rep.found is None and rep.candidates_scanned == 0


def test_rational_mode():
    eq = EquationSpec(1, 1, 1, 1, 1)
    box = SearchBox(1, 3)
    rep = verify_no_mono_solution(eq, ValuationColoring(7), box, rational=True)
    vals = _box(box, True)[0]
    hits = oracle_scan(1, 1, 1, 1, 1, 7, vals)
    assert rep.solutions_found == len(hits)
    assert rep.found == (min(hits) if hits else None)
    assert rep.candidates_scanned == len(vals) ** 3


def test_mod_coloring_probe_finds_solutions():
    # living-room probe: x+y = wz under a residue coloring has solutions
    eq = EquationSpec(1, 1, 1, 1, 1)
    rep = verify_no_mono_solution(
        eq, ModColoring(3, (0, 1, 2)), SearchBox(1, 30), stop_on_find=True
    )
    assert rep.found is not None
    w, x, y, z = rep.found
    assert x + y == w * z


def test_equation_tuple_subject():
    rep = verify_no_mono_solution(
        (2, 3, 1, 1, 2), ValuationColoring(7), SearchBox(1, 10)
    )
    assert rep.subject == ("equation", 2, 3, 1, 1, 2)


# ---------------------------------------------------------------------------
# system scans


def oracle_system_scan(rows, n, p, values):
    vals = sorted(set(values))
    allowed = set(vals)
    per_color = {}
    for a, b, c in rows:
        row_hits = {}
        for w in vals:
            for z in vals:
                rhs = Fraction(c) * Fraction(w) * Fraction(z) ** n
                for x in vals:
                    y = (rhs - a * Fraction(x)) / b
                    if y not in allowed:
                        continue
                    cset = {oracle_color(t, p) for t in (w, x, y, z)}
                    if len(cset) == 1:
                        d = cset.pop()
                        row_hits.setdefault(d, []).append((w, x, y, z))
        per_color[(a, b, c)] = row_hits
    total = 0
    best = None
    for d in range(1, p):
        counts = []
        combo = []
        ok = True
        for row in rows:
            hits = per_color[row].get(d, [])
            if not hits:
                ok = False
                break
            counts.append(len(hits))
            combo.append(min(hits))
        if ok:
            prod = 1
            for k in counts:
                prod *= k
            total += prod
            cand = tuple(combo)
            if best is None or cand < best:
                best = cand
    return total, best


def test_system_k1_delegates():
    sys_spec = SystemSpec(((1, 1, 1),), 1)
    box = SearchBox(1, 40)
    srep = verify_system_no_mono(sys_spec, ValuationColoring(43), box)
    erep = verify_no_mono_solution(
        EquationSpec(1, 1, 1, 1, 1), ValuationColoring(43), box
    )
    assert srep.solutions_found == erep.solutions_found
    assert srep.found == (erep.found,)
    assert srep.candidates_scanned == erep.candidates_scanned
    assert srep.pairs_indexed == erep.pairs_indexed > 0
    assert srep.lookups == erep.lookups > 0


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("rows", [((1, 2, 3),), ((1, 2, 3), (2, 5, 1))])
def test_system_scan_rejects_exponent_below_one(rows, n):
    with pytest.raises(DegenerateInput):
        verify_system_no_mono((rows, n), ValuationColoring(5), SearchBox(1, 6))


def test_equation_scan_refuses_inexact_coefficients():
    # int() used to scan 2x + 3y for a = 2.7
    with pytest.raises(DegenerateInput):
        verify_no_mono_solution((2.7, 3, 1, 1, 2), ValuationColoring(5), SearchBox(1, 6))


def test_system_scan_refuses_inexact_coefficients():
    box = SearchBox(1, 6)
    for system in ((((2.5, 3, 1),), 2), (((2, 3, 1),), 2.0)):
        with pytest.raises(DegenerateInput):
            verify_system_no_mono(system, ValuationColoring(5), box)


def test_equation_scan_refuses_inexact_workers():
    # the full engine compared the string "2" with 1 and raised TypeError
    box = SearchBox(1, 6)
    for engine in (ENGINE_FULL, ENGINE_BUCKETED):
        for workers in ("2", 2.0, None):
            with pytest.raises(DegenerateInput):
                verify_no_mono_solution((2, 3, 1, 1, 2), ValuationColoring(5), box, engine=engine, workers=workers)


def test_search_box_refuses_inexact_bounds():
    # range() used to raise TypeError for these inside the scans
    for lo, hi in ((-2.0, 2), (-2, 2.5), ("a", 2), (None, 2), (Fraction(1), 3)):
        with pytest.raises(DegenerateInput):
            SearchBox(lo, hi)
    with pytest.raises(DegenerateInput):
        verify_no_mono_solution((1, 2, 3, 1, 1), ModColoring(2, (0, 1)), SearchBox(-2.0, 2))
    with pytest.raises(DegenerateInput):
        verify_system_no_mono((((1, 2, 3),), 1), ModColoring(2, (0, 1)), SearchBox(-2, 2.5))
    assert SearchBox(-2, 2).values() == [-2, -1, 1, 2]


def test_system_scan_matches_oracle():
    rows = ((1, 1, 1), (1, 2, 1))
    box = SearchBox(1, 12)
    rep = verify_system_no_mono(SystemSpec(rows, 1), ValuationColoring(5), box)
    total, best = oracle_system_scan(rows, 1, 5, box.values())
    assert rep.solutions_found == total
    assert rep.found == best
    assert rep.candidates_scanned == 2 * 12**3


def test_obstructed_system_empty_on_witness_coloring():
    rows = ((16, 17, 1), (33, 4063, 1))
    rep = verify_system_no_mono(
        SystemSpec(rows, 8), ValuationColoring(23), SearchBox(-40, 40)
    )
    assert rep.found is None
    assert rep.solutions_found == 0
    assert rep.candidates_scanned == 2 * 80**3


def test_system_work_counts_pinned():
    rows = ((1, 1, 1), (1, 2, 1))
    spec = ModColoring(3, (0, 1, 2))
    rep = verify_system_no_mono(SystemSpec(rows, 1), spec, SearchBox(1, 12))
    # classes of four values; mod 3 the rows read x + y = wz and x + 2y = wz.
    # Color 0 indexes both rows; color 1 (x + y = 2, wz = 1) stops after
    # row 1; color 2 (x + 2y = 0, wz = 1) stops after row 2.
    assert rep.pairs_indexed == rep.lookups == (2 + 1 + 2) * 16
    assert rep.candidates_scanned == 2 * 12**3


# ---------------------------------------------------------------------------
# the sumset join against the literal walk

nonzero_coeff = st.integers(min_value=1, max_value=9).flatmap(
    lambda v: st.sampled_from((v, -v))
)
equations = st.tuples(
    nonzero_coeff,
    nonzero_coeff,
    st.sampled_from((1, -1, 2, -2)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
colorings = st.one_of(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.permutations(range(k)).map(lambda pal: ModColoring(k, tuple(pal)))
    ),
    st.sampled_from((2, 3, 5, 7, 11)).map(ValuationColoring),
)
int_boxes = st.tuples(
    st.integers(min_value=-14, max_value=4), st.integers(min_value=4, max_value=24)
).map(lambda t: (SearchBox(t[0], t[0] + t[1]), False))
rational_boxes = st.integers(min_value=1, max_value=4).map(
    lambda h: (SearchBox(-h, h), True)
)


def _scan_outcome(eq, spec, box, rational, engine):
    try:
        rep = verify_no_mono_solution(eq, spec, box, engine=engine, rational=rational)
    except DegenerateInput as exc:  # a denominator with no residue mod m
        return str(exc)
    return rep.found, rep.solutions_found, rep.candidates_scanned


@given(equations, colorings, st.one_of(int_boxes, rational_boxes))
@settings(max_examples=150, deadline=None)
def test_join_matches_full_walk(eq, spec, box_mode):
    box, rational = box_mode
    assert _scan_outcome(eq, spec, box, rational, ENGINE_BUCKETED) == _scan_outcome(
        eq, spec, box, rational, ENGINE_FULL
    )


def first_hit_walk(eq, spec, values):
    # the walk stop_on_find stands for: classes in repr order of their
    # color, (w, z) in box order within a class, then the least x; with the
    # pairs indexed, (w, z) lookups and candidates examined up to the hit
    a, b, c, m, n = eq
    colors = {v: color_of(v, spec) for v in values}
    pairs = lookups = examined = 0
    for d in sorted(set(colors.values()), key=repr):
        cls = [v for v in values if colors[v] == d]
        members = set(cls)
        pairs += len(cls) ** 2
        for w in cls:
            for z in cls:
                lookups += 1
                examined += len(cls)
                rhs = c * Fraction(w) ** m * Fraction(z) ** n
                for x in cls:
                    y = (rhs - a * x) / b
                    if y in members:
                        return (w, x, y, z), pairs, lookups, examined
    return None, pairs, lookups, examined


@given(equations, colorings, st.one_of(int_boxes, rational_boxes))
@settings(max_examples=150, deadline=None)
def test_first_hit_matches_literal_walk(eq, spec, box_mode):
    box, rational = box_mode
    values = literal_rational_box_values(box) if rational else box.values()
    try:
        want = first_hit_walk(eq, spec, values)
    except DegenerateInput:  # a denominator with no residue mod m
        with pytest.raises(DegenerateInput):
            verify_no_mono_solution(eq, spec, box, stop_on_find=True, rational=rational)
        return
    rep = verify_no_mono_solution(eq, spec, box, stop_on_find=True, rational=rational)
    assert (rep.found, rep.pairs_indexed, rep.lookups, rep.candidates_scanned) == want
    assert rep.solutions_found == (rep.found is not None)
    full = verify_no_mono_solution(eq, spec, box, engine=ENGINE_FULL, rational=rational)
    assert (rep.found is None) == (full.solutions_found == 0)


# (equation, coloring, box, stop_on_find, rational) ->
# (found, solutions_found, candidates_scanned, pairs_indexed, lookups),
# recorded from the join before integer classes skipped the rescaling
F = Fraction
PINNED_SCANS = [
    ((2, -3, 1, 1, 2), ValuationColoring(5), SearchBox(-20, 20), False, False,
     ((-18, -18, 12, 2), 48, 64000, 400, 400)),
    ((1, 1, 1, 1, 1), ModColoring(4, (0, 1, 2, 3)), SearchBox(1, 30), True, False,
     ((4, 4, 12, 4), 1, 7, 49, 1)),
    ((3, 5, -2, 2, 1), ModColoring(3, (0, 1, 2)), SearchBox(-15, 9), False, False,
     ((-3, -3, -9, 3), 4, 24**3, 192, 192)),
    ((1, 2, 1, 1, 1), ValuationColoring(5), SearchBox(-4, 4), False, True,
     ((F(-2), F(-2), F(-2), F(3)), 69, 22**3, 122, 122)),
    ((1, -1, 2, 1, 1), ValuationColoring(3), SearchBox(-3, 3), True, True,
     ((F(-2), F(3), F(1, 3), F(-2, 3)), 1, 3 * 7, 49, 3)),
    ((4, 1, 1, 1, 2), ValuationColoring(7), SearchBox(2, 5), False, True,
     (None, 0, 13**3, 33, 33)),
]


@pytest.mark.parametrize("eq, spec, box, stop, rational, want", PINNED_SCANS)
def test_join_work_counts_pinned(eq, spec, box, stop, rational, want):
    rep = verify_no_mono_solution(eq, spec, box, stop_on_find=stop, rational=rational)
    got = (rep.found, rep.solutions_found, rep.candidates_scanned, rep.pairs_indexed, rep.lookups)
    assert got == want
    assert [type(v) for v in rep.found or ()] == [F if rational else int] * len(rep.found or ())


@given(
    st.lists(
        st.tuples(nonzero_coeff, nonzero_coeff, st.sampled_from((1, -1, 2, -2))),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=1, max_value=3),
    st.sampled_from((2, 3, 5, 7)),
    st.one_of(
        st.tuples(st.integers(min_value=1, max_value=8), st.just(False)),
        st.tuples(st.integers(min_value=1, max_value=3), st.just(True)),
    ),
)
@settings(max_examples=120, deadline=None)
def test_system_join_matches_oracle(rows, n, p, box_mode):
    rows = tuple(rows)
    half, rational = box_mode
    box = SearchBox(-half, half)
    values = literal_rational_box_values(box) if rational else box.values()
    rep = verify_system_no_mono(SystemSpec(rows, n), ValuationColoring(p), box, rational=rational)
    total, best = oracle_system_scan(rows, n, p, values)
    assert rep.solutions_found == total
    assert rep.found == best
    assert rep.candidates_scanned == len(rows) * len(values) ** 3


def test_rational_system_scan_matches_oracle():
    rows = ((1, 1, 2), (2, -1, 1))
    box = SearchBox(1, 4)
    rep = verify_system_no_mono(SystemSpec(rows, 1), ValuationColoring(3), box, rational=True)
    values = literal_rational_box_values(box)
    total, best = oracle_system_scan(rows, 1, 3, values)
    assert total > 0 and any(v.denominator > 1 for t in best for v in t)
    assert (rep.solutions_found, rep.found) == (total, best)
    assert rep.candidates_scanned == 2 * len(values) ** 3 == 2 * 11**3


# ---------------------------------------------------------------------------
# classes ruled out by the unit congruence before the join

prune_equations = st.tuples(
    st.integers(-12, 12).filter(bool),
    st.integers(-12, 12).filter(bool),
    st.integers(-6, 6).filter(bool),
    st.integers(1, 3),
    st.integers(1, 3),
).filter(lambda t: t[3] <= t[4])
prune_rows = st.lists(
    st.tuples(
        st.integers(-12, 12).filter(bool), st.integers(-12, 12).filter(bool), st.integers(-6, 6).filter(bool)
    ),
    min_size=2,
    max_size=3,
)
prune_boxes = st.one_of(
    st.tuples(st.integers(-12, 4), st.integers(0, 16)).map(lambda t: (SearchBox(t[0], t[0] + t[1]), False)),
    st.integers(1, 3).map(lambda h: (SearchBox(-h, h), True)),
)


def _class_solutions(values, spec, params):
    """{color: (count, least tuple)} of the full engine's walk over the w of
    that color: restricted to one w-class, the literal walk finds exactly
    the class's monochromatic solutions."""
    cmap = {v: color_of(v, spec) for v in values}
    return {
        d: _scan_full_shard((values, cmap, params, tuple(v for v in values if cmap[v] == d)))
        for d in set(cmap.values())
    }


def _report_fields(rep):
    return rep.found, rep.solutions_found, rep.candidates_scanned, rep.pairs_indexed, rep.lookups


def _unpruned(scan):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coloring, "_live_test", lambda spec, params: lambda d: True)
        return scan()


def _assert_live_where_solved(values, spec, params):
    live = _live_test(spec, params)
    for d, (count, _) in _class_solutions(values, spec, params).items():
        if count:
            assert live(d), (d, count)


@given(prune_equations, color_map_specs, prune_boxes)
@settings(max_examples=200, deadline=None)
def test_ruled_out_classes_hold_no_solution(eq, spec, box_mode):
    box, rational = box_mode
    values = _box(box, rational)[0]
    try:
        _colors(values, spec, _box(box, rational)[1])
    except DegenerateInput:  # a denominator with no residue mod M
        return
    _assert_live_where_solved(values, spec, eq)
    full = verify_no_mono_solution(eq, spec, box, engine=ENGINE_FULL, rational=rational)

    def scan(stop):
        return _report_fields(verify_no_mono_solution(eq, spec, box, stop_on_find=stop, rational=rational))

    for stop in (False, True):
        rep = scan(stop)
        if not stop:
            assert rep[:3] == _report_fields(full)[:3]
        # a ruled-out class is counted as a join without a hit
        assert rep == _unpruned(lambda: scan(stop))


@given(prune_rows, st.integers(1, 3), color_map_specs, prune_boxes)
@settings(max_examples=100, deadline=None)
def test_ruled_out_system_classes_hold_no_solution(rows, n, spec, box_mode):
    box, rational = box_mode
    rows = tuple(rows)
    values = _box(box, rational)[0]
    try:
        _colors(values, spec, _box(box, rational)[1])
    except DegenerateInput:
        return
    per_row = []
    for a, b, c in rows:
        _assert_live_where_solved(values, spec, (a, b, c, 1, n))
        per_row.append(_class_solutions(values, spec, (a, b, c, 1, n)))
    total, best = 0, None
    for d in per_row[0]:
        prod = 1
        for found in per_row:
            prod *= found[d][0]
        total += prod
        if prod and (best is None or tuple(found[d][1] for found in per_row) < best):
            best = tuple(found[d][1] for found in per_row)
    rep = verify_system_no_mono(SystemSpec(rows, n), spec, box, rational=rational)
    assert (rep.solutions_found, rep.found) == (total, best)
    assert rep.candidates_scanned == len(rows) * len(values) ** 3
    assert _report_fields(rep) == _unpruned(
        lambda: _report_fields(verify_system_no_mono(SystemSpec(rows, n), spec, box, rational=rational)),
    )


def test_unit_congruence_leaves_three_classes_to_join(monkeypatch):
    # 2x + 3y = wz under ValuationColoring(13): c'r^(m+n-1) = r must be
    # 2, 3 or 5 mod 13, so only those classes are joined
    spec = ValuationColoring(13)
    joined = []
    scan = coloring._scan_bucketed

    def spy(cls, params, stop_on_find):
        joined.append(color_of(cls[1][0], spec))
        return scan(cls, params, stop_on_find)

    monkeypatch.setattr(coloring, "_scan_bucketed", spy)
    rep = verify_no_mono_solution((2, 3, 1, 1, 1), spec, SearchBox(-30, 30))
    assert sorted(joined) == [2, 3, 5]
    assert _report_fields(rep) == ((-21, -21, -21, 5), 12, 60**3, 308, 308)


# ---------------------------------------------------------------------------
# the per-process cache of color classes behind the bucketed engine

cache_requests = st.lists(
    st.one_of(
        st.tuples(st.just("equation"), prune_equations, st.booleans()),
        st.tuples(
            st.just("system"),
            st.lists(
                st.tuples(
                    st.integers(-12, 12).filter(bool),
                    st.integers(-12, 12).filter(bool),
                    st.integers(-6, 6).filter(bool),
                ),
                min_size=1,
                max_size=3,
            ),
            st.integers(1, 3),
        ),
    ),
    min_size=1,
    max_size=6,
)


def _report_or_refusal(scan):
    try:
        return scan()
    except DegenerateInput as exc:  # a denominator with no residue mod M
        return str(exc)


@given(color_map_specs, prune_boxes, cache_requests)
@settings(max_examples=100, deadline=None)
def test_cached_classes_give_the_reports_of_a_cleared_cache(spec, box_mode, requests):
    # equations and systems that share one (box, coloring) share its entry
    box, rational = box_mode
    coloring._classes.cache_clear()
    for kind, subject, arg in requests:
        if kind == "equation":

            def scan(engine=ENGINE_BUCKETED):
                return verify_no_mono_solution(subject, spec, box, engine=engine, stop_on_find=arg, rational=rational)

        else:

            def scan():
                return verify_system_no_mono(SystemSpec(tuple(subject), arg), spec, box, rational=rational)

        _report_or_refusal(scan)
        hits = coloring._classes.cache_info().hits
        cached = _report_or_refusal(scan)
        assert isinstance(cached, str) or coloring._classes.cache_info().hits == hits + 1
        coloring._classes.cache_clear()
        assert _report_or_refusal(scan) == cached
        if kind == "equation" and not arg:
            full = _report_or_refusal(lambda: scan(ENGINE_FULL))
            if isinstance(cached, str):
                assert full == cached
            else:
                assert _report_fields(full)[:3] == _report_fields(cached)[:3]


def test_cache_keeps_apart_specs_that_order_their_classes_apart():
    # ModColoring(2, (1, 5)) and ModColoring(2, (True, 5)) compare and hash
    # equal, but repr puts the class of 1 before that of 5 and the class of
    # True after it, so the first hit of x + y = 2wz differs
    one, true = ModColoring(2, (1, 5)), ModColoring(2, (True, 5))
    assert one == true and hash(one) == hash(true)
    eq, box = (1, 1, 2, 1, 1), SearchBox(1, 12)
    cold = {}
    for spec in (one, true):
        coloring._classes.cache_clear()
        cold[repr(spec)] = verify_no_mono_solution(eq, spec, box, stop_on_find=True)
    assert cold[repr(one)].found == (2, 2, 6, 2) and cold[repr(true)].found == (1, 1, 1, 1)
    for order in ((one, true), (true, one)):
        coloring._classes.cache_clear()
        for spec in order + order:
            assert verify_no_mono_solution(eq, spec, box, stop_on_find=True) == cold[repr(spec)]


def test_cache_holds_only_boxes_within_its_cap():
    # the cap counts hi - lo + 1 integers, and its square for a rational box
    spec, eq = ValuationColoring(4099), (1, 1, 1, 1, 1)
    coloring._classes.cache_clear()
    for box, rational, cached in (
        (SearchBox(1, 4097), False, False),
        (SearchBox(1, 65), True, False),
        (SearchBox(1, 4096), False, True),
        (SearchBox(1, 64), True, True),
    ):
        size = coloring._classes.cache_info().currsize
        rep = verify_no_mono_solution(eq, spec, box, rational=rational)
        assert coloring._classes.cache_info().currsize == size + cached
        assert rep.candidates_scanned == len(_box(box, rational)[0]) ** 3
    # the full engine, the reference walk, never reads the cache
    small = SearchBox(-6, 9)
    verify_no_mono_solution(eq, ValuationColoring(5), small, rational=True)
    info = coloring._classes.cache_info()
    verify_no_mono_solution(eq, ValuationColoring(5), small, engine=ENGINE_FULL, rational=True)
    assert coloring._classes.cache_info() == info


def test_list_palette_scans_as_its_tuple():
    listed, tupled = ModColoring(3, [0, 1, 2]), ModColoring(3, (0, 1, 2))
    assert listed == tupled and hash(listed) == hash(tupled) and listed.palette == (0, 1, 2)
    box, system = SearchBox(-9, 15), SystemSpec(((1, 1, 1), (2, -1, 1)), 1)
    scans = [
        lambda spec: verify_no_mono_solution((1, 1, 1, 1, 1), spec, box),
        lambda spec: verify_no_mono_solution((1, 1, 1, 1, 1), spec, box, stop_on_find=True),
        lambda spec: verify_system_no_mono(system, spec, box),
    ]
    for scan in scans:
        coloring._classes.cache_clear()
        want = scan(tupled)
        assert scan(listed) == want  # from the tuple palette's entry
        coloring._classes.cache_clear()
        assert scan(listed) == want
