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

from parreg.arith import DegenerateInput
from parreg.classify import EquationSpec, SystemSpec
from parreg.coloring import (
    BOX_CAVEAT,
    ENGINE_BUCKETED,
    ENGINE_FULL,
    ModColoring,
    SearchBox,
    ValuationColoring,
    color_of,
    rational_box_values,
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


# ---------------------------------------------------------------------------
# boxes


def test_box_values():
    assert SearchBox(-2, 2).values() == [-2, -1, 1, 2]
    assert SearchBox(1, 3).values() == [1, 2, 3]
    assert SearchBox(5, 4).values() == []
    assert SearchBox(-1, 1, exclude_zero=False).values() == [-1, 0, 1]


def test_rational_box_values():
    vals = rational_box_values(SearchBox(1, 3))
    assert Fraction(1, 2) in vals and Fraction(3, 2) in vals
    assert len(vals) == len(set(vals))
    assert vals == sorted(vals)
    assert set(vals) == {
        Fraction(a, b) for a in range(1, 4) for b in range(1, 4)
    }


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
    vals = rational_box_values(box)
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


@given(
    st.lists(
        st.tuples(nonzero_coeff, nonzero_coeff, st.sampled_from((1, -1, 2, -2))),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=1, max_value=3),
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_system_join_matches_oracle(rows, n, p, half):
    rows = tuple(rows)
    box = SearchBox(-half, half)
    rep = verify_system_no_mono(SystemSpec(rows, n), ValuationColoring(p), box)
    total, best = oracle_system_scan(rows, n, p, box.values())
    assert rep.solutions_found == total
    assert rep.found == best
    assert rep.candidates_scanned == len(rows) * (2 * half) ** 3
