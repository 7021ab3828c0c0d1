"""End-to-end acceptance gate.

Each test covers one numbered criterion (AC1-AC9), pins exact expected
values, and prints a single PASS/FAIL line; run with `pytest -s` to see the
lines.  Runtime ceilings are asserted where the criterion carries one.

AC5 asserts the exact fourth-power laws for the pair {36, 9}: both targets
miss exactly at the admissible primes p = 17 (mod 24), and 36 hits exactly
at those with p mod 24 outside {13, 17}.  The criterion first claimed
none([36,9],4) = 0 with 36 hitting every p != 13 (mod 24); p = 17 refutes
both, since its fourth powers {1, 4, 13, 16} hold neither 36 = 2 nor 9.
"""

import os
import random
import time
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from parreg.arith import _split, nth_power_in_Qp, nth_power_mod_p, sieve
from parreg.classify import (
    NOT_PR,
    PR,
    UNKNOWN,
    EquationSpec,
    SystemSpec,
    classify_equation,
    classify_system,
    reverify,
)
from parreg.coloring import SearchBox, ValuationColoring, color_of, verify_no_mono_solution
from parreg.density import admissible_primes, hit_primes, joint_survey, survey
from parreg.radolinear import QMatrix, columns_condition, verify_columns_certificate
from parreg.witness import find_witness_prime

BOUND = 10 ** 5


def report(num, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"AC{num}: {'PASS' if ok else 'FAIL'}{tail}")


def rules_of(v):
    return tuple(c.rule for c in v.certificates)


def statuses(v):
    return (v.status_N, v.status_Z, v.status_Q)


# ---------------------------------------------------------------------------
# AC1: regression table


PADIC_ROWS = (
    ((3, 13, 1, 1, 8), 2),
    ((16, 16, 1, 1, 8), 2),
    ((60, 90, 1, 1, 2), 2),
    ((81, 729, 1, 1, 12), 3),
    ((32400, 57600, 1, 1, 4), 5),
)


def test_ac1_regression_table():
    t0 = time.perf_counter()
    ok = True
    for coeffs, p in PADIC_ROWS:
        v = classify_equation(EquationSpec(*coeffs))
        padic = [c for c in v.certificates if c.rule == "R9"]
        ok &= len(padic) == 1 and padic[0].data["p"] == p
        ok &= statuses(v) == (NOT_PR, NOT_PR, UNKNOWN)

    v = classify_equation(EquationSpec(1, 1, 1, 1, 1))
    ok &= statuses(v) == (PR, PR, PR)

    v = classify_equation(EquationSpec(2, -8, 1, 1, 3))
    ok &= statuses(v) == (UNKNOWN, PR, PR)

    for coeffs in ((16, 17, 1, 1, 8), (33, 4063, 1, 1, 8)):
        v = classify_equation(EquationSpec(*coeffs))
        ok &= statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)

    v = classify_equation(EquationSpec(1, 1, -1, 1, 1))
    ok &= statuses(v) == (NOT_PR, PR, PR)

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(1, ok, f"10 equations, padic primes (2,2,2,3,5), {elapsed:.1f}s < 10s")
    assert ok
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# AC2: smallest witness prime for {2, 3, 5} at n = 2


def test_ac2_joint_witness_43():
    t0 = time.perf_counter()
    w = find_witness_prime([2, 3, 5], 2)
    found_43 = w is not None and w.p == 43

    # independent exhaustive check: no prime strictly between 5 and 43 works
    none_below = True
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        squares = {x * x % p for x in range(1, p)}
        none_below &= any(t % p in squares for t in (2, 3, 5))

    elapsed = time.perf_counter() - t0
    ok = found_43 and none_below and elapsed < 1.0
    report(2, ok, f"p=43, no prime in (5,43) qualifies, {elapsed:.2f}s < 1s")
    assert found_43
    assert none_below
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# AC3: exhaustive box scan for 2x + 3y = w z^2 under the 43-coloring


def test_ac3_box_scan_300():
    t0 = time.perf_counter()
    rep = verify_no_mono_solution(
        (2, 3, 1, 1, 2), ValuationColoring(43), SearchBox(-300, 300)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep.found is None
        and rep.solutions_found == 0
        and rep.candidates_scanned == 600 ** 3
        and elapsed < 300.0
    )
    report(3, ok, f"0 solutions in {rep.candidates_scanned} triples, {elapsed:.1f}s < 300s")
    assert rep.found is None
    assert rep.solutions_found == 0
    assert rep.candidates_scanned == 216_000_000
    assert elapsed < 300.0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 8, reason="parallel speedup check needs >= 8 cores"
)
def test_ac3_parallel_speedup():
    # linear speedup to 8 workers, within 20%
    box = SearchBox(-120, 120)
    eq = (2, 3, 1, 1, 2)
    spec = ValuationColoring(43)
    t0 = time.perf_counter()
    one = verify_no_mono_solution(eq, spec, box, engine="full", workers=1)
    t1 = time.perf_counter()
    eight = verify_no_mono_solution(eq, spec, box, engine="full", workers=8)
    t8 = time.perf_counter() - t1
    serial = t1 - t0
    ok = one.solutions_found == eight.solutions_found and serial / t8 >= 8 / 1.2
    report(3, ok, f"speedup x{serial / t8:.1f} over 8 workers")
    assert one.solutions_found == eight.solutions_found
    assert serial / t8 >= 8 / 1.2


# ---------------------------------------------------------------------------
# AC4: residue tests against brute force


def qp_oracle_sets():
    # n-th powers of units modulo p^(2e+1), e = v_p(n): enough precision for
    # Hensel lifting, so membership decides the unit part exactly.
    sets = {}
    for p in (2, 3, 5):
        for n in range(1, 13):
            e = 0
            k = n
            while k % p == 0:
                k //= p
                e += 1
            M = p ** (2 * e + 1)
            sets[(p, n)] = (M, {pow(x, n, M) for x in range(1, M) if x % p})
    return sets


def test_ac4_power_residues_match_brute_force():
    t0 = time.perf_counter()
    mismatches = 0
    for p in sieve(100).primes:
        for n in range(1, 13):
            brute = {pow(x, n, p) for x in range(1, p)}
            for r in range(1, p):
                if nth_power_mod_p(r, n, p) != (r in brute):
                    mismatches += 1

    qp_mismatches = 0
    sets = qp_oracle_sets()
    for p in (2, 3, 5):
        for n in range(1, 13):
            M, powers = sets[(p, n)]
            for q in range(-10_000, 10_001):
                if q == 0:
                    continue
                v = 0
                u = q
                while u % p == 0:
                    u //= p
                    v += 1
                expected = v % n == 0 and u % M in powers
                if nth_power_in_Qp(q, p, n) != expected:
                    qp_mismatches += 1

    pins = (
        nth_power_in_Qp(33, 2, 8) is True
        and nth_power_in_Qp(17, 2, 8) is False
        and nth_power_in_Qp(16, 2, 8) is False
    )
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and qp_mismatches == 0 and pins
    report(
        4,
        ok,
        f"Euler p<100 n<=12 and 2/3/5-adic |q|<=1e4: 0 mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert qp_mismatches == 0
    assert pins


# ---------------------------------------------------------------------------
# AC5: exact density claims ({36, 9} misses exactly at p = 17 mod 24)


def test_ac5_exact_density_claims():
    t0 = time.perf_counter()
    ok_16 = survey(16, 8, BOUND).density == 1
    ok_pair = joint_survey([4, -4], 4, BOUND).none == 0

    js = joint_survey([36, 9], 4, BOUND)
    admissible = set(admissible_primes(36, BOUND))
    hits36 = set(hit_primes(36, 4, BOUND))
    none_set = admissible - (hits36 | set(hit_primes(9, 4, BOUND)))
    # For p = 3 (mod 4) every square is a fourth power.  For p = 1 (mod 4),
    # 36 = 6^2 is one iff 6 is a square (fails at p = 13, 17 mod 24) and
    # 9 = 3^2 is one iff 3 is a square (fails at p = 5, 17 mod 24).
    none_law = {p for p in admissible if p % 24 == 17}
    hits36_law = {p for p in admissible if p % 24 not in (13, 17)}
    elapsed = time.perf_counter() - t0

    ok = (
        ok_16
        and ok_pair
        and none_set == none_law
        and js.none == len(none_law)
        and hits36 == hits36_law
        and elapsed < 30.0
    )
    report(
        5,
        ok,
        f"density(16,8)=1 {ok_16}, none([4,-4],4)=0 {ok_pair}, "
        f"none([36,9],4)={js.none} = #(p=17 mod 24), "
        f"36-hits = p mod 24 not in {{13,17}}, {elapsed:.1f}s < 30s",
    )
    assert ok_16
    assert ok_pair
    assert elapsed < 30.0
    assert none_set == none_law, (
        "neither 36 nor 9 is a fourth-power residue exactly at the admissible "
        f"primes p = 17 (mod 24); differing primes: {sorted(none_set ^ none_law)[:10]}"
    )
    assert js.none == len(none_law), (
        f"joint_survey none = {js.none}, but {len(none_law)} admissible primes "
        "below the bound are 17 (mod 24)"
    )
    assert hits36 == hits36_law, (
        "36 = 6^2 is a fourth-power residue exactly at the admissible primes with "
        f"p mod 24 not in {{13, 17}}; differing primes: {sorted(hits36 ^ hits36_law)[:10]}"
    )


# ---------------------------------------------------------------------------
# AC6: columns condition vs brute force


def rank_of(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][j]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def in_span(target, vectors):
    if all(x == 0 for x in target):
        return True
    if not vectors:
        return False
    return rank_of(vectors) == rank_of(vectors + [target])


def ordered_set_partitions(items):
    n = len(items)
    for labels in product(range(n), repeat=n):
        k = max(labels) + 1
        if sorted(set(labels)) != list(range(k)):
            continue
        yield tuple(
            frozenset(items[i] for i in range(n) if labels[i] == b) for b in range(k)
        )


def brute_columns_condition(M):
    cols = {j: list(M.column(j)) for j in range(1, M.cols + 1)}

    def block_sum(block):
        total = [Fraction(0)] * M.rows
        for j in block:
            total = [t + c for t, c in zip(total, cols[j])]
        return total

    for partition in ordered_set_partitions(tuple(range(1, M.cols + 1))):
        earlier = []
        good = True
        for i, block in enumerate(partition):
            s = block_sum(block)
            if i == 0:
                if any(x != 0 for x in s):
                    good = False
                    break
            elif not in_span(s, earlier):
                good = False
                break
            earlier.extend(cols[j] for j in sorted(block))
        if good:
            return True
    return False


def brauer_matrix(h, ell, j):
    # rows: h*x_{i+2} - h*x_2 - j_i*x_1 = 0 for i in 1..ell,
    #       h*x_{ell+3} - x_2 - h*x_{ell+5} = 0,
    #       h*x_{ell+4} - h*x_2 - x_1 = 0
    n = ell + 5
    rows = []
    for i in range(1, ell + 1):
        r = [0] * n
        r[0] = -j[i - 1]
        r[1] = -h
        r[i + 1] = h
        rows.append(r)
    r = [0] * n
    r[1] = -1
    r[ell + 2] = h
    r[ell + 4] = -h
    rows.append(r)
    r = [0] * n
    r[0] = -1
    r[1] = -h
    r[ell + 3] = h
    rows.append(r)
    return QMatrix.from_rows(rows)


def test_ac6_columns_condition():
    t0 = time.perf_counter()
    schur = QMatrix.from_rows([[1, 1, -1]])
    cert = columns_condition(schur)
    ok_schur = cert is not None and verify_columns_certificate(schur, cert)

    ok_refused = columns_condition(QMatrix.from_rows([[2, 3, -1]])) is None

    M = brauer_matrix(2, 3, (1, 2, 3))
    cert = columns_condition(M)
    ok_brauer = (
        cert is not None
        and cert.ordered_partition
        == (frozenset({6, 8}), frozenset({2, 3, 4, 5, 7}), frozenset({1}))
        and verify_columns_certificate(M, cert)
    )

    rng = random.Random(43)
    trials = 0
    agree = True
    for _ in range(1000):
        rows = rng.randint(1, 3)
        M = QMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rows)]
        )
        cert = columns_condition(M)
        agree &= (cert is not None) == brute_columns_condition(M)
        if cert is not None:
            agree &= verify_columns_certificate(M, cert)
        trials += 1

    elapsed = time.perf_counter() - t0
    ok = ok_schur and ok_refused and ok_brauer and agree and trials == 1000
    report(6, ok, f"pinned instances + 1000 random trials vs brute force, {elapsed:.1f}s")
    assert ok_schur
    assert ok_refused
    assert ok_brauer
    assert agree


# ---------------------------------------------------------------------------
# AC7: system family


SYSTEMS = (
    (((32400, 57600, 1), (15210000, 87609600, 1)), 4, "S3", ()),
    (((16, 17, 1), (33, 4063, 1)), 8, "S3", (33,)),
    (((8, 27, 1), (27, 343, 1), (343, 8, 1)), 3, "S2", ()),
    (((9, 16, 1), (25, -9, 1), (25, -16, 1), (9, 7, 1)), 2, "S2", ()),
)

OPEN_SYSTEMS = (
    (((16, 17, 1), (33, -17, 1)), 8),
    (((625, 729, 1), (-104, 729, 1)), 12),
)


def test_ac7_system_family():
    t0 = time.perf_counter()
    ok = True
    for rows, n, rule, inter in SYSTEMS:
        v = classify_system(SystemSpec(rows, n))
        fired = [
            c for c in v.certificates if c.rule == rule and "intersection" in c.data
        ]
        ok &= len(fired) == 1 and fired[0].data["intersection"] == inter
        ok &= (v.status_N, v.status_Z) == (NOT_PR, NOT_PR)

    # dropping any row but the first from the fourth system flips it to PR
    full = SYSTEMS[3][0]
    for drop, root in ((1, 3), (2, 4), (3, 5)):
        rows = tuple(r for i, r in enumerate(full) if i != drop)
        v = classify_system(SystemSpec(rows, 2))
        s1 = [c for c in v.certificates if c.rule == "S1"]
        ok &= v.status_Z == PR and len(s1) == 1 and s1[0].data["root"] == root
    v = classify_system(SystemSpec(full[1:], 2))
    ok &= v.status_Z == NOT_PR

    for rows, n in OPEN_SYSTEMS:
        v = classify_system(SystemSpec(rows, n))
        ok &= statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(7, ok, f"4 refuted + 3 PR drops + 2 open, {elapsed:.1f}s < 5s")
    assert ok
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# AC8: property suite, fixed seeds


def nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def test_ac8_property_suite():
    t0 = time.perf_counter()
    cfg = SimpleNamespace(witness_bound=3000)
    rng = random.Random(20260819)
    lattice_ok = verify_ok = symmetry_ok = True
    for _ in range(150):
        a, b, c = (nonzero(rng, -9, 9) for _ in range(3))
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        v = classify_equation(EquationSpec(a, b, c, m, n), config=cfg)
        st = statuses(v)
        for low, high in zip(st, st[1:]):
            lattice_ok &= not (low == PR and high != PR)
            lattice_ok &= not (high == NOT_PR and low != NOT_PR)
        verify_ok &= reverify(v)
        swapped = classify_equation(EquationSpec(b, a, c, m, n), config=cfg)
        negated = classify_equation(EquationSpec(-a, -b, -c, m, n), config=cfg)
        symmetry_ok &= statuses(swapped) == st and statuses(negated) == st

    # tampering must not survive re-verification
    tampered = classify_equation(EquationSpec(2, 3, 1, 2, 2))
    tampered.status_Z = UNKNOWN
    tamper_ok = reverify(tampered) is False

    chi43 = ValuationColoring(43)
    mult_ok = True
    for _ in range(10_000):
        x = Fraction(nonzero(rng, -60, 60), rng.randint(1, 40))
        y = Fraction(nonzero(rng, -60, 60), rng.randint(1, 40))
        mult_ok &= color_of(x * y, chi43) == color_of(x, chi43) * color_of(y, chi43) % 43

    chi7 = ValuationColoring(7)
    add_ok = True
    seen = {"lt": 0, "gt": 0, "eq": 0}
    while min(seen.values()) < 200:
        x = Fraction(nonzero(rng, -50, 50), rng.randint(1, 30))
        y = Fraction(nonzero(rng, -50, 50), rng.randint(1, 30))
        if x + y == 0:
            continue
        vx, vy = _split(x, 7)[0], _split(y, 7)[0]
        cx, cy, cs = color_of(x, chi7), color_of(y, chi7), color_of(x + y, chi7)
        if vx < vy:
            add_ok &= cs == cx
            seen["lt"] += 1
        elif vx > vy:
            add_ok &= cs == cy
            seen["gt"] += 1
        elif (cx + cy) % 7:
            add_ok &= cs == (cx + cy) % 7
            seen["eq"] += 1

    elapsed = time.perf_counter() - t0
    ok = lattice_ok and verify_ok and symmetry_ok and tamper_ok and mult_ok and add_ok
    report(
        8,
        ok,
        "150 classified equations (lattice, reverify, x<->y, negation), "
        f"10000 multiplicative pairs, 600 addition cases, {elapsed:.1f}s",
    )
    assert lattice_ok
    assert verify_ok
    assert symmetry_ok
    assert tamper_ok
    assert mult_ok
    assert add_ok


# ---------------------------------------------------------------------------
# AC9: density windows and inclusion-exclusion


def ie_holds(js):
    signed = 0
    for subset, hits in js.subset_hits.items():
        signed += hits if len(subset) % 2 else -hits
    full = tuple(range(len(js.targets)))
    return (
        js.at_least_one == signed
        and js.none == js.admissible_count - js.at_least_one
        and js.all_targets == js.subset_hits[full]
    )


def test_ac9_density_windows():
    t0 = time.perf_counter()
    d23 = survey(2, 3, BOUND).density
    d22 = survey(2, 2, BOUND).density
    ok_23 = Fraction(646, 1000) <= d23 <= Fraction(686, 1000)
    ok_22 = Fraction(48, 100) <= d22 <= Fraction(52, 100)

    ie_ok = all(
        ie_holds(js)
        for js in (
            joint_survey([2, 3, 5], 2, BOUND),
            joint_survey([2, 3], 3, BOUND),
            joint_survey([36, 9], 4, BOUND),
        )
    )
    elapsed = time.perf_counter() - t0
    ok = ok_23 and ok_22 and ie_ok
    report(
        9,
        ok,
        f"density(2,3)={float(d23):.4f} in [0.646,0.686], "
        f"density(2,2)={float(d22):.4f} in [0.48,0.52], IE exact, {elapsed:.1f}s",
    )
    assert ok_23
    assert ok_22
    assert ie_ok
