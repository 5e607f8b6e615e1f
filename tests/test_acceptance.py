"""Acceptance gate: seven end-to-end checks, one printed verdict line each.

Every test prints ``ACCEPTANCE <n>: PASS`` or ``ACCEPTANCE <n>: FAIL (...)``
before asserting, so the gate's outcome can be read straight off the pytest
log.  Reference values are the published four-decimal tables; tolerances are
5e-5 for rounded table entries, 1e-12 for exact-valued entries, and 5e-3 for
the one reference column that is known to disagree with exact evaluation
(see the conflict-sweep regression below).  One published entry is a
misprint and is corrected here: the sweep's d_BBA for {1,2} prints 0.6866,
the truncation of the exact sqrt(943/2000) = 0.68665857..., whose rounding
is 0.6867.  The sweep check recomputes the exact d_BBA of every row in
rational arithmetic, so the corrected table is checked against the
definition, not against the program.
"""

from __future__ import annotations

import pathlib
import random
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import dsconflict as ds
import oracles
from generators import (
    LABEL_POOL,
    random_bpa,
    random_disjoint_pair,
    random_frame,
    random_pair,
)

DATA = pathlib.Path(__file__).parent / "data"

SEED = 20260815


def _verdict(number: int, problems: list[str]) -> None:
    ok = not problems
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
    if not ok:
        line += f" ({'; '.join(problems)})"
    print(line, flush=True)
    assert ok, line


def _example(name: str) -> ds.BpaDocument:
    return ds.load_document(DATA / name)


def _support(m: ds.MassFunction) -> int:
    mask = 0
    for focal, _ in m.items():
        mask |= focal
    return mask


# --------------------------------------------------------------------------
# 1. Example 1: highly conflicting pair, all five measures + runtime


def test_acceptance_1_example1():
    doc = _example("example1.json")
    m1, m2 = doc.bpa("m1"), doc.bpa("m2")

    def evaluate():
        return (
            ds.conflict_k(m1, m2),
            ds.jousselme_distance(m1, m2),
            ds.song_cor(m1, m2),
            ds.correlation_coefficient(m1, m2),
            ds.conflict_kr(m1, m2),
        )

    evaluate()  # warm-up: the budget is for the computation, not first-call setup
    start = time.perf_counter()
    k, d, cor, r, k_r = evaluate()
    elapsed = time.perf_counter() - start

    problems = []
    for name, got, want in (
        ("k", k, 0.99),
        ("d_bba", d, 0.9),
        ("cor", cor, 0.3668),
        ("r_bpa", r, 0.0122),
        ("k_r", k_r, 0.9878),
    ):
        if abs(got - want) > 5e-5:
            problems.append(f"{name}: got {got!r}, reference {want}")
    if elapsed >= 0.010:
        problems.append(f"runtime {elapsed * 1e3:.2f} ms, budget 10 ms")
    _verdict(1, problems)


# --------------------------------------------------------------------------
# 2. Example 1 revised: disjoint supports, total conflict


def test_acceptance_2_example1_revised():
    doc = _example("example1.json")
    m1, m2 = doc.bpa("m1_revised"), doc.bpa("m2_revised")

    problems = []
    k = ds.conflict_k(m1, m2)
    if k != 1.0:
        problems.append(f"k: got {k!r}, want exactly 1.0")
    try:
        ds.combine_dempster(m1, m2)
        problems.append("combination did not raise TotalConflictError")
    except ds.TotalConflictError:
        pass
    d = ds.jousselme_distance(m1, m2)
    if d != 1.0:
        problems.append(f"d_bba: got {d!r}, want exactly 1.0")
    cor = ds.song_cor(m1, m2)
    if abs(cor - 0.3229) > 5e-5:
        problems.append(f"cor: got {cor!r}, reference 0.3229")
    r = ds.correlation_coefficient(m1, m2)
    if r != 0.0:
        problems.append(f"r_bpa: got {r!r}, want exactly 0.0")
    k_r = ds.conflict_kr(m1, m2)
    if k_r != 1.0:
        problems.append(f"k_r: got {k_r!r}, want exactly 1.0")
    _verdict(2, problems)


# --------------------------------------------------------------------------
# 3. Two fully conflicting pairs where k and k_r agree but the similarity
#    measures differ


def test_acceptance_3_table1():
    doc = _example("example2.json")
    m1, m2 = doc.bpa("m1"), doc.bpa("m2")
    m3, m4 = doc.bpa("m3"), doc.bpa("m4")

    problems = []
    for name, got in (
        ("(m1,m2) k", ds.conflict_k(m1, m2)),
        ("(m1,m2) k_r", ds.conflict_kr(m1, m2)),
        ("(m3,m4) k", ds.conflict_k(m3, m4)),
        ("(m3,m4) k_r", ds.conflict_kr(m3, m4)),
    ):
        if abs(got - 1.0) > 1e-12:
            problems.append(f"{name}: got {got!r}, want 1.0 within 1e-12")

    d12 = ds.jousselme_distance(m1, m2)
    if abs(d12 - 0.7071) > 5e-5:
        problems.append(f"(m1,m2) d_bba: got {d12!r}, reference 0.7071")
    d34 = ds.jousselme_distance(m3, m4)
    if abs(d34 - 0.5774) > 5e-5:
        problems.append(f"(m3,m4) d_bba: got {d34!r}, reference 0.5774")

    # cor is frame-sensitive (it sums over every nonempty subset of the
    # frame, not just focal elements); the reference value for (m1, m2)
    # corresponds to the four-hypothesis frame spanned by the two BPAs.
    span = ds.make_frame(["A1", "A2", "A3", "A4"])
    s1 = ds.make_bpa(span, [(["A1"], 0.5), (["A2"], 0.5)])
    s2 = ds.make_bpa(span, [(["A3"], 0.5), (["A4"], 0.5)])
    cor12 = ds.song_cor(s1, s2)
    if abs(cor12 - 0.3990) > 5e-5:
        problems.append(f"(m1,m2) cor: got {cor12!r}, reference 0.3990")
    cor34 = ds.song_cor(m3, m4)
    if abs(cor34 - 0.5606) > 5e-5:
        problems.append(f"(m3,m4) cor: got {cor34!r}, reference 0.5606")
    _verdict(3, problems)


# --------------------------------------------------------------------------
# 4. Identical uniform Bayesian BPAs: zero conflict for k_r, high k


def test_acceptance_4_example3():
    doc = _example("example3.json")
    m1, m2 = doc.bpa("m1"), doc.bpa("m2")

    problems = []
    k_r = ds.conflict_kr(m1, m2)
    if abs(k_r) > 1e-12:
        problems.append(f"k_r: got {k_r!r}, want 0 within 1e-12")
    d = ds.jousselme_distance(m1, m2)
    if abs(d) > 1e-12:
        problems.append(f"d_bba: got {d!r}, want 0 within 1e-12")
    cor = ds.song_cor(m1, m2)
    if abs(cor - 1.0) > 1e-12:
        problems.append(f"cor: got {cor!r}, want 1 within 1e-12")
    k = ds.conflict_k(m1, m2)
    if abs(k - 0.8) > 1e-12:
        problems.append(f"k: got {k!r}, want 0.8 within 1e-12")
    _verdict(4, problems)


# --------------------------------------------------------------------------
# 5. Moving-subset sweep at N = 20 against the reference table.
#
# Reference columns as printed (4 decimals), with one erratum corrected:
#   * the printed k_r column disagrees with exact evaluation by up to ~4e-3
#     (e.g. row {1}: exact 0.7363..., printed 0.7348), hence the 5e-3 band;
#     REFERENCE_KR is kept exactly as printed.  The column is the exact k_r
#     of a different input, with m1's 0.1 on Theta minus {10} instead of on
#     Theta, rounded to 4 decimals on all 20 rows (_exact_sweep_kr and the
#     two test_sweep_kr_* checks below);
#   * the d_bba column is the exact distance rounded to 4 decimals on every
#     row but {1,2}.  That row is exactly sqrt(943/2000) = 0.686658576...,
#     which rounds to 0.6867; the table prints 0.6866, its truncation.  The
#     rest of the column is rounded, not truncated: on the 8 other rows where
#     the two differ, the table follows rounding (e.g. {1,2,3,4} is exactly
#     sqrt(359/2000) = 0.423674..., printed 0.4237, truncation 0.4236).  So
#     REFERENCE_D holds the rounded 0.6867 for {1,2}, and the misprint is
#     kept below as PRINTED_D_12.  The test recomputes every row's d_bba**2
#     as a Fraction from the Jaccard definition (_exact_sweep_d2) and checks
#     both that each REFERENCE_D entry is its correct rounding and that the
#     program's d_bba is within 1e-12 of its square root.

REFERENCE_KR = (
    0.7348, 0.5483, 0.3690, 0.1964, 0.0094,
    0.1639, 0.2808, 0.3637, 0.4288, 0.4770,
    0.5202, 0.5565, 0.5872, 0.6137, 0.6367,
    0.6569, 0.6748, 0.6907, 0.7050, 0.7178,
)
REFERENCE_D = (
    0.7858, 0.6867, 0.5705, 0.4237, 0.1323,
    0.3884, 0.5029, 0.5705, 0.6187, 0.6554,
    0.6844, 0.7082, 0.7281, 0.7451, 0.7599,
    0.7730, 0.7846, 0.7951, 0.8046, 0.8133,
)

#: The published d_bba for {1,2}: sqrt(943/2000) truncated, not rounded.
PRINTED_D_12 = 0.6866

#: Half a unit in the fourth decimal: the rounding error of a table entry.
HALF_UNIT_4DP = Fraction(1, 20000)


def _exact_sweep_d2(size: int = 20) -> list[Fraction]:
    """d_bba**2 of every sweep row, exactly, from the Jaccard definition.

    d_bba**2 = (1/2) * sum over A, B of delta(A) delta(B) |A & B| / |A | B|,
    where delta = m1 - m2.  m1 puts 1/20 on {2,3,4}, 1/20 on {7}, 1/10 on
    the frame and 4/5 on the moving prefix {1..upto} (the prefix merges with
    the frame at upto = size); m2 is categorical on {1,2,3,4,5}.
    """
    theta = frozenset(range(1, size + 1))
    squares = []
    for upto in range(1, size + 1):
        delta: dict[frozenset[int], Fraction] = {}
        for focal, mass in (
            (frozenset({2, 3, 4}), Fraction(1, 20)),
            (frozenset({7}), Fraction(1, 20)),
            (theta, Fraction(1, 10)),
            (frozenset(range(1, upto + 1)), Fraction(4, 5)),
            (frozenset(range(1, 6)), Fraction(-1)),
        ):
            delta[focal] = delta.get(focal, Fraction(0)) + mass
        squares.append(_jaccard_form(delta, delta) / 2)
    return squares


def _jaccard_form(p: dict, q: dict) -> Fraction:
    """sum over A, B of p(A) q(B) |A & B| / |A | B|, exactly."""
    return sum(
        a * b * Fraction(len(x & y), len(x | y))
        for x, a in p.items()
        for y, b in q.items()
    )


def _exact_sweep_kr(theta: frozenset[int]) -> list[Decimal]:
    """k_r = 1 - c12 / sqrt(c11 * c22) of every N = 20 sweep row, with m1's
    1/10 on ``theta`` instead of on the frame.

    The c's are exact ``Fraction``s; only the square root and the division
    are ``Decimal``, at 40 digits, far below the 5e-5 a rounding check needs.
    """
    m2 = {frozenset(range(1, 6)): Fraction(1)}
    values = []
    for upto in range(1, 21):
        m1: dict[frozenset[int], Fraction] = {}
        for focal, mass in (
            (frozenset({2, 3, 4}), Fraction(1, 20)),
            (frozenset({7}), Fraction(1, 20)),
            (theta, Fraction(1, 10)),
            (frozenset(range(1, upto + 1)), Fraction(4, 5)),
        ):
            m1[focal] = m1.get(focal, Fraction(0)) + mass
        c12 = _jaccard_form(m1, m2)
        c11_c22 = _jaccard_form(m1, m1) * _jaccard_form(m2, m2)
        with localcontext() as ctx:
            ctx.prec = 40
            root = (Decimal(c11_c22.numerator) / c11_c22.denominator).sqrt()
            values.append(1 - Decimal(c12.numerator) / c12.denominator / root)
    return values


def _kr_rows_off_reference(values: list[Decimal]) -> list[int]:
    """Rows whose REFERENCE_KR entry is not ``values``' 4-decimal rounding."""
    half_unit = Decimal(1) / 20000
    return [
        i for i, (value, ref) in enumerate(zip(values, REFERENCE_KR))
        if not abs(value - Decimal(str(ref))) < half_unit
    ]


def _sqrt_within(square: Fraction, centre: Fraction, tol: Fraction) -> bool:
    """Whether |sqrt(square) - centre| < tol, decided exactly on squares."""
    low = centre - tol
    return (low < 0 or low * low < square) and square < (centre + tol) ** 2


def test_acceptance_5_sweep():
    ds.sweep_rows(20)  # warm-up
    start = time.perf_counter()
    rows = ds.sweep_rows(20)
    elapsed = time.perf_counter() - start

    problems = []
    if len(rows) != 20:
        problems.append(f"row count: got {len(rows)}, want 20")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.3f} s, budget 1 s")

    exact_d2 = _exact_sweep_d2(20)
    # Truncated but not rounded: sqrt lies in [printed + 5e-5, printed + 1e-4).
    printed = Fraction(str(PRINTED_D_12))
    if not (
        exact_d2[1] == Fraction(943, 2000)
        and (printed + HALF_UNIT_4DP) ** 2 <= exact_d2[1]
        < (printed + 2 * HALF_UNIT_4DP) ** 2
    ):
        problems.append(
            f"erratum: printed {{1,2}} d_bba {PRINTED_D_12} is not the "
            f"truncation of sqrt(943/2000) (exact d_bba**2 {exact_d2[1]})"
        )

    for row, kr_ref, d_ref, d2 in zip(rows, REFERENCE_KR, REFERENCE_D, exact_d2):
        if not _sqrt_within(d2, Fraction(str(d_ref)), HALF_UNIT_4DP):
            problems.append(
                f"{row.label} reference d_bba {d_ref} is not sqrt({d2}) "
                f"rounded to 4 decimals"
            )
        if not _sqrt_within(d2, Fraction(row.d_bba), Fraction(1, 10**12)):
            problems.append(
                f"{row.label} d_bba: got {row.d_bba!r}, more than 1e-12 from "
                f"the exact sqrt({d2})"
            )
        if row.k != 0.05:
            problems.append(f"{row.label} k: got {row.k!r}, want exactly 0.05")
        if abs(row.d_bba - d_ref) > 5e-5:
            problems.append(
                f"{row.label} d_bba: got {row.d_bba!r}, reference {d_ref}, "
                f"|diff| {abs(row.d_bba - d_ref):.4e} > 5e-5"
            )
        if abs(row.k_r - kr_ref) > 5e-3:
            problems.append(
                f"{row.label} k_r: got {row.k_r!r}, reference {kr_ref}, "
                f"|diff| {abs(row.k_r - kr_ref):.4e} > 5e-3"
            )

    kr_column = [row.k_r for row in rows]
    d_column = [row.d_bba for row in rows]
    for name, column in (("k_r", kr_column), ("d_bba", d_column)):
        argmin = column.index(min(column))
        if argmin != 4:
            problems.append(f"{name} minimum at row {rows[argmin].label}, want {{1,2,3,4,5}}")
        if not all(column[i] > column[i + 1] for i in range(4)):
            problems.append(f"{name} not strictly decreasing towards the minimum")
        if not all(column[i] < column[i + 1] for i in range(4, 19)):
            problems.append(f"{name} not strictly increasing past the minimum")
    _verdict(5, problems)


def test_sweep_kr_reference_is_rounded_theta_minus_10():
    # Erratum: the printed k_r column is the exact k_r of an input whose
    # "Theta" mass sits on Theta minus {10}, rounded to 4 decimals.
    off = _kr_rows_off_reference(_exact_sweep_kr(frozenset(range(1, 21)) - {10}))
    assert off == []


def test_sweep_kr_full_theta_misses_reference():
    # Negative control: the input the text defines, m1's 1/10 on the whole
    # frame, is not what the column rounds, at {1} and {1..10} among others.
    off = _kr_rows_off_reference(_exact_sweep_kr(frozenset(range(1, 21))))
    assert {0, 9} <= set(off)


# --------------------------------------------------------------------------
# 6. Randomized property suite, >= 1000 instances per property


def _check_r_symmetry_and_bounds(rng: random.Random) -> list[str]:
    for i in range(1000):
        m1, m2 = random_pair(rng)
        r12 = ds.correlation_coefficient(m1, m2)
        r21 = ds.correlation_coefficient(m2, m1)
        if abs(r12 - r21) > 1e-12:
            return [f"r symmetry broken at instance {i}: {r12!r} vs {r21!r}"]
        if not 0.0 <= r12 <= 1.0:
            return [f"r out of [0,1] at instance {i}: {r12!r}"]
    return []


def _check_r_identity(rng: random.Random) -> list[str]:
    problems = []
    for i in range(1000):
        m = random_bpa(rng, random_frame(rng))
        r = ds.correlation_coefficient(m, m)
        if abs(r - 1.0) > 1e-12:
            problems.append(f"r(m,m) != 1 at instance {i}: {r!r}")
            break
    # converse: BPAs that differ by more than 1e-9 in some coordinate must
    # correlate strictly below 1
    checked = 0
    while checked < 1000:
        m1, m2 = random_pair(rng)
        if ds.bpa_equal(m1, m2, tol=1e-9):
            continue
        checked += 1
        r = ds.correlation_coefficient(m1, m2)
        if not r < 1.0:
            problems.append(f"r not strict for distinct pair: {r!r}")
            break
    return problems


def _check_r_disjointness(rng: random.Random) -> list[str]:
    for i in range(1000):
        m1, m2 = random_disjoint_pair(rng)
        r = ds.correlation_coefficient(m1, m2)
        if r != 0.0:
            return [f"disjoint supports gave r = {r!r} at instance {i}"]
    for i in range(1000):
        m1, m2 = random_pair(rng)
        r = ds.correlation_coefficient(m1, m2)
        disjoint = _support(m1) & _support(m2) == 0
        if (r == 0.0) != disjoint:
            return [f"r = {r!r} vs disjoint = {disjoint} at instance {i}"]
    return []


def _check_sparse_vs_dense(rng: random.Random) -> list[str]:
    for i in range(1000):
        m1, m2 = random_pair(rng)
        pairs = (("c12", m1, m2), ("c11", m1, m1), ("c22", m2, m2))
        for name, a, b in pairs:
            sparse = ds.correlation_degree(a, b)
            dense = oracles.correlation_degree(a, b)
            if abs(sparse - dense) > 1e-12:
                return [f"{name} sparse {sparse!r} vs dense {dense!r} at instance {i}"]
    return []


def _check_dif_betp_brute(rng: random.Random) -> list[str]:
    for i in range(1000):
        m1, m2 = random_pair(rng, max_size=10)
        fast = ds.dif_betp(m1, m2)
        brute = oracles.dif_betp_brute(m1, m2)
        if abs(fast - brute) > 1e-12:
            return [f"difBetP {fast!r} vs brute-force {brute!r} at instance {i}"]
    return []


def _check_dempster_laws(rng: random.Random) -> list[str]:
    problems = []
    for i in range(1000):
        m1, m2 = random_pair(rng)
        try:
            forward = ds.combine_dempster(m1, m2)
        except ds.TotalConflictError:
            try:
                ds.combine_dempster(m2, m1)
                problems.append(f"total conflict not commutative at instance {i}")
                break
            except ds.TotalConflictError:
                continue
        backward = ds.combine_dempster(m2, m1)
        if forward.k != backward.k or not ds.bpa_equal(
            forward.combined, backward.combined, tol=1e-12
        ):
            problems.append(f"combination not commutative at instance {i}")
            break

    checked = 0
    while checked < 1000:
        frame = random_frame(rng)
        m1, m2, m3 = (random_bpa(rng, frame) for _ in range(3))
        try:
            left = ds.combine_dempster(ds.combine_dempster(m1, m2).combined, m3)
            right = ds.combine_dempster(m1, ds.combine_dempster(m2, m3).combined)
        except ds.TotalConflictError:
            continue
        checked += 1
        if not ds.bpa_equal(left.combined, right.combined, tol=1e-9):
            problems.append("combination not associative within 1e-9")
            break

    for i in range(1000):
        frame = random_frame(rng)
        m = random_bpa(rng, frame)
        vac = ds.vacuous_bpa(frame)
        for result in (ds.combine_dempster(m, vac), ds.combine_dempster(vac, m)):
            if result.k != 0.0 or not ds.bpa_equal(result.combined, m, tol=1e-12):
                problems.append(f"vacuous BPA not neutral at instance {i}")
                break
        else:
            continue
        break
    return problems


def _check_jousselme_metric(rng: random.Random) -> list[str]:
    for i in range(1000):
        frame = random_frame(rng, max_size=6)
        a, b, c = (random_bpa(rng, frame) for _ in range(3))
        d_ab = ds.jousselme_distance(a, b)
        if d_ab < 0.0:
            return [f"negative distance at instance {i}"]
        if abs(ds.jousselme_distance(a, a)) > 1e-9:
            return [f"d(a,a) != 0 at instance {i}"]
        if abs(d_ab - ds.jousselme_distance(b, a)) > 1e-9:
            return [f"distance asymmetric at instance {i}"]
        if d_ab > ds.jousselme_distance(a, c) + ds.jousselme_distance(c, b) + 1e-9:
            return [f"triangle inequality broken at instance {i}"]
    return []


def _check_gram_positive_definite() -> list[str]:
    problems = []
    for n in range(1, 9):
        frame = ds.make_frame(LABEL_POOL[:n])
        if not ds.gram_positive_definite(frame):
            problems.append(f"Gram matrix not positive definite at n={n}")
        smallest = oracles.gram_min_eigenvalue(n)
        if not smallest > 0.0:
            problems.append(f"oracle eigenvalue {smallest!r} at n={n}")
    return problems


def test_acceptance_6_properties():
    rng = random.Random(SEED)
    problems = []
    problems += _check_r_symmetry_and_bounds(rng)
    problems += _check_r_identity(rng)
    problems += _check_r_disjointness(rng)
    problems += _check_sparse_vs_dense(rng)
    problems += _check_dif_betp_brute(rng)
    problems += _check_dempster_laws(rng)
    problems += _check_jousselme_metric(rng)
    problems += _check_gram_positive_definite()
    _verdict(6, problems)


# --------------------------------------------------------------------------
# 7. CLI contract: examples and sweep exit 0, malformed documents exit 2
#    with a positioned message


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dsconflict", *args],
        capture_output=True,
        text=True,
    )


def test_acceptance_7_cli(tmp_path):
    problems = []
    good_runs = (
        ("example1.json", "m1", "m2"),
        ("example2.json", "m1", "m2"),
        ("example2.json", "m3", "m4"),
        ("example3.json", "m1", "m2"),
    )
    for name, first, second in good_runs:
        result = _run_cli(
            "measure", "--input", str(DATA / name), "--pair", first, second
        )
        if result.returncode != 0:
            problems.append(
                f"measure {name} ({first},{second}) exited {result.returncode}: "
                f"{result.stderr.strip()}"
            )
    result = _run_cli("sweep")
    if result.returncode != 0:
        problems.append(f"sweep exited {result.returncode}")

    malformed = (
        (
            "bad sum",
            '{"frame": ["A1", "A2"], "bpas": [{"name": "m", "masses": ['
            '{"set": ["A1"], "mass": 0.6}, {"set": ["A2"], "mass": 0.6}]}]}',
            "bpas[0].masses",
        ),
        (
            "unknown label",
            '{"frame": ["A1", "A2"], "bpas": [{"name": "m", "masses": ['
            '{"set": ["A9"], "mass": 1.0}]}]}',
            "bpas[0].masses[0].set",
        ),
        (
            "empty-set mass",
            '{"frame": ["A1", "A2"], "bpas": [{"name": "m", "masses": ['
            '{"set": [], "mass": 0.5}, {"set": ["A1"], "mass": 0.5}]}]}',
            "bpas[0].masses[0].set",
        ),
    )
    for label, payload, position in malformed:
        path = tmp_path / "bad.json"
        path.write_text(payload)
        result = _run_cli("measure", "--input", str(path), "--pair", "m", "m")
        if result.returncode != 2:
            problems.append(f"{label}: exited {result.returncode}, want 2")
        elif position not in result.stderr:
            problems.append(
                f"{label}: no position {position!r} in {result.stderr.strip()!r}"
            )
    _verdict(7, problems)