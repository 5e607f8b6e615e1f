"""Reference computations and output checks, written apart from dsconflict.

A BPA here is a plain ``dict`` from subset bit mask to mass, and a frame is
just its size ``n``.  Every formula is evaluated directly from its definition
over focal elements (or, for Song's cor, over the whole power set), sharing no
code with the program.  Each ``check_*`` function raises :class:`CheckFailed`
with a message when a program output disagrees with the reference or breaks a
property; tolerances are far below the perturbations the tests feed in.
"""

from __future__ import annotations

import csv
import io
import json
import math

#: Values in [0, 1] computed two ways must agree this closely.
TOL = 1e-10
#: Exact identities (k_r = 1 - r_bpa, symmetry, d(m, m) = 0) hold this closely.
EXACT_TOL = 1e-12
#: Combined masses must sum to 1 this closely.
SUM_TOL = 1e-9
#: Dense Song's cor and the dense Gram Cholesky are run up to these sizes.
DENSE_SONG_MAX = 14
DENSE_GRAM_MAX = 5

MEASURES = ("k", "d_bba", "dif_betp", "r_bpa", "k_r")


class CheckFailed(AssertionError):
    """A program output disagrees with the reference or breaks a property."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _jaccard(a: int, b: int) -> float:
    inter = bin(a & b).count("1")
    return inter / bin(a | b).count("1") if inter else 0.0


def conflict_k(m1: dict, m2: dict) -> float:
    return math.fsum(v1 * v2 for a, v1 in m1.items() for b, v2 in m2.items() if not a & b)


def dempster(m1: dict, m2: dict) -> tuple[dict, float]:
    """Dempster's rule: (combined masses, k)."""
    groups: dict[int, list[float]] = {}
    for a, v1 in m1.items():
        for b, v2 in m2.items():
            groups.setdefault(a & b, []).append(v1 * v2)
    k = math.fsum(groups.pop(0, []))
    return {mask: math.fsum(vs) / (1.0 - k) for mask, vs in groups.items()}, k


def pignistic(m: dict, n: int) -> list[float]:
    columns: list[list[float]] = [[] for _ in range(n)]
    for mask, value in m.items():
        share = value / bin(mask).count("1")
        for i in range(n):
            if mask >> i & 1:
                columns[i].append(share)
    return [math.fsum(c) for c in columns]


def dif_betp(m1: dict, m2: dict, n: int) -> float:
    """Half the L1 distance of the pignistic distributions (both sum to 1)."""
    p1, p2 = pignistic(m1, n), pignistic(m2, n)
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(p1, p2))


def _jaccard_terms(m1: dict, m2: dict) -> list[float]:
    return [v1 * v2 * _jaccard(a, b) for a, v1 in m1.items() for b, v2 in m2.items()]


def measures(m1: dict, m2: dict, n: int) -> dict[str, float]:
    """k, d_BBA, difBetP, r_BPA and k_r of one pair."""
    t11, t22, t12 = _jaccard_terms(m1, m1), _jaccard_terms(m2, m2), _jaccard_terms(m1, m2)
    c11, c22, c12 = math.fsum(t11), math.fsum(t22), math.fsum(t12)
    # d_BBA^2 = (x - y)' D (x - y) / 2 = (c11 + c22 - 2 c12) / 2, summed in one fsum.
    quad = math.fsum(t11 + t22 + [-2.0 * t for t in t12])
    r = c12 / math.sqrt(c11 * c22)
    return {
        "k": conflict_k(m1, m2),
        "d_bba": math.sqrt(max(quad, 0.0) / 2.0),
        "dif_betp": dif_betp(m1, m2, n),
        "r_bpa": r,
        "k_r": 1.0 - r,
    }


def _smoothed(focal: list[tuple[int, float, int]], b: int, cb: int) -> float:
    total = 0.0
    for a, value, ca in focal:
        inter = bin(a & b).count("1")
        if inter:
            total += value * inter / (ca + cb - inter)
    return total


def song_cor_dense(m1: dict, m2: dict, n: int) -> float:
    """Cosine of the Jaccard-smoothed vectors over every nonempty subset."""
    focal1 = [(a, v, bin(a).count("1")) for a, v in m1.items()]
    focal2 = [(a, v, bin(a).count("1")) for a, v in m2.items()]
    s11, s12, s22 = [], [], []
    for b in range(1, 1 << n):
        cb = bin(b).count("1")
        f1, f2 = _smoothed(focal1, b, cb), _smoothed(focal2, b, cb)
        s11.append(f1 * f1)
        s12.append(f1 * f2)
        s22.append(f2 * f2)
    return math.fsum(s12) / math.sqrt(math.fsum(s11) * math.fsum(s22))


def jaccard_gram_is_pd(n: int) -> bool:
    """Cholesky of the dense Jaccard Gram matrix, in plain Python."""
    size = (1 << n) - 1
    gram = [[_jaccard(i, j) for j in range(1, size + 1)] for i in range(1, size + 1)]
    low = [[0.0] * size for _ in range(size)]
    for j in range(size):
        pivot = gram[j][j] - math.fsum(low[j][p] ** 2 for p in range(j))
        if pivot <= 1e-12:
            return False
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, size):
            low[i][j] = (gram[i][j] - math.fsum(low[i][p] * low[j][p] for p in range(j))) / low[j][j]
    return True


# -- checks -----------------------------------------------------------------


def _close(name: str, got: float, want: float, tol: float = TOL) -> None:
    _require(abs(got - want) <= tol, f"{name} = {got!r}, reference {want!r}")


def check_report(report: dict, m1: dict, m2: dict, n: int, epsilon: float | None = None,
                 cor: float | None = None) -> None:
    """A report (``k, d_bba, dif_betp, cor, r_bpa, k_r, liu``) against the reference.

    ``cor`` is the dense reference value when the frame is small enough.
    """
    want = measures(m1, m2, n)
    for name in MEASURES:
        value = report[name]
        _require(0.0 <= value <= 1.0, f"{name} = {value!r} is outside [0, 1]")
        _close(name, value, want[name])
    _close("k_r + r_bpa", report["k_r"] + report["r_bpa"], 1.0, EXACT_TOL)
    got_cor = report["cor"]
    if got_cor is not None:
        _require(0.0 <= got_cor <= 1.0, f"cor = {got_cor!r} is outside [0, 1]")
    if cor is not None:
        _require(got_cor is not None, "cor is missing on a small frame")
        _close("cor", got_cor, cor)
    liu = report["liu"]
    if epsilon is None:
        _require(liu is None, "liu present without a threshold")
    else:
        _require(liu is not None, "liu missing although a threshold was given")
        _require(
            liu == (want["k"] > epsilon and want["dif_betp"] > epsilon),
            f"liu verdict {liu!r} disagrees with k and difBetP at epsilon {epsilon}",
        )


def check_symmetric(r12: dict, r21: dict) -> None:
    for name in MEASURES + ("cor",):
        a, b = r12[name], r21[name]
        if a is None or b is None:
            _require(a is b, f"{name} is None on one side only")
        else:
            _close(f"{name} symmetry", a, b, EXACT_TOL)


def check_self(report: dict) -> None:
    """Measures of a BPA against itself: d = 0, r = 1, k_r = 0."""
    _close("d(m, m)", report["d_bba"], 0.0, EXACT_TOL)
    _close("r(m, m)", report["r_bpa"], 1.0, EXACT_TOL)
    _close("k_r(m, m)", report["k_r"], 0.0, EXACT_TOL)


def check_combination(combined: dict, m1: dict, m2: dict, k: float | None = None) -> None:
    want, want_k = dempster(m1, m2)
    if k is not None:
        _close("combination k", k, want_k)
    _require(set(combined) == set(want), "combined focal elements differ from the reference")
    for mask, value in want.items():
        _close(f"combined mass on {mask:#x}", combined[mask], value, EXACT_TOL)
    _close("combined mass sum", math.fsum(combined.values()), 1.0, SUM_TOL)


def check_gram(verdict: bool, n: int) -> None:
    """The Jaccard kernel is positive definite, so every Gram matrix is too."""
    if n <= DENSE_GRAM_MAX:
        _require(jaccard_gram_is_pd(n), f"reference Cholesky failed at n = {n}")
    _require(verdict is True, f"Gram matrix at n = {n} reported {verdict!r}")


# -- CLI output -------------------------------------------------------------

_ROWS = MEASURES + ("cor",)


def parse_measure_text(text: str) -> dict:
    """The ``measure`` rendering back into a report dict (``liu`` as a bool)."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0].startswith("pair ("), f"unexpected output {text!r}")
    report: dict = {"liu": None}
    for line in lines[1:]:
        label, _, value = line.partition(" ")
        value = value.strip()
        if label == "liu":
            report["liu"] = value.startswith("in conflict")
        elif label in _ROWS:
            report[label] = None if value.startswith("n/a") else float(value)
        else:
            raise CheckFailed(f"unexpected row {line!r}")
    _require(set(_ROWS) <= set(report), f"rows missing in {text!r}")
    return report


def check_measure_text(text: str, m1: dict, m2: dict, n: int, precision: int,
                       epsilon: float | None = None) -> None:
    """Rendered values agree with the reference to the rendered precision."""
    report = parse_measure_text(text)
    want = measures(m1, m2, n)
    tol = 0.5 * 10.0 ** -precision + EXACT_TOL
    for name in MEASURES:
        _close(name, report[name], want[name], tol)
    if report["cor"] is not None:
        _require(0.0 <= report["cor"] <= 1.0, f"cor = {report['cor']!r} is outside [0, 1]")
        if n <= DENSE_SONG_MAX:
            _close("cor", report["cor"], song_cor_dense(m1, m2, n), tol)
    if epsilon is None:
        _require(report["liu"] is None, "liu present without a threshold")
    else:
        _require(report["liu"] == (want["k"] > epsilon and want["dif_betp"] > epsilon),
                 "liu verdict disagrees with k and difBetP")


def read_document(text: str) -> tuple[list[str], dict[str, dict]]:
    """A BPA document as (labels, name -> {mask: mass}), parsed with json alone."""
    payload = json.loads(text)
    labels = payload["frame"]
    index = {label: i for i, label in enumerate(labels)}
    bpas = {}
    for entry in payload["bpas"]:
        masses: dict[int, float] = {}
        for item in entry["masses"]:
            mask = sum(1 << index[label] for label in item["set"])
            masses[mask] = masses.get(mask, 0.0) + float(item["mass"])
        bpas[entry["name"]] = masses
    return labels, bpas


def check_combined_document(text: str, labels: list[str], name: str, m1: dict,
                            m2: dict) -> None:
    got_labels, bpas = read_document(text)
    _require(got_labels == labels, "combined document has another frame")
    _require(list(bpas) == [name], f"combined document holds {list(bpas)}, not [{name!r}]")
    check_combination(bpas[name], m1, m2)


def check_combine_note(text: str, m1: dict, m2: dict, precision: int) -> float:
    """The ``k = ...`` line of ``combine``; returns the printed k."""
    first = text.splitlines()[0] if text else ""
    _require(first.startswith("k = "), f"unexpected combine output {text!r}")
    k = float(first[4:])
    _close("printed k", k, conflict_k(m1, m2), 0.5 * 10.0 ** -precision + EXACT_TOL)
    return k


def sweep_pair(n: int, upto: int) -> tuple[dict, dict]:
    """The sweep's BPA pair for the prefix {1..upto}, built by hand."""
    bit = lambda *labels: sum(1 << (label - 1) for label in labels)  # noqa: E731
    m1: dict[int, float] = {}
    for mask, value in ((bit(2, 3, 4), 0.05), (bit(7), 0.05), ((1 << n) - 1, 0.1),
                        (bit(*range(1, upto + 1)), 0.8)):
        m1[mask] = m1.get(mask, 0.0) + value
    return m1, {bit(1, 2, 3, 4, 5): 1.0}


def check_sweep_csv(text: str, n: int) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0][:4] == ["A", "k_r", "d_bba", "k"], f"unexpected header {rows[0]}")
    _require(len(rows) == n + 1, f"{len(rows) - 1} rows, expected {n}")
    for upto, row in enumerate(rows[1:], start=1):
        m1, m2 = sweep_pair(n, upto)
        want = measures(m1, m2, n)
        _require(float(row[3]) == 0.05, f"row {upto}: k = {row[3]}, expected exactly 0.05")
        _close(f"row {upto} k_r", float(row[1]), want["k_r"])
        _close(f"row {upto} d_bba", float(row[2]), want["d_bba"])


def check_gram_text(text: str, n: int) -> None:
    size = (1 << n) - 1
    verdict = text == f"{size}×{size}: positive definite\n"
    _require(verdict or "NOT" in text, f"unexpected gram-check output {text!r}")
    check_gram(verdict, n)


#: Example 1 as documented: m1 = {A1,A2}: 0.9, {A3}: 0.1; m2 = {A3}: 0.1, {A4}: 0.9.
#: By hand only {A3} & {A3} survives, so k = 0.99 and the combination is {A3}: 1.
EXAMPLE1_MEASURE = {"k": 0.99, "d_bba": 0.9, "dif_betp": 0.9, "cor": 0.3668,
                    "r_bpa": 0.0122, "k_r": 0.9878}


def check_example1(measure_text: str | None, combined_text: str | None) -> None:
    """Example 1 against its documented figures and the hand combination."""
    if measure_text is not None:
        report = parse_measure_text(measure_text)
        for name, value in EXAMPLE1_MEASURE.items():
            _close(f"example 1 {name}", report[name], value, 0.5e-4 + EXACT_TOL)
    if combined_text is not None:
        _, bpas = read_document(combined_text)
        (combined,) = bpas.values()
        _require(set(combined) == {0b0100}, f"example 1 combines to {combined}, not {{A3}}")
        _close("example 1 mass on {A3}", combined[0b0100], 1.0, EXACT_TOL)
