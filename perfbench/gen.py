"""Seeded inputs: BPA pairs and the evidence document.

The shapes (frame sizes, focal counts, focal-set densities) are fixed grids, so
every seed costs the program about the same; the seed draws the focal sets
and the masses.  Every BPA puts some mass on the whole frame, so no pair is in
total conflict and no combination fails.
"""

from __future__ import annotations

import json
import random


def _grid(lo: float, hi: float, count: int, i: int) -> float:
    return lo + (hi - lo) * i / (count - 1)


def bpa(rng: random.Random, n: int, focal: int, density: float) -> dict[int, float]:
    """``focal`` distinct focal sets over ``n`` hypotheses, one of them the frame.

    Each other set takes every hypothesis with probability ``density``.
    """
    full = (1 << n) - 1
    masks = [full]
    seen = {0, full}
    while len(masks) < focal:
        mask = sum(1 << i for i in range(n) if rng.random() < density)
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    theta = 0.05 + 0.1 * rng.random()
    weights = [0.1 + rng.random() for _ in masks[1:]]
    total = sum(weights)
    return {full: theta, **{m: (1.0 - theta) * w / total for m, w in zip(masks[1:], weights)}}


#: pairs-wide: 13 pairs over 30..63 hypotheses, 100..200 focal sets per BPA,
#: sparse to dense focal sets so combined focal counts run from hundreds to ~1e4.
WIDE_PAIRS = 13


def wide_pairs(seed: int) -> list[tuple[int, dict, dict]]:
    rng = random.Random(f"pairs-wide:{seed}")
    pairs = []
    for i in range(WIDE_PAIRS):
        n = round(_grid(30, 63, WIDE_PAIRS, i))
        density = _grid(0.04, 0.2, WIDE_PAIRS, i)
        f1 = round(_grid(100, 200, WIDE_PAIRS, i))
        f2 = round(_grid(200, 100, WIDE_PAIRS, (i * 5) % WIDE_PAIRS))
        pairs.append((n, bpa(rng, n, f1, density), bpa(rng, n, f2, density)))
    return pairs


#: powerset: one pair per frame size 12..20, 5..30 focal sets per BPA.
POWERSET_FRAMES = range(12, 21)
#: and Gram checks at these frame sizes, once per round.
GRAM_SIZES = (11, 12)


def powerset_pairs(seed: int) -> list[tuple[int, dict, dict]]:
    rng = random.Random(f"powerset:{seed}")
    count = len(POWERSET_FRAMES)
    pairs = []
    for i, n in enumerate(POWERSET_FRAMES):
        f1 = round(_grid(5, 30, count, i))
        f2 = round(_grid(30, 5, count, (i * 4) % count))
        density = _grid(0.2, 0.5, count, (i * 2) % count)
        pairs.append((n, bpa(rng, n, f1, density), bpa(rng, n, f2, density)))
    return pairs


#: cli, the evidence file: 48 BPAs with 100..200 focal sets over 63 hypotheses.
EVIDENCE_FRAME = 63
EVIDENCE_BPAS = 48


def evidence_labels() -> list[str]:
    return [f"H{i:02d}" for i in range(1, EVIDENCE_FRAME + 1)]


def evidence(seed: int) -> dict[str, dict]:
    """Named BPAs of the evidence document, in document order."""
    rng = random.Random(f"cli-evidence:{seed}")
    return {
        f"m{i:02d}": bpa(
            rng,
            EVIDENCE_FRAME,
            round(_grid(100, 200, EVIDENCE_BPAS, (i * 7) % EVIDENCE_BPAS)),
            _grid(0.1, 0.4, EVIDENCE_BPAS, (i * 11) % EVIDENCE_BPAS),
        )
        for i in range(EVIDENCE_BPAS)
    }


def document_text(labels: list[str], bpas: dict[str, dict]) -> str:
    """The JSON document format read by ``dsconflict measure`` and ``combine``."""
    def members(mask: int) -> list[str]:
        return [label for i, label in enumerate(labels) if mask >> i & 1]

    return json.dumps({
        "frame": labels,
        "bpas": [
            {"name": name, "masses": [{"set": members(m), "mass": v} for m, v in bpa.items()]}
            for name, bpa in bpas.items()
        ],
    })
