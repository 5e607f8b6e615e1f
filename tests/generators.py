"""Seeded random frames and BPAs shared by the property and acceptance suites.

Masses are ratios of small integers so any two distinct generated BPAs differ
by a respectable margin (at least ~1/10000 in some coordinate), which keeps
strict-inequality properties far away from floating-point noise.
"""

from __future__ import annotations

import random

from dsconflict import Frame, MassFunction, make_frame

LABEL_POOL = tuple(f"h{i}" for i in range(1, 64))


def random_frame(rng: random.Random, min_size: int = 1, max_size: int = 8) -> Frame:
    return make_frame(LABEL_POOL[: rng.randint(min_size, max_size)])


def random_bpa(
    rng: random.Random, frame: Frame, max_focals: int = 5, min_focals: int = 1
) -> MassFunction:
    space = (1 << frame.size) - 1
    count = rng.randint(min(min_focals, space), min(max_focals, space))
    masks = rng.sample(range(1, space + 1), count)
    weights = [rng.randint(1, 99) for _ in masks]
    total = float(sum(weights))
    return MassFunction(frame, {m: w / total for m, w in zip(masks, weights)})


def random_pair(
    rng: random.Random,
    min_size: int = 1,
    max_size: int = 8,
    max_focals: int = 5,
) -> tuple[MassFunction, MassFunction]:
    frame = random_frame(rng, min_size, max_size)
    return random_bpa(rng, frame, max_focals), random_bpa(rng, frame, max_focals)


def song_golden_pairs(
    small: int = 300, wide: int = 10
) -> list[tuple[MassFunction, MassFunction]]:
    """The pairs of Song's golden record: ``small`` pairs over 1-24
    hypotheses with 2-30 focal sets each (fewer where the frame has fewer
    nonempty subsets), then ``wide`` pairs over 30-63 hypotheses with
    100-200 focal sets each."""
    rng = random.Random("song-golden")
    pairs = []
    for sizes, focals in [((1, 24), (2, 30))] * small + [((30, 63), (100, 200))] * wide:
        frame = random_frame(rng, *sizes)
        pairs.append(
            (
                random_bpa(rng, frame, focals[1], focals[0]),
                random_bpa(rng, frame, focals[1], focals[0]),
            )
        )
    return pairs


def submasks(region: int) -> list[int]:
    """All nonempty submasks of ``region``."""
    out = []
    sub = region
    while sub:
        out.append(sub)
        sub = (sub - 1) & region
    return out


def random_bpa_within(
    rng: random.Random, frame: Frame, region: int, max_focals: int = 4
) -> MassFunction:
    """A random BPA whose focal elements all sit inside ``region``."""
    pool = submasks(region)
    count = rng.randint(1, min(max_focals, len(pool)))
    masks = rng.sample(pool, count)
    weights = [rng.randint(1, 99) for _ in masks]
    total = float(sum(weights))
    return MassFunction(frame, {m: w / total for m, w in zip(masks, weights)})


def random_disjoint_pair(
    rng: random.Random,
    min_size: int = 2,
    max_size: int = 8,
    max_focals: int = 4,
) -> tuple[MassFunction, MassFunction]:
    """Two BPAs whose focal supports live in disjoint halves of the frame."""
    frame = random_frame(rng, min_size, max_size)
    cut = rng.randint(1, frame.size - 1)
    left = (1 << cut) - 1
    right = frame.full_mask ^ left
    return (
        random_bpa_within(rng, frame, left, max_focals),
        random_bpa_within(rng, frame, right, max_focals),
    )
