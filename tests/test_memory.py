"""Working memory of the focal-pair kernels, in blocks of 8 * |m1| * |m2|
bytes: one float64 (or uint64) array over every focal pair, and of document
decoding, in bytes of JSON text.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of
one call counts the block-sized arrays that it holds at once.  Each bound
is what the kernels reach on this pair plus half a block; holding one more
block-sized array than they need at any point fails it.
"""

import random
import tracemalloc

import pytest

import dsconflict as ds
from generators import LABEL_POOL

#: (call, bound in blocks)
BOUNDS = {
    "conflict_report": (lambda m1, m2: ds.conflict_report(m1, m2, 0.5), 3.65),
    "combine_dempster": (ds.combine_dempster, 6.0),
}


def dense_bpa(rng: random.Random, frame: ds.Frame, count: int) -> ds.MassFunction:
    """The whole frame and ``count - 1`` other distinct focal sets, each
    hypothesis in a set with probability 0.2."""
    masks = {frame.full_mask}
    while len(masks) < count:
        mask = sum(1 << i for i in range(frame.size) if rng.random() < 0.2)
        masks.add(mask or frame.full_mask)
    weights = [rng.randint(1, 99) for _ in masks]
    total = float(sum(weights))
    return ds.MassFunction(frame, {m: w / total for m, w in zip(masks, weights)})


@pytest.fixture(scope="module")
def dense_pair():
    rng = random.Random(19)
    frame = ds.make_frame(LABEL_POOL[:63])
    return dense_bpa(rng, frame, 200), dense_bpa(rng, frame, 133)


def peak_blocks(call, m1, m2) -> float:
    call(m1, m2)  # warm: first-call allocations are not the kernels'
    tracemalloc.start()
    try:
        call(m1, m2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * len(m1.focal) * len(m2.focal))


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_peak_within_bound(dense_pair, name):
    call, bound = BOUNDS[name]
    assert peak_blocks(call, *dense_pair) <= bound


def test_decode_peak_within_bound():
    """``loads`` holds one string object per distinct label, not one per
    occurrence: its peak on a dense document is about 3.3 times the text,
    and a string per occurrence reaches about 8.4."""
    rng = random.Random(21)
    frame = ds.make_frame(LABEL_POOL[:63])
    bpas = {f"m{i}": dense_bpa(rng, frame, 150) for i in range(8)}
    text = ds.dumps_document(ds.BpaDocument(frame, bpas))
    ds.loads_document(text)  # warm, as in peak_blocks
    tracemalloc.start()
    try:
        ds.loads_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)
