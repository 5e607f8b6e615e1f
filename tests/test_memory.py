"""Working memory of the focal-pair kernels, in blocks of 8 * |m1| * |m2|
bytes: one float64 (or uint64) array over every focal pair, and of document
decoding and encoding, in bytes of JSON text.

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


@pytest.fixture(scope="module")
def dense_document():
    rng = random.Random(21)
    frame = ds.make_frame(LABEL_POOL[:63])
    bpas = {f"m{i}": dense_bpa(rng, frame, 150) for i in range(8)}
    document = ds.BpaDocument(frame, bpas)
    return document, ds.dumps_document(document)


def peak_bytes(call, arg) -> int:
    call(arg)  # warm, as in peak_blocks
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_peak_within_bound(dense_document):
    """``loads`` holds a record of label ids and a mass per entry, not a
    dict, a list and one string per label: its peak on a dense document is
    about 0.9 times the text, against 3.3 with a dict and a list per entry
    and 8.4 with a string per label occurrence."""
    _, text = dense_document
    assert peak_bytes(ds.loads_document, text) <= 2 * len(text)


def test_encode_peak_within_bound(dense_document):
    """``dumps`` writes each entry from label texts encoded once, with no
    dict or list per focal set: its peak is about 2 times its output text,
    against 12.8 through a payload of dicts and lists."""
    document, text = dense_document
    assert peak_bytes(ds.dumps_document, document) <= 4 * len(text)
