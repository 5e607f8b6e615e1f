"""Working memory of the focal-pair kernels, in blocks of 8 * |m1| * |m2|
bytes: one float64 (or uint64) array over every focal pair, of the build of
Song's table of S, and of document decoding and encoding, in bytes of JSON
text.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of
one call counts the block-sized arrays that it holds at once.  Each bound
is what the kernels reach on this pair plus half a block; holding one more
block-sized array than they need at any point fails it.
"""

import random
import tracemalloc

import pytest

import dsconflict as ds
from dsconflict.measures import _song_table, _song_tables
from generators import LABEL_POOL

#: (call, bound in blocks)
BOUNDS = {
    "conflict_report": (lambda m1, m2: ds.conflict_report(m1, m2, 0.5), 3.65),
    "combine_dempster": (ds.combine_dempster, 6.0),
    # with the frame size's table of S built by the warm call
    "song_cor": (ds.song_cor, 14.6),
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


def test_song_table_build_within_bound():
    """The table of Song's S for the largest frame is built in chunks of
    signatures: its build peaks at about 5.3 MB traced, against 49 MB for
    one pass over all 23,408 signatures, and it keeps about 0.3 MB with
    the binomial and term tables it is built from."""
    _song_table.cache_clear()
    _song_tables.cache_clear()
    tracemalloc.start()
    try:
        _song_table(63)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20
    assert retained <= 1 << 19


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
