"""Golden record of Song's cor on seeded pairs.

Each record is ``[n, song_cor(m1, m2), song_cor(m2, m1),
conflict_report(m1, m2).cor]``, each float as ``float.hex`` (the report's
cor is null above ``SONG_COR_MAX_FRAME``), for the pairs of
:func:`generators.song_golden_pairs`.  ``tests/test_measures.py`` compares
the program against ``tests/data/song_cor_golden.json``.  Rewrite the file,
from the root of a checkout, only when a change moves cor on purpose::

    PYTHONPATH=src python tests/song_golden.py
"""

from __future__ import annotations

import json
import pathlib

import dsconflict as ds
from generators import song_golden_pairs

PATH = pathlib.Path(__file__).parent / "data" / "song_cor_golden.json"


def records() -> list[list]:
    out = []
    for m1, m2 in song_golden_pairs():
        cor = ds.conflict_report(m1, m2).cor
        out.append([
            m1.frame.size,
            ds.song_cor(m1, m2).hex(),
            ds.song_cor(m2, m1).hex(),
            None if cor is None else cor.hex(),
        ])
    return out


if __name__ == "__main__":
    text = ",\n".join(json.dumps(record) for record in records())
    PATH.write_text(f"[\n{text}\n]\n")
