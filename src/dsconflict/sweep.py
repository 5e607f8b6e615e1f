"""A one-parameter conflict sweep on a 20-hypothesis frame.

One BPA keeps fixed components ({2,3,4} at 0.05, {7} at 0.05, the whole frame
at 0.1) while moving its dominant component (mass 0.8) through the growing
prefix subsets {1}, {1,2}, ..., Theta; the other is categorical on
{1,2,3,4,5}.  The interesting behaviour is how each conflict measure reacts
as the dominant component sweeps past the reference subset.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from .core import Frame, _numbered_frame, make_bpa
from .errors import ValidationError
from .fusion import conflict_k
from .measures import conflict_kr, jousselme_distance

__all__ = [
    "DEFAULT_FRAME_SIZE",
    "MIN_FRAME_SIZE",
    "SweepRow",
    "format_subset_label",
    "sweep_frame",
    "sweep_rows",
    "sweep_csv",
]

DEFAULT_FRAME_SIZE = 20

#: The fixed components reference label "7", so the frame cannot be smaller.
MIN_FRAME_SIZE = 7


@dataclass(frozen=True)
class SweepRow:
    """Measures for one position of the moving subset."""

    label: str
    size: int
    k_r: float
    d_bba: float
    k: float


def format_subset_label(members: Sequence[str]) -> str:
    """Render a subset, contracting runs of six or more members."""
    if len(members) >= 6:
        return f"{{{members[0]},{members[1]},...,{members[-1]}}}"
    return "{" + ",".join(members) + "}"


def sweep_frame(size: int = DEFAULT_FRAME_SIZE) -> Frame:
    """The sweep frame: hypotheses labelled "1" through ``str(size)``."""
    if size < MIN_FRAME_SIZE:
        raise ValidationError(
            f"the sweep needs a frame of at least {MIN_FRAME_SIZE} hypotheses, "
            f"got {size}"
        )
    return _numbered_frame(size)


def sweep_rows(size: int = DEFAULT_FRAME_SIZE) -> list[SweepRow]:
    """Evaluate k_r, d_bba and k for every prefix subset of the frame."""
    frame = sweep_frame(size)
    theta = frame.labels
    m2 = make_bpa(frame, [(("1", "2", "3", "4", "5"), 1.0)])
    fixed = [(("2", "3", "4"), 0.05), (("7",), 0.05), (theta, 0.1)]
    rows = []
    for upto in range(1, size + 1):
        prefix = theta[:upto]
        m1 = make_bpa(frame, fixed + [(prefix, 0.8)])
        rows.append(
            SweepRow(
                label=format_subset_label(prefix),
                size=upto,
                k_r=conflict_kr(m1, m2),
                d_bba=jousselme_distance(m1, m2),
                k=conflict_k(m1, m2),
            )
        )
    return rows


def sweep_csv(rows: Sequence[SweepRow], precision: int = 4) -> str:
    """Render sweep rows as CSV: full-precision columns plus rounded ones."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["A", "k_r", "d_bba", "k", "k_r_rounded", "d_bba_rounded", "k_rounded"]
    )
    for row in rows:
        values = (row.k_r, row.d_bba, row.k)
        writer.writerow(
            [row.label, *map(repr, values), *(f"{v:.{precision}f}" for v in values)]
        )
    return buffer.getvalue()
