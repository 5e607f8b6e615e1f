"""Dempster-Shafer belief functions: combination and conflict measurement.

The package models frames of discernment, sparse basic probability
assignments (BPAs), Dempster's rule, and a family of conflict/similarity
measures between BPA pairs: the classical conflict coefficient k, the
Jousselme distance, the pignistic probability distance difBetP, Liu's
two-dimensional conflict model, Song's cosine measure, and a Jaccard-weighted
correlation coefficient with its complementary conflict coefficient k_r.
"""

from .core import (
    MASS_SUM_ACCEPT_TOL,
    MASS_SUM_RENORMALIZE_TOL,
    MAX_FRAME_SIZE,
    Frame,
    MassFunction,
    SubsetMask,
    bpa_equal,
    make_bpa,
    make_frame,
    set_to_text,
    vacuous_bpa,
)
from .document import BpaDocument
from .document import dump as dump_document
from .document import dumps as dumps_document
from .document import load as load_document
from .document import loads as loads_document
from . import errors
from .errors import *  # noqa: F403  the exception hierarchy, errors.__all__
from .fusion import (
    TOTAL_CONFLICT_TOL,
    CombinationResult,
    combine_dempster,
    conflict_k,
)
from .measures import (
    GRAM_MAX_FRAME,
    SONG_COR_MAX_FRAME,
    ConflictReport,
    LiuConflict,
    PignisticDistribution,
    conflict_kr,
    conflict_report,
    correlation_coefficient,
    correlation_degree,
    dif_betp,
    gram_positive_definite,
    jaccard,
    jousselme_distance,
    liu_cf,
    pignistic,
    song_cor,
)
from .sweep import (
    DEFAULT_FRAME_SIZE,
    MIN_FRAME_SIZE,
    SweepRow,
    sweep_csv,
    sweep_frame,
    sweep_rows,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "MAX_FRAME_SIZE",
    "MASS_SUM_ACCEPT_TOL",
    "MASS_SUM_RENORMALIZE_TOL",
    "Frame",
    "MassFunction",
    "SubsetMask",
    "make_frame",
    "set_to_text",
    "make_bpa",
    "bpa_equal",
    "vacuous_bpa",
    # fusion
    "TOTAL_CONFLICT_TOL",
    "CombinationResult",
    "conflict_k",
    "combine_dempster",
    # measures
    "SONG_COR_MAX_FRAME",
    "GRAM_MAX_FRAME",
    "jaccard",
    "correlation_degree",
    "correlation_coefficient",
    "conflict_kr",
    "jousselme_distance",
    "PignisticDistribution",
    "pignistic",
    "dif_betp",
    "LiuConflict",
    "liu_cf",
    "song_cor",
    "gram_positive_definite",
    "ConflictReport",
    "conflict_report",
    # documents
    "BpaDocument",
    "load_document",
    "loads_document",
    "dump_document",
    "dumps_document",
    # sweep
    "DEFAULT_FRAME_SIZE",
    "MIN_FRAME_SIZE",
    "SweepRow",
    "sweep_frame",
    "sweep_rows",
    "sweep_csv",
    # errors
    *errors.__all__,
]
