"""Dempster-Shafer belief functions: combination and conflict measurement.

The package models frames of discernment, sparse basic probability
assignments (BPAs), Dempster's rule, and a family of conflict/similarity
measures between BPA pairs: the classical conflict coefficient k, the
Jousselme distance, the pignistic probability distance difBetP, Liu's
two-dimensional conflict model, Song's cosine measure, and a Jaccard-weighted
correlation coefficient with its complementary conflict coefficient k_r.
"""

from . import core, errors, fusion, measures, sweep
from .core import *  # noqa: F403
from .document import BpaDocument
from .document import dump as dump_document
from .document import dumps as dumps_document
from .document import load as load_document
from .document import loads as loads_document
from .errors import *  # noqa: F403
from .fusion import *  # noqa: F403
from .measures import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

# each module lists its public names once, in its own __all__
__all__ = [
    "__version__",
    "BpaDocument",
    "load_document",
    "loads_document",
    "dump_document",
    "dumps_document",
    *core.__all__,
    *fusion.__all__,
    *measures.__all__,
    *sweep.__all__,
    *errors.__all__,
]
