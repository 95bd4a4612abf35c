"""Parametric list scheduling for heterogeneous DAG task graphs.

The package splits into the problem model (:mod:`listsched.model`), task
prioritization (:mod:`listsched.priority`), node-selection primitives
(:mod:`listsched.selection`), the 72-configuration parametric scheduler
(:mod:`listsched.scheduler`), random instance generation
(:mod:`listsched.datagen`) and the benchmarking/analysis harness
(:mod:`listsched.bench`).  Each module's ``__all__`` is its part of the
package API, and the package's ``__all__`` is theirs in that order.
"""

from .model import *
from .priority import *
from .selection import *
from .scheduler import *
from .datagen import *
from .bench import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__, *priority.__all__, *selection.__all__,
    *scheduler.__all__, *datagen.__all__, *bench.__all__,
]
