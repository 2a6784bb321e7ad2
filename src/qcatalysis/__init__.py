"""Feasibility and catalysis analysis for pure-state transformations.

Decides whether a specified pure-state transformation on a bipartite
system is physically realizable, whether it leaves the first party's
state untouched (catalysis), and whether the required interaction can
generate entanglement from a separable input (quantum catalysis), with
teleportation-based demonstrations of the entanglement cost.

Each module's ``__all__`` is its public list; the package republishes
all four.
"""

# the aliases read each module's list: ``from .teleport import *`` binds the
# function ``teleport`` over the submodule attribute of the same name
from . import analyzer as _analyzer, process as _process, states as _states, teleport as _teleport
from .analyzer import *  # noqa: F403
from .process import *  # noqa: F403
from .states import *  # noqa: F403
from .teleport import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(_analyzer.__all__ + _process.__all__ + _states.__all__ + _teleport.__all__)

del _analyzer, _process, _states, _teleport
