"""deuce — exact probability analysis of tennis scoring systems.

Win probabilities at every level of the point -> game -> set -> match
hierarchy, full distributions and moments of match duration in points,
best-of-K comparison systems, prior-weighted efficiency functionals, and a
seeded Monte-Carlo oracle that replays the exact rules point by point.

Each layer module's ``__all__`` is its public surface, stated once there;
the package re-exports every one of them except :mod:`deuce.efficiency`'s,
which is imported as ``deuce.efficiency``.
"""

from .bestof import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .game import *  # noqa: F401,F403
from .match import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .sets import *  # noqa: F401,F403

__version__ = "0.1.0"
