"""Analysis toolkit for crosstalk-coupled nonlinear multi-branch transmitters.

Closed-form error and spectral-efficiency figures built on a Gaussian
linearization of the amplifier feedback loop, exact power back-off and
precoder optimizers, an any-branch-count generalization, and a
Monte-Carlo oracle that validates all of it against the exact
nonlinear system.

Each module's ``__all__`` is the one list of its public names; the
package republishes them all.
"""

from . import errors, experiments, model, montecarlo, mxm, nmse, polyroots, precoding, units
from .errors import *
from .experiments import *
from .model import *
from .montecarlo import *
from .mxm import *
from .nmse import *
from .polyroots import *
from .precoding import *
from .units import *
from .version import __version__

_MODULES = (errors, experiments, model, montecarlo, mxm, nmse, polyroots, precoding, units)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
