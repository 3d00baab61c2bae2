"""Information-theoretic performance floors for stochastic feedback loops.

The package computes lower bounds on the achievable L_p norm of closed-loop
signals driven by a random disturbance, and certifies them by Monte Carlo
simulation: plant analysis (poles, zeros, relative degree), disturbance
models with closed-form entropy rates and spectra, the bound formulas
themselves, a vectorized closed-loop simulator, and a batch CLI.
"""

from . import bounds, controllers, disturbance, errors, plant, simulation
from .bounds import *
from .controllers import *
from .disturbance import *
from .errors import *
from .plant import *
from .simulation import *

__version__ = "0.1.0"

# A public name is declared once, in its module's ``__all__``; the package
# exports the union.
__all__ = sorted(
    {
        name
        for module in (bounds, controllers, disturbance, errors, plant, simulation)
        for name in module.__all__
    }
)
