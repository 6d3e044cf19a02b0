"""Geometric entanglement witnesses for bipartite qudit states.

A numpy library for two-qutrit entanglement analysis: Weyl operator bases
and Bell projectors, the three-parameter Bell-diagonal state family with the
Horodecki line embedded in it, tangent-hyperplane (geometric) entanglement
witnesses with a sufficient Weyl-coefficient certification, Hilbert-Schmidt
entanglement measures on the gamma = 0 slice, a nearest-PPT projection, and
a seeded separable sampling oracle.  The `entwit` CLI exposes classification,
slice sweeps, detection-threshold scans and a threshold-reproduction battery.
"""

__version__ = "0.1.0"

# private aliases: the star import of `weyl` rebinds `entwit.weyl` to the
# function of that name
from . import families as _families
from . import operators as _operators
from . import ppt as _ppt
from . import weyl as _weyl
from . import witness as _witness
from .operators import *  # noqa: F401,F403
from .weyl import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .witness import *  # noqa: F401,F403
from .ppt import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (_operators, _weyl, _families, _witness, _ppt)
    for name in module.__all__
]
