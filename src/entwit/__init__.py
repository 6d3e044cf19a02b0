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

from . import families, operators, ppt, weyl, witness
from .operators import *  # noqa: F401,F403
from .weyl import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .witness import *  # noqa: F401,F403
from .ppt import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (operators, weyl, families, witness, ppt)
    for name in module.__all__
]
