"""Quantitative susceptibility mapping at desk scale.

Dipole-field physics, classical inversions (TKD, MEDI-style, CG least
squares), an unpaired adversarial reconstructor with a self-contained
reverse-mode engine, per-volume deep-prior fitting, and evaluation metrics.
"""

__version__ = "0.1.0"

from .errors import InputError, NumericalError, QsmError
from .volume import Mask, RealVolume, VolumeMeta

__all__ = [
    "InputError",
    "Mask",
    "NumericalError",
    "QsmError",
    "RealVolume",
    "VolumeMeta",
    "__version__",
]
