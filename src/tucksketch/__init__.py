"""Sketch-accelerated low-rank Tucker approximation of dense tensors."""

from . import config, datagen, linalg, metrics, rng, tensor, tucker
from .config import *
from .datagen import *
from .linalg import *
from .metrics import *
from .rng import *
from .tensor import *
from .tucker import *

__version__ = "0.1.0"

# every module's public names, in import order; the root declares none of its own
__all__ = [
    name
    for module in (config, datagen, linalg, metrics, rng, tensor, tucker)
    for name in module.__all__
]
