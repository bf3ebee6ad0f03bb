"""Independent reference computations that the tests compare the library with."""

import numpy as np

from stretchlab.cocycle import Cocycle, differentiate_family
from stretchlab.earthquake import FD_STEP, TwistSpec, twist
from stretchlab.fuchsian import SurfaceGroupRep


def exp_series_oracle(A: np.ndarray, terms: int = 30) -> np.ndarray:
    """Plain power-series exponential of a 3x3 matrix."""
    out = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms + 1):
        term = term @ A / n
        out = out + term
    return out


def finite_difference_cocycle(rep: SurfaceGroupRep, curve: str, weight: float = 1.0, step: float = FD_STEP) -> Cocycle:
    """differentiate_family applied to the exact twist family."""
    return differentiate_family(lambda t: twist(rep, TwistSpec(curve, weight * t)), rep, step)
