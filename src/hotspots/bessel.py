"""Bessel functions J0, J1 and the spectral constants built from their zeros.

The evaluators are thin wrappers over ``scipy.special.j0``/``j1`` (Cephes;
against 40-digit references at 4,001 points of [0, 40] the largest absolute
errors are 3.7e-16 and 2.6e-16) that keep this package's argument contract:
non-finite input raises ``NonFiniteInput``, negative input ``ValueError``.

The zeros j0 (of J0), j1 (of J1) and j'_{1,1} (of J1' = J0 - J1/x) are
pinned: the floats Brent's method finds on these evaluators, which every
report since schema 4 is built on.  ``c_excl = j1/(2 j0)`` is the
exclusion-region ratio.  ``jn_zeros`` would put ``c_excl`` 1 ulp off, and
bisection j'_{1,1} (hence the Neumann shift).  On first use each zero is
checked to lie within 2 ulps of a sign change of its own evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import InternalInvariantViolation, NonFiniteInput


def _check_array(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("arguments must be finite")
    if np.any(x < 0.0):
        raise ValueError("arguments must be >= 0")
    return x


def j0_eval(x: float) -> float:
    """J0(x) for x >= 0."""
    return float(special.j0(_check_array(x)))


def j1_eval(x: float) -> float:
    """J1(x) for x >= 0."""
    return float(special.j1(_check_array(x)))


def j0_array(x) -> np.ndarray:
    """J0 element-wise over an array; bit-identical to ``j0_eval``."""
    return special.j0(_check_array(x))


def j1_array(x) -> np.ndarray:
    """J1 element-wise over an array; bit-identical to ``j1_eval``."""
    return special.j1(_check_array(x))


# --- zeros -------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralConstants:
    """First zeros j0 of J0, j1 of J1, j'_{1,1} of J1', and the exclusion
    ratio c_excl = j1/(2 j0). Immutable; computed once per process."""

    j0: float
    j1: float
    jp11: float
    c_excl: float


@lru_cache(maxsize=1)
def find_constants() -> SpectralConstants:
    """The pinned zeros, each checked once against its evaluator; cached."""
    j0, j1, jp11 = 2.404825557695773, 3.8317059702075125, 1.8411837813406589
    for z, f in ((j0, j0_eval), (j1, j1_eval), (jp11, lambda x: j0_eval(x) - j1_eval(x) / x)):
        vals = [f(float(x)) for x in z + np.arange(-2, 3) * np.spacing(z)]
        if all(u * v > 0.0 for u, v in zip(vals, vals[1:])):
            raise InternalInvariantViolation(f"no sign change within 2 ulps of the zero {z!r}")
    return SpectralConstants(j0=j0, j1=j1, jp11=jp11, c_excl=j1 / (2.0 * j0))
