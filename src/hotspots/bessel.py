"""Bessel functions J0, J1 and the spectral constants built from their zeros.

The evaluators are thin wrappers over ``scipy.special.j0``/``j1`` (Cephes;
against 40-digit references at 4,001 points of [0, 40] the largest absolute
errors are 3.7e-16 and 2.6e-16) that keep this package's argument contract:
non-finite input raises ``NonFiniteInput``, negative input ``ValueError``.

The zeros j0 (of J0), j1 (of J1) and j'_{1,1} (of J1' = J0 - J1/x) are found
once by Brent's method on these evaluators, bracketed in [2, 3], [3, 4] and
[1, 2], and cached; ``c_excl = j1/(2 j0)`` is the exclusion-region ratio
derived from them.  Brent to full precision, not ``jn_zeros``: every
exclusion threshold and ``region.json`` is built on the bits of ``c_excl``
that the tests pin, and ``jn_zeros`` puts it 1 ulp off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .errors import NonFiniteInput


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


def _zero(f, lo: float, hi: float) -> float:
    return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


@lru_cache(maxsize=1)
def find_constants() -> SpectralConstants:
    """Locate j0 in [2,3], j1 in [3,4], j'_{1,1} in [1,2]; cached."""
    j0 = _zero(j0_eval, 2.0, 3.0)
    j1 = _zero(j1_eval, 3.0, 4.0)
    jp11 = _zero(lambda x: j0_eval(x) - j1_eval(x) / x, 1.0, 2.0)
    return SpectralConstants(j0=j0, j1=j1, jp11=jp11, c_excl=j1 / (2.0 * j0))
