"""Bessel functions J0, J1 and the spectral constants built from their zeros.

Self-contained evaluators, no special-function library anywhere:

* ``x <= 16``: the ascending power series, evaluated in double-double
  (compensated) arithmetic.  Plain float64 summation loses up to ~1e-11
  near the top of this range because the alternating terms grow to ~1e5
  before cancelling; the compensated form keeps the absolute error below
  1e-14 everywhere on the branch.  At most 40 terms are consumed for
  x <= 12 and ~50 near 16.
* ``x > 16``: Hankel's asymptotic expansion
  J_nu(x) ~ sqrt(2/(pi x)) * (P cos(chi) - Q sin(chi)), chi = x-(2nu+1)pi/4,
  truncated at the smallest term.  At the x=16 seam the optimal truncation
  floor is below 2e-15, comfortably inside the 1e-12 contract; the seam
  is regression-tested for continuity.

Both branches deliver absolute error <= 1e-12 on [0, 50].
``j0_array``/``j1_array`` run the same series element-wise over arrays and
return exactly the scalar evaluators' bits.

The zeros j0 (of J0), j1 (of J1) and j'_{1,1} (of J1') are found once by
bisection bracketing + Newton polishing and cached; ``c_excl = j1/(2 j0)``
is the exclusion-region ratio derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure, NonFiniteInput

_SERIES_CUTOFF = 16.0
_SERIES_MAX_TERMS = 80
_ASYMPTOTIC_MAX_TERMS = 40

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split constant

# pi/4 to double-double precision (hi is the correctly rounded double).
_PIO4_HI = 0.7853981633974483
_PIO4_LO = 3.061616997868383e-17
_3PIO4_HI = 2.356194490192345
_3PIO4_LO = 9.1848509936051484375e-17


# --- double-double primitives ----------------------------------------------

def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ta = _SPLITTER * a
    ah = ta - (ta - a)
    al = a - ah
    tb = _SPLITTER * b
    bh = tb - (tb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    s, e = _two_sum(xh, yh)
    e += xl + yl
    return _two_sum(s, e)


def _dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    return _two_sum(p, e)


def _dd_div_f(xh: float, xl: float, f: float) -> tuple[float, float]:
    q1 = xh / f
    p, e = _two_prod(q1, f)
    return _two_sum(q1, ((xh - p) - e + xl) / f)


# --- ascending series (x <= cutoff) -----------------------------------------

def _series(x: float, order: int) -> tuple[float, float]:
    """Double-double sum of the ascending series of J_order without its
    (x/2)^order factor, stopping at the first term below 1e-17."""
    h = 0.5 * x
    qh, ql = _two_prod(h, h)
    th, tl = 1.0, 0.0
    sh, sl = 1.0, 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        th, tl = _dd_mul(th, tl, qh, ql)
        th, tl = _dd_div_f(th, tl, float(-k * (k + order)))
        sh, sl = _dd_add(sh, sl, th, tl)
        if abs(th) < 1e-17:
            break
    return sh, sl


def _j0_series(x: float) -> float:
    sh, sl = _series(x, 0)
    return sh + sl


def _j1_series(x: float) -> float:
    sh, sl = _series(x, 1)
    rh, rl = _dd_mul(sh, sl, 0.5 * x, 0.0)
    return rh + rl


def _series_array(x: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise double-double sum of the ascending series of J_order
    without its (x/2)^order factor: the scalar series' operations, with
    each element leaving the loop at its own |t| < 1e-17 term."""
    h = 0.5 * x
    qh, ql = _two_prod(h, h)
    sh, sl = np.ones_like(x), np.zeros_like(x)
    th, tl = sh.copy(), sl.copy()
    live = np.arange(len(x))
    for k in range(1, _SERIES_MAX_TERMS + 1):
        th, tl = _dd_mul(th, tl, qh[live], ql[live])
        th, tl = _dd_div_f(th, tl, float(-k * (k + order)))
        sh[live], sl[live] = _dd_add(sh[live], sl[live], th, tl)
        going = np.abs(th) >= 1e-17
        live, th, tl = live[going], th[going], tl[going]
        if not len(live):
            break
    return sh, sl


# --- Hankel asymptotics (x > cutoff) -----------------------------------------

def _hankel(nu: int, x: float) -> float:
    # Terms t_m = prod_{j<=m} (4 nu^2 - (2j-1)^2) / (m! (8x)^m); the modulus
    # series P collects even m, the phase series Q odd m, signs +,+,-,-,...
    four_nu_sq = 4.0 * nu * nu
    t = 1.0
    p_sum = 1.0
    q_sum = 0.0
    for m in range(1, _ASYMPTOTIC_MAX_TERMS + 1):
        t_next = t * (four_nu_sq - (2 * m - 1) ** 2) / (8.0 * m * x)
        if abs(t_next) >= abs(t):
            break  # smallest term reached; stop before the divergent tail
        t = t_next
        r = m % 4
        if r == 0:
            p_sum += t
        elif r == 1:
            q_sum += t
        elif r == 2:
            p_sum -= t
        else:
            q_sum -= t
        if abs(t) < 1e-18:
            break
    if nu == 0:
        ch, cl = _PIO4_HI, _PIO4_LO
    else:
        ch, cl = _3PIO4_HI, _3PIO4_LO
    chi = (x - ch) - cl
    return math.sqrt(2.0 / (math.pi * x)) * (
        p_sum * math.cos(chi) - q_sum * math.sin(chi)
    )


def _check_arg(x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise NonFiniteInput(f"argument must be finite, got {x!r}")
    if x < 0.0:
        raise ValueError("argument must be >= 0")
    return x


def j0_eval(x: float) -> float:
    """J0(x) for x >= 0; absolute error <= 1e-12 on [0, 50]."""
    x = _check_arg(x)
    if x <= _SERIES_CUTOFF:
        return _j0_series(x)
    return _hankel(0, x)


def j1_eval(x: float) -> float:
    """J1(x) for x >= 0; absolute error <= 1e-12 on [0, 50]."""
    x = _check_arg(x)
    if x <= _SERIES_CUTOFF:
        return _j1_series(x)
    return _hankel(1, x)


def _eval_array(x, order: int, scalar) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("arguments must be finite")
    if np.any(x < 0.0):
        raise ValueError("arguments must be >= 0")
    out = np.empty_like(x)
    small = x <= _SERIES_CUTOFF
    sh, sl = _series_array(x[small], order)
    if order:
        sh, sl = _dd_mul(sh, sl, 0.5 * x[small], 0.0)
    out[small] = sh + sl
    out[~small] = [scalar(v) for v in x[~small]]
    return out


def j0_array(x) -> np.ndarray:
    """J0 element-wise over a 1-d array; bit-identical to ``j0_eval``."""
    return _eval_array(x, 0, j0_eval)


def j1_array(x) -> np.ndarray:
    """J1 element-wise over a 1-d array; bit-identical to ``j1_eval``."""
    return _eval_array(x, 1, j1_eval)


def j0_derivative(x: float) -> float:
    """J0'(x) = -J1(x)."""
    return -j1_eval(x)


# --- zeros -------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralConstants:
    """First zeros j0 of J0, j1 of J1, j'_{1,1} of J1', and the exclusion
    ratio c_excl = j1/(2 j0). Immutable; computed once per process."""

    j0: float
    j1: float
    jp11: float
    c_excl: float


def _j1_prime(x: float) -> float:
    return j0_eval(x) - j1_eval(x) / x


def _j1_second(x: float) -> float:
    # From the order-1 Bessel ODE: J1'' = -J1'/x - (1 - 1/x^2) J1.
    return -_j1_prime(x) / x - (1.0 - 1.0 / (x * x)) * j1_eval(x)


def _refine_zero(f, df, lo: float, hi: float, name: str) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(60):  # bisection until the bracket is Newton-safe
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo > 0.0) == (fmid > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-3:
            break
    x = 0.5 * (lo + hi)
    for _ in range(100):
        fx = f(x)
        if abs(fx) <= 1e-13:
            # one final correction step sharpens the last bits for free
            return x - fx / df(x)
        x -= fx / df(x)
    raise ConvergenceFailure(f"Newton did not reach |f| <= 1e-13 for {name}")


@lru_cache(maxsize=1)
def find_constants() -> SpectralConstants:
    """Locate j0 in [2,3], j1 in [3,4], j'_{1,1} in [1,2]; cached."""
    j0 = _refine_zero(j0_eval, j0_derivative, 2.0, 3.0, "j0")
    j1 = _refine_zero(j1_eval, _j1_prime, 3.0, 4.0, "j1")
    jp11 = _refine_zero(_j1_prime, _j1_second, 1.0, 2.0, "jp11")
    return SpectralConstants(j0=j0, j1=j1, jp11=jp11, c_excl=j1 / (2.0 * j0))
