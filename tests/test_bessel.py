import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from hotspots import bessel
from hotspots.errors import InternalInvariantViolation, NonFiniteInput

from .oracles import j0_series_exact, j1_series_exact

# Frozen expected values, computed by the exact-rational series oracle
# (tests/oracles.py) and cross-checked against the 2.4048 / 3.8317 / 0.7967
# published roundings.  The zeros and C_EXCL are the bits of report schema 4;
# JP11 is 2 ulps above the pinned j'_{1,1}.
J0_AT_2 = 0.2238907791412357
J1_AT_2 = 0.5767248077568734
J0_ZERO = 2.404825557695773
J1_ZERO = 3.8317059702075125
JP11 = 1.8411837813406593
C_EXCL = 0.796670252847556


def test_oracle_agrees_with_frozen_values():
    assert j0_series_exact(2.0) == pytest.approx(J0_AT_2, abs=1e-15)
    assert j1_series_exact(2.0) == pytest.approx(J1_AT_2, abs=1e-15)


def test_j0_normalization_and_table_values():
    assert bessel.j0_eval(0.0) == 1.0
    assert abs(bessel.j0_eval(J0_ZERO)) <= 1e-12
    assert bessel.j0_eval(2.0) == pytest.approx(J0_AT_2, abs=1e-9)


def test_j1_values():
    assert bessel.j1_eval(0.0) == 0.0
    assert abs(bessel.j1_eval(J1_ZERO)) <= 1e-12
    assert bessel.j1_eval(2.0) == pytest.approx(J1_AT_2, abs=1e-9)


def test_j0_derivative_is_minus_j1():
    # central differences of j0_eval against -j1_eval
    step = 1e-5
    for x in (0.5, 2.0, J0_ZERO, J1_ZERO, 7.0, 20.0):
        slope = (bessel.j0_eval(x + step) - bessel.j0_eval(x - step)) / (2.0 * step)
        assert slope == pytest.approx(-bessel.j1_eval(x), abs=1e-9)


@pytest.mark.parametrize("fn", [bessel.j0_eval, bessel.j1_eval])
def test_non_finite_input(fn):
    with pytest.raises(NonFiniteInput):
        fn(float("nan"))
    with pytest.raises(NonFiniteInput):
        fn(float("inf"))
    with pytest.raises(ValueError):
        fn(-1.0)


def test_series_accuracy_against_oracle():
    # the 1e-12 contract, sampled across the series branch
    for x in np.linspace(0.0, 16.0, 457):
        assert abs(bessel.j0_eval(float(x)) - j0_series_exact(float(x))) <= 1e-12
        assert abs(bessel.j1_eval(float(x)) - j1_series_exact(float(x))) <= 1e-12


def test_asymptotic_accuracy_against_extended_oracle():
    # beyond the seam the oracle series still converges (exact arithmetic)
    for x in [16.5, 18.0, 20.0]:
        assert abs(bessel.j0_eval(x) - j0_series_exact(x, terms=120)) <= 1e-12
        assert abs(bessel.j1_eval(x) - j1_series_exact(x, terms=120)) <= 1e-12


def test_seam_continuity():
    # the spec's stated seam at 12, and x = 5 where the Cephes evaluators
    # switch from rational approximations to their asymptotic form
    for seam in (5.0, 12.0, 16.0):
        for fn in (bessel.j0_eval, bessel.j1_eval):
            below = fn(np.nextafter(seam, 0.0))
            above = fn(np.nextafter(seam, 20.0))
            assert abs(below - above) <= 1e-11


def test_ode_residual():
    # x^2 J0'' + x J0' + x^2 J0 = 0 with J0'' = (J2 - J0)/2,
    # J2 = (2/x) J1 - J0
    for x in np.linspace(0.1, 20.0, 100):
        x = float(x)
        j0 = bessel.j0_eval(x)
        j1 = bessel.j1_eval(x)
        j2 = (2.0 / x) * j1 - j0
        second = 0.5 * (j2 - j0)
        residual = x * x * second + x * (-j1) + x * x * j0
        assert abs(residual) <= 1e-8


def test_derivative_sign_on_zero_to_j1():
    # J0' = -J1 < 0 on (0, j1)
    for x in np.linspace(0.01, J1_ZERO - 0.01, 100):
        assert bessel.j1_eval(float(x)) > 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_j0_bounded_by_one(x):
    assert abs(bessel.j0_eval(x)) <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0))
def test_j1_bounded(x):
    assert abs(bessel.j1_eval(x)) <= 0.6


class TestFindConstants:
    def test_zero_locations(self):
        c = bessel.find_constants()
        assert c.j0 == pytest.approx(J0_ZERO, abs=1e-12)
        assert c.j1 == pytest.approx(J1_ZERO, abs=1e-12)
        assert c.jp11 == pytest.approx(JP11, abs=1e-12)

    def test_invariants(self):
        c = bessel.find_constants()
        assert abs(bessel.j0_eval(c.j0)) <= 1e-12
        assert abs(bessel.j1_eval(c.j1)) <= 1e-12
        assert 2.404 < c.j0 < 2.405
        assert 3.831 < c.j1 < 3.832
        assert 0.796 < c.c_excl < 0.797
        assert c.c_excl == c.j1 / (2.0 * c.j0)

    def test_exclusion_ratio(self):
        c = bessel.find_constants()
        assert c.c_excl == pytest.approx(C_EXCL, abs=1e-9)
        assert c.c_excl == pytest.approx(0.7967, abs=1e-4)  # published rounding

    def test_bits_of_schema_4(self):
        # the pinned literals; jn_zeros would put c_excl 1 ulp off and move
        # every exclusion threshold and region.json
        c = bessel.find_constants()
        assert (c.j0, c.j1, c.c_excl) == (J0_ZERO, J1_ZERO, C_EXCL)
        assert c.jp11 == 1.8411837813406589  # 2 ulps below JP11: the Neumann shift's bits
        assert abs(c.jp11 - JP11) <= 2.0 * np.spacing(JP11)

    @pytest.mark.parametrize("name, fn", [
        ("j0", bessel.j0_eval),
        ("j1", bessel.j1_eval),
        ("jp11", lambda x: bessel.j0_eval(x) - bessel.j1_eval(x) / x),
    ])
    def test_zeros_sit_at_sign_changes(self, name, fn):
        z = getattr(bessel.find_constants(), name)
        vals = [fn(z + k * np.spacing(z)) for k in range(-2, 3)]
        assert any(u * v <= 0.0 for u, v in zip(vals, vals[1:])), vals

    def test_zeros_equal_brent_on_the_old_brackets(self):
        from scipy.optimize import brentq

        def zero(f, lo, hi):
            return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)

        c = bessel.find_constants()
        assert c.j0 == zero(bessel.j0_eval, 2.0, 3.0)
        assert c.j1 == zero(bessel.j1_eval, 3.0, 4.0)
        assert c.jp11 == zero(lambda x: bessel.j0_eval(x) - bessel.j1_eval(x) / x, 1.0, 2.0)

    def test_zero_off_its_sign_change_raises(self, monkeypatch):
        monkeypatch.setattr(bessel, "j1_eval", lambda x: special.j1(x) + 1e-9)
        bessel.find_constants.cache_clear()
        try:
            with pytest.raises(InternalInvariantViolation, match="3.8317059702075125"):
                bessel.find_constants()
        finally:
            monkeypatch.undo()
            bessel.find_constants.cache_clear()

    def test_cached(self):
        assert bessel.find_constants() is bessel.find_constants()


def test_array_evaluators_bit_identical_to_scalar():
    seam = [np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 20.0)]
    x = np.concatenate([np.linspace(0.0, 16.0, 8001), seam, np.linspace(16.0, 20.0, 41),
                        [0.0, 5e-324, 1e-300]])
    for array_fn, scalar_fn in ((bessel.j0_array, bessel.j0_eval),
                                (bessel.j1_array, bessel.j1_eval)):
        got = array_fn(x)
        want = np.array([scalar_fn(float(v)) for v in x])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("fn", [bessel.j0_array, bessel.j1_array])
def test_array_evaluators_reject_bad_input(fn):
    assert fn(np.empty(0)).shape == (0,)
    with pytest.raises(NonFiniteInput):
        fn(np.array([1.0, float("nan")]))
    with pytest.raises(ValueError):
        fn(np.array([1.0, -1.0]))
