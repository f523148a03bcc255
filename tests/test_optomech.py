import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupsim.detection import LorentzianPairFit, SidebandFit
from gupsim.dynamics import MechanicalMode
from gupsim.errors import NegativeOccupancy, OutsideLinearRegime, RatioUndefined
from gupsim.optomech import (
    CooledState,
    OpticalCavity,
    optical_damping_and_spring,
    rethermalization_rate,
    spring_damping_slope,
)

MODE = MechanicalMode(omega_m=2 * math.pi * 525800.0,
                      gamma_m=2 * math.pi * 525800.0 / 6.4e6,
                      mass=1e-10, T_bath=9.0)
CAVITY = OpticalCavity()


class TestOpticalDampingAndSpring:
    def test_resonant_probe(self):
        assert optical_damping_and_spring(CAVITY, MODE, 0.0) == (0.0, 0.0)

    def test_slope_value(self):
        # 2*2.1e6*525.8e3/((1.05e6)^2 - (525.8e3)^2), the 2*pi factors cancel
        expect = 2 * 2.1e6 * 525.8e3 / ((1.05e6) ** 2 - (525.8e3) ** 2)
        assert expect == pytest.approx(2.6734, abs=1e-4)
        assert spring_damping_slope(CAVITY, MODE) == pytest.approx(expect, rel=1e-12)

    def test_pair_satisfies_proportionality(self):
        for det in (-0.15 * CAVITY.kappa, 0.02 * CAVITY.kappa, 0.2 * CAVITY.kappa):
            g_opt, d_omega = optical_damping_and_spring(CAVITY, MODE, det)
            assert g_opt == pytest.approx(
                d_omega * spring_damping_slope(CAVITY, MODE), rel=1e-12)

    def test_sign_flips_with_detuning(self):
        gp, dp = optical_damping_and_spring(CAVITY, MODE, 0.05 * CAVITY.kappa)
        gm, dm = optical_damping_and_spring(CAVITY, MODE, -0.05 * CAVITY.kappa)
        assert gp > 0 and dp > 0
        assert gm == pytest.approx(-gp, rel=1e-12)
        assert dm == pytest.approx(-dp, rel=1e-12)

    def test_linear_in_coupling_power(self):
        weak = OpticalCavity(coupling_rate=CAVITY.coupling_rate / 2)
        g1, _ = optical_damping_and_spring(CAVITY, MODE, 0.1 * CAVITY.kappa)
        g2, _ = optical_damping_and_spring(weak, MODE, 0.1 * CAVITY.kappa)
        assert g1 / g2 == pytest.approx(4.0, rel=1e-12)

    def test_target_width_reachable(self):
        # a 2*pi*6 kHz effective width is reachable within the linear regime
        # for an admissible coupling rate
        target = 2 * math.pi * 6000.0
        det = 0.1 * CAVITY.kappa
        g_opt, _ = optical_damping_and_spring(CAVITY, MODE, det)
        scale = math.sqrt(target / g_opt)
        cav = OpticalCavity(coupling_rate=CAVITY.coupling_rate * scale)
        g_opt2, _ = optical_damping_and_spring(cav, MODE, det)
        assert g_opt2 == pytest.approx(target, rel=1e-9)

    def test_outside_linear_regime(self):
        with pytest.raises(OutsideLinearRegime):
            optical_damping_and_spring(CAVITY, MODE, 0.25 * CAVITY.kappa)


class TestRethermalize:
    def test_phonon_rate_constant(self):
        # k_B*9K/(hbar*6.4e6) = 1.841e5 /s, i.e. one phonon every ~5.4 us
        rate = rethermalization_rate(MODE)
        assert rate == pytest.approx(1.8411e5, rel=1e-4)
        assert 1.0 / rate == pytest.approx(5.43e-6, rel=1e-2)

    def test_short_time_linearization(self):
        # in the cooled regime (n0 << n_th) the exact relaxation toward the bath,
        # n0*exp(-Gamma_m t) + n_th*(1 - exp(-Gamma_m t)), stays within 1% of
        # n0 + rate*t for t <= 0.1/Gamma_m, measured against the bath scale
        rate = rethermalization_rate(MODE)
        n_th = MODE.thermal_occupancy()
        n0 = 5.0
        for frac in (0.001, 0.01, 0.1):
            t = frac / MODE.gamma_m
            decay = math.exp(-MODE.gamma_m * t)
            exact = n0 * decay + n_th * (1.0 - decay)
            linear = n0 + rate * t
            assert abs(exact - linear) / n_th < 0.01


def occupancy_from_ratio(ratio: float) -> float:
    """The sideband thermometer, `LorentzianPairFit.occupancy`, at the ratio R."""
    side = SidebandFit(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return LorentzianPairFit(stokes=side, antistokes=side, background=(0.0, 0.0),
                             corrected_ratio=ratio, corrected_ratio_err=0.0,
                             window_masks=(), excluded_masks=()).occupancy


class TestSidebandWeights:
    """The thermometer inverts the Stokes/anti-Stokes ratio R = (n_bar + 1)/n_bar."""

    def test_ratio_at_5(self):
        assert occupancy_from_ratio(1.2) == pytest.approx(5.0, rel=1e-12)

    def test_classical_limit(self):
        # R -> 1 as n_bar grows; 1 + 2**-30 is exact in binary
        assert occupancy_from_ratio(1.0 + 2.0 ** -30) == 2.0 ** 30

    def test_inverse_map(self):
        assert occupancy_from_ratio(1.0 + 1.0 / 6.6) == pytest.approx(6.6, rel=1e-12)

    def test_ratio_undefined_at_zero(self):
        # R - 1 at or below zero: no finite occupancy
        for ratio in (1.0, 0.5, 0.0):
            with pytest.raises(RatioUndefined):
                occupancy_from_ratio(ratio)

    @given(st.floats(min_value=1e-6, max_value=1e7))
    @settings(max_examples=100, deadline=None)
    def test_asymmetry_and_round_trip(self, n):
        # round-trip precision degrades as ~eps*n from cancellation in R - 1
        assert occupancy_from_ratio(1.0 + 1.0 / n) == pytest.approx(n, rel=1e-7)


class TestCooledState:
    def test_invalid_occupancy(self):
        with pytest.raises(NegativeOccupancy):
            CooledState(n_bar=-1.0, gamma_eff=1.0, omega_eff=1.0)

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError, match="alpha_sq"):
            CooledState(n_bar=1.0, gamma_eff=1.0, omega_eff=1.0, alpha_sq=-1.0)
