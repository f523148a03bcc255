import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupsim.dynamics import (
    HBAR,
    K_B,
    L_P,
    DeformationParams,
    MechanicalMode,
    PhaseState,
    SinusoidalDrive,
    deformed_factor,
    equations_of_motion,
    frequency_vs_amplitude,
    integrate_trajectory,
    measure_period_zero_crossings,
    purity,
    third_harmonic_fraction,
)
from gupsim.errors import (
    InsufficientData,
    NegativeOccupancy,
    NonFinite,
    StepTooLarge,
)

MODE = MechanicalMode(omega_m=2 * math.pi * 525800.0,
                      gamma_m=2 * math.pi * 0.08216,
                      mass=1e-10, T_bath=9.0)
A0 = 1e-12  # m, representative coherent amplitude


def deformation_for_eps(eps, amplitude=A0, mode=MODE):
    """DeformationParams whose eps = beta_tilde*(m*omega*A)^2 equals `eps` at `amplitude`."""
    bt = eps / (mode.mass * mode.omega_m * amplitude) ** 2
    return DeformationParams.from_beta_tilde(bt)


class TestDeformedFactor:
    def test_undeformed_limit(self):
        d = DeformationParams(0.0)
        assert deformed_factor(PhaseState(x=1e-9, p=3.7e-15), d) == 1.0

    def test_momentum_origin(self):
        d = DeformationParams(beta0=1e30)
        assert deformed_factor(PhaseState(x=1e-9, p=0.0), d) == 1.0

    def test_unit_beta_tilde_arithmetic(self):
        d = DeformationParams.from_beta_tilde(1.0)
        assert deformed_factor(PhaseState(x=0.0, p=2.0), d) == pytest.approx(5.0, rel=1e-12)

    def test_beta_tilde_definition(self):
        d = DeformationParams(beta0=2.5)
        assert d.beta_tilde == pytest.approx(2.5 * (L_P / HBAR) ** 2, rel=1e-15)

    def test_negative_beta0_rejected(self):
        with pytest.raises(ValueError):
            DeformationParams(beta0=-1.0)


class TestEquationsOfMotion:
    def test_undeformed_is_harmonic(self):
        d = DeformationParams(0.0)
        s = PhaseState(x=2e-12, p=4e-19)
        xdot, pdot = equations_of_motion(s, MODE, d)
        assert xdot == pytest.approx(s.p / MODE.mass, rel=1e-15)
        assert pdot == pytest.approx(-MODE.mass * MODE.omega_m ** 2 * s.x, rel=1e-15)

    def test_hand_evaluation_oracle(self):
        # independent literal evaluation of the deformed-bracket equations
        d = deformation_for_eps(3e-3)
        s = PhaseState(x=0.6e-12, p=0.8e-12 * MODE.mass * MODE.omega_m)
        g = 1.0 + d.beta_tilde * s.p ** 2
        expect_xdot = g * s.p / MODE.mass
        expect_pdot = -g * MODE.mass * MODE.omega_m ** 2 * s.x
        xdot, pdot = equations_of_motion(s, MODE, d)
        assert xdot == pytest.approx(expect_xdot, rel=1e-12)
        assert pdot == pytest.approx(expect_pdot, rel=1e-12)

    @given(xn=st.floats(-2, 2), pn=st.floats(-2, 2),
           eps=st.floats(0, 0.1))
    @settings(max_examples=50, deadline=None)
    def test_energy_derivative_vanishes(self, xn, pn, eps):
        d = deformation_for_eps(max(eps, 1e-30))
        s = PhaseState(x=xn * A0, p=pn * A0 * MODE.mass * MODE.omega_m)
        xdot, pdot = equations_of_motion(s, MODE, d)
        term1 = MODE.mass * MODE.omega_m ** 2 * s.x * xdot
        term2 = s.p * pdot / MODE.mass
        scale = abs(term1) + abs(term2)
        # skip the denormal regime where float cancellation dominates
        if scale > 1e-200:
            assert abs(term1 + term2) / scale < 1e-12


class TestIntegrateTrajectory:
    def test_harmonic_period(self):
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, DeformationParams(0.0),
                                    dt=MODE.period / 500, n_steps=60 * 500)
        T = measure_period_zero_crossings(traj)
        assert T == pytest.approx(MODE.period, rel=1e-8)

    def test_damped_envelope(self):
        gamma = MODE.omega_m / 2000.0
        n_per = 40
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, DeformationParams(0.0),
                                    dt=MODE.period / 400, n_steps=n_per * 400,
                                    damping=gamma)
        E = traj.energies()
        # energy of the underdamped oscillator decays as exp(-gamma t)
        slope = np.polyfit(traj.t, np.log(E), 1)[0]
        assert slope == pytest.approx(-gamma, rel=2e-3)

    def test_deformed_period_closed_form(self):
        d = deformation_for_eps(0.01)
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, d,
                                    dt=MODE.period / 500, n_steps=200 * 500)
        T = measure_period_zero_crossings(traj)
        assert 2 * math.pi / T == pytest.approx(MODE.omega_m * math.sqrt(1.01), rel=1e-6)

    def test_step_guard(self):
        with pytest.raises(StepTooLarge):
            integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, DeformationParams(0.0),
                                 dt=MODE.period / 10, n_steps=10)

    def test_nonfinite_detection(self):
        # strong anti-damping blows the state up past float range
        with pytest.raises(NonFinite):
            integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, DeformationParams(0.0),
                                 dt=MODE.period / 200, n_steps=200 * 200,
                                 damping=-1e8)

    def test_store_every_keeps_initial_state(self):
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0, t=1.5), MODE,
                                    DeformationParams(0.0),
                                    dt=MODE.period / 200, n_steps=1000, store_every=100)
        assert len(traj) == 11
        assert traj.x[0] == A0 and traj.t[0] == 1.5

    def test_drive_pumps_energy_at_resonance(self):
        drive = SinusoidalDrive(amplitude=1e-18, omega=MODE.omega_m, phase=-math.pi / 2)
        traj = integrate_trajectory(PhaseState(x=0.0, p=0.0), MODE, DeformationParams(0.0),
                                    dt=MODE.period / 200, n_steps=50 * 200, drive=drive)
        E = traj.energies()
        assert E[-1] > 100 * max(E[1], 1e-60)


@pytest.mark.slow
@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_energy_conservation_long_horizon(eps):
    # 1e4 periods; RK4 at T/2000 keeps the relative drift below 1e-9
    d = deformation_for_eps(eps) if eps else DeformationParams(0.0)
    traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, d,
                                dt=MODE.period / 2000, n_steps=10_000 * 2000,
                                store_every=2000)
    E = traj.energies()
    assert np.max(np.abs(E - E[0])) / E[0] < 1e-9


def test_orbit_shape_matches_undeformed_ellipse():
    # the deformed orbit lies on the beta0=0 energy ellipse of equal energy
    d = deformation_for_eps(0.01)
    traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, d,
                                dt=MODE.period / 1000, n_steps=50 * 1000)
    E = traj.energies()
    assert np.max(np.abs(E - E[0])) / E[0] < 1e-9


class TestFrequencyVsAmplitude:
    def test_undeformed(self):
        assert frequency_vs_amplitude(MODE, DeformationParams(0.0), A0) == MODE.omega_m

    def test_zero_amplitude(self):
        d = deformation_for_eps(0.05)
        assert frequency_vs_amplitude(MODE, d, 0.0) == MODE.omega_m

    def test_quadratic_amplitude_scaling(self):
        d = deformation_for_eps(1e-4)
        s1 = frequency_vs_amplitude(MODE, d, A0) / MODE.omega_m - 1.0
        s2 = frequency_vs_amplitude(MODE, d, 2 * A0) / MODE.omega_m - 1.0
        assert s2 / s1 == pytest.approx(4.0, rel=2e-4)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
    def test_oracle_equivalence(self, eps):
        # brute-force zero-crossing period timing on the integrated orbit
        d = deformation_for_eps(eps)
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, d,
                                    dt=MODE.period / 500, n_steps=220 * 500)
        w_timed = 2 * math.pi / measure_period_zero_crossings(traj)
        assert w_timed == pytest.approx(frequency_vs_amplitude(MODE, d, A0), rel=1e-6)

    def test_known_value_at_eps_001(self):
        d = deformation_for_eps(0.01)
        assert frequency_vs_amplitude(MODE, d, A0) / MODE.omega_m == pytest.approx(
            1.0049875621, rel=1e-9)

    def test_linear_in_beta0_continuity(self):
        d1 = deformation_for_eps(1e-5)
        d2 = DeformationParams(beta0=d1.beta0 / 2)
        s1 = frequency_vs_amplitude(MODE, d1, A0) - MODE.omega_m
        s2 = frequency_vs_amplitude(MODE, d2, A0) - MODE.omega_m
        assert s1 / s2 == pytest.approx(2.0, rel=1e-5)


class TestThirdHarmonic:
    def test_pure_sinusoid_floor(self):
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, DeformationParams(0.0),
                                    dt=MODE.period / 500, n_steps=64 * 500)
        assert third_harmonic_fraction(traj) < 1e-9

    def test_quadratic_scaling(self):
        d = deformation_for_eps(0.0025)
        t1 = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, d,
                                  dt=MODE.period / 500, n_steps=64 * 500)
        t2 = integrate_trajectory(PhaseState(x=2 * A0, p=0.0), MODE, d,
                                  dt=MODE.period / 500, n_steps=64 * 500)
        ratio = third_harmonic_fraction(t2) / third_harmonic_fraction(t1)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_golden_value_eps_001(self):
        # frozen from a validated oracle run (integrator + harmonic projection);
        # leading-order analytic estimate is eps/8 = 1.25e-3
        d = deformation_for_eps(0.01)
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, d,
                                    dt=MODE.period / 500, n_steps=64 * 500)
        r = third_harmonic_fraction(traj)
        assert r == pytest.approx(1.24301505e-3, rel=1e-4)
        assert r == pytest.approx(0.01 / 8, rel=0.01)

    def test_insufficient_span(self):
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, DeformationParams(0.0),
                                    dt=MODE.period / 500, n_steps=10 * 500)
        with pytest.raises(InsufficientData):
            third_harmonic_fraction(traj)


class TestPurity:
    def test_ground_state(self):
        assert purity(0.0) == 1.0

    def test_arithmetic(self):
        assert purity(4.5) == pytest.approx(0.1, rel=1e-12)
        assert purity(5.0) == pytest.approx(1.0 / 11.0, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(NegativeOccupancy):
            purity(-0.1)

    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing(self, n):
        assert 0.0 < purity(n + 1.0) < purity(n) <= 1.0


class TestModeAccessors:
    def test_quality_factor(self):
        assert MODE.quality_factor == pytest.approx(525800.0 / 0.08216, rel=1e-12)

    def test_zero_point_amplitudes(self):
        assert MODE.x_zpf() == pytest.approx(
            math.sqrt(HBAR / (2 * MODE.mass * MODE.omega_m)), rel=1e-12)

    def test_thermal_occupancy_high_temperature_limit(self):
        n = MODE.thermal_occupancy()
        classical = K_B * MODE.T_bath / (HBAR * MODE.omega_m)
        assert n == pytest.approx(classical - 0.5, rel=1e-5)

    def test_squared_amplitude(self):
        # ground state: the zero-point mean-square displacement 2 x_zpf^2
        assert MODE.squared_amplitude(0.0, 0.0) == 2 * MODE.x_zpf() ** 2
        alpha_sq = np.array([0.0, 35.0, 1e8])
        n = np.array([0.0, 5.0, 2.5])
        want = [MODE.squared_amplitude(a, m) for a, m in zip(alpha_sq, n)]
        np.testing.assert_array_equal(MODE.squared_amplitude(alpha_sq, n), want)
        assert want[1] == pytest.approx(2 * MODE.x_zpf() ** 2 * 81.0, rel=1e-15)
