"""Stopping rule of the shared damped Gauss-Newton solver."""

import numpy as np
import pytest

from gupsim.estimation import _projected_residual_jacobian, ringdown_model
import gupsim.leastsq as leastsq
from gupsim.leastsq import damped_gauss_newton

FS = 312500.0
T = np.arange(int(0.0009 * FS)) / FS


def noisy_ringdown_problem(rng, noise):
    """The problem the solver serves: the ring-down fit in (1/tau, f_m), with the
    line amplitudes projected out, started 2% off the truth."""
    A = rng.uniform(0.5, 50)
    tau = rng.uniform(100e-6, 5e-3)
    f_m = rng.uniform(1, 100) * rng.choice([-1, 1])
    phi = rng.uniform(-3.0, 3.0)
    B = rng.uniform(0.1, 2.0)
    dphi = rng.uniform(-3.0, 3.0)
    X, Y = ringdown_model(T, A, tau, f_m, phi, B, dphi)
    X = X + noise * A * rng.standard_normal(T.size)
    Y = Y + noise * A * rng.standard_normal(T.size)
    residual, jacobian, _ = _projected_residual_jacobian(T, X, Y, 8000.0, 16000.0)
    truth = np.array([1.0 / tau, f_m])
    start = truth * (1.0 + 0.02 * rng.standard_normal(truth.size))
    return residual, jacobian, start


@pytest.mark.parametrize("noise", [1e-3, 0.05])
def test_converged_point_is_stationary(noise):
    # the undamped Gauss-Newton step left at a converged point is at most
    # 1e-9 of every parameter's standard error
    rng = np.random.default_rng(2015)
    for _ in range(10):
        residual, jacobian, start = noisy_ringdown_problem(rng, noise)
        res = damped_gauss_newton(residual, jacobian, start)
        assert res.converged
        J = jacobian(res.params)
        r = residual(res.params)
        step = np.linalg.solve(J.T @ J, -(J.T @ r))
        se = np.sqrt(np.diag(res.covariance))
        assert np.max(np.abs(step) / se) <= 1e-9



@pytest.mark.parametrize("max_iter", [None, 2], ids=["converged", "stopped"])
def test_covariance_at_the_returned_point(monkeypatch, max_iter):
    # the covariance is 2 cost / dof (J^T J)^-1 with J at the returned params,
    # also when the walk stops at MAX_ITER right after a step
    if max_iter is not None:
        monkeypatch.setattr(leastsq, "MAX_ITER", max_iter)
    residual, jacobian, start = noisy_ringdown_problem(np.random.default_rng(27), 0.05)
    res = damped_gauss_newton(residual, jacobian, start)
    assert res.converged == (max_iter is None)
    J = jacobian(res.params)
    dof = residual(res.params).size - res.params.size
    np.testing.assert_array_equal(res.covariance,
                                  2.0 * res.cost / dof * np.linalg.inv(J.T @ J))
