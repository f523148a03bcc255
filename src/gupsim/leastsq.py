"""Damped Gauss-Newton (Levenberg-style) nonlinear least squares.

Shared by the Lorentzian sideband fits and the ring-down quadrature fits.
The caller supplies residuals and an analytic Jacobian. Far from the optimum
the damping is adapted multiplicatively until a step reduces the cost; near it
the solver takes plain Gauss-Newton steps and decides convergence from the
undamped step alone, so where a fit stops does not depend on the rounding of
the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitDiverged

# Predicted decrease, relative to the starting cost, below which the walk
# turns undamped. It lies above the rounding of the cost (about 1e-14 of it on
# the ring-down data), so cost comparisons are still sound when it is reached,
# and far inside the basin of the optimum, where plain Gauss-Newton converges.
LOCAL_DECREASE = 1e-10
MAX_ITER = 200
# convergence: undamped step at most XTOL standard errors long
XTOL = 1e-12
# Levenberg damping: starting value, and the value at which a step search gives up
LAM0 = 1e-3
LAM_MAX = 1e12


@dataclass
class LeastSquaresResult:
    params: np.ndarray
    covariance: np.ndarray
    cost: float                 # 0.5 * sum(residual^2)
    iterations: int
    converged: bool


def _gauss_newton_step(J: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float]:
    """Undamped (minimum-norm) Gauss-Newton step and its decrement.

    The decrement g^T H^+ g = ||J step||^2, with g = J^T r and H = J^T J, is
    twice the cost decrease the linearized model predicts. A pseudo-inverse
    keeps both defined when H is singular, e.g. a phase whose line has zero
    amplitude. Returns (None, inf) when the Jacobian or residuals are not finite.
    """
    if not (np.all(np.isfinite(J)) and np.all(np.isfinite(r))):
        return None, np.inf
    step = np.linalg.lstsq(J, -r, rcond=None)[0]
    Js = J @ step
    return step, float(Js @ Js)


def damped_gauss_newton(residual_fn, jacobian_fn, theta0) -> LeastSquaresResult:
    """Minimize 0.5*||r(theta)||^2 with analytic Jacobian.

    residual_fn(theta) -> (n,) residual vector.
    jacobian_fn(theta) -> (n, p) Jacobian of the residuals.

    Stopping rule: every iteration computes the undamped Gauss-Newton step.
    The fit has converged when that step is at most XTOL standard errors long,
    in the norm of the parameter covariance (its decrement is at most
    XTOL^2 * 2*cost/dof), which bounds the step in every single parameter by
    XTOL of its standard error. Until the predicted decrease falls below
    LOCAL_DECREASE of the starting cost, Levenberg damping keeps only steps
    that lower the cost. After that the solver takes plain Gauss-Newton steps,
    with no cost comparison, and stops once the decrement no longer shrinks:
    the rounding floor of the residuals, which is also how zero-residual fits
    end. Identical inputs give identical results on one build; a change of
    the data in its last bits moves the result by about the rounding floor,
    not by wherever a damped walk happened to halt.

    Raises FitDiverged when no descent step can be found or values go non-finite.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = residual_fn(theta)
    if not np.all(np.isfinite(r)):
        raise FitDiverged("non-finite residuals at initial guess")
    cost = 0.5 * float(r @ r)
    dof = max(r.size - theta.size, 1)
    local_floor = LOCAL_DECREASE * cost
    lam = LAM0
    local = False
    prev_dec = np.inf
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        J = jacobian_fn(theta)
        gn_step, dec = _gauss_newton_step(J, r)
        if dec <= XTOL ** 2 * 2.0 * cost / dof:
            converged = True
            break
        if gn_step is not None and (local or 0.5 * dec <= local_floor):
            if dec >= prev_dec:
                converged = True
                break
            trial = theta + gn_step
            r_trial = residual_fn(trial)
            if np.all(np.isfinite(r_trial)):
                theta, r, cost = trial, r_trial, 0.5 * float(r_trial @ r_trial)
                local, prev_dec = True, dec
                continue
            local, prev_dec = False, np.inf
        g = J.T @ r
        H = J.T @ J
        d = np.diag(H).copy()
        d[d <= 0] = 1.0
        stepped = False
        for _ in range(60):
            try:
                step = np.linalg.solve(H + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + step
            r_trial = residual_fn(trial)
            if np.all(np.isfinite(r_trial)):
                cost_trial = 0.5 * float(r_trial @ r_trial)
                if cost_trial < cost:
                    theta, r, cost = trial, r_trial, cost_trial
                    lam = max(lam / 3.0, 1e-14)
                    stepped = True
                    break
            lam *= 10.0
            if lam > LAM_MAX:
                break
        if not stepped:
            # no descent direction found; accept as converged only if the
            # gradient is already negligible
            if np.max(np.abs(g)) <= 1e-12 * (1.0 + cost):
                converged = True
                break
            raise FitDiverged(f"no descent step found at iteration {it}")
    else:
        J = jacobian_fn(theta)      # the last step moved theta; every break leaves J there

    try:
        cov = 2.0 * cost / dof * np.linalg.inv(J.T @ J)
    except np.linalg.LinAlgError:
        cov = np.full((theta.size, theta.size), np.nan)
    return LeastSquaresResult(params=theta, covariance=cov, cost=cost,
                              iterations=it, converged=converged)
