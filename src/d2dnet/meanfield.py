"""Degree-based mean-field dynamics and equilibria.

The central object is Theta, the probability that a random neighbour of
a device is informed.  At equilibrium it solves the self-consistent
fixed point

    Theta = (1/E[K]) * sum_k k P(k) * a k Theta / (1 + a k Theta)

which has the trivial root 0 and, for a >= E[K]/E[K^2], a unique
positive root.  The positive root is found by bracketed root finding on
the (monotone) stationarity equation; a damped fixed-point iteration is
also provided as an independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .degree import pmf_moments


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class IntegrationError(RuntimeError):
    """Time stepping left the physically valid state region."""


@dataclass
class SingleEquilibrium:
    """Equilibrium of single-message dissemination over one degree pmf."""

    theta: float
    informed_by_k: np.ndarray
    aggregate: float
    converged: bool
    iterations: int


def _informed_fractions(alpha: float, theta: float, k_max: int) -> np.ndarray:
    k = np.arange(k_max + 1, dtype=float)
    akt = alpha * k * theta
    return akt / (1.0 + akt)


def theta_lower_bound(alpha: float, mean_degree: float) -> float:
    """Closed-form Jensen lower bound max(0, 1 - 1/(alpha*E[K]))."""
    if alpha < 0 or mean_degree < 0:
        raise ValueError("alpha and mean_degree must be nonnegative")
    if alpha * mean_degree <= 1.0:
        return 0.0
    return 1.0 - 1.0 / (alpha * mean_degree)


def solve_theta(
    pmf: np.ndarray,
    alpha: float,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> SingleEquilibrium:
    """Solve the Theta fixed point for one degree pmf.

    Below the bifurcation threshold E[K]/E[K^2] the only equilibrium is
    zero; above it the unique positive root is bracketed in (0, 1].  The
    zero-vs-positive branch is decided from the pmf moments, never from
    iteration behaviour.
    """
    pmf = np.asarray(pmf, dtype=float)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if (pmf < 0.0).any() or not abs(pmf.sum() - 1.0) <= 1e-9:
        raise ValueError("pmf must be nonnegative and sum to 1")
    mean, m2 = pmf_moments(pmf)
    k_max = len(pmf) - 1
    if mean <= 0.0 or alpha == 0.0 or alpha * m2 < mean:
        # Subcritical: only the noninformative solution exists.
        return SingleEquilibrium(
            theta=0.0,
            informed_by_k=np.zeros(k_max + 1),
            aggregate=0.0,
            converged=True,
            iterations=0,
        )

    k = np.arange(k_max + 1, dtype=float)
    kp = k * pmf

    def stationarity(theta: float) -> float:
        # (1/E[K]) * sum_k k^2 P(k) a / (1 + a k theta) - 1; the positive
        # fixed point is its root, and it is strictly decreasing in theta.
        return float(np.sum(kp * k * alpha / (1.0 + alpha * k * theta))) / mean - 1.0

    if stationarity(1.0) >= 0.0:
        theta = 1.0
    else:
        theta = brentq(stationarity, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    informed = _informed_fractions(alpha, theta, k_max)
    residual = abs(theta - float(kp @ informed) / mean)
    if residual > tol:
        raise ConvergenceError(
            f"fixed-point residual {residual:.3e} above tol {tol:.0e}", residual
        )
    return SingleEquilibrium(
        theta=float(theta),
        informed_by_k=informed,
        aggregate=float(pmf @ informed),
        converged=True,
        iterations=1,
    )


def solve_theta_damped(
    pmf: np.ndarray,
    alpha: float,
    theta0: float = 1.0,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> SingleEquilibrium:
    """Damped fixed-point iteration theta <- (1-d)*theta + d*F(theta).

    Independent of the bracketed solver; used to cross-check uniqueness
    from arbitrary starting points.  Raises ConvergenceError (with the
    last residual) if tolerance is not met within max_iter.
    """
    pmf = np.asarray(pmf, dtype=float)
    mean, m2 = pmf_moments(pmf)
    k_max = len(pmf) - 1
    if mean <= 0.0 or alpha == 0.0 or alpha * m2 < mean:
        return SingleEquilibrium(0.0, np.zeros(k_max + 1), 0.0, True, 0)
    k = np.arange(k_max + 1, dtype=float)
    kp = k * pmf

    theta = theta0
    for it in range(1, max_iter + 1):
        akt = alpha * k * theta
        f = float(kp @ (akt / (1.0 + akt))) / mean
        residual = abs(theta - f)
        theta = (1.0 - damping) * theta + damping * f
        if residual < tol:
            informed = _informed_fractions(alpha, theta, k_max)
            return SingleEquilibrium(
                theta=float(theta),
                informed_by_k=informed,
                aggregate=float(pmf @ informed),
                converged=True,
                iterations=it,
            )
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (residual {residual:.3e})",
        residual,
    )


@dataclass
class DualEquilibrium:
    """Equilibrium of two messages spreading on their own layers.

    iu/ui/ii are (k, l)-indexed arrays; ii factorizes exactly into the
    product of the per-layer informed fractions.
    """

    theta1: float
    theta2: float
    iu: np.ndarray
    ui: np.ndarray
    ii: np.ndarray
    aggregate_ii: float
    aggregate_1: float
    aggregate_2: float


def solve_dual(
    pmf1: np.ndarray,
    pmf2: np.ndarray,
    alpha1: float,
    alpha2: float,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    joint: np.ndarray | None = None,
) -> DualEquilibrium:
    """Solve both layers' equilibria; they are decoupled.

    The per-class fractions follow from the two Thetas.  aggregate_ii is
    weighted by `joint` when given (e.g. an empirical joint degree
    histogram), otherwise by the product of the marginals.
    """
    eq1 = solve_theta(pmf1, alpha1, tol, max_iter)
    eq2 = solve_theta(pmf2, alpha2, tol, max_iter)
    f1 = eq1.informed_by_k
    f2 = eq2.informed_by_k
    ii = np.outer(f1, f2)
    iu = np.outer(f1, 1.0 - f2)
    ui = np.outer(1.0 - f1, f2)
    if joint is None:
        joint_w = np.outer(np.asarray(pmf1, float), np.asarray(pmf2, float))
    else:
        joint_w = np.asarray(joint, dtype=float)
        joint_w = joint_w / joint_w.sum()
        if joint_w.shape[0] > ii.shape[0] or joint_w.shape[1] > ii.shape[1]:
            raise ValueError("joint pmf extends beyond the marginal truncation")
        pad = np.zeros_like(ii)
        pad[: joint_w.shape[0], : joint_w.shape[1]] = joint_w
        joint_w = pad
    return DualEquilibrium(
        theta1=eq1.theta,
        theta2=eq2.theta,
        iu=iu,
        ui=ui,
        ii=ii,
        aggregate_ii=float(np.sum(joint_w * ii)),
        aggregate_1=eq1.aggregate,
        aggregate_2=eq2.aggregate,
    )


@dataclass
class Trajectory:
    """Time-stepped per-degree-class fractions."""

    times: np.ndarray
    states: np.ndarray       # single: (T, K+1); dual: (T, 3, K+1, L+1)
    aggregate: np.ndarray    # population-weighted informed fraction(s) per time


_STATE_SLACK = 1e-6


def _check_time_grid(horizon: float, step: float) -> None:
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")


def integrate_single(
    pmf: np.ndarray,
    alpha: float,
    initial_fraction: float,
    horizon: float,
    step: float = 0.01,
) -> Trajectory:
    """Explicit Euler integration of the single-message dynamics.

    dI_k/dt = -I_k + alpha * k * (1 - I_k) * Theta(t), with Theta the
    edge-weighted informed fraction.  The equilibrium of the scheme
    coincides with the exact fixed point.
    """
    if not 0.0 <= initial_fraction <= 1.0:
        raise ValueError("initial_fraction must be in [0, 1]")
    _check_time_grid(horizon, step)
    pmf = np.asarray(pmf, dtype=float)
    mean, _ = pmf_moments(pmf)
    k = np.arange(len(pmf), dtype=float)
    kp = k * pmf
    n_steps = int(round(horizon / step))
    times = np.arange(n_steps + 1) * step
    states = np.empty((n_steps + 1, len(pmf)))
    informed = np.full(len(pmf), float(initial_fraction))
    states[0] = informed
    for t in range(1, n_steps + 1):
        theta = float(kp @ informed) / mean if mean > 0 else 0.0
        informed = informed + step * (-informed + alpha * k * (1.0 - informed) * theta)
        if informed.min() < -_STATE_SLACK or informed.max() > 1.0 + _STATE_SLACK:
            raise IntegrationError(
                f"state left [0, 1] at t={t * step:.3f}; reduce the step size"
            )
        states[t] = informed
    return Trajectory(times=times, states=states, aggregate=states @ pmf)


def integrate_dual(
    joint_pmf: np.ndarray,
    alpha1: float,
    alpha2: float,
    initial_fraction: float,
    horizon: float,
    step: float = 0.01,
) -> Trajectory:
    """Explicit Euler integration of the two-message dynamics.

    States per (k, l) class are (IU, UI, II) with UU the complement.
    joint_pmf is the (k, l) class-population distribution; the two
    Thetas weight the classes by their joint pmf, so supplying an
    empirical joint (instead of a product of marginals) changes the
    transient but not the equilibrium.
    """
    if not 0.0 <= initial_fraction <= 1.0:
        raise ValueError("initial_fraction must be in [0, 1]")
    _check_time_grid(horizon, step)
    joint = np.asarray(joint_pmf, dtype=float)
    kk, ll = joint.shape
    k = np.arange(kk, dtype=float)[:, None]
    l = np.arange(ll, dtype=float)[None, :]
    mean1 = float(np.sum(joint * k))
    mean2 = float(np.sum(joint * l))

    n_steps = int(round(horizon / step))
    times = np.arange(n_steps + 1) * step
    states = np.empty((n_steps + 1, 3, kk, ll))
    # Independent seeding per message: IU = q(1-q), UI = (1-q)q, II = q^2.
    q = float(initial_fraction)
    iu = np.full((kk, ll), q * (1.0 - q))
    ui = np.full((kk, ll), (1.0 - q) * q)
    ii = np.full((kk, ll), q * q)
    states[0] = (iu, ui, ii)
    for t in range(1, n_steps + 1):
        theta1 = float(np.sum(joint * k * (iu + ii))) / mean1 if mean1 > 0 else 0.0
        theta2 = float(np.sum(joint * l * (ui + ii))) / mean2 if mean2 > 0 else 0.0
        a1 = alpha1 * k * theta1
        a2 = alpha2 * l * theta2
        uu = 1.0 - iu - ui - ii
        d_iu = a1 * uu - (a2 + 1.0) * iu + ii
        d_ui = a2 * uu - (a1 + 1.0) * ui + ii
        d_ii = a1 * ui + a2 * iu - 2.0 * ii
        iu = iu + step * d_iu
        ui = ui + step * d_ui
        ii = ii + step * d_ii
        uu = 1.0 - iu - ui - ii
        stacked = np.stack((iu, ui, ii))
        if min(stacked.min(), uu.min()) < -_STATE_SLACK or max(
            stacked.max(), uu.max()
        ) > 1.0 + _STATE_SLACK:
            raise IntegrationError(
                f"state left [0, 1] at t={t * step:.3f}; reduce the step size"
            )
        states[t] = stacked
    agg_ii = np.einsum("tkl,kl->t", states[:, 2], joint)
    return Trajectory(times=times, states=states, aggregate=agg_ii)
