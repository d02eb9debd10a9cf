"""Degree-based mean-field dynamics and equilibria.

The central object is Theta, the probability that a random neighbour of
a device is informed.  At equilibrium it solves the self-consistent
fixed point

    Theta = (1/E[K]) * sum_k k P(k) * a k Theta / (1 + a k Theta)

which has the trivial root 0 and, for a >= E[K]/E[K^2], a unique
positive root.  The positive root is found by bracketed root finding on
the (monotone) stationarity equation, with `_brent`: a line-for-line
port of scipy's C ``brentq`` that reproduces its iterates, and so its
Theta, bit for bit without importing ``scipy.optimize``.

Two messages spread independently, each on its own layer, so both the
two-message equilibrium and its transient are two single-layer solves:
the both-informed fraction of a (k, l) class is exactly the product of
the per-layer informed fractions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


_RESIDUAL_TOL = 1e-10


def _check_pmf(pmf, name: str = "pmf", ndim: int = 1) -> np.ndarray:
    pmf = np.asarray(pmf, dtype=float)
    if pmf.ndim != ndim or pmf.size == 0:
        raise ValueError(f"{name} must be a nonempty {ndim}-D array, got shape {pmf.shape}")
    if not (np.isfinite(pmf) & (pmf >= 0.0)).all():
        raise ValueError(f"{name} entries must be finite and nonnegative")
    return pmf


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def _informed_fractions(alpha: float, theta: float, k_max: int) -> np.ndarray:
    k = np.arange(k_max + 1, dtype=float)
    akt = alpha * k * theta
    return akt / (1.0 + akt)


def _brent(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f bracketed by [xa, xb], by Brent's method.

    A line-for-line port of scipy's C ``brentq`` (Brent 1973, ch. 4):
    the same iterates, the same interpolate / extrapolate / bisect
    choice and the same stop test |half bracket| < (xtol + rtol*|x|)/2,
    with the operations in the same order, so the root is bit-identical
    to ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol,
    maxiter=maxiter)``.  Like it, this raises ValueError on a NaN value
    or a bracket whose ends have the same sign; an exhausted maxiter
    raises ConvergenceError in place of scipy's RuntimeError.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN; the root find cannot continue")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(
        f"no root within {maxiter} iterations; last x {xcur!r}", abs(fcur)
    )


def theta_lower_bound(alpha: float, mean_degree: float) -> float:
    """Closed-form Jensen lower bound max(0, 1 - 1/(alpha*E[K]))."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not mean_degree >= 0:
        raise ValueError(f"mean_degree must be nonnegative, got {mean_degree}")
    if alpha * mean_degree <= 1.0:
        return 0.0
    return 1.0 - 1.0 / (alpha * mean_degree)


def solve_theta(pmf: np.ndarray, alpha: float) -> SingleEquilibrium:
    """Solve the Theta fixed point for one degree pmf.

    Below the bifurcation threshold E[K]/E[K^2] the only equilibrium is
    zero; above it the unique positive root is bracketed in (0, 1].  The
    zero-vs-positive branch is decided from the pmf moments, never from
    iteration behaviour.  The root comes from `_brent`, a port of scipy's
    ``brentq`` that gives the same Theta bit for bit.
    """
    _check_alpha(alpha)
    pmf = _check_pmf(pmf)
    if not abs(pmf.sum() - 1.0) <= 1e-9:
        raise ValueError("pmf must sum to 1")
    mean, m2 = pmf_moments(pmf)
    k_max = len(pmf) - 1
    if mean <= 0.0 or alpha == 0.0 or alpha * m2 < mean:
        # Subcritical: only the noninformative solution exists.
        return SingleEquilibrium(theta=0.0, informed_by_k=np.zeros(k_max + 1), aggregate=0.0)

    k = np.arange(k_max + 1, dtype=float)
    kp = k * pmf

    def stationarity(theta: float) -> float:
        # (1/E[K]) * sum_k k^2 P(k) a / (1 + a k theta) - 1; the positive
        # fixed point is its root, and it is strictly decreasing in theta.
        return float(np.sum(kp * k * alpha / (1.0 + alpha * k * theta))) / mean - 1.0

    if stationarity(1.0) >= 0.0:
        theta = 1.0
    else:
        theta = _brent(stationarity, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    informed = _informed_fractions(alpha, theta, k_max)
    residual = abs(theta - float(kp @ informed) / mean)
    if residual > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"fixed-point residual {residual:.3e} above tol {_RESIDUAL_TOL:.0e}", residual
        )
    return SingleEquilibrium(
        theta=float(theta),
        informed_by_k=informed,
        aggregate=float(pmf @ informed),
    )


@dataclass
class DualEquilibrium:
    """Equilibrium of two messages spreading on their own layers.

    ii is the (k, l)-indexed both-informed fraction; it factorizes
    exactly into the product of the per-layer informed fractions.
    """

    theta1: float
    theta2: float
    ii: np.ndarray
    aggregate_ii: float
    aggregate_1: float
    aggregate_2: float


def solve_dual(
    pmf1: np.ndarray,
    pmf2: np.ndarray,
    alpha1: float,
    alpha2: float,
) -> DualEquilibrium:
    """Solve both layers' equilibria; they are decoupled.

    The per-class fractions follow from the two Thetas; aggregate_ii is
    weighted by the product of the marginals.
    """
    eq1 = solve_theta(pmf1, alpha1)
    eq2 = solve_theta(pmf2, alpha2)
    f1 = eq1.informed_by_k
    f2 = eq2.informed_by_k
    ii = np.outer(f1, f2)
    joint = np.outer(np.asarray(pmf1, float), np.asarray(pmf2, float))
    return DualEquilibrium(
        theta1=eq1.theta,
        theta2=eq2.theta,
        ii=ii,
        aggregate_ii=float(np.sum(joint * ii)),
        aggregate_1=eq1.aggregate,
        aggregate_2=eq2.aggregate,
    )


@dataclass
class Trajectory:
    """Time-stepped informed fractions of one layer's degree classes."""

    times: np.ndarray
    states: np.ndarray       # (T, K+1)
    aggregate: np.ndarray    # population-weighted informed fraction per time


@dataclass
class DualTrajectory:
    """Two-message transient: one single-layer trajectory per message.

    The both-informed fraction of class (k, l) at step t is exactly
    layer1.states[t, k] * layer2.states[t, l].
    """

    layer1: Trajectory
    layer2: Trajectory
    aggregate: np.ndarray    # joint-weighted both-informed fraction per time


_STATE_SLACK = 1e-6


def _check_fraction(initial_fraction: float) -> None:
    if not 0.0 <= initial_fraction <= 1.0:
        raise ValueError(f"initial_fraction must be in [0, 1], got {initial_fraction}")


def _check_time_grid(horizon: float, step: float) -> None:
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")


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
    coincides with the exact fixed point.  The pmf need not sum to 1.
    """
    _check_fraction(initial_fraction)
    _check_alpha(alpha)
    _check_time_grid(horizon, step)
    pmf = _check_pmf(pmf)
    mean, _ = pmf_moments(pmf)
    k = np.arange(len(pmf), dtype=float)
    kp = k * pmf
    ak = alpha * k
    n_steps = int(round(horizon / step))
    times = np.arange(n_steps + 1) * step
    states = np.empty((n_steps + 1, len(pmf)))
    states[0] = float(initial_fraction)
    # Row t is written in place in the operation order of
    # x + step * (-x + alpha * k * (1 - x) * theta), which fixes its bits.
    # A run that leaves [0, 1] may overflow in later steps; the range
    # check after the loop names its first step outside.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, n_steps + 1):
            informed, row = states[t - 1], states[t]
            theta = float(kp @ informed) / mean if mean > 0 else 0.0
            np.subtract(1.0, informed, out=row)
            row *= ak
            row *= theta
            row -= informed
            row *= step
            row += informed
    outside = (states.min(axis=1) < -_STATE_SLACK) | (states.max(axis=1) > 1.0 + _STATE_SLACK)
    if outside.any():
        t = int(outside.argmax())
        raise IntegrationError(f"state left [0, 1] at t={t * step:.3f}; reduce the step size")
    return Trajectory(times=times, states=states, aggregate=states @ pmf)


def integrate_dual(
    joint_pmf: np.ndarray,
    alpha1: float,
    alpha2: float,
    initial_fraction: float,
    horizon: float,
    step: float = 0.01,
) -> DualTrajectory:
    """Explicit Euler integration of the two-message dynamics.

    joint_pmf is the (k, l) class-population distribution.  Each message
    spreads on its own layer, so its informed fraction per class depends
    on that layer's degree only and follows the single-message dynamics
    on the joint's marginal; with independent seeding the both-informed
    fraction is their exact product.  The aggregate weights that product
    by the joint, so an empirical joint (instead of a product of
    marginals) changes the aggregate but not the per-layer transients.
    """
    joint = _check_pmf(joint_pmf, "joint_pmf", ndim=2)
    layer1 = integrate_single(joint.sum(1), alpha1, initial_fraction, horizon, step)
    layer2 = integrate_single(joint.sum(0), alpha2, initial_fraction, horizon, step)
    aggregate = np.einsum("tk,kl,tl->t", layer1.states, joint, layer2.states, optimize=True)
    return DualTrajectory(layer1, layer2, aggregate)
