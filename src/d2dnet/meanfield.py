"""Degree-based mean-field dynamics and equilibria.

The central object is Theta, the probability that a random neighbour of
a device is informed.  At equilibrium it solves the self-consistent
fixed point

    Theta = (1/E[K]) * sum_k k P(k) * a k Theta / (1 + a k Theta)

which has the trivial root 0 and, for a E[K^2] > E[K], a unique
positive root.  Dividing by Theta leaves a stationarity that is convex
and decreasing in Theta, so Newton's method started at the closed-form
lower bound max(0, 1 - 1/(a E[K])) climbs onto the positive root from
below and never overshoots it.

Every sum over degree classes runs in numpy's own loops, a ufunc
reduction or an einsum without optimize, whose order depends only on
the array shape, never in a BLAS call, so no result depends on the BLAS
kernel the CPU selects.

Two messages spread independently, each on its own layer, so both the
two-message equilibrium and its transient are two single-layer solves:
the both-informed fraction of a (k, l) class is exactly the product of
the per-layer informed fractions.
"""
from __future__ import annotations

import math
import sys
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
_NEWTON_STEPS = 100


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

    At or below the bifurcation threshold, alpha * E[K^2] <= E[K], the
    only equilibrium is zero; above it the unique positive root comes
    from Newton's method started at `theta_lower_bound`.  The
    zero-vs-positive branch is decided from the pmf moments, never from
    iteration behaviour.

    Raises ValueError for a pmf whose mean E[K] is positive but
    subnormal: the fixed point's residual cannot be resolved there.
    """
    _check_alpha(alpha)
    pmf = _check_pmf(pmf)
    if not abs(pmf.sum() - 1.0) <= 1e-9:
        raise ValueError("pmf must sum to 1")
    mean, m2 = pmf_moments(pmf)
    if 0.0 < mean < sys.float_info.min:
        raise ValueError(f"pmf mean E[K] = {mean!r} is subnormal (below "
                         f"{sys.float_info.min!r}); Theta cannot be resolved")
    k_max = len(pmf) - 1
    if mean <= 0.0 or alpha * m2 <= mean:
        # Subcritical: only the noninformative solution exists.
        return SingleEquilibrium(theta=0.0, informed_by_k=np.zeros(k_max + 1), aggregate=0.0)

    k = np.arange(k_max + 1, dtype=float)
    # k2p sums to m2 in pmf_moments' order, so from theta = 0 the first
    # excess is alpha * m2 - mean > 0 and the iterate leaves zero.
    k2p = k * k * pmf
    ak = alpha * k
    theta = theta_lower_bound(alpha, mean)
    for _ in range(_NEWTON_STEPS):
        # excess(theta) = alpha * sum_k k^2 P(k) / (1 + a k theta) - E[K]:
        # convex and decreasing, zero at the positive fixed point.
        d = 1.0 + ak * theta
        w = k2p / d
        excess = alpha * float(np.sum(w)) - mean
        step = excess / (alpha * float(np.sum(w * ak / d)))
        if not theta + step > theta:
            break
        theta += step
    else:
        raise ConvergenceError(
            f"Newton did not settle in {_NEWTON_STEPS} steps; last theta {theta!r}",
            abs(excess) / mean,
        )
    informed = _informed_fractions(alpha, theta, k_max)
    residual = abs(theta - float(np.sum(k * pmf * informed)) / mean)
    if not residual <= _RESIDUAL_TOL:
        raise ConvergenceError(
            f"fixed-point residual {residual:.3e} above tol {_RESIDUAL_TOL:.0e}", residual
        )
    return SingleEquilibrium(
        theta=theta,
        informed_by_k=informed,
        aggregate=float(np.sum(pmf * informed)),
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
            # np.add.reduce is np.sum without its Python-level dispatch.
            theta = float(np.add.reduce(kp * informed)) / mean if mean > 0 else 0.0
            np.subtract(1.0, informed, out=row)
            row *= ak
            row *= theta
            row -= informed
            row *= step
            row += informed
    # Written as "not inside" so that a row holding NaN counts as outside.
    outside = ~((states.min(axis=1) >= -_STATE_SLACK) & (states.max(axis=1) <= 1.0 + _STATE_SLACK))
    if outside.any():
        t = int(outside.argmax())
        raise IntegrationError(f"state left [0, 1] at t={t * step:.3f}; reduce the step size")
    # einsum without optimize sums in numpy's own loops, never in BLAS.
    return Trajectory(times=times, states=states, aggregate=np.einsum("tk,k->t", states, pmf))


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
    # Two einsum contractions without optimize: numpy's own loops, no BLAS.
    by_k = np.einsum("kl,tl->tk", joint, layer2.states)
    aggregate = np.einsum("tk,tk->t", layer1.states, by_k)
    return DualTrajectory(layer1, layer2, aggregate)
