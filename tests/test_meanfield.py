"""Mean-field equilibria: fixed points, closed-form bound, transients."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dnet import (
    integrate_dual,
    integrate_single,
    solve_dual,
    solve_theta,
    theta_lower_bound,
)
from d2dnet import meanfield
from d2dnet.degree import (NetworkParams, _poisson_pmf, combined_pmf, default_k_max,
                           intra_layer_pmf, pmf_moments)
from d2dnet.meanfield import ConvergenceError, IntegrationError


def poisson_pmf(mean, k_max=None):
    if k_max is None:
        k_max = int(mean + 12 * math.sqrt(mean) + 30)
    k = np.arange(k_max + 1)
    logp = -mean + k * np.log(mean) - np.array([math.lgamma(i + 1) for i in k])
    return np.exp(logp)


def damped_theta(pmf, alpha):
    """Reference Theta: damped fixed-point iteration theta <- (theta + F(theta)) / 2.

    Starts from theta = 1 and shares no code with the bracketed solver.
    """
    mean, m2 = pmf_moments(pmf)
    if mean <= 0.0 or alpha == 0.0 or alpha * m2 < mean:
        return 0.0
    k = np.arange(len(pmf), dtype=float)
    kp = k * pmf
    theta = 1.0
    for _ in range(100_000):
        akt = alpha * k * theta
        f = float(kp @ (akt / (1.0 + akt))) / mean
        residual = abs(theta - f)
        theta = 0.5 * (theta + f)
        if residual < 1e-10:
            return theta
    raise AssertionError(f"damped iteration did not converge (residual {residual:.3e})")


def point_mass(k):
    pmf = np.zeros(k + 1)
    pmf[k] = 1.0
    return pmf


def joint_euler(joint, alpha1, alpha2, q, horizon, step):
    """Reference: Euler steps of the joint (IU, UI, II) state per (k, l) class.

    Yields the three (K+1, L+1) arrays at every time point, t = 0 included.
    """
    k = np.arange(joint.shape[0])[:, None]
    ell = np.arange(joint.shape[1])[None, :]
    mean1, mean2 = (joint * k).sum(), (joint * ell).sum()
    iu = np.full(joint.shape, q * (1 - q))
    ui = iu.copy()
    ii = np.full(joint.shape, q * q)
    yield iu, ui, ii
    for _ in range(int(round(horizon / step))):
        a1 = alpha1 * k * (joint * k * (iu + ii)).sum() / mean1
        a2 = alpha2 * ell * (joint * ell * (ui + ii)).sum() / mean2
        uu = 1 - iu - ui - ii
        iu, ui, ii = (iu + step * (a1 * uu - (a2 + 1) * iu + ii),
                      ui + step * (a2 * uu - (a1 + 1) * ui + ii),
                      ii + step * (a1 * ui + a2 * iu - 2 * ii))
        yield iu, ui, ii


def bisection_theta(pmf, alpha):
    """Reference Theta: bisection on the stationarity summed exactly.

    The excess alpha * sum_k k^2 P(k) / (1 + alpha k theta) - E[K] is
    decreasing in theta; each term is rounded once and math.fsum adds
    them without further rounding.  Returns the largest float at which
    the excess is still positive.
    """
    mean = math.fsum(k * p for k, p in enumerate(pmf))

    def excess(theta):
        return math.fsum([alpha * k * k * p / (1.0 + alpha * k * theta)
                          for k, p in enumerate(pmf)] + [-mean])

    lo, hi = 0.0, 1.0
    assert excess(lo) > 0.0 > excess(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


# The README deployment (degree and simulate examples), ranges in km.
README_NETWORKS = [NetworkParams(p=0.4, lam=50.0, r1=1.0, r2=0.5),
                   NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)]


def random_pmf(rng):
    """A pmf with random support length and random, partly zero, weights."""
    pmf = rng.random(rng.integers(2, 80)) ** 3
    pmf[:-1][rng.random(len(pmf) - 1) < 0.3] = 0.0
    return pmf / pmf.sum()


def theta_cases():
    """(name, pmf, alpha) over the equilibrium table's Poisson grid, the
    README pmfs and random pmfs, sub- and supercritical alike."""
    for mean in (3.14, 6.28, 12.57):
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
            yield f"poisson_{mean}", _poisson_pmf(mean, default_k_max(mean)), alpha
    for i, params in enumerate(README_NETWORKS):
        pmfs = {"combined": combined_pmf(params), "layer1": intra_layer_pmf(params, 1),
                "layer2": intra_layer_pmf(params, 2)}
        for name, pmf in pmfs.items():
            for alpha in (0.1, 0.3, 0.6, 1.0):
                yield f"readme{i}_{name}", pmf, alpha
    rng = np.random.default_rng(20261020)
    for i in range(60):
        pmf = random_pmf(rng)
        yield f"random{i}", pmf, float(rng.uniform(0.02, 1.0))


class TestNewton:
    """solve_theta's Newton iteration, checked by properties of its root."""

    def test_matches_bisection_of_exact_sum(self):
        checked = 0
        for name, pmf, alpha in theta_cases():
            mean, m2 = pmf_moments(pmf)
            if alpha * m2 < 1.01 * mean:
                continue
            checked += 1
            theta = solve_theta(pmf, alpha).theta
            reference = bisection_theta(pmf, alpha)
            assert abs(theta - reference) <= 1e-12 * reference, (name, alpha, theta, reference)
        assert checked >= 70

    def test_never_below_the_jensen_bound(self):
        for name, pmf, alpha in theta_cases():
            mean, _ = pmf_moments(pmf)
            assert solve_theta(pmf, alpha).theta >= theta_lower_bound(alpha, mean), (name, alpha)

    def test_positive_exactly_above_the_threshold(self):
        # alpha a few ulps either side of E[K]/E[K^2].
        for name, pmf, _ in theta_cases():
            mean, m2 = pmf_moments(pmf)
            alpha = mean / m2
            for _ in range(4):
                alpha = np.nextafter(alpha, 0.0)
            for _ in range(9):
                if alpha <= 1.0:
                    theta = solve_theta(pmf, float(alpha)).theta
                    assert (theta > 0.0) == (alpha * m2 > mean), (name, alpha)
                alpha = np.nextafter(alpha, 2.0)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_threshold_itself_gives_zero(self, k):
        mean, m2 = pmf_moments(point_mass(k))
        assert 1.0 / k * m2 == mean
        eq = solve_theta(point_mass(k), 1.0 / k)
        assert eq.theta == 0.0 and eq.aggregate == 0.0

    def test_point_mass_returns_the_tight_bound(self):
        # Jensen's bound is exact for a point mass: the start is the root.
        for k, alpha in ((4, 0.5), (8, 0.25), (3, 1.0)):
            assert solve_theta(point_mass(k), alpha).theta == theta_lower_bound(alpha, k)

    def test_running_out_of_steps_raises(self, monkeypatch):
        pmf = _poisson_pmf(3.14, default_k_max(3.14))
        monkeypatch.setattr(meanfield, "_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError, match="Newton did not settle in 1 steps") as raised:
            solve_theta(pmf, 0.3)
        assert raised.value.residual > 0.0
        monkeypatch.undo()
        assert solve_theta(pmf, 0.3).theta > 0.0


class TestSolveTheta:
    def test_subcritical_rate_gives_zero(self):
        pmf = poisson_pmf(4.0)
        eq = solve_theta(pmf, alpha=0.1)   # exact threshold is 0.2
        assert eq.theta == 0.0
        assert np.all(eq.informed_by_k == 0.0)
        assert eq.aggregate == 0.0

    def test_deterministic_degree_closed_form(self):
        eq = solve_theta(point_mass(4), alpha=0.5)
        assert eq.theta == pytest.approx(0.5, abs=1e-10)
        assert eq.aggregate == pytest.approx(0.5, abs=1e-10)

    def test_dense_poisson_above_closed_form_bound(self):
        eq = solve_theta(poisson_pmf(12.57), alpha=0.3)
        assert theta_lower_bound(0.3, 12.57) < eq.theta < 1.0

    def test_agrees_with_damped_iteration(self):
        pmf = poisson_pmf(8.0)
        for alpha in (0.2, 0.4, 0.9):
            a = solve_theta(pmf, alpha)
            assert a.theta == pytest.approx(damped_theta(pmf, alpha), abs=1e-7)

    @pytest.mark.parametrize("pmf", [[0.5, -0.1, 0.6], [0.2, 0.3, 0.4], [0.5, math.nan, 0.5]])
    def test_rejects_invalid_pmf(self, pmf):
        with pytest.raises(ValueError):
            solve_theta(np.array(pmf), 0.5)

    def test_rejects_pmf_that_is_not_1d(self):
        with pytest.raises(ValueError, match="pmf must be a nonempty 1-D array"):
            solve_theta(np.array([[0.5, 0.5]]), 0.5)

    @given(mean=st.floats(1.5, 25.0), alpha=st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_fixed_point_residual(self, mean, alpha):
        pmf = poisson_pmf(mean)
        eq = solve_theta(pmf, alpha)
        if eq.theta > 0.0:
            k = np.arange(len(pmf))
            m = (k * pmf).sum()
            rhs = (k * pmf * alpha * k * eq.theta / (1 + alpha * k * eq.theta)).sum() / m
            assert rhs == pytest.approx(eq.theta, abs=1e-8)
            assert 0.0 < eq.aggregate < 1.0


class TestThetaLowerBound:
    def test_reference_values(self):
        assert theta_lower_bound(0.3, 12.57) == pytest.approx(0.73477, abs=1e-4)
        assert theta_lower_bound(1.0, 5.0) == pytest.approx(0.8, abs=1e-12)

    def test_clamped_at_zero_below_relaxed_threshold(self):
        assert theta_lower_bound(0.2, 5.0) == 0.0
        assert theta_lower_bound(0.1, 4.0) == 0.0

    @pytest.mark.parametrize("alpha, mean", [(math.nan, 5.0), (0.3, math.nan)])
    def test_rejects_nan(self, alpha, mean):
        with pytest.raises(ValueError):
            theta_lower_bound(alpha, mean)

    @given(alpha=st.floats(0.05, 1.0), mean=st.floats(1.0, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_bound_never_exceeds_exact_theta(self, alpha, mean):
        eq = solve_theta(poisson_pmf(mean), alpha)
        assert theta_lower_bound(alpha, mean) <= eq.theta + 1e-9


class TestSolveDual:
    def test_zero_factor_kills_joint_informedness(self):
        pmf1 = poisson_pmf(2.0)
        pmf2 = poisson_pmf(10.0)
        eq = solve_dual(pmf1, pmf2, alpha1=0.05, alpha2=0.8)
        assert eq.theta1 == 0.0
        assert eq.theta2 > 0.0
        assert np.all(eq.ii == 0.0)
        assert eq.aggregate_2 > 0.0

    def test_symmetric_layers(self):
        pmf = poisson_pmf(6.0)
        eq = solve_dual(pmf, pmf, alpha1=0.5, alpha2=0.5)
        assert eq.theta1 == pytest.approx(eq.theta2, abs=1e-12)
        assert eq.aggregate_1 == pytest.approx(eq.aggregate_2, abs=1e-12)

    def test_product_form_arithmetic(self):
        # With alpha*k*theta products of 2.1 and 1.0 the joint informed
        # probability is (2.1/3.1) * (1/2).
        assert (2.1 / 3.1) * (1.0 / 2.0) == pytest.approx(0.3387, abs=1e-4)
        pmf1 = poisson_pmf(7.0)
        pmf2 = poisson_pmf(9.0)
        eq = solve_dual(pmf1, pmf2, alpha1=0.4, alpha2=0.6)
        k = np.arange(len(pmf1))
        ell = np.arange(len(pmf2))
        f1 = 0.4 * k * eq.theta1 / (1 + 0.4 * k * eq.theta1)
        f2 = 0.6 * ell * eq.theta2 / (1 + 0.6 * ell * eq.theta2)
        assert np.allclose(eq.ii, np.outer(f1, f2), atol=1e-12)


class TestIntegrateSingle:
    def test_zero_seeding_stays_zero(self):
        traj = integrate_single(poisson_pmf(8.0), 0.5, initial_fraction=0.0,
                                horizon=10.0)
        assert np.all(traj.aggregate == 0.0)

    def test_terminal_state_matches_fixed_point(self):
        pmf = poisson_pmf(12.57)
        traj = integrate_single(pmf, 0.3, initial_fraction=0.01, horizon=200.0)
        eq = solve_theta(pmf, 0.3)
        assert traj.aggregate[-1] == pytest.approx(eq.aggregate, abs=1e-4)

    def test_plateaus_ordered_by_mean_degree(self):
        plateaus = [
            integrate_single(poisson_pmf(m), 0.3, 0.01, horizon=200.0).aggregate[-1]
            for m in (2.0, 4.0, 8.0)
        ]
        assert plateaus[0] < plateaus[1] < plateaus[2]

    def test_fractions_stay_in_unit_interval(self):
        traj = integrate_single(poisson_pmf(10.0), 0.8, 0.5, horizon=50.0)
        assert np.all(traj.states >= -1e-9)
        assert np.all(traj.states <= 1.0 + 1e-9)

    @pytest.mark.parametrize("grid", [
        {"step": 0.0}, {"step": -0.01}, {"horizon": math.inf}, {"horizon": math.nan}])
    def test_rejects_invalid_time_grid(self, grid):
        with pytest.raises(ValueError):
            integrate_single(poisson_pmf(8.0), 0.5, 0.1, **{"horizon": 10.0, **grid})

    @pytest.mark.parametrize("pmf", [[0.5, math.nan, 0.5], [0.5, -0.1, 0.6], [0.5, math.inf, 0.5]])
    def test_rejects_invalid_pmf(self, pmf):
        with pytest.raises(ValueError):
            integrate_single(np.array(pmf), 0.5, 0.1, horizon=10.0)

    def test_rejects_empty_pmf(self):
        with pytest.raises(ValueError, match="pmf must be a nonempty 1-D array"):
            integrate_single(np.array([]), 0.5, 0.1, horizon=1.0)

    def test_rejects_pmf_whose_moments_overflow(self):
        with pytest.raises(ValueError, match="pmf moments are not finite"):
            integrate_single([1e306] * 200, 0.5, 0.5, 1.0, 0.1)

    def test_nan_state_counts_as_outside(self, monkeypatch):
        # Without the moment check, inf / inf makes Theta and every later
        # state NaN; the range check must still stop the run.
        def unchecked_moments(pmf):
            k = np.arange(len(pmf), dtype=float)
            return float(np.sum(k * pmf)), float(np.sum(k * k * pmf))

        monkeypatch.setattr(meanfield, "pmf_moments", unchecked_moments)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as raised:
            integrate_single([1e306] * 200, 0.5, 0.5, 1.0, 0.1)
        assert str(raised.value) == "state left [0, 1] at t=0.100; reduce the step size"

    @pytest.mark.parametrize("horizon", [-1.0, -1e-9])
    def test_rejects_negative_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            integrate_single(poisson_pmf(8.0), 0.5, 0.1, horizon=horizon)

    @pytest.mark.parametrize("alpha", [math.nan, -0.5, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError):
            integrate_single(poisson_pmf(5.0), alpha, 0.1, horizon=10.0)


def euler_states(pmf, alpha, initial_fraction, n_steps, step):
    """Reference: the out-of-place Euler update, one new array per step.

    Theta is the same fixed-order sum as integrate_single's, not a BLAS dot.
    """
    k = np.arange(len(pmf), dtype=float)
    kp = k * pmf
    mean, _ = pmf_moments(pmf)
    informed = np.full(len(pmf), float(initial_fraction))
    states = [informed]
    for _ in range(n_steps):
        theta = float(np.sum(kp * informed)) / mean
        informed = informed + step * (-informed + alpha * k * (1.0 - informed) * theta)
        states.append(informed)
    return np.array(states)


class TestIntegrationError:
    """A step too large for Euler raises IntegrationError at the first bad state."""

    PMFS = {"readme": combined_pmf(README_NETWORKS[1]), "poisson": poisson_pmf(12.57),
            "three": np.array([0.2, 0.3, 0.5])}
    # Unchecked, these runs overflow to inf within their horizon.
    OVERFLOWING = [
        ("readme", 0.3, 0.01, 5000.0, 1.0, "2.000"),
        ("poisson", 1.0, 1.0, 5000.0, 3.0, "3.000"),
    ]
    # (pmf, alpha, initial fraction, horizon, step) and the t of the first
    # state outside [-1e-6, 1 + 1e-6], as the per-step check reported it.
    CASES = [
        ("readme", 0.3, 0.01, 50.0, 0.5, "1.500"),
        ("readme", 0.3, 0.01, 50.0, 0.2, "1.400"),
        ("readme", 1.0, 0.5, 10.0, 0.25, "0.250"),
        ("readme", 0.1, 0.01, 50.0, 1.5, "1.500"),
        ("poisson", 0.3, 0.01, 50.0, 0.5, "3.000"),
        ("poisson", 0.5, 0.01, 50.0, 0.9, "1.800"),
        ("three", 1.0, 1.0, 50.0, 3.0, "3.000"),
    ] + OVERFLOWING

    @pytest.mark.parametrize("name, alpha, q, horizon, step, t", CASES)
    def test_names_the_first_state_outside(self, name, alpha, q, horizon, step, t):
        # pyproject.toml turns a RuntimeWarning, such as an overflow, into an error.
        with pytest.raises(IntegrationError) as raised:
            integrate_single(self.PMFS[name], alpha, q, horizon, step)
        assert str(raised.value) == f"state left [0, 1] at t={t}; reduce the step size"

    @pytest.mark.parametrize("name, alpha, q, horizon, step, t", OVERFLOWING)
    def test_later_steps_overflow(self, name, alpha, q, horizon, step, t):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            euler_states(self.PMFS[name], alpha, q, int(round(horizon / step)), step)

    @pytest.mark.parametrize("name, alpha, q", [("readme", 0.3, 0.01), ("three", 1.0, 0.5)])
    def test_states_match_out_of_place_euler(self, name, alpha, q):
        pmf = self.PMFS[name]
        traj = integrate_single(pmf, alpha, q, horizon=20.0, step=0.01)
        assert np.array_equal(traj.states, euler_states(pmf, alpha, q, 2000, 0.01))


class TestIntegrateDual:
    def test_zero_rates_keep_everyone_uninformed(self):
        joint = np.outer(poisson_pmf(4.0, 20), poisson_pmf(4.0, 20))
        traj = integrate_dual(joint, 0.0, 0.0, initial_fraction=0.0, horizon=5.0)
        assert np.all(traj.aggregate == 0.0)

    def test_terminal_joint_matches_equilibrium(self):
        pmf1 = poisson_pmf(6.0)
        pmf2 = poisson_pmf(8.0)
        joint = np.outer(pmf1, pmf2)
        traj = integrate_dual(joint, 0.4, 0.4, initial_fraction=0.05, horizon=200.0)
        eq = solve_dual(pmf1, pmf2, 0.4, 0.4)
        terminal_ii = np.outer(traj.layer1.states[-1], traj.layer2.states[-1])
        assert np.allclose(terminal_ii, eq.ii, atol=1e-3)

    def test_rejects_zero_step(self):
        joint = np.outer(poisson_pmf(4.0, 20), poisson_pmf(4.0, 20))
        with pytest.raises(ValueError):
            integrate_dual(joint, 0.5, 0.5, initial_fraction=0.1, horizon=5.0, step=0.0)

    def test_state_sums_conserved(self):
        pmf1 = poisson_pmf(5.0, 25)
        pmf2 = poisson_pmf(5.0, 25)
        traj = integrate_dual(np.outer(pmf1, pmf2), 0.5, 0.3,
                              initial_fraction=0.1, horizon=20.0)
        # IU + UI + II = 1 - UU per (k, l) class.
        occupied = 1 - (1 - traj.layer1.states)[:, :, None] * (1 - traj.layer2.states)[:, None, :]
        assert np.all(occupied <= 1.0 + 1e-8)
        assert np.all(occupied >= -1e-8)

    def test_layers_match_joint_euler(self):
        joint = np.outer(poisson_pmf(5.0, 25), poisson_pmf(5.0, 25))
        traj = integrate_dual(joint, 0.5, 0.3, initial_fraction=0.1, horizon=20.0)
        states = joint_euler(joint, 0.5, 0.3, 0.1, horizon=20.0, step=0.01)
        for t, (iu, ui, ii) in enumerate(states):
            assert np.abs(iu + ii - traj.layer1.states[t][:, None]).max() <= 1e-12
            assert np.abs(ui + ii - traj.layer2.states[t][None, :]).max() <= 1e-12
        assert t == len(traj.layer1.times) - 1

    def test_joint_euler_product_drift_is_first_order_in_step(self):
        # The exact II is x1 * x2; the joint Euler scheme drifts from it
        # by O(step), which integrate_dual avoids by forming the product.
        joint = np.outer(poisson_pmf(5.0, 25), poisson_pmf(5.0, 25))
        drift = []
        for step in (0.02, 0.01, 0.005):
            drift.append(max(
                np.abs(ii - (iu + ii) * (ui + ii)).max()
                for iu, ui, ii in joint_euler(joint, 0.5, 0.3, 0.1, horizon=20.0, step=step)))
        ratios = np.array(drift[:-1]) / np.array(drift[1:])
        assert np.all((ratios > 1.8) & (ratios < 2.2)), (drift, ratios)

    @pytest.mark.parametrize("alphas", [(math.nan, 0.5), (0.5, -0.5)])
    def test_rejects_alpha_outside_unit_interval(self, alphas):
        joint = np.outer(poisson_pmf(4.0, 20), poisson_pmf(4.0, 20))
        with pytest.raises(ValueError):
            integrate_dual(joint, *alphas, initial_fraction=0.1, horizon=5.0)

    @pytest.mark.parametrize("entry", [math.nan, -0.1, math.inf])
    def test_rejects_invalid_joint(self, entry):
        joint = np.outer(poisson_pmf(4.0, 20), poisson_pmf(4.0, 20))
        joint[3, 4] = entry
        with pytest.raises(ValueError):
            integrate_dual(joint, 0.5, 0.5, initial_fraction=0.1, horizon=5.0)

    def test_rejects_joint_that_is_not_2d(self):
        with pytest.raises(ValueError, match="joint_pmf must be a nonempty 2-D array"):
            integrate_dual(poisson_pmf(4.0, 20), 0.5, 0.5, initial_fraction=0.1, horizon=5.0)
