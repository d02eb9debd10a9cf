"""Analytic degree laws, moments and epidemic thresholds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from d2dnet import (
    NetworkParams,
    ParamBounds,
    ThreatModel,
    combined_pmf,
    degree_moments,
    epidemic_threshold,
    intra_layer_pmf,
    spreading_rates,
)
from d2dnet.degree import (
    DegenerateModelError,
    _poisson_pmf,
    default_k_max,
    pmf_moments,
    threshold_from_pmf,
)


def poisson_pmf(mean, k_max):
    k = np.arange(k_max + 1)
    logp = -mean + k * np.log(mean) - [math.lgamma(i + 1) for i in k]
    return np.exp(logp)


# Poisson means lam * pi * r^2 of the README examples (lam 15 and 50 per
# km^2, r 0.5 and 1 km), then very small and large means and mu = 0.
README_MEANS = [lam * math.pi * r * r for lam in (15.0, 50.0) for r in (0.5, 1.0)]
EDGE_MEANS = [0.0, 1e-300, 1e-12, 1e-3, 0.1, 1.0, 7.5, 30.0, 123.4, 400.0, 2500.0]


class TestPoissonPmf:
    @pytest.mark.parametrize("mu", README_MEANS + EDGE_MEANS)
    def test_equals_scipy_stats_bit_for_bit(self, mu):
        k_max = default_k_max(mu)
        expected = stats.poisson.pmf(np.arange(k_max + 1), mu)
        assert np.array_equal(_poisson_pmf(mu, k_max), expected)


class TestSpreadingRates:
    def test_uniform_threat_scales_all_rates(self):
        rates = spreading_rates(ThreatModel(delta=0.2))
        assert rates.alpha1 == rates.alpha2 == rates.alphac == pytest.approx(0.8)

    def test_fully_jammed(self):
        rates = spreading_rates(ThreatModel(delta=1.0))
        assert rates.alpha1 == rates.alpha2 == rates.alphac == 0.0

    def test_perfect_transmission(self):
        rates = spreading_rates(ThreatModel(delta=0.0))
        assert rates.alpha1 == rates.alpha2 == rates.alphac == 1.0

    def test_per_channel_success_probabilities(self):
        rates = spreading_rates(ThreatModel(delta=0.5, ps1=0.8, ps2=0.6, psc=0.4))
        assert rates.alpha1 == pytest.approx(0.4)
        assert rates.alpha2 == pytest.approx(0.3)
        assert rates.alphac == pytest.approx(0.2)


class TestIntraLayerPmf:
    def test_no_dual_radio_devices_means_isolated_layer1(self):
        pmf = intra_layer_pmf(NetworkParams(p=0.0, lam=10.0, r1=0.5, r2=0.3), layer=1)
        assert pmf[0] == pytest.approx(1.0)
        assert np.all(pmf[1:] == 0.0)

    def test_layer1_zero_degree_mass(self):
        # P(K1=0) = (1-p) + p*exp(-p*lam*pi*r1^2)
        params = NetworkParams(p=0.5, lam=10.0, r1=0.5, r2=0.3)
        pmf = intra_layer_pmf(params, layer=1)
        expected = 0.5 + 0.5 * math.exp(-0.5 * 10.0 * math.pi * 0.25)
        assert pmf[0] == pytest.approx(expected, abs=1e-12)
        assert pmf[0] == pytest.approx(0.5098, abs=2e-4)

    def test_layer2_is_poisson(self):
        params = NetworkParams(p=0.5, lam=10.0, r1=0.5, r2=0.3)
        pmf = intra_layer_pmf(params, layer=2)
        mean = 10.0 * math.pi * 0.09
        assert pmf[2] == pytest.approx(math.exp(-mean) * mean**2 / 2.0, abs=1e-12)
        assert pmf[2] == pytest.approx(0.2369, abs=1e-3)

    def test_layer1_tail_is_thinned_poisson(self):
        params = NetworkParams(p=0.4, lam=12.0, r1=0.8, r2=0.2)
        pmf = intra_layer_pmf(params, layer=1)
        mean = params.lam1 * math.pi * params.r1**2
        ref = 0.4 * poisson_pmf(mean, len(pmf) - 1)
        assert np.allclose(pmf[1:], ref[1:], atol=1e-12)

    def test_rejects_unknown_layer(self):
        with pytest.raises(ValueError):
            intra_layer_pmf(NetworkParams(p=0.5, lam=10.0, r1=0.5, r2=0.3), layer=3)

    @given(
        p=st.floats(0.0, 1.0),
        lam=st.floats(0.5, 30.0),
        r1=st.floats(0.05, 1.5),
        scale=st.floats(0.1, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_pmf_is_normalized(self, p, lam, r1, scale):
        params = NetworkParams(p=p, lam=lam, r1=r1, r2=r1 * scale)
        for layer in (1, 2):
            pmf = intra_layer_pmf(params, layer)
            assert np.all(pmf >= 0.0)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-9)


class TestCombinedPmf:
    def test_reduces_to_layer2_when_no_dual_radio(self):
        params = NetworkParams(p=0.0, lam=10.0, r1=0.5, r2=0.3)
        combined = combined_pmf(params)
        layer2 = intra_layer_pmf(params, layer=2, k_max=len(combined) - 1)
        assert np.array_equal(combined, layer2)

    def test_mean_matches_closed_form(self):
        params = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)
        mean, _ = pmf_moments(combined_pmf(params))
        expected = 0.4 * (0.4 * 15.0) * math.pi + 15.0 * math.pi * 0.25
        assert mean == pytest.approx(expected, abs=1e-8)

    def test_all_dual_radio_equal_ranges_has_even_support(self):
        # Every layer-1 neighbour is duplicated in layer 2, so the combined
        # degree is twice a Poisson count and odd degrees are impossible.
        params = NetworkParams(p=1.0, lam=8.0, r1=0.4, r2=0.4)
        pmf = combined_pmf(params)
        assert np.all(pmf[1::2] == 0.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    @given(
        p=st.floats(0.0, 1.0),
        lam=st.floats(0.5, 20.0),
        r1=st.floats(0.05, 1.2),
        scale=st.floats(0.1, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_mean_additivity(self, p, lam, r1, scale):
        params = NetworkParams(p=p, lam=lam, r1=r1, r2=r1 * scale)
        mean, _ = pmf_moments(combined_pmf(params))
        m1, _ = pmf_moments(intra_layer_pmf(params, 1))
        m2, _ = pmf_moments(intra_layer_pmf(params, 2))
        assert mean == pytest.approx(m1 + m2, abs=1e-8)
        assert mean == pytest.approx(params.mean_kc(), abs=1e-8)


class TestMoments:
    def test_layer1_mean(self):
        params = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)
        model = degree_moments(params)
        assert model.mean_k1 == pytest.approx(0.16 * 15.0 * math.pi, abs=1e-8)
        assert model.mean_k1 == pytest.approx(7.540, abs=1e-3)

    def test_dense_layer_reference_mean(self):
        params = NetworkParams(p=1.0, lam=100.0, r1=0.2, r2=0.2)
        model = degree_moments(params)
        assert model.mean_k2 == pytest.approx(12.57, abs=1e-2)

    def test_all_dual_radio_combined_mean(self):
        params = NetworkParams(p=1.0, lam=9.0, r1=0.7, r2=0.3)
        model = degree_moments(params)
        assert model.mean_kc == pytest.approx(
            9.0 * math.pi * (0.49 + 0.09), abs=1e-8
        )


class TestEpidemicThreshold:
    def test_poisson_mean_four(self):
        # E[K^2] = m + m^2 = 20 for Poisson(4).
        thr = threshold_from_pmf(poisson_pmf(4.0, 60))
        assert thr.exact == pytest.approx(0.2, abs=1e-9)
        assert thr.relaxed == pytest.approx(0.25, abs=1e-9)

    def test_deterministic_degree(self):
        pmf = np.zeros(8)
        pmf[7] = 1.0
        thr = threshold_from_pmf(pmf)
        assert thr.exact == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert thr.relaxed == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_relaxed_dominates_and_gap_shrinks(self):
        gaps = []
        for mean in (2.0, 4.0, 8.0, 16.0, 32.0):
            thr = threshold_from_pmf(poisson_pmf(mean, int(mean + 12 * mean**0.5 + 30)))
            assert thr.relaxed >= thr.exact
            gaps.append(thr.relaxed - thr.exact)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_per_channel_threshold_from_model(self):
        params = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)
        model = degree_moments(params)
        for which in ("layer1", "layer2", "combined"):
            thr = epidemic_threshold(model, which)
            assert 0.0 < thr.exact <= thr.relaxed

    def test_zero_mean_degree_is_degenerate(self):
        pmf = np.zeros(5)
        pmf[0] = 1.0
        with pytest.raises(DegenerateModelError):
            threshold_from_pmf(pmf)


class TestParamValidation:
    def test_rejects_r2_above_r1(self):
        with pytest.raises(ValueError):
            NetworkParams(p=0.5, lam=10.0, r1=0.2, r2=0.5)

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ValueError):
            NetworkParams(p=1.2, lam=10.0, r1=0.5, r2=0.3)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            NetworkParams(p=0.5, lam=-1.0, r1=0.5, r2=0.3)

    @pytest.mark.parametrize("fields", [
        {"lam": math.nan}, {"lam": math.inf}, {"r1": math.inf}, {"r2": math.nan}])
    def test_rejects_non_finite_values(self, fields):
        with pytest.raises(ValueError):
            NetworkParams(**{"p": 0.5, "lam": 10.0, "r1": 0.5, "r2": 0.3, **fields})

    @pytest.mark.parametrize("field, value", [
        ("p_min", math.nan), ("p_max", math.nan), ("lambda_min", math.nan),
        ("lambda_max", math.inf), ("r1_min", math.nan), ("r1_max", math.inf),
        ("r2_min", math.nan), ("r2_max", math.inf)])
    def test_rejects_non_finite_bounds(self, field, value):
        with pytest.raises(ValueError):
            ParamBounds(**{field: value})

    def test_rejects_invalid_threat(self):
        with pytest.raises(ValueError):
            ThreatModel(delta=1.5)
