"""Tests for the stylized-facts statistics.

Every estimator is checked against a brute-force reimplementation
(plain Python loops with math.fsum), and where scipy offers the same
quantity it is used as a second, independently written oracle. Control
series with known behavior (white noise, an AR(1) process, Student-t
draws) pin down the verdict logic.
"""

import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from marketgan.market_data import fixture_path, load_return_series
from marketgan.stylized_facts import (
    FACT_NAMES,
    DegenerateSeriesError,
    FactThresholds,
    InsufficientDataError,
    acf,
    aggregational_gaussianity_profile,
    aggregational_gaussianity_verdict,
    confidence_band,
    evaluate,
    ks_statistic,
    leverage_effect_score,
    moments,
    volatility_clustering_score,
    wasserstein1,
)

ORACLE_TOL = 1e-12


def brute_acf(values, max_lag):
    n = len(values)
    mean = math.fsum(values) / n
    c = [v - mean for v in values]
    denom = math.fsum(x * x for x in c)
    return np.array([
        math.fsum(c[t] * c[t + tau] for t in range(n - tau)) / denom
        for tau in range(1, max_lag + 1)
    ])


def brute_moments(values):
    n = len(values)
    mean = math.fsum(values) / n
    d = [v - mean for v in values]
    m2 = math.fsum(x * x for x in d) / n
    m3 = math.fsum(x ** 3 for x in d) / n
    m4 = math.fsum(x ** 4 for x in d) / n
    return m3 / m2 ** 1.5, m4 / m2 ** 2 - 3.0


def brute_ks(a, b):
    best = 0.0
    for x in list(a) + list(b):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def searchsorted_ks(a, b):
    """The straightforward vectorized KS: both empirical CDFs evaluated by
    binary search at every merged sample point."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def brute_leverage(values, max_lag):
    out = []
    for tau in range(1, max_lag + 1):
        x = list(values[:-tau])
        y = [v ** 2 for v in values[tau:]]
        mx = math.fsum(x) / len(x)
        my = math.fsum(y) / len(y)
        dx = [v - mx for v in x]
        dy = [v - my for v in y]
        sx = math.sqrt(math.fsum(v * v for v in dx) / len(dx))
        sy = math.sqrt(math.fsum(v * v for v in dy) / len(dy))
        cov = math.fsum(p * q for p, q in zip(dx, dy)) / len(dx)
        out.append(cov / (sx * sy))
    return np.array(out)


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, 1.0, size=n)
    values = np.empty(n)
    values[0] = eps[0]
    for t in range(1, n):
        values[t] = phi * values[t - 1] + eps[t]
    return values


@pytest.fixture(scope="module")
def fixture_returns():
    return load_return_series(fixture_path()).values


@pytest.fixture(scope="module")
def white_noise():
    return np.random.default_rng(7).normal(0.0, 1.0, size=4000)


class TestAcf:
    def test_hand_computed_lag_one(self):
        np.testing.assert_array_equal(acf(np.array([1.0, 2.0, 3.0, 4.0]), 1), [0.25])

    def test_matches_brute_force(self, rng):
        values = rng.normal(0.0, 1.0, size=300)
        np.testing.assert_allclose(acf(values, 25), brute_acf(values, 25),
                                   atol=ORACLE_TOL)

    def test_bounded_by_one(self, rng):
        values = np.repeat(rng.normal(size=40), 3)  # strongly autocorrelated
        rho = acf(values, 15)
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)

    def test_needs_enough_observations(self):
        with pytest.raises(InsufficientDataError):
            acf(np.arange(21.0), 20)

    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            acf(np.ones(50), 5)

    def test_max_lag_validation(self):
        with pytest.raises(ValueError, match="max_lag"):
            acf(np.arange(10.0), 0)

    def test_rejects_matrix_and_non_finite(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            acf(np.zeros((3, 3)), 1)
        with pytest.raises(ValueError, match="non-finite"):
            acf(np.array([1.0, np.nan, 2.0, 3.0]), 1)


class TestConfidenceBand:
    def test_value(self):
        assert confidence_band(400) == 0.1
        assert confidence_band(400, multiplier=3.0) == pytest.approx(0.15)

    def test_returns_plain_float(self):
        assert type(confidence_band(100)) is float


def linear_score(values) -> float:
    return evaluate(values, values).linear_score


def verdicts(values) -> dict:
    return evaluate(values, values).verdicts


class TestLinearUnpredictability:
    def test_white_noise_scores_high(self, white_noise):
        assert linear_score(white_noise) >= 0.9

    def test_ar1_scores_zero(self):
        assert linear_score(ar1(0.9, 4000, seed=3)) == 0.0

    def test_is_fraction_inside_band(self, white_noise):
        rho = acf(white_noise, 20)
        band = confidence_band(len(white_noise))
        expected = float((np.abs(rho) < band).mean())
        assert linear_score(white_noise) == expected


class TestMoments:
    def test_hand_computed(self):
        m = moments(np.array([1.0, 2.0, 3.0, 4.0]))
        assert m.mean == 2.5
        assert m.std == pytest.approx(math.sqrt(1.25), rel=1e-15)
        assert m.skewness == 0.0
        assert m.excess_kurtosis == pytest.approx(2.5625 / 1.5625 - 3.0, rel=1e-15)
        assert m.n == 4

    def test_matches_brute_force(self, rng):
        values = rng.standard_t(5, size=500)
        skew, exkurt = brute_moments(values)
        m = moments(values)
        assert m.skewness == pytest.approx(skew, abs=ORACLE_TOL)
        assert m.excess_kurtosis == pytest.approx(exkurt, abs=ORACLE_TOL)

    def test_matches_scipy_biased_estimators(self, rng):
        values = rng.normal(1.0, 2.0, size=400)
        m = moments(values)
        assert m.skewness == pytest.approx(
            float(scipy.stats.skew(values, bias=True)), rel=1e-10)
        assert m.excess_kurtosis == pytest.approx(
            float(scipy.stats.kurtosis(values, fisher=True, bias=True)), rel=1e-10)

    def test_matches_brute_force_heavy_tails(self, rng):
        values = rng.standard_t(3, size=2000) * 0.01
        skew, exkurt = brute_moments(values)
        m = moments(values)
        assert m.skewness == pytest.approx(skew, abs=ORACLE_TOL)
        assert m.excess_kurtosis == pytest.approx(exkurt, abs=ORACLE_TOL)

    def test_needs_four_observations(self):
        with pytest.raises(InsufficientDataError):
            moments(np.array([1.0, 2.0, 3.0]))

    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            moments(np.full(10, 2.5))


class TestVolatilityClustering:
    def test_is_acf_of_absolute_returns(self, white_noise):
        rho_abs, summary = volatility_clustering_score(white_noise, 20, 10)
        np.testing.assert_array_equal(rho_abs, acf(np.abs(white_noise), 20))
        assert summary == pytest.approx(float(rho_abs[:10].mean()), rel=1e-15)

    def test_white_noise_has_no_clustering(self, white_noise):
        _, summary = volatility_clustering_score(white_noise)
        assert abs(summary) < 0.05

    def test_summary_lags_validation(self, white_noise):
        with pytest.raises(ValueError, match="summary_lags"):
            volatility_clustering_score(white_noise, max_lag=10, summary_lags=11)
        with pytest.raises(ValueError, match="summary_lags"):
            volatility_clustering_score(white_noise, max_lag=10, summary_lags=0)


class TestTailAndSkewVerdicts:
    def test_student_t_has_heavy_tails(self):
        values = np.random.default_rng(11).standard_t(4, size=4000)
        assert verdicts(values)["heavy_tails"]

    def test_gaussian_does_not(self, white_noise):
        assert not verdicts(white_noise)["heavy_tails"]

    def test_negative_skew_passes_gain_loss(self, rng):
        values = -rng.lognormal(0.0, 0.5, size=2000)
        assert verdicts(values)["gain_loss_asymmetry"]

    def test_positive_skew_fails_gain_loss(self, rng):
        values = rng.lognormal(0.0, 0.5, size=2000)
        assert not verdicts(values)["gain_loss_asymmetry"]


class TestAggregationalGaussianity:
    def test_scale_one_equals_base_kurtosis(self, white_noise):
        profile = aggregational_gaussianity_profile(white_noise, scales=(1, 5))
        assert profile[0] == moments(white_noise).excess_kurtosis

    def test_matches_brute_force_blocks(self, rng):
        values = rng.standard_t(5, size=1000)
        profile = aggregational_gaussianity_profile(values, scales=(1, 4, 21))
        for i, k in enumerate((1, 4, 21)):
            blocks = len(values) // k
            agg = [math.fsum(values[j * k:(j + 1) * k]) for j in range(blocks)]
            _, exkurt = brute_moments(np.array(agg))
            assert profile[i] == pytest.approx(exkurt, abs=ORACLE_TOL)

    def test_student_t_profile_decreases(self):
        values = np.random.default_rng(11).standard_t(4, size=4000)
        profile = aggregational_gaussianity_profile(values)
        assert profile[0] > 1.0
        assert profile[-1] < profile[0]

    def test_verdict_branches(self):
        assert aggregational_gaussianity_verdict([8.0, 4.0, 2.0])        # big drop
        assert not aggregational_gaussianity_verdict([8.0, 7.5, 7.0])    # no drop
        assert aggregational_gaussianity_verdict([0.3, 0.1, 0.2])        # thin already
        assert not aggregational_gaussianity_verdict([0.3, 0.5, 1.4])    # thickened
        assert aggregational_gaussianity_verdict([4.0, 3.0],
                                                 min_relative_drop=0.25)
        assert not aggregational_gaussianity_verdict([4.0, 3.1],
                                                     min_relative_drop=0.25)

    def test_needs_thirty_blocks(self):
        with pytest.raises(InsufficientDataError, match="30 blocks"):
            aggregational_gaussianity_profile(np.random.default_rng(0).normal(size=100),
                                              scales=(1, 21))

    def test_scales_validation(self, white_noise):
        with pytest.raises(ValueError, match="positive"):
            aggregational_gaussianity_profile(white_noise, scales=(1, 0))
        with pytest.raises(ValueError, match="positive"):
            aggregational_gaussianity_profile(white_noise, scales=())


class TestKolmogorovSmirnov:
    def test_hand_computed(self):
        assert ks_statistic(np.array([1.0, 2.0]), np.array([1.5, 2.0, 3.0])) == 0.5

    def test_identical_samples_give_zero(self, rng):
        a = rng.normal(size=100)
        assert ks_statistic(a, a.copy()) == 0.0

    def test_symmetric(self, rng):
        a, b = rng.normal(size=80), rng.normal(0.5, 1.5, size=60)
        assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_matches_brute_force(self, rng):
        a, b = rng.normal(size=60), rng.normal(0.3, 1.2, size=80)
        assert ks_statistic(a, b) == pytest.approx(brute_ks(a, b), abs=ORACLE_TOL)

    def test_matches_scipy(self, rng):
        a, b = rng.normal(size=300), rng.standard_t(4, size=200)
        expected = float(scipy.stats.ks_2samp(a, b).statistic)
        assert ks_statistic(a, b) == pytest.approx(expected, rel=1e-12)

    def test_handles_ties_across_samples(self):
        a = np.array([0.0, 1.0, 1.0, 2.0])
        b = np.array([1.0, 1.0, 1.0, 3.0])
        assert ks_statistic(a, b) == pytest.approx(brute_ks(a, b), abs=ORACLE_TOL)

    def test_empty_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            ks_statistic(np.array([]), np.array([1.0]))

    # few distinct values, so ties within and across the samples are common
    tied_samples = st.lists(st.integers(-4, 4).map(lambda k: k / 4.0),
                            min_size=1, max_size=60)

    @given(tied_samples, tied_samples)
    @settings(max_examples=300)
    def test_equals_searchsorted_formula_exactly(self, a, b):
        a, b = np.array(a), np.array(b)
        assert ks_statistic(a, b) == searchsorted_ks(a, b)
        assert ks_statistic(a, a.copy()) == searchsorted_ks(a, a) == 0.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_equals_searchsorted_formula_on_floats(self, a, b):
        a, b = np.array(a), np.array(b)
        assert ks_statistic(a, b) == searchsorted_ks(a, b)


class TestWasserstein:
    def test_identical_samples_give_zero(self, rng):
        a = rng.normal(size=50)
        assert wasserstein1(a, a.copy()) == 0.0

    def test_equal_sizes_match_scipy(self, rng):
        a, b = rng.normal(size=256), rng.normal(0.2, 1.1, size=256)
        expected = float(scipy.stats.wasserstein_distance(a, b))
        assert wasserstein1(a, b) == pytest.approx(expected, rel=1e-10)

    def test_equal_sizes_are_sorted_mean_abs_diff(self, rng):
        a, b = rng.normal(size=64), rng.normal(size=64)
        expected = math.fsum(abs(x - y) for x, y in
                             zip(sorted(a), sorted(b))) / 64
        assert wasserstein1(a, b) == pytest.approx(expected, abs=ORACLE_TOL)

    def test_unequal_sizes_trim_to_shorter(self):
        a = np.array([3.0, 0.0, 1.0, 2.0])
        b = np.array([20.0, 10.0])
        assert wasserstein1(a, b) == pytest.approx((10.0 + 19.0) / 2.0)
        assert wasserstein1(b, a) == wasserstein1(a, b)

    def test_empty_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            wasserstein1(np.array([1.0]), np.array([]))


class TestLeverageEffect:
    def test_matches_brute_force(self, rng):
        values = rng.normal(0.0, 0.01, size=400)
        np.testing.assert_allclose(leverage_effect_score(values, 10),
                                   brute_leverage(values, 10), atol=ORACLE_TOL)

    def test_detects_builtin_asymmetry(self):
        # Volatility reacts to the sign of the previous shock: negative
        # returns today inflate tomorrow's squared return.
        rng = np.random.default_rng(5)
        n = 6000
        values = np.empty(n)
        sigma = 0.01
        values[0] = sigma * rng.normal()
        for t in range(1, n):
            sigma = 0.01 * (1.0 + (2.0 if values[t - 1] < 0 else 0.0))
            values[t] = sigma * rng.normal()
        lev = leverage_effect_score(values, 3)
        assert lev[0] < -0.05

    def test_needs_enough_observations(self):
        with pytest.raises(InsufficientDataError):
            leverage_effect_score(np.arange(11.0), 10)

    def test_matches_brute_force_heavy_tails(self, rng):
        values = rng.standard_t(3, size=1500) * 0.01
        np.testing.assert_allclose(leverage_effect_score(values, 10),
                                   brute_leverage(values, 10), atol=ORACLE_TOL)

    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            leverage_effect_score(np.ones(50), 2)

    def test_constant_squares_are_degenerate(self):
        # the returns vary, but their squares (the other side) do not
        with pytest.raises(DegenerateSeriesError):
            leverage_effect_score(np.tile([1.0, -1.0], 25), 3)


class TestControls:
    """Known processes must land on the right side of every verdict."""

    def test_white_noise_verdicts(self, white_noise):
        reference = np.random.default_rng(8).normal(0.0, 1.0, size=4000)
        report = evaluate(white_noise, reference)
        assert report.verdicts["linear_unpredictability"] is True
        assert report.verdicts["volatility_clustering"] is False
        assert report.verdicts["heavy_tails"] is False

    def test_ar1_fails_linear_unpredictability(self, white_noise):
        report = evaluate(ar1(0.9, 4000, seed=3), white_noise)
        assert report.verdicts["linear_unpredictability"] is False

    def test_student_t_tail_verdicts(self, white_noise):
        values = np.random.default_rng(11).standard_t(4, size=4000)
        report = evaluate(values, white_noise)
        assert report.verdicts["heavy_tails"] is True
        assert report.verdicts["aggregational_gaussianity"] is True


class TestFixtureRegression:
    """Frozen statistics of the bundled fixture, computed once and pinned."""

    def test_moments(self, fixture_returns):
        m = moments(fixture_returns)
        assert m.n == 5029
        assert m.mean == pytest.approx(8.101158578085222e-05, rel=1e-12)
        assert m.std == pytest.approx(0.011467365483225342, rel=1e-12)
        assert m.skewness == pytest.approx(-0.4318957085612606, rel=1e-12)
        assert m.excess_kurtosis == pytest.approx(6.952836714687821, rel=1e-12)

    def test_linear_unpredictability(self, fixture_returns):
        assert linear_score(fixture_returns) == 0.95

    def test_volatility_clustering(self, fixture_returns):
        rho_abs, summary = volatility_clustering_score(fixture_returns)
        assert rho_abs[0] == pytest.approx(0.18859567120511728, rel=1e-12)
        assert summary == pytest.approx(0.1557787962640313, rel=1e-12)

    def test_aggregational_profile(self, fixture_returns):
        profile = aggregational_gaussianity_profile(fixture_returns)
        expected = [6.952836714687821, 2.9671105256259356,
                    2.255466457264573, 0.9534664897248635]
        np.testing.assert_allclose(profile, expected, rtol=1e-12)

    def test_leverage(self, fixture_returns):
        lev = leverage_effect_score(fixture_returns, 3)
        expected = [-0.06167431835873018, -0.061684588708381026,
                    -0.023944525940928794]
        np.testing.assert_allclose(lev, expected, rtol=1e-12)

    def test_all_five_verdicts_pass(self, fixture_returns):
        report = evaluate(fixture_returns, fixture_returns)
        assert all(report.verdicts[name] for name in FACT_NAMES)
        assert report.ks == 0.0
        assert report.w1 == 0.0


class TestReportSchema:
    def test_top_level_key_order(self, white_noise):
        report = evaluate(white_noise, white_noise)
        assert list(report.to_dict().keys()) == [
            "moments", "linear_unpredictability", "heavy_tails",
            "volatility_clustering", "gain_loss_asymmetry",
            "aggregational_gaussianity", "ks_statistic", "wasserstein1",
            "leverage_effect", "verdicts", "thresholds",
        ]

    def test_serializes_to_json(self, white_noise):
        d = evaluate(white_noise, white_noise).to_dict()
        parsed = json.loads(json.dumps(d))
        assert parsed["ks_statistic"] == 0.0
        assert set(parsed["verdicts"]) == set(FACT_NAMES)

    def test_verdicts_are_plain_bools(self, white_noise):
        for v in evaluate(white_noise, white_noise).verdicts.values():
            assert type(v) is bool

    def test_thresholds_echoed_and_roundtrip(self, white_noise):
        t = FactThresholds(volatility_summary_min=0.07)
        report = evaluate(white_noise, white_noise, thresholds=t)
        d = report.to_dict()["thresholds"]
        assert d["volatility_summary_min"] == 0.07
        assert FactThresholds.from_dict(d) == t

    def test_custom_thresholds_change_verdicts(self, white_noise):
        strict = FactThresholds(heavy_tails_min_excess_kurtosis=-1.0)
        report = evaluate(white_noise, white_noise, thresholds=strict)
        assert report.verdicts["heavy_tails"] is True


finite_series = st.lists(
    st.floats(min_value=-0.5, max_value=0.5), min_size=30, max_size=120,
).filter(lambda v: float(np.var(v)) > 1e-3)


class TestInvarianceProperties:
    @given(finite_series,
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=60)
    def test_acf_is_shift_and_scale_invariant(self, values, a, b):
        values = np.array(values)
        np.testing.assert_allclose(acf(a * values + b, 5), acf(values, 5),
                                   atol=1e-9)

    @given(finite_series,
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=60)
    def test_shape_moments_are_shift_and_scale_invariant(self, values, a, b):
        values = np.array(values)
        m0, m1 = moments(values), moments(a * values + b)
        assert m1.skewness == pytest.approx(m0.skewness, abs=1e-8)
        assert m1.excess_kurtosis == pytest.approx(m0.excess_kurtosis, abs=1e-8)

    @given(finite_series, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60)
    def test_leverage_is_scale_invariant(self, values, a):
        values = np.array(values)
        try:
            base = leverage_effect_score(values, 3)
        except DegenerateSeriesError:
            assume(False)
        np.testing.assert_allclose(leverage_effect_score(a * values, 3),
                                   base, atol=1e-9)

    @given(finite_series, finite_series)
    @settings(max_examples=60)
    def test_ks_bounds_and_self_distance(self, a, b):
        a, b = np.array(a), np.array(b)
        d = ks_statistic(a, b)
        assert 0.0 <= d <= 1.0
        assert ks_statistic(a, a) == 0.0

    @given(finite_series)
    @settings(max_examples=60)
    def test_w1_nonnegative_and_zero_on_self(self, a):
        a = np.array(a)
        assert wasserstein1(a, a) == 0.0
        shifted = a + 0.25
        assert wasserstein1(a, shifted) == pytest.approx(0.25, rel=1e-9)
