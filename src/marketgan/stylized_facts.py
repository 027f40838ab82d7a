"""Quantitative checks of the statistical regularities of return series.

Daily asset returns are not Gaussian white noise: they show near-zero
linear autocorrelation yet strongly autocorrelated magnitudes, heavy
tails, negative skewness, and a distribution that Gaussianizes under
temporal aggregation. This module scores a candidate series on each of
those regularities, measures its distributional distance to a reference
series, and folds everything into a report with boolean verdicts.

The facts themselves are qualitative; every numeric threshold used to
turn a score into a verdict lives in FactThresholds and is echoed into
the report, so downstream consumers always see which bar was applied.
All estimators are biased plug-in versions (divide by N), which keeps
them reproducible by brute-force oracles to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np


class DegenerateSeriesError(ValueError):
    """The series has no variance, so the statistic is undefined."""


class InsufficientDataError(ValueError):
    """The series is too short for the requested statistic."""


DEFAULT_SCALES = (1, 5, 21, 63)


@dataclass(frozen=True)
class FactThresholds:
    """Every knob that converts a score into a pass/fail verdict."""
    acf_band_multiplier: float = 2.0            # band = multiplier / sqrt(N)
    linear_max_lag: int = 20
    linear_min_fraction: float = 0.9            # lags inside the band
    volatility_max_lag: int = 20
    volatility_summary_lags: int = 10           # summary = mean over lags 1..this
    volatility_summary_min: float = 0.05
    heavy_tails_min_excess_kurtosis: float = 1.0
    gain_loss_max_skewness: float = 0.0         # pass when skewness is below this
    aggregational_scales: tuple = DEFAULT_SCALES
    aggregational_min_relative_drop: float = 0.25
    aggregational_gaussian_level: float = 1.0   # "already thin-tailed" bar
    leverage_max_lag: int = 10

    def to_dict(self) -> dict:
        d = asdict(self)
        d["aggregational_scales"] = list(self.aggregational_scales)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FactThresholds":
        d = dict(d)
        if "aggregational_scales" in d:
            d["aggregational_scales"] = tuple(d["aggregational_scales"])
        return cls(**d)


def _as_values(r) -> np.ndarray:
    values = np.asarray(getattr(r, "values", r), dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("expected a one-dimensional series")
    if not np.isfinite(values).all():
        raise ValueError("series contains non-finite values")
    return values


def acf(r, max_lag: int) -> np.ndarray:
    """Sample autocorrelations rho(1..max_lag).

    rho(tau) = sum_t (r_t - rbar)(r_{t+tau} - rbar) / sum_t (r_t - rbar)^2
    with the full-sample mean in both places, so |rho| <= 1 and a
    brute-force double loop reproduces it exactly.
    """
    values = _as_values(r)
    max_lag = int(max_lag)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    n = len(values)
    if n <= max_lag + 1:
        raise InsufficientDataError(
            f"need more than {max_lag + 1} observations for {max_lag} lags, got {n}")
    centered = values - values.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise DegenerateSeriesError("autocorrelation of a constant series is undefined")
    out = np.empty(max_lag)
    for tau in range(1, max_lag + 1):
        out[tau - 1] = np.dot(centered[:-tau], centered[tau:]) / denom
    return out


def confidence_band(n: int, multiplier: float = 2.0) -> float:
    """Large-sample white-noise band for sample autocorrelations."""
    return float(multiplier / np.sqrt(n))


def volatility_clustering_score(r, max_lag: int = 20, summary_lags: int = 10):
    """ACF of absolute returns and its short-range mean.

    Returns (acf_abs, summary) where summary averages lags 1..summary_lags.
    Positive and slowly decaying for real returns, near zero for i.i.d.
    noise.
    """
    values = _as_values(r)
    if summary_lags < 1 or summary_lags > max_lag:
        raise ValueError("summary_lags must lie in [1, max_lag]")
    rho_abs = acf(np.abs(values), max_lag)
    return rho_abs, float(rho_abs[:summary_lags].mean())


@dataclass(frozen=True)
class Moments:
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    n: int

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "skewness": self.skewness,
                "excess_kurtosis": self.excess_kurtosis, "n": self.n}


def moments(r) -> Moments:
    """Biased plug-in sample moments.

    skewness = m3 / m2^(3/2), excess kurtosis = m4 / m2^2 - 3 with
    central moments m_k = mean((r - rbar)^k). The powers are plain
    products of d = r - rbar and d2 = d * d (m3 from d2 * d, m4 from
    d2 * d2), never a general float power.
    """
    values = _as_values(r)
    n = len(values)
    if n < 4:
        raise InsufficientDataError(f"moments need at least 4 observations, got {n}")
    mean = float(values.mean())
    d = values - mean
    d2 = d * d
    m2 = float(d2.mean())
    if m2 == 0.0:
        raise DegenerateSeriesError("moments of a constant series are undefined")
    m3 = float((d2 * d).mean())
    m4 = float((d2 * d2).mean())
    return Moments(mean=mean, std=float(np.sqrt(m2)), skewness=m3 / m2 ** 1.5,
                   excess_kurtosis=m4 / m2 ** 2 - 3.0, n=n)


def aggregational_gaussianity_profile(r, scales=DEFAULT_SCALES) -> np.ndarray:
    """Excess kurtosis of k-day non-overlapping aggregate returns, one
    entry per scale. Heavy tails at scale 1 should wash out as k grows."""
    values = _as_values(r)
    scales = tuple(int(k) for k in scales)
    if not scales or any(k < 1 for k in scales):
        raise ValueError("scales must be positive integers")
    n = len(values)
    worst = max(scales)
    if n // worst < 30:
        raise InsufficientDataError(
            f"need at least 30 blocks at scale {worst}; series of length {n} "
            f"gives {n // worst}")
    profile = np.empty(len(scales))
    for i, k in enumerate(scales):
        blocks = n // k
        agg = values[: blocks * k].reshape(blocks, k).sum(axis=1)
        profile[i] = moments(agg).excess_kurtosis
    return profile


def aggregational_gaussianity_verdict(profile, min_relative_drop: float = 0.25,
                                      gaussian_level: float = 1.0) -> bool:
    """Pass when kurtosis drops by min_relative_drop from the first scale
    to the last, or when the series is thin-tailed at scale 1 already
    (then it must simply stay at or below gaussian_level)."""
    profile = np.asarray(profile, dtype=np.float64)
    first, last = float(profile[0]), float(profile[-1])
    if first > gaussian_level:
        return last <= first * (1.0 - min_relative_drop)
    return last <= gaussian_level


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the sup distance between
    empirical CDFs, evaluated on the merged sample points.

    Both samples are sorted, then merged by a stable sort of their
    concatenation (linear for two presorted runs). The count of a-values
    at or below each merged point is the running total of the points
    that came from a; the CDFs are read at the last point of each run of
    equal values, where they count every tie.
    """
    a = np.sort(_as_values(a))
    b = np.sort(_as_values(b))
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        raise InsufficientDataError("ks_statistic needs non-empty samples")
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    count_a = np.cumsum(order < na)
    count_b = np.arange(1, na + nb + 1) - count_a
    grid = merged[order]
    run_end = np.empty(na + nb, dtype=bool)
    np.not_equal(grid[1:], grid[:-1], out=run_end[:-1])
    run_end[-1] = True
    cdf_a = count_a[run_end] / na
    cdf_b = count_b[run_end] / nb
    return float(np.abs(cdf_a - cdf_b).max())


def wasserstein1(a, b) -> float:
    """Order-1 Wasserstein distance between equal-size empirical samples:
    the mean absolute difference of the sorted values (exact optimal
    transport for equal weights). Unequal sizes are trimmed to the
    shorter length after sorting, dropping the largest surplus values."""
    a = np.sort(_as_values(a))
    b = np.sort(_as_values(b))
    if len(a) == 0 or len(b) == 0:
        raise InsufficientDataError("wasserstein1 needs non-empty samples")
    m = min(len(a), len(b))
    return float(np.abs(a[:m] - b[:m]).mean())


def leverage_effect_score(r, max_lag: int = 10) -> np.ndarray:
    """Pearson correlation of r_t with r_{t+tau}^2 for tau = 1..max_lag.

    Negative at short lags for equity indices: falls raise future
    volatility more than rallies do. Informational (no default verdict).
    Each lag centres the two slices and takes three dot products; a slice
    whose centred sum of squares is zero makes the lag degenerate.
    """
    values = _as_values(r)
    max_lag = int(max_lag)
    n = len(values)
    if n <= max_lag + 1:
        raise InsufficientDataError(
            f"need more than {max_lag + 1} observations, got {n}")
    squares = values * values
    out = np.empty(max_lag)
    for tau in range(1, max_lag + 1):
        dx = values[:-tau] - values[:-tau].mean()
        dy = squares[tau:] - squares[tau:].mean()
        sxx = float(np.dot(dx, dx))
        syy = float(np.dot(dy, dy))
        if sxx == 0.0 or syy == 0.0:
            raise DegenerateSeriesError("leverage correlation undefined for constant inputs")
        out[tau - 1] = float(np.dot(dx, dy)) / (math.sqrt(sxx) * math.sqrt(syy))
    return out


FACT_NAMES = ("linear_unpredictability", "heavy_tails", "volatility_clustering",
              "gain_loss_asymmetry", "aggregational_gaussianity")


@dataclass
class StylizedFactsReport:
    moments: Moments
    linear_score: float
    linear_band: float
    acf_returns: np.ndarray
    acf_abs: np.ndarray
    volatility_summary: float
    aggregational_profile: np.ndarray
    leverage: np.ndarray
    ks: float
    w1: float
    verdicts: dict
    thresholds: FactThresholds

    def to_dict(self) -> dict:
        t = self.thresholds
        return {
            "moments": self.moments.to_dict(),
            "linear_unpredictability": {
                "score": self.linear_score,
                "band": self.linear_band,
                "acf": [float(v) for v in self.acf_returns],
                "verdict": self.verdicts["linear_unpredictability"],
            },
            "heavy_tails": {
                "excess_kurtosis": self.moments.excess_kurtosis,
                "verdict": self.verdicts["heavy_tails"],
            },
            "volatility_clustering": {
                "acf_abs": [float(v) for v in self.acf_abs],
                "summary": self.volatility_summary,
                "verdict": self.verdicts["volatility_clustering"],
            },
            "gain_loss_asymmetry": {
                "skewness": self.moments.skewness,
                "verdict": self.verdicts["gain_loss_asymmetry"],
            },
            "aggregational_gaussianity": {
                "scales": list(t.aggregational_scales),
                "excess_kurtosis": [float(v) for v in self.aggregational_profile],
                "verdict": self.verdicts["aggregational_gaussianity"],
            },
            "ks_statistic": self.ks,
            "wasserstein1": self.w1,
            "leverage_effect": {
                "lags": list(range(1, len(self.leverage) + 1)),
                "correlations": [float(v) for v in self.leverage],
            },
            "verdicts": dict(self.verdicts),
            "thresholds": t.to_dict(),
        }


def evaluate(candidate, reference, thresholds: FactThresholds | None = None) -> StylizedFactsReport:
    """Score a candidate series on every stylized fact and measure its
    distributional distance to a reference series. Pure and deterministic."""
    t = thresholds if thresholds is not None else FactThresholds()
    cand = _as_values(candidate)
    ref = _as_values(reference)

    m = moments(cand)
    rho = acf(cand, t.linear_max_lag)
    band = confidence_band(len(cand), t.acf_band_multiplier)
    # fraction of return autocorrelations inside the white-noise band
    linear_score = float((np.abs(rho) < band).mean())
    rho_abs, vol_summary = volatility_clustering_score(
        cand, t.volatility_max_lag, t.volatility_summary_lags)
    profile = aggregational_gaussianity_profile(cand, t.aggregational_scales)
    lev = leverage_effect_score(cand, t.leverage_max_lag)

    verdicts = {
        "linear_unpredictability": bool(linear_score >= t.linear_min_fraction),
        "heavy_tails": bool(m.excess_kurtosis > t.heavy_tails_min_excess_kurtosis),
        "volatility_clustering": bool(vol_summary > t.volatility_summary_min
                                      and rho_abs[0] > 0),
        "gain_loss_asymmetry": bool(m.skewness < t.gain_loss_max_skewness),
        "aggregational_gaussianity": bool(aggregational_gaussianity_verdict(
            profile, t.aggregational_min_relative_drop, t.aggregational_gaussian_level)),
    }
    return StylizedFactsReport(
        moments=m,
        linear_score=linear_score,
        linear_band=float(band),
        acf_returns=rho,
        acf_abs=rho_abs,
        volatility_summary=vol_summary,
        aggregational_profile=profile,
        leverage=lev,
        ks=ks_statistic(cand, ref),
        w1=wasserstein1(cand, ref),
        verdicts=verdicts,
        thresholds=t,
    )
