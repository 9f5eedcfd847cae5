"""Delay selection, embedding, divergence tracking, and the Cao curves."""

import tracemalloc

import numpy as np
import pytest

from chaospi import chaos
from chaospi.chaos import (
    AnalyzeOptions,
    EmbeddingParams,
    RosensteinOptions,
    analyze,
    autocorrelation,
    cao_min_dimension,
    lyapunov_rosenstein,
    reconstruct,
    select_delay,
)
from chaospi.errors import (
    ConfigError,
    DegenerateNeighborsError,
    NoValidPairsError,
    SeriesTooShortError,
    ZeroVarianceError,
)
from chaospi.series import TimeSeries
from helpers import dense_cao, dense_rosenstein, henon_x, logistic_map, sine_wave


def brute_acf(x, max_lag):
    x = np.asarray(x, dtype=float)
    c = x - x.mean()
    denom = np.sum(c * c)
    out = [1.0]
    for lag in range(1, max_lag + 1):
        out.append(sum(c[t] * c[t + lag] for t in range(len(x) - lag)) / denom)
    return np.array(out)


class TestAutocorrelation:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        assert autocorrelation(x, 10) == pytest.approx(brute_acf(x, 10), abs=1e-12)

    def test_lag_zero_is_one(self):
        assert autocorrelation([3.0, 1.0, 2.0, 5.0], 2)[0] == 1.0

    def test_validation(self):
        with pytest.raises(SeriesTooShortError):
            autocorrelation([1.0, 2.0], 1)
        with pytest.raises(ConfigError):
            autocorrelation([1.0, 2.0, 3.0], 2)  # max_lag must stay below n-1
        with pytest.raises(ZeroVarianceError):
            autocorrelation(np.ones(10), 3)


class TestSelectDelay:
    def test_first_crossing_below_one_over_e(self):
        assert select_delay(np.array([1.0, 0.9, 0.5, 0.2])) == 3

    def test_local_minimum_fallback(self):
        assert select_delay(np.array([1.0, 0.8, 0.6, 0.7, 0.9])) == 2

    def test_default_is_one(self):
        assert select_delay(np.array([1.0, 0.9, 0.8, 0.7])) == 1

    def test_requires_normalized_acf(self):
        with pytest.raises(ConfigError):
            select_delay(np.array([0.5, 0.2]))


class TestReconstruct:
    def test_known_layout(self):
        s = TimeSeries(values=np.arange(1.0, 11.0))
        ds = reconstruct(s, EmbeddingParams(tau=2, m=3))
        assert ds.rows == 4
        assert np.array_equal(ds.origin_indices, [6, 7, 8, 9])
        assert np.array_equal(ds.targets, [7.0, 8.0, 9.0, 10.0])
        # inputs are the lagged values closest-first
        assert np.array_equal(ds.inputs[0], [5.0, 3.0, 1.0])
        assert np.array_equal(ds.inputs[-1], [8.0, 6.0, 4.0])

    def test_minimal_embedding(self):
        s = TimeSeries(values=np.array([1.0, 2.0, 3.0]))
        ds = reconstruct(s, EmbeddingParams(tau=1, m=1))
        assert np.array_equal(ds.inputs[:, 0], [1.0, 2.0])
        assert np.array_equal(ds.targets, [2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            reconstruct(TimeSeries(values=np.arange(6.0)), EmbeddingParams(tau=2, m=3))

    def test_embedding_params_validation(self):
        with pytest.raises(ConfigError):
            EmbeddingParams(tau=0, m=2)
        with pytest.raises(ConfigError):
            EmbeddingParams(tau=1, m=0)


class TestLyapunov:
    def test_logistic_map_recovers_ln_two(self):
        est = lyapunov_rosenstein(
            logistic_map(2000), EmbeddingParams(tau=1, m=2), RosensteinOptions(fit_stop=8)
        )
        assert 0.59 <= est.exponent <= 0.79
        assert est.n_pairs > 0
        assert est.fit_start == 0 and est.fit_stop == 8

    def test_ramp_has_no_divergence(self):
        est = lyapunov_rosenstein(np.arange(100.0), EmbeddingParams(tau=1, m=2))
        assert abs(est.exponent) < 1e-8

    def test_scale_invariant_slope(self):
        # rescaling shifts every log distance by a constant, so the slope of
        # the divergence curve must not move
        x = logistic_map(500)
        opts = RosensteinOptions(fit_stop=8)
        a = lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2), opts)
        b = lyapunov_rosenstein(100.0 * x + 7.0, EmbeddingParams(tau=1, m=2), opts)
        assert a.exponent == pytest.approx(b.exponent, abs=1e-9)

    def test_divergence_curve_shape(self):
        est = lyapunov_rosenstein(logistic_map(400), EmbeddingParams(tau=1, m=2))
        k_max = min(50, (400 - 1) // 10)
        assert est.divergence.shape == (k_max + 1,)

    def test_constant_series_has_no_valid_pairs(self):
        with pytest.raises(NoValidPairsError):
            lyapunov_rosenstein(np.ones(60), EmbeddingParams(tau=1, m=2))

    def test_too_few_vectors(self):
        with pytest.raises(SeriesTooShortError):
            lyapunov_rosenstein(np.arange(20.0), EmbeddingParams(tau=2, m=2))

    def test_fit_range_validation(self):
        x = logistic_map(300)
        with pytest.raises(ConfigError):
            lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2), RosensteinOptions(fit_start=5, fit_stop=5))
        with pytest.raises(ConfigError):
            lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2), RosensteinOptions(fit_stop=500))


class TestCao:
    def test_logistic_map_needs_two_dimensions(self):
        m, e1, e2 = cao_min_dimension(logistic_map(2000), tau=1, max_dim=8)
        assert m == 2
        assert e1.shape == (8,) and e2.shape == (8,)
        assert np.all(np.abs(e1[m - 1 :] - 1.0) < 0.05)

    def test_noise_has_flat_e2(self):
        noise = np.random.default_rng(5).uniform(0.0, 1.0, 2000)
        m, _, e2 = cao_min_dimension(noise, tau=1, max_dim=10)
        # no persistent E1 convergence, so the fallback is max_dim itself
        assert m == 10
        assert np.all(np.abs(e2[:8] - 1.0) < 0.1)

    def test_affine_invariance(self):
        x = logistic_map(300)
        m_a, e1_a, e2_a = cao_min_dimension(x, tau=1, max_dim=5)
        m_b, e1_b, e2_b = cao_min_dimension(-3.0 * x + 11.0, tau=1, max_dim=5)
        assert m_a == m_b
        assert e1_a == pytest.approx(e1_b, abs=1e-9)
        assert e2_a == pytest.approx(e2_b, abs=1e-9)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateNeighborsError):
            cao_min_dimension(np.ones(100), tau=1, max_dim=2)

    def test_validation(self):
        x = logistic_map(100)
        with pytest.raises(ConfigError):
            cao_min_dimension(x, tau=0)
        with pytest.raises(ConfigError):
            cao_min_dimension(x, tau=1, threshold=0.0)
        with pytest.raises(SeriesTooShortError):
            cao_min_dimension(x, tau=10, max_dim=12)


class TestAnalyze:
    def test_sine_wave_full_automatic(self):
        report = analyze(TimeSeries(values=sine_wave(1000)))
        assert report.tau == 5
        assert report.m == 12  # Cao never converges on a noiseless cycle
        assert report.lyapunov <= 0.01
        assert report.e1_curve is not None and report.divergence_curve is not None

    def test_overrides_skip_selection(self):
        report = analyze(TimeSeries(values=logistic_map(500)), AnalyzeOptions(tau=1, m=2))
        assert (report.tau, report.m) == (1, 2)
        assert report.e1_curve is None and report.e2_curve is None
        assert report.divergence_curve is not None
        assert report.chaotic

    def test_constant_series_reports_non_chaotic(self):
        with pytest.warns(UserWarning, match="divergence tracking failed"):
            report = analyze(TimeSeries(values=np.ones(60)), AnalyzeOptions(tau=1, m=2))
        assert np.isnan(report.lyapunov)
        assert report.chaotic is False

    def test_chaotic_flag_is_sign_of_exponent(self):
        report = analyze(TimeSeries(values=logistic_map(600)), AnalyzeOptions(tau=1, m=2))
        assert report.chaotic == (report.lyapunov >= 0.0)

    def test_series_too_short_for_cao(self):
        with pytest.raises(SeriesTooShortError):
            analyze(TimeSeries(values=np.array([1.0, 5.0, 2.0, 4.0, 3.0])), AnalyzeOptions(tau=2))

    def test_override_validation(self):
        s = TimeSeries(values=logistic_map(100))
        with pytest.raises(ConfigError):
            analyze(s, AnalyzeOptions(tau=0))
        with pytest.raises(ConfigError):
            analyze(s, AnalyzeOptions(tau=1, m=0))
        for max_dim in (0, -2):
            with pytest.raises(ConfigError, match="cao_max_dim"):
                analyze(TimeSeries(values=logistic_map(500)), AnalyzeOptions(cao_max_dim=max_dim))


class TestBlockedNeighborSearch:
    """The row-blocked searches equal the dense n x n computation bit for bit,
    whatever the block size, and stay small in memory."""

    N = 200  # a multiple of none of the block heights below

    @staticmethod
    def set_block_rows(monkeypatch, rows, n_cols):
        monkeypatch.setattr(chaos, "_BLOCK_ELEMS", rows * n_cols)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_cao_matches_dense(self, monkeypatch, rows, tau, quantized):
        # rounding makes zero distances and tied neighbors common
        x = henon_x(self.N)
        if quantized:
            x = np.round(x, 1)
        m_full, e1_full, e2_full = cao_min_dimension(x, tau, max_dim=8)
        self.set_block_rows(monkeypatch, rows, self.N)
        m, e1, e2 = cao_min_dimension(x, tau, max_dim=8)
        e1_dense, e2_dense = dense_cao(x, tau, max_dim=8)
        assert np.array_equal(e1, e1_dense) and np.array_equal(e2, e2_dense)
        assert np.array_equal(e1_full, e1_dense) and np.array_equal(e2_full, e2_dense)
        assert m == m_full

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("window", [None, 0, 10])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_rosenstein_matches_dense(self, monkeypatch, rows, tau, window, quantized):
        x = henon_x(self.N)
        if quantized:
            x = np.round(x, 1)
        m = 3
        n_vec = self.N - (m - 1) * tau
        self.set_block_rows(monkeypatch, rows, n_vec)
        est = lyapunov_rosenstein(x, EmbeddingParams(tau=tau, m=m), RosensteinOptions(theiler_window=window))
        k_max = min(50, n_vec // 10)
        slope, divergence, n_pairs = dense_rosenstein(
            x, tau, m, tau * m if window is None else window, k_max, min(20, k_max)
        )
        assert np.array_equal(est.divergence, divergence, equal_nan=True)
        assert est.n_pairs == n_pairs
        assert est.exponent == slope

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize(
        "x, tau, max_dim",
        [
            (np.ones(100), 1, 2),
            # distinct values in dimension 1; the two dimension-2 vectors
            # (x[0], x[3]) and (x[1], x[4]) coincide
            (np.array([0.0, 0.0, 1.0, 5.0, 5.0, 2.0, 3.0, 4.0]), 3, 1),
        ],
    )
    def test_degenerate_error_names_smallest_dimension(self, monkeypatch, rows, x, tau, max_dim):
        d = dense_cao(x, tau, max_dim)
        self.set_block_rows(monkeypatch, rows, x.size)
        with pytest.raises(DegenerateNeighborsError, match=f"dimension-{d} vector"):
            cao_min_dimension(x, tau, max_dim)

    def test_peak_memory_stays_blocked(self):
        # the dense n x n versions peak at about 343 MB and 275 MB here
        x = henon_x(3000)
        for call in (
            lambda: cao_min_dimension(x, tau=1, max_dim=12),
            lambda: lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2)),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20
