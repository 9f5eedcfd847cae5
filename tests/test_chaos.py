"""Delay selection, embedding, divergence tracking, and the Cao curves."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaospi import chaos
from chaospi.chaos import (
    AnalyzeOptions,
    EmbeddingParams,
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
    NonFiniteValueError,
    NoValidPairsError,
    SeriesTooShortError,
    ZeroVarianceError,
)
from chaospi.series import TimeSeries
from helpers import (
    dense_cao,
    dense_nearest_neighbors,
    dense_rosenstein,
    henon_x,
    logistic_map,
    sine_wave,
)


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
        inputs, targets = reconstruct(s, EmbeddingParams(tau=2, m=3))
        # four rows, the targets at positions 6..9
        assert np.array_equal(targets, [7.0, 8.0, 9.0, 10.0])
        # inputs are the lagged values closest-first
        assert np.array_equal(inputs[0], [5.0, 3.0, 1.0])
        assert np.array_equal(inputs[-1], [8.0, 6.0, 4.0])

    def test_minimal_embedding(self):
        s = TimeSeries(values=np.array([1.0, 2.0, 3.0]))
        inputs, targets = reconstruct(s, EmbeddingParams(tau=1, m=1))
        assert np.array_equal(inputs[:, 0], [1.0, 2.0])
        assert np.array_equal(targets, [2.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 60), tau=st.integers(1, 8), m=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_rows_are_lagged_values(self, n, tau, m, seed):
        x = np.random.default_rng(seed).normal(size=n)
        series, params = TimeSeries(values=x), EmbeddingParams(tau=tau, m=m)
        if n <= m * tau:
            message = f"need more than m\\*tau = {m * tau} observations, got {n}"
            with pytest.raises(SeriesTooShortError, match=message):
                reconstruct(series, params)
            return
        inputs, targets = reconstruct(series, params)
        rows = n - m * tau
        assert inputs.shape == (rows, m) and targets.shape == (rows,)
        assert inputs.flags.c_contiguous and targets.flags.c_contiguous
        for t in range(rows):
            assert targets[t] == x[m * tau + t]
            for j in range(m):
                assert inputs[t, j] == x[m * tau + t - (j + 1) * tau]

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
            logistic_map(2000), EmbeddingParams(tau=1, m=2), fit_stop=8
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
        a = lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2), fit_stop=8)
        b = lyapunov_rosenstein(100.0 * x + 7.0, EmbeddingParams(tau=1, m=2), fit_stop=8)
        assert a.exponent == pytest.approx(b.exponent, abs=1e-9)

    def test_divergence_curve_shape(self):
        est = lyapunov_rosenstein(logistic_map(400), EmbeddingParams(tau=1, m=2))
        k_max = min(50, (400 - 1) // 10)
        assert est.divergence.shape == (k_max + 1,)

    @pytest.mark.parametrize(
        "x, m, fit_stop",
        [
            (henon_x(2000), 3, None),
            (logistic_map(2000), 2, 8),
            (np.random.default_rng(11).standard_normal(1000), 4, None),
        ],
        ids=["henon", "logistic", "noise"],
    )
    def test_closed_form_slope_matches_polyfit(self, x, m, fit_stop):
        est = lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=m), fit_stop=fit_stop)
        ks = np.arange(est.fit_start, est.fit_stop + 1)
        ys = est.divergence[est.fit_start : est.fit_stop + 1]
        keep = np.isfinite(ys)
        assert est.exponent == pytest.approx(np.polyfit(ks[keep], ys[keep], 1)[0], rel=1e-12)

    def test_constant_series_has_no_valid_pairs(self):
        with pytest.raises(NoValidPairsError):
            lyapunov_rosenstein(np.ones(60), EmbeddingParams(tau=1, m=2))

    def test_too_few_vectors(self):
        with pytest.raises(SeriesTooShortError):
            lyapunov_rosenstein(np.arange(20.0), EmbeddingParams(tau=2, m=2))

    def test_fit_range_validation(self):
        x = logistic_map(300)
        with pytest.raises(ConfigError):
            lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2), fit_start=5, fit_stop=5)
        with pytest.raises(ConfigError):
            lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2), fit_stop=500)
        with pytest.raises(ConfigError, match=r"k_max must lie in \[1, 298\], got 299"):
            lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2), k_max=299)
        with pytest.raises(ConfigError, match="theiler_window must be >= 0"):
            lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2), theiler_window=-1)

    def test_pairs_that_die_at_once_leave_too_few_fit_points(self):
        # 20 vectors and a band of 18 leave only the pair (0, 19), which
        # runs off the data after k = 0
        with pytest.raises(NoValidPairsError, match="fewer than two usable points"):
            lyapunov_rosenstein(np.arange(20.0) ** 1.5, EmbeddingParams(tau=1, m=1),
                                theiler_window=18)


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
        with pytest.raises(ConfigError, match="max_dim must be >= 1, got 0"):
            cao_min_dimension(x, tau=1, max_dim=0)
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

    # n points at tau 1, m 8 give n - 7 state vectors, below Rosenstein's 20;
    # one is the least that warns instead of raising
    @pytest.mark.parametrize("n", [25, 8])
    def test_too_few_state_vectors_report_non_chaotic(self, n):
        match = f"divergence tracking failed .need at least 20 state vectors, got {n - 7} "
        with pytest.warns(UserWarning, match=match):
            report = analyze(TimeSeries(values=logistic_map(n)), AnalyzeOptions(tau=1, m=8))
        assert np.isnan(report.lyapunov) and report.divergence_curve is None
        assert report.chaotic is False

    @pytest.mark.parametrize("n, tau, m", [(7, 1, 8), (14, 2, 8), (3, 3, 2)])
    def test_no_state_vector_raises(self, n, tau, m):
        # (m - 1) * tau >= n: the forced window is longer than the series
        with pytest.raises(SeriesTooShortError, match="holds no state vector"):
            analyze(TimeSeries(values=logistic_map(n)), AnalyzeOptions(tau=tau, m=m))

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


@pytest.mark.parametrize(
    "call",
    [
        lambda x: autocorrelation(x, 10),
        lambda x: cao_min_dimension(x, tau=1, max_dim=4),
        lambda x: lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2)),
    ],
    ids=["autocorrelation", "cao", "rosenstein"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_rejected(call, bad):
    x = logistic_map(300)
    x[[57, 120]] = bad
    with pytest.raises(NonFiniteValueError, match="position 57"):
        call(x)


# Default-block results on henon_x(4000), captured with float.hex from the
# row-blocked search before its blocks were sized for the L2 cache; the
# benchmark's analyze runs at this size.

HENON_4000_E1 = [
    "0x1.bf5993cbe86cdp-12", "0x1.e4f4a70f69011p-1", "0x1.f92449cabe6b1p-1",
    "0x1.fe65ea86a2246p-1", "0x1.f8faa22ecf445p-1", "0x1.012fd55f78dd8p+0",
    "0x1.fd1dbecd99acfp-1", "0x1.fe44e89fb7b8bp-1", "0x1.000394e2bd181p+0",
    "0x1.fca03f33447fcp-1", "0x1.ff40098fc738bp-1", "0x1.fa0462e8f4cb4p-1",
]

HENON_4000_E2 = [
    "0x1.320b04223dab3p-6", "0x1.6c0a827d7ca85p+0", "0x1.6c8efcf944434p+0",
    "0x1.6ed0b1e01dd7ep+0", "0x1.6efa7d997637ep+0", "0x1.756f06d58c7b6p+0",
    "0x1.6d06b85fd4a2ep+0", "0x1.696706015df85p+0", "0x1.6fbc0504b9b59p+0",
    "0x1.6a4aa15857644p+0", "0x1.59beeff865a58p+0", "0x1.4523228bb05d7p+0",
]

HENON_4000_DIVERGENCE = [
    "-0x1.85cda1ab3bd17p+2", "-0x1.76f79f03611a1p+2", "-0x1.5d644bdf7bc2fp+2",
    "-0x1.42517d1eb78a7p+2", "-0x1.27152079e8879p+2", "-0x1.0bc9e9c540194p+2",
    "-0x1.e0f432c50cc56p+1", "-0x1.aa0926ab7f01ep+1", "-0x1.73c1cbbc8ab0ap+1",
    "-0x1.3de2d49fa27ecp+1", "-0x1.097e4cd685808p+1", "-0x1.af0b93eaa7c7cp+0",
    "-0x1.5265694e3c3b9p+0", "-0x1.fd4b2ccb056e9p-1", "-0x1.73a4a7572be94p-1",
    "-0x1.059982818b79cp-1", "-0x1.5f2ee51c04467p-2", "-0x1.a8d9a5951ce63p-3",
    "-0x1.a556447b04b84p-4", "-0x1.43224993e90fep-6", "0x1.1f5ea196a4f1fp-5",
    "0x1.65101f7a98979p-4", "0x1.08fd0c4755b83p-3", "0x1.27eb698694639p-3",
    "0x1.40d3782c498b1p-3", "0x1.67f2f87af1d70p-3", "0x1.85a20f8ff1777p-3",
    "0x1.9b9d7e2529ee9p-3", "0x1.ae3411141da59p-3", "0x1.b97b1d89c3fafp-3",
    "0x1.c97ae93df42a2p-3", "0x1.c657b4472677dp-3", "0x1.c09266e4ca4b3p-3",
    "0x1.bce1da02a0239p-3", "0x1.b96de2d0a56d5p-3", "0x1.c46115bb7c6e1p-3",
    "0x1.dd4f774502feap-3", "0x1.fe12ae7dbf4cfp-3", "0x1.09d702e7341fbp-2",
    "0x1.175a9553d4c2ap-2", "0x1.1f597abc30810p-2", "0x1.1c619a9514c54p-2",
    "0x1.0e91ca9378796p-2", "0x1.07126fdcea21dp-2", "0x1.08e36d6ad309ap-2",
    "0x1.0d6b362dbaa02p-2", "0x1.05f954359bd30p-2", "0x1.febcd161006eep-3",
    "0x1.fb9361c66e962p-3", "0x1.071103ee3eb95p-2", "0x1.0d0ca8bfed1c3p-2",
]


class TestBlockedNeighborSearch:
    """The row-blocked searches equal the dense n x n computation bit for bit,
    whatever the block size, and stay small in memory."""

    N = 200  # a multiple of none of the block heights below

    @staticmethod
    def set_block_rows(monkeypatch, rows, n_cols, extra):
        """Blocks of ``rows`` rows for a search whose shared row buffer
        holds ``extra`` rows more than a block (``None``: the default)."""
        if rows is not None:
            monkeypatch.setattr(chaos, "_BLOCK_ELEMS", (rows + (extra + 1) // 2) * n_cols)
            assert chaos._row_blocks(n_cols, n_cols, 1, extra)[0] == rows

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_cao_matches_dense(self, monkeypatch, rows, tau, quantized):
        # rounding makes zero distances and tied neighbors common
        x = henon_x(self.N)
        if quantized:
            x = np.round(x, 1)
        m_full, e1_full, e2_full = cao_min_dimension(x, tau, max_dim=8)
        self.set_block_rows(monkeypatch, rows, self.N, 8)
        m, e1, e2 = cao_min_dimension(x, tau, max_dim=8)
        e1_dense, e2_dense = dense_cao(x, tau, max_dim=8)
        assert np.array_equal(e1, e1_dense) and np.array_equal(e2, e2_dense)
        assert np.array_equal(e1_full, e1_dense) and np.array_equal(e2_full, e2_dense)
        assert m == m_full

    # tau 5 spreads the rows over more residue classes than a block has
    # rows; at tau 40 a class (4 rows) is shorter than most blocks
    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    @pytest.mark.parametrize("tau, max_dim", [(5, 4), (40, 3)])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_cao_matches_dense_at_long_delays(self, monkeypatch, rows, tau, max_dim, quantized):
        x = henon_x(self.N)
        if quantized:
            x = np.round(x, 1)
        self.set_block_rows(monkeypatch, rows, self.N, max_dim)
        _, e1, e2 = cao_min_dimension(x, tau, max_dim)
        e1_dense, e2_dense = dense_cao(x, tau, max_dim)
        assert np.array_equal(e1, e1_dense) and np.array_equal(e2, e2_dense)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    # a band of 150 is clipped at both ends for the middle rows
    @pytest.mark.parametrize("window", [None, 0, 10, 150])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_rosenstein_matches_dense(self, monkeypatch, rows, tau, window, quantized):
        self.check_rosenstein(monkeypatch, rows, tau, 3, window, quantized)

    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    @pytest.mark.parametrize("tau, m", [(5, 1), (5, 3), (40, 2)])
    @pytest.mark.parametrize("window", [0, 10])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_rosenstein_matches_dense_at_long_delays(self, monkeypatch, rows, tau, m, window, quantized):
        self.check_rosenstein(monkeypatch, rows, tau, m, window, quantized)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("beyond", [0, 1, 500])
    def test_theiler_band_over_every_pair_leaves_no_pairs(self, monkeypatch, rows, beyond):
        # a band of n_vec - 1 or wider covers every column of every row
        n_vec = self.N - 2
        self.set_block_rows(monkeypatch, rows, self.N, 2)
        with pytest.raises(NoValidPairsError):
            lyapunov_rosenstein(
                henon_x(self.N), EmbeddingParams(tau=1, m=3), theiler_window=n_vec - 1 + beyond
            )

    def check_rosenstein(self, monkeypatch, rows, tau, m, window, quantized):
        x = henon_x(self.N)
        if quantized:
            x = np.round(x, 1)
        n_vec = self.N - (m - 1) * tau
        self.set_block_rows(monkeypatch, rows, self.N, m - 1)
        est = lyapunov_rosenstein(x, EmbeddingParams(tau=tau, m=m), theiler_window=window)
        k_max = min(50, n_vec // 10)
        slope, divergence, n_pairs = dense_rosenstein(
            x, tau, m, tau * m if window is None else window, k_max, min(20, k_max)
        )
        assert np.array_equal(est.divergence, divergence, equal_nan=True)
        assert est.n_pairs == n_pairs
        assert est.exponent == slope

    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    @pytest.mark.parametrize("tau", [1, 3])
    def test_cao_zero_distance_that_turns_positive(self, monkeypatch, rows, tau):
        # vectors 40 and 150 share their first coordinate and differ by 1e-9
        # in the second: distance 0 in dimension 1 (skipped), then the
        # nearest pair in dimension 2
        x = henon_x(self.N)
        x[150] = x[40]
        x[150 + tau] = x[40 + tau] + 1e-9
        self.set_block_rows(monkeypatch, rows, self.N, 8)
        _, e1, e2 = cao_min_dimension(x, tau, max_dim=8)
        e1_dense, e2_dense = dense_cao(x, tau, max_dim=8)
        assert np.array_equal(e1, e1_dense) and np.array_equal(e2, e2_dense)

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize(
        "x, tau, max_dim",
        [
            (np.ones(100), 1, 2),
            # distinct values in dimension 1; the two dimension-2 vectors
            # (x[0], x[3]) and (x[1], x[4]) coincide
            (np.array([0.0, 0.0, 1.0, 5.0, 5.0, 2.0, 3.0, 4.0]), 3, 1),
            (np.ones(100), 5, 2),
            # every dimension-2 vector has a positive-distance neighbor; the
            # two dimension-3 vectors (x[0], x[2], x[4]) and (x[1], x[3], x[5])
            # coincide, one from each residue class mod 2
            (np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 7.0, 9.0]), 2, 2),
        ],
    )
    def test_degenerate_error_names_smallest_dimension(self, monkeypatch, rows, x, tau, max_dim):
        d = dense_cao(x, tau, max_dim)
        assert d == {1: 1, 3: 2, 5: 1, 2: 3}[tau]
        self.set_block_rows(monkeypatch, rows, x.size, max_dim)
        with pytest.raises(DegenerateNeighborsError, match=f"dimension-{d} vector"):
            cao_min_dimension(x, tau, max_dim)

    def test_default_blocks_at_benchmark_scale(self):
        x = henon_x(4000)
        m, e1, e2 = cao_min_dimension(x, tau=1)
        assert m == 3
        assert [v.hex() for v in e1.tolist()] == HENON_4000_E1
        assert [v.hex() for v in e2.tolist()] == HENON_4000_E2
        est = lyapunov_rosenstein(x, EmbeddingParams(1, 3))
        assert est.n_pairs == 3998
        # the log and the least-squares fit may differ in the last bits
        # between CPUs and BLAS builds; a changed neighbor moves them by far more
        divergence = [float.fromhex(v) for v in HENON_4000_DIVERGENCE]
        assert est.divergence.tolist() == pytest.approx(divergence, rel=1e-12)
        assert est.exponent == pytest.approx(float.fromhex("0x1.567a3be0a852ep-2"), rel=1e-12)

    def test_peak_memory_stays_blocked(self):
        # the dense n x n versions peak at about 343 MB and 275 MB here; the
        # blocked ones at about 1.6 MB and 1.0 MB, and at 1.9 MB and 1.45 MB
        # when every argmin copied its block
        x = henon_x(3000)
        for call, bound in (
            (lambda: cao_min_dimension(x, tau=1, max_dim=12), 1.75 * 2**20),
            (lambda: lyapunov_rosenstein(x, EmbeddingParams(tau=1, m=2)), 1.2 * 2**20),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


@st.composite
def _searches(draw):
    """A neighbor search: series, delay, dimension sizes, Theiler window,
    metric, and the rows per block."""
    n = draw(st.integers(30, 400))
    tau = draw(st.integers(1, 5))
    top = draw(st.integers(1, 6))
    dims = [d for d in range(1, top) if draw(st.booleans())] + [top]
    # sizes never grow with d; dimension d < top is grown into d + 1
    sizes, cap = {}, n
    for d in dims:
        full = min(cap, n - (d - 1) * tau if d == top else n - d * tau)
        cap = sizes[d] = draw(st.just(full) | st.integers(1, full))
    cols = max(sizes.values())
    window = draw(st.integers(0, 12) | st.integers(0, cols + 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n)
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        # rounding makes zero distances and tied neighbors common
        x = np.round(x, decimals)
    # _BLOCK_ELEMS for blocks of `rows` rows, as in set_block_rows (extra = top - 1)
    rows = draw(st.integers(1, 40))
    return x, tau, sizes, window, draw(st.booleans()), (rows + top // 2) * n


@settings(max_examples=200, deadline=None)
@given(search=_searches())
def test_nearest_neighbors_match_dense_search(search):
    x, tau, sizes, window, chebyshev, block_elems = search
    with mock.patch.object(chaos, "_BLOCK_ELEMS", block_elems):
        found = chaos._nearest_neighbors(x, tau, sizes, window, chebyshev)
    dense = dense_nearest_neighbors(x, tau, sizes, window, chebyshev)
    assert found.keys() == dense.keys()
    for d, (nn, dist) in found.items():
        dense_nn, dense_dist = dense[d]
        assert np.array_equal(dist, dense_dist)
        finite = np.isfinite(dense_dist)
        assert np.array_equal(nn[finite], dense_nn[finite])
