"""Phase-space reconstruction and chaos diagnostics for scalar series.

The module covers the usual pre-modeling chain for nonlinear time series:

* delay selection from the autocorrelation function (first crossing of 1/e,
  falling back to the first local minimum, then to 1),
* minimum embedding dimension via Cao's method (Cao 1997), using maximum
  coordinate (Chebyshev) distances and the E1/E2 ratio curves,
* largest Lyapunov exponent via the Rosenstein small-data algorithm
  (Rosenstein, Collins & De Luca 1993): track mean log divergence of nearest
  neighbor pairs and fit a line over the initial growth region,
* lagged input/target matrices for one-step-ahead autoregression.

Nearest-neighbor searches run over blocks of rows: each block holds its
rows' distances to every candidate neighbor, about ``_BLOCK_ELEMS`` floats,
so memory is O(n * block) rather than O(n^2) while every distance is still
computed exactly, by the same float operations a dense matrix would use.
Blocks are small enough to stay in a core's L2 cache, and each is updated
in place in buffers allocated once per call. Cao's search sets each row's
distance to itself to +inf before the dimension loop (the self-distance is
0 in every dimension, and the running maximum keeps it +inf), so the
nearest neighbor is a plain ``argmin`` of the running block; only rows whose
nearest distance is not strictly positive (duplicate vectors) are searched
again with zero distances masked out.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateNeighborsError,
    NoValidPairsError,
    SeriesTooShortError,
    ZeroVarianceError,
)
from .series import TimeSeries

# Elements per row block of a neighbor search; a block holds
# max(1, _BLOCK_ELEMS // n_cols) rows. 2**16 float64 is 512 KB, so a block
# and its scratch buffer fit together in a 2 MB per-core L2 cache: larger
# blocks fall out of cache, smaller ones pay more per-call overhead.
_BLOCK_ELEMS = 2**16


def _row_blocks(n_rows: int, n_cols: int) -> tuple[int, list[tuple[int, int]]]:
    """Rows per block and the ``(start, stop)`` bounds of the row blocks
    covering ``n_rows`` rows."""
    step = min(n_rows, max(1, _BLOCK_ELEMS // n_cols))
    return step, [(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay ``tau`` and dimension ``m`` of a phase-space embedding."""

    tau: int
    m: int

    def __post_init__(self):
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")


@dataclass
class EmbeddedDataset:
    """Lagged regression view of a series.

    Row ``t`` predicts the value at ``origin_indices[t]`` from the ``m``
    lagged inputs ``(y[o - tau], y[o - 2*tau], ..., y[o - m*tau])``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    origin_indices: np.ndarray
    params: EmbeddingParams

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[1] != self.params.m:
            raise ConfigError("inputs must be (rows, m)")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ConfigError("targets must align with input rows")
        if self.origin_indices.shape != self.targets.shape:
            raise ConfigError("origin indices must align with targets")

    @property
    def rows(self) -> int:
        return int(self.targets.size)


@dataclass(frozen=True)
class RosensteinOptions:
    """Knobs for the divergence-tracking exponent estimate.

    ``theiler_window`` defaults to ``tau * m``; ``k_max`` to
    ``min(50, n_vectors // 10)``; the fit range to ``[0, min(20, k_max)]``.
    """

    theiler_window: int | None = None
    k_max: int | None = None
    fit_start: int = 0
    fit_stop: int | None = None


@dataclass
class LyapunovEstimate:
    """Largest Lyapunov exponent in nats per time step plus its fit context.

    ``divergence`` holds the mean log neighbor distance y(k) for
    k = 0..k_max, NaN where no pair survived.
    """

    exponent: float
    divergence: np.ndarray
    fit_start: int
    fit_stop: int
    n_pairs: int


@dataclass
class ChaosReport:
    """Outcome of the full chaos analysis of one series."""

    tau: int
    m: int
    lyapunov: float
    chaotic: bool
    e1_curve: np.ndarray | None
    e2_curve: np.ndarray | None
    divergence_curve: np.ndarray | None


@dataclass(frozen=True)
class AnalyzeOptions:
    """Options for :func:`analyze`; ``tau``/``m`` override the automatic
    selection rules when set."""

    tau: int | None = None
    m: int | None = None
    max_lag: int | None = None
    cao_max_dim: int = 12
    cao_threshold: float = 0.05
    rosenstein: RosensteinOptions = field(default_factory=RosensteinOptions)


def autocorrelation(values, max_lag: int) -> np.ndarray:
    """Sample autocorrelation for lags ``0..max_lag`` (mean removed,
    normalized so lag 0 equals 1)."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 3:
        raise SeriesTooShortError("autocorrelation needs at least three observations")
    if not 1 <= max_lag < n - 1:
        raise ConfigError(f"max_lag must lie in [1, {n - 2}], got {max_lag}")
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ZeroVarianceError("constant series has undefined autocorrelation")
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for lag in range(1, max_lag + 1):
        acf[lag] = float(np.dot(xc[:-lag], xc[lag:])) / denom
    return acf


def select_delay(acf: np.ndarray) -> int:
    """Delay selection: first lag with ACF below 1/e, else the first local
    minimum of the ACF, else 1."""
    acf = np.asarray(acf, dtype=float)
    if acf.size < 1 or abs(acf[0] - 1.0) > 1e-9:
        raise ConfigError("expected an ACF starting at 1.0 for lag 0")
    below = np.flatnonzero(acf[1:] < 1.0 / math.e)
    if below.size:
        return int(below[0]) + 1
    for lag in range(1, acf.size - 1):
        if acf[lag] < acf[lag - 1] and acf[lag] < acf[lag + 1]:
            return lag
    return 1


def reconstruct(series: TimeSeries, params: EmbeddingParams) -> EmbeddedDataset:
    """Build the lagged input/target matrices for one-step-ahead prediction.

    For a series of length n the dataset has ``n - m*tau`` rows; targets are
    the observations at indices ``m*tau .. n-1``.
    """
    x = series.values
    n = x.size
    tau, m = params.tau, params.m
    rows = n - m * tau
    if rows < 1:
        raise SeriesTooShortError(
            f"need more than m*tau = {m * tau} observations, got {n}"
        )
    origin = np.arange(m * tau, n)
    lags = tau * np.arange(1, m + 1)
    inputs = x[origin[:, None] - lags[None, :]]
    return EmbeddedDataset(
        inputs=inputs,
        targets=x[origin].copy(),
        origin_indices=origin,
        params=params,
    )


def _delay_matrix(x: np.ndarray, tau: int, m: int) -> np.ndarray:
    """State vectors (x[i], x[i+tau], ..., x[i+(m-1)tau]) as rows."""
    n_vec = x.size - (m - 1) * tau
    idx = np.arange(n_vec)[:, None] + tau * np.arange(m)[None, :]
    return x[idx]


def lyapunov_rosenstein(
    values,
    params: EmbeddingParams,
    options: RosensteinOptions | None = None,
) -> LyapunovEstimate:
    """Largest Lyapunov exponent by mean log divergence of nearest neighbors.

    Each state vector is paired with its nearest Euclidean neighbor at least
    ``theiler_window + 1`` steps away in time and at nonzero distance. The
    curve y(k) averages log distances of surviving pairs k steps later;
    pairs leave the average once either trajectory runs off the data or the
    distance hits exactly zero. The exponent is the least-squares slope of
    y(k) over the fit range, in nats per time step.
    """
    opts = options or RosensteinOptions()
    x = np.asarray(values, dtype=float)
    tau, m = params.tau, params.m
    n_vec = x.size - (m - 1) * tau
    if n_vec < 20:
        raise SeriesTooShortError(
            f"need at least 20 state vectors, got {n_vec} "
            f"(length {x.size}, tau {tau}, m {m})"
        )
    window = opts.theiler_window if opts.theiler_window is not None else tau * m
    if window < 0:
        raise ConfigError("theiler_window must be >= 0")
    k_max = opts.k_max if opts.k_max is not None else min(50, n_vec // 10)
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    fit_stop = opts.fit_stop if opts.fit_stop is not None else min(20, k_max)
    fit_start = opts.fit_start
    if not 0 <= fit_start < fit_stop <= k_max:
        raise ConfigError(
            f"fit range [{fit_start}, {fit_stop}] must sit inside [0, {k_max}]"
        )

    vecs = _delay_matrix(x, tau, m)
    nn = np.empty(n_vec, dtype=np.intp)
    valid = np.empty(n_vec, dtype=bool)
    step, blocks = _row_blocks(n_vec, n_vec)
    dist2_buf = np.empty((step, n_vec))
    diff_buf = np.empty((step, n_vec))
    for a, b in blocks:
        dist2, diff = dist2_buf[: b - a], diff_buf[: b - a]
        dist2.fill(0.0)  # summed as 0 + col0**2 + col1**2 + ...
        for col in range(m):
            np.subtract(vecs[a:b, col][:, None], vecs[:, col][None, :], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(dist2, diff, out=dist2)
        for i in range(a, b):  # Theiler band |i - j| <= window
            dist2[i - a, max(0, i - window) : i + window + 1] = np.inf
        dist2[dist2 == 0.0] = np.inf
        nn[a:b] = np.argmin(dist2, axis=1)
        valid[a:b] = np.isfinite(dist2[np.arange(b - a), nn[a:b]])
    if not np.any(valid):
        raise NoValidPairsError(
            "no neighbor pairs outside the Theiler window at nonzero distance"
        )
    base = np.flatnonzero(valid)
    mates = nn[base]

    divergence = np.full(k_max + 1, np.nan)
    for k in range(k_max + 1):
        alive = (base + k < n_vec) & (mates + k < n_vec)
        if not np.any(alive):
            break
        diff = vecs[base[alive] + k] - vecs[mates[alive] + k]
        d = np.sqrt(np.sum(diff * diff, axis=1))
        d = d[d > 0.0]
        if d.size:
            divergence[k] = float(np.mean(np.log(d)))

    ks = np.arange(fit_start, fit_stop + 1)
    ys = divergence[fit_start : fit_stop + 1]
    keep = np.isfinite(ys)
    if keep.sum() < 2:
        raise NoValidPairsError("fewer than two usable points in the fit range")
    slope = float(np.polyfit(ks[keep], ys[keep], 1)[0])
    return LyapunovEstimate(
        exponent=slope,
        divergence=divergence,
        fit_start=fit_start,
        fit_stop=fit_stop,
        n_pairs=int(base.size),
    )


def cao_min_dimension(
    values,
    tau: int,
    max_dim: int = 12,
    threshold: float = 0.05,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Minimum embedding dimension via Cao's E1/E2 ratio curves.

    For each trial dimension d the method finds every vector's nearest
    neighbor under the maximum-coordinate distance and measures how the pair
    distance grows when both vectors gain one more coordinate: E(d) averages
    that growth ratio, E*(d) the new-coordinate gap alone. The reported
    curves are E1(d) = E(d+1)/E(d) and E2(d) = E*(d+1)/E*(d) for
    d = 1..max_dim.

    The chosen dimension is the smallest d with ``|E1(d) - 1| < threshold``
    holding for every computed d from there on; if no d qualifies the
    fallback is ``max_dim`` itself. Neighbors at exactly zero distance are
    skipped in favor of the nearest strictly positive one; a vector with no
    such neighbor raises :class:`DegenerateNeighborsError`.

    Returns:
        ``(m, e1_curve, e2_curve)`` with curves indexed so that position
        ``d - 1`` holds the value for dimension d.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    if max_dim < 1:
        raise ConfigError(f"max_dim must be >= 1, got {max_dim}")
    if not 0.0 < threshold < 1.0:
        raise ConfigError("threshold must lie in (0, 1)")
    if n <= (max_dim + 1) * tau + 1:
        raise SeriesTooShortError(
            f"need more than {(max_dim + 1) * tau + 1} observations "
            f"for max_dim {max_dim} at tau {tau}, got {n}"
        )

    # Per-row growth ratios and new-coordinate gaps; position d-1 holds
    # dimension d = 1..max_dim+1, whose rows i < n - d*tau still exist in
    # dimension d+1. Averaging each whole array at the end keeps the
    # summation order of a dense computation.
    dims = range(1, max_dim + 2)
    ratios = [np.empty(n - d * tau) for d in dims]
    gaps = [np.empty(n - d * tau) for d in dims]
    d_stop = max_dim + 2  # smallest d with a degenerate vector, if any
    step, blocks = _row_blocks(n - tau, n)
    dist_buf = np.empty((step, n))
    gap_buf = np.empty((step, n))
    for a, b in blocks:
        # Chebyshev distances of rows a..b-1 start at dimension 1 and gain one
        # coordinate per step: D_{d+1}(i, j) = max(D_d(i, j), |x[i+d*tau] - x[j+d*tau]|).
        # Each row's self-pair is +inf, so argmin never picks the row itself.
        dist = dist_buf[: b - a]
        np.subtract(x[a:b, None], x[None, :], out=dist)
        np.abs(dist, out=dist)
        dist[np.arange(b - a), np.arange(a, b)] = np.inf
        for d in range(1, d_stop):
            r = n - d * tau  # vectors that still exist in dimension d+1
            hi = min(b, r)
            if hi <= a:
                break
            sub = dist[: hi - a, :r]
            nn = np.argmin(sub, axis=1)
            den = sub[np.arange(hi - a), nn]
            # a nearest distance of 0 (a duplicate vector) or NaN: search the
            # row again for its nearest strictly positive neighbor
            again = np.flatnonzero(~(den > 0.0))
            if again.size:
                rows = sub[again]
                masked = np.where(rows > 0.0, rows, np.inf)
                nn[again] = np.argmin(masked, axis=1)
                den[again] = masked[np.arange(again.size), nn[again]]
            if not np.all(np.isfinite(den)):
                d_stop = d
                break
            shifted = x[d * tau : d * tau + r]
            new_gap = np.abs(shifted[a:hi] - shifted[nn])
            ratios[d - 1][a:hi] = np.maximum(den, new_gap) / den
            gaps[d - 1][a:hi] = new_gap
            if d <= max_dim:
                gap = gap_buf[: hi - a, :r]
                np.subtract(shifted[a:hi, None], shifted[None, :], out=gap)
                np.abs(gap, out=gap)
                np.maximum(sub, gap, out=sub)
    if d_stop <= max_dim + 1:
        raise DegenerateNeighborsError(
            f"a dimension-{d_stop} vector has only zero-distance neighbors"
        )
    e_growth = np.array([np.mean(v) for v in ratios])  # E(d)
    e_newcoord = np.array([np.mean(v) for v in gaps])  # E*(d)

    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = e_growth[1:] / e_growth[:-1]
        e2 = e_newcoord[1:] / e_newcoord[:-1]

    close = np.abs(e1 - 1.0) < threshold
    m = max_dim
    for d in range(1, max_dim + 1):
        if np.all(close[d - 1 :]):
            m = d
            break
    return m, e1, e2


def analyze(series: TimeSeries, options: AnalyzeOptions | None = None) -> ChaosReport:
    """Full chaos analysis: delay, embedding dimension, Lyapunov exponent.

    Overrides in ``options`` are applied verbatim and skip the corresponding
    selection step (the Cao curves are omitted when ``m`` is forced). When
    divergence tracking finds no usable pairs the exponent is NaN and the
    series is reported as non-chaotic, with a warning.
    """
    opts = options or AnalyzeOptions()
    x = series.values
    n = x.size

    if opts.tau is not None:
        tau = int(opts.tau)
        if tau < 1:
            raise ConfigError(f"tau must be >= 1, got {tau}")
    else:
        max_lag = opts.max_lag if opts.max_lag is not None else min(50, n - 2)
        tau = select_delay(autocorrelation(x, max_lag))

    e1 = e2 = None
    if opts.m is not None:
        m = int(opts.m)
        if m < 1:
            raise ConfigError(f"m must be >= 1, got {m}")
    else:
        if opts.cao_max_dim < 1:
            raise ConfigError(f"cao_max_dim must be >= 1, got {opts.cao_max_dim}")
        max_dim = min(opts.cao_max_dim, (n - 2) // tau - 1)
        if max_dim < 1:
            raise SeriesTooShortError(
                f"series of length {n} cannot support Cao's method at tau {tau}"
            )
        m, e1, e2 = cao_min_dimension(x, tau, max_dim, opts.cao_threshold)

    divergence = None
    try:
        est = lyapunov_rosenstein(x, EmbeddingParams(tau=tau, m=m), opts.rosenstein)
        exponent = est.exponent
        divergence = est.divergence
    except NoValidPairsError as exc:
        warnings.warn(
            f"divergence tracking failed ({exc}); reporting non-chaotic",
            stacklevel=2,
        )
        exponent = float("nan")

    chaotic = bool(np.isfinite(exponent) and exponent >= 0.0)
    return ChaosReport(
        tau=tau,
        m=m,
        lyapunov=exponent,
        chaotic=chaotic,
        e1_curve=e1,
        e2_curve=e2,
        divergence_curve=divergence,
    )
