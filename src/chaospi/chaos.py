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

Nearest-neighbor searches run over blocks of rows taken from one residue
class mod tau (rows i, i + tau, i + 2*tau, ...), so memory is O(n * block)
rather than O(n^2) while every distance is still computed exactly, by the
same float operations a dense matrix would use. Within such a block, row
i's coordinate at lag d*tau is row i + d*tau's first coordinate, and the
gap |x[i + d*tau] - x[j + d*tau]| to every candidate j is row i + d*tau of
the 1-D distance matrix shifted by d*tau columns. Each search therefore
computes the block's 1-D rows once into a shared row buffer, with one more
row per added coordinate (``max_dim`` for Cao, ``m - 1`` for Rosenstein),
and takes every new coordinate as a slice of it. The block and the row
buffer together stay within about ``2 * _BLOCK_ELEMS`` floats, small enough
for a core's L2 cache, and are updated in place in buffers allocated once
per call. Cao's search sets each row's distance to
itself to +inf before the dimension loop (the self-distance is 0 in every
dimension, and the running maximum keeps it +inf), so the nearest neighbor
is a plain ``argmin`` of the running block; only rows whose nearest
distance is not strictly positive (duplicate vectors) are searched again
with zero distances masked out.
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

# Elements per buffer of a neighbor search. A search holds a block of rows
# and the shared rows of 1-D distances its new coordinates are sliced from,
# ``extra`` rows more than the block; the two together take about
# 2 * (_BLOCK_ELEMS // n_cols) rows. 2**16 float64 is 512 KB, so both fit in
# a 2 MB per-core L2 cache: larger blocks fall out of cache, smaller ones pay
# more per-call overhead.
_BLOCK_ELEMS = 2**16


def _row_blocks(
    n_rows: int, n_cols: int, tau: int, extra: int
) -> tuple[int, list[tuple[int, int]]]:
    """Rows per block and the ``(first_row, rows)`` blocks covering rows
    ``0..n_rows-1``; a block is the rows ``first_row + k*tau`` for
    ``k < rows``, a run from one residue class mod ``tau``."""
    budget = (2 * (_BLOCK_ELEMS // n_cols) - extra) // 2
    step = max(1, min(-(-n_rows // tau), budget))
    blocks = []
    for c in range(min(tau, n_rows)):
        count = len(range(c, n_rows, tau))
        blocks += [(c + k * tau, min(step, count - k)) for k in range(0, count, step)]
    return step, blocks


def _distance_rows(x: np.ndarray, first: int, tau: int, out: np.ndarray) -> None:
    """Write the differences ``x[first + k*tau] - x[j]`` into row k of
    ``out``: rows of the signed 1-D distance matrix from one residue class."""
    rows = x[first : first + out.shape[0] * tau : tau]
    np.subtract(rows[:, None], x[None, :], out=out)


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


def _rosenstein_neighbors(
    x: np.ndarray, tau: int, m: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each delay vector's nearest Euclidean neighbor outside the Theiler
    band ``|i - j| <= window`` and at nonzero distance, and whether it has
    one."""
    n_vec = x.size - (m - 1) * tau
    nn = np.empty(n_vec, dtype=np.intp)
    valid = np.empty(n_vec, dtype=bool)
    # a block's rows i gain coordinate col as row i + col*tau of the squared
    # 1-D distances, shifted by col*tau columns: m - 1 rows beyond the block
    step, blocks = _row_blocks(n_vec, x.size, tau, m - 1)
    # one allocation for both buffers, larger than either of Cao's: glibc's
    # malloc maps it afresh and unmaps it whole, where two smaller ones would
    # grow the heap and raise the peak resident memory of analyze
    buf = np.empty(step * n_vec + (step + m - 1) * x.size)
    dist2_buf = buf[: step * n_vec].reshape(step, n_vec)
    sq_buf = buf[step * n_vec :].reshape(step + m - 1, x.size)
    for first, h in blocks:
        dist2, sq = dist2_buf[:h], sq_buf[: h + m - 1]
        _distance_rows(x, first, tau, sq)
        np.multiply(sq, sq, out=sq)
        # summed as 0 + col0**2 + col1**2 + ..., where 0 + col0**2 is col0**2
        # itself: a square is never -0.0
        np.copyto(dist2, sq[:h, :n_vec])
        for col in range(1, m):
            np.add(dist2, sq[col : col + h, col * tau : col * tau + n_vec], out=dist2)
        # Theiler band |i - j| <= window
        for k, i in enumerate(range(first, first + h * tau, tau)):
            dist2[k, max(0, i - window) : i + window + 1] = np.inf
        dist2[dist2 == 0.0] = np.inf
        nn_block = np.argmin(dist2, axis=1)
        nn[first : first + h * tau : tau] = nn_block
        valid[first : first + h * tau : tau] = np.isfinite(dist2[np.arange(h), nn_block])
    return nn, valid


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

    nn, valid = _rosenstein_neighbors(x, tau, m, window)
    if not np.any(valid):
        raise NoValidPairsError(
            "no neighbor pairs outside the Theiler window at nonzero distance"
        )
    base = np.flatnonzero(valid)
    mates = nn[base]

    vecs = _delay_matrix(x, tau, m)
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


def _cao_neighbors(
    x: np.ndarray, tau: int, max_dim: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each delay vector's nearest strictly positive Chebyshev neighbor and
    its distance, per dimension d = 1..max_dim+1 at list position d-1, for
    the vectors i < n - d*tau that still exist in dimension d+1. The
    distance is not finite where a vector has no such neighbor."""
    n = x.size
    dims = range(1, max_dim + 2)
    nns = [np.empty(n - d * tau, dtype=np.intp) for d in dims]
    dens = [np.empty(n - d * tau) for d in dims]
    step, blocks = _row_blocks(n - tau, n, tau, max_dim)
    dist_buf = np.empty((step, n))
    row_buf = np.empty((step + max_dim, n))
    block_rows = np.arange(step)
    for first, h_block in blocks:
        # Chebyshev distances of the block's rows i start at dimension 1 and
        # gain one coordinate per step:
        # D_{d+1}(i, j) = max(D_d(i, j), |x[i+d*tau] - x[j+d*tau]|), the gap
        # being row k + d of the shared 1-D rows for the block's row k.
        # Each row's self-pair is +inf, so argmin never picks the row itself.
        n_rows = min(h_block + max_dim, len(range(first, n, tau)))
        dist_rows = row_buf[:n_rows]
        _distance_rows(x, first, tau, dist_rows)
        np.abs(dist_rows, out=dist_rows)
        dist = dist_buf[:h_block]
        np.copyto(dist, dist_rows[:h_block])
        dist[block_rows[:h_block], np.arange(first, first + h_block * tau, tau)] = np.inf
        for d in dims:
            r = n - d * tau  # vectors that still exist in dimension d+1
            h = min(h_block, len(range(first, r, tau)))
            if h == 0:
                break
            sub = dist[:h, :r]
            nn = sub.argmin(axis=1)
            den = sub[block_rows[:h], nn]
            # a nearest distance of 0 (a duplicate vector) or NaN: search the
            # row again for its nearest strictly positive neighbor
            if not den.min() > 0.0:
                again = np.flatnonzero(~(den > 0.0))
                rows = sub[again]
                masked = np.where(rows > 0.0, rows, np.inf)
                nn[again] = np.argmin(masked, axis=1)
                den[again] = masked[np.arange(again.size), nn[again]]
            nns[d - 1][first : first + h * tau : tau] = nn
            dens[d - 1][first : first + h * tau : tau] = den
            if d <= max_dim:
                np.maximum(sub, dist_rows[d : d + h, d * tau : d * tau + r], out=sub)
    return nns, dens


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

    nns, dens = _cao_neighbors(x, tau, max_dim)

    # E(d) averages each row's growth ratio, E*(d) its new-coordinate gap,
    # over whole arrays in row order, as a dense computation would.
    e_growth = np.empty(max_dim + 1)
    e_newcoord = np.empty(max_dim + 1)
    for d, (nn, den) in enumerate(zip(nns, dens), start=1):
        if not np.all(np.isfinite(den)):
            raise DegenerateNeighborsError(
                f"a dimension-{d} vector has only zero-distance neighbors"
            )
        shifted = x[d * tau :]
        new_gap = np.abs(shifted[: den.size] - shifted[nn])
        e_growth[d - 1] = np.mean(np.maximum(den, new_gap) / den)
        e_newcoord[d - 1] = np.mean(new_gap)

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
