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

Cao's method and Rosenstein's share one nearest-neighbor search. It runs
over blocks of rows taken from one residue class mod tau (rows i, i + tau,
i + 2*tau, ...), so memory is O(n * block) rather than O(n^2) while every
distance is still computed exactly, by the same float operations a dense
matrix would use. Within such a block, row i's coordinate at lag d*tau is
row i + d*tau's first coordinate, and the gap |x[i + d*tau] - x[j + d*tau]|
to every candidate j is row i + d*tau of the 1-D distance matrix shifted by
d*tau columns. The search therefore computes the block's 1-D rows once into
a shared row buffer, with one more row per added coordinate, and takes every
new coordinate as a slice of it: a running maximum of absolute gaps gives
Cao's Chebyshev distances, a running sum of squared gaps Rosenstein's
squared Euclidean ones. The block and the row buffer together stay within
about ``2 * _BLOCK_ELEMS`` floats, small enough for a core's L2 cache, and
are updated in place in two buffers allocated once per call. A neighbor
must lie outside the Theiler band |i - j| <= window, which is set to +inf
once in dimension 1 and stays +inf under the running maximum or sum; Cao's
search uses a band of width 0, which holds only each row's self-pair. The
nearest neighbor is then a plain ``argmin`` of the running block; only rows
whose nearest distance is not strictly positive (duplicate vectors) are
searched again with zero distances masked out. ``argmin`` copies an array
whose rows are not contiguous, so the block always keeps whole rows: the
columns a dimension no longer reaches are set to +inf, which never wins,
rather than sliced off.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateNeighborsError,
    NoValidPairsError,
    SeriesTooShortError,
    ZeroVarianceError,
)
from .series import TimeSeries, finite_values

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


def _nearest_neighbors(
    x: np.ndarray, tau: int, sizes: dict[int, int], window: int, chebyshev: bool
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per dimension d in ``sizes``, each of the first ``sizes[d]`` delay
    vectors' nearest neighbor among those vectors and its distance, Chebyshev
    or else squared Euclidean. The neighbor lies more than ``window`` steps
    away in time and at a strictly positive distance; the distance is not
    finite where a vector has no such neighbor. ``sizes`` must not grow with d."""
    n, top = x.size, max(sizes)
    gap, grow = (np.abs, np.maximum) if chebyshev else (np.square, np.add)
    # the vectors dimension d's distances serve: those of the next dimension searched
    reach = {d: max(r for e, r in sizes.items() if e >= d) for d in range(1, top + 1)}
    cols = reach[1]
    found = {d: (np.empty(r, dtype=np.intp), np.empty(r)) for d, r in sizes.items()}
    step, blocks = _row_blocks(cols, n, tau, top - 1)
    # whole rows: argmin copies a block whose rows are not contiguous
    dist_buf = np.empty((step, cols))
    flat = dist_buf.reshape(-1)
    row_starts = np.arange(0, step * cols, cols)
    row_buf = np.empty((step + top - 1, n))
    for first, h_block in blocks:
        # distances of the block's rows i start at dimension 1 and gain one
        # coordinate per step: D_{d+1}(i, j) = grow(D_d(i, j), gap(x[i+d*tau]
        # - x[j+d*tau])), the gap being row k + d of the shared 1-D rows for
        # the block's row k
        dist_rows = row_buf[: min(h_block + top - 1, len(range(first, n, tau)))]
        _distance_rows(x, first, tau, dist_rows)
        gap(dist_rows, out=dist_rows)
        dist = dist_buf[:h_block]
        np.copyto(dist, dist_rows[:h_block, :cols])
        # the Theiler band
        for k, i in enumerate(range(first, first + h_block * tau, tau)):
            dist[k, max(0, i - window) : i + window + 1] = np.inf
        for d in range(1, top + 1):
            r = reach[d]
            h = min(h_block, len(range(first, r, tau)))
            if h == 0:
                break
            # columns this dimension no longer reaches: +inf once, kept by grow
            if d > 1 and r < reach[d - 1]:
                dist[:h, r : reach[d - 1]] = np.inf
            if d in found:
                nn = dist[:h].argmin(axis=1)
                den = flat.take(row_starts[:h] + nn)
                # a nearest distance of 0 (a duplicate vector): search the
                # row again for its nearest strictly positive neighbor
                if not den.min() > 0.0:
                    again = np.flatnonzero(~(den > 0.0))
                    redo = dist[again]
                    masked = np.where(redo > 0.0, redo, np.inf)
                    nn[again] = np.argmin(masked, axis=1)
                    den[again] = masked[np.arange(again.size), nn[again]]
                found[d][0][first : first + h * tau : tau] = nn
                found[d][1][first : first + h * tau : tau] = den
            if d < top:
                sub = dist[:h, :r]
                grow(sub, dist_rows[d : d + h, d * tau : d * tau + r], out=sub)
    return found


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
    selection rules when set, and the last four are passed to
    :func:`lyapunov_rosenstein`."""

    tau: int | None = None
    m: int | None = None
    max_lag: int | None = None
    cao_max_dim: int = 12
    cao_threshold: float = 0.05
    theiler_window: int | None = None
    k_max: int | None = None
    fit_start: int = 0
    fit_stop: int | None = None

    def __post_init__(self):
        # each field's own range, also where a forced tau/m leaves it unused
        for key, low in (("tau", 1), ("m", 1), ("max_lag", 1), ("cao_max_dim", 1),
                         ("k_max", 1), ("theiler_window", 0), ("fit_start", 0)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        if not 0.0 < self.cao_threshold < 1.0:
            raise ConfigError(f"cao_threshold must lie in (0, 1), got {self.cao_threshold}")
        if self.fit_stop is not None and not self.fit_start < self.fit_stop:
            raise ConfigError(
                f"fit_start must be below fit_stop, got {self.fit_start} and {self.fit_stop}"
            )


def autocorrelation(values, max_lag: int) -> np.ndarray:
    """Sample autocorrelation for lags ``0..max_lag`` (mean removed,
    normalized so lag 0 equals 1)."""
    x = finite_values(values)
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


def reconstruct(series: TimeSeries, params: EmbeddingParams) -> tuple[np.ndarray, np.ndarray]:
    """Lagged inputs and targets for one-step-ahead prediction.

    A series x of length n gives ``n - m*tau`` rows, both arrays
    C-contiguous: row t's target is ``x[m*tau + t]`` and its inputs are the
    m values before it at lags ``tau, 2*tau, ..., m*tau``, closest first.
    """
    x = series.values
    tau, m = params.tau, params.m
    if x.size <= m * tau:
        raise SeriesTooShortError(
            f"need more than m*tau = {m * tau} observations, got {x.size}"
        )
    vecs = _delay_matrix(x, tau, m + 1)
    return np.ascontiguousarray(vecs[:, -2::-1]), vecs[:, -1].copy()


def _delay_matrix(x: np.ndarray, tau: int, m: int) -> np.ndarray:
    """State vectors (x[i], x[i+tau], ..., x[i+(m-1)tau]) as rows."""
    n_vec = x.size - (m - 1) * tau
    idx = np.arange(n_vec)[:, None] + tau * np.arange(m)[None, :]
    return x[idx]


def lyapunov_rosenstein(
    values,
    params: EmbeddingParams,
    *,
    theiler_window: int | None = None,
    k_max: int | None = None,
    fit_start: int = 0,
    fit_stop: int | None = None,
) -> LyapunovEstimate:
    """Largest Lyapunov exponent by mean log divergence of nearest neighbors.

    Each state vector is paired with its nearest Euclidean neighbor at least
    ``theiler_window + 1`` steps away in time and at nonzero distance. The
    curve y(k) averages log distances of surviving pairs k steps later, for
    k = 0..k_max; pairs leave the average once either trajectory runs off
    the data or the distance hits exactly zero. The exponent is the
    least-squares slope of y(k) over ``[fit_start, fit_stop]``, in nats per
    time step. ``theiler_window`` defaults to ``tau * m``, ``k_max`` to
    ``min(50, n_vectors // 10)`` and ``fit_stop`` to ``min(20, k_max)``;
    ``k_max`` must lie below ``n_vectors``, since no pair lasts that long.
    """
    x = finite_values(values)
    tau, m = params.tau, params.m
    n_vec = x.size - (m - 1) * tau
    if n_vec < 20:
        raise SeriesTooShortError(
            f"need at least 20 state vectors, got {n_vec} "
            f"(length {x.size}, tau {tau}, m {m})"
        )
    window = theiler_window if theiler_window is not None else tau * m
    if window < 0:
        raise ConfigError("theiler_window must be >= 0")
    k_max = k_max if k_max is not None else min(50, n_vec // 10)
    if not 1 <= k_max < n_vec:
        raise ConfigError(f"k_max must lie in [1, {n_vec - 1}], got {k_max}")
    fit_stop = fit_stop if fit_stop is not None else min(20, k_max)
    if not 0 <= fit_start < fit_stop <= k_max:
        raise ConfigError(
            f"fit range [{fit_start}, {fit_stop}] must sit inside [0, {k_max}]"
        )

    nn, dist = _nearest_neighbors(x, tau, {m: n_vec}, window, chebyshev=False)[m]
    valid = np.isfinite(dist)
    if not np.any(valid):
        raise NoValidPairsError(
            "no neighbor pairs outside the Theiler window at nonzero distance"
        )
    base = np.flatnonzero(valid)
    mates = nn[base]

    vecs = _delay_matrix(x, tau, m)
    divergence = np.full(k_max + 1, np.nan)
    # the last k at which each pair still has both vectors
    last = n_vec - 1 - np.maximum(base, mates)
    for k in range(min(k_max, int(last.max())) + 1):
        alive = last >= k
        diff = vecs.take(base[alive] + k, axis=0)
        diff -= vecs.take(mates[alive] + k, axis=0)
        diff *= diff
        d = np.sqrt(np.sum(diff, axis=1))
        d = d[d > 0.0]
        if d.size:
            divergence[k] = float(np.mean(np.log(d)))

    ks = np.arange(fit_start, fit_stop + 1)
    ys = divergence[fit_start : fit_stop + 1]
    keep = np.isfinite(ys)
    if keep.sum() < 2:
        raise NoValidPairsError("fewer than two usable points in the fit range")
    # the least-squares slope in closed form; np.polyfit's first LAPACK call
    # alone makes about 1.3 MB resident
    ks, ys = ks[keep], ys[keep]
    kc = ks - ks.mean()
    slope = float(np.dot(kc, ys - ys.mean()) / np.dot(kc, kc))
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
    x = finite_values(values)
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

    sizes = {d: n - d * tau for d in range(1, max_dim + 2)}
    found = _nearest_neighbors(x, tau, sizes, 0, chebyshev=True)

    # E(d) averages each row's growth ratio, E*(d) its new-coordinate gap,
    # over whole arrays in row order, as a dense computation would.
    e_growth = np.empty(max_dim + 1)
    e_newcoord = np.empty(max_dim + 1)
    for d, (nn, den) in found.items():
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
    divergence tracking finds no usable pairs, or the series holds at least
    one but fewer than the 20 state vectors it needs, the exponent is NaN
    and the series is reported as non-chaotic, with a warning. A ``tau``
    and ``m`` that leave no state vector at all raise
    :class:`SeriesTooShortError`.
    """
    opts = options or AnalyzeOptions()
    x = series.values
    n = x.size

    if opts.tau is not None:
        tau = int(opts.tau)
    else:
        max_lag = opts.max_lag if opts.max_lag is not None else min(50, n - 2)
        tau = select_delay(autocorrelation(x, max_lag))

    e1 = e2 = None
    if opts.m is not None:
        m = int(opts.m)
    else:
        max_dim = min(opts.cao_max_dim, (n - 2) // tau - 1)
        if max_dim < 1:
            raise SeriesTooShortError(
                f"series of length {n} cannot support Cao's method at tau {tau}"
            )
        m, e1, e2 = cao_min_dimension(x, tau, max_dim, opts.cao_threshold)

    params = EmbeddingParams(tau=tau, m=m)
    if n <= (m - 1) * tau:
        raise SeriesTooShortError(
            f"series of length {n} holds no state vector at tau {tau}, m {m}"
        )
    divergence = None
    try:
        est = lyapunov_rosenstein(
            x, params, theiler_window=opts.theiler_window,
            k_max=opts.k_max, fit_start=opts.fit_start, fit_stop=opts.fit_stop,
        )
        exponent = est.exponent
        divergence = est.divergence
    except (NoValidPairsError, SeriesTooShortError) as exc:
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
