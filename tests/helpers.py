"""Deterministic series generators and reference implementations shared
across test modules."""

import csv
import math
import multiprocessing
import os

import numpy as np
import pytest

from chaospi.errors import (
    EmptySeriesError,
    MissingFileError,
    NonFiniteValueError,
    ParseError,
    SeriesTooShortError,
)
from chaospi.nsga2 import _select_next
from chaospi.series import TimeSeries


fork_only = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="a patched seed job reaches the workers only when they are forked",
)


def exit_in_worker(*args):
    """A seed job that kills the worker process running it."""
    os._exit(3)


def logistic_map(n, x0=0.4):
    """Fully chaotic logistic map x -> 4x(1-x); exact exponent is ln 2."""
    x = np.empty(n)
    x[0] = x0
    for i in range(n - 1):
        x[i + 1] = 4.0 * x[i] * (1.0 - x[i])
    return x


def sine_wave(n, period=25.0):
    return np.sin(2.0 * np.pi * np.arange(n) / period)


def ar2_values(n=200, seed=2024, intercept=0.05, phi1=0.49, phi2=0.49,
               noise_sd=0.05, burn_in=100):
    """Stationary AR(2) draw with coefficients inside the model search box."""
    rng = np.random.default_rng(seed)
    x = np.zeros(n + burn_in)
    for t in range(2, n + burn_in):
        x[t] = intercept + phi1 * x[t - 1] + phi2 * x[t - 2] + rng.normal(0.0, noise_sd)
    return x[burn_in:]


def flat_training_values(n=30, horizon=5):
    """``n`` values whose training segment, all but the last ``horizon``,
    is constant: a standardized run fails in every seed (ZeroVarianceError),
    after a chaos analysis of that segment that only warns that divergence
    tracking failed."""
    return np.r_[np.ones(n - horizon), np.arange(2.0, 2.0 + horizon)]


def write_series(series, path):
    """Write a series as CSV (``date,value`` when labelled, else ``value``),
    each value with ``repr`` so that loading it back is exact."""
    values = series.values.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if series.labels is None:
            writer.writerow(["value"])
            writer.writerows([repr(v)] for v in values)
        else:
            writer.writerow(["date", "value"])
            writer.writerows([label, repr(v)] for label, v in zip(series.labels, values))


def reference_load_series(path, column=None):
    """``series.load_series`` by way of a list of every non-blank row.

    The list-building form of the streaming loader, kept as an oracle: each
    check runs over the whole list in turn, so the fault it finds first is
    the one that wins. Row errors name ``csv.reader``'s ``line_num``, the
    file line on which the offending record ends.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise MissingFileError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [
                (reader.line_num, row)
                for row in reader
                if row and any(cell.strip() for cell in row)
            ]
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", row=reader.line_num) from None
    if not rows:
        raise EmptySeriesError(f"no data rows in {path}")

    first = rows[0][1]
    width = len(first)
    if any(len(r) != width for _, r in rows):
        raise ParseError("inconsistent column count across rows")

    value_idx = width - 1 if width <= 2 else None
    has_header = False
    try:
        float(first[value_idx if value_idx is not None else -1])
    except ValueError:
        has_header = True
    if column is not None:
        if not has_header:
            raise ParseError(f"column {column!r} requested but file has no header row")
        try:
            value_idx = first.index(column)
        except ValueError:
            raise ParseError(f"no column named {column!r} in header") from None
    elif width > 2:
        raise ParseError("files wider than two columns need an explicit column name")

    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise EmptySeriesError(f"no data rows in {path}")

    values = []
    labels = [] if width > 1 else None
    for line, row in data_rows:
        cell = row[value_idx].strip()
        if not cell:
            raise ParseError("empty value cell", row=line)
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(f"not a number: {cell!r}", row=line) from None
        if not math.isfinite(v):
            raise NonFiniteValueError(f"non-finite value: {cell!r}", row=line)
        values.append(v)
        if labels is not None:
            labels.append(row[0].strip())

    if len(values) < 2:
        raise SeriesTooShortError("a series needs at least two observations")
    return TimeSeries(np.array(values), labels)


def brute_force_fronts(objs):
    """O(n^2) non-dominated front peeling used as a sorting oracle."""
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    remaining = set(range(n))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            dominated = False
            for j in remaining:
                if i == j:
                    continue
                a, b = objs[j], objs[i]
                if a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1]):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def crowding_distance(objs):
    """Crowding distances for one front given as an (n, 2) objective array;
    the reference for ``nsga2._front_crowding``.

    Boundary points get infinity; interior points sum normalized gaps
    between their sorted neighbors per objective. An objective whose range
    is not finite and positive (all equal, or an infinite or NaN extreme)
    contributes nothing to them.
    """
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for j in range(objs.shape[1]):
        order = np.argsort(objs[:, j], kind="stable")
        # Python floats: inf - inf is NaN here without a RuntimeWarning
        spread = float(objs[order[-1], j]) - float(objs[order[0], j])
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if 0.0 < spread < math.inf:
            gaps = (objs[order[2:], j] - objs[order[:-2], j]) / spread
            dist[order[1:-1]] += gaps
    return dist


def reference_select(objs, pop_size, fronts=None):
    """Survivor selection from fully peeled oracle fronts.

    Every front comes from ``brute_force_fronts`` unless ``fronts`` gives
    them, then the fronts fill the population in order, and the front that
    overflows keeps its rows of largest crowding distance (row index breaks
    ties). Returns ``(keep, rank, crowding)`` in the same form as
    ``nsga2._select_next``.
    """
    objs = np.asarray(objs, dtype=float)
    keep, rank, crowding = [], [], []
    for r, front in enumerate(brute_force_fronts(objs) if fronts is None else fronts):
        room = pop_size - sum(k.size for k in keep)
        if room == 0:
            break
        front = np.array(front)
        dist = crowding_distance(objs[front])
        if front.size > room:
            order = np.lexsort((front, -dist))[:room]
            front, dist = front[order], dist[order]
        keep.append(front)
        rank.append(np.full(front.size, r))
        crowding.append(dist)
    return np.concatenate(keep), np.concatenate(rank), np.concatenate(crowding)


def attained_count(ensemble, point):
    """Number of runs with at least one front point weakly dominating ``point``."""
    q = np.asarray(point, dtype=float)
    return sum(
        bool(np.any((front[:, 0] <= q[0]) & (front[:, 1] <= q[1]))) for front in ensemble.fronts
    )


def reference_attainment_surface(ensemble, level):
    """Level-``level`` staircase vertices from the direct sweep: at each
    distinct f1 value, update every run's lowest f2 so far (only a strictly
    lower value replaces it), then take the level-th smallest among runs.

    The x-by-run loop form of ``eaf.attainment_surface``, kept as an oracle
    for the vectorised one.
    """
    n = ensemble.n_runs
    xs = np.unique(np.concatenate([f[:, 0] for f in ensemble.fronts]))
    best_f2 = np.full(n, np.inf)
    vertices = []
    last_y = np.inf
    for x in xs:
        for r, front in enumerate(ensemble.fronts):
            at_x = front[front[:, 0] == x, 1]
            if at_x.size:
                best_f2[r] = min(best_f2[r], float(at_x.min()))
        y = float(np.partition(best_f2, level - 1)[level - 1])
        if math.isfinite(y) and y < last_y:
            vertices.append((float(x), y))
            last_y = y
    return np.array(vertices, dtype=float)


def surface_value(surface, x):
    """Evaluate a staircase at ``x``: the lowest f2 attained with f1 <= x."""
    v = surface.vertices
    if v.size == 0:
        return math.inf
    idx = np.searchsorted(v[:, 0], x, side="right") - 1
    return math.inf if idx < 0 else float(v[idx, 1])


def elitism_violations(snapshots, pop_size):
    """Breaches of the elitism that NSGA-II with crowding truncation keeps.

    ``snapshots`` holds front 0 of each generation as an (n, 2) objective
    array. A front-0 point of generation t may be missing from generation
    t+1 (no new front-0 point weakly dominates it) only if all of these hold:

    * saturated: front 0 of generation t+1 fills the population, since
      otherwise all of front 0 of parents + offspring survives;
    * peer: the lost point dominates no survivor, so it was cut from the
      same non-dominated front;
    * interior: it lies strictly inside the new front's extent in both
      objectives, since the extremes carry infinite crowding.

    Returns one ``(t, clause)`` pair per lost point and broken clause; an
    empty list means the guarantee held at every transition.
    """
    out = []
    for t, (prev, nxt) in enumerate(zip(snapshots, snapshots[1:])):
        prev = np.asarray(prev, dtype=float)
        nxt = np.asarray(nxt, dtype=float)
        covered = (
            (nxt[None, :, 0] <= prev[:, None, 0]) & (nxt[None, :, 1] <= prev[:, None, 1])
        ).any(axis=1)
        lo1, lo2 = nxt[:, 0].min(), nxt[:, 1].min()
        for p in prev[~covered]:
            if nxt.shape[0] < pop_size:
                out.append((t, "saturated"))
            dominated = (
                (p[0] <= nxt[:, 0]) & (p[1] <= nxt[:, 1])
                & ((p[0] < nxt[:, 0]) | (p[1] < nxt[:, 1]))
            )
            if dominated.any():
                out.append((t, "peer"))
            if not (p[0] > lo1 and p[1] > lo2):
                out.append((t, "interior"))
    return out


def dense_cao(x, tau, max_dim):
    """Cao's E1/E2 curves from full n x n Chebyshev distance matrices.

    The straightforward O(n^2)-memory form of ``chaos.cao_min_dimension``
    (without its argument checks or the choice of m), kept as an oracle for
    the row-blocked search: returns ``(e1, e2)``, or the smallest dimension
    with a vector whose neighbors all sit at zero distance.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    e_growth = np.empty(max_dim + 2)
    e_newcoord = np.empty(max_dim + 2)
    dist = np.abs(x[:, None] - x[None, :])
    for d in range(1, max_dim + 2):
        r = n - d * tau
        sub = dist[:r, :r]
        masked = np.where(sub > 0.0, sub, np.inf)
        nn = np.argmin(masked, axis=1)
        den = masked[np.arange(r), nn]
        if not np.all(np.isfinite(den)):
            return d
        new_gap = np.abs(x[np.arange(r) + d * tau] - x[nn + d * tau])
        e_growth[d] = float(np.mean(np.maximum(den, new_gap) / den))
        e_newcoord[d] = float(np.mean(new_gap))
        if d <= max_dim:
            tail = np.abs(x[d * tau : d * tau + r][:, None] - x[d * tau : d * tau + r][None, :])
            np.maximum(dist[:r, :r], tail, out=dist[:r, :r])
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = e_growth[2 : max_dim + 2] / e_growth[1 : max_dim + 1]
        e2 = e_newcoord[2 : max_dim + 2] / e_newcoord[1 : max_dim + 1]
    return e1, e2


def dense_nearest_neighbors(x, tau, sizes, window, chebyshev):
    """Nearest neighbors from full distance matrices.

    The O(n^2)-memory form of ``chaos._nearest_neighbors``, kept as an oracle
    for the row-blocked search: per dimension d in ``sizes``, ``(nn, dist)``
    over the first ``sizes[d]`` delay vectors, with distances built
    coordinate by coordinate by the same float operations.
    """
    x = np.asarray(x, dtype=float)
    found = {}
    for d, r in sizes.items():
        dist = np.zeros((r, r))
        for c in range(d):
            coord = x[c * tau : c * tau + r]
            diff = coord[:, None] - coord[None, :]
            if chebyshev:
                np.maximum(dist, np.abs(diff), out=dist)
            else:
                dist += diff * diff
        rows = np.arange(r)
        dist[np.abs(rows[:, None] - rows[None, :]) <= window] = np.inf
        dist[~(dist > 0.0)] = np.inf
        nn = np.argmin(dist, axis=1)
        found[d] = (nn, dist[rows, nn])
    return found


def dense_rosenstein(x, tau, m, window, k_max, fit_stop):
    """Rosenstein divergence curve from a full n x n squared-distance matrix.

    The O(n^2)-memory form of ``chaos.lyapunov_rosenstein`` (no argument
    checks, fit from k = 0), kept as an oracle for the row-blocked search:
    returns ``(slope, divergence, n_pairs)``.
    """
    x = np.asarray(x, dtype=float)
    n_vec = x.size - (m - 1) * tau
    vecs = x[np.arange(n_vec)[:, None] + tau * np.arange(m)[None, :]]
    dist2 = np.zeros((n_vec, n_vec))
    for col in range(m):
        diff = vecs[:, col][:, None] - vecs[:, col][None, :]
        dist2 += diff * diff
    offsets = np.abs(np.arange(n_vec)[:, None] - np.arange(n_vec)[None, :])
    dist2[offsets <= window] = np.inf
    dist2[dist2 == 0.0] = np.inf
    nn = np.argmin(dist2, axis=1)
    valid = np.isfinite(dist2[np.arange(n_vec), nn])
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
    ks = np.arange(fit_stop + 1)
    ys = divergence[: fit_stop + 1]
    keep = np.isfinite(ys)
    ks, ys = ks[keep], ys[keep]
    kc = ks - ks.mean()
    slope = float(np.dot(kc, ys - ys.mean()) / np.dot(kc, kc))
    return slope, divergence, int(base.size)


def henon_x(n, a=1.4, b=0.3, burn_in=100):
    """x coordinate of the Henon map from (0.1, 0); exponent about 0.42."""
    x, y = 0.1, 0.0
    out = np.empty(n + burn_in)
    for i in range(n + burn_in):
        x, y = 1.0 - a * x * x + y, b * x
        out[i] = x
    return out[burn_in:]


def dense_grid_search(actual, predicted, sigma, grid_step, picp_target):
    """(r1, r2) from a full coverage table over every grid pair.

    The (1/step)^2-memory form of ``pipeline.grid_search_r`` for ``sigma > 0``
    (no argument checks), kept as an oracle for the separable search. A pair
    covers a point as ``metrics.picp`` judges ``pipeline.pi_bounds``:
    ``a >= p - r1*sigma`` and ``a <= p + r2*sigma``.
    """
    a = np.asarray(actual, dtype=float)[:, None]
    p = np.asarray(predicted, dtype=float)[:, None]
    count = int(np.floor((1.0 - grid_step) / grid_step + 1e-9))
    rs = grid_step * np.arange(1, count + 1)
    low_ok = a >= p - rs[None, :] * sigma  # (n, k): the lower bound r1 gives is met
    high_ok = a <= p + rs[None, :] * sigma  # (n, k): the upper bound r2 gives is met
    picp_grid = (low_ok.astype(float).T @ high_ok.astype(float)) / a.size
    hit = np.argwhere(picp_grid >= picp_target)
    if hit.size == 0:
        hit = np.argwhere(picp_grid == picp_grid.max())
    r1, r2 = rs[hit[:, 0]], rs[hit[:, 1]]
    best = np.lexsort((r2, r1, r1 + r2))[0]  # least (r1 + r2, r1, r2)
    return float(r1[best]), float(r2[best])


# Plain forms of the engine's variation operators and of the metric kernels,
# kept as oracles that the in-place versions must match bit for bit.


def reference_sbx_variates(pairs, n_vars, params, rng):
    """``nsga2.sbx_crossover``'s ``(cross, swap, plus, minus)`` for ``pairs``
    row pairs, written out from the next ``pairs * (1 + 3 * n_vars)``
    uniforms of ``rng``: the crossing gates, then participation, the spread
    factor and the child order, one array per call."""
    crossed = (rng.random(pairs) < params.crossover_prob)[:, None]
    cross = crossed & (rng.random((pairs, n_vars)) < 0.5)
    u = rng.random((pairs, n_vars))
    swap = rng.random((pairs, n_vars)) < 0.5
    exponent = 1.0 / (params.crossover_eta + 1.0)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** exponent
    return cross, swap, 1.0 + beta, 1.0 - beta


def reference_sbx_crossover(P1, P2, lower, upper, params, rng):
    """``nsga2.sbx_crossover`` with every expression written out."""
    cross, swap, plus, minus = reference_sbx_variates(*P1.shape, params, rng)
    active = cross & (np.abs(P1 - P2) > 1e-14)
    lo = 0.5 * (plus * P1 + minus * P2)
    hi = 0.5 * (minus * P1 + plus * P2)
    C1 = np.where(active, np.where(swap, hi, lo), P1)
    C2 = np.where(active, np.where(swap, lo, hi), P2)
    return np.clip(C1, lower, upper), np.clip(C2, lower, upper)


def reference_mutation_variates(k, n_vars, span, params, rng):
    """``nsga2.polynomial_mutation``'s ``(mutate, step)`` for ``k`` rows of
    a box whose ranges are ``span``, written out from the next
    ``k * (1 + 2 * n_vars)`` uniforms of ``rng``: the row gates, then the
    per-variable gates and the perturbations, one array per call."""
    rate = params.mutation_prob_per_var
    if rate is None:
        rate = 1.0 / n_vars
    mutate = (rng.random(k) < params.mutation_prob)[:, None] & (rng.random((k, n_vars)) < rate)
    u = rng.random((k, n_vars))
    exponent = 1.0 / (params.mutation_eta + 1.0)
    delta = np.where(
        u < 0.5, (2.0 * u) ** exponent - 1.0, 1.0 - (2.0 * (1.0 - u)) ** exponent
    )
    return mutate, delta * span


def reference_polynomial_mutation(X, lower, upper, params, rng):
    """``nsga2.polynomial_mutation`` with every expression written out."""
    mutate, step = reference_mutation_variates(*X.shape, upper - lower, params, rng)
    return np.clip(np.where(mutate, X + step, X), lower, upper)


# SplitMix64 (Steele, Lea & Flood 2014) in integer arithmetic mod 2**64, the
# reference that ``nsga2.mix64`` and ``nsga2.Uniforms`` match bit for bit.
SPLITMIX_GOLDEN = 0x9E3779B97F4A7C15
_SPLITMIX_MULS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def splitmix64_mix(z):
    """SplitMix64's finaliser of a 64-bit integer."""
    z = (z ^ (z >> 30)) * _SPLITMIX_MULS[0] % 2**64
    z = (z ^ (z >> 27)) * _SPLITMIX_MULS[1] % 2**64
    return z ^ (z >> 31)


def splitmix64_unmix(z):
    """The inverse of ``splitmix64_mix``: undo each xor-shift and multiply."""
    z ^= (z >> 31) ^ (z >> 62)
    z = z * pow(_SPLITMIX_MULS[1], -1, 2**64) % 2**64
    z ^= (z >> 27) ^ (z >> 54)
    z = z * pow(_SPLITMIX_MULS[0], -1, 2**64) % 2**64
    return z ^ (z >> 30) ^ (z >> 60)


class ReferenceUniforms:
    """The engine's stream, one integer at a time: the key of ``seed`` is
    ``splitmix64_mix(seed)``, draw i (i = 1, 2, ...) is
    ``splitmix64_mix(key + i * GOLDEN mod 2**64)`` and the uniform is its
    top 53 bits over 2**53. ``random`` and ``integers`` hand out the next
    values in the shapes numpy's Generator methods of those names take;
    ``integers(0, k)`` is ``floor(u * k)``."""

    def __init__(self, seed):
        self.key, self.drawn = splitmix64_mix(seed), 0

    def words(self, n):
        first = self.drawn + 1
        self.drawn += n
        return [splitmix64_mix((self.key + i * SPLITMIX_GOLDEN) % 2**64)
                for i in range(first, first + n)]

    def random(self, size):
        u = [(w >> 11) / 2**53 for w in self.words(int(np.prod(size)))]
        return np.array(u).reshape(size)

    def integers(self, low, high, size):
        return low + np.floor(self.random(size) * (high - low)).astype(np.intp)


def reference_offspring(X, rank, crowding, lower, upper, params, rng):
    """One generation's children as ``nsga2.run`` makes them, with every
    array drawn by its own call, in the engine's order: contenders, coins,
    then SBX's four arrays and mutation's three. ``rng`` is a
    ``ReferenceUniforms``."""
    pop = X.shape[0]
    i, j = rng.integers(0, pop, size=(2, pop))
    coin = rng.random(pop) < 0.5
    ri, rj, ci, cj = rank[i], rank[j], crowding[i], crowding[j]
    X_par = X[np.where((ri < rj) | ((ri == rj) & ((ci > cj) | ((ci == cj) & coin))), i, j)]
    half = pop // 2
    C1, C2 = reference_sbx_crossover(X_par[:half], X_par[half:], lower, upper, params, rng)
    return reference_polynomial_mutation(np.concatenate([C1, C2]), lower, upper, params, rng)


def reference_batches(problem, params, seed):
    """Every batch ``nsga2.run`` hands to ``problem.evaluate``, replayed on
    one ``ReferenceUniforms``: the initial population, then each
    generation's children from ``reference_offspring``. Survivors come from
    ``nsga2._select_next``, which its own tests hold to ``reference_select``."""
    rng = ReferenceUniforms(seed)
    lower, upper = problem.lower, problem.upper
    X = lower + (upper - lower) * rng.random((params.pop_size, lower.size))
    F, batches = problem.evaluate(X), [X]
    for gen in range(params.generations + 1):
        if gen > 0:
            batches.append(reference_offspring(X, rank, crowding, lower, upper, params, rng))
            X = np.concatenate([X, batches[-1]])
            F = np.concatenate([F, problem.evaluate(batches[-1])])
        keep, rank, crowding = _select_next(F, params.pop_size)
        X, F = X[keep], F[keep]
    return batches


def reference_smape(a, p):
    """``metrics.smape`` on float arrays, by the masked divide and ``np.sum``."""
    denom = (np.abs(a) + np.abs(p)) / 2.0
    num = np.abs(a - p)
    terms = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)
    return 100.0 / a.shape[-1] * np.sum(terms, axis=-1)


def reference_directional_symmetry(a, p):
    """``metrics.directional_symmetry`` on float arrays, by ``np.diff`` and ``np.mean``."""
    hits = (np.diff(a) * np.diff(p)) > 0
    return 100.0 * np.mean(hits, axis=-1)


def reference_picp(a, lo, hi):
    """``metrics.picp`` on float arrays, by ``np.mean`` of the verdicts."""
    return np.mean((a >= lo) & (a <= hi), axis=-1)


def reference_piaw(lo, hi):
    """``metrics.piaw`` on float arrays, by ``np.mean`` of the widths."""
    return np.mean(hi - lo, axis=-1)


def same_bits(x, y):
    """Whether two float results (scalars or arrays) agree bit for bit."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()
