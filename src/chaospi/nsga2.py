"""Bi-objective NSGA-II over box-constrained real vectors.

Implemented from first principles after Deb, Pratap, Agarwal & Meyarivan
(2002): non-dominated sorting, crowding distance, binary tournament selection
under the crowded comparison operator, simulated binary crossover (SBX),
polynomial mutation, and (mu + lambda) elitist replacement. Fronts are peeled
one vectorised pass at a time from one sort of the rows, survivor selection
stops peeling once the population is full, and it reads crowding distances
from that same sort.

The population is held as arrays: decision vectors ``X`` of shape
``(pop, d)`` and objectives ``F`` of shape ``(pop, 2)``, with rank and
crowding distance as per-row arrays alongside. A generation is a handful of
array operations: all tournaments at once, SBX over all pairs, mutation
over all children, one batched evaluation, and survivor selection by row
indices into the merged parents + offspring arrays. The operators are pure
functions of the population and of variates that do not depend on it:
tournament contenders and coins, SBX's masks and weights, mutation's mask
and steps. Those are made for a block of generations at once, so the loop
keeps only the work that reads the population.

Both objectives are minimized. Callers wanting to maximize an objective
negate it and un-negate on the way out; the engine never special-cases
orientation.

Evaluation: ``Problem.evaluate`` is called once for the initial population,
then once per generation with all ``pop_size`` children in population order.

Determinism: all stochastic choices come from one counter-based SplitMix64
stream (Steele, Lea & Flood 2014), :class:`Uniforms`, keyed by the seed.
The initial population takes one block of ``pop * d`` uniforms; each
generation then takes one block that is split, in a fixed order, into the
tournaments' contenders (``floor(u * pop)``) and coins, SBX's four arrays
and mutation's three. The stream is drawn a block of generations at a
time, one call for as many generations as fit in ``_BLOCK_ELEMS``
uniforms (at least one); since draws are counted, each generation's split
and values are the same as if it drew its own block. The stream is exact
integer arithmetic, and identical (problem, params, seed) triples
reproduce runs bit for bit. Reproducibility is per seed and per draw
order: drawing another array, or splitting the block in another order,
changes the results of every seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionMismatchError, is_number

# SBX treats parent coordinates closer than this as identical, which keeps
# crossover an exact fixed point for duplicate parents.
_SBX_EPS = 1e-14

# The most uniforms drawn and transformed in one block of generations,
# unless one generation alone needs more
_BLOCK_ELEMS = 2**13

# SplitMix64's counter increment (2**64 over the golden ratio) and its
# finaliser's xor-shift-multiply rounds, before a last xor-shift by 31
_GOLDEN, _M64 = 0x9E3779B97F4A7C15, (1 << 64) - 1
_ROUNDS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_U64_ROUNDS = [(np.uint64(shift), np.uint64(mul)) for shift, mul in _ROUNDS]
_U64_31, _U64_11 = np.uint64(31), np.uint64(11)


def mix64(z: int) -> int:
    """SplitMix64's finaliser of the integer ``z`` mod 2**64, a bijection."""
    z &= _M64
    for shift, mul in _ROUNDS:
        z = (z ^ (z >> shift)) * mul & _M64
    return z ^ (z >> 31)


class Uniforms:
    """A counter-based SplitMix64 stream of doubles in [0, 1).

    The key is ``mix64(seed)``; draw ``i`` (i = 1, 2, ...) is
    ``mix64(key + i * GOLDEN)``, and its top 53 bits times 2**-53 give the
    uniform; ``drawn`` counts the draws handed out. Offsets are Python ints
    and only ``uint64`` arrays are mixed, so that no numpy version warns on
    the wrap-around or changes the dtype.
    """

    def __init__(self, seed: int):
        if not (is_number(seed, numbers.Integral) and 0 <= seed <= _M64):
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        self.key, self.drawn = mix64(int(seed)), 0
        self._steps = self._z = self._t = np.empty(0, dtype=np.uint64)

    def draw(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms, as a new float array."""
        if n > self._steps.size:  # the buffers grow to the largest block drawn
            self._steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
            self._z, self._t = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
        z, t = self._z[:n], self._t[:n]
        np.add(self._steps[:n], np.uint64((self.key + self.drawn * _GOLDEN) & _M64), out=z)
        self.drawn += n
        for shift, mul in _U64_ROUNDS:
            z ^= np.right_shift(z, shift, out=t)
            z *= mul
        z ^= np.right_shift(z, _U64_31, out=t)
        z >>= _U64_11
        return z * 2.0**-53


@dataclass(frozen=True)
class Problem:
    """A bi-objective minimization problem over the box ``[lower, upper]``.

    The bounds are matching, non-empty 1-D arrays; their length is the
    number of decision variables ``d``. ``evaluate`` maps a ``(k, d)`` batch
    of decision vectors to a ``(k, 2)`` array of their objective values (any
    other shape raises ``DimensionMismatchError``). The engine calls it once
    for the initial population, then once per generation with all
    ``pop_size`` children; any exception it raises aborts the run and
    propagates unchanged.
    """

    lower: np.ndarray
    upper: np.ndarray
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.size == 0 or upper.shape != lower.shape:
            raise ConfigError("bounds must be matching, non-empty 1-D arrays")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise ConfigError("bounds must be finite")
        if not np.all(lower < upper):
            raise ConfigError("each lower bound must be strictly below its upper bound")


@dataclass(frozen=True)
class NsgaParams:
    """Engine hyperparameters.

    ``mutation_prob`` gates mutation per individual; ``mutation_prob_per_var``
    is the per-variable rate inside a mutated individual and defaults to
    one over the number of variables when left as None. The seed is passed
    to :func:`run`. ``pop_size`` and ``generations`` must be integers, kept
    as Python ints, and the other fields real numbers (``numbers.Integral``,
    ``numbers.Real``); a bool is neither.
    """

    pop_size: int = 50
    generations: int = 100
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float = 1.0
    mutation_prob_per_var: float | None = None
    mutation_eta: float = 20.0

    def __post_init__(self):
        for name in ("pop_size", "generations"):
            v = getattr(self, name)
            if not is_number(v, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))  # no fixed-width arithmetic
        reals = ["crossover_prob", "crossover_eta", "mutation_prob", "mutation_eta"]
        if self.mutation_prob_per_var is not None:
            reals.append("mutation_prob_per_var")
        for name in reals:
            v = getattr(self, name)
            if not is_number(v):
                raise ConfigError(f"{name} must be a real number, got {v!r}")
        if self.pop_size < 4 or self.pop_size % 2 != 0:
            raise ConfigError("pop_size must be even and >= 4")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.mutation_prob_per_var is not None and not 0.0 <= self.mutation_prob_per_var <= 1.0:
            raise ConfigError("mutation_prob_per_var must lie in [0, 1]")
        if not (self.crossover_eta > 0 and self.mutation_eta > 0):  # NaN fails too
            raise ConfigError("distribution indices must be positive")


def _sorted_groups(objs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of an (n, 2) objective array in (f1, f2, row) order.

    Returns the row order, both objectives in that order and, per sorted
    position, the first sorted position of its group of equal points.
    """
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    f1, f2 = objs[order, 0], objs[order, 1]
    head = np.arange(order.size)
    head[1:][(f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])] = 0
    np.maximum.accumulate(head, out=head)
    return order, f1, f2, head


def _peel(f2: np.ndarray, head: np.ndarray, fill: int) -> list[np.ndarray]:
    """Fronts as ascending sorted positions, best first, until ``fill`` rows
    are placed; ``f2`` and ``head`` come from :func:`_sorted_groups`.

    A row is in a pass's front when its f2 is below the smallest f2 of the
    rows left before its group, and the other rows of a group follow its
    first. The first row left is never dominated, so every pass places a
    row, NaN rows included.
    """
    verdict = np.empty(f2.size, dtype=bool)
    left = np.arange(f2.size)  # sorted positions not yet placed
    fronts, placed = [], 0
    while placed < fill:
        g2 = f2[left]
        on = np.empty(left.size, dtype=bool)
        on[0] = True
        # fmin skips NaN, so a NaN f2 blocks no later row
        np.less(g2[1:], np.fmin.accumulate(g2)[:-1], out=on[1:])
        verdict[left] = on
        on = verdict[head[left]]
        fronts.append(left[on])
        placed += fronts[-1].size
        left = left[~on]
    return fronts


def nondominated_fronts(objs: np.ndarray, fill: int | None = None) -> list[np.ndarray]:
    """Peel Pareto fronts from an (n, 2) objective array.

    Returns row index arrays, best front first, each in ascending row
    order; equal points share a front. Every row is placed, or, given
    ``fill``, only the fronts needed to hold at least ``fill`` rows.

    The rows are sorted once in (f1, f2) order, then each pass takes one
    front in a single vectorised sweep. O(n log n + n * fronts).
    """
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    order, _, f2, head = _sorted_groups(objs)
    return [np.sort(order[pos]) for pos in _peel(f2, head, n if fill is None else min(fill, n))]


def _front_crowding(
    a: np.ndarray, b: np.ndarray, pos: np.ndarray, mirror: np.ndarray, gaps: np.ndarray
) -> np.ndarray:
    """Crowding distances of one front from its sorted positions ``pos`` and
    its objectives ``a``, ``b`` in that order.

    The two end rows of each objective get +inf; every other row sums, per
    objective, the gap between its two neighbours in that objective's order
    over the objective's spread, and an objective whose spread is zero or
    not finite adds nothing. ``tests/helpers.crowding_distance`` computes
    the same distances with one sort per objective, the reference this
    function matches bit for bit.

    Along the front f1 ascends and f2 descends group by group, so the
    sorted order is the f1 order, and the f2 gaps are the sorted order's
    shifted differences with each group's first and last gap swapped: a
    stable sort keeps a group in row order under both objectives. ``mirror``
    maps each sorted position to its group's head + tail - position, and
    ``gaps`` is a zeroed buffer over all sorted positions.

    A NaN row is always an end of its front, alone in its group, and makes
    that objective's spread NaN: a NaN f2 never beats an earlier f2 in the
    peel, so it is only ever a front's first row, and the sort puts NaN f1
    last, where a row with finite f2 is the front's last and lowest in f2.
    """
    dist = np.zeros(a.size)
    # Python floats: inf - inf is NaN here without a RuntimeWarning
    spread = float(a[-1]) - float(a[0])
    if 0.0 < spread < math.inf:
        dist[1:-1] += (a[2:] - a[:-2]) / spread
    spread = float(b[0]) - float(b[-1])
    if 0.0 < spread < math.inf:
        # a front's end positions are never written, so they read zero
        gaps[pos[1:-1]] = (b[:-2] - b[2:]) / spread
        dist += gaps[mirror[pos]]
    # the f1 extremes, then the f2 extremes: the first row of the last
    # group and the last row of the first group
    dist[0] = dist[-1] = np.inf
    dist[mirror[pos[-1]] - pos[-1] - 1] = dist[mirror[pos[0]] - pos[0]] = np.inf
    return dist


def tournament_select(
    rank: np.ndarray, crowding: np.ndarray, contenders: np.ndarray, coins: np.ndarray
) -> np.ndarray:
    """Binary tournaments under the crowded comparison operator between the
    rows ``contenders[0]`` and ``contenders[1]``, a ``(2, size)`` index array.

    Lower rank wins; equal ranks fall back to larger crowding distance; a
    full tie goes to ``contenders[0]`` where the boolean ``coins`` is True.
    Returns the winning row indices.
    """
    i, j = contenders
    ri, rj, ci, cj = rank[i], rank[j], crowding[i], crowding[j]
    i_wins = (ri < rj) | ((ri == rj) & ((ci > cj) | ((ci == cj) & coins)))
    return np.where(i_wins, i, j)


def sbx_crossover(
    P1: np.ndarray,
    P2: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    cross: np.ndarray,
    swap: np.ndarray,
    plus: np.ndarray,
    minus: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of the row pairs of two ``(pairs, n_vars)``
    arrays.

    The variates are ``(pairs, n_vars)`` arrays. ``cross`` marks the
    variables that take part: their pair is crossed, with probability
    ``crossover_prob``, and inside it each variable takes part with
    probability 0.5. ``plus`` and ``minus`` are ``1 + beta`` and
    ``1 - beta`` for the spread factor ``beta`` of distribution index
    ``crossover_eta``, and ``swap`` assigns the two offspring values to the
    children in random order, as in Deb's reference implementation (the
    swap is what lets good coordinates recombine across the pair). Parent
    values closer than ``_SBX_EPS`` do not cross. Children are
    mean-preserving before the final clip to the box; they are new arrays,
    never views of the parents.
    """
    active = cross & (np.abs(P1 - P2) > _SBX_EPS)
    lo = plus * P1
    lo += minus * P2
    lo *= 0.5
    hi = minus * P1
    hi += plus * P2
    hi *= 0.5
    C1 = np.where(active, np.where(swap, hi, lo), P1)
    C2 = np.where(active, np.where(swap, lo, hi), P2)
    # the method runs np.clip's ufunc without np.clip's Python wrapper
    return C1.clip(lower, upper, out=C1), C2.clip(lower, upper, out=C2)


def polynomial_mutation(
    X: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    mutate: np.ndarray,
    step: np.ndarray,
) -> np.ndarray:
    """Polynomial mutation of the rows of ``X``: ``step`` is added where the
    boolean ``mutate`` is True, and the result is clipped back into the box.
    Returns a new array.

    Both variates have the shape of ``X``. A row is mutated with
    probability ``mutation_prob``, and inside a mutated row each variable
    at the per-variable rate; a step is a polynomial-distributed fraction,
    of distribution index ``mutation_eta``, of its variable's range.
    """
    Y = np.where(mutate, step + X, X)
    return Y.clip(lower, upper, out=Y)


def _variates(uniforms: Uniforms, params: NsgaParams, span: np.ndarray):
    """Yield each generation's variates, drawn as the module docstring says,
    in the order ``contenders, coins, cross, swap, plus, minus, mutate,
    step`` (see :func:`tournament_select`, :func:`sbx_crossover` and
    :func:`polynomial_mutation`); ``span`` is ``upper - lower``.

    Each block of generations is one draw and one set of array operations;
    every element goes through the float operations it would go through
    alone, so the values do not depend on the block size.
    """
    pop, n_vars = params.pop_size, span.size
    half = pop // 2
    mid = 3 * pop + half * (1 + 3 * n_vars)
    width = mid + pop * (1 + 2 * n_vars)
    block = max(1, _BLOCK_ELEMS // width)
    rate = params.mutation_prob_per_var
    if rate is None:
        rate = 1.0 / n_vars
    for start in range(0, params.generations, block):
        gens = min(block, params.generations - start)
        u = uniforms.draw(gens * width).reshape(gens, width)
        # u < 1, so floor(u * pop) < pop for every pop the engine accepts
        contenders = (u[:, : 2 * pop] * pop).astype(np.intp).reshape(gens, 2, pop)
        coins = u[:, 2 * pop : 3 * pop] < 0.5
        # SBX: per pair a crossing gate, then per variable participation,
        # spread factor and child order
        sbx = u[:, 3 * pop + half : mid].reshape(gens, 3, half, n_vars)
        take, spread, swap = sbx.swapaxes(0, 1)
        cross = (u[:, 3 * pop : 3 * pop + half, None] < params.crossover_prob) & (take < 0.5)
        beta = np.where(spread <= 0.5, 2.0 * spread, 1.0 / (2.0 * (1.0 - spread)))
        beta **= 1.0 / (params.crossover_eta + 1.0)
        plus = 1.0 + beta  # each weight formed once
        minus = np.subtract(1.0, beta, out=beta)
        # mutation: per row a gate, then per variable a gate and a step
        gate, perturb = u[:, mid + pop :].reshape(gens, 2, pop, n_vars).swapaxes(0, 1)
        mutate = (u[:, mid : mid + pop, None] < params.mutation_prob) & (gate < rate)
        # (2u)^e - 1 below u = 0.5, else 1 - (2(1 - u))^e, with one power
        low = perturb < 0.5
        delta = np.where(low, perturb, 1.0 - perturb)
        delta *= 2.0
        delta **= 1.0 / (params.mutation_eta + 1.0)
        step = np.where(low, delta - 1.0, 1.0 - delta)
        step *= span
        yield from zip(contenders, coins, cross, swap < 0.5, plus, minus, mutate, step)


def _evaluate(problem: Problem, X: np.ndarray) -> np.ndarray:
    F = np.asarray(problem.evaluate(X), dtype=float)
    if F.shape != (X.shape[0], 2):
        raise DimensionMismatchError(f"evaluate must return shape ({len(X)}, 2), got {F.shape}")
    return F


def _select_next(
    objs: np.ndarray, pop_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elitist (mu + lambda) replacement: fill front by front, truncating the
    overflow front by descending crowding distance with index as tie-break.
    Only the fronts that fill the population are peeled, and crowding is
    read from the peel's own sort.

    Returns the surviving row indices of ``objs`` in their new population
    order, with the rank and crowding distance each got in this sort.

    Elitism here is weaker than "front 0 never regresses". A front-0 point
    of the parents that no survivor weakly dominates can only be lost when
    (1) front 0 of parents + offspring overflows, so the new front 0 fills
    the population; (2) the lost point dominates no survivor, being a peer
    cut from that same front; and (3) it lies strictly inside the new front's
    extent in both objectives, because the extremes carry infinite crowding.
    So once front 0 saturates it may lose interior points, while the best
    value of each objective never worsens.
    """
    order, f1, f2, head = _sorted_groups(objs)
    n = order.size
    # head + tail - position; head ascends, so a search finds tail + 1
    mirror = head.searchsorted(head, "right")
    mirror += head
    mirror -= np.arange(1, n + 1)
    gaps = np.zeros(n)
    keep, crowding = [], []
    kept = 0
    for pos in _peel(f2, head, min(pop_size, n)):
        rows = order[pos]
        dist = _front_crowding(f1[pos], f2[pos], pos, mirror, gaps)
        room = pop_size - kept
        if rows.size > room:
            # by descending crowding, then row: independent of rows' order
            cut = np.lexsort((rows, -dist))[:room]
        else:
            cut = rows.argsort()
        keep.append(rows[cut])
        crowding.append(dist[cut])
        kept += cut.size
    rank = np.repeat(np.arange(len(keep)), [rows.size for rows in keep])
    return np.concatenate(keep), rank, np.concatenate(crowding)


def run(
    problem: Problem,
    params: NsgaParams,
    seed: int = 0,
    on_generation: Callable[[int, np.ndarray], None] | None = None,
) -> list[tuple[np.ndarray, tuple[float, float]]]:
    """Run the full loop from the :class:`Uniforms` stream of ``seed``, an
    integer in [0, 2**64) (else ``ConfigError``), and return front 0 of the
    final population as ``(x, f)`` pairs in population order; each ``x`` is
    a fresh array.

    ``on_generation`` fires after each survivor selection (and once for the
    evaluated initial population) with the generation number and the
    ``(pop, 2)`` objective array; mutating it is a caller bug.
    """
    uniforms = Uniforms(seed)
    lower, upper = problem.lower, problem.upper
    half = params.pop_size // 2

    u = uniforms.draw(params.pop_size * lower.size).reshape(params.pop_size, lower.size)
    X = lower + (upper - lower) * u
    F = _evaluate(problem, X)
    variates = _variates(uniforms, params, upper - lower)
    # generation 0 only ranks the initial population
    for gen in range(params.generations + 1):
        if gen > 0:
            contenders, coins, cross, swap, plus, minus, mutate, step = next(variates)
            # the first half of the winners pairs with the second
            X_par = X[tournament_select(rank, crowding, contenders, coins)]
            C1, C2 = sbx_crossover(
                X_par[:half], X_par[half:], lower, upper, cross, swap, plus, minus
            )
            offspring = polynomial_mutation(np.concatenate([C1, C2]), lower, upper, mutate, step)
            X = np.concatenate([X, offspring])
            F = np.concatenate([F, _evaluate(problem, offspring)])
        keep, rank, crowding = _select_next(F, params.pop_size)
        X, F = X[keep], F[keep]
        if on_generation is not None:
            on_generation(gen, F)

    # survivors keep their merged-sort rank, and rank 0 is front 0 of the
    # survivors: a truncated front 0 leaves no other rank behind
    return [(X[i].copy(), (float(F[i, 0]), float(F[i, 1]))) for i in np.flatnonzero(rank == 0)]
