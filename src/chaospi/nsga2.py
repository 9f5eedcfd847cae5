"""Bi-objective NSGA-II over box-constrained real vectors.

Implemented from first principles after Deb, Pratap, Agarwal & Meyarivan
(2002): non-dominated sorting, crowding distance, binary tournament selection
under the crowded comparison operator, simulated binary crossover (SBX),
polynomial mutation, and (mu + lambda) elitist replacement. Fronts are peeled
one vectorised pass at a time, and survivor selection stops peeling once the
population is full.

The population is held as arrays: decision vectors ``X`` of shape
``(pop, d)`` and objectives ``F`` of shape ``(pop, 2)``, with rank and
crowding distance as per-row arrays alongside. A generation is a handful of
array operations: all tournaments in one draw, SBX over all pairs, mutation
over all children, one batched evaluation, and survivor selection by row
indices into the merged parents + offspring arrays.

Both objectives are minimized. Callers wanting to maximize an objective
negate it and un-negate on the way out; the engine never special-cases
orientation.

Evaluation: ``Problem.evaluate`` gets the initial population, then at most
one batch per generation: the children that crossover or mutation changed,
in population order. A child equal to its parent takes the parent's
objectives, so ``evaluate`` must be a pure function.

Determinism: all stochastic choices come from one ``numpy`` Generator seeded
with PCG64 (a named, documented 64-bit PRNG), drawn as whole arrays in a
fixed order each generation (tournaments, then SBX, then mutation), so
identical (problem, params, seed) triples reproduce runs bit for bit.
Reproducibility is per seed and per draw order: drawing another array, or
the same arrays in another order, changes the results of every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionMismatchError

# SBX treats parent coordinates closer than this as identical, which keeps
# crossover an exact fixed point for duplicate parents.
_SBX_EPS = 1e-14


@dataclass(frozen=True)
class Problem:
    """A bi-objective minimization problem over the box ``[lower, upper]``.

    The bounds are matching, non-empty 1-D arrays; their length is the
    number of decision variables ``d``. ``evaluate`` maps a ``(k, d)`` batch
    of decision vectors to a ``(k, 2)`` array of their objective values (any
    other shape raises ``DimensionMismatchError``). Each row's values must depend on that row
    alone (the engine reuses the values of an unchanged vector); any
    exception it raises aborts the run and propagates unchanged.
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
    to :func:`run`.
    """

    pop_size: int = 50
    generations: int = 100
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float = 1.0
    mutation_prob_per_var: float | None = None
    mutation_eta: float = 20.0

    def __post_init__(self):
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


def nondominated_fronts(objs: np.ndarray, fill: int | None = None) -> list[np.ndarray]:
    """Peel Pareto fronts from an (n, 2) objective array.

    Returns row index arrays, best front first, each in ascending row
    order; equal points share a front. Every row is placed, or, given
    ``fill``, only the fronts needed to hold at least ``fill`` rows.

    The rows are sorted once in (f1, f2) order. Each pass then takes one
    front: a row is in it when its f2 is below the smallest f2 of the rows
    left before its group of equal points, and the other rows of a group
    follow its first. The first row left is never dominated, so every pass
    places a row, NaN rows included. O(n log n + n * fronts).
    """
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    fill = n if fill is None else min(fill, n)
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    f1, f2 = objs[order, 0], objs[order, 1]
    head = np.arange(n)  # the first sorted row of each row's group
    head[1:][(f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])] = 0
    np.maximum.accumulate(head, out=head)
    verdict = np.empty(n, dtype=bool)
    left = np.arange(n)  # sorted rows not yet placed
    fronts, placed = [], 0
    while placed < fill:
        g2 = f2[left]
        on = np.empty(left.size, dtype=bool)
        on[0] = True
        # fmin skips NaN, so a NaN f2 blocks no later row
        np.less(g2[1:], np.fmin.accumulate(g2)[:-1], out=on[1:])
        verdict[left] = on
        on = verdict[head[left]]
        fronts.append(np.sort(order[left[on]]))
        placed += fronts[-1].size
        left = left[~on]
    return fronts


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """Crowding distances for one front given as an (n, 2) objective array.

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


def tournament_select(
    rank: np.ndarray, crowding: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``size`` binary tournaments under the crowded comparison operator.

    Lower rank wins; equal ranks fall back to larger crowding distance; a
    full tie is settled by a coin flip. Returns the winning row indices.
    """
    i, j = rng.integers(0, rank.size, size=(2, size))
    coin = rng.random(size) < 0.5
    ri, rj, ci, cj = rank[i], rank[j], crowding[i], crowding[j]
    i_wins = (ri < rj) | ((ri == rj) & ((ci > cj) | ((ci == cj) & coin)))
    return np.where(i_wins, i, j)


def sbx_crossover(
    P1: np.ndarray,
    P2: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    params: NsgaParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of the row pairs of two ``(pairs, n_vars)``
    arrays, with distribution index ``crossover_eta``.

    Each pair is crossed with probability ``crossover_prob``; inside a
    crossed pair each variable participates with probability 0.5 and the two
    offspring values are assigned to the children in random order, as in
    Deb's reference implementation (the swap is what lets good coordinates
    recombine across the pair). Children are mean-preserving before the
    final clip to the box; they are new arrays, never views of the parents.
    """
    pairs, n_vars = P1.shape
    crossed = (rng.random(pairs) < params.crossover_prob)[:, None]
    active = crossed & (rng.random((pairs, n_vars)) < 0.5) & (np.abs(P1 - P2) > _SBX_EPS)
    u = rng.random((pairs, n_vars))
    swap = rng.random((pairs, n_vars)) < 0.5
    exponent = 1.0 / (params.crossover_eta + 1.0)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** exponent
    lo = 0.5 * ((1.0 + beta) * P1 + (1.0 - beta) * P2)
    hi = 0.5 * ((1.0 - beta) * P1 + (1.0 + beta) * P2)
    C1 = np.where(active, np.where(swap, hi, lo), P1)
    C2 = np.where(active, np.where(swap, lo, hi), P2)
    return np.clip(C1, lower, upper), np.clip(C2, lower, upper)


def polynomial_mutation(
    X: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    params: NsgaParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Polynomial mutation of the rows of ``X`` with distribution index
    ``mutation_eta``.

    Each row is mutated with probability ``mutation_prob``; inside a
    mutated row each variable mutates independently at the per-variable
    rate. The perturbation is a polynomial-distributed fraction of the
    variable's range, clipped back into the box. Returns a new array.
    """
    k, n_vars = X.shape
    rate = params.mutation_prob_per_var
    if rate is None:
        rate = 1.0 / n_vars
    mutated = (rng.random(k) < params.mutation_prob)[:, None] & (rng.random((k, n_vars)) < rate)
    u = rng.random((k, n_vars))
    exponent = 1.0 / (params.mutation_eta + 1.0)
    delta = np.where(
        u < 0.5, (2.0 * u) ** exponent - 1.0, 1.0 - (2.0 * (1.0 - u)) ** exponent
    )
    return np.clip(np.where(mutated, X + delta * (upper - lower), X), lower, upper)


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
    Only the fronts that fill the population are peeled.

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
    keep, rank, crowding = [], [], []
    kept = 0
    for r, front in enumerate(nondominated_fronts(objs, fill=pop_size)):
        dist = crowding_distance(objs[front])
        room = pop_size - kept
        if front.size > room:
            order = np.lexsort((front, -dist))[:room]
            front, dist = front[order], dist[order]
        keep.append(front)
        rank.append(np.full(front.size, r))
        crowding.append(dist)
        kept += front.size
    return np.concatenate(keep), np.concatenate(rank), np.concatenate(crowding)


def run(
    problem: Problem,
    params: NsgaParams,
    seed: int = 0,
    on_generation: Callable[[int, np.ndarray], None] | None = None,
) -> list[tuple[np.ndarray, tuple[float, float]]]:
    """Run the full loop from a PCG64 generator seeded with ``seed`` and
    return front 0 of the final population as ``(x, f)`` pairs in population
    order; each ``x`` is a fresh array.

    ``on_generation`` fires after each survivor selection (and once for the
    evaluated initial population) with the generation number and the
    ``(pop, 2)`` objective array; mutating it is a caller bug.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lower, upper = problem.lower, problem.upper

    X = rng.uniform(lower, upper, size=(params.pop_size, lower.size))
    F = _evaluate(problem, X)
    # generation 0 only ranks the initial population
    for gen in range(params.generations + 1):
        if gen > 0:
            i, j = tournament_select(rank, crowding, params.pop_size, rng).reshape(2, -1)
            C1, C2 = sbx_crossover(X[i], X[j], lower, upper, params, rng)
            offspring = polynomial_mutation(np.concatenate([C1, C2]), lower, upper, params, rng)
            # a child that neither crossover nor mutation changed keeps its
            # parent's objectives; only the others are evaluated
            parents = np.concatenate([i, j])
            F_off = F[parents]
            changed = ~np.all(offspring == X[parents], axis=1)
            if changed.any():
                F_off[changed] = _evaluate(problem, offspring[changed])
            X = np.concatenate([X, offspring])
            F = np.concatenate([F, F_off])
        keep, rank, crowding = _select_next(F, params.pop_size)
        X, F = X[keep], F[keep]
        if on_generation is not None:
            on_generation(gen, F)

    # survivors keep their merged-sort rank, and rank 0 is front 0 of the
    # survivors: a truncated front 0 leaves no other rank behind
    return [(X[i].copy(), (float(F[i, 0]), float(F[i, 1]))) for i in np.flatnonzero(rank == 0)]
