"""Bi-objective NSGA-II over box-constrained real vectors.

Implemented from first principles after Deb, Pratap, Agarwal & Meyarivan
(2002): fast non-dominated sorting, crowding distance, binary tournament
selection under the crowded comparison operator, simulated binary crossover
(SBX), polynomial mutation, and (mu + lambda) elitist replacement.

The population is held as arrays: decision vectors ``X`` of shape
``(pop, n_vars)`` and objectives ``F`` of shape ``(pop, 2)``, with rank and
crowding distance as per-row arrays alongside. Survivor selection returns
row indices into the merged parents + offspring arrays.

Both objectives are minimized. Callers wanting to maximize an objective
negate it and un-negate on the way out; the engine never special-cases
orientation.

Determinism: all stochastic choices come from one ``numpy`` Generator seeded
with PCG64 (a named, documented 64-bit PRNG) and are consumed sequentially on
the control thread, so identical (problem, params, seed) triples reproduce
runs bit for bit. Objective evaluations happen in population index order;
a child equal to the parent it was copied from is not evaluated again but
takes that parent's objectives, so ``evaluate`` must be a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

# SBX treats parent coordinates closer than this as identical, which keeps
# crossover an exact fixed point for duplicate parents.
_SBX_EPS = 1e-14


@dataclass(frozen=True)
class Problem:
    """A bi-objective minimization problem over a box.

    ``evaluate`` maps a decision vector to its two objective values and
    must not depend on anything else (the engine reuses the values of an
    unchanged vector); any exception it raises aborts the run and
    propagates unchanged.
    """

    n_vars: int
    lower: np.ndarray
    upper: np.ndarray
    evaluate: Callable[[np.ndarray], tuple[float, float]]

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.n_vars < 1:
            raise ConfigError("n_vars must be >= 1")
        if lower.shape != (self.n_vars,) or upper.shape != (self.n_vars,):
            raise ConfigError("bounds must have shape (n_vars,)")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise ConfigError("bounds must be finite")
        if not np.all(lower < upper):
            raise ConfigError("each lower bound must be strictly below its upper bound")


@dataclass(frozen=True)
class NsgaParams:
    """Engine hyperparameters.

    ``mutation_prob`` gates mutation per individual; ``mutation_prob_per_var``
    is the per-variable rate inside a mutated individual and defaults to
    1/n_vars when left as None.
    """

    pop_size: int = 50
    generations: int = 100
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float = 1.0
    mutation_prob_per_var: float | None = None
    mutation_eta: float = 20.0
    seed: int = 0

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
        if self.crossover_eta <= 0 or self.mutation_eta <= 0:
            raise ConfigError("distribution indices must be positive")


def dominates(f_a: Sequence[float], f_b: Sequence[float]) -> bool:
    """True when ``f_a`` is no worse in both objectives and better in one."""
    return (
        f_a[0] <= f_b[0]
        and f_a[1] <= f_b[1]
        and (f_a[0] < f_b[0] or f_a[1] < f_b[1])
    )


def nondominated_fronts(objs: np.ndarray) -> list[np.ndarray]:
    """Peel Pareto fronts from an (n, 2) objective array.

    Returns row index arrays, best front first, each in ascending row
    order; every row appears exactly once. Builds the full domination
    matrix with broadcasting, then repeatedly extracts the set with no
    remaining dominators.
    """
    objs = np.asarray(objs, dtype=float)
    f1 = objs[:, 0]
    f2 = objs[:, 1]
    no_worse = (f1[:, None] <= f1[None, :]) & (f2[:, None] <= f2[None, :])
    better = (f1[:, None] < f1[None, :]) | (f2[:, None] < f2[None, :])
    dom = no_worse & better  # dom[i, j]: i dominates j
    n_dominators = dom.sum(axis=0).astype(np.int64)
    fronts: list[np.ndarray] = []
    current = np.flatnonzero(n_dominators == 0)
    while current.size:
        fronts.append(current)
        n_dominators[current] = -1
        n_dominators -= dom[current].sum(axis=0)
        current = np.flatnonzero(n_dominators == 0)
    return fronts


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """Crowding distances for one front given as an (n, 2) objective array.

    Boundary points get infinity; interior points sum normalized gaps
    between their sorted neighbors per objective. An objective with zero
    range contributes nothing.
    """
    objs = np.asarray(objs, dtype=float)
    n = objs.shape[0]
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for j in range(objs.shape[1]):
        order = np.argsort(objs[:, j], kind="stable")
        spread = objs[order[-1], j] - objs[order[0], j]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if spread > 0:
            gaps = (objs[order[2:], j] - objs[order[:-2], j]) / spread
            dist[order[1:-1]] += gaps
    return dist


def tournament_select(
    rank: np.ndarray, crowding: np.ndarray, rng: np.random.Generator
) -> int:
    """Binary tournament under the crowded comparison operator.

    Lower rank wins; equal ranks fall back to larger crowding distance; a
    full tie is settled by a coin flip. Returns the winning row index.
    """
    i, j = (int(v) for v in rng.integers(0, rank.size, size=2))
    if i == j:
        return i
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i if int(rng.integers(0, 2)) == 0 else j


def sbx_crossover(
    p1: np.ndarray,
    p2: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    params: NsgaParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover with distribution index ``crossover_eta``.

    The whole pair is crossed with probability ``crossover_prob``; inside a
    crossed pair each variable participates with probability 0.5 and the two
    offspring values are assigned to the children in random order, as in
    Deb's reference implementation (the swap is what lets good coordinates
    recombine across the pair). Children are mean-preserving before the
    final clip to the box.
    """
    c1 = p1.copy()
    c2 = p2.copy()
    if rng.random() >= params.crossover_prob:
        return c1, c2
    exponent = 1.0 / (params.crossover_eta + 1.0)
    for k in range(p1.size):
        if rng.random() >= 0.5:
            continue
        x1, x2 = p1[k], p2[k]
        if abs(x1 - x2) <= _SBX_EPS:
            continue
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** exponent
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** exponent
        lo = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
        hi = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
        if rng.random() < 0.5:
            lo, hi = hi, lo
        c1[k] = lo
        c2[k] = hi
    np.clip(c1, lower, upper, out=c1)
    np.clip(c2, lower, upper, out=c2)
    return c1, c2


def polynomial_mutation(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    params: NsgaParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Polynomial mutation with distribution index ``mutation_eta``.

    Each variable mutates independently at the per-variable rate; the
    perturbation is a polynomial-distributed fraction of the variable's
    range, clipped back into the box.
    """
    y = x.copy()
    rate = params.mutation_prob_per_var
    if rate is None:
        rate = 1.0 / x.size
    exponent = 1.0 / (params.mutation_eta + 1.0)
    for k in range(x.size):
        if rng.random() >= rate:
            continue
        u = rng.random()
        if u < 0.5:
            delta = (2.0 * u) ** exponent - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u)) ** exponent
        y[k] = y[k] + delta * (upper[k] - lower[k])
    np.clip(y, lower, upper, out=y)
    return y


def _evaluate(problem: Problem, X: np.ndarray) -> np.ndarray:
    F = np.empty((X.shape[0], 2))
    for k, x in enumerate(X):
        F[k] = problem.evaluate(x)
    return F


def _select_next(
    objs: np.ndarray, pop_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elitist (mu + lambda) replacement: fill front by front, truncating the
    overflow front by descending crowding distance with index as tie-break.

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
    for r, front in enumerate(nondominated_fronts(objs)):
        dist = crowding_distance(objs[front])
        room = pop_size - kept
        if front.size > room:
            order = np.lexsort((front, -dist))[:room]
            front, dist = front[order], dist[order]
        keep.append(front)
        rank.append(np.full(front.size, r))
        crowding.append(dist)
        kept += front.size
        if kept == pop_size:
            break
    return np.concatenate(keep), np.concatenate(rank), np.concatenate(crowding)


def run(
    problem: Problem,
    params: NsgaParams,
    on_generation: Callable[[int, np.ndarray], None] | None = None,
) -> list[tuple[np.ndarray, tuple[float, float]]]:
    """Run the full loop and return front 0 of the final population as
    ``(x, f)`` pairs in population order; each ``x`` is a fresh array.

    ``on_generation`` fires after each survivor selection (and once for the
    evaluated initial population) with the generation number and the
    ``(pop, 2)`` objective array; mutating it is a caller bug.
    """
    rng = np.random.Generator(np.random.PCG64(params.seed))
    lower, upper = problem.lower, problem.upper

    X = rng.uniform(lower, upper, size=(params.pop_size, problem.n_vars))
    F = _evaluate(problem, X)
    # the initial population keeps its order; only rank and crowding are set
    order, r, c = _select_next(F, params.pop_size)
    rank, crowding = np.empty_like(r), np.empty_like(c)
    rank[order], crowding[order] = r, c
    if on_generation is not None:
        on_generation(0, F)

    for gen in range(1, params.generations + 1):
        children, parents = [], []
        for _ in range(params.pop_size // 2):
            i = tournament_select(rank, crowding, rng)
            j = tournament_select(rank, crowding, rng)
            for child, p in zip(sbx_crossover(X[i], X[j], lower, upper, params, rng), (i, j)):
                if rng.random() < params.mutation_prob:
                    child = polynomial_mutation(child, lower, upper, params, rng)
                children.append(child)
                parents.append(p)
        offspring = np.array(children)
        # a child that neither crossover nor mutation changed keeps its
        # parent's objectives; only the others are evaluated
        parents = np.array(parents)
        copied = np.all(offspring == X[parents], axis=1)
        F_off = np.empty((offspring.shape[0], 2))
        F_off[copied] = F[parents[copied]]
        F_off[~copied] = _evaluate(problem, offspring[~copied])
        X = np.concatenate([X, offspring])
        F = np.concatenate([F, F_off])
        keep, rank, crowding = _select_next(F, params.pop_size)
        X, F = X[keep], F[keep]
        if on_generation is not None:
            on_generation(gen, F)

    # survivors keep their merged-sort rank, and rank 0 is front 0 of the
    # survivors: a truncated front 0 leaves no other rank behind
    return [(X[i].copy(), (float(F[i, 0]), float(F[i, 1]))) for i in np.flatnonzero(rank == 0)]
