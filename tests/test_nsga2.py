"""Engine tests: sorting against a brute-force oracle, operator behavior,
and the run loop's determinism and selection invariants."""

import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaospi import nsga2
from chaospi.errors import ConfigError, DimensionMismatchError
from chaospi.nsga2 import (
    NsgaParams,
    Problem,
    _select_next,
    nondominated_fronts,
    polynomial_mutation,
    run,
    sbx_crossover,
    tournament_select,
)
from helpers import (
    SPLITMIX_GOLDEN,
    ReferenceUniforms,
    brute_force_fronts,
    crowding_distance,
    elitism_violations,
    reference_batches,
    reference_polynomial_mutation,
    reference_sbx_crossover,
    reference_select,
    same_bits,
    splitmix64_mix,
    splitmix64_unmix,
)


def fronts_of(objs):
    return [front.tolist() for front in nondominated_fronts(objs)]


def test_sort_known_case():
    objs = np.array([(1, 3), (3, 1), (2, 2), (3, 3)], dtype=float)
    fronts = fronts_of(objs)
    assert fronts == [[0, 1, 2], [3]]
    keep, rank, _ = _select_next(objs, len(objs))
    assert keep.tolist() == [0, 1, 2, 3]
    assert rank.tolist() == [0, 0, 0, 1]


def test_sort_handles_duplicates():
    assert fronts_of([(1, 1), (1, 1), (2, 2)]) == [[0, 1], [2]]


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=40,
    )
)
def test_sort_matches_brute_force(objs):
    # a small integer grid forces plenty of ties and duplicates
    got = [sorted(front) for front in fronts_of(objs)]
    assert got == brute_force_fronts(np.array(objs, dtype=float))


def test_fill_stops_after_the_front_that_reaches_it():
    objs = np.array([(0, 0), (1, 1), (1, 1), (2, 2), (3, 3)], dtype=float)
    assert [f.tolist() for f in nondominated_fronts(objs, fill=1)] == [[0]]
    assert [f.tolist() for f in nondominated_fronts(objs, fill=2)] == [[0], [1, 2]]
    assert [f.tolist() for f in nondominated_fronts(objs, fill=3)] == [[0], [1, 2]]
    assert fronts_of(objs) == [[0], [1, 2], [3], [4]]
    assert nondominated_fronts(np.empty((0, 2))) == []


NON_FINITE = [
    [(1, np.nan), (0.5, 2), (2, 1), (np.nan, 0.1), (3, 3)],
    [(np.nan, np.nan)] * 3 + [(0, 0), (np.nan, 1), (1, np.nan)],
    [(0, np.inf), (1, np.inf), (-np.inf, 5), (np.inf, -np.inf), (np.inf, np.inf), (2, 2)],
    [(np.inf, np.inf)] * 4 + [(-np.inf, -np.inf), (np.nan, -np.inf)],
]


@pytest.mark.parametrize("objs", NON_FINITE)
def test_non_finite_rows_are_each_placed_once(objs):
    objs = np.array(objs, dtype=float)
    n = len(objs)
    rows = np.concatenate(nondominated_fronts(objs))
    assert sorted(rows.tolist()) == list(range(n))
    for pop_size in range(1, n + 1):
        keep, rank, crowding = _select_next(objs, pop_size)
        assert keep.size == rank.size == crowding.size == pop_size
        assert np.unique(keep).size == pop_size


def test_infinite_rows_sort_like_the_oracle():
    objs = NON_FINITE[2]
    assert [sorted(f) for f in fronts_of(objs)] == brute_force_fronts(objs)


def front_cut(objs, case, rng):
    """A population size just before, on or just after a front boundary."""
    ends = np.cumsum([len(f) for f in brute_force_fronts(objs)])
    return int(np.clip(rng.choice(ends) + case % 3 - 1, 1, len(objs)))


def selects_like_oracle(objs, pop_size):
    """Whether ``_select_next`` equals the oracle's selection bit for bit.

    A NaN row is incomparable to the brute force, which leaves it in front
    0, while the peel places it by its sort; so a merge holding NaN takes
    the peel's own full fronts, and only crowding and truncation are
    checked against the oracle.
    """
    fronts = nondominated_fronts(objs) if np.isnan(objs).any() else None
    got = _select_next(objs, pop_size)
    want = reference_select(objs, pop_size, fronts)
    return all(same_bits(g, w) for g, w in zip(got, want))


# merges whose crowding the peel's own sort must read as crowding_distance does
ORACLE_EDGES = {
    "nan_f1": [(0, 1), (np.nan, 0.5), (1, 0), (0.5, 0.5), (0.2, 0.8), (np.nan, 0.1), (0.7, 0.7)],
    "nan_f2": [(0, np.nan), (0.5, 0.5), (1, 0), (0.2, 0.8), (0.7, 0.3), (0.3, np.nan), (0.6, 0.6)],
    "signed_zero_f2": [(0, 1), (0.5, 0.0), (0.5, -0.0), (0.5, 0.0), (1, -1), (0.2, 0.5), (0.9, -0.5),
                       (0.7, -0.0), (0.7, 0.0)],
    "signed_zero_f1": [(-0.0, 1), (0.0, 1), (0.5, 0.0), (1, -1), (0.0, 1), (0.2, 0.5)],
    "one_and_two_row_fronts": [(0, 0), (1, 2), (2, 1), (3, 3), (4, 4), (5, 5), (4, 6)],
    "duplicate_end_groups": [(0, 3), (0, 3), (1, 2), (2, 1), (3, 0), (3, 0), (1.5, 1.5), (4, 4)],
    "duplicate_end_groups_of_three": [(3, 0), (0, 3), (0, 3), (1, 2), (0, 3), (3, 0), (3, 0),
                                      (2, 1), (2, 1)],
    "one_group": [(1, 1)] * 5,
}


@pytest.mark.parametrize("name", sorted(ORACLE_EDGES))
def test_select_next_matches_oracle_on_edge_merges(name):
    objs = np.array(ORACLE_EDGES[name], dtype=float)
    for pop_size in range(1, len(objs) + 1):
        assert selects_like_oracle(objs, pop_size), f"{name} at pop_size {pop_size}"


def test_select_next_matches_full_sort_oracle():
    """Bit for bit against selection from fully peeled oracle fronts, with
    the population cut just before, on and just after a front boundary."""
    rng = np.random.default_rng(1105)
    for case in range(1200):
        n = int(rng.integers(2, 61))
        if case % 2 == 0:
            objs = rng.integers(0, 6, size=(n, 2)).astype(float)  # heavy ties
        else:
            objs = rng.uniform(0.0, 1.0, size=(n, 2))
        assert selects_like_oracle(objs, front_cut(objs, case, rng)), f"case {case} diverged"


def stage3_objectives(kind, n, rng):
    """Rows shaped like a stage-3 population: f1 is -PICP on coverage levels
    -k/7, f2 a continuous width."""
    objs = np.column_stack([-rng.integers(0, 8, n) / 7.0, rng.uniform(0.0, 2.0, n)])
    if kind == "copies":  # every unchanged child copies its parent
        objs[n // 2 :] = objs[rng.permutation(n // 2)]
    elif kind == "infinite":  # a tenth of the rows, at least one
        objs[rng.choice(n, max(1, n // 10), replace=False), 0] = np.inf
    elif kind == "nan":  # one objective of one row
        objs[rng.integers(n), rng.integers(2)] = np.nan
    return objs


@pytest.mark.parametrize(
    "kind, seed", [("copies", 2207), ("levels", 2208), ("infinite", 2209), ("nan", 2210)]
)
def test_select_next_matches_oracle_on_stage3_shapes(kind, seed):
    """Bit for bit against the oracle on the objective shapes of stage 3,
    cut just before, on and just after a front boundary."""
    rng = np.random.default_rng(seed)
    for case in range(200):
        n = 2 * int(rng.integers(1, 31))
        objs = stage3_objectives(kind, n, rng)
        assert selects_like_oracle(objs, front_cut(objs, case, rng)), f"{kind} case {case} diverged"


def mixed_merge(rng):
    """A merge of up to 160 rows: uniform, rounded to 0.1 or with discrete
    f1, a tenth of f1 infinite in half of them, half the rows copies in
    half of them, and zeros of either sign."""
    n = int(rng.integers(1, 161))
    objs = rng.uniform(-1.0, 1.0, (n, 2))
    shape = rng.integers(3)
    if shape == 1:
        objs = np.round(objs, 1)
    elif shape == 2:
        objs[:, 0] = rng.integers(0, 8, n) / 7.0
    if rng.random() < 0.5:
        objs[rng.choice(n, max(1, n // 10), replace=False), 0] = np.inf
    if rng.random() < 0.5:
        objs[n // 2 :] = objs[rng.integers(0, max(1, n // 2), n - n // 2)]
    zero = objs == 0.0
    objs[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return objs


def test_select_next_matches_oracle_on_mixed_merges():
    rng = np.random.default_rng(2511)
    for case in range(240):
        objs = mixed_merge(rng)
        assert selects_like_oracle(objs, front_cut(objs, case, rng)), f"case {case} diverged"


def test_nan_rows_are_ends_of_their_fronts():
    """Selection reads a NaN row's crowding as a front end's, so every NaN
    row the peel places must be alone in its group, with a NaN f2 only
    first in its front and a NaN f1 only first or last."""
    rng = np.random.default_rng(2512)
    for case in range(300):
        objs = mixed_merge(rng)
        objs[rng.random(objs.shape) < 0.15] = np.nan
        order, f1, f2, head = nsga2._sorted_groups(objs)
        tail = head.searchsorted(head, "right") - 1
        for pos in nsga2._peel(f2, head, objs.shape[0]):
            nan_f1, nan_f2 = np.flatnonzero(np.isnan(f1[pos])), np.flatnonzero(np.isnan(f2[pos]))
            assert set(nan_f2) <= {0} and set(nan_f1) <= {0, pos.size - 1}, f"case {case}"
            alone = pos[np.union1d(nan_f1, nan_f2)]
            assert np.array_equal(head[alone], alone) and np.array_equal(tail[alone], alone)
        assert selects_like_oracle(objs, front_cut(objs, case, rng)), f"case {case} diverged"


def test_crowding_known_case():
    d = crowding_distance(np.array([(0.0, 3.0), (1.0, 1.0), (2.0, 0.0)]))
    assert d[0] == np.inf and d[2] == np.inf
    assert d[1] == pytest.approx(2.0)


def test_crowding_small_fronts_are_infinite():
    assert np.all(np.isinf(crowding_distance(np.array([(1.0, 2.0)]))))
    assert np.all(np.isinf(crowding_distance(np.array([(1.0, 2.0), (3.0, 4.0)]))))


def test_crowding_ignores_flat_objective():
    d = crowding_distance(np.array([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]))
    assert d[1] == pytest.approx(1.0)
    assert np.all(np.isfinite(d[1:2]))


@pytest.mark.parametrize(
    "objs, interior",
    [
        ([(0, np.inf), (1, 3), (2, 1), (np.inf, 0)], [0.0, 0.0]),
        ([(-np.inf, 2), (1, 1), (3, 0)], [1.0]),
        ([(np.inf, np.inf)] * 3, [0.0]),
        ([(0, np.nan), (1, 2), (np.nan, 1)], [0.0]),
    ],
)
def test_crowding_skips_objectives_without_finite_spread(objs, interior):
    # such an objective adds nothing to the interior points, instead of the
    # NaN of inf / inf or inf - inf and its RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = crowding_distance(np.array(objs, dtype=float))
    assert np.isinf(d[0]) and np.isinf(d[-1])
    assert d[1:-1].tolist() == interior


def tournaments(rank, crowding, size, rng):
    """``size`` tournaments among all rows, drawn as the engine draws them."""
    contenders = rng.integers(0, rank.size, size=(2, size))
    return tournament_select(rank, crowding, contenders, rng.random(size) < 0.5)


def test_tournament_prefers_rank_then_crowding():
    rng = np.random.default_rng(0)
    rank, crowding = np.array([0, 1]), np.zeros(2)
    wins = tournaments(rank, crowding, 400, rng).tolist()
    # the worse-ranked member can only come back when it is drawn twice,
    # which happens in a quarter of the tournaments
    assert 0 in wins and wins.count(1) < wins.count(0)

    rank, crowding = np.array([0, 0]), np.array([5.0, 1.0])
    wins = tournaments(rank, crowding, 400, rng).tolist()
    assert wins.count(0) > wins.count(1)


def test_tournament_tie_breaks_by_fair_coin():
    rng = np.random.default_rng(42)
    rank, crowding = np.array([0, 0]), np.array([1.0, 1.0])
    wins = tournaments(rank, crowding, 4000, rng)
    share = np.mean(wins == 0)
    assert 0.42 <= share <= 0.58


def test_tournament_coin_is_the_uniform_below_one_half():
    # a full tie in every tournament: row 0 meets row 1, so the coin decides
    rank, crowding = np.zeros(4, dtype=int), np.ones(4)
    params = NsgaParams(pop_size=4, generations=1)
    block = np.zeros(generation_width(4, 1))
    block[4:8] = 0.3  # floor(0.3 * 4) = 1
    block[8:12] = [0.0, 0.4999, 0.5, 0.99]
    contenders, coins = next(nsga2._variates(FixedUniforms(block), params, np.ones(1)))[:2]
    assert contenders.tolist() == [[0, 0, 0, 0], [1, 1, 1, 1]]
    wins = tournament_select(rank, crowding, contenders, coins)
    assert wins.tolist() == [0, 0, 1, 1]


class FixedUniforms:
    """Stands in for ``nsga2.Uniforms``, handing out the given values."""

    def __init__(self, values):
        self.values = values

    def draw(self, n):
        out, self.values = self.values[:n], self.values[n:]
        assert out.size == n
        return out


def generation_width(pop, n_vars):
    """The uniforms one generation draws: contenders, coins, SBX, mutation."""
    return 3 * pop + pop // 2 * (1 + 3 * n_vars) + pop * (1 + 2 * n_vars)


def one_generation(params, pop, span, sbx=None, mutation=None):
    """One generation's variates from ``nsga2._variates`` for a population
    of ``pop`` rows in a box whose ranges are ``span``: the uniforms ``sbx``
    and ``mutation`` sit in their places of the generation's block, and
    every other place holds 0.25."""
    n_vars = span.size
    block = np.concatenate([
        np.full(3 * pop, 0.25),
        np.full(pop // 2 * (1 + 3 * n_vars), 0.25) if sbx is None else sbx,
        np.full(pop * (1 + 2 * n_vars), 0.25) if mutation is None else mutation,
    ])
    params = replace(params, pop_size=pop, generations=1)
    return next(nsga2._variates(FixedUniforms(block), params, span))


def sbx_variates(pairs, span, params, rng):
    """The engine's ``(cross, own, other)`` for ``pairs`` row pairs, from
    the next ``pairs * (1 + 3 * d)`` uniforms of the numpy ``rng``, the ones
    ``reference_sbx_crossover`` draws in four calls."""
    u = rng.random(pairs * (1 + 3 * span.size))
    return one_generation(params, 2 * pairs, span, sbx=u)[2:5]


def stacked_sbx(P1, P2, lower, upper, params, rng):
    """The engine's children of the pairs (P1[r], P2[r]), stacked as
    ``[C1; C2]``: ``sbx_crossover`` of the parents ``[P1; P2]``."""
    span = upper - lower
    parents = np.concatenate([P1, P2])
    return sbx_crossover(parents, lower, upper, *sbx_variates(len(P1), span, params, rng))


def mutation_variates(k, span, params, rng):
    """The engine's ``(mutate, step)`` for ``k`` rows, from the next
    ``k * (1 + 2 * d)`` uniforms of the numpy ``rng``, the ones
    ``reference_polynomial_mutation`` draws in three calls."""
    u = rng.random(k * (1 + 2 * span.size))
    return one_generation(params, k, span, mutation=u)[5:]


def params_for(n_vars, **kw):
    defaults = dict(pop_size=20, generations=10)
    defaults.update(kw)
    return NsgaParams(**defaults)


def test_sbx_identical_parents_are_fixed_points():
    rng = np.random.default_rng(1)
    P = rng.uniform(0.0, 1.0, size=(50, 3))
    lo, hi = np.zeros(3), np.ones(3)
    params = params_for(3, crossover_prob=1.0)
    C = stacked_sbx(P, P.copy(), lo, hi, params, rng)
    assert np.array_equal(C, np.concatenate([P, P]))


def test_sbx_zero_probability_returns_copies():
    rng = np.random.default_rng(1)
    P = np.concatenate([np.full((5, 1), 0.2), np.full((5, 1), 0.8)])
    params = params_for(1, crossover_prob=0.0)
    lo, hi = np.zeros(1), np.ones(1)
    C = sbx_crossover(P, lo, hi, *sbx_variates(5, hi - lo, params, rng))
    assert np.all(C[:5] == 0.2) and np.all(C[5:] == 0.8)
    C[0, 0] = 99.0
    assert P[0, 0] == 0.2  # children are copies, not views


def test_sbx_preserves_pair_mean_inside_wide_box():
    P1 = np.full((200, 2), 0.3)
    P2 = np.full((200, 2), 0.7)
    lo, hi = np.full(2, -100.0), np.full(2, 100.0)
    rng = np.random.default_rng(0)
    params = params_for(2, crossover_prob=1.0)
    C = stacked_sbx(P1, P2, lo, hi, params, rng)
    assert C[:200] + C[200:] == pytest.approx(P1 + P2, abs=1e-9)


def test_sbx_offspring_order_is_randomized():
    # without the child swap, c1 would always take the low offspring value
    P1 = np.full((100, 1), 0.3)
    P2 = np.full((100, 1), 0.7)
    lo, hi = np.zeros(1), np.ones(1)
    rng = np.random.default_rng(0)
    params = params_for(1, crossover_prob=1.0)
    C1, C2 = np.split(stacked_sbx(P1, P2, lo, hi, params, rng), 2)
    moved = C1[:, 0] != 0.3
    assert set((C1[moved, 0] < C2[moved, 0]).tolist()) == {True, False}


@settings(max_examples=100)
@given(st.integers(0, 10_000))
def test_sbx_respects_bounds(seed):
    rng = np.random.default_rng(seed)
    P1 = np.tile([0.01, 0.99, 0.5], (8, 1))
    P2 = np.tile([0.98, 0.02, 0.51], (8, 1))
    params = params_for(3, crossover_prob=1.0)
    lo, hi = np.zeros(3), np.ones(3)
    C = stacked_sbx(P1, P2, lo, hi, params, rng)
    assert np.all(C >= 0.0) and np.all(C <= 1.0)


def test_mutation_zero_rate_is_identity():
    rng = np.random.default_rng(0)
    X = np.full((6, 2), 0.5)
    params = params_for(2, mutation_prob_per_var=0.0)
    lo, hi = np.zeros(2), np.ones(2)
    Y = polynomial_mutation(X, lo, hi, *mutation_variates(len(X), hi - lo, params, rng))
    assert np.array_equal(Y, X)
    Y[0, 0] = 9.0
    assert X[0, 0] == 0.5


@settings(max_examples=100)
@given(st.integers(0, 10_000))
def test_mutation_respects_bounds(seed):
    rng = np.random.default_rng(seed)
    X = np.tile([0.0, 1.0, 0.5], (8, 1))
    params = params_for(3, mutation_prob_per_var=1.0)
    lo, hi = np.zeros(3), np.ones(3)
    Y = polynomial_mutation(X, lo, hi, *mutation_variates(len(X), hi - lo, params, rng))
    assert np.all(Y >= 0.0) and np.all(Y <= 1.0)


def test_mutation_spread_shrinks_with_eta():
    X = np.full((500, 1), 0.5)
    lo, hi = np.zeros(1), np.ones(1)

    def mean_move(eta):
        rng = np.random.default_rng(0)
        params = params_for(1, mutation_prob_per_var=1.0, mutation_eta=eta)
        variates = mutation_variates(len(X), hi - lo, params, rng)
        Y = polynomial_mutation(X, lo, hi, *variates)
        return np.mean(np.abs(Y - 0.5))

    assert mean_move(5.0) > mean_move(50.0)


def edge_cells(seed, shape):
    """Decision rows around the box [0, 1], some outside it, with cells of
    0.0, -0.0, NaN and 1.0 mixed in."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.2, 1.2, shape)
    hit = rng.random(shape) < 0.3
    X[hit] = rng.choice([0.0, -0.0, np.nan, 1.0], size=int(hit.sum()))
    return X


# boxes whose bounds meet the edge cells, signed zeros included
BOXES = [(0.0, 1.0), (-1.0, 1.0), (-0.0, 0.5), (-1.0, -0.0)]


# eta 1 makes the exponent 0.5, which numpy's ``**`` takes as a square root
@pytest.mark.parametrize("crossover_prob", [0.0, 0.75, 1.0])
@pytest.mark.parametrize("eta", [1.0, 15.0])
@pytest.mark.parametrize("box", BOXES)
def test_sbx_matches_reference_bit_for_bit(crossover_prob, eta, box):
    """SBX on the variates ``nsga2._variates`` makes from a generation's
    uniforms equals the reference's plain expressions on the same uniforms:
    the children of the parents ``[P1; P2]`` are the reference's
    ``[C1; C2]``."""
    params = params_for(3, crossover_prob=crossover_prob, crossover_eta=eta)
    lo, hi = np.full(3, box[0]), np.full(3, box[1])
    for seed in range(10):
        P1, P2 = edge_cells(seed, (12, 3)), edge_cells(seed + 100, (12, 3))
        P2[:4] = P1[:4]  # equal parents
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = stacked_sbx(P1, P2, lo, hi, params, rng)
        want = reference_sbx_crossover(P1, P2, lo, hi, params, ref_rng)
        assert same_bits(got, np.concatenate(want))
        # the reference draws as many uniforms as the engine's SBX section holds
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=200)
@given(
    pairs=st.integers(2, 40),
    n_vars=st.integers(1, 8),
    box=st.one_of(
        st.sampled_from(BOXES),
        st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 20.0)).map(lambda t: (t[0], t[0] + t[1])),
    ),
    crossover_prob=st.sampled_from([0.0, 0.75, 1.0]),
    eta=st.floats(0.5, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_sbx_matches_the_reference_pairs(pairs, n_vars, box, crossover_prob, eta, seed):
    """For any even population, dimension and box, the children of the
    parents ``[P1; P2]`` are the reference's ``[C1; C2]`` bit for bit."""
    params = params_for(n_vars, crossover_prob=crossover_prob, crossover_eta=eta)
    lo, hi = np.full(n_vars, box[0]), np.full(n_vars, box[1])
    # edge cells stretched over the box: some outside it, some on its bounds, NaN
    P1, P2 = (lo + (hi - lo) * edge_cells(seed + i, (pairs, n_vars)) for i in (0, 1))
    P2[: pairs // 3] = P1[: pairs // 3]  # equal parents
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = stacked_sbx(P1, P2, lo, hi, params, rng)
    assert same_bits(got, np.concatenate(reference_sbx_crossover(P1, P2, lo, hi, params, ref_rng)))


@pytest.mark.parametrize("rate", [0.0, None, 1.0])
@pytest.mark.parametrize("eta", [1.0, 20.0])
@pytest.mark.parametrize("box", BOXES)
def test_mutation_matches_reference_bit_for_bit(rate, eta, box):
    """Mutation on the variates ``nsga2._variates`` makes from a
    generation's uniforms equals the reference's on the same uniforms."""
    params = params_for(3, mutation_prob_per_var=rate, mutation_eta=eta)
    lo, hi = np.full(3, box[0]), np.full(3, box[1])
    for seed in range(10):
        X = edge_cells(seed, (24, 3))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        variates = mutation_variates(len(X), hi - lo, params, rng)
        got = polynomial_mutation(X, lo, hi, *variates)
        assert same_bits(got, reference_polynomial_mutation(X, lo, hi, params, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def rounded_objectives(n_vars):
    """A linear bi-objective map rounded to one decimal, so that ranks and
    crowding distances tie often."""
    W = np.random.default_rng(n_vars).normal(size=(n_vars, 2))
    return lambda X: np.round(X @ W, 1)


# (pop, d): blocks of 256, 91, 10 and 4 generations, one of 6 565 uniforms,
# and one generation of 8 255, more than a block holds
@pytest.mark.parametrize("pop, n_vars, rate",
                         [(4, 1, None), (6, 3, 0.5), (70, 2, None), (50, 9, None),
                          (202, 8, 0.5), (254, 8, None)])
def test_children_match_the_reference_across_block_boundaries(monkeypatch, pop, n_vars, rate):
    """Runs of 0, 1, G - 1, G, G + 1 and 2G + 1 generations, G being the
    generations one block of uniforms holds, hand ``evaluate`` the batches
    of the reference replay, which draws every array by its own call from
    the pure-Python SplitMix64, bit for bit. No draw exceeds one block of
    2**13 uniforms or one generation's, and a run draws exactly the
    initial population's and each generation's uniforms."""
    width = generation_width(pop, n_vars)
    block = max(1, 2**13 // width)
    draws, batches = [], []
    draw = nsga2.Uniforms.draw

    def draw_spy(self, n):
        draws.append(n)
        return draw(self, n)

    monkeypatch.setattr(nsga2.Uniforms, "draw", draw_spy)
    objectives = rounded_objectives(n_vars)
    lo, hi = np.full(n_vars, -1.0), np.full(n_vars, 2.0)
    problem = Problem(lo, hi, objectives)
    recording = Problem(lo, hi, lambda X: batches.append(X.copy()) or objectives(X))

    def params(generations):
        return NsgaParams(pop_size=pop, generations=generations, crossover_prob=0.75,
                          mutation_prob=0.8, mutation_prob_per_var=rate)

    want = reference_batches(problem, params(2 * block + 1), seed=pop)
    for generations in sorted({0, 1, block - 1, block, block + 1, 2 * block + 1}):
        draws.clear()
        batches.clear()
        run(recording, params(generations), seed=pop)
        assert len(batches) == generations + 1
        for got, ref in zip(batches, want):
            assert same_bits(got, ref)
        assert max(draws) <= max(width, 2**13)
        assert sum(draws) == pop * n_vars + generations * width


def test_splitmix64_reference_gives_the_published_stream():
    # SplitMix64 from state 0 starts 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4
    assert ReferenceUniforms(0).words(2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    for z in [0, 1, 2**63, 2**64 - 1, SPLITMIX_GOLDEN]:
        assert splitmix64_unmix(splitmix64_mix(z)) == z


# seeds whose stream keys are 0, 1 and 2**64 - 1
KEY_SEEDS = [splitmix64_unmix(key) for key in (0, 1, 2**64 - 1)]


@pytest.mark.parametrize("seed", KEY_SEEDS, ids=["key0", "key1", "key_max"])
@pytest.mark.parametrize("n, m", [(1, 1), (7, 300), (300, 7), (640, 640)])
def test_uniforms_match_the_reference_in_any_split(seed, n, m):
    """Drawing n then m values equals drawing n + m, and both equal the
    pure-Python SplitMix64 bit for bit."""
    split = nsga2.Uniforms(seed)
    got = np.concatenate([split.draw(n), split.draw(m)])
    assert split.key == nsga2.mix64(seed) == splitmix64_mix(seed)
    assert same_bits(got, nsga2.Uniforms(seed).draw(n + m))
    assert same_bits(got, ReferenceUniforms(seed).random(n + m))
    assert split.drawn == n + m


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_uniforms_are_uniform_and_uncorrelated(seed):
    """Over 10**6 draws, chi-square over 100 equal bins (99 degrees of
    freedom, mean 99, sd 14) lies in (50, 160), and the lag-1 correlation
    (sd 0.001) is below 0.005 in size."""
    u = nsga2.Uniforms(seed).draw(10**6)
    assert 0.0 <= u.min() and u.max() < 1.0
    counts = np.bincount((u * 100).astype(int), minlength=100)
    chi2 = float(np.sum((counts - 10**4) ** 2) / 10**4)
    assert 50.0 < chi2 < 160.0
    assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.005


def test_contenders_stay_in_range_at_the_largest_uniform():
    # the seed whose first draw is the word 2**64 - 1, the largest uniform
    key = (splitmix64_unmix(2**64 - 1) - SPLITMIX_GOLDEN) % 2**64
    u = nsga2.Uniforms(splitmix64_unmix(key)).draw(1)[0]
    assert u == 1.0 - 2.0**-53
    pops = np.arange(4, 10_001, 2)
    assert np.all((u * pops).astype(np.intp) == pops - 1)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.float64(2.0), "3", None])
def test_run_rejects_seeds_outside_0_to_2_64(seed):
    with pytest.raises(ConfigError, match="seed must be an integer in"):
        run(two_bowl_problem(), params_for(1, generations=1), seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(5)])
def test_run_takes_any_integer_seed_in_0_to_2_64(seed):
    def fingerprint(s):
        return [(x.tolist(), f) for x, f in run(two_bowl_problem(), params_for(1, generations=2), s)]

    assert fingerprint(seed) == fingerprint(int(seed))


def test_params_validation():
    with pytest.raises(ConfigError):
        NsgaParams(pop_size=5)  # odd
    with pytest.raises(ConfigError):
        NsgaParams(pop_size=2)
    with pytest.raises(ConfigError):
        NsgaParams(generations=-1)
    with pytest.raises(ConfigError):
        NsgaParams(crossover_prob=1.5)
    with pytest.raises(ConfigError, match="mutation_prob_per_var"):
        NsgaParams(mutation_prob_per_var=1.5)
    with pytest.raises(ConfigError):
        NsgaParams(mutation_eta=0.0)
    for name in ("crossover_eta", "mutation_eta"):
        with pytest.raises(ConfigError, match="distribution indices"):
            NsgaParams(**{name: float("nan")})


@pytest.mark.parametrize(
    "field, value",
    [
        ("pop_size", 50.0),
        ("pop_size", np.float64(50.0)),
        ("pop_size", True),
        ("pop_size", "50"),
        ("generations", 2.5),
        ("generations", True),
        ("generations", np.bool_(True)),
        ("generations", None),
        ("crossover_prob", None),
        ("crossover_prob", True),
        ("crossover_eta", "15"),
        pytest.param("crossover_eta", 10**400, id="crossover_eta-10**400"),  # no float holds it
        ("mutation_prob", None),
        ("mutation_prob", False),
        ("mutation_prob_per_var", True),
        ("mutation_prob_per_var", "0.5"),
        ("mutation_eta", None),
        ("mutation_eta", np.bool_(True)),
    ],
)
def test_params_reject_values_the_engine_cannot_run(field, value):
    # these used to pass, then fail inside run, or raise TypeError here
    with pytest.raises(ConfigError, match=field):
        NsgaParams(**{field: value})


def test_params_take_any_integral_or_real_number():
    reals = dict(crossover_prob=np.float32(0.5), crossover_eta=10, mutation_prob=1,
                 mutation_prob_per_var=np.float64(0.5), mutation_eta=Fraction(20))
    params = NsgaParams(pop_size=np.int64(8), generations=np.int32(2), **reals)
    # integers are kept as Python ints, so that block sizes and the
    # stream's counter never meet fixed-width arithmetic
    assert type(params.pop_size) is int and type(params.generations) is int
    front = run(two_bowl_problem(), params, seed=3)
    assert front
    plain = run(two_bowl_problem(), NsgaParams(pop_size=8, generations=2, **reals), seed=3)
    assert [(x.tolist(), f) for x, f in front] == [(x.tolist(), f) for x, f in plain]


def test_problem_validation():
    ev = lambda x: (0.0, 0.0)  # noqa: E731
    with pytest.raises(ConfigError):
        Problem(lower=np.array([]), upper=np.array([]), evaluate=ev)
    with pytest.raises(ConfigError):
        Problem(lower=np.zeros(1), upper=np.ones(2), evaluate=ev)
    with pytest.raises(ConfigError, match="1-D"):
        Problem(lower=0.0, upper=1.0, evaluate=ev)
    with pytest.raises(ConfigError, match="1-D"):
        Problem(lower=np.zeros((1, 1)), upper=np.ones((1, 1)), evaluate=ev)
    with pytest.raises(ConfigError):
        Problem(lower=np.ones(1), upper=np.ones(1), evaluate=ev)
    with pytest.raises(ConfigError):
        Problem(lower=np.array([np.nan]), upper=np.ones(1), evaluate=ev)


def two_bowl_problem():
    # continuous Pareto set on [1, 3]: f1 pulls toward 1, f2 toward 3
    def evaluate(X):
        return np.column_stack([(X[:, 0] - 1.0) ** 2, (X[:, 0] - 3.0) ** 2])

    return Problem(lower=np.array([-5.0]), upper=np.array([5.0]), evaluate=evaluate)


def final_objectives(problem, params):
    """Run the engine; return its front and the last population's objectives."""
    seen = []
    front = run(problem, params, seed=3, on_generation=lambda gen, F: seen.append(F.copy()))
    return front, seen[-1]


def test_run_returns_consistent_front():
    problem = two_bowl_problem()
    front, F = final_objectives(problem, params_for(1, generations=30))
    assert front
    rank0 = [tuple(F[i]) for i in nondominated_fronts(F)[0]]
    for x, f in front:
        assert f in rank0
        assert -5.0 <= x[0] <= 5.0
        assert f == pytest.approx(tuple(problem.evaluate(x[None, :])[0]))
    # no returned point dominates another: they all share the oracle's front 0
    assert brute_force_fronts([f for _, f in front]) == [list(range(len(front)))]


def test_run_is_deterministic():
    problem = two_bowl_problem()
    a = run(problem, params_for(1, generations=25), seed=11)
    b = run(problem, params_for(1, generations=25), seed=11)
    assert [(tuple(x), f) for x, f in a] == [(tuple(x), f) for x, f in b]
    c = run(problem, params_for(1, generations=25), seed=12)
    assert [(tuple(x), f) for x, f in a] != [(tuple(x), f) for x, f in c]


# Front 0 of a seeded 3-variable ZDT1 run (pop 12, 10 generations, seed
# 2024), recorded with repr precision. Any change to the order, shape or
# number of random draws moves these values; a rewrite that changes the
# SplitMix64 stream on purpose must update them and say so.
PINNED_ZDT1_FRONT = [
    ([0.0, 0.0, 0.0], (0.0, 1.0)),
    ([0.1395487577002545, 0.0, 0.0], (0.1395487577002545, 0.6264377458839632)),
    ([0.0, 0.0, 0.0], (0.0, 1.0)),
    ([0.05085462098316751, 0.0, 0.021842030366307618], (0.05085462098316751, 0.8619565790644073)),
    ([0.005134286052650154, 0.0, 0.0], (0.005134286052650154, 0.9283460674306696)),
    ([0.07674167487519595, 0.0, 0.0], (0.07674167487519595, 0.7229771221086678)),
    ([0.10916872056500937, 0.0, 0.0020006602571399634], (0.10916872056500937, 0.6771120803398057)),
    ([0.0640251625344096, 0.0, 0.0], (0.0640251625344096, 0.7469680602484943)),
    ([0.13050736375922356, 0.0, 0.0], (0.13050736375922356, 0.6387419706647013)),
    ([0.001987630478771374, 0.0012409203340786085, 0.0], (0.001987630478771374, 0.960876986722254)),
    ([0.1176373818280767, 0.0, 0.0], (0.1176373818280767, 0.6570169365288182)),
    ([0.0697198494893644, 0.0, 0.000611621650615885], (0.0697198494893644, 0.7383440160677153)),
]


def test_run_reproduces_pinned_front():
    def zdt1(X):
        g = 1.0 + 9.0 * np.sum(X[:, 1:], axis=1) / (X.shape[1] - 1)
        return np.column_stack([X[:, 0], g * (1.0 - (X[:, 0] / g) ** 0.5)])

    problem = Problem(lower=np.zeros(3), upper=np.ones(3), evaluate=zdt1)
    front = run(problem, NsgaParams(pop_size=12, generations=10), seed=2024)
    assert [(x.tolist(), f) for x, f in front] == PINNED_ZDT1_FRONT


def test_run_zero_generations_returns_initial_front():
    front, F = final_objectives(two_bowl_problem(), params_for(1, generations=0))
    assert front
    rank0 = [tuple(F[i]) for i in nondominated_fronts(F)[0]]
    assert all(f in rank0 for _, f in front)


@pytest.mark.parametrize("rates", [0.9, 0.0], ids=["varied", "no_variation"])
def test_evaluate_gets_every_child_once_per_generation(rates):
    """One batch for the initial population, then one per generation holding
    exactly the mutated offspring array in population order, also when no
    child differs from its parent."""
    events = []
    inner = two_bowl_problem().evaluate

    def evaluate(X):
        events.append(("eval", X.copy()))
        return inner(X)

    problem = Problem(lower=np.array([-5.0]), upper=np.array([5.0]), evaluate=evaluate)
    params = params_for(1, pop_size=6, generations=8, crossover_prob=rates, mutation_prob=rates)
    run(problem, params, seed=3, on_generation=lambda g, F: events.append(("gen", g)))
    children = reference_batches(two_bowl_problem(), params, seed=3)[1:]

    kinds = [kind for kind, _ in events]
    assert kinds == ["eval", "gen"] + ["eval", "gen"] * params.generations
    assert events[0][1].shape == (6, 1)
    batches = [X for kind, X in events[2:] if kind == "eval"]
    for batch, child in zip(batches, children, strict=True):
        assert batch.shape == (6, 1) and np.array_equal(batch, child)


@pytest.mark.parametrize(
    "bad",
    [
        lambda X: X[:, 0],  # (k,)
        lambda X: np.zeros((X.shape[0], 3)),  # three objectives
        lambda X: np.zeros((1, 2)),  # one row for the whole batch
        lambda X: (0.0, 0.0),  # one vector's pair
    ],
)
def test_wrong_shaped_objectives_raise(bad):
    problem = Problem(lower=np.zeros(1), upper=np.ones(1), evaluate=bad)
    with pytest.raises(DimensionMismatchError, match="evaluate must return shape"):
        run(problem, params_for(1), seed=3)


def test_observer_fires_once_per_generation():
    gens = []
    run(two_bowl_problem(), params_for(1, generations=7), seed=3,
        on_generation=lambda g, F: gens.append(g))
    assert gens == list(range(8))


def test_scalar_bests_never_worsen():
    """The extreme points of front 0 carry infinite crowding, so the best
    value seen in each objective is monotone under elitist selection."""
    best1, best2 = [], []

    def watch(gen, F):
        best1.append(F[:, 0].min())
        best2.append(F[:, 1].min())

    def zdt1(X):
        g = 1.0 + 9.0 * np.sum(X[:, 1:], axis=1) / (X.shape[1] - 1)
        return np.column_stack([X[:, 0], g * (1.0 - np.sqrt(X[:, 0] / g))])

    problem = Problem(lower=np.zeros(8), upper=np.ones(8), evaluate=zdt1)
    run(problem, params_for(8, pop_size=24, generations=40), seed=7, on_generation=watch)
    assert all(b <= a + 1e-15 for a, b in zip(best1, best1[1:]))
    assert all(b <= a + 1e-15 for a, b in zip(best2, best2[1:]))


def test_front_zero_regression_only_after_saturation():
    """Whenever front 0 still fits inside the population, every front-0
    point of one generation stays weakly dominated in the next; regressions
    can only start once front 0 saturates the population and crowding has to
    drop interior points, each a peer of the survivors."""
    snapshots = []

    def watch(gen, F):
        snapshots.append(F[nondominated_fronts(F)[0]])

    params = params_for(1, pop_size=16, generations=25)
    run(two_bowl_problem(), params, seed=5, on_generation=watch)
    assert elitism_violations(snapshots, params.pop_size) == []


def test_elitism_violations_flags_each_clause_alone():
    prev = np.array([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])

    def clauses(nxt, pop_size):
        return [c for _, c in elitism_violations([prev, np.array(nxt)], pop_size)]

    # nothing lost, or an interior peer lost from a saturated front: allowed
    assert clauses([(0.0, 1.0), (0.4, 0.4), (1.0, 0.0)], 3) == []
    assert clauses([(0.0, 1.0), (0.3, 0.6), (1.0, 0.0)], 3) == []
    # the interior point goes missing while front 0 has room to spare
    assert clauses([(0.0, 1.0), (1.0, 0.0)], 4) == ["saturated"]
    # the lost point dominates a survivor
    assert clauses([(0.0, 1.0), (0.6, 0.6), (1.0, 0.0)], 3) == ["peer"]
    # an extreme point is lost, at either end of the front
    assert clauses([(0.1, 0.9), (0.5, 0.5), (1.0, 0.0)], 3) == ["interior"]
    assert clauses([(0.0, 1.0), (0.5, 0.5), (0.9, 0.1)], 3) == ["interior"]
    # transitions are reported by index
    got = elitism_violations([prev, prev, np.array([(0.0, 1.0), (1.0, 0.0)])], 4)
    assert got == [(1, "saturated")]


def test_evaluation_errors_propagate():
    def boom(X):
        raise ValueError("bad objective")

    problem = Problem(lower=np.zeros(1), upper=np.ones(1), evaluate=boom)
    with pytest.raises(ValueError, match="bad objective"):
        run(problem, params_for(1), seed=3)
