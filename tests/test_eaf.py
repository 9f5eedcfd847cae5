"""Attainment surface tests against hand-worked staircases and the
counting definition."""

import math

import numpy as np
import pytest

from chaospi import eaf
from chaospi.eaf import AttainmentSurface, FrontEnsemble, attainment_surface, standard_levels
from chaospi.errors import EmptyFrontError, InvalidLevelError
from helpers import attained_count, surface_value

THREE_RUNS = [
    np.array([[1.0, 3.0], [3.0, 1.0]]),
    np.array([[2.0, 2.0]]),
    np.array([[0.0, 4.0], [4.0, 0.0]]),
]


def ensemble():
    return FrontEnsemble([f.copy() for f in THREE_RUNS])


def test_ensemble_validation():
    with pytest.raises(EmptyFrontError):
        FrontEnsemble([])
    with pytest.raises(EmptyFrontError):
        FrontEnsemble([np.zeros((0, 2))])
    with pytest.raises(EmptyFrontError):
        FrontEnsemble([np.zeros((2, 3))])
    with pytest.raises(EmptyFrontError):
        FrontEnsemble([np.array([[1.0, np.nan]])])
    assert ensemble().n_runs == 3


def test_attained_count_known_points():
    e = ensemble()
    assert attained_count(e, (2.0, 2.0)) == 1
    assert attained_count(e, (3.0, 3.0)) == 2
    assert attained_count(e, (4.0, 4.0)) == 3
    assert attained_count(e, (0.0, 0.0)) == 0
    # weak dominance: a front point attains itself
    assert attained_count(e, (1.0, 3.0)) >= 1


def test_surfaces_match_hand_construction():
    e = ensemble()
    level1 = attainment_surface(e, 1).vertices
    level2 = attainment_surface(e, 2).vertices
    level3 = attainment_surface(e, 3).vertices
    assert np.array_equal(level1, [[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]])
    assert np.array_equal(level2, [[1, 4], [2, 3], [3, 2], [4, 1]])
    assert np.array_equal(level3, [[2, 4], [4, 2]])


def test_surface_vertices_form_strict_staircase():
    for level in (1, 2, 3):
        v = attainment_surface(ensemble(), level).vertices
        assert np.all(np.diff(v[:, 0]) > 0)
        assert np.all(np.diff(v[:, 1]) < 0)


def test_surface_value_staircase_evaluation():
    surface = attainment_surface(ensemble(), 1)
    assert surface_value(surface, -0.5) == math.inf  # left of the first vertex
    assert surface_value(surface, 0.0) == 4.0
    assert surface_value(surface, 2.5) == 2.0
    assert surface_value(surface, 100.0) == 0.0
    assert surface_value(AttainmentSurface(1, np.empty((0, 2))), 1.0) == math.inf


def test_counting_definition_equivalence():
    # attained_count(q) >= k exactly when the level-k staircase sits at or
    # below q
    e = ensemble()
    surfaces = {k: attainment_surface(e, k) for k in (1, 2, 3)}
    grid = np.arange(-1.0, 5.5, 0.5)
    for x in grid:
        for y in grid:
            count = attained_count(e, (x, y))
            for k, surf in surfaces.items():
                assert (count >= k) == (surface_value(surf, x) <= y)


def test_single_run_drops_dominated_points():
    e = FrontEnsemble([np.array([[1.0, 3.0], [2.0, 4.0], [3.0, 1.0]])])
    v = attainment_surface(e, 1).vertices
    assert np.array_equal(v, [[1.0, 3.0], [3.0, 1.0]])


def test_standard_levels():
    assert standard_levels(1) == {"best": 1, "median": 1, "worst": 1}
    assert standard_levels(3) == {"best": 1, "median": 2, "worst": 3}
    assert standard_levels(4) == {"best": 1, "median": 2, "worst": 4}
    with pytest.raises(InvalidLevelError):
        standard_levels(0)


def test_level_bounds():
    e = ensemble()
    for bad in (0, 4):
        with pytest.raises(InvalidLevelError):
            attainment_surface(e, bad)


def test_level_monotonicity_on_random_ensembles():
    rng = np.random.default_rng(17)
    for _ in range(20):
        fronts = [rng.uniform(0.0, 1.0, size=(rng.integers(1, 6), 2)) for _ in range(5)]
        e = FrontEnsemble(fronts)
        levels = standard_levels(5)
        best = attainment_surface(e, levels["best"])
        median = attainment_surface(e, levels["median"])
        worst = attainment_surface(e, levels["worst"])
        for x in np.linspace(-0.1, 1.1, 25):
            assert surface_value(best, x) <= surface_value(median, x)
            assert surface_value(median, x) <= surface_value(worst, x)


@pytest.mark.parametrize("seed", range(5))
def test_distinct_first_objectives_match_np_unique(seed):
    # ties and both signed zeros: the vertex keeps whichever zero np.unique
    # would have kept, so written surfaces do not change
    rng = np.random.default_rng(seed)
    values = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size=40)
    expected = np.unique(values)
    got = eaf._distinct_sorted(values.copy())
    assert got.tolist() == expected.tolist()
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    fronts = [np.column_stack([values[i::4], rng.uniform(size=10)]) for i in range(4)]
    vertices = attainment_surface(FrontEnsemble(fronts), 1).vertices
    assert np.signbit(vertices[0, 0]) == np.signbit(expected[0])
