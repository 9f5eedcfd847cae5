"""Point and interval metric tests against hand-worked values and a
brute-force mirror of each definition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaospi.errors import EmptyInputError, LengthMismatchError, SeriesTooShortError
from chaospi.metrics import directional_symmetry, piaw, picp, smape
from helpers import (
    reference_directional_symmetry,
    reference_piaw,
    reference_picp,
    reference_smape,
    same_bits,
)


def brute_smape(a, p):
    total = 0.0
    for x, y in zip(a, p):
        denom = (abs(x) + abs(y)) / 2.0
        if denom > 0:
            total += abs(x - y) / denom
    return 100.0 * total / len(a)


def brute_ds(a, p):
    hits = 0
    for t in range(1, len(a)):
        if (a[t] - a[t - 1]) * (p[t] - p[t - 1]) > 0:
            hits += 1
    return 100.0 * hits / (len(a) - 1)


def brute_picp(a, lo, hi):
    return sum(1 for x, l, u in zip(a, lo, hi) if l <= x <= u) / len(a)


def brute_piaw(lo, hi):
    return sum(u - l for l, u in zip(lo, hi)) / len(lo)


def test_smape_known_values():
    assert smape([1.0, 2.0], [2.0, 2.0]) == pytest.approx(100.0 / 3.0, abs=1e-12)
    # opposite signs of equal magnitude hit the 200 ceiling
    assert smape([1.0], [-1.0]) == pytest.approx(200.0, abs=1e-12)
    assert smape([3.0, 4.0], [3.0, 4.0]) == 0.0


def test_smape_both_zero_term_counts_as_zero():
    assert smape([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert smape([0.0], [0.0]) == 0.0


def test_smape_is_symmetric():
    a = [1.2, -0.7, 3.1]
    p = [0.9, -1.1, 2.4]
    assert smape(a, p) == smape(p, a)


def test_directional_symmetry_known_values():
    # diffs (1, -1) vs (-1, 2): both products negative
    assert directional_symmetry([1.0, 2.0, 1.0], [1.0, 0.0, 2.0]) == 0.0
    assert directional_symmetry([1.0, 2.0, 3.0], [0.0, 5.0, 9.0]) == 100.0
    # diffs (1, -1) vs (3, 2): one agreement out of two
    assert directional_symmetry([1.0, 2.0, 1.0], [0.0, 3.0, 5.0]) == 50.0


def test_directional_symmetry_flat_moves_never_count():
    assert directional_symmetry([1.0, 1.0, 2.0], [0.0, 4.0, 4.0]) == 0.0
    assert directional_symmetry([5.0, 5.0], [5.0, 5.0]) == 0.0


def test_picp_bounds_are_inclusive():
    assert picp([1.0], [1.0], [1.0]) == 1.0
    assert picp([0.0, 2.0, 4.0], [0.0, 0.0, 5.0], [1.0, 3.0, 5.0]) == pytest.approx(2.0 / 3.0)


def test_piaw_known_value():
    assert piaw([0.0, 1.0], [2.0, 5.0]) == 3.0


def test_paired_validation():
    with pytest.raises(LengthMismatchError):
        smape([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatchError):
        picp([1.0], [1.0, 2.0], [3.0])
    with pytest.raises(EmptyInputError):
        piaw([], [])
    with pytest.raises(SeriesTooShortError):
        directional_symmetry([1.0], [1.0])


pairs = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
    )
)


@settings(max_examples=200)
@given(pairs)
def test_smape_matches_brute_force_and_stays_bounded(ap):
    a, p = ap
    got = smape(a, p)
    assert got == pytest.approx(brute_smape(a, p), abs=1e-9)
    assert 0.0 <= got <= 200.0 + 1e-9


@settings(max_examples=200)
@given(pairs)
def test_directional_symmetry_matches_brute_force(ap):
    a, p = ap
    if len(a) < 2:
        return
    got = directional_symmetry(a, p)
    assert got == pytest.approx(brute_ds(a, p), abs=1e-9)
    assert 0.0 <= got <= 100.0


@settings(max_examples=200)
@given(pairs)
def test_interval_metrics_match_brute_force(ap):
    a, other = ap
    # bounds centered on one sequence, coverage judged on the other, so the
    # actuals genuinely fall in and out of the intervals
    lo = [x - abs(w) * 0.5 for x, w in zip(a, other)]
    hi = [x + abs(w) * 0.25 for x, w in zip(a, other)]
    assert picp(other, lo, hi) == pytest.approx(brute_picp(other, lo, hi), abs=1e-12)
    assert piaw(lo, hi) == pytest.approx(brute_piaw(lo, hi), abs=1e-6)
    assert 0.0 <= picp(other, lo, hi) <= 1.0


# zeros, repeated values (ties, flat moves) and arbitrary floats
_cells = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-1e6, 1e6)


@st.composite
def batches(draw):
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 5))
    row = st.lists(_cells, min_size=n, max_size=n)
    actual = np.array(draw(row))
    first = np.array(draw(st.lists(row, min_size=k, max_size=k)))
    second = np.array(draw(st.lists(row, min_size=k, max_size=k)))
    return actual, first, second


@settings(max_examples=200)
@given(batches())
def test_row_wise_metrics_equal_one_dimensional_calls(abq):
    a, P, Q = abq
    lo, hi = np.minimum(P, Q), np.maximum(P, Q)
    pairs = [
        (smape(a, P), [smape(a, p) for p in P]),
        (smape(P, Q), [smape(p, q) for p, q in zip(P, Q)]),
        (picp(a, lo, hi), [picp(a, l, h) for l, h in zip(lo, hi)]),
        (piaw(lo, hi), [piaw(l, h) for l, h in zip(lo, hi)]),
    ]
    if a.size >= 2:
        pairs.append((directional_symmetry(a, P), [directional_symmetry(a, p) for p in P]))
        pairs.append(
            (directional_symmetry(P, Q), [directional_symmetry(p, q) for p, q in zip(P, Q)])
        )
    for batch, rows in pairs:
        assert isinstance(batch, np.ndarray) and all(isinstance(v, float) for v in rows)
        assert batch.tolist() == rows


def test_row_wise_validation():
    a, P = np.zeros(4), np.zeros((3, 4))
    with pytest.raises(LengthMismatchError):
        smape(a, P[:, :3])  # rows of another length
    with pytest.raises(LengthMismatchError):
        piaw(P, np.zeros((2, 4)))  # another number of rows
    with pytest.raises(LengthMismatchError):
        picp(a, P, np.zeros((2, 4)))  # lower and upper disagree
    with pytest.raises(LengthMismatchError):
        smape(a, np.zeros((2, 3, 4)))
    with pytest.raises(SeriesTooShortError):
        directional_symmetry(a[:1], P[:, :1])


def assert_metrics_match_reference(a, P, Q):
    """Every metric, one-dimensional and row-wise, bit for bit against the
    kernels it replaced."""
    lo, hi = np.minimum(P, Q), np.maximum(P, Q)
    cases = [
        (smape(a, P), reference_smape(a, P)),
        (smape(P, Q), reference_smape(P, Q)),
        (smape(a, P[0]), reference_smape(a, P[0])),
        (directional_symmetry(a, P), reference_directional_symmetry(a, P)),
        (directional_symmetry(P, Q), reference_directional_symmetry(P, Q)),
        (directional_symmetry(a, P[0]), reference_directional_symmetry(a, P[0])),
        (picp(a, lo, hi), reference_picp(a, lo, hi)),
        (picp(Q, lo, hi), reference_picp(Q, lo, hi)),
        (picp(a, lo[0], hi[0]), reference_picp(a, lo[0], hi[0])),
        (piaw(lo, hi), reference_piaw(lo, hi)),
        (piaw(lo[0], hi[0]), reference_piaw(lo[0], hi[0])),
    ]
    for i, (got, want) in enumerate(cases):
        assert same_bits(got, want), (i, got, want)


@pytest.mark.parametrize("seed", range(40))
def test_metric_kernels_match_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 40)), int(rng.integers(1, 6))
    # signed zeros, ties and, on odd seeds, NaN cells among normal draws
    edge = [0.0, -0.0, 1.0, -1.0] + ([np.nan] if seed % 2 else [])

    def draw(*shape):
        x = rng.normal(0.0, 2.0, shape)
        hit = rng.random(shape) < 0.3
        x[hit] = rng.choice(edge, size=int(hit.sum()))
        return x

    assert_metrics_match_reference(draw(n), draw(k, n), draw(k, n))


def test_smape_batch_with_one_zero_denominator_row_matches_reference():
    rng = np.random.default_rng(7)
    a = rng.uniform(1.0, 2.0, 12)
    P = rng.uniform(1.0, 2.0, (4, 12))
    a[3], P[2, 3] = 0.0, -0.0  # only row 2 has a term with |a| + |p| = 0
    assert_metrics_match_reference(a, P, P[::-1].copy())
    assert same_bits(smape(a, P[2]), reference_smape(a, P[2]))
    assert same_bits(smape(a, P[1]), reference_smape(a, P[1]))


def test_smape_nan_denominator_takes_the_masked_path():
    # NaN fails ``> 0``, so its term is zero and the others still count
    assert smape([np.nan, 1.0], [1.0, 1.0]) == 0.0
    a, p = np.array([np.nan, 1.0]), np.array([1.0, 3.0])
    assert smape(a, p) == reference_smape(a, p) == 50.0
