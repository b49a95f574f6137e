import numpy as np
import pytest

from hrfl.field import limit_field_difference
from hrfl.geometry import SpaceTimePoint, crossing_interval, segment
from hrfl.sampler import ObservationRegion, SampledConfiguration

from crossings import crossing_indices


def lines(x, v):
    """A configuration of unit-mark lines (x, v) for the crossing rule."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.full(x.shape, v, dtype=float)
    return SampledConfiguration(x, v, np.ones_like(x), 1.0,
                                ObservationRegion((-10, 10), (-10, 10)))


def orientation(x, v, seg):
    """'plus', 'minus' or 'none' for the line (x, v) against seg."""
    plus, minus = crossing_indices(lines(x, v), seg)
    return "plus" if len(plus) else "minus" if len(minus) else "none"


def closed_right_crosses(x, v, seg):
    """The closed-right rule written out: the ends lie on opposite sides."""
    a, b = seg.a, seg.b
    return (x + a.t * v <= a.x) != (x + b.t * v <= b.x)


def reverse(seg):
    return segment(seg.b.x, seg.b.t, seg.a.x, seg.a.t)


def test_side_of_examples():
    # a point on the line is right of it: closed right half-plane
    assert orientation(0.0, 0.0, segment(-1, 5, 1, 5)) == "plus"
    assert orientation(0.0, 0.0, segment(-1, 3, 0, 3)) == "plus"
    assert orientation(0.0, 0.0, segment(0, 3, 1, 3)) == "none"
    # (-0.5, 0) is left of the line (0, 1)
    assert orientation(0.0, 1.0, segment(-0.5, 0, 0.5, 0)) == "plus"


def test_classify_crossing_examples():
    seg = segment(-1, 0, 1, 0)
    assert orientation(0.0, 0.0, seg) == "plus"
    assert orientation(0.0, 0.0, reverse(seg)) == "minus"
    assert orientation(10.0, 0.0, seg) == "none"


def test_degenerate_segment_is_crossed_by_no_line(reference_model):
    seg = segment(1, 1, 1, 1)
    plus, minus = crossing_indices(lines(np.linspace(-5, 5, 101), 0.3), seg)
    assert len(plus) == len(minus) == 0
    assert reference_model.moment_on_crossing(1, seg) == 0.0
    assert limit_field_difference(reference_model, seg.a, seg.b) == 0.0


def test_nonfinite_inputs_rejected():
    with pytest.raises(ValueError):
        SpaceTimePoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        crossing_interval(float("inf"), segment(0, 0, 1, 1))


def test_crossing_interval_examples():
    assert crossing_interval(0, segment(0, 0, 3, 0)) == (0.0, 3.0)
    assert crossing_interval(1, segment(0, 0, 0, 2)) == (-2.0, 0.0)
    # pivots coincide: empty (zero-length) interval
    lo, hi = crossing_interval(2, segment(1, 1, 5, 3))
    assert lo == hi == -1.0


def test_empty_interval_matches_classification_sweep():
    # oracle for the empty-interval example: sweep intercepts on a grid and
    # check no line of slope 2 crosses the segment except possibly at the
    # single boundary pivot
    seg = segment(1, 1, 5, 3)
    for x in np.linspace(-6, 6, 1201):
        if abs(x - (-1.0)) > 1e-9:
            assert not closed_right_crosses(x, 2.0, seg)


def test_partition_and_reversal(rng):
    # each line crosses seg Plus, Minus or not at all, and reversing seg
    # swaps Plus and Minus
    for _ in range(200):
        cfg = lines(rng.uniform(-5, 5, 50), rng.uniform(-3, 3, 50))
        seg = segment(*rng.uniform(-5, 5, size=4))
        plus, minus = crossing_indices(cfg, seg)
        rev_plus, rev_minus = crossing_indices(cfg, reverse(seg))
        assert not set(plus) & set(minus)
        assert np.array_equal(plus, rev_minus) and np.array_equal(minus, rev_plus)


def test_classification_consistent_with_interval(rng):
    kept = 0
    while kept < 10_000:
        x, v = rng.uniform(-5, 5), rng.uniform(-3, 3)
        seg = segment(*rng.uniform(-5, 5, size=4))
        if seg.is_degenerate:
            continue
        lo, hi = crossing_interval(v, seg)
        # half-open vs closed conventions differ only at the pivots;
        # skip samples within a small margin of them
        if min(abs(x - lo), abs(x - hi)) < 1e-9 * (1 + abs(x)):
            continue
        kept += 1
        assert closed_right_crosses(x, v, seg) == (lo < x < hi)


def test_side_of_translation_invariance(rng):
    # shifting lines and segment by the same space offset keeps every crossing
    for _ in range(200):
        x, v = rng.uniform(-10, 10, 20), rng.uniform(-3, 3, 20)
        ax, at, bx, bt, c = rng.uniform(-10, 10, size=5)
        base = crossing_indices(lines(x, v), segment(ax, at, bx, bt))
        moved = crossing_indices(lines(x + c, v), segment(ax + c, at, bx + c, bt))
        # ties within rounding of the boundary may flip under the shift
        near = set(np.nonzero(np.minimum(np.abs(x + at * v - ax),
                                         np.abs(x + bt * v - bx)) < 1e-9)[0])
        for got, want in zip(moved, base):
            assert set(got) - near == set(want) - near
