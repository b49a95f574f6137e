import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from hrfl.geometry import segment
from hrfl.intensity import (
    ConstantDensity,
    ConstantMark,
    IntensityModel,
    ProductKernel,
    UniformMark,
    UniformVelocity,
)
from hrfl.sampler import (
    ObservationRegion,
    SampledConfiguration,
    sample,
)

from crossings import crossing_indices, empirical_moment

UNIT_REGION = ObservationRegion((0.0, 1.0), (0.0, 1.0))


def test_zero_density_gives_empty_configuration():
    model = IntensityModel(ConstantDensity(0.0),
                           ProductKernel(UniformVelocity(-1, 1), ConstantMark(1.0)))
    cfg = sample(model, 1.0, UNIT_REGION, 4)
    assert cfg.n == 0
    assert empirical_moment(cfg, 2, segment(0, 0, 0, 1)) == 0.0


def test_window_and_expected_count(reference_model):
    # window x-extent [-1, 2]: expected count (1 + 2) / epsilon = 3
    lo, hi = UNIT_REGION.window_x(reference_model.max_speed)
    assert lo == pytest.approx(-1.0, abs=1e-6)
    assert hi == pytest.approx(2.0, abs=1e-6)
    counts = [sample(reference_model, 1.0, UNIT_REGION, 123, (i,)).n
              for i in range(10_000)]
    se = math.sqrt(3.0 / 10_000)
    assert np.mean(counts) == pytest.approx(3.0, abs=3 * se)


def test_fixed_seed_reproducible(reference_model):
    a = sample(reference_model, 0.05, UNIT_REGION, 99, (5,))
    b = sample(reference_model, 0.05, UNIT_REGION, 99, (5,))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
    c = sample(reference_model, 0.05, UNIT_REGION, 99, (6,))
    assert not np.array_equal(a.x, c.x)


def test_configuration_immutable(reference_model):
    cfg = sample(reference_model, 0.5, UNIT_REGION, 1)
    with pytest.raises(ValueError):
        cfg.x[:] = 0.0


def test_count_cap(reference_model):
    with pytest.raises(ValueError, match="cap"):
        sample(reference_model, 1e-12, UNIT_REGION, 0)


def test_empirical_moment_single_plus_crossing():
    cfg = SampledConfiguration(np.array([0.0]), np.array([0.0]), np.array([2.0]),
                               1.0, ObservationRegion((-1, 1), (0, 0)))
    assert empirical_moment(cfg, 1, segment(-1, 0, 1, 0), "plus") == 2.0
    assert empirical_moment(cfg, 1, segment(-1, 0, 1, 0), "minus") == 0.0


def test_lln_for_empirical_moment(reference_model):
    cfg = sample(reference_model, 1e-3, UNIT_REGION, 7)
    got = empirical_moment(cfg, 2, segment(0, 0, 0, 1))
    assert got == pytest.approx(0.5, rel=0.05)


def test_poisson_counts_disjoint_boxes(reference_model):
    # boxes in (x, v): counts must be Poisson-consistent and uncorrelated
    box_a = ((-0.5, 0.2), (-1.0, 0.0))
    box_b = ((0.2, 1.1), (0.0, 1.0))
    eps = 0.02
    M = 400
    na, nb = [], []
    for i in range(M):
        cfg = sample(reference_model, eps, UNIT_REGION, 31, (i,))
        in_a = ((cfg.x >= box_a[0][0]) & (cfg.x < box_a[0][1])
                & (cfg.v >= box_a[1][0]) & (cfg.v < box_a[1][1]))
        in_b = ((cfg.x >= box_b[0][0]) & (cfg.x < box_b[0][1])
                & (cfg.v >= box_b[1][0]) & (cfg.v < box_b[1][1]))
        na.append(int(in_a.sum()))
        nb.append(int(in_b.sum()))
    na, nb = np.array(na, dtype=float), np.array(nb, dtype=float)
    for counts, box in ((na, box_a), (nb, box_b)):
        (xlo, xhi), (vlo, vhi) = box
        # v ~ U[-1, 1], so the band [vlo, vhi) has probability (vhi - vlo) / 2
        mean = reference_model.rho.integral(xlo, xhi) * (vhi - vlo) / 2 / eps
        assert counts.mean() == pytest.approx(mean, abs=3 * math.sqrt(mean / M))
    corr = np.corrcoef(na, nb)[0, 1]
    assert abs(corr) < 3 / math.sqrt(M)


def test_superposition(reference_model):
    # k independent samples at scale eps together have the law of one sample
    # at eps/k
    eps, k, M = 0.4, 4, 300
    merged_counts = []
    direct_counts = []
    for i in range(M):
        parts = [sample(reference_model, eps, UNIT_REGION, 77, (i, j))
                 for j in range(k)]
        merged_counts.append(sum(p.n for p in parts))
        direct_counts.append(sample(reference_model, eps / k, UNIT_REGION,
                                    78, (i,)).n)
    assert ks_2samp(merged_counts, direct_counts).pvalue > 1e-3


def test_windowing_soundness(reference_model, rng):
    # every sampled line that crosses a segment of the region sits strictly
    # inside the window interior
    cfg = sample(reference_model, 0.005, UNIT_REGION, 13)
    lo, hi = UNIT_REGION.window_x(reference_model.max_speed)
    for _ in range(20):
        pts = rng.uniform(0, 1, size=4)
        seg = segment(*pts)
        if seg.is_degenerate:
            continue
        plus, minus = crossing_indices(cfg, seg)
        idx = np.concatenate([plus, minus])
        assert np.all(cfg.x[idx] > lo) and np.all(cfg.x[idx] < hi)


def test_uniform_marks_sampled(reference_model):
    model = IntensityModel(ConstantDensity(1.0),
                           ProductKernel(UniformVelocity(-1, 1), UniformMark(0.2, 0.8)))
    cfg = sample(model, 0.01, UNIT_REGION, 5)
    assert np.all((cfg.r >= 0.2) & (cfg.r <= 0.8))
    assert cfg.r.mean() == pytest.approx(0.5, abs=3 * 0.6 / math.sqrt(12 * cfg.n))

