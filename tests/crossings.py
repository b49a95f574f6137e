"""Brute-force crossing oracles for sampled line configurations.

Shared by the field, geometry and sampler tests as the independent
reference for the walk field and the crossing moments.
"""

import numpy as np


def crossing_indices(config, seg):
    """Index arrays (plus, minus) of sampled lines crossing seg, by orientation.

    A sampled line is Right of a point b iff its position at time b.t is
    <= b.x (closed-right convention); crossing orientation compares the
    sides of the two endpoints.
    """
    ua = config.x + seg.a.t * config.v <= seg.a.x
    ub = config.x + seg.b.t * config.v <= seg.b.x
    plus = np.nonzero(~ua & ub)[0]
    minus = np.nonzero(ua & ~ub)[0]
    return plus, minus


def empirical_moment(config, k, seg, sign="both"):
    """epsilon * sum of r^k over sampled lines crossing seg with orientation."""
    if sign not in ("plus", "minus", "both"):
        raise ValueError("sign must be 'plus', 'minus' or 'both'")
    if seg.is_degenerate:
        return 0.0
    plus, minus = crossing_indices(config, seg)
    total = 0.0
    if sign in ("plus", "both"):
        total += float(np.sum(config.r[plus] ** k))
    if sign in ("minus", "both"):
        total += float(np.sum(config.r[minus] ** k))
    return config.epsilon * total
