"""Reference oracles the tests check the package against.

The assignment oracles give the minimum-total-distance matching of size
min(#vacancies, #sources) between two lists of points, as ``(pairs,
total)``: the sorted (vacancy index, source index) pairs and their summed
distance in µm. The greedy fill planner never beats it.

:func:`steady_complete_fraction` is the closed form of continuous
operation, where the refill keeps the buffers covering every vacancy.
"""

import itertools
import math


def exhaustive_assignment(vacancies, sources):
    """The optimal matching by enumerating every injection of the smaller
    side into the larger; only viable for small instances."""
    if not vacancies or not sources:
        return (), 0.0
    cost = [[math.dist(v, s) for s in sources] for v in vacancies]
    swap = len(vacancies) > len(sources)
    if swap:
        cost = list(zip(*cost))
    best_total, best = math.inf, ()
    for perm in itertools.permutations(range(len(cost[0])), len(cost)):
        total = 0.0
        for row, col in zip(cost, perm):
            total += row[col]
            if total >= best_total:
                break
        else:
            best_total, best = total, perm
    pairs = ((c, r) if swap else (r, c) for r, c in enumerate(best))
    return tuple(sorted(pairs)), best_total


def hungarian_assignment(vacancies, sources):
    """The optimal matching by scipy's solver, at any size: an independent
    route to the same total."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    if not vacancies or not sources:
        return (), 0.0
    cost = np.array([[math.dist(v, s) for s in sources] for v in vacancies])
    rows, cols = linear_sum_assignment(cost)
    return tuple(sorted(zip(rows.tolist(), cols.tolist()))), float(cost[rows, cols].sum())


def steady_complete_fraction(models):
    """The stationary share of images at which every target is occupied,
    for a run whose buffers always cover the target vacancies.

    Each target is then its own two-state chain from image to image. An
    occupied target is occupied again with probability ``s``, its survival
    over one cycle's loss windows: the image window (``t_image_loss``, or
    ``t_image`` where that is ``None``), ``t_analysis_fill`` and
    ``t_buffer_refill``. An empty one is filled with probability
    ``p = p_transport`` and then survives with ``s``. Each target is
    occupied with the chain's stationary probability ``pi = p s / (1 - s +
    p s)``, independently of the others, so all ``n`` targets are occupied
    with probability ``pi**n``.
    Nothing else enters: not the reservoir, the blockade, the retention on a
    failed move nor the fill strategy.
    """
    image = models.t_image if models.t_image_loss is None else models.t_image_loss
    window = image + models.t_analysis_fill + models.t_buffer_refill
    s = math.exp(-window / models.lifetime_array_s)
    p = models.p_transport
    pi = p * s / (1.0 - s + p * s)
    return pi ** len(models.layout.target_ids)
