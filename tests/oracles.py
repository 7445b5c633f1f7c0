"""Reference oracles the tests check the package against.

The assignment oracles give the minimum-total-distance matching of size
min(#vacancies, #sources) between two lists of points, as ``(pairs,
total)``: the sorted (vacancy index, source index) pairs and their summed
distance in µm. The greedy fill planner never beats it.
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
