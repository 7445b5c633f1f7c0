"""Planning layer: fill plans, refill ordering, assignment oracle."""

import dataclasses
import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from tweezersim.geometry import MaskOccupancy, Position, SiteRole, TrapSite, reference_layout
from tweezersim.planner import (
    RESERVOIR,
    Assignment,
    Move,
    MovePlan,
    MEMO_CAP,
    PlanError,
    exhaustive_assignment,
    optimal_assignment,
    plan_buffer_refill,
    plan_target_fill,
)

from conftest import hex_layout

LAYOUT = reference_layout()


def belief_with(occupied):
    return MaskOccupancy(LAYOUT, sum(LAYOUT.site_bits[sid] for sid in occupied))


def view_of(sites, mask=0):
    """A view of ``mask`` on the reference geometry with ``sites`` as its sites."""
    return MaskOccupancy(dataclasses.replace(LAYOUT, sites=tuple(sites)), mask)


# views of layouts that lack site 12, add a site 99, or do both
NO_12 = view_of(s for s in LAYOUT.sites if s.id != 12)
WITH_99 = view_of(LAYOUT.sites + (TrapSite(99, Position(0.0, 50.0), SiteRole.TARGET),))
SWAPPED = view_of(dataclasses.replace(s, id=99) if s.id == 12 else s for s in LAYOUT.sites)
# a dict is refused even when it names every site
A_DICT = ({sid: False for sid in LAYOUT.site_ids}, "belief must be a MaskOccupancy, got dict")


def random_belief(rng):
    n_src = rng.randint(0, 7)
    n_occ_targets = rng.randint(0, 6)
    occ = set(rng.sample(list(LAYOUT.buffer_ids), n_src))
    occ |= set(rng.sample(list(LAYOUT.target_ids), n_occ_targets))
    return belief_with(occ)


def test_reservoir_sentinel():
    assert RESERVOIR == -1
    assert RESERVOIR not in LAYOUT.site_ids


def test_move_rejects_self_loop():
    with pytest.raises(PlanError):
        Move(3, 3, 0.0)


def test_plan_rejects_duplicate_endpoints():
    mv = Move(0, 7, 10.0)
    dup_src = Move(0, 8, 12.0)
    with pytest.raises(PlanError):
        MovePlan((mv, dup_src))


def test_plan_requires_full_coverage():
    for plan in (plan_target_fill, plan_buffer_refill):
        with pytest.raises(PlanError, match="belief must cover"):
            plan(NO_12, LAYOUT)
        with pytest.raises(PlanError, match=re.escape(A_DICT[1])):
            plan(A_DICT[0], LAYOUT)


def test_unknown_strategy():
    with pytest.raises(PlanError):
        plan_target_fill(belief_with(set()), LAYOUT, strategy="sideways")


@pytest.mark.parametrize("strategy", ["global", "per-vacancy"])
def test_memoised_plans_equal_fresh_plans(strategy):
    # Every believed occupancy of the 13-site layout, planned into an empty
    # memo and again once it is full, against plans from a layout whose memo
    # is emptied first; refill lists against their definition. The views
    # are of LAYOUT, an equal layout, and read like their masks; a view of
    # the planning layout itself plans the same.
    memo, fresh = reference_layout(), reference_layout()
    for _ in range(2):
        for mask in range(1 << len(LAYOUT.site_ids)):
            belief = MaskOccupancy(LAYOUT, mask)
            assert sum(bit for sid, bit in LAYOUT.site_bits.items() if belief[sid]) == mask
            fresh.plan_memo.clear()
            expected = plan_target_fill(MaskOccupancy(fresh, mask), fresh, strategy=strategy)
            fresh.plan_memo.clear()
            assert plan_target_fill(belief, fresh, strategy=strategy) == expected
            assert plan_target_fill(belief, memo, strategy=strategy) == expected
            empty = [b for b in LAYOUT.buffer_ids if not belief[b]]
            assert plan_buffer_refill(belief, memo) == sorted(
                empty, key=lambda b: (LAYOUT.reservoir_dist[b], b)
            )
    assert len(memo.plan_memo) == MEMO_CAP


def per_vacancy_rule(belief):
    """The per-vacancy rule restated: vacancies in id order, each given its
    nearest remaining source, ties to the smaller source id."""
    sources = sorted(b for b in LAYOUT.buffer_ids if belief[b])
    moves = []
    for dst in sorted(t for t in LAYOUT.target_ids if not belief[t]):
        if not sources:
            break
        to_dst = {s: math.dist(LAYOUT.site(s).pos, LAYOUT.site(dst).pos) for s in sources}
        src = min(sources, key=lambda s: (to_dst[s], s))
        sources.remove(src)
        moves.append((src, dst, to_dst[src]))
    return moves


def test_per_vacancy_plans_follow_the_rule():
    layout = reference_layout()
    for mask in range(1 << len(LAYOUT.site_ids)):
        belief = MaskOccupancy(LAYOUT, mask)
        plan = plan_target_fill(belief, layout, strategy="per-vacancy")
        assert [(m.src, m.dst, m.dist) for m in plan] == per_vacancy_rule(belief)


def test_mask_views_keep_coverage_errors():
    layout = reference_layout()
    cases = [
        (view_of((dataclasses.replace(s, id=s.id + 1) for s in LAYOUT.sites), 0b101),
         "missing [0], extraneous [13]"),
        (MaskOccupancy(hex_layout(), 1), "missing [], extraneous [13, "),
        A_DICT,
    ]
    for mask in range(1 << len(layout.site_ids)):  # fill the memo from views
        plan_target_fill(MaskOccupancy(layout, mask), layout)
    for plan in (plan_target_fill, plan_buffer_refill):
        for bad, words in cases:
            with pytest.raises(PlanError, match=re.escape(words)):
                plan(bad, layout)


def test_memo_keeps_coverage_errors_and_fresh_refill_lists():
    layout = reference_layout()
    belief = belief_with(set())
    plan_target_fill(belief, layout)
    first = plan_buffer_refill(belief, layout)
    first.clear()
    assert plan_buffer_refill(belief, layout) == sorted(
        LAYOUT.buffer_ids, key=lambda b: (LAYOUT.reservoir_dist[b], b)
    )
    for bad, words in (
        (NO_12, "missing [12], extraneous []"),
        (WITH_99, "missing [], extraneous [99]"),
        (SWAPPED, "missing [12], extraneous [99]"),
    ):
        for plan in (plan_target_fill, plan_buffer_refill):
            with pytest.raises(PlanError, match=re.escape(words)):
                plan(bad, layout)


class TestPlanTargetFill:
    def test_full_buffers_fill_all_targets(self):
        plan = plan_target_fill(belief_with(set(LAYOUT.buffer_ids)), LAYOUT)
        assert len(plan) == 6
        assert sorted(m.dst for m in plan) == list(LAYOUT.target_ids)
        assert len({m.src for m in plan}) == 6

    def test_no_sources_no_moves(self):
        assert len(plan_target_fill(belief_with(set()), LAYOUT)) == 0

    def test_no_vacancies_no_moves(self):
        occ = set(LAYOUT.buffer_ids) | set(LAYOUT.target_ids)
        assert len(plan_target_fill(belief_with(occ), LAYOUT)) == 0

    def test_plan_size_is_min_of_sides(self):
        rng = random.Random(77)
        for _ in range(50):
            belief = random_belief(rng)
            n_vac = sum(not belief[t] for t in LAYOUT.target_ids)
            n_src = sum(belief[b] for b in LAYOUT.buffer_ids)
            assert len(plan_target_fill(belief, LAYOUT)) == min(n_vac, n_src)

    def test_distances_match_layout(self):
        belief = belief_with({0, 1, 2})
        for mv in plan_target_fill(belief, LAYOUT):
            assert mv.dist == pytest.approx(LAYOUT.site_distance(mv.src, mv.dst))

    def test_deterministic(self):
        belief = belief_with({0, 3, 5, 9})
        a = plan_target_fill(belief, LAYOUT)
        b = plan_target_fill(belief, LAYOUT)
        assert list(a) == list(b)

    def test_strategies_cover_same_sites(self):
        rng = random.Random(11)
        for _ in range(30):
            belief = random_belief(rng)
            n_vac = sum(not belief[t] for t in LAYOUT.target_ids)
            g = plan_target_fill(belief, LAYOUT, strategy="global")
            pv = plan_target_fill(belief, LAYOUT, strategy="per-vacancy")
            assert len(g) == len(pv)
            if len(g) == n_vac:  # enough sources: both must cover every vacancy
                assert sorted(m.dst for m in g) == sorted(m.dst for m in pv)


class TestPlanBufferRefill:
    def test_all_empty_order(self):
        # nearest-to-reservoir first: the two 41 um sites, then the ring
        # center, then the top/bottom pair, then the far pair
        order = plan_buffer_refill(belief_with(set()), LAYOUT)
        assert order == [3, 4, 0, 2, 5, 1, 6]
        assert LAYOUT.reservoir_dist[order[0]] == pytest.approx(41.0)
        assert LAYOUT.reservoir_dist[order[1]] == pytest.approx(41.0)

    def test_occupied_buffers_excluded(self):
        order = plan_buffer_refill(belief_with({3, 0}), LAYOUT)
        assert 3 not in order and 0 not in order
        assert order == [4, 2, 5, 1, 6]

    def test_targets_ignored(self):
        order = plan_buffer_refill(belief_with(set(LAYOUT.target_ids)), LAYOUT)
        assert order == [3, 4, 0, 2, 5, 1, 6]


def _random_points(rng, n):
    return [Position(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)]


class TestAssignmentOracle:
    def test_empty_sides(self):
        assert exhaustive_assignment([], []) == Assignment((), 0.0)
        assert optimal_assignment([Position(0, 0)], []) == Assignment((), 0.0)

    def test_single_pair(self):
        a = optimal_assignment([Position(0, 0)], [Position(3, 4)])
        assert a.pairs == ((0, 0),)
        assert a.total_distance == pytest.approx(5.0)

    def test_exhaustive_matches_hungarian_below_limit(self):
        rng = random.Random(123)
        for _ in range(40):
            nv, ns = rng.randint(1, 6), rng.randint(1, 7)
            vac, src = _random_points(rng, nv), _random_points(rng, ns)
            ex = exhaustive_assignment(vac, src)
            hu_cost = _hungarian_cost(vac, src)
            assert ex.total_distance == pytest.approx(hu_cost, rel=1e-9)

    def test_optimal_agrees_with_enumeration_at_nine(self):
        # a 9 x 9 instance, larger than the reference layout ever asks for
        rng = random.Random(5)
        vac, src = _random_points(rng, 9), _random_points(rng, 9)
        viascipy = optimal_assignment(vac, src)
        brute = exhaustive_assignment(vac, src)
        assert viascipy.total_distance == pytest.approx(
            brute.total_distance, rel=1e-9
        )

    def test_rectangular_instances(self):
        rng = random.Random(9)
        vac, src = _random_points(rng, 3), _random_points(rng, 7)
        a = optimal_assignment(vac, src)
        assert len(a.pairs) == 3
        assert len({s for _, s in a.pairs}) == 3
        vac, src = _random_points(rng, 6), _random_points(rng, 2)
        a = optimal_assignment(vac, src)
        assert len(a.pairs) == 2
        assert len({v for v, _ in a.pairs}) == 2


def _hungarian_cost(vac, src):
    # independent route: scipy directly, not through optimal_assignment
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    cost = np.array([[math.dist(tuple(v), tuple(s)) for s in src] for v in vac])
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].sum())


def heuristic_vs_optimal(belief):
    plan = plan_target_fill(belief, LAYOUT)
    vac = [t for t in LAYOUT.target_ids if not belief[t]]
    src = [b for b in LAYOUT.buffer_ids if belief[b]]
    opt = optimal_assignment(
        [LAYOUT.site(v).pos for v in vac], [LAYOUT.site(s).pos for s in src]
    )
    return plan.total_distance, opt.total_distance


def test_heuristic_never_beats_optimal():
    rng = random.Random(2024)
    for _ in range(200):
        h, o = heuristic_vs_optimal(random_belief(rng))
        assert h >= o - 1e-9


def test_single_vacancy_heuristic_is_optimal():
    rng = random.Random(31)
    for _ in range(100):
        n_src = rng.randint(1, 7)
        occ = set(rng.sample(list(LAYOUT.buffer_ids), n_src))
        vac = rng.choice(list(LAYOUT.target_ids))
        occ |= set(LAYOUT.target_ids) - {vac}
        h, o = heuristic_vs_optimal(belief_with(occ))
        assert h == pytest.approx(o)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30 - 1))
def test_plan_respects_occupancy(seed):
    belief = random_belief(random.Random(seed))
    for mv in plan_target_fill(belief, LAYOUT):
        assert belief[mv.src] is True
        assert belief[mv.dst] is False


# Frozen digest of 500 seeded plans; any change to tie-breaking, ordering
# or distance bookkeeping shows up here before it shows up in ensembles.
GOLDEN_PLAN_DIGEST = "33006c8f59ee29f448f1f0f4722d10ce9a5629a5c141babdf39407ac6f960073"


def plan_corpus_digest(n_instances=500):
    rng = random.Random(987654321)
    h = hashlib.sha256()
    for _ in range(n_instances):
        belief = random_belief(rng)
        plan = plan_target_fill(belief, LAYOUT)
        refill = plan_buffer_refill(belief, LAYOUT)
        for mv in plan:
            h.update(f"{mv.src}>{mv.dst}:{mv.dist:.6f};".encode())
        h.update(("R" + ",".join(map(str, refill)) + "|").encode())
    return h.hexdigest()


def test_plan_corpus_digest_frozen():
    assert plan_corpus_digest() == GOLDEN_PLAN_DIGEST
