"""Planning layer: fill plans and refill ordering, checked against the
assignment oracles."""

import dataclasses
import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from tweezersim.geometry import MaskOccupancy, Position, SiteRole, TrapSite, reference_layout
from tweezersim.planner import (
    MEMO_CAP,
    PlanError,
    plan_buffer_refill,
    plan_target_fill,
)

from conftest import hex_layout
from oracles import exhaustive_assignment, hungarian_assignment

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


def test_plan_requires_full_coverage():
    with pytest.raises(PlanError, match="belief must cover"):
        plan_target_fill(NO_12, LAYOUT)
    with pytest.raises(PlanError, match=re.escape(A_DICT[1])):
        plan_target_fill(A_DICT[0], LAYOUT)


def test_unknown_strategy():
    with pytest.raises(PlanError):
        plan_target_fill(belief_with(set()), LAYOUT, strategy="sideways")


@pytest.mark.parametrize("strategy", ["global", "per-vacancy"])
def test_memoised_plans_equal_fresh_plans(strategy):
    # Every believed occupancy of the 13-site layout, planned into an empty
    # memo and again once it is full, against plans from a layout whose memo
    # is emptied first; refill lists of each mask against their definition.
    # The views are of LAYOUT, an equal layout, and read like their masks; a
    # view of the planning layout itself plans the same.
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
            assert plan_buffer_refill(mask, memo) == sorted(
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
    for bad, words in cases:
        with pytest.raises(PlanError, match=re.escape(words)):
            plan_target_fill(bad, layout)


def test_memo_keeps_coverage_errors_and_fresh_refill_lists():
    layout = reference_layout()
    belief = belief_with(set())
    plan_target_fill(belief, layout)
    first = plan_buffer_refill(belief.mask, layout)
    first.clear()
    assert plan_buffer_refill(belief.mask, layout) == sorted(
        LAYOUT.buffer_ids, key=lambda b: (LAYOUT.reservoir_dist[b], b)
    )
    for bad, words in (
        (NO_12, "missing [12], extraneous []"),
        (WITH_99, "missing [], extraneous [99]"),
        (SWAPPED, "missing [12], extraneous [99]"),
    ):
        with pytest.raises(PlanError, match=re.escape(words)):
            plan_target_fill(bad, layout)


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
        order = plan_buffer_refill(belief_with(set()).mask, LAYOUT)
        assert order == [3, 4, 0, 2, 5, 1, 6]
        assert LAYOUT.reservoir_dist[order[0]] == pytest.approx(41.0)
        assert LAYOUT.reservoir_dist[order[1]] == pytest.approx(41.0)

    def test_occupied_buffers_excluded(self):
        order = plan_buffer_refill(belief_with({3, 0}).mask, LAYOUT)
        assert 3 not in order and 0 not in order
        assert order == [4, 2, 5, 1, 6]

    def test_targets_ignored(self):
        order = plan_buffer_refill(belief_with(set(LAYOUT.target_ids)).mask, LAYOUT)
        assert order == [3, 4, 0, 2, 5, 1, 6]


def _random_points(rng, n):
    return [Position(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)]


class TestAssignmentOracle:
    ORACLES = (exhaustive_assignment, hungarian_assignment)

    def test_empty_sides(self):
        for oracle in self.ORACLES:
            assert oracle([], []) == ((), 0.0)
            assert oracle([Position(0, 0)], []) == ((), 0.0)
            assert oracle([], [Position(0, 0)]) == ((), 0.0)

    def test_single_pair(self):
        for oracle in self.ORACLES:
            pairs, total = oracle([Position(0, 0)], [Position(3, 4)])
            assert pairs == ((0, 0),)
            assert total == pytest.approx(5.0)

    def test_exhaustive_matches_hungarian_below_limit(self):
        rng = random.Random(123)
        for _ in range(40):
            nv, ns = rng.randint(1, 6), rng.randint(1, 7)
            vac, src = _random_points(rng, nv), _random_points(rng, ns)
            ex = exhaustive_assignment(vac, src)
            hu = hungarian_assignment(vac, src)
            assert ex[1] == pytest.approx(hu[1], rel=1e-9)

    def test_optimal_agrees_with_enumeration_at_nine(self):
        # a 9 x 9 instance, larger than the reference layout ever asks for
        rng = random.Random(5)
        vac, src = _random_points(rng, 9), _random_points(rng, 9)
        _, viascipy = hungarian_assignment(vac, src)
        _, brute = exhaustive_assignment(vac, src)
        assert viascipy == pytest.approx(brute, rel=1e-9)

    def test_rectangular_instances(self):
        rng = random.Random(9)
        for oracle in self.ORACLES:
            vac, src = _random_points(rng, 3), _random_points(rng, 7)
            pairs, _ = oracle(vac, src)
            assert len(pairs) == 3
            assert len({s for _, s in pairs}) == 3
            vac, src = _random_points(rng, 6), _random_points(rng, 2)
            pairs, _ = oracle(vac, src)
            assert len(pairs) == 2
            assert len({v for v, _ in pairs}) == 2


def heuristic_vs_optimal(belief):
    plan = plan_target_fill(belief, LAYOUT)
    vac = [t for t in LAYOUT.target_ids if not belief[t]]
    src = [b for b in LAYOUT.buffer_ids if belief[b]]
    _, total = exhaustive_assignment(
        [LAYOUT.site(v).pos for v in vac], [LAYOUT.site(s).pos for s in src]
    )
    return sum(m.dist for m in plan), total


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
        refill = plan_buffer_refill(belief.mask, LAYOUT)
        for mv in plan:
            h.update(f"{mv.src}>{mv.dst}:{mv.dist:.6f};".encode())
        h.update(("R" + ",".join(map(str, refill)) + "|").encode())
    return h.hexdigest()


def test_plan_corpus_digest_frozen():
    assert plan_corpus_digest() == GOLDEN_PLAN_DIGEST
