"""Planning layer: fill plans and refill ordering, checked against the
assignment oracles."""

import functools
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tweezersim import planner
from tweezersim.config import ExperimentConfig
from tweezersim.geometry import ArrayLayout, MaskOccupancy, Position, reference_layout
from tweezersim.planner import (
    MEMO_CAP,
    Move,
    PlanError,
    check_fill_plan,
    plan_buffer_refill,
    plan_target_fill,
)

from conftest import hex_layout, two_site_layout
from oracles import exhaustive_assignment, hungarian_assignment

LAYOUT = reference_layout()


def belief_with(occupied):
    return MaskOccupancy(LAYOUT, sum(LAYOUT.site_bits[sid] for sid in occupied))


def random_belief(rng):
    n_src = rng.randint(0, 7)
    n_occ_targets = rng.randint(0, 6)
    occ = set(rng.sample(list(LAYOUT.buffer_ids), n_src))
    occ |= set(rng.sample(list(LAYOUT.target_ids), n_occ_targets))
    return belief_with(occ)


def test_plan_requires_a_mask_view():
    # a dict is refused even when it names every site, and even once the
    # memo holds a plan for every mask
    layout = reference_layout()
    for mask in range(1 << len(layout.site_ids)):
        plan_target_fill(MaskOccupancy(layout, mask))
    with pytest.raises(PlanError, match="belief must be a MaskOccupancy, got dict"):
        plan_target_fill({sid: False for sid in layout.site_ids})


def test_unknown_strategy():
    with pytest.raises(PlanError):
        plan_target_fill(belief_with(set()), strategy="sideways")


@pytest.mark.parametrize("strategy", ["global", "per-vacancy"])
def test_memoised_plans_equal_fresh_plans(strategy):
    # Every believed occupancy of the 13-site layout, planned into an empty
    # memo and again once it is full, against plans from a layout whose memo
    # is emptied first; refill lists of each mask against their definition.
    # The views read like their masks.
    memo, fresh = reference_layout(), reference_layout()
    for _ in range(2):
        for mask in range(1 << len(LAYOUT.site_ids)):
            belief = MaskOccupancy(memo, mask)
            assert sum(bit for sid, bit in LAYOUT.site_bits.items() if belief[sid]) == mask
            fresh.plan_memo.clear()
            expected = plan_target_fill(MaskOccupancy(fresh, mask), strategy=strategy)
            assert plan_target_fill(belief, strategy=strategy) == expected
            empty = [b for b in LAYOUT.buffer_ids if not belief[b]]
            assert plan_buffer_refill(mask, memo) == tuple(sorted(
                empty, key=lambda b: (LAYOUT.reservoir_dist[b], b)
            ))
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


def repeated_minimum_rule(layout, mask, strategy):
    """Shortest-move-first restated as a repeated minimum: each step takes
    the remaining (vacancy, source) pair least by (distance, vacancy id,
    source id), over every vacancy (``global``) or only the smallest
    remaining one (``per-vacancy``)."""
    vacancies = [t for t in layout.target_ids if not mask & layout.site_bits[t]]
    sources = [b for b in layout.buffer_ids if mask & layout.site_bits[b]]
    moves = []
    while vacancies and sources:
        d, dst, src = min(
            (math.dist(layout.site(s).pos, layout.site(v).pos), v, s)
            for v in (vacancies if strategy == "global" else vacancies[:1])
            for s in sources
        )
        moves.append((src, dst, d))
        vacancies.remove(dst)
        sources.remove(src)
    return moves


@functools.cache
def move_slots(layout):
    """The fill-move slots of a cycle on ``layout``: ``CycleSlots.n_moves``."""
    return ExperimentConfig(layout=layout).slots.n_moves


def assert_plans_keep_the_invariant(layout, mask, strategy):
    """The invariant the engine runs plans on: the fill plan for ``mask``
    moves distinct believed-occupied buffers into distinct believed-empty
    targets, min(#occupied buffers, #empty targets) of them and at most a
    cycle's move slots; the refill order lists each believed-empty buffer
    once."""
    plan = plan_target_fill(MaskOccupancy(layout, mask), strategy=strategy)
    bits = layout.site_bits
    sources = {b for b in layout.buffer_ids if mask & bits[b]}
    vacancies = {t for t in layout.target_ids if not mask & bits[t]}
    srcs, dsts = [m.src for m in plan], [m.dst for m in plan]
    assert len(set(srcs)) == len(set(dsts)) == len(plan)
    assert set(srcs) <= sources and set(dsts) <= vacancies
    assert len(plan) == min(len(sources), len(vacancies)) <= move_slots(layout)
    order = plan_buffer_refill(mask, layout)
    assert sorted(order) == sorted(set(layout.buffer_ids) - sources)


@pytest.mark.parametrize("strategy", ["global", "per-vacancy"])
def test_plans_follow_the_repeated_minimum_rule(strategy):
    # every believed occupancy of the reference and two-site layouts, and
    # 200 seeded ones of hex-91, whose lattice has many equal distances to
    # break ties on; each plan also keeps the invariant the engine runs on
    for layout, masks in (
        (reference_layout(), range(1 << len(LAYOUT.site_ids))),
        (two_site_layout(), range(4)),
        (hex_layout(), [random.Random(2029).getrandbits(91) for _ in range(200)]),
    ):
        for mask in masks:
            plan = plan_target_fill(MaskOccupancy(layout, mask), strategy=strategy)
            assert [tuple(m) for m in plan] == repeated_minimum_rule(layout, mask, strategy)
            assert_plans_keep_the_invariant(layout, mask, strategy)


def test_cold_plans_read_no_site_distance(monkeypatch):
    # a fresh layout's plans come from the pair orders construction built
    calls = []
    read = ArrayLayout.site_distance

    def counting(layout, a, b):
        calls.append((a, b))
        return read(layout, a, b)

    monkeypatch.setattr(ArrayLayout, "site_distance", counting)
    layout = reference_layout()
    for mask in range(1 << len(LAYOUT.site_ids)):
        for strategy in ("global", "per-vacancy"):
            plan_target_fill(MaskOccupancy(layout, mask), strategy=strategy)
    assert len(layout.plan_memo) == MEMO_CAP
    assert calls == []


def test_per_vacancy_plans_follow_the_rule():
    layout = reference_layout()
    for mask in range(1 << len(LAYOUT.site_ids)):
        belief = MaskOccupancy(layout, mask)
        plan = plan_target_fill(belief, strategy="per-vacancy")
        assert [(m.src, m.dst, m.dist) for m in plan] == per_vacancy_rule(belief)


def test_views_plan_with_their_own_layout():
    # hex-91 shares the reference's site ids 0..12 but not their geometry or
    # roles; a view of it plans hex-91's sites with hex-91's distances, after
    # the reference's memo holds a plan for the same mask
    hex91 = hex_layout()
    rng = random.Random(91)
    for _ in range(40):
        mask = rng.getrandbits(len(LAYOUT.site_ids))
        plan_target_fill(MaskOccupancy(LAYOUT, mask))
        plan = plan_target_fill(MaskOccupancy(hex91, mask))
        sources = [b for b in hex91.buffer_ids if mask & hex91.site_bits[b]]
        vacancies = [t for t in hex91.target_ids if not mask & hex91.site_bits[t]]
        assert len(plan) == min(len(sources), len(vacancies))
        for mv in plan:
            assert mv.src in sources and mv.dst in vacancies
            assert mv.dist == hex91.site_distance(mv.src, mv.dst)


class TestPlanTargetFill:
    def test_full_buffers_fill_all_targets(self):
        plan = plan_target_fill(belief_with(set(LAYOUT.buffer_ids)))
        assert len(plan) == 6
        assert sorted(m.dst for m in plan) == list(LAYOUT.target_ids)
        assert len({m.src for m in plan}) == 6

    def test_no_sources_no_moves(self):
        assert len(plan_target_fill(belief_with(set()))) == 0

    def test_no_vacancies_no_moves(self):
        occ = set(LAYOUT.buffer_ids) | set(LAYOUT.target_ids)
        assert len(plan_target_fill(belief_with(occ))) == 0

    def test_plan_size_is_min_of_sides(self):
        rng = random.Random(77)
        for _ in range(50):
            belief = random_belief(rng)
            n_vac = sum(not belief[t] for t in LAYOUT.target_ids)
            n_src = sum(belief[b] for b in LAYOUT.buffer_ids)
            assert len(plan_target_fill(belief)) == min(n_vac, n_src)

    def test_distances_match_layout(self):
        belief = belief_with({0, 1, 2})
        for mv in plan_target_fill(belief):
            assert mv.dist == pytest.approx(LAYOUT.site_distance(mv.src, mv.dst))

    def test_deterministic(self):
        belief = belief_with({0, 3, 5, 9})
        a = plan_target_fill(belief)
        b = plan_target_fill(belief)
        assert list(a) == list(b)

    def test_strategies_cover_same_sites(self):
        rng = random.Random(11)
        for _ in range(30):
            belief = random_belief(rng)
            n_vac = sum(not belief[t] for t in LAYOUT.target_ids)
            g = plan_target_fill(belief, strategy="global")
            pv = plan_target_fill(belief, strategy="per-vacancy")
            assert len(g) == len(pv)
            if len(g) == n_vac:  # enough sources: both must cover every vacancy
                assert sorted(m.dst for m in g) == sorted(m.dst for m in pv)


class TestPlanBufferRefill:
    def test_all_empty_order(self):
        # nearest-to-reservoir first: the two 41 um sites, then the ring
        # center, then the top/bottom pair, then the far pair
        order = plan_buffer_refill(belief_with(set()).mask, LAYOUT)
        assert order == (3, 4, 0, 2, 5, 1, 6)
        assert LAYOUT.reservoir_dist[order[0]] == pytest.approx(41.0)
        assert LAYOUT.reservoir_dist[order[1]] == pytest.approx(41.0)

    def test_occupied_buffers_excluded(self):
        order = plan_buffer_refill(belief_with({3, 0}).mask, LAYOUT)
        assert 3 not in order and 0 not in order
        assert order == (4, 2, 5, 1, 6)

    def test_targets_ignored(self):
        order = plan_buffer_refill(belief_with(set(LAYOUT.target_ids)).mask, LAYOUT)
        assert order == (3, 4, 0, 2, 5, 1, 6)

    @pytest.mark.parametrize("cap", [3, MEMO_CAP])
    def test_orders_are_memoised_by_buffer_bits_within_the_cap(self, cap, monkeypatch):
        # every mask, on its first call and again from the memo; the memo
        # holds at most one order per set of believed buffers, within the cap
        monkeypatch.setattr(planner, "MEMO_CAP", cap)
        layout = reference_layout()
        for _ in range(2):
            for mask in range(1 << len(LAYOUT.site_ids)):
                order = plan_buffer_refill(mask, layout)
                assert order == tuple(sorted(
                    (b for b in LAYOUT.buffer_ids if not mask & LAYOUT.site_bits[b]),
                    key=lambda b: (LAYOUT.reservoir_dist[b], b),
                ))
        assert len(layout.refill_memo) == min(cap, 1 << len(LAYOUT.buffer_ids))
        assert all(key & ~layout.buffer_bits == 0 for key in layout.refill_memo)

    def test_same_buffer_bits_give_the_same_order_object(self):
        # the memoised tuple itself, not a copy, whatever the target bits
        layout = reference_layout()
        first = plan_buffer_refill(belief_with({0}).mask, layout)
        again = plan_buffer_refill(belief_with({0} | set(LAYOUT.target_ids)).mask, layout)
        assert type(first) is tuple and again is first


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
    plan = plan_target_fill(belief)
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


HEX91 = hex_layout()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**30 - 1), st.integers(0, 2**91 - 1),
    st.sampled_from(["global", "per-vacancy"]),
)
def test_plan_respects_occupancy(seed, hex_mask, strategy):
    belief = random_belief(random.Random(seed))
    assert_plans_keep_the_invariant(LAYOUT, belief.mask, strategy)
    assert_plans_keep_the_invariant(HEX91, hex_mask, strategy)


# Plans the planner never makes, each refused by its check at the first
# site it cannot use: on the reference layout, buffers 0-6 and targets 7-12.
@pytest.mark.parametrize("occupied,plan,refused", [
    ({0, 1}, (Move(0, 0, 0.0),), "targets site 0"),
    ({0, 1}, (Move(0, 7, 10.0), Move(0, 8, 10.0)), "sources site 0"),
    ({0, 1}, (Move(0, 7, 10.0), Move(1, 7, 10.0)), "targets site 7"),
    (set(), (Move(0, 7, 10.0),), "sources site 0"),
    ({0, 7}, (Move(0, 7, 10.0),), "targets site 7"),
    ({0}, (Move(0, 7, 10.0), Move(7, 8, 10.0)), "sources site 7"),
    ({0}, (Move(0, 1, 15.8),), "targets site 1"),
    (set(range(7)), (*(Move(b, b + 7, 10.0) for b in range(6)), Move(6, 0, 10.0)),
     "targets site 0"),
], ids=[
    "self_loop", "repeated_source", "repeated_destination", "believed_empty_source",
    "believed_occupied_target", "target_as_source", "buffer_as_target", "seven_moves",
])
def test_check_fill_plan_refuses_a_bad_plan(occupied, plan, refused):
    mask = belief_with(occupied).mask
    check_fill_plan(plan[:-1], mask, LAYOUT)  # every move before the last is usable
    with pytest.raises(PlanError) as raised:
        check_fill_plan(plan, mask, LAYOUT)
    side = "buffer" if refused.startswith("sources") else "target"
    state = "occupied" if side == "buffer" else "empty"
    assert str(raised.value) == f"fill plan {refused}, not a believed-{state} {side} left"


def test_a_bad_plan_is_refused_before_it_is_memoised():
    # a pair order holding a (target, target) pair makes a plan that moves
    # an atom out of a target; the check refuses it, and the memo keeps none
    layout = reference_layout()
    order = layout.fill_orders["global"]
    layout.fill_orders["global"] = ((7, 8, layout.site_distance(7, 8)), *order)
    belief = MaskOccupancy(layout, layout.site_bits[0] | layout.site_bits[7])
    with pytest.raises(PlanError, match="sources site 7, not a believed-occupied buffer left"):
        plan_target_fill(belief)
    assert layout.plan_memo == {}


# Frozen digest of 500 seeded plans; any change to tie-breaking, ordering
# or distance bookkeeping shows up here before it shows up in ensembles.
GOLDEN_PLAN_DIGEST = "33006c8f59ee29f448f1f0f4722d10ce9a5629a5c141babdf39407ac6f960073"


def plan_corpus_digest(n_instances=500):
    rng = random.Random(987654321)
    h = hashlib.sha256()
    for _ in range(n_instances):
        belief = random_belief(rng)
        plan = plan_target_fill(belief)
        refill = plan_buffer_refill(belief.mask, LAYOUT)
        for mv in plan:
            h.update(f"{mv.src}>{mv.dst}:{mv.dist:.6f};".encode())
        h.update(("R" + ",".join(map(str, refill)) + "|").encode())
    return h.hexdigest()


def test_plan_corpus_digest_frozen():
    assert plan_corpus_digest() == GOLDEN_PLAN_DIGEST
