"""Random-process layer: streams, survival, transport, extraction."""

import dataclasses
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tweezersim import stochastic
from tweezersim.config import ExperimentConfig
from tweezersim.engine import init_sequence, run_realization
from tweezersim.stochastic import (
    CDF_TABLE_CAP,
    SEARCH_MAX_MEAN,
    DecayWindow,
    EnsembleIndex,
    RngStream,
    RowForm,
    ThinningIndex,
    binomial_icdf,
    poisson_icdf,
    reservoir_decay,
    sample_extraction,
    sample_survival,
    sample_transport,
    survival_probability,
)

from conftest import hex_layout

MODELS = ExperimentConfig()
# reservoir survival over half a second at the reference lifetime of 5 s
P_HALF_SECOND = survival_probability(0.5, MODELS.lifetime_reservoir_s)
# rows handed out as plain floats, for the draws that read a few slots
PLAIN = {width: RowForm(width) for width in (1, 2, 4, 10, 71)}


def window(p_survive, refill_mean=0.0):
    """A decay window that keeps each reservoir atom with ``p_survive``."""
    return DecayWindow(0.5, 1.0, p_survive, refill_mean)


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(7, 3)
        b = RngStream(7, 3)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_replicas_decorrelated(self):
        a = RngStream(7, 0)
        b = RngStream(7, 1)
        assert [a.random() for _ in range(20)] != [b.random() for _ in range(20)]

    def test_seeds_decorrelated(self):
        a = RngStream(7, 0)
        b = RngStream(8, 0)
        assert [a.random() for _ in range(20)] != [b.random() for _ in range(20)]

    def test_draw_types(self):
        rng = RngStream(1)
        assert isinstance(rng.poisson(3.0), int)
        assert isinstance(rng.binomial(10, 0.5), int)
        assert isinstance(rng.bernoulli(0.5), bool)
        assert 0.0 <= rng.random() < 1.0

    @pytest.mark.parametrize("seed,replica", [(42, 0), (42, 2499), (7, 3)])
    def test_uniforms_equal_scalar_draws(self, seed, replica):
        # Every draw method reads exactly one leading uniform and maps it by
        # the inverse-CDF helpers, so a stream of draws and a stream of bare
        # uniforms stay in step through binomial and Poisson draws; the rows
        # then follow in order, and rows drawn in one chunk equal rows drawn
        # one at a time.
        bulk, scalar = RngStream(seed, replica), RngStream(seed, replica)
        generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, replica))))
        for _ in range(7):
            assert bulk.binomial(80, 0.97) == binomial_icdf(scalar.random(), 80, 0.97)
            assert bulk.poisson(13.56) == poisson_icdf(scalar.random(), 13.56)
            assert bulk.bernoulli(0.753) == (scalar.random() < 0.753)
        assert bulk.random() == scalar.random() == generator.random(22)[-1]
        chunked = RngStream(seed, replica, n_rows=3)
        for _ in range(22):  # the leading uniforms read above
            chunked.random()
        for cycle in (1, 2, 3):
            row = bulk.next_row(PLAIN[71])
            assert list(row) == [scalar.random() for _ in range(71)]
            assert chunked.next_row(PLAIN[71]) == row == chunked.row
            assert bulk.cycle == chunked.cycle == cycle

    def test_uniforms_prefix_stable(self):
        # rows drawn up to 64 at a time: a stream told of 100 rows hands
        # out the same first rows as one told of 4, as floats and as the
        # engine's loss masks alike
        for form in (PLAIN[71], MODELS.slots):
            short, long = RngStream(42, 9, n_rows=4), RngStream(42, 9, n_rows=100)
            assert [short.next_row(form) for _ in range(4)] == [
                long.next_row(form) for _ in range(4)
            ]

    def test_a_stream_hands_out_rows_of_one_form(self):
        rng = RngStream(42, 9, n_rows=2)
        rng.next_row(MODELS.slots)
        words = r"rows of CycleSlots\(35, .* still ahead, not of RowForm\(71, \(\), 0\)"
        with pytest.raises(ValueError, match=words):
            rng.next_row(PLAIN[71])


HEX = ExperimentConfig(layout=hex_layout())


@pytest.mark.parametrize("models", [MODELS, HEX], ids=["reference", "hex-91"])
@pytest.mark.parametrize("n_rows", [1, 16, 64, 70, 130])
def test_a_group_draws_what_lone_streams_draw(models, n_rows):
    # the group's first chunks are drawn into one block and handed out in
    # one pass, hex-91's masks over two 63-bit words; each stream then
    # hands out its leading uniform, its rows and its later chunks as a
    # lone stream does, and draws no uniform more
    replicas = range(3, 8)
    group = RngStream.draw_group(42, replicas, n_rows, models.slots)
    assert [rng.replica for rng in group] == list(replicas)
    for rng in group:
        alone = RngStream(42, rng.replica, n_rows)
        assert (rng.master_seed, rng.n_rows, rng.cycle) == (42, n_rows, 0)
        assert rng.random() == alone.random()
        for _ in range(n_rows):
            assert rng.next_row(models.slots) == alone.next_row(models.slots)
        assert rng._gen.bit_generator.state == alone._gen.bit_generator.state


def test_a_stream_with_rows_drawn_refuses_a_leading_uniform():
    (ahead,) = RngStream.draw_group(42, [0], 16, MODELS.slots)
    ahead.random()  # the one read ahead
    lone = RngStream(42, 0, 16)
    lone.random()
    lone.next_row(MODELS.slots)
    for rng in (ahead, lone):
        for draw in (rng.random, lambda: rng.poisson(3.0), lambda: rng.bernoulli(0.5)):
            with pytest.raises(ValueError, match="has drawn rows: a leading uniform"):
                draw()
    assert ahead.drawn == lone.drawn == 1


@pytest.mark.parametrize("stream,words", [
    (lambda: RngStream.draw_group(42, [4], 16, MODELS.slots)[0], r"master_seed=42, replica=4\)"),
    (lambda: RngStream(7, 3, 16), "master_seed=7"),
    (lambda: RngStream(42, 3, 17), "of 17 rows"),
    (lambda: RngStream(42, 3), "of None rows"),
])
def test_run_realization_refuses_another_stream(stream, words):
    with pytest.raises(ValueError, match=words):
        run_realization(MODELS, 3, None, stream())


def test_run_realization_refuses_a_stream_already_read():
    read = RngStream(42, 3, 16)
    read.random()
    started = RngStream.draw_group(42, [3], 16, MODELS.slots)[0]
    started.random()
    started.next_row(MODELS.slots)
    for rng, words in ((read, "1 leading uniforms and 0 rows"),
                       (started, "1 leading uniforms and 1 rows")):
        with pytest.raises(ValueError, match=words):
            run_realization(MODELS, 3, None, rng)
    fresh = RngStream.draw_group(42, [3], 16, MODELS.slots)[0]
    assert run_realization(MODELS, 3, None, fresh) == run_realization(MODELS, 3)


def test_survival_probability_closed_form():
    assert survival_probability(0.0, 10.0) == 1.0
    assert survival_probability(0.230, 10.0) == pytest.approx(math.exp(-0.023))
    assert survival_probability(5.0, 5.0) == pytest.approx(math.exp(-1.0))
    assert survival_probability(1.0, math.inf) == 1.0


@given(
    dt1=st.floats(0.0, 100.0), dt2=st.floats(0.0, 100.0),
    tau=st.floats(0.01, 1e6),
)
def test_survival_probability_monotone(dt1, dt2, tau):
    lo, hi = sorted((dt1, dt2))
    p_lo, p_hi = survival_probability(hi, tau), survival_probability(lo, tau)
    assert 0.0 <= p_lo <= p_hi <= 1.0


def test_sample_survival_statistics():
    rng = RngStream(11)
    n = 20000
    alive = sum(sample_survival(rng, 0.5, 5.0) for _ in range(n))
    p = math.exp(-0.1)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(alive / n - p) < 4 * sigma


class TestTransport:
    def test_move_duration(self):
        models = ExperimentConfig(t_ramp=130e-6, t_move=310e-6)
        assert models.move_duration == pytest.approx(570e-6)

    def test_sampling_statistics(self):
        rng = RngStream(5)
        assert MODELS.p_transport == 0.753
        n = 20000
        hits = 0
        for _ in range(n):
            rng.next_row(PLAIN[1])
            hits += sample_transport(rng, MODELS.p_transport, 0)
        sigma = math.sqrt(0.753 * 0.247 / n)
        assert abs(hits / n - 0.753) < 4 * sigma


class TestExtractionModel:
    """``ExperimentConfig.p_blockade``, inverted from the plateau read out
    one image after a refill."""

    def test_from_plateau_algebra(self):
        m = dataclasses.replace(MODELS, lifetime_array_s=math.inf)
        assert m.p_blockade == pytest.approx(0.596 / (1 - math.exp(-m.mean_ensemble_at_full)))

    def test_from_plateau_with_observation_survival(self):
        surv = math.exp(-(MODELS.t_buffer_refill + MODELS.t_image) / MODELS.lifetime_array_s)
        expected = 0.596 / ((1 - math.exp(-MODELS.mean_ensemble_at_full)) * surv)
        assert MODELS.p_blockade == pytest.approx(expected)

    def test_from_plateau_unreachable(self):
        # at ensemble mean 0.5 fewer than half of attempts see any atom
        with pytest.raises(ValueError, match="unreachable"):
            dataclasses.replace(MODELS, mean_ensemble_at_full=0.5)

    def test_from_plateau_rejects_bad_survival(self):
        # no atom survives the readout window, so no plateau is observed
        with pytest.raises(ValueError, match="cannot be read back"):
            dataclasses.replace(MODELS, lifetime_array_s=1e-6)

    @given(
        plateau=st.floats(0.01, 0.95), mean=st.floats(3.0, 40.0),
        lifetime=st.floats(0.25, 1e3),
    )
    def test_from_plateau_round_trip(self, plateau, mean, lifetime):
        surv = math.exp(-(MODELS.t_buffer_refill + MODELS.t_image) / lifetime)
        try:
            m = dataclasses.replace(
                MODELS, p_blockade_plateau=plateau, mean_ensemble_at_full=mean,
                lifetime_array_s=lifetime,
            )
        except ValueError:
            assert plateau / ((1 - math.exp(-mean)) * surv) > 1.0
            return
        assert m.p_blockade * (1 - math.exp(-mean)) * surv == pytest.approx(plateau)


def rows(rng, width):
    """Advance ``rng`` row by row, forever; yields the stream itself."""
    while True:
        rng.next_row(PLAIN[width])
        yield rng


class TestSampleExtraction:
    LAW = (EnsembleIndex(MODELS.mean_ensemble_at_full, MODELS.n_reference), MODELS.p_blockade)

    def test_empty_reservoir(self):
        rng = RngStream(0)  # no row yet, so reading a slot would raise
        assert sample_extraction(rng, 0, *self.LAW, 0) == (0, False)

    def test_never_negative(self):
        n = 5
        for _, rng in zip(range(50), rows(RngStream(3), 2)):
            k, _delivered = sample_extraction(rng, n, *self.LAW, 0)
            n -= k
            assert k >= 0
            assert n >= 0

    def test_draws_bite_then_blockade(self):
        # the ensemble size from its slot, capped at the population, then
        # the blockade from the next slot when any atom was caught
        rng = RngStream(5)
        mean_at_full, n_reference, p_blockade = (
            MODELS.mean_ensemble_at_full, MODELS.n_reference, MODELS.p_blockade
        )
        for n in (1, 3, 40, 80, 200):
            u, v = rng.next_row(PLAIN[4])[2:]
            k = min(poisson_icdf(u, mean_at_full * min(1.0, n / n_reference)), n)
            delivered = k >= 1 and v < p_blockade
            assert sample_extraction(rng, n, *self.LAW, 2) == (k, delivered)

    def test_delivery_requires_extraction(self):
        for _, rng in zip(range(200), rows(RngStream(4), 2)):
            k, delivered = sample_extraction(rng, 2, *self.LAW, 0)
            if delivered:
                assert k >= 1

    def test_monotone_in_the_reservoir_and_saturated_above_n_reference(self):
        # on the same row, a fuller reservoir never catches fewer atoms or
        # delivers less; above n_reference (80) the ensemble mean no longer
        # grows, so 80 and 200 atoms draw alike
        populations = (0, 1, 5, 20, 80, 200)
        for _, rng in zip(range(200), rows(RngStream(11), 2)):
            draws = [sample_extraction(rng, n, *self.LAW, 0) for n in populations]
            assert draws[0] == (0, False)
            assert draws == sorted(draws)
            assert draws[-1] == draws[-2]

    def test_mean_bite_tracks_lambda(self):
        # below n_reference the ensemble mean scales with the population
        n0, trials = 40, 3000
        lam = MODELS.mean_ensemble_at_full * n0 / MODELS.n_reference
        bites = []
        for _, rng in zip(range(trials), rows(RngStream(9), 2)):
            k, _ = sample_extraction(rng, n0, *self.LAW, 0)
            bites.append(k)
        mean = np.mean(bites)
        sigma = math.sqrt(lam / trials)
        assert abs(mean - lam) < 5 * sigma


class TestReservoirDecay:
    def test_returns_loss_and_refill(self):
        rng = RngStream(2)
        u = rng.next_row(PLAIN[2])[0]
        lost, added = reservoir_decay(rng, 100, window(P_HALF_SECOND), 0)
        assert lost >= 0 and added == 0
        assert lost == binomial_icdf(u, 100, 1.0 - math.exp(-0.5 / 5.0))

    def test_loss_statistics(self):
        p_lose = 1 - math.exp(-0.5 / 5.0)
        total, trials, n0 = 0, 2000, 200
        half_second = window(P_HALF_SECOND)
        for _, rng in zip(range(trials), rows(RngStream(6), 2)):
            lost, _ = reservoir_decay(rng, n0, half_second, 0)
            total += lost
        mean = total / trials
        sigma = math.sqrt(n0 * p_lose * (1 - p_lose) / trials)
        assert abs(mean - n0 * p_lose) < 5 * sigma

    def test_infinite_lifetime_no_loss(self):
        rng = RngStream(8)
        rng.next_row(PLAIN[2])
        p_survive = survival_probability(10.0, math.inf)
        assert reservoir_decay(rng, 50, window(p_survive), 0) == (0, 0)

    def test_refill_mean_rate(self):
        rate, dt, trials = 3.7, 0.230, 4000
        total, refill = 0, window(1.0, rate * dt)
        for _, rng in zip(range(trials), rows(RngStream(12), 2)):
            _, added = reservoir_decay(rng, 10, refill, 0)
            total += added
        mean = total / trials
        assert abs(mean - rate * dt) < 0.05  # stochastic rounding is unbiased


# -- inverse-CDF helpers ------------------------------------------------

STRATA = 2**16
TOP = 1.0 - 2.0**-53  # the largest uniform Generator.random returns


def poisson_pmf(k, mean):
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


def binomial_pmf(k, n, p):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def assert_stratified_law(draw, pmf):
    # one uniform at the middle of each of 2^16 equal strata: an exact
    # inverse CDF maps an interval of length pmf(k) to k, which holds
    # 2^16 pmf(k) stratum middles to within one
    counts = Counter(draw((i + 0.5) / STRATA) for i in range(STRATA))
    assert min(counts) >= 0
    for k in range(max(counts) + 2):
        assert abs(counts.get(k, 0) - STRATA * pmf(k)) <= 1, k


@pytest.mark.parametrize("mean", [0.05, 1.0, 13.1875, 80.0, 499.0])
def test_poisson_icdf_exact_law(mean):
    assert_stratified_law(lambda u: poisson_icdf(u, mean), lambda k: poisson_pmf(k, mean))


# (494, 0.0257...) is the image window's thinning of a refilled reservoir
@pytest.mark.parametrize(
    "n,p", [(80, 0.974), (670, 0.974), (7, 0.3), (494, 0.025664910391250628)]
)
def test_binomial_icdf_exact_law(n, p):
    assert_stratified_law(lambda u: binomial_icdf(u, n, p), lambda k: binomial_pmf(k, n, p))


def probes(cdfs):
    # 0, the largest uniform, every stored sum (the last one is read by the
    # search) and the float just below each
    return [0.0, TOP, *cdfs, *(math.nextafter(c, 0.0) for c in cdfs)]


def assert_entry_reads(cdfs, search):
    # an index entry holds the search's own sums, in order, so bisection
    # gives the search's value below its last sum; the rest is searched
    assert len(cdfs) > 0 and list(cdfs) == sorted(cdfs)
    for u in probes(cdfs):
        if u < cdfs[-1]:
            assert bisect_right(cdfs, u) == search(u), u


@settings(max_examples=30, deadline=None)
@given(mean=st.floats(0.0, SEARCH_MAX_MEAN))
@example(mean=0.0)
@example(mean=13.1875)
@example(mean=80.0)
@example(mean=SEARCH_MAX_MEAN)
def test_poisson_table_reads_the_search_value(mean):
    assert_entry_reads(EnsembleIndex(mean, 1)[1], lambda u: poisson_icdf(u, mean))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 10**5), q=st.floats(0.0, 0.5))
@example(n=494, q=0.025664910391250628)
@example(n=80, q=1.0 - 0.974)
@example(n=998, q=0.5)
@example(n=7, q=0.0)
def test_binomial_table_reads_the_search_value(n, q):
    q = min(q, (SEARCH_MAX_MEAN - 1) / n) if n else q  # n q <= 499
    assert_entry_reads(ThinningIndex(q)[n], lambda u: binomial_icdf(u, n, q))


@pytest.mark.parametrize("mean", [0.0, 0.05, 80.0, SEARCH_MAX_MEAN, 600.0])
def test_initial_load_reads_the_poisson_value(mean):
    # the bundle's one table at reservoir_mean gives the helper's value at
    # 0, the largest uniform, every sum and the float just below each;
    # above the search limit it is empty and the load is the draw of the
    # child of cycle 0, column 0
    models = dataclasses.replace(MODELS, reservoir_mean=mean)
    cdfs = models.initial_load
    assert (len(cdfs) == 0) == (mean > SEARCH_MAX_MEAN)

    def load(u):
        rng = RngStream(42, 5)
        rng.random = lambda: u  # the leading uniform init_sequence reads
        return init_sequence(models, rng).n_initial_reservoir

    for u in probes(cdfs):
        assert load(u) == poisson_icdf(u, mean, RngStream(42, 5), 0), u
    if mean > SEARCH_MAX_MEAN:
        assert load(0.5) == RngStream(42, 5).child(0).poisson(mean)


def row_of(u, cycle=3):
    """A stream whose current row, of cycle ``cycle``, starts with ``u``."""
    rng = RngStream(42, 5)
    rng.next_row(PLAIN[2])
    rng.row, rng.cycle = [u, 0.5], cycle
    return rng


def entry_probes(index, key):
    """Uniforms around every sum of ``index``'s entry at ``key`` (none where
    the key has no entry), plus 0 and the largest uniform."""
    return probes(index.get(key, ()))


@settings(max_examples=60, deadline=None)
@given(
    p_survive=st.floats(0.0, 1.0), n=st.integers(0, 10**6), u=st.floats(0.0, TOP),
    cycle=st.integers(1, 50),
)
@example(p_survive=1.0 - 0.025664910391250628, n=494, u=0.5, cycle=1)
@example(p_survive=0.974, n=80, u=TOP, cycle=1)
@example(p_survive=0.3, n=7, u=0.5, cycle=1)  # flipped: 1 - u is read
@example(p_survive=0.9, n=5001, u=0.5, cycle=2)  # n q above the search limit
def test_thinning_index_reads_the_binomial_value(p_survive, n, u, cycle):
    # the window's read equals binomial_icdf(u, n, 1 - p_survive), the
    # child generator's draw above the search limit included, at u, at
    # every sum of the count's entry and just below each
    thin = window(p_survive)
    p = 1.0 - p_survive
    reservoir_decay(row_of(u, cycle), n, thin, 0)  # fills the entry, if any
    for v in [u, *entry_probes(thin.thinning, n)]:
        lost, _ = reservoir_decay(row_of(v, cycle), n, thin, 0)
        assert lost == binomial_icdf(v, n, p, row_of(v, cycle), 0), v
    if p > 0.5 or n * p > SEARCH_MAX_MEAN:
        assert thin.thinning == {}  # these counts read no table


@settings(max_examples=60, deadline=None)
@given(
    mean_at_full=st.floats(0.0, 700.0), n_reference=st.integers(1, 200),
    offset=st.integers(-200, 10**6), u=st.floats(0.0, TOP), cycle=st.integers(1, 50),
)
@example(mean_at_full=13.1875, n_reference=80, offset=-40, u=0.5, cycle=1)
@example(mean_at_full=13.1875, n_reference=80, offset=0, u=TOP, cycle=1)
@example(mean_at_full=13.1875, n_reference=80, offset=10**6, u=0.5, cycle=1)
@example(mean_at_full=600.0, n_reference=80, offset=5, u=0.5, cycle=2)  # child draw
def test_ensemble_index_reads_the_capped_poisson_value(
    mean_at_full, n_reference, offset, u, cycle
):
    # below, at and above n_reference: the read equals the Poisson value at
    # mean_at_full min(1, n / n_reference), capped at n, at u, at every sum
    # of the entry and just below each
    n = max(1, n_reference + offset)
    ensembles = EnsembleIndex(mean_at_full, n_reference)
    lam = mean_at_full * min(1.0, n / n_reference)
    sample_extraction(row_of(u, cycle), n, ensembles, 1.0, 0)
    for v in [u, *entry_probes(ensembles, min(n, n_reference))]:
        k, _ = sample_extraction(row_of(v, cycle), n, ensembles, 1.0, 0)
        assert k == min(poisson_icdf(v, lam, row_of(v, cycle), 0), n), v
    assert set(ensembles) <= {min(n, n_reference)}


def referenced(models):
    """The doubles a bundle's count indices hold, and the bundle's indices
    themselves."""
    indices = [models.ensembles] + [
        w.thinning for w in (models.image_window, models.fill_window, models.refill_window)
    ]
    return sum(len(cdfs) for index in indices for cdfs in index.values()), indices


@pytest.mark.parametrize("cap", [0, 60, 500, CDF_TABLE_CAP, 4 * CDF_TABLE_CAP])
def test_a_bundle_indexes_at_most_the_cap_and_reads_the_search_past_it(cap, monkeypatch):
    # a refilled reservoir visits hundreds of counts; whatever the cap, each
    # of the bundle's indices holds at most that many doubles; the first
    # table past it leaves the index no room, and every value past it is
    # read through the helpers. The default cap and four times it (the
    # most a bundle's four indices hold in all) are never reached here
    cfg = ExperimentConfig(n_replicas=1, n_cycles=299, master_seed=3, refill_rate=100.0)
    expected = run_realization(cfg)  # 300 engine cycles
    monkeypatch.setattr(stochastic, "CDF_TABLE_CAP", cap)
    models = dataclasses.replace(cfg)  # a fresh bundle, built under the cap
    assert run_realization(models) == expected
    _, indices = referenced(models)
    for index in indices:
        held = sum(len(cdfs) for cdfs in index.values())
        assert held <= cap
        if cap >= CDF_TABLE_CAP:
            assert index.room == cap - held
        else:  # full: a count not yet indexed builds no table
            assert index.room == 0
            assert len(index[12345]) == 0 and 12345 not in index
    if cap >= CDF_TABLE_CAP:
        assert sum(map(len, indices)) > 100  # the indices are in use


@pytest.mark.parametrize(
    "overrides,cycles",
    [({"refill_rate": 1e18}, 2), ({"reservoir_mean": 1e5, "mean_ensemble_at_full": 600.0}, 8)],
    ids=["refill_1e18", "reservoir_1e5"],
)
def test_huge_reservoirs_allocate_nothing_in_proportion_to_the_count(overrides, cycles):
    # thinnings and ensembles above the search limit are drawn from child
    # generators and read no table; the counts below it index their tables
    # by count. Once numpy's samplers are warm, a realization peaks at a
    # few KiB, where one list of 1e5 counts alone takes 800 KB
    def realize():
        models = ExperimentConfig(master_seed=1, n_cycles=cycles - 1, **overrides)
        run_realization(models)
        return models

    realize()
    tracemalloc.start()
    try:
        models = realize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table's length is set by its searched mean, at most 500, not by n
    _, indices = referenced(models)
    assert all(len(cdfs) < 2 * SEARCH_MAX_MEAN for index in indices for cdfs in index.values())
    assert peak < 2**16


def test_extraction_is_capped_at_the_reservoir():
    # ensemble mean 13.56 from a reservoir of 10: P(removed = 10) = P(K >= 10)
    rng, ensembles = RngStream(0), EnsembleIndex(13.56, 1)

    def removed(u):
        rng.row = [u, 0.0]
        return sample_extraction(rng, 10, ensembles, 0.6, 0)[0]

    tail = 1.0 - sum(poisson_pmf(k, 13.56) for k in range(10))
    assert_stratified_law(removed, lambda k: poisson_pmf(k, 13.56) if k < 10 else tail * (k == 10))


@settings(max_examples=200, deadline=None)
@given(
    u=st.floats(0.0, 1.0, exclude_max=True), v=st.floats(0.0, 1.0, exclude_max=True),
    mean=st.floats(0.0, SEARCH_MAX_MEAN), n=st.integers(0, 10**6),
    q=st.floats(0.0, 1.0), flip=st.booleans(),
)
def test_icdf_monotone_in_range_and_terminating(u, v, mean, n, q, flip):
    lo, hi = sorted((u, v))
    q = min(q, (SEARCH_MAX_MEAN - 1) / n) if n else q  # keep to the searched path
    p = 1.0 - q if flip else q
    k = [poisson_icdf(w, mean) for w in (lo, hi, TOP)]
    assert 0 <= k[0] <= k[1] <= k[2]
    k = [binomial_icdf(w, n, p) for w in (0.0, lo, hi, TOP)]
    assert 0 <= k[0] <= k[1] <= k[2] <= k[3] <= n


def test_above_the_search_limit_draws_from_a_keyed_child():
    rng = RngStream(42, 3)
    rng.next_row(PLAIN[10])

    def draw(helper, cycle, slot, u, *law):
        rng.cycle = cycle
        return helper(u, *law, rng, slot)

    for helper, law, mean, var in (
        (poisson_icdf, (1000.0,), 1000.0, 1000.0),
        (binomial_icdf, (10**6, 0.3), 3e5, 10**6 * 0.3 * 0.7),
    ):
        # the same key gives the same value; the uniform is not read
        assert draw(helper, 4, 9, 0.01, *law) == draw(helper, 4, 9, 0.99, *law)
        values = [draw(helper, cycle, 9, 0.5, *law) for cycle in range(2000)]
        assert len(set(values)) > 100
        z = (sum(values) / 2000 - mean) / math.sqrt(var / 2000)
        assert abs(z) < 4
    # the child of cycle 0, slot 0 (the initial load) is not the stream itself
    rng = RngStream(42, 3)
    assert rng.child(0).random(4).tolist() != [rng.random() for _ in range(4)]


def test_the_child_key_is_the_column_in_the_full_row():
    # slot 2 of a row whose slot 1 stands for five uniforms is column 6
    form = RowForm(3, ((1, 0.5),), 5)
    assert (form.width, form.columns) == (7, (0, 1, 6))
    rng = RngStream(42, 3)
    assert rng.child(0).bit_generator.seed_seq.spawn_key == (0, 0)  # the initial load
    for cycle in (1, 2):
        rng.next_row(form)
        assert rng.child(2).bit_generator.seed_seq.spawn_key == (cycle, 6)
        assert rng.child(0).bit_generator.seed_seq.spawn_key == (cycle, 0)


@pytest.mark.parametrize(
    "draw,mean",
    [(lambda: poisson_icdf(0.5, 600.0), "600"), (lambda: binomial_icdf(0.5, 5000, 0.5), "2500")],
    ids=["poisson", "binomial"],
)
def test_above_the_search_limit_without_a_stream_is_refused(draw, mean):
    with pytest.raises(ValueError, match=rf"searched mean {mean} .* SEARCH_MAX_MEAN = 500"):
        draw()
