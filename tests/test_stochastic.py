"""Random-process layer: streams, survival, transport, extraction."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tweezersim.config import ExperimentConfig
from tweezersim.stochastic import (
    SEARCH_MAX_MEAN,
    ExtractionModel,
    RngStream,
    RowForm,
    TransportModel,
    binomial_icdf,
    poisson_icdf,
    reservoir_decay,
    sample_extraction,
    sample_survival,
    sample_transport,
    survival_probability,
)

MODELS = ExperimentConfig().build_models()
LOSS = MODELS.loss
# reservoir survival over half a second at the reference lifetime of 5 s
P_HALF_SECOND = survival_probability(0.5, LOSS.lifetime_reservoir)
# rows handed out as plain floats, for the draws that read a few slots
PLAIN = {width: RowForm(width) for width in (1, 2, 4, 10, 71)}


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


def test_survival_probability_closed_form():
    assert survival_probability(0.0, 10.0) == 1.0
    assert survival_probability(0.230, 10.0) == pytest.approx(math.exp(-0.023))
    assert survival_probability(5.0, 5.0) == pytest.approx(math.exp(-1.0))
    assert survival_probability(1.0, math.inf) == 1.0


def test_survival_probability_argument_checks():
    with pytest.raises(ValueError):
        survival_probability(-0.1, 10.0)
    with pytest.raises(ValueError):
        survival_probability(0.1, 0.0)


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


def test_loss_model_rejects_nonpositive_lifetime():
    with pytest.raises(ValueError):
        dataclasses.replace(LOSS, lifetime_array=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(LOSS, lifetime_reservoir=-1.0)


class TestTransportModel:
    def test_move_duration(self):
        m = TransportModel(0.753, t_ramp=130e-6, t_move=310e-6)
        assert m.move_duration == pytest.approx(570e-6)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            dataclasses.replace(MODELS.transport, p_success=1.2)

    def test_sampling_statistics(self):
        rng = RngStream(5)
        m = MODELS.transport
        assert m.p_success == 0.753
        n = 20000
        hits = 0
        for _ in range(n):
            rng.next_row(PLAIN[1])
            hits += sample_transport(rng, m, 0)
        sigma = math.sqrt(0.753 * 0.247 / n)
        assert abs(hits / n - 0.753) < 4 * sigma


class TestExtractionModel:
    def test_from_plateau_algebra(self):
        m = ExtractionModel.from_plateau(0.596, 13.56, 80)
        assert m.p_blockade == pytest.approx(0.596 / (1 - math.exp(-13.56)))

    def test_from_plateau_with_observation_survival(self):
        surv = math.exp(-0.165 / 10.0)
        m = ExtractionModel.from_plateau(0.596, 13.56, 80, observation_survival=surv)
        expected = 0.596 / ((1 - math.exp(-13.56)) * surv)
        assert m.p_blockade == pytest.approx(expected)

    def test_from_plateau_unreachable(self):
        # at ensemble mean 0.5 fewer than half of attempts see any atom
        with pytest.raises(ValueError, match="unreachable"):
            ExtractionModel.from_plateau(0.596, 0.5, 80)

    def test_from_plateau_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError, match=r"stochastic\.mean_ensemble_at_full"):
            ExtractionModel.from_plateau(0.596, 0.0, 80)

    def test_from_plateau_rejects_bad_survival(self):
        with pytest.raises(ValueError):
            ExtractionModel.from_plateau(0.5, 10.0, 80, observation_survival=0.0)

    def test_delivery_probability_monotone_and_capped(self):
        m = ExtractionModel.from_plateau(0.596, 13.56, 80)
        probs = [m.delivery_probability(n) for n in (0, 1, 5, 20, 80, 200)]
        assert probs[0] == 0.0
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        # above n_reference the ensemble mean saturates
        assert probs[-1] == probs[-2]

    @given(
        plateau=st.floats(0.01, 0.95), mean=st.floats(3.0, 40.0),
        surv=st.floats(0.5, 1.0),
    )
    def test_from_plateau_round_trip(self, plateau, mean, surv):
        try:
            m = ExtractionModel.from_plateau(plateau, mean, 80, observation_survival=surv)
        except ValueError:
            assert plateau / ((1 - math.exp(-mean)) * surv) > 1.0
            return
        full = m.delivery_probability(80)
        assert full * surv == pytest.approx(plateau)


def rows(rng, width):
    """Advance ``rng`` row by row, forever; yields the stream itself."""
    while True:
        rng.next_row(PLAIN[width])
        yield rng


class TestSampleExtraction:
    def setup_method(self):
        self.model = ExtractionModel.from_plateau(0.596, 13.56, 80)

    def test_empty_reservoir(self):
        rng = RngStream(0)  # no row yet, so reading a slot would raise
        assert sample_extraction(rng, 0, self.model, 0) == (0, False)

    def test_never_negative(self):
        n = 5
        for _, rng in zip(range(50), rows(RngStream(3), 2)):
            k, _delivered = sample_extraction(rng, n, self.model, 0)
            n -= k
            assert k >= 0
            assert n >= 0

    def test_draws_bite_then_blockade(self):
        # the ensemble size from its slot, capped at the population, then
        # the blockade from the next slot when any atom was caught
        rng = RngStream(5)
        for n in (1, 3, 40, 80, 200):
            u, v = rng.next_row(PLAIN[4])[2:]
            lam = self.model.mean_ensemble_at_full * min(1.0, n / self.model.n_reference)
            k = min(poisson_icdf(u, lam), n)
            delivered = k >= 1 and v < self.model.p_blockade
            assert sample_extraction(rng, n, self.model, 2) == (k, delivered)

    def test_delivery_requires_extraction(self):
        for _, rng in zip(range(200), rows(RngStream(4), 2)):
            k, delivered = sample_extraction(rng, 2, self.model, 0)
            if delivered:
                assert k >= 1

    def test_mean_bite_tracks_lambda(self):
        # below n_reference the ensemble mean scales with the population
        n0, trials = 40, 3000
        lam = self.model.mean_ensemble_at_full * n0 / self.model.n_reference
        bites = []
        for _, rng in zip(range(trials), rows(RngStream(9), 2)):
            k, _ = sample_extraction(rng, n0, self.model, 0)
            bites.append(k)
        mean = np.mean(bites)
        sigma = math.sqrt(lam / trials)
        assert abs(mean - lam) < 5 * sigma


class TestReservoirDecay:
    def test_returns_loss_and_refill(self):
        rng = RngStream(2)
        u = rng.next_row(PLAIN[2])[0]
        lost, added = reservoir_decay(rng, 100, P_HALF_SECOND, 0.0, 0)
        assert lost >= 0 and added == 0
        assert lost == binomial_icdf(u, 100, 1.0 - math.exp(-0.5 / 5.0))

    def test_loss_statistics(self):
        p_lose = 1 - math.exp(-0.5 / 5.0)
        total, trials, n0 = 0, 2000, 200
        for _, rng in zip(range(trials), rows(RngStream(6), 2)):
            lost, _ = reservoir_decay(rng, n0, P_HALF_SECOND, 0.0, 0)
            total += lost
        mean = total / trials
        sigma = math.sqrt(n0 * p_lose * (1 - p_lose) / trials)
        assert abs(mean - n0 * p_lose) < 5 * sigma

    def test_infinite_lifetime_no_loss(self):
        rng = RngStream(8)
        rng.next_row(PLAIN[2])
        p_survive = survival_probability(10.0, math.inf)
        assert reservoir_decay(rng, 50, p_survive, 0.0, 0) == (0, 0)

    def test_refill_mean_rate(self):
        rate, dt, trials = 3.7, 0.230, 4000
        total = 0
        for _, rng in zip(range(trials), rows(RngStream(12), 2)):
            _, added = reservoir_decay(rng, 10, 1.0, rate * dt, 0)
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


@pytest.mark.parametrize("n,p", [(80, 0.974), (670, 0.974), (7, 0.3)])
def test_binomial_icdf_exact_law(n, p):
    assert_stratified_law(lambda u: binomial_icdf(u, n, p), lambda k: binomial_pmf(k, n, p))


def test_extraction_is_capped_at_the_reservoir():
    # ensemble mean 13.56 from a reservoir of 10: P(removed = 10) = P(K >= 10)
    model = ExtractionModel(0.6, 13.56, n_reference=1)
    rng = RngStream(0)

    def removed(u):
        rng.row = [u, 0.0]
        return sample_extraction(rng, 10, model, 0)[0]

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
    k = [poisson_icdf(w, mean) for w in (lo, hi, TOP)]
    assert 0 <= k[0] <= k[1] <= k[2]
    q = min(q, (SEARCH_MAX_MEAN - 1) / n) if n else q  # keep to the searched path
    p = 1.0 - q if flip else q
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
