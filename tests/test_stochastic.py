"""Random-process layer: streams, survival, transport, extraction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tweezersim.config import ExperimentConfig
from tweezersim.stochastic import (
    ExtractionModel,
    RngStream,
    TransportModel,
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
        # The engine takes a window's survival uniforms in one call; the
        # stream must advance exactly as with one random() per atom, with
        # the binomial and Poisson draws of the same cycle in between.
        bulk, scalar = RngStream(seed, replica), RngStream(seed, replica)
        for n in (0, 1, 13, 7, 2, 0, 5):
            assert bulk.uniforms(n) == [scalar.random() for _ in range(n)]
            assert bulk.binomial(80, 0.97) == scalar.binomial(80, 0.97)
            assert bulk.poisson(13.56) == scalar.poisson(13.56)
            assert bulk.bernoulli(0.753) == scalar.bernoulli(0.753)
        assert bulk.random() == scalar.random()

    def test_uniforms_prefix_stable(self):
        assert RngStream(42, 9).uniforms(4) == RngStream(42, 9).uniforms(10)[:4]


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
        hits = sum(sample_transport(rng, m) for _ in range(n))
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


class TestSampleExtraction:
    def setup_method(self):
        self.model = ExtractionModel.from_plateau(0.596, 13.56, 80)

    def test_empty_reservoir(self):
        rng = RngStream(0)
        assert sample_extraction(rng, 0, self.model) == (0, False)

    def test_never_negative(self):
        rng = RngStream(3)
        n = 5
        for _ in range(50):
            k, _delivered = sample_extraction(rng, n, self.model)
            n -= k
            assert k >= 0
            assert n >= 0

    def test_draws_bite_then_blockade(self):
        # the ensemble size, capped at the population, then the blockade
        # draw when any atom was caught
        rng, ref = RngStream(5), RngStream(5)
        for n in (1, 3, 40, 80, 200):
            lam = self.model.mean_ensemble_at_full * min(1.0, n / self.model.n_reference)
            k = min(ref.poisson(lam), n)
            delivered = k >= 1 and ref.bernoulli(self.model.p_blockade)
            assert sample_extraction(rng, n, self.model) == (k, delivered)

    def test_delivery_requires_extraction(self):
        rng = RngStream(4)
        for _ in range(200):
            k, delivered = sample_extraction(rng, 2, self.model)
            if delivered:
                assert k >= 1

    def test_mean_bite_tracks_lambda(self):
        # below n_reference the ensemble mean scales with the population
        rng = RngStream(9)
        n0, trials = 40, 3000
        lam = self.model.mean_ensemble_at_full * n0 / self.model.n_reference
        bites = []
        for _ in range(trials):
            k, _ = sample_extraction(rng, n0, self.model)
            bites.append(k)
        mean = np.mean(bites)
        sigma = math.sqrt(lam / trials)
        assert abs(mean - lam) < 5 * sigma


class TestReservoirDecay:
    def test_returns_loss_and_refill(self):
        rng = RngStream(2)
        lost, added = reservoir_decay(rng, 100, P_HALF_SECOND, 0.0)
        assert lost >= 0 and added == 0
        assert lost == 100 - RngStream(2).binomial(100, math.exp(-0.5 / 5.0))

    def test_loss_statistics(self):
        rng = RngStream(6)
        p_lose = 1 - math.exp(-0.5 / 5.0)
        total, trials, n0 = 0, 2000, 200
        for _ in range(trials):
            lost, _ = reservoir_decay(rng, n0, P_HALF_SECOND, 0.0)
            total += lost
        mean = total / trials
        sigma = math.sqrt(n0 * p_lose * (1 - p_lose) / trials)
        assert abs(mean - n0 * p_lose) < 5 * sigma

    def test_infinite_lifetime_no_loss(self):
        rng = RngStream(8)
        p_survive = survival_probability(10.0, math.inf)
        assert reservoir_decay(rng, 50, p_survive, 0.0) == (0, 0)
        assert rng.random() == RngStream(8).random()  # and took no draw

    def test_refill_mean_rate(self):
        rng = RngStream(12)
        rate, dt, trials = 3.7, 0.230, 4000
        total = 0
        for _ in range(trials):
            _, added = reservoir_decay(rng, 10, 1.0, rate * dt)
            total += added
        mean = total / trials
        assert abs(mean - rate * dt) < 0.05  # stochastic rounding is unbiased
