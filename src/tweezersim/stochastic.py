"""Random processes of the loading pipeline.

Covers one-body survival in the traps, transport success, collisional-blockade
extraction of single atoms from the reservoir, and reservoir depletion. All
draws go through an explicit :class:`RngStream` so ensembles are reproducible
replica by replica. The draws take plain counts and return what they drew;
they change none of their arguments, so the caller owns all state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "LossModel",
    "TransportModel",
    "ExtractionModel",
    "survival_probability",
    "sample_survival",
    "sample_transport",
    "sample_extraction",
    "reservoir_decay",
]


class RngStream:
    """Deterministic pseudo-random stream keyed by (master seed, replica).

    Two streams built from the same pair produce bit-identical sequences;
    adding replicas never perturbs existing ones.
    """

    def __init__(self, master_seed: int, replica: int = 0):
        self.master_seed = int(master_seed)
        self.replica = int(replica)
        seq = np.random.SeedSequence((self.master_seed, self.replica))
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, replica={self.replica})"

    def random(self) -> float:
        return float(self._gen.random())

    def uniforms(self, n: int) -> list[float]:
        """``n`` uniforms in one call, identical to ``n`` calls of
        :meth:`random` and advancing the stream by as much."""
        return self._gen.random(n).tolist()

    def bernoulli(self, p: float) -> bool:
        return self._gen.random() < p

    def poisson(self, mean: float) -> int:
        return int(self._gen.poisson(mean))

    def binomial(self, n: int, p: float) -> int:
        return int(self._gen.binomial(n, p))


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")


# Written as ``not value > 0`` and so on, so NaN fails too.
def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    """A finite duration, rate or mean; ``inf`` is rejected with NaN."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


# numpy's Poisson draw refuses means above about 9.2e18, where its 64-bit
# counts end; a Poisson mean is held to this round bound below that.
_MAX_POISSON_MEAN = 1e18


def _check_poisson_mean(name: str, value: float) -> None:
    if not value <= _MAX_POISSON_MEAN:
        raise ValueError(f"{name} must be at most {_MAX_POISSON_MEAN:g}, got {value}")


@dataclass(frozen=True)
class LossModel:
    """One-body trap lifetimes in seconds; ``math.inf`` disables a channel."""

    lifetime_array: float
    lifetime_reservoir: float

    def __post_init__(self):
        _check_positive("stochastic.lifetime_array_s", self.lifetime_array)
        _check_positive("stochastic.lifetime_reservoir_s", self.lifetime_reservoir)


@dataclass(frozen=True)
class TransportModel:
    """Single-atom transport: success probability and move timings."""

    p_success: float
    t_ramp: float  # s, one intensity ramp; two per move
    t_move: float  # s, tweezer translation

    def __post_init__(self):
        _check_probability("stochastic.p_transport", self.p_success)
        for name in ("t_ramp", "t_move"):
            _check_nonnegative(f"timing.{name}", getattr(self, name))

    @property
    def move_duration(self) -> float:
        """Full duration of one move: ramp up, translate, ramp down."""
        return 2.0 * self.t_ramp + self.t_move


@dataclass(frozen=True)
class ExtractionModel:
    """Single-atom extraction from the reservoir via collisional blockade.

    An extraction pulls a small ensemble whose size is Poisson with mean
    ``mean_ensemble_at_full`` scaled by the reservoir fill fraction
    ``n / n_reference`` (capped at 1). Any nonempty ensemble yields one
    trapped atom with probability ``p_blockade``, so the delivery probability
    at full reservoir plateaus at ``p_blockade * (1 - exp(-mean))``.
    """

    p_blockade: float
    mean_ensemble_at_full: float
    n_reference: int

    def __post_init__(self):
        _check_probability("p_blockade", self.p_blockade)
        _check_positive("stochastic.mean_ensemble_at_full", self.mean_ensemble_at_full)
        _check_poisson_mean("stochastic.mean_ensemble_at_full", self.mean_ensemble_at_full)
        _check_positive("stochastic.n_reference", self.n_reference)

    @classmethod
    def from_plateau(
        cls,
        plateau: float,
        mean_ensemble_at_full: float,
        n_reference: int,
        observation_survival: float = 1.0,
    ) -> "ExtractionModel":
        """Build a model whose saturated fill, as observed at the next image,
        equals ``plateau``.

        The plateau is a measured fill fraction, so it already folds in the
        decay between a refill and the image that reads it out. Pass that
        window's survival probability as ``observation_survival`` to invert
        it out; the default 1.0 treats the plateau as the bare delivery
        probability at full reservoir.
        """
        _check_probability("stochastic.p_blockade_plateau", plateau)
        _check_positive("stochastic.mean_ensemble_at_full", mean_ensemble_at_full)
        if not 0.0 < observation_survival <= 1.0:
            raise ValueError(
                f"observation_survival must be within (0, 1], got {observation_survival}"
            )
        saturation = 1.0 - math.exp(-mean_ensemble_at_full)
        p_blockade = plateau / (saturation * observation_survival)
        if p_blockade > 1.0:
            raise ValueError(
                f"stochastic.p_blockade_plateau {plateau} unreachable with ensemble "
                f"mean {mean_ensemble_at_full} (requires p_blockade {p_blockade:.4g} > 1)"
            )
        return cls(p_blockade, mean_ensemble_at_full, n_reference)

    def delivery_probability(self, n_atoms: int) -> float:
        """Expected single-atom delivery probability at a given reservoir
        population (exact for the untruncated ensemble law)."""
        lam = self.mean_ensemble_at_full * min(1.0, n_atoms / self.n_reference)
        return self.p_blockade * (1.0 - math.exp(-lam))


def survival_probability(dt: float, lifetime: float) -> float:
    """Probability that a trapped atom survives ``dt`` seconds,
    ``exp(-dt / lifetime)``."""
    if not dt >= 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if not lifetime > 0:
        raise ValueError(f"lifetime must be positive, got {lifetime}")
    return math.exp(-dt / lifetime)


def sample_survival(rng: RngStream, dt: float, lifetime: float) -> bool:
    """One Bernoulli survival draw over ``dt`` seconds."""
    return rng.bernoulli(survival_probability(dt, lifetime))


def sample_transport(rng: RngStream, model: TransportModel) -> bool:
    """Whether a single transport move delivers its atom."""
    return rng.bernoulli(model.p_success)


def sample_extraction(
    rng: RngStream, n_atoms: int, model: ExtractionModel
) -> tuple[int, bool]:
    """One extraction attempt into a single trap site from a reservoir of
    ``n_atoms``.

    Draws the ensemble size and returns ``(atoms_removed,
    single_atom_delivered)``; the caller takes the removed atoms out of the
    reservoir. An empty reservoir yields ``(0, False)``.
    """
    if n_atoms == 0:
        return 0, False
    lam = model.mean_ensemble_at_full * min(1.0, n_atoms / model.n_reference)
    k = min(rng.poisson(lam), n_atoms)
    delivered = k >= 1 and rng.bernoulli(model.p_blockade)
    return k, delivered


def reservoir_decay(
    rng: RngStream, n_atoms: int, p_survive: float, refill_mean: float
) -> tuple[int, int]:
    """One decay window of a reservoir of ``n_atoms``: binomial thinning with
    survival probability ``p_survive``, then a refill of ``refill_mean``
    atoms on average, stochastically rounded to a whole number.

    Both values belong to the window, not to the call (see
    ``engine.DecayWindow``). Thinning takes no draw when the reservoir is
    empty or ``p_survive`` is 1, and the refill none when ``refill_mean`` is
    0. Returns ``(atoms_lost, atoms_added)``; the caller applies both, which
    keeps exact loss ledgers.
    """
    lost = 0
    if n_atoms > 0 and p_survive < 1.0:
        lost = n_atoms - rng.binomial(n_atoms, p_survive)
    added = 0
    if refill_mean > 0.0:
        whole = int(refill_mean)
        added = whole + (1 if rng.bernoulli(refill_mean - whole) else 0)
    return lost, added
