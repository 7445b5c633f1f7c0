"""Random processes of the loading pipeline.

Covers one-body survival in the traps, transport success, collisional-blockade
extraction of single atoms from the reservoir, and reservoir depletion. All
draws go through an explicit :class:`RngStream` so ensembles are reproducible
replica by replica; Poisson and binomial values come from its uniforms by
inverse-CDF search (:func:`poisson_icdf`, :func:`binomial_icdf`). The
engine's draws take plain counts and a slot of the stream's current row
and return what they drew; they change none of their arguments, so the
caller owns all state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RowForm",
    "RngStream",
    "poisson_icdf",
    "binomial_icdf",
    "LossModel",
    "TransportModel",
    "ExtractionModel",
    "survival_probability",
    "sample_survival",
    "sample_transport",
    "sample_extraction",
    "reservoir_decay",
]


# Rows drawn per generator call; a chunk is ``ROW_CHUNK x width`` floats, so a
# long realization never holds all of its uniforms at once.
ROW_CHUNK = 64

# Poisson and binomial values are searched for while the searched mean is at
# most this: exp(-500) ~ 7e-218 is still a normal double, and a search takes
# a few hundred steps at most. Larger means are drawn by numpy's samplers.
SEARCH_MAX_MEAN = 500.0

# A loss mask is built from words of this many bits: the largest word, 2**63
# - 1, is still an int64, so one integer matmul gives every word of a chunk.
_WORD_BITS = 63


class RowForm:
    """How :meth:`RngStream.next_row` hands out a row of uniforms.

    The handed-out row has ``length`` slots. Each slot of ``masks`` (pairs
    of slot and survival probability ``p``, in slot order) stands for
    ``n_bits`` uniforms of the full row and holds them as one int, a loss
    mask: bit ``i`` is set where the ``i``-th of them is ``>= p``, so an
    atom at bit ``i`` survives exactly where that uniform is ``< p``. Every
    other slot holds its one uniform as a float. The full row, the
    uniforms a row draws, is ``width = length + len(masks) (n_bits - 1)``
    long, in slot order; ``columns[slot]`` is the column of a slot's first
    uniform in it. ``RowForm(n)`` hands out all ``n`` uniforms as floats.
    """

    def __init__(self, length: int, masks: tuple = (), n_bits: int = 0):
        self.length = length
        self.masks = masks = tuple(masks)
        self.n_bits = n_bits
        positions = [slot for slot, _ in masks]
        columns, column = [], 0
        for slot in range(length):
            columns.append(column)
            column += n_bits if slot in positions else 1
        self.width = column
        self.columns = tuple(columns)
        self._positions = positions
        self._floats = np.array(
            [c for slot, c in enumerate(columns) if slot not in positions], dtype=np.intp
        )
        self._sites = np.array(
            [columns[slot] + i for slot in positions for i in range(n_bits)], dtype=np.intp
        )
        self._survival = np.repeat([p for _, p in masks], n_bits)
        # bit i of a mask goes to word i // 63 with weight 2 ** (i % 63)
        n_words = max(1, -(-n_bits // _WORD_BITS))
        self._weights = np.zeros((n_bits, n_words), dtype=np.int64)
        for i in range(n_bits):
            self._weights[i, i // _WORD_BITS] = 1 << i % _WORD_BITS

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.length}, {self.masks!r}, {self.n_bits})"

    def rows(self, block: np.ndarray) -> list[tuple]:
        """The handed-out rows of a ``(k, width)`` block of full rows."""
        k = len(block)
        dead = block[:, self._sites] >= self._survival
        words = dead.reshape(k, len(self.masks), self.n_bits).astype(np.int64) @ self._weights
        # one list per mask slot, then joined into exact ints word by word
        masks = words[:, :, 0].T.tolist()
        for j in range(1, words.shape[2]):
            shift = _WORD_BITS * j
            masks = [
                [low | high << shift for low, high in zip(lows, highs)]
                for lows, highs in zip(masks, words[:, :, j].T.tolist())
            ]
        columns = block[:, self._floats].T.tolist()
        for slot, mask in zip(self._positions, masks):
            columns.insert(slot, mask)
        return list(zip(*columns))


class RngStream:
    """Deterministic pseudo-random stream keyed by (master seed, replica).

    One PCG64 generator seeded by ``SeedSequence((master_seed, replica))``
    feeds a realization: first its leading uniforms, read in order by
    :meth:`random` and the draws built on it (the engine reads one, for the
    initial load), then one row of uniforms per engine cycle
    (:meth:`next_row`), handed out in a :class:`RowForm`. The engine reads
    every draw of a cycle from a fixed slot of that cycle's row and skips
    the slots it does not need, so the stream advances by the same amount
    whatever the outcomes: a realization of ``n`` engine cycles reads ``1
    + width n`` uniforms. A stream told the ``n_rows`` it will hand out
    draws them up to ``ROW_CHUNK`` at a time and none beyond; without it,
    one at a time. ``Generator.random((k, width))`` gives the same numbers
    as ``k`` rows drawn one by one, so the chunking changes no value.

    Two streams built from the same pair produce bit-identical sequences;
    adding replicas never perturbs existing ones.
    """

    def __init__(self, master_seed: int, replica: int = 0, n_rows: int | None = None):
        self.master_seed = int(master_seed)
        self.replica = int(replica)
        seq = np.random.SeedSequence((self.master_seed, self.replica))
        self._gen = np.random.Generator(np.random.PCG64(seq))
        self.cycle = 0  # rows handed out so far: the engine cycle of ``row``
        self.row: tuple | None = None
        self.form: RowForm | None = None  # the form of ``row`` and of the rows ahead
        self._ahead: list[tuple] = []  # drawn rows not yet handed out, last first
        self._rows_left = n_rows or 0  # announced rows not yet drawn
        self._drawn = 0  # leading uniforms read so far

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, replica={self.replica})"

    def next_row(self, form: RowForm) -> tuple:
        """Start the next engine cycle and return its row of ``form.width``
        uniforms as ``form`` hands it out: a float per slot, and one loss
        mask per decay window for its site slots. Only the floats are
        turned into Python objects one by one; the masks of a whole chunk
        are decided in numpy. The row stays readable as :attr:`row`. A
        stream hands out rows of one form."""
        ahead = self._ahead
        if not ahead:
            k = min(ROW_CHUNK, max(self._rows_left, 1))
            self._rows_left -= k
            ahead.extend(reversed(form.rows(self._gen.random((k, form.width)))))
            self.form = form
        elif form is not self.form:
            raise ValueError(f"rows of {self.form!r} are still ahead, not of {form!r}")
        self.row = row = ahead.pop()
        self.cycle += 1
        return row

    def child(self, slot: int) -> np.random.Generator:
        """A generator for a draw above ``SEARCH_MAX_MEAN`` at ``slot`` of
        the current row (at cycle 0, of the leading uniforms), keyed by
        (master seed, replica, engine cycle, column): the column is the
        slot's place in the full row of uniforms (``RowForm.columns``), so
        the key does not depend on how the row is handed out. The cycle
        and column form the seed's spawn key, so no child shares the
        stream's own seed."""
        column = self.form.columns[slot] if self.cycle else slot
        seq = np.random.SeedSequence(
            (self.master_seed, self.replica), spawn_key=(self.cycle, column)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def _lead(self) -> float:
        self._drawn += 1
        return self._gen.random()

    def random(self) -> float:
        """The next leading uniform."""
        return self._lead()

    def bernoulli(self, p: float) -> bool:
        return self._lead() < p

    def poisson(self, mean: float) -> int:
        slot = self._drawn  # the engine's initial load: cycle 0, slot 0
        return poisson_icdf(self._lead(), mean, self, slot)

    def binomial(self, n: int, p: float) -> int:
        slot = self._drawn
        return binomial_icdf(self._lead(), n, p, self, slot)


def _child(rng: RngStream | None, slot: int, mean: float) -> np.random.Generator:
    """The generator of a draw whose searched ``mean`` is above the limit."""
    if rng is None:
        raise ValueError(
            f"searched mean {mean:g} is above SEARCH_MAX_MEAN = {SEARCH_MAX_MEAN:g}: "
            f"pass the stream whose child generator draws the value"
        )
    return rng.child(slot)


def poisson_icdf(u: float, mean: float, rng: RngStream | None = None, slot: int = 0) -> int:
    """The Poisson(``mean``) value of the uniform ``u``: the smallest ``k``
    whose cumulative probability exceeds ``u``, searched for from 0 (the
    inverse-CDF method; Devroye, *Non-Uniform Random Variate Generation*,
    1986, ch. X). Non-decreasing in ``u`` and exact up to the rounding of
    the summed probabilities; the search also stops where a probability
    underflows to 0, so ``u`` just below 1 ends it too.

    Above ``SEARCH_MAX_MEAN`` ``u`` is not read: the value is drawn by
    numpy's sampler from ``rng.child(slot)``, and without ``rng`` it is a
    ``ValueError``.
    """
    if mean > SEARCH_MAX_MEAN:
        return int(_child(rng, slot, mean).poisson(mean))
    k = 0
    p = cdf = math.exp(-mean)
    while cdf <= u and p:
        k += 1
        p *= mean / k
        cdf += p
    return k


def binomial_icdf(
    u: float, n: int, p: float, rng: RngStream | None = None, slot: int = 0
) -> int:
    """The Binomial(``n``, ``p``) value of the uniform ``u`` by the same
    search as :func:`poisson_icdf`, run from the cheaper tail: for ``p``
    above 1/2 it counts the failures of ``1 - u`` and returns ``n`` less
    them, so the value is non-decreasing in ``u`` either way.

    When the searched mean ``n * min(p, 1 - p)`` exceeds
    ``SEARCH_MAX_MEAN``, ``u`` is not read: the value is drawn by numpy's
    sampler from ``rng.child(slot)``, and without ``rng`` it is a
    ``ValueError``.
    """
    flip = p > 0.5
    q = 1.0 - p if flip else p
    if n * q > SEARCH_MAX_MEAN:
        return int(_child(rng, slot, n * q).binomial(n, p))
    if flip:
        u = 1.0 - u
    ratio = q / (1.0 - q)
    top = ratio * (n + 1)  # pmf(k) / pmf(k - 1) = top / k - ratio
    k = 0
    pk = cdf = math.exp(n * math.log1p(-q))
    while cdf <= u and pk and k < n:
        k += 1
        pk *= top / k - ratio
        cdf += pk
    return n - k if flip else k


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


def sample_transport(rng: RngStream, model: TransportModel, slot: int) -> bool:
    """Whether a single transport move delivers its atom: the current row's
    uniform at ``slot`` falls below the success probability."""
    return rng.row[slot] < model.p_success


def sample_extraction(
    rng: RngStream, n_atoms: int, model: ExtractionModel, slot: int
) -> tuple[int, bool]:
    """One extraction attempt into a single trap site from a reservoir of
    ``n_atoms``.

    The ensemble size is the Poisson value (:func:`poisson_icdf`) of the
    current row's uniform at ``slot``, capped at ``n_atoms``; when it caught
    any atom, the uniform at ``slot + 1`` decides the blockade. Returns
    ``(atoms_removed, single_atom_delivered)``; the caller takes the removed
    atoms out of the reservoir. An empty reservoir yields ``(0, False)``.
    """
    if n_atoms == 0:
        return 0, False
    lam = model.mean_ensemble_at_full * min(1.0, n_atoms / model.n_reference)
    row = rng.row
    k = min(poisson_icdf(row[slot], lam, rng, slot), n_atoms)
    delivered = k >= 1 and row[slot + 1] < model.p_blockade
    return k, delivered


def reservoir_decay(
    rng: RngStream, n_atoms: int, p_survive: float, refill_mean: float, slot: int
) -> tuple[int, int]:
    """One decay window of a reservoir of ``n_atoms``: binomial thinning with
    survival probability ``p_survive``, then a refill of ``refill_mean``
    atoms on average, stochastically rounded to a whole number.

    Both values belong to the window, not to the call (see
    ``engine.DecayWindow``). The number lost is the Binomial(``n_atoms``,
    ``1 - p_survive``) value (:func:`binomial_icdf`) of the current row's
    uniform at ``slot``; the rounding reads the uniform at ``slot + 1``.
    Neither is read when there is nothing to decide: an empty reservoir or
    ``p_survive`` of 1, a ``refill_mean`` of 0. Returns ``(atoms_lost,
    atoms_added)``; the caller applies both, which keeps exact loss ledgers.
    """
    row = rng.row
    lost = 0
    if n_atoms > 0 and p_survive < 1.0:
        lost = binomial_icdf(row[slot], n_atoms, 1.0 - p_survive, rng, slot)
    added = 0
    if refill_mean > 0.0:
        whole = int(refill_mean)
        added = whole + (1 if row[slot + 1] < refill_mean - whole else 0)
    return lost, added
