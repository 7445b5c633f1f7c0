"""Random processes of the loading pipeline.

Covers one-body survival in the traps, transport success, collisional-blockade
extraction of single atoms from the reservoir, and reservoir depletion. All
draws go through an explicit :class:`RngStream` so ensembles are reproducible
replica by replica; Poisson and binomial values come from its uniforms by
the inverse-CDF method (:func:`poisson_icdf`, :func:`binomial_icdf`): each
law's table of cumulative probabilities is built once, by the very sum a
search from 0 adds up, and read by bisection; a uniform at or above its
last stored value is searched for, so every value is the search's. The
tables hold at most ``CDF_TABLE_CAP`` doubles (1 MiB) in all. The
engine's draws take plain counts and a slot of the stream's current row
and return what they drew; they change none of their arguments, so the
caller owns all state. They read their probabilities, lifetimes and means
as plain numbers, the keys and derived values of
``engine.SimulationModels``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

import numpy as np

__all__ = [
    "RowForm",
    "RngStream",
    "poisson_icdf",
    "binomial_icdf",
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

# Inverse-CDF tables, keyed by a Poisson mean or by a binomial's (n, q), hold
# at most this many doubles in all (1 MiB); a table that does not fit beside
# the others empties them first.
CDF_TABLE_CAP = 2**17

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


_TABLES: dict = {}  # the cumulative probabilities of a law, by its key
_stored = 0  # doubles held in _TABLES


def _table(key, mean: float, term: float, factor, last: float) -> array:
    """The table of ``key``'s law, stored under ``key``: the running sums
    ``cdf_0, cdf_1, ...`` of the search, whose first term is ``term`` and
    whose ``k``-th term is the one before times ``factor(k)``. A sum is
    kept while its term is positive and ``k`` at most ``last``; past
    ``mean`` the table ends where one more term leaves the sum unchanged.
    It does not run on to where the search stops (a zero term, or ``k =
    n``), which would spare the search fallback: such tables are 3-6 times
    longer (293 sums, not 51, for ``(494, 0.0257)``; 332, not 54, for mean
    13.56) and overflow the cap, so steady_state built 36,032 tables, not
    1,429, and ran 3-5 times slower. Every kept sum is the search's float, so the smallest ``k`` whose
    ``cdf_k`` exceeds ``u`` is the search's value; ``u`` at or above the
    last kept sum is left to the search. A table that would take the
    tables past ``CDF_TABLE_CAP`` doubles empties them first; an empty
    table is not stored, nor one longer than the cap on its own.
    """
    global _stored
    cdfs = array("d")
    k, cdf = 0, term
    while term > 0:
        cdfs.append(cdf)
        if k == last:
            break
        k += 1
        term *= factor(k)
        if k > mean and cdf + term == cdf:
            break
        cdf += term
    if 0 < len(cdfs) <= CDF_TABLE_CAP:
        if _stored + len(cdfs) > CDF_TABLE_CAP:
            _TABLES.clear()
            _stored = 0
        _TABLES[key] = cdfs
        _stored += len(cdfs)
    return cdfs


def _poisson_search(u: float, mean: float) -> int:
    """The Poisson(``mean``) value of ``u``: the smallest ``k`` whose
    cumulative probability exceeds ``u``, searched for from 0; the search
    also stops where a probability underflows to 0."""
    k = 0
    p = cdf = math.exp(-mean)
    while cdf <= u and p:
        k += 1
        p *= mean / k
        cdf += p
    return k


def _binomial_search(u: float, n: int, p: float) -> int:
    """The Binomial(``n``, ``p``) value of ``u`` by the search of
    :func:`_poisson_search`, run from the cheaper tail: for ``p`` above 1/2
    it counts the failures of ``1 - u`` and returns ``n`` less them."""
    flip = p > 0.5
    q = 1.0 - p if flip else p
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


def _poisson_table(mean: float) -> array:
    return _table(mean, mean, math.exp(-mean), lambda k: mean / k, math.inf)


def _binomial_table(n: int, q: float) -> array:
    ratio = q / (1.0 - q)
    top = ratio * (n + 1)
    return _table((n, q), n * q, math.exp(n * math.log1p(-q)), lambda k: top / k - ratio, n)


def poisson_icdf(u: float, mean: float, rng: RngStream | None = None, slot: int = 0) -> int:
    """The Poisson(``mean``) value of the uniform ``u``: the smallest ``k``
    whose cumulative probability exceeds ``u`` (the inverse-CDF method;
    Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. X).

    The cumulative probabilities are summed from 0 once per ``mean``,
    into a table that is read by bisection; ``u`` at or above its last
    value is searched for from 0 by the same sum
    (:func:`_poisson_search`). Either way the value
    is the search's: non-decreasing in ``u`` and exact up to the rounding
    of the summed probabilities, ending where a probability underflows to
    0, so ``u`` just below 1 ends it too.

    Above ``SEARCH_MAX_MEAN`` ``u`` is not read: the value is drawn by
    numpy's sampler from ``rng.child(slot)``, and without ``rng`` it is a
    ``ValueError``.
    """
    if mean > SEARCH_MAX_MEAN:
        return int(_child(rng, slot, mean).poisson(mean))
    cdfs = _TABLES.get(mean) or _poisson_table(mean)
    k = bisect_right(cdfs, u)
    return k if k < len(cdfs) else _poisson_search(u, mean)


def binomial_icdf(
    u: float, n: int, p: float, rng: RngStream | None = None, slot: int = 0
) -> int:
    """The Binomial(``n``, ``p``) value of the uniform ``u``, read like
    :func:`poisson_icdf` from a table per ``(n, q)``, ``q = min(p, 1 -
    p)``, and searched for (:func:`_binomial_search`) above its last value.
    It counts from the cheaper tail: for ``p`` above 1/2 it counts the
    failures of ``1 - u`` and returns ``n`` less them, so the value is
    non-decreasing in ``u`` either way.

    When the searched mean ``n * min(p, 1 - p)`` exceeds
    ``SEARCH_MAX_MEAN``, ``u`` is not read: the value is drawn by numpy's
    sampler from ``rng.child(slot)``, and without ``rng`` it is a
    ``ValueError``.
    """
    flip = p > 0.5
    q = 1.0 - p if flip else p
    if n * q > SEARCH_MAX_MEAN:
        return int(_child(rng, slot, n * q).binomial(n, p))
    cdfs = _TABLES.get((n, q)) or _binomial_table(n, q)
    k = bisect_right(cdfs, 1.0 - u if flip else u)
    if k == len(cdfs):
        return _binomial_search(u, n, p)
    return n - k if flip else k


# numpy's Poisson draw refuses means above about 9.2e18, where its 64-bit
# counts end; a Poisson mean is held to this round bound below that.
_MAX_POISSON_MEAN = 1e18


def survival_probability(dt: float, lifetime: float) -> float:
    """Probability that a trapped atom survives ``dt`` seconds,
    ``exp(-dt / lifetime)``."""
    return math.exp(-dt / lifetime)


def sample_survival(rng: RngStream, dt: float, lifetime: float) -> bool:
    """One Bernoulli survival draw over ``dt`` seconds."""
    return rng.bernoulli(survival_probability(dt, lifetime))


def sample_transport(rng: RngStream, p_success: float, slot: int) -> bool:
    """Whether a single transport move delivers its atom: the current row's
    uniform at ``slot`` falls below ``p_success``."""
    return rng.row[slot] < p_success


def sample_extraction(
    rng: RngStream,
    n_atoms: int,
    mean_at_full: float,
    n_reference: int,
    p_blockade: float,
    slot: int,
) -> tuple[int, bool]:
    """One extraction attempt into a single trap site from a reservoir of
    ``n_atoms``, by collisional blockade.

    The ensemble pulled from the reservoir is Poisson with mean
    ``mean_at_full`` scaled by the fill fraction ``n_atoms / n_reference``
    (capped at 1): its size is the Poisson value (:func:`poisson_icdf`) of
    the current row's uniform at ``slot``, capped at ``n_atoms``. When it
    caught any atom, it yields one trapped atom where the uniform at
    ``slot + 1`` falls below ``p_blockade``. Returns ``(atoms_removed,
    single_atom_delivered)``; the caller takes the removed atoms out of the
    reservoir. An empty reservoir yields ``(0, False)``.
    """
    if n_atoms == 0:
        return 0, False
    lam = mean_at_full * min(1.0, n_atoms / n_reference)
    row = rng.row
    k = min(poisson_icdf(row[slot], lam, rng, slot), n_atoms)
    delivered = k >= 1 and row[slot + 1] < p_blockade
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
