"""Random processes of the loading pipeline.

Covers one-body survival in the traps, transport success, collisional-blockade
extraction of single atoms from the reservoir, and reservoir depletion. All
draws go through an explicit :class:`RngStream` so ensembles are reproducible
replica by replica; Poisson and binomial values come from its uniforms by
the inverse-CDF method: :func:`poisson_icdf` and :func:`binomial_icdf`
search for the value from 0. A model bundle holds the one store of their
tables, each the running sums of that search, read by bisection and
indexed by an int count (:class:`CountIndex`): a decay window's thinning
by reservoir count, the extraction's ensemble by reservoir count up to
``n_reference``. Each index holds at most ``CDF_TABLE_CAP`` doubles, so
a bundle's four hold at most 1 MiB; past that, and for a uniform at or
above a table's last sum, a draw reads through the helpers, so every
value is the search's. The engine's draws take plain counts, the window
or index that holds their law, and a slot of the stream's current row,
and return what they drew; they change none of their arguments but an
index's lazily filled entries, so the caller owns all state.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RowForm",
    "RngStream",
    "poisson_icdf",
    "binomial_icdf",
    "poisson_table",
    "CountIndex",
    "ThinningIndex",
    "EnsembleIndex",
    "DecayWindow",
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

# A count index holds at most this many doubles of inverse-CDF tables
# (256 KiB). The fullest index of any benchmark workload holds about half
# of it: steady_state's image-window thinning, 16,347 doubles at seed 42.
CDF_TABLE_CAP = 2**15

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
        slot = self._drawn  # its child is keyed by (cycle 0, this uniform's place)
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


# The table of a law read from none: its value is left to the helpers.
_NO_TABLE = array("d")


def _table(mean: float, term: float, factor, last: float) -> array:
    """The running sums ``cdf_0, cdf_1, ...`` of the search for a law of
    searched mean ``mean``, whose first term is ``term`` and whose ``k``-th
    term is the one before times ``factor(k)``. A sum is kept while its
    term is positive and ``k`` at most ``last``; past ``mean`` the table
    ends where one more term leaves the sum unchanged. It does not run on
    to where the search stops (a zero term, or ``k = n``), which would
    spare the search fallback: such tables are 3-6 times longer (293 sums,
    not 51, for ``(494, 0.0257)``; 332, not 54, for mean 13.56) and
    overflow the cap, so steady_state built 36,032 tables, not 1,429, and
    ran 3-5 times slower. Every kept sum is the search's float, so the
    smallest ``k`` whose ``cdf_k`` exceeds ``u`` is the search's value;
    ``u`` at or above the last kept sum is left to the search.

    Every mean reads its table, however small. Read through a
    :class:`CountIndex` (entry, bisection, length check) a value costs
    about 0.12-0.18 us at every mean; the search costs 0.08 us at
    Poisson mean 0.3, 0.14 at 1.0, 0.27 at 3.0 and 0.43 at 5.0, and a
    binomial's 0.22 us at mean 0.05 and 0.30 at 1.03 (timeit, best of 5
    x 20,000, Python 3.11, 2-vCPU Xeon). So only a Poisson below mean
    about 2 searches faster, by at most 0.08 us a draw: 38,204 of the
    reference ensemble's 64,431 extractions, so at most 3 ms of its
    0.5 s, below what its timings resolve.
    """
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
    return cdfs


def poisson_table(mean: float) -> array:
    """The table of Poisson(``mean``) (:func:`_table`); empty above
    ``SEARCH_MAX_MEAN``, where the value is drawn, not read."""
    if mean > SEARCH_MAX_MEAN:
        return _NO_TABLE
    return _table(mean, math.exp(-mean), lambda k: mean / k, math.inf)


def poisson_icdf(u: float, mean: float, rng: RngStream | None = None, slot: int = 0) -> int:
    """The Poisson(``mean``) value of the uniform ``u``: the smallest ``k``
    whose cumulative probability exceeds ``u`` (the inverse-CDF method;
    Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. X).

    The value is searched for from 0 by the running sum that
    :func:`poisson_table` keeps, and no table is read. It is
    non-decreasing in ``u`` and exact up to the rounding of the summed
    probabilities; the search also stops where a probability underflows
    to 0, so ``u`` just below 1 ends it too.

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
    """The Binomial(``n``, ``p``) value of the uniform ``u``, searched for
    like :func:`poisson_icdf` by the running sum that a
    :class:`ThinningIndex` table keeps, and ending at ``k = n`` too. It
    counts from the cheaper tail: for ``p`` above 1/2 it counts the
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


class CountIndex(dict):
    """The inverse-CDF tables of a family of laws by an int count: entry
    ``n`` is :meth:`table` of ``n``, the table of the count's law, built on
    its first read. ``room`` is the doubles the index may still hold, at
    most ``CDF_TABLE_CAP``. A table that does not fit is handed out once
    and leaves no room; past it, as for a law read from none, a count reads
    an empty table, which is not stored, and its value is left to the
    helpers. Keyed by count, not sized by it: a reservoir may legally hold
    1e18 atoms.
    """

    def __init__(self):
        super().__init__()
        self.room = CDF_TABLE_CAP

    def __missing__(self, n: int) -> array:
        cdfs = self.table(n) if self.room else _NO_TABLE
        if len(cdfs) > self.room:
            self.room = 0  # full: no table is built past this one
        elif cdfs:
            self.room -= len(cdfs)
            self[n] = cdfs
        return cdfs


class ThinningIndex(CountIndex):
    """The tables of Binomial(``n``, ``p``) by ``n``: the loss of a
    reservoir of ``n`` atoms over a window whose atoms are each lost with
    probability ``p``. Where :func:`binomial_icdf` reads no table of
    ``u`` itself (``p`` above 1/2, where it reads ``1 - u``, or a mean
    above the search limit), the entry is empty."""

    def __init__(self, p: float):
        super().__init__()
        self.p = p

    def table(self, n: int) -> array:
        p = self.p
        if p > 0.5 or n * p > SEARCH_MAX_MEAN:
            return _NO_TABLE
        ratio = p / (1.0 - p)
        top = ratio * (n + 1)
        return _table(n * p, math.exp(n * math.log1p(-p)), lambda k: top / k - ratio, n)


class EnsembleIndex(CountIndex):
    """The tables of the ensemble an extraction pulls from a reservoir, by
    its count ``n`` up to ``n_reference`` (:meth:`mean`); a fuller
    reservoir reads the entry at ``n_reference``. Above the search limit
    the entry is empty."""

    def __init__(self, mean_at_full: float, n_reference: int):
        super().__init__()
        self.mean_at_full = mean_at_full
        self.n_reference = n_reference

    def mean(self, n: int) -> float:
        """The ensemble mean at a reservoir of ``n``: ``mean_at_full``
        scaled by the fill fraction ``n / n_reference``, capped at 1."""
        return self.mean_at_full * min(1.0, n / self.n_reference)

    def table(self, n: int) -> array:
        return poisson_table(self.mean(n))


@dataclass(frozen=True, slots=True)
class DecayWindow:
    """What one decay window of the cycle does to every atom in it, decided
    once per model bundle: the window's length in seconds, the survival
    probability of an array atom and of a reservoir atom over it, and the
    mean number of atoms the reservoir refill adds in it
    (``refill_rate * length``), split into its whole part
    (``refill_whole``) and the rest (``refill_fraction``) for the
    stochastic rounding. ``thinning`` is the window's own
    :class:`ThinningIndex` of the reservoir's loss, at ``1 -
    reservoir_survival``; it takes no part in equality.
    """

    length: float
    array_survival: float
    reservoir_survival: float
    refill_mean: float
    refill_whole: int = field(init=False)
    refill_fraction: float = field(init=False)
    thinning: ThinningIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        whole = int(self.refill_mean)
        for name, value in (
            ("refill_whole", whole),
            ("refill_fraction", self.refill_mean - whole),
            ("thinning", ThinningIndex(1.0 - self.reservoir_survival)),
        ):
            object.__setattr__(self, name, value)


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
    ensembles: EnsembleIndex,
    p_blockade: float,
    slot: int,
) -> tuple[int, bool]:
    """One extraction attempt into a single trap site from a reservoir of
    ``n_atoms``, by collisional blockade.

    The ensemble pulled from the reservoir is Poisson with mean
    ``ensembles.mean(n_atoms)``: its size is the Poisson value of the
    current row's uniform at ``slot``, read from the entry of ``ensembles``
    at ``min(n_atoms, n_reference)`` (:func:`poisson_icdf` at or above its
    last value, or where it has none), capped at ``n_atoms``. When it
    caught any atom, it yields one trapped atom where the uniform at
    ``slot + 1`` falls below ``p_blockade``. Returns ``(atoms_removed,
    single_atom_delivered)``; the caller takes the removed atoms out of the
    reservoir. An empty reservoir yields ``(0, False)``.
    """
    if n_atoms == 0:
        return 0, False
    row = rng.row
    u = row[slot]
    n_reference = ensembles.n_reference
    n = n_atoms if n_atoms < n_reference else n_reference
    cdfs = ensembles[n]
    k = bisect_right(cdfs, u)
    if k == len(cdfs):
        k = poisson_icdf(u, ensembles.mean(n), rng, slot)
    if k > n_atoms:
        k = n_atoms
    return k, k >= 1 and row[slot + 1] < p_blockade


def reservoir_decay(
    rng: RngStream, n_atoms: int, window: DecayWindow, slot: int
) -> tuple[int, int]:
    """One decay window of a reservoir of ``n_atoms``: binomial thinning with
    the window's survival probability, then a refill of its ``refill_mean``
    atoms on average, stochastically rounded to a whole number.

    The number lost is the Binomial(``n_atoms``, ``1 -
    reservoir_survival``) value of the current row's uniform at ``slot``,
    read from the window's thinning entry at ``n_atoms``
    (:func:`binomial_icdf` at or above its last value, or where it has
    none); the rounding adds one atom to ``refill_whole`` where the
    uniform at ``slot + 1`` falls below ``refill_fraction``. Neither is
    read when there is nothing to decide: an empty reservoir or a
    ``reservoir_survival`` of 1, a whole ``refill_mean``. Returns
    ``(atoms_lost, atoms_added)``; the caller applies both, which keeps
    exact loss ledgers.
    """
    row = rng.row
    lost = 0
    if n_atoms > 0 and window.reservoir_survival < 1.0:
        u = row[slot]
        cdfs = window.thinning[n_atoms]
        lost = bisect_right(cdfs, u)
        if lost == len(cdfs):
            lost = binomial_icdf(u, n_atoms, window.thinning.p, rng, slot)
    added = window.refill_whole
    if window.refill_fraction and row[slot + 1] < window.refill_fraction:
        added += 1
    return lost, added
