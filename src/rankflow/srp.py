"""Event-driven simulation of the ranking particle system.

N particles occupy the slots {i/N}; particle i jumps to slot 0 at rate
w_i(Y_i(t-), t), pushing every particle below its old position up by one
slot.  Simulation is exact thinning: each particle is dominated by the
constant envelope ||w_i||, candidates of the superposed stream carry marks
uniform on [0, ||w_i||), and a candidate is accepted when its mark falls
below the hazard at the pre-jump state.

The original model reads the hazard at the true position, so particles
couple through rank.  A rank under move-to-front is an LRU stack distance,
so the ranks of all candidates under a given accepted mask are one offline
dominance count (``_mtf_ranks``), and exact speculative rounds of guessed
masks thin the stream without a loop over candidates.  The rounds run in
windows of consecutive candidates, each ranked from every particle's rank
at the window's start, which the reset-point identity (``_reset_ranks``)
gives from the window before.  The engines run seeds as one batch
(``_run_seeds``), and a lone seed is a batch of one: the runs' streams are
laid end to end, each run's particles as owners of their own, in the
batch layout of ``latp`` (``latp._owners``).  A window holds the parts
that fall in it of consecutive runs, which each round ranks in one count,
each run from its own first changed candidate and on trace keys of its
own, so the count walks the bit levels of one run.  Runs that fit
``_window(N)`` candidates together share a window whole, and a longer run
is cut into windows of that width.  The flow-driven model reads the
hazard along a prescribed flow from the particle's last reset point;
given the flow, each particle of each run is an independent last-arrival
process, so one ``flow._thin_along_flow`` call thins a whole batch, and
one rank count gives the pre-jump positions of its accepted jumps.  A
coupled run feeds both models the identical marked candidates and records
each particle's first decoupling time.  ``RankIndex`` walks the same ranks
one move at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DomainError, EnvelopeBreach, _read_npz,
                     _require_int)
from .intensity import PopulationAssignment
from .flow import FlowGrid, _thin_along_flow
from .latp import _breach_bound, _cut, _edges, _laid, _owners, _tiled
from . import streams
from .streams import _stable_argsort

log = logging.getLogger(__name__)

LOG_FORMAT_VERSION = 1


class RankIndex:
    """Order-statistic index over slots: rank query and move-to-front.

    Particles live in an over-allocated slot array with a Fenwick tree
    counting occupied slots; rank(i) is the occupied count before particle
    i's slot, and move-to-front claims the next free slot on the left.
    When the headroom runs out the slots are compacted, so both operations
    stay O(log capacity) amortized.
    """

    def __init__(self, initial_ranks):
        ranks = np.asarray(initial_ranks, dtype=np.int64)
        n = len(ranks)
        if not np.array_equal(np.sort(ranks), np.arange(n)):
            raise ConfigError("initial ranks must be a permutation of 0..N-1")
        self.n = n
        self.headroom = max(n, 1024)
        self.cap = n + self.headroom
        self._build(ranks)

    def _build(self, ranks):
        """Place particle i at slot headroom + ranks[i]; the headroom is free.

        The Fenwick node j covers the 1-based positions (j - lowbit(j), j], so
        it is a difference of two prefix counts of the occupancy array.
        """
        slot_of = self.headroom + np.asarray(ranks, dtype=np.int64)
        occupied = np.zeros(self.cap + 1, dtype=np.int64)
        occupied[slot_of + 1] = 1
        prefix = np.cumsum(occupied)
        j = np.arange(self.cap + 1)
        self._tree = (prefix - prefix[j - (j & -j)]).tolist()
        self.slot_of = slot_of.tolist()
        self._front = self.headroom

    def _place(self, i, slot):
        self.slot_of[i] = slot
        tree = self._tree
        j = slot + 1
        while j <= self.cap:
            tree[j] += 1
            j += j & -j

    def _remove(self, slot):
        tree = self._tree
        j = slot + 1
        while j <= self.cap:
            tree[j] -= 1
            j += j & -j

    def rank(self, i: int) -> int:
        tree = self._tree
        j = self.slot_of[i]
        total = 0
        while j > 0:
            total += tree[j]
            j -= j & -j
        return total

    def move_to_front(self, i: int) -> None:
        if self._front == 0:
            self._build(self.ranks())
        self._remove(self.slot_of[i])
        self._front -= 1
        self._place(i, self._front)

    def ranks(self) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int64)
        out[np.argsort(self.slot_of)] = np.arange(self.n)
        return out


@dataclass(frozen=True)
class EventLog:
    """Complete jump history of one run.

    Records are (time, particle, pre-jump position), strictly ordered in
    time up to exact float ties, which are kept in candidate-stream order
    and counted in tie_count.  Every record resets its particle to slot 0.
    """

    assignment: PopulationAssignment
    horizon: float
    times: np.ndarray
    particles: np.ndarray
    pre_positions: np.ndarray
    kind: str = "original"
    tie_count: int = 0

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=float)
        p = np.ascontiguousarray(self.particles, dtype=np.int64)
        y = np.ascontiguousarray(self.pre_positions, dtype=float)
        if not (len(t) == len(p) == len(y)):
            raise ConfigError("event arrays must have equal length")
        # each test also fails on NaN
        if len(t) and not (np.all(np.diff(t) >= 0)
                           and 0 <= t[0] and t[-1] <= self.horizon):
            raise ConfigError(f"times: event times must be non-decreasing "
                              f"and in [0, {self.horizon}]")
        if len(p) and not (0 <= p.min() and p.max() < self.assignment.n):
            raise ConfigError(f"particles: ids must be in "
                              f"0..{self.assignment.n - 1}")
        if len(y) and not (0 <= y.min() and y.max() <= 1):
            raise ConfigError("pre_positions: positions must be in [0, 1]")
        for arr in (t, p, y):
            arr.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "particles", p)
        object.__setattr__(self, "pre_positions", y)

    @property
    def n_events(self) -> int:
        return len(self.times)

    @property
    def n(self) -> int:
        return self.assignment.n

    def save(self, path) -> None:
        np.savez(path, format_version=LOG_FORMAT_VERSION,
                 kind=self.kind, horizon=self.horizon,
                 tie_count=self.tie_count,
                 times=self.times, particles=self.particles,
                 pre_positions=self.pre_positions,
                 class_index=self.assignment.class_index,
                 position=self.assignment.position,
                 spec_hash=self.assignment.spec.fingerprint())

    @staticmethod
    def load(path, spec) -> "EventLog":
        """Read a ``save`` log; ConfigError names a file that is not one."""
        d = _read_npz(path, "an event log", (
            "format_version", "kind", "horizon", "tie_count", "times",
            "particles", "pre_positions", "class_index", "position",
            "spec_hash"))
        if int(d["format_version"]) != LOG_FORMAT_VERSION:
            raise ConfigError(f"unsupported log format {d['format_version']}")
        if str(d["spec_hash"]) != spec.fingerprint():
            raise ConfigError("log was produced under a different spec")
        assignment = PopulationAssignment(
            spec=spec, class_index=d["class_index"], position=d["position"])
        return EventLog(assignment=assignment, horizon=float(d["horizon"]),
                        times=d["times"], particles=d["particles"],
                        pre_positions=d["pre_positions"],
                        kind=str(d["kind"]), tie_count=int(d["tie_count"]))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,particle,pre_position\n")
            for t, i, y in zip(self.times, self.particles, self.pre_positions):
                fh.write(f"{float(t)!r},{int(i)},{float(y)!r}\n")


@dataclass(frozen=True)
class CouplingRecord:
    """First time each particle pair (original, flow-driven) disagrees."""

    sigma: np.ndarray
    horizon: float

    def __post_init__(self):
        s = np.ascontiguousarray(self.sigma, dtype=float)
        s.flags.writeable = False
        object.__setattr__(self, "sigma", s)

    def decoupled_fraction(self) -> float:
        return float(np.mean(self.sigma <= self.horizon))


def _picks(cum, u):
    """``np.searchsorted(cum, u, side="right")``, searched with ``u`` sorted:
    the search reads only values, so the indices are the same, and sorted
    uniforms walk ``cum`` in order."""
    order = np.argsort(u)
    at = np.empty(len(u), dtype=np.intp)
    at[order] = np.searchsorted(cum, u[order], side="right")
    return at


def _candidates(assignment: PopulationAssignment, horizon: float, seed: int,
                tagged: int):
    """Merged marked candidate stream: (times, ids, marks, tie_count).

    tagged = 0 draws one global stream (particle choice proportional to the
    envelopes).  tagged = L >= 1 gives particles 0..L-1 their own
    N-independent streams and merges them with a bulk stream for the rest;
    exact time ties keep stream order (tagged first, then bulk).
    """
    sups = assignment.sup_norms()
    n = assignment.n
    _require_int("tagged", tagged, 0)
    if tagged > n:
        raise ConfigError(f"tagged: count {tagged} outside 0..{n}")
    parts = []
    for i in range(tagged):
        t_i, m_i = streams.tagged_candidates(seed, i, float(sups[i]), horizon)
        parts.append((t_i, np.full(len(t_i), i, dtype=np.int64), m_i))
    bulk_ids = np.arange(tagged, n)
    bulk_sups = sups[tagged:]
    total = float(bulk_sups.sum())
    if total > 0:
        times, marks_u, u = streams.stream_candidates(
            seed, streams.BULK if tagged else streams.GLOBAL, 0, total,
            horizon, picks=True)
        cum = np.cumsum(bulk_sups) / total
        picks = bulk_ids[np.minimum(_picks(cum, u), len(bulk_ids) - 1)]
        # candidate_batch marks are uniform on the superposed envelope;
        # rescale to the chosen particle's own envelope
        marks = (marks_u / total) * sups[picks]
        parts.append((times, picks, marks))
    if not parts:
        empty = np.empty(0)
        return empty, np.empty(0, dtype=np.int64), empty, 0
    if len(parts) == 1:
        # every stream's times come sorted, and a stable sort of sorted
        # times is the identity
        times, ids, marks = parts[0]
    else:
        times, ids, marks = map(np.concatenate, zip(*parts))
        order = np.argsort(times, kind="stable")
        times, ids, marks = times[order], ids[order], marks[order]
    tie_count = int(np.count_nonzero(times[1:] == times[:-1]))
    if tie_count:
        log.warning("candidate stream has %d exact time ties", tie_count)
    return times, ids, marks, tie_count


def _check_flow(flow, horizon):
    if flow.horizon < horizon - 1e-12:
        raise DomainError("flow horizon shorter than the simulation horizon")


def _lane(top: int):
    """The integer dtype of the move-to-front rank path for values up to
    ``top``: int32 when ``top`` is below 2^31, else int64.

    Each function of the path bounds what it holds by sizes it knows:
    ``_count_below`` by its largest value or bound and its table positions
    up to 2(m + 1), ``_mtf_ranks`` by N + m, above its keys (below N' + A)
    and running counts, ``_by_particle`` by the batch's length, and the
    slots of ``_original_pass`` and ``_flow_pass`` by N, which
    ``_reset_ranks`` stays within.  The arithmetic is exact in either
    width, so every result keeps its bytes, and int32, which holds for
    every N that fits in memory, halves the bytes each pass streams.  The
    stable ``order``, each system's ``first`` and the movers of
    ``_next_slots`` stay intp: numpy converts any other index array to intp
    on every gather, which cost more than the narrow lane saved there.
    """
    return np.int32 if top < 1 << 31 else np.int64


def _count_below(values, starts, ends, bounds, levels=None):
    """#{starts[q] <= k < ends[q] : values[k] < bounds[q]} for every query q.

    A wavelet matrix over the nonnegative ``values``: level b stably moves
    the values with bit b clear in front of those with it set, and each
    query range [lo, hi) follows its values down.  The queries walk every
    level as it is built, so only one level is held at a time, and the
    levels are those of the largest value or bound: ``_mtf_ranks`` keeps
    each run's keys below its own N' + A, so a batch walks no more levels
    than its longest run.  With ``levels``, only the top ``levels`` levels
    are walked, and each query adds half of the values left in its range,
    those whose top bits are its bound's: a coarse count, off by at most
    half of that bucket.  The walk runs in the lane (``_lane``) of its
    largest value, bound or table position, and the counts return as
    int64.

    Each level fills one table of 2(m + 1) entries for the m values from
    one prefix sum of its bits: entry i holds the zeros before i, and entry
    m + 1 + i holds n0, the level's zeros, plus the ones before i.  Both
    ends of a range move down with one gather, offset by m + 1 where the
    bound's bit is set; such a bound is above every value in the range with
    the bit clear, so it counts the zeros the range drops, its old size
    minus its new one.  The other lanes are written in place: with a fresh
    array per step, the count on the engines' windows was slower than the
    masked-multiply walk this one replaced.
    """
    q, m = len(ends), len(values)
    if not m or not q:
        return np.zeros(q, dtype=np.int64)
    top = int(max(values.max(), bounds.max()))
    lane = _lane(max(top, 2 * (m + 1)))
    count = np.zeros(q, dtype=lane)
    table = np.zeros(2 * (m + 1), dtype=lane)
    zeros, ones = table[:m + 1], table[m + 1:]
    index = np.arange(m + 1, dtype=lane)
    span = np.array((starts, ends), dtype=lane)
    size = span[1] - span[0]
    kept, one = np.empty_like(count), np.empty_like(count)
    bit, flag = np.empty(m, dtype=lane), np.empty(m, dtype=bool)
    values, spare = values.astype(lane), np.empty(m, dtype=lane)
    bounds = bounds.astype(lane, copy=False)
    top = top.bit_length()
    stop = 0 if levels is None else max(top - levels, 0)
    for b in reversed(range(stop, top)):
        np.right_shift(values, b, out=bit)
        np.bitwise_and(bit, 1, out=bit)
        ones[0] = 0
        np.cumsum(bit, dtype=lane, out=ones[1:])
        n0 = m - int(ones[-1])
        np.subtract(index, ones, out=zeros)
        ones += n0
        np.right_shift(bounds, b, out=one)
        np.bitwise_and(one, 1, out=one)
        np.multiply(one, m + 1, out=kept)
        np.add(span, kept, out=span)
        # a fresh result: take(out=) copies ``out`` first
        span = table.take(span)
        np.subtract(span[1], span[0], out=kept)
        np.subtract(size, kept, out=size)
        np.multiply(size, one, out=size)
        count += size
        size, kept = kept, size
        if b > stop:
            np.not_equal(bit, 0, out=flag)
            np.compress(flag, values, out=spare[n0:])
            np.logical_not(flag, out=flag)
            np.compress(flag, values, out=spare[:n0])
            values, spare = spare, values
    if stop:
        count += size >> 1
    return count.astype(np.int64, copy=False)


def _firsts(keys):
    """Where ``keys`` differ from the key before them, the first one
    included: ``np.r_[True, keys[1:] != keys[:-1]]`` without ``np.r_``'s
    fixed cost, which the engines pay per window and round."""
    out = np.empty(len(keys), dtype=bool)
    out[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=out[1:])
    return out


def _by_particle(ids, n, sizes=None):
    """``ids`` of a batch grouped by particle: their stable argsort
    ``order``, the sorted ids, for each sorted position the position its
    particle's run starts at, and ``(size, first)``, the batch's systems.

    The ids are the owners of len(sizes) runs of ``size`` = n / len(sizes)
    particles each, in ``latp``'s batch layout (``latp._owners``), and the
    runs are the systems; without ``sizes``, all of them are one system.
    Sorting by particle keeps each system's candidates at the same
    positions, so ``first``, for each position the position of its
    system's first candidate, serves both orders.
    """
    order = _stable_argsort(ids, n)
    sorted_ids = ids[order]
    group = np.maximum.accumulate(np.where(
        _firsts(sorted_ids), np.arange(len(ids), dtype=_lane(len(ids))), 0))
    sizes = [len(ids)] if sizes is None else sizes
    return order, sorted_ids, group, (n // len(sizes),
                                      np.repeat(_edges(sizes)[:-1], sizes))


def _mtf_ranks(slots, ids, accepted, start=0, grouped=None, levels=None):
    """Move-to-front rank of ``ids[c]`` just before candidate c, c >= start.

    Particle i starts at rank ``slots[i]``, and every accepted candidate
    moves its particle to the front, so a rank is an LRU stack distance:
    the distinct particles moved since the particle's own last move.  Put
    N virtual moves in decreasing slot order in front of the accepted ones;
    then every particle has a last move, at index ``last`` of that trace,
    and with x accepted candidates before c

        rank = N + #{accepted k < x : prev_k < last} - last - 1,

    ``prev_k`` being the index of the k-th accepted particle's previous
    move.  ``levels`` makes the count coarse (``_count_below``), and the
    ranks with it.  ``start`` may also be a slice or an index array of the
    candidates to rank.

    ``ids`` and ``slots`` may be those of the systems of a batch, grouped
    by ``_by_particle(ids, N, sizes)`` and passed as ``grouped``, which
    also saves the grouping across calls; without it, they are one system.
    The systems are ranked in one count, each on a trace of its own: its
    N' virtual moves, then its accepted ones, the k-th at N' + k.  With
    A_s accepted candidates in the systems before it, its k-th is the
    batch's (A_s + k)-th, so each query of system s counts the range
    [A_s, x) of the batch's accepted keys, and with N read as N' the
    formula holds as it stands.  No key exceeds its own system's N' + A,
    so the count walks the bit levels of one system, not of the batch.
    """
    n, m = len(slots), len(ids)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    order, sorted_ids, group, (size, first) = (
        _by_particle(ids, n) if grouped is None else grouped)
    at = slice(start, None) if isinstance(start, (int, np.integer)) else start
    lane = _lane(n + m)
    accepted = np.asarray(accepted, dtype=bool)
    x = np.cumsum(accepted, dtype=lane) - accepted
    # per particle in stream order, the latest accepted candidate before c
    # is a running maximum of accepted positions that stays in c's group
    before = np.empty(m, dtype=lane)
    before[0] = -1
    np.maximum.accumulate(
        np.where(accepted[order], np.arange(m, dtype=lane), -1)[:-1],
        out=before[1:])
    # the accepted candidates of the systems before each position's own
    starts = x[first]
    last = np.empty(m, dtype=lane)
    last[order] = np.where(before >= group, size + x[order[before]] - starts,
                           size - 1 - slots[sorted_ids])
    bounds = last[at]
    count = _count_below(last[accepted], starts[at], x[at], bounds, levels)
    return size + count - bounds - 1


def _reset_ranks(slots, movers):
    """Every particle's rank after the distinct ``movers``, most recent move
    first, have moved to the front from ranks ``slots``: the reset-point
    identity.  The k movers take ranks 0..k-1, and the rest keep their old
    order behind them, at their old slot plus the movers slotted behind
    them (at larger slots).  The ranks take the dtype of ``slots``, and
    no value on the way exceeds N."""
    above = np.zeros(len(slots) + 1, dtype=slots.dtype)
    above[slots[movers] + 1] = 1
    np.cumsum(above, dtype=slots.dtype, out=above)
    ranks = slots - above[slots] + len(movers)
    ranks[movers] = np.arange(len(movers))
    return ranks


def _next_slots(slots, ids, accepted, grouped):
    """Every particle's rank after the candidates ``ids``, from its rank
    ``slots`` before them, by ``_reset_ranks``.

    Each mover's last move is the running maximum of accepted positions at
    the end of its group in ``grouped``, ``_by_particle(ids, N)``; placed at
    that index and read backwards, the movers need no sort.
    """
    order, sorted_ids, group, _ = grouped
    run = np.maximum.accumulate(np.where(accepted[order],
                                         np.arange(len(ids)), -1))
    # the last candidate of each particle's run
    end = _firsts(sorted_ids[::-1])[::-1]
    last = run[end]
    last = last[last >= group[end]]
    trace = np.full(len(ids), -1, dtype=np.int64)
    trace[order[last]] = sorted_ids[last]
    return _reset_ranks(slots, trace[trace >= 0][::-1])


def _window(n):
    """Candidates per window of ``_original_pass`` for N particles.

    A window costs its prediction and rounds plus O(N) for the next
    window's slots, so the width grows with N.  Process seconds of the
    pass, best of 3 at seed 1, on one shared 2-vCPU Xeon: at N = 1e5,
    widths N/16, N/8, N/6, N/4 and N/2 took 0.17, 0.17, 0.18, 0.17 and
    0.23 s on the affine spec, and on the steep spec N/32 to N/4 took 0.71,
    0.57, 0.56, 0.56 and 0.59 s; the floor 2^14 took 0.17 and 0.57 s.  At
    N = 2^20, N/64, N/32, N/16 and N/8 took 2.22, 1.93-2.23, 1.80-2.00 and
    2.25 s on the affine spec (one N/16 reading of 2.78 s, taken beside
    another job, left out), and on the steep spec N/32 took 9.4-10.0 s
    against 7.0-8.7 s for N/16 in three interleaved scans (N/8: 8.6 s).  At
    2^19, N/32, N/16 and N/8 took 0.80, 0.79 and 0.79 s.  The floor also
    keeps small streams in one window, where a round's fixed numpy cost is
    paid once: at N = 1600, windows of N/8 took 15 ms against 6 ms, and at
    N = 100 6 ms against 2 ms.

    The runs of a batch share windows of whole runs up to the full width;
    each run is ranked on keys of its own (``_mtf_ranks``), so a packed
    window's count walks the bit levels of one run.  Process ms per seed
    of the pass over seeds 0-19 on the affine spec, medians of 9 passes in
    each of two runs per tree, trees alternating: one seed at a time took
    0.53-0.54, 0.87-0.91 and 2.1-2.2 ms at N = 100, 400 and 1600, and
    windows of whole runs up to 2^12 and 2^14 candidates 0.097-0.099 and
    0.093-0.099 ms at N = 100, 0.39-0.40 and 0.41-0.51 ms at 400, and
    2.15-2.24 and 1.89-1.91 ms at 1600, where a run has 2.1k candidates and
    2^14 packs seven.  A packed window's rounds run until its slowest run
    settles, which at N = 400 costs less than N = 1600 gains.
    """
    return max(n // 16, 1 << 14)


# bit levels of the predictor's coarse rank count
_COARSE_LEVELS = 6


def _predict(slots, ids, guess, grouped, accept):
    """A better guess of a window's mask than ``guess``: ``accept`` of the
    ranks under ``guess``, counted coarsely (``_mtf_ranks`` on the top
    ``_COARSE_LEVELS`` levels).  The exact rounds take any mask as their
    first guess, so this one need only be cheap and close."""
    return accept(_mtf_ranks(slots, ids, guess, grouped=grouped,
                             levels=_COARSE_LEVELS))


def _groups(sizes, width):
    """(first, stop) of each group of consecutive runs, ``sizes[s]``
    candidates each, that fit ``width`` candidates together; a run longer
    than ``width`` is a group of its own."""
    groups, first, total = [], 0, 0
    for s, size in enumerate(sizes):
        if s > first and total + size > width:
            groups.append((first, s))
            first, total = s, 0
        total += size
    if len(sizes):
        groups.append((first, len(sizes)))
    return groups


def _seed_runs(assignment, seeds: int) -> list:
    """``range(seeds)`` in runs of consecutive seeds, each as many as one
    batch window (``_window``) holds by their expected candidate count, and
    at least one: so a job runs its seeds through the engines together, and
    a large N keeps one seed per job."""
    expected = float(assignment.sup_norms().sum()) * assignment.spec.horizon
    per = max(1, int(_window(assignment.n) // expected)) if expected else seeds
    return [range(lo, min(lo + per, seeds)) for lo in range(0, seeds, per)]


def _original_pass(assignment, times, ids, marks, sizes=None):
    """Thin the stream at the true positions, which couple through rank.

    Returns the accepted mask in stream order and the pre-jump positions of
    the accepted candidates.  Decision c depends only on the decisions
    before it, so the stream is thinned in windows of consecutive
    candidates, each in exact rounds: guess the window's mask, rank every
    candidate of the window under the guess, recompute the mask, and repeat
    from the first candidate that changed, the decisions up to it being
    settled.  The first guess reads the hazard at the ranks the window
    starts from; where the rate depends on position, ``_predict`` improves
    it with one coarse ranking.  The fixed point is the sequential thinning
    of the window whatever the guess, and the ranks the next window starts
    from follow by the reset-point identity (``_next_slots``).  So a round
    costs the window, not the unsettled rest of the stream.  Each window's
    earliest envelope breach is raised when the window settles, which makes
    it the one a sequential loop would hit first.

    The stream is a batch of independent runs of the assignment laid one
    after another: run s holds ``sizes[s]`` candidates under particle ids
    of its own (``_owners``), and without ``sizes`` the stream is one run.
    A window holds the parts in it of consecutive runs, whole runs while
    they fit ``_window(N)`` candidates together and windows of that width
    of a longer one, and each round ranks its unsettled candidates in one
    count: each run repeats from its own first changed candidate, and a
    settled run drops out.  The breach raised is then the lowest run's
    earliest, as in a loop over the runs.
    """
    rate = assignment.spec.class_hazard
    n = assignment.n
    inv_n = 1.0 / n
    sups = assignment.sup_norms()
    m = len(times)
    accepted = np.zeros(m, dtype=bool)
    ranks = np.empty(m, dtype=np.int64)
    counts = [0, 0, 0]  # rounds, windows, predicted

    def settle(slots, w, parts):
        """Settle the window ``w``, the parts of consecutive runs of
        ``parts`` candidates each, from their tiled ``slots``; returns its
        ``_by_particle`` grouping."""
        w_times, w_ids, w_marks = times[w], ids[w], marks[w]
        w_acc, w_ranks = accepted[w], ranks[w]
        w_cls = assignment.class_index[w_ids]
        gids = _owners(w_ids, n, parts)
        grouped = _by_particle(gids, len(slots), parts)
        # where each candidate's run starts in the window
        starts = grouped[3][1]
        at = np.arange(len(w_ids))
        w_ranks[:] = slots[gids]
        hazard = rate(w_cls, w_ranks * inv_n, w_times)
        w_acc[:] = w_marks < hazard
        counts[1] += 1
        if assignment.spec.position_dependent:
            counts[2] += 1
            w_acc[:] = _predict(
                slots, gids, w_acc, grouped,
                lambda r: w_marks < rate(w_cls, np.clip(r, 0, n - 1) * inv_n,
                                         w_times))
        while len(at):
            counts[0] += 1
            r = _mtf_ranks(slots, gids, w_acc, at, grouped)
            w_ranks[at] = r
            h = rate(w_cls[at], r * inv_n, w_times[at])
            hazard[at] = h
            guess = w_marks[at] < h
            changed = guess != w_acc[at]
            w_acc[at] = guess
            # each run repeats after its own first changed candidate, the
            # latest change at or before a candidate being a running
            # maximum, and a run with none is settled
            latest = np.maximum.accumulate(np.where(changed, at, -1))
            at = at[1:][latest[:-1] >= starts[at[1:]]]
        w_sups = sups[w_ids]
        # NaN fails the comparison, and so breaches
        breach = np.flatnonzero(~(hazard <= _breach_bound(w_sups)))
        if len(breach):
            c = breach[0]
            i, a, t = int(w_ids[c]), float(hazard[c]), float(w_times[c])
            raise EnvelopeBreach(
                f"particle {i}: hazard {a} above envelope "
                f"{float(w_sups[c])} at t={t}", owner=i, time=t, hazard=a)
        return grouped

    sizes = [m] if sizes is None else list(sizes)
    edges = _edges(sizes)
    width = _window(n)
    for first, stop in _groups(sizes, width):
        lo, hi = edges[first], edges[stop]
        slots = _tiled(assignment.slots, stop - first)
        slots = slots.astype(_lane(len(slots)), copy=False)
        for w_lo in range(lo, hi, width):
            w = slice(w_lo, min(w_lo + width, hi))
            # the whole runs of a group that fits, or a window of one run
            grouped = settle(slots, w, sizes[first:stop] if stop - first > 1
                             else [w.stop - w.start])
            if w.stop < hi:
                slots = _next_slots(slots, ids[w], accepted[w], grouped)
    log.debug("original pass: %d rounds in %d windows over %d candidates, "
              "%d predicted", counts[0], counts[1], m, counts[2])
    return accepted, ranks[accepted] * inv_n


def _flow_pass(assignment, flow, times, ids, marks, sizes=None):
    """Thin the stream along the flow; same returns as ``_original_pass``.

    Given the flow, the particles ignore each other, so one
    ``flow._thin_along_flow`` call thins every run of the batch (``sizes``
    as in ``_original_pass``) at once, and its breach is the lowest run's
    earliest.  The pre-jump positions are then the move-to-front ranks of
    the accepted jumps, every run ranked in one count (``_mtf_ranks``).
    """
    sizes = [len(times)] if sizes is None else list(sizes)
    n, k = assignment.n, len(sizes)
    accepted = _thin_along_flow(
        flow, assignment.spec.class_hazard, assignment.class_index,
        assignment.position, assignment.sup_norms(), times, ids, marks, sizes)
    jumpers = _owners(ids, n, sizes)[accepted]
    grouped = _by_particle(jumpers, k * n,
                           np.bincount(jumpers // n, minlength=k))
    slots = _tiled(assignment.slots, k)
    pre = _mtf_ranks(slots.astype(_lane(len(slots)), copy=False), jumpers,
                     np.ones(len(jumpers), dtype=bool), grouped=grouped)
    return accepted, pre * (1.0 / n)


def _run_seeds(assignment: PopulationAssignment, seeds, engine: str,
               flow: FlowGrid | None = None, tagged: int = 0) -> list:
    """The run of ``engine`` ("original", "flow" or "coupled") for each of
    ``seeds``, in their order: what ``simulate``, ``simulate_flow_driven``
    or ``simulate_coupled`` returns for that seed, byte for byte.

    The seeds' candidate streams, each drawn as for one run, are laid one
    after another, and the passes thin and rank them as one batch
    (``_original_pass``); each run's fixed point is its own, so no byte
    depends on the others.  A breach is the one a loop over the seeds
    meets first.
    """
    seeds = [streams.check_key("seed", seed) for seed in seeds]
    horizon = assignment.spec.horizon
    if flow is not None:
        _check_flow(flow, horizon)
    drawn = [_candidates(assignment, horizon, seed, tagged) for seed in seeds]
    if not drawn:
        return []
    sizes = [len(d[0]) for d in drawn]
    times, ids, marks = (_laid([d[j] for d in drawn]) for j in range(3))
    try:
        passes = {}
        if engine != "flow":
            passes["original"] = _original_pass(assignment, times, ids, marks,
                                                sizes)
        if engine != "original":
            passes["flow"] = _flow_pass(assignment, flow, times, ids, marks,
                                        sizes)
    except EnvelopeBreach:
        # each pass raises its lowest seed's breach, but a coupled batch
        # runs the original pass over every seed first, where a loop meets
        # a lower seed's flow breach first: the loop raises its own
        if engine == "coupled" and len(seeds) > 1:
            for seed in seeds:
                _run_seeds(assignment, [seed], engine, flow, tagged)
        raise
    logs = {}
    for kind, (acc, pre) in passes.items():
        acc = _cut(acc, sizes)
        # each run's accepted candidates follow those of the runs before it
        pre = _cut(pre, [np.count_nonzero(a) for a in acc])
        logs[kind] = [EventLog(
            assignment=assignment, horizon=horizon, times=d[0][a],
            particles=d[1][a], pre_positions=p, kind=kind, tie_count=d[3])
            for d, a, p in zip(drawn, acc, pre)]
    if engine != "coupled":
        return logs[engine]
    # each particle's first candidate on which the two passes differ
    differ = passes["original"][0] != passes["flow"][0]
    n, k = assignment.n, len(sizes)
    sigma = np.full(k * n, np.inf)
    np.minimum.at(sigma, _owners(ids, n, sizes)[differ], times[differ])
    return [(orig, flow_driven, CouplingRecord(sigma=s, horizon=horizon))
            for orig, flow_driven, s in zip(logs["original"], logs["flow"],
                                            _cut(sigma, [n] * k))]


def simulate(assignment: PopulationAssignment, seed: int = 0,
             tagged: int = 0) -> EventLog:
    """Original model: hazard evaluated at the particle's true position."""
    return _run_seeds(assignment, [seed], "original", tagged=tagged)[0]


def simulate_flow_driven(assignment: PopulationAssignment, flow: FlowGrid,
                         seed: int = 0) -> EventLog:
    """Flow-driven model: hazard read along the flow from the last reset.

    Particle motion stays the move-to-front slot dynamics; only the
    acceptance threshold changes, to w_i(theta(gamma_i(s-), s), s) with
    gamma_i the initial point (y_i, 0) before the first jump and (0, tau)
    after a jump at tau.
    """
    return _run_seeds(assignment, [seed], "flow", flow=flow)[0]


def simulate_coupled(assignment: PopulationAssignment, flow: FlowGrid,
                     seed: int = 0):
    """Run both models on one marked candidate stream.

    Each candidate is offered to both models; each accepts per its own
    threshold.  sigma_i records the first candidate time accepted by
    exactly one of the two, after which the pair keeps evolving (the
    decoupled fraction counts sigma_i <= T).
    """
    return _run_seeds(assignment, [seed], "coupled", flow=flow)[0]
