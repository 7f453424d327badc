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
gives from the window before.  The flow-driven
model reads the hazard along a prescribed flow from the particle's last
reset point; given the flow, each particle is an independent last-arrival
process, so ``flow._thin_along_flow`` thins all of them at once and the
pre-jump positions are the ranks of the accepted jumps.  A coupled run
feeds both models the identical marked candidates and records each
particle's first decoupling time.  ``RankIndex`` walks the same ranks one
move at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, EnvelopeBreach
from .intensity import PopulationAssignment
from .flow import FlowGrid, _thin_along_flow
from .latp import _breach_bound, _stable_argsort
from . import streams

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
        if len(t) and np.any(np.diff(t) < 0):
            raise ConfigError("event times must be non-decreasing")
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
        with np.load(path) as d:
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
    if not 0 <= tagged <= n:
        raise ConfigError(f"tagged count {tagged} outside 0..{n}")
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
        times = np.concatenate([p[0] for p in parts])
        order = np.argsort(times, kind="stable")
        times = times[order]
        ids = np.concatenate([p[1] for p in parts])[order]
        marks = np.concatenate([p[2] for p in parts])[order]
    tie_count = int(np.count_nonzero(times[1:] == times[:-1]))
    if tie_count:
        log.warning("candidate stream has %d exact time ties", tie_count)
    return times, ids, marks, tie_count


def _check_flow(flow, horizon):
    if flow.horizon < horizon - 1e-12:
        raise DomainError("flow horizon shorter than the simulation horizon")


def _count_below(values, ends, bounds, levels=None):
    """#{k < ends[q] : values[k] < bounds[q]} for every query q.

    A wavelet matrix over the nonnegative ``values``: level b stably moves
    the values with bit b clear in front of those with it set, and each
    query range [lo, hi) follows its values down.  The queries walk every
    level as it is built, so only one level is held at a time.  With
    ``levels``, only the top ``levels`` levels are walked, and each query
    adds half of the values left in its range, those whose top bits are its
    bound's: a coarse count, off by at most half of that bucket.

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
    count = np.zeros(q, dtype=np.int64)
    if not m or not q:
        return count
    table = np.zeros(2 * (m + 1), dtype=np.int64)
    zeros, ones = table[:m + 1], table[m + 1:]
    index = np.arange(m + 1)
    span = np.zeros((2, q), dtype=np.int64)
    span[1] = ends
    size, kept, one = span[1].copy(), np.empty_like(count), np.empty_like(count)
    bit, flag = np.empty(m, dtype=np.int64), np.empty(m, dtype=bool)
    values, spare = values.copy(), np.empty_like(values)
    top = int(max(values.max(), bounds.max())).bit_length()
    stop = 0 if levels is None else max(top - levels, 0)
    for b in reversed(range(stop, top)):
        np.right_shift(values, b, out=bit)
        np.bitwise_and(bit, 1, out=bit)
        ones[0] = 0
        np.cumsum(bit, out=ones[1:])
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
    return count


def _by_particle(ids, n):
    """``ids`` of N = ``n`` particles grouped by particle: its stable
    argsort ``order``, the sorted ids, and for each sorted position the
    position its particle's run starts at."""
    order = _stable_argsort(ids, n)
    sorted_ids = ids[order]
    group = np.maximum.accumulate(np.where(
        np.r_[True, sorted_ids[1:] != sorted_ids[:-1]], np.arange(len(ids)), 0))
    return order, sorted_ids, group


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
    move.  ``grouped``, ``_by_particle(ids, N)``, can be passed in to be
    reused across calls.  ``levels`` makes the count coarse
    (``_count_below``), and the ranks with it.
    """
    n, m = len(slots), len(ids)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    order, sorted_ids, group = _by_particle(ids, n) if grouped is None else grouped
    accepted = np.asarray(accepted, dtype=bool)
    x = np.cumsum(accepted) - accepted
    # per particle in stream order, the latest accepted candidate before c
    # is a running maximum of accepted positions that stays in c's group
    before = np.r_[-1, np.maximum.accumulate(
        np.where(accepted[order], np.arange(m), -1))[:-1]]
    last = np.empty(m, dtype=np.int64)
    last[order] = np.where(before >= group, n + x[order[before]],
                           n - 1 - slots[sorted_ids])
    count = _count_below(last[accepted], x[start:], last[start:], levels)
    return n + count - last[start:] - 1


def _reset_ranks(slots, movers):
    """Every particle's rank after the distinct ``movers``, most recent move
    first, have moved to the front from ranks ``slots``: the reset-point
    identity.  The k movers take ranks 0..k-1, and the rest keep their old
    order behind them, at their old slot plus the movers slotted behind
    them (at larger slots)."""
    above = np.zeros(len(slots) + 1, dtype=np.int64)
    above[slots[movers] + 1] = 1
    np.cumsum(above, out=above)
    ranks = slots + len(movers) - above[slots]
    ranks[movers] = np.arange(len(movers))
    return ranks


def _next_slots(slots, ids, accepted, grouped):
    """Every particle's rank after the candidates ``ids``, from its rank
    ``slots`` before them, by ``_reset_ranks``.

    Each mover's last move is the running maximum of accepted positions at
    the end of its group in ``grouped``, ``_by_particle(ids, N)``; placed at
    that index and read backwards, the movers need no sort.
    """
    order, sorted_ids, group = grouped
    run = np.maximum.accumulate(np.where(accepted[order],
                                         np.arange(len(ids)), -1))
    end = np.r_[sorted_ids[1:] != sorted_ids[:-1], True]
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
    2^19, N/32, N/16 and N/8 took 0.80, 0.79 and 0.79 s.  Before the
    predictor, N/32 beat N/8 at 2^19 to 2^20 by 1-30%.  The floor also
    keeps small streams in one window, where a round's fixed numpy cost is
    paid once: at N = 1600, windows of N/8 took 15 ms against 6 ms, and at
    N = 100 6 ms against 2 ms.
    """
    return max(n // 16, 1 << 14)


# bit levels of the predictor's coarse rank count
_COARSE_LEVELS = 6


def _predict(slots, ids, guess, grouped, accept):
    """A better guess of a window's mask than ``guess``: ``accept`` of the
    ranks under ``guess``, counted coarsely (``_mtf_ranks`` on the top
    ``_COARSE_LEVELS`` levels) and clipped to the N slots.  The exact rounds
    take any mask as their first guess, so this one need only be cheap and
    close."""
    ranks = _mtf_ranks(slots, ids, guess, grouped=grouped,
                       levels=_COARSE_LEVELS)
    return accept(np.clip(ranks, 0, len(slots) - 1))


def _original_pass(assignment, times, ids, marks):
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
    """
    rate = assignment.spec.class_hazard
    predict = assignment.spec.position_dependent
    sups = assignment.sup_norms()
    slots = assignment.slots
    inv_n = 1.0 / assignment.n
    m = len(times)
    accepted = np.zeros(m, dtype=bool)
    ranks = np.empty(m, dtype=np.int64)
    width = _window(assignment.n)
    rounds = predicted = 0
    for lo in range(0, m, width):
        w = slice(lo, lo + width)
        w_times, w_ids, w_marks = times[w], ids[w], marks[w]
        w_acc, w_ranks = accepted[w], ranks[w]
        w_cls = assignment.class_index[w_ids]
        grouped = _by_particle(w_ids, assignment.n)
        w_ranks[:] = slots[w_ids]
        hazard = rate(w_cls, w_ranks * inv_n, w_times)
        w_acc[:] = w_marks < hazard
        if predict:
            predicted += 1
            w_acc[:] = _predict(
                slots, w_ids, w_acc, grouped,
                lambda r: w_marks < rate(w_cls, r * inv_n, w_times))
        start = 0
        while start < len(w_ids):
            rounds += 1
            w_ranks[start:] = _mtf_ranks(slots, w_ids, w_acc, start, grouped)
            hazard[start:] = rate(w_cls[start:], w_ranks[start:] * inv_n,
                                  w_times[start:])
            guess = w_marks[start:] < hazard[start:]
            changed = np.flatnonzero(guess != w_acc[start:])
            if not len(changed):
                break
            w_acc[start:] = guess
            start += int(changed[0]) + 1
        w_sups = sups[w_ids]
        breach = np.flatnonzero(hazard > _breach_bound(w_sups))
        if len(breach):
            c = breach[0]
            raise EnvelopeBreach(
                f"particle {int(w_ids[c])}: hazard {float(hazard[c])} above "
                f"envelope {float(w_sups[c])} at t={float(w_times[c])}")
        if lo + width < m:
            slots = _next_slots(slots, w_ids, w_acc, grouped)
    log.debug("original pass: %d rounds in %d windows over %d candidates, "
              "%d predicted", rounds, len(range(0, m, width)), m, predicted)
    return accepted, ranks[accepted] * inv_n


def _flow_pass(assignment, flow, times, ids, marks):
    """Thin the stream along the flow; same returns as ``_original_pass``.

    Given the flow, the particles ignore each other, so
    ``flow._thin_along_flow`` thins them all at once.  The pre-jump
    positions are then the move-to-front ranks of the accepted jumps.
    """
    accepted = _thin_along_flow(
        flow, assignment.spec.class_hazard, assignment.class_index,
        assignment.position, times, ids, marks, assignment.sup_norms())
    jumpers = ids[accepted]
    ranks = _mtf_ranks(assignment.slots, jumpers,
                       np.ones(len(jumpers), dtype=bool))
    return accepted, ranks * (1.0 / assignment.n)


def _event_log(assignment, horizon, times, ids, passed, kind, ties):
    accepted, pre = passed
    return EventLog(assignment=assignment, horizon=horizon,
                    times=times[accepted], particles=ids[accepted],
                    pre_positions=pre, kind=kind, tie_count=ties)


def simulate(assignment: PopulationAssignment, seed: int = 0,
             tagged: int = 0) -> EventLog:
    """Original model: hazard evaluated at the particle's true position."""
    horizon = assignment.spec.horizon
    times, ids, marks, ties = _candidates(assignment, horizon, seed, tagged)
    return _event_log(assignment, horizon, times, ids,
                      _original_pass(assignment, times, ids, marks),
                      "original", ties)


def simulate_flow_driven(assignment: PopulationAssignment, flow: FlowGrid,
                         seed: int = 0) -> EventLog:
    """Flow-driven model: hazard read along the flow from the last reset.

    Particle motion stays the move-to-front slot dynamics; only the
    acceptance threshold changes, to w_i(theta(gamma_i(s-), s), s) with
    gamma_i the initial point (y_i, 0) before the first jump and (0, tau)
    after a jump at tau.
    """
    horizon = assignment.spec.horizon
    _check_flow(flow, horizon)
    times, ids, marks, ties = _candidates(assignment, horizon, seed, 0)
    return _event_log(assignment, horizon, times, ids,
                      _flow_pass(assignment, flow, times, ids, marks),
                      "flow", ties)


def simulate_coupled(assignment: PopulationAssignment, flow: FlowGrid,
                     seed: int = 0):
    """Run both models on one marked candidate stream.

    Each candidate is offered to both models; each accepts per its own
    threshold.  sigma_i records the first candidate time accepted by
    exactly one of the two, after which the pair keeps evolving (the
    decoupled fraction counts sigma_i <= T).
    """
    horizon = assignment.spec.horizon
    _check_flow(flow, horizon)
    times, ids, marks, ties = _candidates(assignment, horizon, seed, 0)
    orig = _original_pass(assignment, times, ids, marks)
    flow_driven = _flow_pass(assignment, flow, times, ids, marks)
    differ = orig[0] != flow_driven[0]
    sigma = np.full(assignment.n, np.inf)
    np.minimum.at(sigma, ids[differ], times[differ])
    return (_event_log(assignment, horizon, times, ids, orig, "original", ties),
            _event_log(assignment, horizon, times, ids, flow_driven, "flow", ties),
            CouplingRecord(sigma=sigma, horizon=horizon))
