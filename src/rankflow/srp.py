"""Event-driven simulation of the ranking particle system.

N particles occupy the slots {i/N}; particle i jumps to slot 0 at rate
w_i(Y_i(t-), t), pushing every particle below its old position up by one
slot.  Simulation is exact thinning: each particle is dominated by the
constant envelope ||w_i||, candidates of the superposed stream carry marks
uniform on [0, ||w_i||), and a candidate is accepted when its mark falls
below the hazard at the pre-jump state.

The original model reads the hazard at the true position, so particles
couple through rank and one sequential loop thins the stream.  The
flow-driven model reads it along a prescribed flow from the particle's last
reset point; given the flow, each particle is an independent last-arrival
process, so ``latp.thin_last_arrival`` thins all of them at once and the
pre-jump positions are replayed afterwards.  A coupled run feeds both models
the identical marked candidates and records each particle's first
decoupling time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, EnvelopeBreach
from .intensity import PopulationAssignment
from .flow import FlowGrid
from .latp import thin_last_arrival
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

    def decoupled_fraction(self, t: float | None = None) -> float:
        t = self.horizon if t is None else t
        return float(np.mean(self.sigma <= t))


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
        rng = streams.substream(seed, streams.BULK if tagged else streams.GLOBAL)
        times, marks_u = streams.candidate_batch(rng, total, horizon)
        u = rng.random(len(times))
        cum = np.cumsum(bulk_sups) / total
        picks = bulk_ids[np.minimum(np.searchsorted(cum, u, side="right"),
                                    len(bulk_ids) - 1)]
        # candidate_batch marks are uniform on the superposed envelope;
        # rescale to the chosen particle's own envelope
        marks = (marks_u / total) * sups[picks]
        parts.append((times, picks, marks))
    if not parts:
        empty = np.empty(0)
        return empty, np.empty(0, dtype=np.int64), empty, 0
    times = np.concatenate([p[0] for p in parts])
    ids = np.concatenate([p[1] for p in parts])
    marks = np.concatenate([p[2] for p in parts])
    order = np.argsort(times, kind="stable")
    times, ids, marks = times[order], ids[order], marks[order]
    tie_count = int(len(times) - len(np.unique(times))) if len(times) else 0
    if tie_count:
        log.warning("candidate stream has %d exact time ties", tie_count)
    return times, ids, marks, tie_count


def _check_horizon(assignment, horizon):
    horizon = assignment.spec.horizon if horizon is None else float(horizon)
    if horizon > assignment.spec.horizon + 1e-12:
        raise DomainError(
            f"horizon {horizon} exceeds spec horizon {assignment.spec.horizon}")
    return horizon


def _check_flow(flow, horizon):
    if flow.horizon < horizon - 1e-12:
        raise DomainError("flow horizon shorter than the simulation horizon")


def _original_pass(assignment, times, ids, marks):
    """Thin the stream at the true positions, which couple through rank.

    Returns the accepted mask in stream order and the pre-jump positions of
    the accepted candidates.
    """
    values = [c.field._values for c in assignment.spec.classes]
    cls = assignment.class_index.tolist()
    sups = assignment.sup_norms().tolist()
    index = RankIndex(assignment.slots)
    inv_n = 1.0 / assignment.n
    accepted = np.zeros(len(times), dtype=bool)
    pre = []
    for c, (t, i, xi) in enumerate(zip(times.tolist(), ids.tolist(),
                                       marks.tolist())):
        y = index.rank(i) * inv_n
        a = float(values[cls[i]](y, t))
        if a > sups[i] * (1 + 1e-9) + 1e-12:
            raise EnvelopeBreach(
                f"particle {i}: hazard {a} above envelope {sups[i]} at t={t}")
        if xi < a:
            accepted[c] = True
            pre.append(y)
            index.move_to_front(i)
    return accepted, np.asarray(pre)


def _flow_pass(assignment, flow, times, ids, marks):
    """Thin the stream along the flow; same returns as ``_original_pass``.

    Given the flow, particle i is a last-arrival process with kernel
    tilde_w(flow, w_i, y_i) and ignores every other particle, so one
    vectorized kernel thins them all.  The pre-jump positions are then
    replayed from the accepted jumps.
    """
    fields = [c.field for c in assignment.spec.classes]
    cls = assignment.class_index
    y0 = assignment.position

    def hazard(owners, last, t):
        y = flow._eval_from(y0[owners], last, t)
        k = cls[owners]
        a = np.empty(len(owners))
        for j, fld in enumerate(fields):
            sel = k == j
            a[sel] = fld._values(y[sel], t[sel])
        return a

    accepted = thin_last_arrival(times, ids, marks, assignment.n, hazard,
                                 assignment.sup_norms())
    index = RankIndex(assignment.slots)
    inv_n = 1.0 / assignment.n
    pre = []
    for i in ids[accepted].tolist():
        pre.append(index.rank(i) * inv_n)
        index.move_to_front(i)
    return accepted, np.asarray(pre)


def _event_log(assignment, horizon, times, ids, passed, kind, ties):
    accepted, pre = passed
    return EventLog(assignment=assignment, horizon=horizon,
                    times=times[accepted], particles=ids[accepted],
                    pre_positions=pre, kind=kind, tie_count=ties)


def simulate(assignment: PopulationAssignment, horizon: float | None = None,
             seed: int = 0, tagged: int = 0) -> EventLog:
    """Original model: hazard evaluated at the particle's true position."""
    horizon = _check_horizon(assignment, horizon)
    times, ids, marks, ties = _candidates(assignment, horizon, seed, tagged)
    return _event_log(assignment, horizon, times, ids,
                      _original_pass(assignment, times, ids, marks),
                      "original", ties)


def simulate_flow_driven(assignment: PopulationAssignment, flow: FlowGrid,
                         horizon: float | None = None, seed: int = 0,
                         tagged: int = 0) -> EventLog:
    """Flow-driven model: hazard read along the flow from the last reset.

    Particle motion stays the move-to-front slot dynamics; only the
    acceptance threshold changes, to w_i(theta(gamma_i(s-), s), s) with
    gamma_i the initial point (y_i, 0) before the first jump and (0, tau)
    after a jump at tau.
    """
    horizon = _check_horizon(assignment, horizon)
    _check_flow(flow, horizon)
    times, ids, marks, ties = _candidates(assignment, horizon, seed, tagged)
    return _event_log(assignment, horizon, times, ids,
                      _flow_pass(assignment, flow, times, ids, marks),
                      "flow", ties)


def simulate_coupled(assignment: PopulationAssignment, flow: FlowGrid,
                     horizon: float | None = None, seed: int = 0):
    """Run both models on one marked candidate stream.

    Each candidate is offered to both models; each accepts per its own
    threshold.  sigma_i records the first candidate time accepted by
    exactly one of the two, after which the pair keeps evolving (the
    decoupled fraction counts sigma_i <= T).
    """
    horizon = _check_horizon(assignment, horizon)
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
