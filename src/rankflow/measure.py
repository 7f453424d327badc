"""Offline evaluation of empirical objects from event logs.

Everything here is a pure function of an EventLog: the empirical
characteristic curves, the spatial distribution functions, empirical-measure
queries, and sup-distances to limit objects.  One counting routine serves
every curve and distribution-function query: for a reset point gamma and
times t >= t0 it counts, per class, the downstream particles with no jump in
(t0, t] and those that jumped.  Positions come from the reset-point identity
Y_i(t) = Y_C(gamma_i(t), t), ``srp._reset_ranks``, read in event order, and
``flow_identity_gap`` checks them against a move-to-front walk at zero
tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .flow import BoundaryPoint, _h_vector, boundary, initial
from .intensity import PopulationSpec
from .latp import _stable_argsort
from .srp import EventLog, RankIndex, _mtf_ranks, _reset_ranks


@dataclass(frozen=True)
class TestFunction:
    """Bounded weight h(w) applied per class.

    kinds: "ones" (h = 1), "indicator" (one class), "norm_capped"
    (h = min(||w||, cap)).
    """

    __test__ = False  # keep pytest collection away from the Test* name

    kind: str
    param: tuple = ()

    @staticmethod
    def ones() -> "TestFunction":
        return TestFunction("ones")

    @staticmethod
    def indicator(class_k: int) -> "TestFunction":
        return TestFunction("indicator", (int(class_k),))

    @staticmethod
    def norm_capped(cap: float) -> "TestFunction":
        return TestFunction("norm_capped", (float(cap),))

    def per_class(self, spec: PopulationSpec) -> np.ndarray:
        K = spec.n_classes
        if self.kind == "ones":
            return np.ones(K)
        if self.kind == "indicator":
            k = self.param[0]
            if not 0 <= k < K:
                raise ConfigError(f"indicator class {k} outside 0..{K - 1}")
            out = np.zeros(K)
            out[k] = 1.0
            return out
        if self.kind == "norm_capped":
            cap = self.param[0]
            return np.array([min(c.field.sup_norm, cap) for c in spec.classes])
        raise ConfigError(f"unknown test function kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "ones":
            return "h=1"
        if self.kind == "indicator":
            return f"h=1_class{self.param[0]}"
        return f"h=min(norm,{self.param[0]:g})"


@dataclass(frozen=True)
class EvaluationLattice:
    """Admissible (gamma, t) test points; gammas must sit on the flow grid."""

    gammas: tuple
    times: tuple

    @staticmethod
    def regular(horizon: float) -> "EvaluationLattice":
        """Initial points z = 0, 0.1, ..., 1, boundary points at tenths of
        the horizon and 21 equally spaced times."""
        gammas = [initial(j / 10) for j in range(11)]
        gammas += [boundary(l * horizon / 10) for l in range(1, 11)]
        times = tuple(k * horizon / 20 for k in range(21))
        return EvaluationLattice(gammas=tuple(gammas), times=times)

    def pairs(self):
        for g in self.gammas:
            for t in self.times:
                if t >= g.t0 - 1e-12:
                    yield g, t


def _slot_threshold(y: float, n: int) -> int:
    """Smallest slot with i/N >= y; robust to float dust on y*N."""
    return max(0, int(math.ceil(y * n - 1e-9)))


@dataclass(frozen=True)
class SupDistance:
    value: float
    argmax_gamma: str
    argmax_t: float


@dataclass(frozen=True)
class LatticeCounts:
    """One log's counts at every pair of a lattice, in ``pairs()`` order.

    alive[p, k] counts the downstream class-k particles with no jump in
    (t0, t], and jumped[p] the downstream particles that jumped.
    """

    pairs: list
    n: int
    alive: np.ndarray
    jumped: np.ndarray

    def phi(self, hv) -> np.ndarray:
        """Empirical phi(h) per pair, for h given per class."""
        return self.alive @ np.asarray(hv, dtype=float) / self.n

    def curve(self) -> np.ndarray:
        """Empirical characteristic curve Y_C(gamma, t) per pair."""
        return np.array([g.y0 for g, _ in self.pairs]) + self.jumped / self.n

    def sup(self, gap) -> SupDistance:
        """Largest |gap| over the pairs, at its first argmax."""
        gap = np.abs(gap)
        p = int(np.argmax(gap))
        g, t = self.pairs[p]
        return SupDistance(float(gap[p]), str(g), t)


class LogEvaluator:
    """Counting queries on one event log, through links that give every
    event the index of its particle's previous event (-1 for none) and
    next event (n_events for none)."""

    def __init__(self, log: EventLog):
        self.log = log
        self.n = log.n
        self.spec = log.assignment.spec
        self.slots0 = log.assignment.slots
        self.classes = log.assignment.class_index
        order = _stable_argsort(log.particles, self.n)
        same = np.flatnonzero(log.particles[order[1:]] == log.particles[order[:-1]])
        self.prev_event = np.full(log.n_events, -1)
        self.next_event = np.full(log.n_events, log.n_events)
        self.prev_event[order[same + 1]] = order[same]
        self.next_event[order[same]] = order[same + 1]

    def _counts(self, gamma: BoundaryPoint, ts):
        """The one counting routine behind every curve and phi query.

        For each t in ``ts`` (all t >= t0) it returns alive[j, k], the
        downstream class-k particles with no jump in (t0, t], and
        jumped[j], the downstream particles with one.  A particle's first
        event after t0 is the one whose previous event is at or before t0.
        """
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < gamma.t0 - 1e-12):
            raise DomainError(f"(gamma={gamma}, t={ts.min()}) not admissible")
        times, particles = self.log.times, self.log.particles
        start = int(np.searchsorted(times, gamma.t0, side="right"))
        first = start + np.flatnonzero(self.prev_event[start:] < start)
        # gamma is initial (t0 = 0) or boundary (y0 = 0, every particle)
        down = self.slots0 >= _slot_threshold(gamma.y0, self.n)
        first = first[down[particles[first]]]
        first_class = self.classes[particles[first]]
        n_down = np.bincount(self.classes[down], minlength=self.spec.n_classes)
        upto = np.searchsorted(times, ts, side="right")
        alive = np.empty((len(ts), self.spec.n_classes), dtype=np.int64)
        jumped = np.zeros(len(ts), dtype=np.int64)
        for k in range(self.spec.n_classes):
            gone = np.searchsorted(first[first_class == k], upto)
            alive[:, k] = n_down[k] - gone
            jumped += gone
        return alive, jumped

    def lattice_counts(self, lattice: EvaluationLattice) -> LatticeCounts:
        """``_counts`` at every lattice pair, one call per gamma."""
        pairs = list(lattice.pairs())
        parts = [self._counts(g, [t for _, t in group])
                 for g, group in itertools.groupby(pairs, key=lambda p: p[0])]
        return LatticeCounts(pairs=pairs, n=self.n,
                             alive=np.concatenate([a for a, _ in parts]),
                             jumped=np.concatenate([j for _, j in parts]))

    # -- point queries -------------------------------------------------------

    def phi(self, h, gamma: BoundaryPoint, t: float) -> float:
        alive = self._counts(gamma, [t])[0][0]
        return float(alive @ _h_vector(h, self.spec)) / self.n

    # -- positions -------------------------------------------------------------

    def _ranks_at(self, t: float) -> np.ndarray:
        """Slot of every particle at t: Y_i(t) = Y_C(gamma_i(t), t) * N, by
        ``srp._reset_ranks`` from the initial slots.  The movers are the
        particles with an event at or before t, most recent last event
        first, read in event order, so exact time ties need no care.
        """
        idx = int(np.searchsorted(self.log.times, t, side="right"))
        last = np.flatnonzero(self.next_event[:idx] >= idx)
        return _reset_ranks(self.slots0, self.log.particles[last[::-1]])

    def _tail_counts(self, t: float, cuts) -> np.ndarray:
        """tail[q, k]: the class-k particles at slot ``cuts[q]`` or later at
        t, from one ``_ranks_at(t)``."""
        slot_class = np.empty(self.n, dtype=np.int64)
        slot_class[self._ranks_at(t)] = self.classes
        tail = np.empty((len(cuts), self.spec.n_classes), dtype=np.int64)
        for k in range(self.spec.n_classes):
            slots = np.flatnonzero(slot_class == k)
            tail[:, k] = len(slots) - np.searchsorted(slots, cuts)
        return tail

    def positions_at(self, t: float) -> np.ndarray:
        """Positions at t, right-continuous, in any order of queries."""
        return self._ranks_at(t) / self.n

    def positions_of(self, particles, ts) -> np.ndarray:
        """``positions_at(t)[particles]`` for every t in ts, in one query.

        Each (particle, t) pair is a rejected candidate placed after the
        events at or before t, so one move-to-front rank pass over the log
        reads all of them.  Returns shape (len(ts), len(particles)).
        """
        particles = np.asarray(particles, dtype=np.int64)
        after = np.searchsorted(self.log.times, np.asarray(ts, dtype=float),
                                side="right")
        n_ev = self.log.n_events
        # event k sorts at 2k + 1, a query after x events at 2x
        keys = np.concatenate((2 * np.arange(n_ev) + 1,
                               np.repeat(2 * after, len(particles))))
        order = _stable_argsort(keys, 2 * n_ev + 1)
        ids = np.concatenate((self.log.particles,
                              np.tile(particles, len(after))))[order]
        ranks = np.empty(len(keys), dtype=np.int64)
        ranks[order] = _mtf_ranks(self.slots0, ids, order < n_ev)
        return ranks[n_ev:].reshape(len(after), len(particles)) / self.n

    def mu(self, h, y: float, t: float) -> float:
        """Integral of h over the empirical measure on W x [y, 1] at t."""
        if not -1e-12 <= y <= 1 + 1e-12:
            raise DomainError(f"y={y} outside [0,1]")
        if not -1e-12 <= t <= self.log.horizon + 1e-9:
            raise DomainError(f"t={t} outside [0,{self.log.horizon}]")
        tail = self._tail_counts(t, [_slot_threshold(y, self.n)])[0]
        return float(tail @ _h_vector(h, self.spec)) / self.n

    # -- exact identities ------------------------------------------------------

    def identity_gap(self, lattice: EvaluationLattice) -> int:
        """Worst gap between the counting and the position routes to alive.

        The particles above threshold(y0) at t0 that do not jump by t stay
        behind every particle that does or that started below it, so at t
        they hold exactly the slots from threshold(y0) + jumped on.  Zero
        means the class counts of those slots, read from one ``_tail_counts``
        per lattice time, equal ``_counts``' alive at every admissible
        lattice point; alive and jumped then split the floor(N(1-y0))
        downstream particles exactly.
        """
        counts = self.lattice_counts(lattice)
        pair_t = np.array([t for _, t in counts.pairs])
        cut = counts.jumped + [_slot_threshold(g.y0, self.n) for g, _ in counts.pairs]
        # more jumpers than downstream particles is a gap of the excess
        worst = max(0, int(np.max(cut)) - self.n)
        for t in sorted(set(pair_t.tolist())):
            at = pair_t == t
            gap = self._tail_counts(t, cut[at]) - counts.alive[at]
            worst = max(worst, int(np.max(np.abs(gap))))
        return worst

    def flow_identity_gap(self, check_times=None) -> int:
        """Worst slot gap in Y_i(t) = Y_C(gamma_i(t), t) over particles/times.

        One RankIndex walks the log's moves to the front.  Before each move
        the mover's rank must equal the pre-jump rank the log records,
        rint(pre_position * N); at each check time and at the horizon every
        rank must equal ``_ranks_at``.
        """
        log = self.log
        pre = np.rint(log.pre_positions * self.n).astype(np.int64).tolist()
        times = {log.horizon}
        if check_times is not None:
            times.update(float(t) for t in check_times)
        index = RankIndex(self.slots0)
        done = worst = 0
        for t in sorted(times):
            upto = int(np.searchsorted(log.times, t, side="right"))
            for i, r in zip(log.particles[done:upto].tolist(), pre[done:upto]):
                worst = max(worst, abs(index.rank(i) - r))
                index.move_to_front(i)
            done = upto
            gap = np.abs(index.ranks() - self._ranks_at(t))
            worst = max(worst, int(np.max(gap)))
        return worst


def limit_values(lattice: EvaluationLattice, sol=None, hs=(), flow=None):
    """Limit-side values at the lattice pairs, one point query per pair.

    Returns (phi, theta): phi[r] holds sol.phi(hs[r], gamma, t) for a
    LimitSolution or PhiEvaluator ``sol``, and theta holds flow.theta, or
    is None without a flow.
    """
    pairs = list(lattice.pairs())
    phi = np.array([[sol.phi(h, g, t) for g, t in pairs] for h in hs])
    theta = None if flow is None else np.array([flow.theta(g, t) for g, t in pairs])
    return phi.reshape(len(hs), len(pairs)), theta


def sup_distance(log: EventLog, sol, h,
                 lattice: EvaluationLattice) -> SupDistance:
    """Lattice sup of |phi^N(h) - phi_limit(h)| with its argmax.

    ``sol`` is a LimitSolution or, for flow-driven logs compared against an
    arbitrary flow, a PhiEvaluator.  Off-lattice error is bounded by
    adjacent lattice differences because both sides are monotone in t and
    in gamma.
    """
    spec = log.assignment.spec
    if spec.fingerprint() != sol.spec.fingerprint():
        raise ConfigError("log and limit solution come from different specs")
    counts = LogEvaluator(log).lattice_counts(lattice)
    limit, _ = limit_values(lattice, sol, [h])
    return counts.sup(counts.phi(_h_vector(h, spec)) - limit[0])
