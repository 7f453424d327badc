"""Offline evaluation of empirical objects from event logs.

Everything here is a pure function of an EventLog: the empirical
characteristic curves, the spatial distribution functions, empirical-measure
queries, and sup-distances to limit objects.  One counting routine,
``LogEvaluator.lattice_counts``, serves every curve and distribution-function
query: at each (gamma, t) pair of a lattice it counts, per class, the
downstream particles with no jump in (t0, t] and those that jumped.  It reads
the whole lattice from one pass over the log's events.  With G the sorted
times of the lattice (every t0 and t), an event at tau whose particle's
previous event is at p (-inf for none) is that particle's first jump after
t0 = G[j] exactly when p <= t0 < tau, and it has happened by t = G[m] when
tau <= t.  With a and b the numbers of grid times below p and below tau,
that is a <= j < b <= m, so prefix sums of an (a, b, class) histogram count
every boundary gamma, and prefix sums of a (b, slot cut, class) histogram
of the first jumps after 0 count every initial one.  Positions come from
the reset-point identity Y_i(t) = Y_C(gamma_i(t), t), ``srp._reset_ranks``,
read in event order, and ``flow_identity_gap`` checks them against a
move-to-front walk at zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .flow import BoundaryPoint, _admissible, _h_vector, boundary, initial
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

    def __post_init__(self):
        for k, t in enumerate(self.times):
            # the tolerance of pairs(); written so that NaN fails it
            if not -1e-12 <= t < math.inf:
                raise ConfigError(f"times[{k}]: must be finite and >= 0, got {t}")

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

    @cached_property
    def _index(self) -> "_PairIndex":
        return _PairIndex(list(self.pairs()))


class _PairIndex:
    """What the pair counter needs of a lattice, built once per lattice.

    Per pair, in ``pairs()`` order: y0, t0 and t, and t0 and t as indices j
    and m into ``grid``, the sorted distinct values of every t0 and t.
    ``m_clamped`` is max(m, j), so that a t up to 1e-12 below t0 counts no
    jump; ``initial`` selects the initial gammas, whose t0 = 0 is
    ``grid[j0]``.
    """

    def __init__(self, pairs):
        self.pairs = pairs
        self.initial = np.array([g.kind == "initial" for g, _ in pairs], dtype=bool)
        self.y0 = np.array([g.y0 for g, _ in pairs], dtype=float)
        self.t0 = np.array([g.t0 for g, _ in pairs], dtype=float)
        self.t = np.array([t for _, t in pairs], dtype=float)
        self.grid = np.unique(np.concatenate((self.t0, self.t)))
        self.j = np.searchsorted(self.grid, self.t0)
        self.m = np.searchsorted(self.grid, self.t)
        self.m_clamped = np.maximum(self.m, self.j)
        self.j0 = int(np.searchsorted(self.grid, 0.0))


def _slot_threshold(y, n: int):
    """Smallest slot with i/N >= y, per entry of y; robust to float dust on
    y*N."""
    return np.maximum(0, np.ceil(np.asarray(y, dtype=float) * n - 1e-9)
                      .astype(np.int64))


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

    index: _PairIndex
    n: int
    alive: np.ndarray
    jumped: np.ndarray

    def phi(self, hv) -> np.ndarray:
        """Empirical phi(h) per pair, for h given per class."""
        return self.alive @ np.asarray(hv, dtype=float) / self.n

    def curve(self) -> np.ndarray:
        """Empirical characteristic curve Y_C(gamma, t) per pair."""
        return self.index.y0 + self.jumped / self.n

    def sup(self, gap) -> SupDistance:
        """Largest |gap| over the pairs, at its first argmax."""
        gap = np.abs(gap)
        p = int(np.argmax(gap))
        g, t = self.index.pairs[p]
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

    def lattice_counts(self, lattice: EvaluationLattice) -> LatticeCounts:
        """The one counting routine behind every curve and phi query.

        At every lattice pair it returns alive[p, k], the downstream
        class-k particles with no jump in (t0, t], and jumped[p], the
        downstream particles with one, from one pass over the events.  b
        counts the lattice grid times below each event, and an event's a
        is its particle's previous event's b (0 for none), so the event is
        its particle's first jump after t0 = G[j], and has happened by
        t = G[m], exactly when a <= j < b <= m.  A boundary gamma (y0 = 0)
        counts every particle: with c the (a, b, class) histogram summed
        over a <= j and b <= m, its jumps are c[j, m] - c[j, j].  An
        initial gamma (t0 = 0 = G[j0]) counts the particles at or after its
        slot cut: the (b, slot bin, class) histogram of the events with
        a <= j0 < b, summed over b <= m and over the bins at or after the
        cut's.  A particle's slot bin is the number of the lattice's
        distinct cuts at or below its initial slot.
        """
        if max(lattice.times, default=0.0) > self.log.horizon + 1e-9:
            raise DomainError(f"lattice time {max(lattice.times)} past the "
                              f"log's horizon {self.log.horizon}")
        ix = lattice._index
        K = self.spec.n_classes
        size = len(ix.grid) + 1
        particles = self.log.particles
        b = np.searchsorted(ix.grid, self.log.times)
        a = np.append(b, 0)[self.prev_event]  # a prev_event of -1 reads the 0
        cls = self.classes[particles]
        c = np.bincount((a * size + b) * K + cls, minlength=size * size * K)
        c = c.reshape(size, size, K).cumsum(0).cumsum(1)
        cuts, col = np.unique(_slot_threshold(ix.y0, self.n), return_inverse=True)
        bins = np.searchsorted(cuts, self.slots0, side="right")
        n_bins = len(cuts) + 1
        first = np.flatnonzero((a <= ix.j0) & (ix.j0 < b))
        f = np.bincount((b[first] * n_bins + bins[particles[first]]) * K + cls[first],
                        minlength=size * n_bins * K)
        f = f.reshape(size, n_bins, K)[:, ::-1].cumsum(1)[:, ::-1].cumsum(0)
        # a boundary gamma's cut is slot 0, so its down[col + 1] is every particle
        down = np.bincount(bins * K + self.classes, minlength=n_bins * K)
        down = down.reshape(n_bins, K)[::-1].cumsum(0)[::-1]
        gone = np.where(ix.initial[:, None], f[ix.m, col + 1],
                        c[ix.j, ix.m_clamped] - c[ix.j, ix.j])
        return LatticeCounts(index=ix, n=self.n, alive=down[col + 1] - gone,
                             jumped=gone.sum(axis=1))

    # -- point queries -------------------------------------------------------

    def _point_counts(self, gamma: BoundaryPoint, t: float) -> LatticeCounts:
        """``lattice_counts`` at the one pair (gamma, t), if admissible."""
        _admissible(gamma.y0, gamma.t0, t, self.log.horizon)
        return self.lattice_counts(EvaluationLattice(gammas=(gamma,), times=(t,)))

    def phi(self, h, gamma: BoundaryPoint, t: float) -> float:
        alive = self._point_counts(gamma, t).alive[0]
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
        per lattice time, equal ``lattice_counts``' alive at every
        admissible lattice point; alive and jumped then split the
        floor(N(1-y0)) downstream particles exactly.
        """
        counts = self.lattice_counts(lattice)
        pair_t = lattice._index.t
        cut = counts.jumped + _slot_threshold(lattice._index.y0, self.n)
        # more jumpers than downstream particles is a gap of the excess
        worst = max(0, int(np.max(cut)) - self.n)
        for t in np.unique(pair_t).tolist():
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
    """Limit-side values at the lattice pairs, each kind from one read.

    Returns (phi, theta): phi[r] holds phi(hs[r], gamma, t) at every pair
    for a LimitSolution or PhiEvaluator ``sol``, and theta holds
    flow.theta at every pair, or is None without a flow.
    """
    ix = lattice._index
    phi = np.empty((0, len(ix.pairs)))
    if len(hs):
        ev = getattr(sol, "evaluator", sol)
        phi = ev._phis(np.array([_h_vector(h, ev.spec) for h in hs]),
                       ix.initial, ix.y0, ix.t0, ix.t)
    theta = None if flow is None else flow._thetas(ix.y0, ix.t0, ix.t)
    return phi, theta


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
