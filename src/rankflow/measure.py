"""Offline evaluation of empirical objects from event logs.

Everything here is a pure function of an EventLog: the empirical
characteristic curves, the spatial distribution functions, empirical-measure
queries, and sup-distances to limit objects.  One counting routine serves
every curve and distribution-function query: for a reset point gamma and
times t >= t0 it counts, per class, the downstream particles with no jump in
(t0, t] and those that jumped.  Positions come from the reset-point identity
Y_i(t) = Y_C(gamma_i(t), t) read in event order, and ``flow_identity_gap``
checks them against a move-to-front replay at zero tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .flow import BoundaryPoint, FlowGrid, _h_vector, boundary, initial
from .intensity import PopulationSpec
from .srp import EventLog, RankIndex


@dataclass(frozen=True)
class TestFunction:
    """Bounded weight h(w) applied per class.

    kinds: "ones" (h = 1), "indicator" (one class), "norm_capped"
    (h = min(||w||, cap)), "tabulated" (explicit value per class).
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

    @staticmethod
    def tabulated(values) -> "TestFunction":
        return TestFunction("tabulated", tuple(float(v) for v in values))

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
        if self.kind == "tabulated":
            if len(self.param) != K:
                raise ConfigError(
                    f"tabulated h has {len(self.param)} values for {K} classes")
            return np.asarray(self.param)
        raise ConfigError(f"unknown test function kind {self.kind!r}")

    def bound(self, spec: PopulationSpec) -> float:
        return float(np.max(np.abs(self.per_class(spec))))

    def label(self) -> str:
        if self.kind == "ones":
            return "h=1"
        if self.kind == "indicator":
            return f"h=1_class{self.param[0]}"
        if self.kind == "norm_capped":
            return f"h=min(norm,{self.param[0]:g})"
        return "h=tab"


@dataclass(frozen=True)
class EvaluationLattice:
    """Admissible (gamma, t) test points; gammas must sit on the flow grid."""

    gammas: tuple
    times: tuple

    @staticmethod
    def regular(horizon: float, n_gamma_initial: int = 11,
                n_gamma_boundary: int = 10, n_times: int = 21
                ) -> "EvaluationLattice":
        gammas = [initial(j / (n_gamma_initial - 1))
                  for j in range(n_gamma_initial)]
        gammas += [boundary(l * horizon / n_gamma_boundary)
                   for l in range(1, n_gamma_boundary + 1)]
        times = tuple(k * horizon / (n_times - 1) for k in range(n_times))
        return EvaluationLattice(gammas=tuple(gammas), times=times)

    def pairs(self):
        for g in self.gammas:
            for t in self.times:
                if t >= g.t0 - 1e-12:
                    yield g, t

    def n_pairs(self) -> int:
        return sum(1 for _ in self.pairs())


def _slot_threshold(y: float, n: int) -> int:
    """Smallest slot with i/N >= y; robust to float dust on y*N."""
    return max(0, int(math.ceil(y * n - 1e-9)))


def floor_tail_count(y0: float, n: int) -> int:
    """floor(N (1 - y0)) = number of slots at or above y0."""
    return n - _slot_threshold(y0, n)


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
    """Counting queries on one event log; it keeps no replay state."""

    def __init__(self, log: EventLog):
        self.log = log
        self.n = log.n
        self.spec = log.assignment.spec
        self.slots0 = log.assignment.slots
        self.classes = log.assignment.class_index

    def _downstream_mask(self, gamma: BoundaryPoint) -> np.ndarray:
        """Particles with Y_j(t0) >= y0.

        Non-random for gamma in the initial/boundary set; interior points
        (y0 > 0 with t0 > 0) are reached through ``interior_mask``.
        """
        if gamma.kind == "boundary":
            return np.ones(self.n, dtype=bool)
        if gamma.t0 == 0.0:
            return self.slots0 >= _slot_threshold(gamma.coord, self.n)
        raise DomainError(f"unreachable gamma {gamma}")

    def _counts(self, gamma: BoundaryPoint, ts):
        """The one counting routine behind every curve and phi query.

        For each t in ``ts`` (all t >= t0) it returns alive[j, k], the
        downstream class-k particles with no jump in (t0, t], and
        jumped[j], the downstream particles with one.  A particle has
        jumped by t when its first event after t0 is at or before t.
        """
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < gamma.t0 - 1e-12):
            raise DomainError(f"(gamma={gamma}, t={ts.min()}) not admissible")
        down = self._downstream_mask(gamma)
        start = int(np.searchsorted(self.log.times, gamma.t0, side="right"))
        movers, first = np.unique(self.log.particles[start:], return_index=True)
        first_jump = np.full(self.n, np.inf)
        first_jump[movers] = self.log.times[start + first]
        alive = np.empty((len(ts), self.spec.n_classes), dtype=np.int64)
        jumped = np.zeros(len(ts), dtype=np.int64)
        for k in range(self.spec.n_classes):
            f = np.sort(first_jump[down & (self.classes == k)])
            gone = np.searchsorted(f, ts, side="right")
            alive[:, k] = len(f) - gone
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

    def char_count(self, gamma: BoundaryPoint, t: float) -> int:
        """Distinct downstream particles that jumped in (t0, t]."""
        return int(self._counts(gamma, [t])[1][0])

    def char_curve(self, gamma: BoundaryPoint, t: float) -> float:
        return gamma.y0 + self.char_count(gamma, t) / self.n

    def survivor_count(self, gamma: BoundaryPoint, t: float) -> int:
        """Downstream particles with no jump in (t0, t]."""
        return int(self._counts(gamma, [t])[0].sum())

    def phi(self, h, gamma: BoundaryPoint, t: float) -> float:
        alive = self._counts(gamma, [t])[0][0]
        return float(alive @ _h_vector(h, self.spec)) / self.n

    # -- positions -------------------------------------------------------------

    def _ranks_at(self, t: float) -> np.ndarray:
        """Slot of every particle at t: Y_i(t) = Y_C(gamma_i(t), t) * N.

        Read in event order, so exact time ties need no care: a particle
        that has jumped sits at the number of particles whose last event is
        later than its own; one that has not sits at its initial slot plus
        the number of jumped particles that started in larger slots.
        """
        idx = int(np.searchsorted(self.log.times, t, side="right"))
        latest_first = self.log.particles[:idx][::-1]
        _, last = np.unique(latest_first, return_index=True)
        jumped = latest_first[np.sort(last)]  # most recent last event first
        moved = np.zeros(self.n, dtype=np.int64)
        moved[self.slots0[jumped]] = 1
        ranks = self.slots0 + (len(jumped) - np.cumsum(moved)[self.slots0])
        ranks[jumped] = np.arange(len(jumped))
        return ranks

    def positions_at(self, t: float) -> np.ndarray:
        """Positions at t, right-continuous, in any order of queries."""
        return self._ranks_at(t) / self.n

    def interior_mask(self, y0: float, t0: float) -> np.ndarray:
        return self._ranks_at(t0) >= _slot_threshold(y0, self.n)

    def mu(self, h, y: float, t: float) -> float:
        """Integral of h over the empirical measure on W x [y, 1] at t."""
        if not -1e-12 <= y <= 1 + 1e-12:
            raise DomainError(f"y={y} outside [0,1]")
        if not -1e-12 <= t <= self.log.horizon + 1e-9:
            raise DomainError(f"t={t} outside [0,{self.log.horizon}]")
        on = self.interior_mask(y, t)
        per_class = np.bincount(self.classes[on], minlength=self.spec.n_classes)
        return float(per_class @ _h_vector(h, self.spec)) / self.n

    # -- exact identities ------------------------------------------------------

    def identity_gap(self, lattice: EvaluationLattice) -> int:
        """Worst integer violation of curve + survivors = floor tail.

        Zero means the combinatorial identity
        Y_C = y0 + floor(N(1-y0))/N - phi(W) holds exactly at every
        admissible lattice point: the survivors and the jumpers split a
        downstream set of exactly floor(N(1-y0)) particles.
        """
        counts = self.lattice_counts(lattice)
        tails = [floor_tail_count(g.y0, self.n) for g, _ in counts.pairs]
        return int(np.max(np.abs(
            counts.jumped + counts.alive.sum(axis=1) - tails)))

    def flow_identity_gap(self, check_times=None) -> int:
        """Worst slot gap in Y_i(t) = Y_C(gamma_i(t), t) over particles/times.

        The right side is ``positions_at``; the left side is one RankIndex
        walked through the log's moves to the front.  Event times
        themselves are always included as check times.
        """
        times = set(self.log.times.tolist())
        if check_times is not None:
            times.update(float(t) for t in check_times)
        index = RankIndex(self.slots0)
        done = 0
        worst = 0
        for t in sorted(times):
            upto = int(np.searchsorted(self.log.times, t, side="right"))
            for i in self.log.particles[done:upto].tolist():
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
    spec_hash = sol.spec_hash if hasattr(sol, "spec_hash") else \
        sol.spec.fingerprint()
    if spec.fingerprint() != spec_hash:
        raise ConfigError("log and limit solution come from different specs")
    counts = LogEvaluator(log).lattice_counts(lattice)
    limit, _ = limit_values(lattice, sol, [h])
    return counts.sup(counts.phi(_h_vector(h, spec)) - limit[0])


def char_sup_distance(log: EventLog, flow: FlowGrid,
                      lattice: EvaluationLattice) -> SupDistance:
    """Lattice sup of |Y^N_C(gamma, t) - theta(gamma, t)|."""
    counts = LogEvaluator(log).lattice_counts(lattice)
    _, theta = limit_values(lattice, flow=flow)
    return counts.sup(counts.curve() - theta)
