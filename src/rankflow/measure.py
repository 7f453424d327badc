"""Offline evaluation of empirical objects from event logs.

Everything here is a pure function of an EventLog: the empirical
characteristic curves, the spatial distribution functions, empirical-measure
queries, and sup-distances to limit objects.  The curve and the distribution
function are computed by two separate counting paths, so their combinatorial
identity (curve = y0 + floor(N(1-y0))/N - phi) is a genuine cross-check and
is asserted at integer resolution, with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .flow import BoundaryPoint, FlowGrid, LimitSolution, initial, boundary
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


class LogEvaluator:
    """Cached per-log machinery behind the measure operations."""

    def __init__(self, log: EventLog):
        self.log = log
        self.n = log.n
        self.spec = log.assignment.spec
        self.slots0 = log.assignment.slots
        self.classes = log.assignment.class_index
        self._count_cache: dict = {}
        # replay state for position reconstruction
        self._replay_index = RankIndex(self.slots0)
        self._replay_pos = 0

    # -- jump counting -----------------------------------------------------

    def counts_at(self, t: float) -> np.ndarray:
        """Per-particle number of jumps in (0, t]."""
        key = float(t)
        hit = self._count_cache.get(key)
        if hit is not None:
            return hit
        idx = int(np.searchsorted(self.log.times, t, side="right"))
        counts = np.bincount(self.log.particles[:idx], minlength=self.n)
        self._count_cache[key] = counts
        return counts

    def jumped_in(self, t0: float, t: float) -> np.ndarray:
        return self.counts_at(t) > self.counts_at(t0)

    def last_resets(self, t: float) -> np.ndarray:
        """Per-particle last jump time <= t, or -1 if none."""
        counts = self.counts_at(t)
        order = np.argsort(self.log.particles, kind="stable")
        seg_start = np.searchsorted(self.log.particles[order],
                                    np.arange(self.n))
        out = np.full(self.n, -1.0)
        has = counts > 0
        idx = seg_start[has] + counts[has] - 1
        out[has] = self.log.times[order][idx]
        return out

    # -- masks ---------------------------------------------------------------

    def _downstream_mask(self, gamma: BoundaryPoint, t: float) -> np.ndarray:
        """Particles with Y_j(t0) >= y0.

        Non-random for gamma in the initial/boundary set; interior points
        (y0 > 0 with t0 > 0) replay positions at t0.
        """
        if t < gamma.t0 - 1e-12:
            raise DomainError(f"(gamma={gamma}, t={t}) not admissible")
        if gamma.kind == "boundary":
            return np.ones(self.n, dtype=bool)
        if gamma.t0 == 0.0:
            return self.slots0 >= _slot_threshold(gamma.coord, self.n)
        raise DomainError(f"unreachable gamma {gamma}")

    def interior_mask(self, y0: float, t0: float) -> np.ndarray:
        slots = np.rint(self.positions_at(t0) * self.n).astype(np.int64)
        return slots >= _slot_threshold(y0, self.n)

    # -- core operations -----------------------------------------------------

    def char_count(self, gamma: BoundaryPoint, t: float) -> int:
        """Distinct downstream particles that jumped in (t0, t]."""
        mask = self._downstream_mask(gamma, t)
        return int(np.sum(mask & self.jumped_in(gamma.t0, t)))

    def char_curve(self, gamma: BoundaryPoint, t: float) -> float:
        return gamma.y0 + self.char_count(gamma, t) / self.n

    def survivor_count(self, gamma: BoundaryPoint, t: float,
                       h_particle: np.ndarray | None = None):
        mask = self._downstream_mask(gamma, t)
        alive = mask & ~self.jumped_in(gamma.t0, t)
        if h_particle is None:
            return int(np.sum(alive))
        return float(np.dot(alive.astype(float), h_particle))

    def h_per_particle(self, h) -> np.ndarray:
        if hasattr(h, "per_class"):
            h = h.per_class(self.spec)
        h = np.asarray(h, dtype=float)
        return h[self.classes]

    def phi(self, h, gamma: BoundaryPoint, t: float) -> float:
        return self.survivor_count(gamma, t, self.h_per_particle(h)) / self.n

    def positions_at(self, t: float) -> np.ndarray:
        """Replay the move-to-front dynamics up to t (right-continuous)."""
        idx = int(np.searchsorted(self.log.times, t, side="right"))
        if idx < self._replay_pos:
            self._replay_index = RankIndex(self.slots0)
            self._replay_pos = 0
        for e in range(self._replay_pos, idx):
            self._replay_index.move_to_front(int(self.log.particles[e]))
        self._replay_pos = idx
        return self._replay_index.ranks() / self.n

    def mu(self, h, y: float, t: float) -> float:
        """Integral of h over the empirical measure on W x [y, 1] at t."""
        if not -1e-12 <= y <= 1 + 1e-12:
            raise DomainError(f"y={y} outside [0,1]")
        if not -1e-12 <= t <= self.log.horizon + 1e-9:
            raise DomainError(f"t={t} outside [0,{self.log.horizon}]")
        hp = self.h_per_particle(h)
        if y <= 0:
            return float(hp.sum()) / self.n  # marginal: time independent
        slots = np.rint(self.positions_at(t) * self.n).astype(np.int64)
        mask = slots >= _slot_threshold(y, self.n)
        return float(np.dot(mask.astype(float), hp)) / self.n

    # -- exact identities ------------------------------------------------------

    def identity_gap(self, lattice: EvaluationLattice) -> int:
        """Worst integer violation of curve + survivors = floor tail.

        Zero means the combinatorial identity
        Y_C = y0 + floor(N(1-y0))/N - phi(W) holds exactly at every
        admissible lattice point.
        """
        worst = 0
        for g, t in lattice.pairs():
            jumped = self.char_count(g, t)
            alive = self.survivor_count(g, t)
            tail = floor_tail_count(g.y0, self.n)
            worst = max(worst, abs(jumped + alive - tail))
        return worst

    def flow_identity_gap(self, check_times=None) -> int:
        """Worst slot gap in Y_i(t) = Y_C(gamma_i(t), t) over particles/times.

        gamma_i is the particle's last reset point read off the log; the
        left side is replayed, the right side counted independently.  Event
        times themselves are always included as check times.
        """
        times = set(float(t) for t in self.log.times)
        if check_times is not None:
            times.update(float(t) for t in check_times)
        worst = 0
        inits_sorted = np.sort(self.slots0)
        for t in sorted(times):
            ranks = np.rint(self.positions_at(t) * self.n).astype(np.int64)
            last = self.last_resets(t)
            jumped = self.jumped_in(0.0, t)
            # initial-curve particles: count downstream jumpers by slot
            suffix = np.zeros(self.n + 1, dtype=np.int64)
            by_slot = np.zeros(self.n, dtype=np.int64)
            by_slot[self.slots0[jumped]] = 1
            suffix[:-1] = np.cumsum(by_slot[::-1])[::-1]
            fresh = last < 0
            pred_fresh = self.slots0[fresh] + suffix[self.slots0[fresh]]
            if np.any(fresh):
                worst = max(worst, int(np.max(np.abs(ranks[fresh] - pred_fresh))))
            reset = ~fresh
            if np.any(reset):
                srt = np.sort(last)
                pred = self.n - np.searchsorted(srt, last[reset], side="right")
                worst = max(worst, int(np.max(np.abs(ranks[reset] - pred))))
        return worst


@dataclass(frozen=True)
class SupDistance:
    value: float
    argmax_gamma: str
    argmax_t: float


def _limit_values(sol_phi, h, lattice) -> dict:
    vals = {}
    for g, t in lattice.pairs():
        vals[(g, t)] = sol_phi(h, g, t)
    return vals


def sup_distance(log: EventLog, sol, h,
                 lattice: EvaluationLattice) -> SupDistance:
    """Lattice sup of |phi^N(h) - phi_limit(h)| with its argmax.

    ``sol`` is a LimitSolution or, for flow-driven logs compared against an
    arbitrary flow, a PhiEvaluator.  Off-lattice error is bounded by
    adjacent lattice differences because both sides are monotone in t and
    in gamma.
    """
    spec_hash = sol.spec_hash if hasattr(sol, "spec_hash") else \
        sol.spec.fingerprint()
    if log.assignment.spec.fingerprint() != spec_hash:
        raise ConfigError("log and limit solution come from different specs")
    ev = LogEvaluator(log)
    limit = _limit_values(sol.phi, h, lattice)
    best = SupDistance(-1.0, "", 0.0)
    for g, t in lattice.pairs():
        d = abs(ev.phi(h, g, t) - limit[(g, t)])
        if d > best.value:
            best = SupDistance(d, str(g), t)
    return best


def char_sup_distance(log: EventLog, flow: FlowGrid,
                      lattice: EvaluationLattice) -> SupDistance:
    """Lattice sup of |Y^N_C(gamma, t) - theta(gamma, t)|."""
    ev = LogEvaluator(log)
    best = SupDistance(-1.0, "", 0.0)
    for g, t in lattice.pairs():
        d = abs(ev.char_curve(g, t) - flow.theta(g, t))
        if d > best.value:
            best = SupDistance(d, str(g), t)
    return best
