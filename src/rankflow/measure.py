"""Offline evaluation of empirical objects from event logs.

Everything here is a pure function of an EventLog, or of the logs of one
batch of runs of an assignment, each of which it reads as if alone: the
empirical characteristic curves, the spatial distribution functions,
empirical-measure queries, and sup-distances to limit objects.  One
counting routine, ``_LogBatch.lattice_counts``, serves every curve and
distribution-function query: at each (gamma, t) pair of a lattice it
counts, per run and class, the downstream particles with no jump in
(t0, t] and those that jumped.  It reads the whole lattice for every log
of a batch from one pass over their events.  With G the sorted times of
the lattice (every t0 and t), an event at tau whose particle's previous
event is at p (-inf for none) is that particle's first jump after
t0 = G[j] exactly when p <= t0 < tau, and it has happened by t = G[m] when
tau <= t.  With a and b the numbers of grid times below p and below tau,
that is a <= j < b <= m, so prefix sums of a (run, a, b, class) histogram
count every boundary gamma, and prefix sums of a (run, b, slot cut, class)
histogram of the first jumps after 0 count every initial one.  Positions
come from the reset-point identity Y_i(t) = Y_C(gamma_i(t), t),
``srp._reset_ranks``, read in event order, and ``flow_identity_gap``
checks them against a move-to-front walk at zero tolerance; the positions
of a few particles at many times, in every log of a batch, are one
move-to-front rank count (``_LogBatch.positions_of``).  A lone log is a
batch of one (``LogEvaluator``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigError, DomainError, _array, _finite, _number,
                     _real_array, _require_int)
from .flow import (BoundaryPoint, _admissible, _boundary_point, _h_vector,
                   boundary, initial)
from .intensity import PopulationSpec
from .latp import _edges, _laid, _owners, _tiled
from .srp import EventLog, RankIndex, _by_particle, _mtf_ranks, _reset_ranks
from .streams import _stable_argsort


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
        _require_int("class_k", class_k, 0)
        return TestFunction("indicator", (int(class_k),))

    @staticmethod
    def norm_capped(cap: float) -> "TestFunction":
        return TestFunction("norm_capped", (_number("cap", cap),))

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
            # the tolerance of pairs()
            if not (_finite(t) and t >= -1e-12):
                raise ConfigError(f"times[{k}]: must be finite and >= 0, got {t}")

    @staticmethod
    def regular(horizon: float) -> "EvaluationLattice":
        """Initial points z = 0, 0.1, ..., 1, boundary points at tenths of
        the horizon and 21 equally spaced times."""
        gammas = [initial(j / 10) for j in range(11)]
        gammas += [boundary(l * horizon / 10) for l in range(1, 11)]
        times = tuple(k * horizon / 20 for k in range(21))
        return EvaluationLattice(gammas=tuple(gammas), times=times)

    @staticmethod
    def grid(flow) -> "EvaluationLattice":
        """Every node pair of ``flow``'s grid, the pairs of ``grid_vector``:
        each initial point z_j at every time node, then each boundary point
        (0, t_l), l >= 1, at the time nodes t_m, m >= l."""
        t_nodes = flow.t_nodes.tolist()
        return EvaluationLattice(
            gammas=tuple([initial(z) for z in flow.z_nodes.tolist()]
                         + [boundary(t) for t in t_nodes[1:]]),
            times=tuple(t_nodes))

    def pairs(self):
        for g in self.gammas:
            for t in self.times:
                if t >= g.t0 - 1e-12:
                    yield g, t

    @cached_property
    def _index(self) -> "_PairIndex":
        return _PairIndex(list(self.pairs()))


def _boundary_nodes(n_t: int):
    """The boundary table's nodes (l, m) with 1 <= l <= m <= n_t, row by
    row: the pairs of the grid lattice's boundary points."""
    rows, cols = np.triu_indices(n_t + 1)
    return rows[n_t + 1:], cols[n_t + 1:]


def grid_vector(flow) -> np.ndarray:
    """``flow``'s node values at the pairs of ``EvaluationLattice.grid``,
    in ``pairs()`` order: the initial table row by row, then the boundary
    table on and above its diagonal, rows 1 to n_t."""
    rows, cols = _boundary_nodes(flow.n_t)
    return np.concatenate([flow.init_values.ravel(),
                           flow.bdry_values[rows, cols]])


def grid_tables(vector, flow):
    """``grid_vector``'s inverse: the tables (init, bdry) of ``flow``'s
    shapes that hold ``vector``, the boundary table zero below its diagonal
    and its row 0, the corner, equal to the initial row of z = 0."""
    vector = np.asarray(vector, dtype=float)
    init_size = flow.init_values.size
    rows, cols = _boundary_nodes(flow.n_t)
    if vector.shape != (init_size + len(rows),):
        raise ConfigError(f"vector: must hold the {init_size + len(rows)} "
                          f"grid pairs, got shape {vector.shape}")
    init = vector[:init_size].reshape(flow.init_values.shape)
    bdry = np.zeros_like(flow.bdry_values)
    bdry[rows, cols] = vector[init_size:]
    bdry[0] = init[0]
    return init, bdry


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


def _class_tails(slots, classes, cuts, n_classes: int):
    """Per particle its key bin * K + class, and per bin the class counts
    at or after it, from one histogram: returns (keys, tails).

    ``slots`` is every particle's slot, and ``cuts`` are sorted, distinct
    and nonnegative.  A particle's bin, the number of cuts at or below its
    slot, is a cumsum of the cut marks read at the slot (a cut at or past N
    marks slot N, which no particle reads), in the smallest integer type of
    the keys, which makes the read cheap.  ``tails[j + 1, k]`` counts the
    class-k particles at slot cuts[j] or later.
    """
    n, size = len(slots), (len(cuts) + 1) * n_classes
    mark = np.zeros(n + 1, dtype=np.min_scalar_type(size))
    mark[np.minimum(cuts, n)] = n_classes
    keys = np.cumsum(mark, out=mark)[slots] + classes
    tails = np.bincount(keys, minlength=size).reshape(-1, n_classes)
    return keys, tails[::-1].cumsum(0)[::-1]


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


def _log_times(name: str, ts, horizon: float) -> np.ndarray:
    """ts, a time or an array of times, as floats if each is a number in
    [0, horizon] up to the tolerance of ``mu``; else DomainError."""
    arr = _real_array(name, ts, DomainError)
    # written so that NaN fails
    inside = (arr >= -1e-12) & (arr <= horizon + 1e-9)
    if not inside.all():
        raise DomainError(f"{name}: time {float(arr[~inside][0])} outside "
                          f"[0, {horizon}]")
    return arr


def _particle_ids(particles, n: int) -> np.ndarray:
    """particles as int64 ids if they are one list of integers in 0..n-1 (a
    bool is none); else ConfigError.  An empty list is no particle."""
    what = f"a one-dimensional list of integers in 0..{n - 1}"
    # numpy reads an empty list as floats
    arr = _array("particles", particles, "iuf", what)
    if arr.ndim != 1 or (arr.size and (arr.dtype.kind == "f" or arr.min() < 0
                                       or arr.max() >= n)):
        raise ConfigError(f"particles: must be {what}, got {particles!r}")
    return arr.astype(np.int64)


class _LogBatch:
    """The logs of one batch of runs of an assignment, as ``srp._run_seeds``
    returns them, read together.

    The logs are laid out as ``latp`` lays out a batch of runs, run s's
    particle i as the owner s * N + i (``latp._owners``).  One sort of the
    owners links every event to its particle's previous event (-1 for
    none) and next event (the batch's event count for none), and
    ``lattice_counts`` and ``positions_of`` read every run in one pass
    each.  A lone log is a batch of one (``LogEvaluator``).
    """

    def __init__(self, logs):
        log = logs[0]
        for k, other in enumerate(logs):
            if (other.assignment is not log.assignment
                    or other.horizon != log.horizon):
                raise ConfigError(f"logs[{k}]: the logs of a batch must share "
                                  f"one assignment and horizon")
        self.n = log.n
        self.horizon = log.horizon
        self.spec = log.assignment.spec
        self.slots0 = log.assignment.slots
        self.classes = log.assignment.class_index
        self.sizes = [other.n_events for other in logs]
        self.edges = _edges(self.sizes)
        self.times = _laid([other.times for other in logs])
        self.particles = _laid([other.particles for other in logs])
        self.owners = _owners(self.particles, self.n, self.sizes)
        m = len(self.owners)
        order = _stable_argsort(self.owners, len(logs) * self.n)
        same = np.flatnonzero(self.owners[order[1:]] == self.owners[order[:-1]])
        self.prev_event = np.full(m, -1)
        self.next_event = np.full(m, m)
        self.prev_event[order[same + 1]] = order[same]
        self.next_event[order[same]] = order[same + 1]

    def lattice_counts(self, lattice: EvaluationLattice) -> list:
        """Every run's ``LatticeCounts``, in run order, from one pass over
        the batch's events.

        At every lattice pair each run counts alive[p, k], its downstream
        class-k particles with no jump in (t0, t], and jumped[p], its
        downstream particles with one.  b counts the lattice grid times
        below each event, and an event's a is its particle's previous
        event's b (0 for none), so the event is its particle's first jump
        after t0 = G[j], and has happened by t = G[m], exactly when a <= j
        < b <= m.  A boundary gamma (y0 = 0) counts every particle: with c
        the (a, b, class) histogram summed over a <= j and b <= m, its
        jumps are c[j, m] - c[j, j].  An initial gamma (t0 = 0 = G[j0])
        counts the particles at or after its slot cut: the (b, slot bin,
        class) histogram of the events with a <= j0 < b, summed over b <= m
        and over the bins at or after the cut's.  A particle's slot bin is
        the number of the lattice's distinct cuts at or below its initial
        slot.  Both histograms have a leading run axis, and the counts are
        exact integers, so each run's are those of its log alone.
        """
        if max(lattice.times, default=0.0) > self.horizon + 1e-9:
            raise DomainError(f"lattice time {max(lattice.times)} past the "
                              f"log's horizon {self.horizon}")
        ix = lattice._index
        K = self.spec.n_classes
        S = len(self.sizes)
        size = len(ix.grid) + 1
        run = np.arange(S).repeat(self.sizes)
        particles = self.particles
        b = np.searchsorted(ix.grid, self.times)
        a = np.append(b, 0)[self.prev_event]  # a prev_event of -1 reads the 0
        cls = self.classes[particles]
        c = np.bincount(((run * size + a) * size + b) * K + cls,
                        minlength=S * size * size * K)
        c = c.reshape(S, size, size, K).cumsum(1).cumsum(2)
        cuts, col = np.unique(_slot_threshold(ix.y0, self.n), return_inverse=True)
        keys, down = _class_tails(self.slots0, self.classes, cuts, K)
        n_bins = len(cuts) + 1
        first = np.flatnonzero((a <= ix.j0) & (ix.j0 < b))
        f = np.bincount((run[first] * size + b[first]) * n_bins * K
                        + keys[particles[first]],
                        minlength=S * size * n_bins * K)
        f = f.reshape(S, size, n_bins, K)[:, :, ::-1].cumsum(2)[:, :, ::-1].cumsum(1)
        # a boundary gamma's cut is slot 0, so its down[col + 1] is every particle
        gone = np.where(ix.initial[:, None], f[:, ix.m, col + 1],
                        c[:, ix.j, ix.m_clamped] - c[:, ix.j, ix.j])
        alive = down[col + 1] - gone
        jumped = gone.sum(axis=2)
        return [LatticeCounts(index=ix, n=self.n, alive=alive[s],
                              jumped=jumped[s]) for s in range(S)]

    def positions_of(self, particles, ts) -> np.ndarray:
        """Every run's ``positions_at(t)[particles]`` for every t in ts, in
        one rank count: shape (runs, len(ts), len(particles)).

        Each (run, t, particle) is a rejected candidate of the run placed
        after the run's events at or before t, so one move-to-front rank
        pass (``srp._mtf_ranks``), which takes the runs as its systems and
        ranks these candidates alone, reads all of them.  The batch's
        event k sorts at 2k + 1 and a query after its first x events at
        2x.  A run's queries after all of its events tie with the next
        run's queries before any of its events, and the stable sort keeps
        them in run order, so every run's candidates stay together.
        """
        particles = _particle_ids(particles, self.n)
        ts = _log_times("ts", ts, self.horizon)
        if ts.ndim != 1:
            raise DomainError(f"ts: must be one-dimensional, got {ts.ndim} "
                              f"dimensions")
        S, E = len(self.sizes), len(self.times)
        q = len(ts) * len(particles)
        # per run and t: the events of the runs before it, and its own up to t
        after = np.concatenate([
            lo + np.searchsorted(self.times[lo:hi], ts, side="right")
            for lo, hi in zip(self.edges, self.edges[1:])])
        keys = np.concatenate((2 * np.arange(E) + 1,
                               np.repeat(2 * after, len(particles))))
        order = _stable_argsort(keys, 2 * E + 1)
        queried = _owners(np.tile(particles, S * len(ts)), self.n, [q] * S)
        ids = np.concatenate((self.owners, queried))[order]
        queries = np.flatnonzero(order >= E)
        ranks = np.empty(len(queries), dtype=np.int64)
        ranks[order[queries] - E] = _mtf_ranks(
            _tiled(self.slots0, S), ids, order < E, queries,
            _by_particle(ids, S * self.n, np.add(self.sizes, q)))
        return ranks.reshape(S, len(ts), len(particles)) / self.n


class LogEvaluator:
    """Counting queries on one event log, read as a batch of one
    (``_LogBatch``), whose links give every event the index of its
    particle's next event (n_events for none)."""

    def __init__(self, log: EventLog):
        self.log = log
        self._batch = _LogBatch([log])
        self.n, self.spec = self._batch.n, self._batch.spec
        self.slots0, self.classes = self._batch.slots0, self._batch.classes

    def lattice_counts(self, lattice: EvaluationLattice) -> LatticeCounts:
        """The one counting routine behind every curve and phi query: this
        log's ``_LogBatch.lattice_counts``."""
        return self._batch.lattice_counts(lattice)[0]

    # -- point queries -------------------------------------------------------

    def _point_counts(self, gamma: BoundaryPoint, t: float) -> LatticeCounts:
        """``lattice_counts`` at the one pair (gamma, t), if admissible."""
        _admissible(gamma.y0, gamma.t0, t, self.log.horizon)
        return self.lattice_counts(EvaluationLattice(gammas=(gamma,), times=(t,)))

    def phi(self, h, gamma: BoundaryPoint, t: float) -> float:
        t = _number("t", t, DomainError)
        alive = self._point_counts(_boundary_point(gamma), t).alive[0]
        return float(alive @ _h_vector(h, self.spec)) / self.n

    # -- positions -------------------------------------------------------------

    def _ranks_at(self, t: float) -> np.ndarray:
        """Slot of every particle at t: Y_i(t) = Y_C(gamma_i(t), t) * N, by
        ``srp._reset_ranks`` from the initial slots.  The movers are the
        particles with an event at or before t, most recent last event
        first, read in event order, so exact time ties need no care.
        """
        idx = int(np.searchsorted(self.log.times, t, side="right"))
        last = np.flatnonzero(self._batch.next_event[:idx] >= idx)
        return _reset_ranks(self.slots0, self.log.particles[last[::-1]])

    def _tail_counts(self, t: float, cuts) -> np.ndarray:
        """tail[q, k]: the class-k particles at slot ``cuts[q]`` or later at
        t, from one ``_ranks_at(t)`` and one ``_class_tails`` histogram."""
        cuts, col = np.unique(cuts, return_inverse=True)
        _, tails = _class_tails(self._ranks_at(t), self.classes, cuts,
                                self.spec.n_classes)
        return tails[col + 1]

    def positions_at(self, t: float) -> np.ndarray:
        """Positions at t, right-continuous, in any order of queries."""
        t = float(_log_times("t", _number("t", t, DomainError),
                             self.log.horizon))
        return self._ranks_at(t) / self.n

    def positions_of(self, particles, ts) -> np.ndarray:
        """``positions_at(t)[particles]`` for every t in ts, in one query
        (``_LogBatch.positions_of``): shape (len(ts), len(particles))."""
        return self._batch.positions_of(particles, ts)[0]

    def mu(self, h, y: float, t: float) -> float:
        """Integral of h over the empirical measure on W x [y, 1] at t."""
        if not -1e-12 <= _number("y", y, DomainError) <= 1 + 1e-12:
            raise DomainError(f"y: {y} outside [0,1]")
        t = float(_log_times("t", _number("t", t, DomainError),
                             self.log.horizon))
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
