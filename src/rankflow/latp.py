"""Point process with last-arrival-time dependent intensity.

The counting process has hazard omega(tau*, t) at time t, where tau* is the
last arrival time (0 before the first arrival).  It is Poisson exactly when
omega ignores its first argument.  Three independent evaluations of the
no-arrival probability p(s, t) = P(N(t) = N(s)) are provided:

  * exact path sampling by thinning (``sample_arrivals``, one replica's
    row of a block thinned and checked as ``sample_replicas`` thins and
    checks it, handed out as a read-only view with no copy and no second
    check: about 1.1-1.3 us a cached call, against 4.1 us when
    ``ArrivalSequence`` copied and walked the row again, and 2.2-2.7 us
    a call in a walk over replicas that draws and thins each block once),
  * a renewal Volterra solve for the arrival-rate density (``survival_solve``),
  * the explicit series over arrival configurations (``survival_series``),
    kept as a test oracle; each term reuses the previous term's inner
    integral, one call serves one start time s and many end times t from
    one [0, s] block, and the truncation error is bounded by
    (||omega|| s)^(kmax+1) / (kmax+1)!.

``thin_last_arrival`` thins many independent such processes that share one
merged candidate stream: the flow-driven particles, the tagged limit paths
and every LATP replica are sampled with it.  Such batches of runs are laid
out by the helpers here (``_owners`` and its neighbours), which ``flow``,
``srp`` and ``measure`` share.  Every pass over a grid table runs in row
strips (``_strips``) or in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ConfigError, DomainError, EnvelopeBreach, _number,
                     _positive, _real_array, _require_int)
from . import streams
from .streams import _stable_argsort

# default thinning envelope margin over the declared sup-norm; guards
# against interpolation wobble in tabulated kernels
ENVELOPE_MARGIN = 1.05

# replicas per thinning pass of sample_replicas, which bounds its memory at
# any replica count, and per small-mean block of ``_replica_block``
REPLICA_CHUNK = 65_536
REPLICA_BLOCK = 1024

# the most float64 entries of one grid table (128 MiB), checked up front
MAX_TABLE_ENTRIES = 4096 ** 2

# bytes of one row strip of a pass over a grid table, so that the pass's
# temporaries stay in cache and none of them is a whole fresh table: a
# fresh table costs more in page faults than the arithmetic written in it
_STRIP_BYTES = 1 << 18


def _strips(n_rows: int, row_len: int) -> list:
    """The row ranges (lo, hi) of an n_rows x row_len float64 table, in
    order, each at most ``_STRIP_BYTES`` and at least one row."""
    step = max(1, _STRIP_BYTES // (8 * max(row_len, 1)))
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


# -- batches of runs: run s holds the next sizes[s] entries of its batch,
# and its particle i is the owner s * N + i, so the runs share no owner


def _edges(sizes) -> np.ndarray:
    """Where each run starts in its batch, and where the last one ends."""
    edges = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, dtype=np.int64, out=edges[1:])
    return edges


def _laid(parts):
    """The runs' arrays ``parts`` laid end to end."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _cut(values, sizes) -> list:
    """A batch array cut back into its runs."""
    edges = _edges(sizes)
    return [values[lo:hi] for lo, hi in zip(edges, edges[1:])]


def _owners(ids, n, sizes):
    """The run-local ``ids`` of a batch of runs of n particles as owners."""
    if len(sizes) == 1:
        return ids
    return ids + n * np.arange(len(sizes)).repeat(sizes)


def _tiled(values, k):
    """Per-particle ``values`` repeated for the k runs of a batch."""
    return values if k == 1 else np.tile(values, k)


class LatpIntensity:
    """Hazard kernel omega(s, t) on the triangle 0 <= s <= t <= horizon.

    ``fn(s, t)`` must be vectorized over numpy arrays.  ``kernel_s0`` is the
    right limit omega(0+, t): the hazard after an arrival at time 0.  For
    kernels continuous in s it equals omega(0, t) (the default); flow-induced
    kernels are discontinuous at s = 0 because the first row carries the
    initial-position curve, and they supply the boundary-curve limit instead.
    """

    def __init__(self, fn, horizon: float, sup_norm: float, s0_limit=None,
                 label: str = ""):
        self.horizon = _positive("horizon", horizon)
        self.sup_norm = _number("sup_norm", sup_norm)
        if self.sup_norm < 0:
            raise ConfigError(f"sup_norm: must be >= 0, got {sup_norm!r}")
        self._fn = fn
        self._s0_limit = s0_limit
        self.label = label or "omega"

    def __call__(self, s, t):
        # written so that NaN, which fails every comparison, is refused
        s = _real_array("s", s, DomainError)
        t = _real_array("t", t, DomainError)
        if not np.all((s >= -1e-12) & (s <= self.horizon + 1e-12)):
            raise DomainError(f"s: {s!r} outside [0, {self.horizon}]")
        if not np.all((s <= t + 1e-12) & (t <= self.horizon + 1e-12)):
            raise DomainError(
                f"t: ({s!r}, {t!r}) outside 0 <= s <= t <= {self.horizon}")
        out = np.asarray(self._fn(s, t), dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    def kernel_s0(self, t):
        if self._s0_limit is None:
            return self(np.zeros_like(np.asarray(t, dtype=float)), t)
        t = np.asarray(t, dtype=float)
        out = np.asarray(self._s0_limit(t), dtype=float)
        return float(out) if out.ndim == 0 else out


def constant_intensity(c: float, horizon: float) -> LatpIntensity:
    value = float(c)

    def fn(s, t):
        return np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), value)

    return LatpIntensity(fn, horizon, sup_norm=value, label=f"const[{c}]")


def zero_intensity(horizon: float) -> LatpIntensity:
    return constant_intensity(0.0, horizon)


def last_arrival_affine(base: float, slope: float, horizon: float) -> LatpIntensity:
    """omega(s, t) = base + slope * s."""
    hi = max(base, base + slope * horizon)
    lo = min(base, base + slope * horizon)
    if lo < 0:
        raise ConfigError(f"negative hazard: base={base}, slope={slope}")
    return LatpIntensity(lambda s, t: base + slope * s + 0.0 * t, horizon,
                         sup_norm=hi, label=f"affine[{base}+{slope}s]")


def flow_pullback_affine(base: float, slope: float, z: float,
                         horizon: float) -> LatpIntensity:
    """Affine rate field read along the closed-form unit-rate flow.

    The flow is theta((z,0), t) = 1 - (1-z) e^{-t} for the initial curve and
    theta((0,s), t) = 1 - e^{-(t-s)} for boundary curves, which is the exact
    limit flow of a unit-rate uniform population.  The resulting kernel is
      omega(0, t) = base + slope * (1 - (1-z) e^{-t}),
      omega(s, t) = base + slope * (1 - e^{-(t-s)})   for s > 0,
    discontinuous at s = 0 whenever z > 0; the s->0+ limit is supplied as
    the renewal kernel row.
    """
    for name, x in (("base", base), ("slope", slope), ("z", z),
                    ("horizon", horizon)):
        _number(name, x)
    if base < 0 or slope < 0:
        raise ConfigError("flow pullback requires base, slope >= 0")
    if not 0.0 <= z <= 1.0:
        raise ConfigError(f"z must lie in [0,1], got {z}")

    def fn(s, t):
        # at s == 0 the factor is 1 - z and t - s is t; after it the factor
        # is 1.0, and multiplying by 1.0 is exact
        return base + slope * (1.0 - (1.0 - z * (s == 0.0)) * np.exp(-(t - s)))

    sup = base + slope * (1.0 - (1.0 - max(z, 0.0)) * np.exp(-horizon))
    sup = max(sup, base + slope * (1.0 - np.exp(-horizon)))
    return LatpIntensity(fn, horizon, sup_norm=sup,
                         s0_limit=lambda t: base + slope * (1.0 - np.exp(-t)),
                         label=f"flow-affine[{base}+{slope}y,z={z}]")


def _check_arrivals(times: np.ndarray, horizon: float, same=True) -> None:
    """Refuse with ConfigError arrival times, paths laid end to end, that
    are not strictly increasing in (0, horizon] along each path; ``same``
    marks the neighbours ``times[c], times[c + 1]`` that share a path (all
    of them by default).  Written so that NaN, which fails every
    comparison, is refused."""
    if len(times) and not (times.min() > 0
                           and np.all(np.diff(times) > 0, where=same)
                           and times.max() <= horizon + 1e-12):
        raise ConfigError("times must be strictly increasing in (0, horizon]")


@dataclass(frozen=True, eq=False)
class ArrivalSequence:
    """Strictly increasing arrival times in (0, horizon].  Compared and
    hashed by identity: the generated ``==`` would compare arrays."""

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        horizon = _positive("horizon", self.horizon)
        # a copy, so the caller's array stays writable, and a 0-d input
        # stays 0-d for the dimension check
        t = np.array(_real_array("times", self.times), dtype=float)
        if t.ndim != 1:
            raise ConfigError("times must be one-dimensional")
        _check_arrivals(t, horizon)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "horizon", horizon)

    @classmethod
    def _checked_row(cls, times: np.ndarray, horizon: float):
        """The sequence of ``times``, a read-only 1-d float array that
        ``_thinned`` has checked, and ``horizon``, a float that
        ``LatpIntensity`` has: no copy and no second check."""
        seq = object.__new__(cls)
        # written into the instance dict, past the frozen __setattr__:
        # cheaper than object.__setattr__ and than dict.update
        fields = seq.__dict__
        fields["times"] = times
        fields["horizon"] = horizon
        return seq

    def count(self, t: float) -> int:
        return int(np.searchsorted(self.times, _number("t", t, DomainError),
                                   side="right"))

    def no_arrival_in(self, s: float, t: float) -> bool:
        _number("s", s, DomainError)
        return self.count(t) == self.count(s)


def _breach_bound(envelope):
    """The hazard above which a thinning envelope counts as breached."""
    return envelope * (1.0 + 1e-9) + 1e-12


@lru_cache(maxsize=4)
def _replica_block(omega, seed, block, size):
    """``_thinned`` replicas ``lo = block * size`` on, to the next block or
    the last index, as read-only ``(times, edges)``: replica lo + q's
    arrivals are ``times[edges[q]:edges[q + 1]]``.  Check the key words
    first: the cache takes True and 1.0 for 1.  A breach is not cached."""
    lo = block * size
    times, counts = _thinned(omega, seed, lo, min(size, streams.KEY_WORDS - lo))
    edges = _edges(counts)
    for a in (times, edges):
        a.flags.writeable = False  # shared by every call of the cache
    return times, edges


def sample_arrivals(omega: LatpIntensity, seed: int,
                    replica: int = 0) -> ArrivalSequence:
    """Exact thinning sample of replica ``replica``'s path under ``seed``.

    Candidates arrive at the envelope rate ENVELOPE_MARGIN * sup_norm with
    marks uniform on [0, envelope); a candidate at u is accepted iff its
    mark falls below omega(tau*, u) for the current last arrival tau*.  An
    acceptance evaluation above the envelope is a hard fault.  The path is
    a row of a cached ``_replica_block``, thinned and checked as
    ``sample_replicas`` thins and checks it; its times are a read-only view
    of that block.
    """
    seed = streams.check_key("seed", seed)
    replica = streams.check_key("index", replica)
    # a large mean draws stream by stream anyway: one replica, one block
    size = (REPLICA_BLOCK if ENVELOPE_MARGIN * omega.sup_norm * omega.horizon
            < streams.POISSON_MULT_MAX else 1)
    try:
        try:
            times, edges = _replica_block(omega, seed, replica // size, size)
        except EnvelopeBreach as exc:
            if exc.owner == replica:
                raise
            # another replica of the block breached: this one is read alone
            size = 1
            times, edges = _replica_block(omega, seed, replica, size)
    except EnvelopeBreach as exc:
        # the replica's own breach, worded as for one path
        raise EnvelopeBreach(exc.args[0].partition(": ")[2],
                             owner=exc.owner, last=exc.last, time=exc.time,
                             hazard=exc.hazard) from None
    q = replica % size
    # the row was checked once, in ``_thinned``
    return ArrivalSequence._checked_row(times[edges.item(q):edges.item(q + 1)],
                                        omega.horizon)


def thin_last_arrival(times, owners, marks, n_owners: int, hazard,
                      envelope) -> np.ndarray:
    """Thin a merged marked stream of independent last-arrival processes.

    Candidate c, at ``times[c]`` with mark ``marks[c]``, belongs to process
    ``owners[c]`` and is accepted iff its mark falls below
    ``hazard(owner, last, t)``, where ``last`` is the owner's last accepted
    time (0 before the first arrival), as in ``sample_arrivals``.  The
    processes do not interact, so round r offers every owner its r-th
    candidate at once: ``hazard`` receives arrays over owners and returns
    one hazard per owner.  ``envelope`` (a scalar or one value per owner)
    must dominate the hazard; if it does not, or the hazard is NaN,
    EnvelopeBreach names the earliest breaching candidate in stream order.
    Returns the accepted mask in stream order.
    """
    times = np.asarray(times, dtype=float)
    owners = np.asarray(owners, dtype=np.int64)
    marks = np.asarray(marks, dtype=float)
    envelope = np.broadcast_to(np.asarray(envelope, dtype=float), (n_owners,))
    breach_at = _breach_bound(envelope)
    accepted = np.zeros(len(times), dtype=bool)
    # round of each candidate: its position among its owner's candidates,
    # each owner's candidates being a run of the owner-sorted stream
    counts = np.bincount(owners, minlength=n_owners)
    first = np.repeat(_edges(counts)[:-1], counts)
    rounds = np.empty(len(times), dtype=np.int64)
    rounds[_stable_argsort(owners, n_owners)] = np.arange(len(times)) - first
    by_round = _stable_argsort(rounds, int(counts.max(initial=0)))
    sizes = np.bincount(rounds)
    ends = np.cumsum(sizes)
    last = np.zeros(n_owners)
    breach = []
    for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
        c = by_round[lo:hi]
        o, t = owners[c], times[c]
        s = last[o]
        a = np.asarray(hazard(o, s, t), dtype=float)
        # NaN fails the comparison, and so breaches
        over = np.logical_not(a <= breach_at[o])
        if over.any():
            breach.extend(zip(c[over].tolist(), a[over].tolist(),
                              s[over].tolist()))
        acc = marks[c] < a
        accepted[c[acc]] = True
        last[o[acc]] = t[acc]
    if breach:
        c, a, s = min(breach)
        i, t = int(owners[c]), float(times[c])
        raise EnvelopeBreach(f"particle {i}: hazard {a} above envelope "
                             f"{float(envelope[i])} at t={t}",
                             owner=i, last=s, time=t, hazard=a)
    return accepted


def _thinned(omega: LatpIntensity, seed: int, lo: int, n: int):
    """Arrival times of replicas lo, ..., lo + n - 1, laid end to end, and
    each one's count.  The replicas are the owners of one
    ``thin_last_arrival`` call, so the earliest breach in stream order is
    the one a loop over them would hit first; it is raised with the message
    of ``sample_arrivals``, prefixed by the replica."""
    horizon = omega.horizon
    envelope = ENVELOPE_MARGIN * omega.sup_norm
    times, marks, per = streams.replica_candidates(
        seed, streams.LATP, n, envelope, horizon, start=lo)
    owners = _owners(np.zeros(len(times), dtype=np.int64), 1, per)
    try:
        accepted = thin_last_arrival(times, owners, marks, n,
                                     lambda o, last, t: omega._fn(last, t),
                                     envelope)
    except EnvelopeBreach as exc:
        raise EnvelopeBreach(
            f"replica {lo + exc.owner}: {omega.label}: hazard {exc.hazard} "
            f"above envelope {envelope} at (s={exc.last}, t={exc.time})",
            owner=lo + exc.owner, last=exc.last, time=exc.time,
            hazard=exc.hazard) from None
    times, owners = times[accepted], owners[accepted]
    # ArrivalSequence's invariant, per replica: the one check of every
    # replica's path, which sample_arrivals hands out as it is
    _check_arrivals(times, horizon, owners[1:] == owners[:-1])
    return times, np.bincount(owners, minlength=n)


def sample_replicas(omega: LatpIntensity, seed: int, replicas: int):
    """Paths of replicas 0, ..., replicas - 1, one ``_thinned`` pass per
    chunk of ``REPLICA_CHUNK``, as ``(times, offsets)``: replica r's
    arrival times are ``times[offsets[r]:offsets[r + 1]]``, byte-equal to
    ``sample_arrivals(omega, seed=seed, replica=r).times``."""
    _require_int("replicas", replicas, 0)
    # checked up front: zero replicas draw nothing
    streams.check_key("seed", seed)
    chunks = [_thinned(omega, seed, lo, min(REPLICA_CHUNK, replicas - lo))
              for lo in range(0, replicas, REPLICA_CHUNK)]
    times, counts = zip((np.empty(0), np.zeros(0, dtype=np.int64)), *chunks)
    return np.concatenate(times), _edges(np.concatenate(counts))


@dataclass(frozen=True, eq=False)
class SurvivalTable:
    """No-arrival probabilities p[i, j] ~= P(N(t_j) = N(t_i)) on a grid,
    compared and hashed by identity.

    Entries below the diagonal are NaN.  The diagonal is exactly 1, rows are
    non-increasing in j and columns non-decreasing in i as computed (up to
    the [0,1] clamp), and f holds the arrival-rate density on the grid.
    """

    grid: np.ndarray
    p: np.ndarray
    f: np.ndarray
    sup_norm: float
    label: str = ""

    def __post_init__(self):
        for name in ("grid", "p", "f"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        p = self.p
        # the extremes of the upper triangle and of its differences, read
        # strip by strip; a NaN on or above the diagonal makes hi NaN
        hi = dt_hi = -np.inf
        lo = ds_lo = np.inf
        for rows, upper, (dt, in_dt), (ds, in_ds) in _upper_strips(p):
            hi = np.maximum(hi, np.max(p[rows], where=upper, initial=-np.inf))
            lo = np.minimum(lo, np.min(p[rows], where=upper, initial=np.inf))
            dt_hi = np.maximum(dt_hi, np.max(dt, where=in_dt, initial=-np.inf))
            ds_lo = np.minimum(ds_lo, np.min(ds, where=in_ds, initial=np.inf))
        if np.isnan(hi):
            raise ConfigError("survival table has NaN on or above the diagonal")
        if lo < -1e-12 or hi > 1 + 1e-12:
            raise ConfigError("survival table escapes [0,1]")
        if np.any(np.diag(p) != 1.0):
            raise ConfigError("survival table diagonal must be exactly 1")
        slack = 1e-9
        if dt_hi > slack:
            raise ConfigError("survival table increases in t")
        if ds_lo < -slack:
            raise ConfigError("survival table decreases in the start time")

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


def _grid_cells(x, h, m):
    """Cell floor(x / h) of every entry of x on a grid of m cells of step
    h, clamped to [0, m - 1], and x's offset in it, clipped to [0, 1].
    ``h`` and ``m`` may be arrays, one step and size per entry."""
    u = np.asarray(x, dtype=float) / h
    i = np.clip(u.astype(int), 0, m - 1)
    return i, np.clip(u - i, 0.0, 1.0)


def _bilinear(table, r, a, j, mu):
    """Interpolate ``table`` in row cell r at offset a and column cell j at
    offset mu: linear along each row, then linear across the two rows."""
    lo = table[r, j] * (1 - mu) + table[r, j + 1] * mu
    hi = table[r + 1, j] * (1 - mu) + table[r + 1, j + 1] * mu
    return lo * (1 - a) + hi * a


def _triangle_value(table, h: float, m: int, s, t, weights=None):
    """Interpolate at every (s, t), s <= t, the upper-triangular ``table``
    whose last two axes hold node (t_i, t_j), i <= j, of a grid of m cells
    of step h; leading axes of the table lead the result.  With
    ``weights``, the table's one leading axis is summed against the last
    axis of ``weights`` at the six nodes a pair reads, before they are
    combined.

    Bilinear, except in a cell on the diagonal (constant in the table read
    here, ``PhiEvaluator.bdry_phi``): linear in t - s from the diagonal
    node, with the slope to the next node along t.  An s above t by
    rounding reads that cell.  No value reads an entry below the diagonal.
    """
    i, a = _grid_cells(s, h, m)
    j, b = _grid_cells(t, h, m)
    nodes = table[..., np.stack([i, i, i, i, i + 1, i + 1], axis=-1),
                  np.stack([i, i + 1, j, j + 1, j, j + 1], axis=-1)]
    if weights is not None:
        # the product np.tensordot(weights, nodes, axes=1) makes
        nodes = np.dot(weights, nodes.reshape(len(nodes), -1)).reshape(
            weights.shape[:-1] + nodes.shape[1:])
    d, d1, tl, tr, bl, br = (nodes[..., k] for k in range(6))
    diagonal = d - (d - d1) / h * (t - s)
    top = tl * (1 - b) + tr * b
    bot = bl * (1 - b) + br * b
    return np.where(i >= j, diagonal, top * (1 - a) + bot * a)


def _cumulative_trapezoid(vals: np.ndarray, h, out=None,
                          start=None) -> np.ndarray:
    """Trapezoid integrals of ``vals`` along the last axis from its first
    node to each node, (0.5 h) (v_j + v_{j+1}) summed in order; ``h`` is
    the step, a scalar or one per interval.  With ``start`` (one value per
    leading index) the sums continue a longer run that had reached
    ``start`` at the first node, adding each interval to it in the same
    order.  Written into ``out`` when given."""
    out = np.empty(vals.shape) if out is None else out
    out[..., :1] = 0.0 if start is None else np.asarray(start)[..., None]
    part = out[..., 1:]
    np.add(vals[..., 1:], vals[..., :-1], out=part)
    np.multiply(0.5 * h, part, out=part)
    if start is None:
        np.cumsum(part, axis=-1, out=part)
    else:
        np.cumsum(out, axis=-1, out=out)
    return out


def _exposure_rows(row_vals: np.ndarray, h, out=None) -> np.ndarray:
    """Cumulative trapezoid of each row from its own diagonal node.

    ``row_vals[v, j]`` is the hazard omega(t_v, t_j); the result, written
    into ``out`` when given, is Omega[v, j] = integral over [t_v, t_j].
    Entries left of the diagonal are meaningless.
    """
    omega = _cumulative_trapezoid(row_vals, h, out=out)
    omega -= omega.diagonal().copy()[:, None]
    return omega


def _hazard_rows(omega: LatpIntensity, starts: np.ndarray, times=None):
    """Hazard tables of ``omega``: ``w[v, j]`` = omega(min(s_v, t_j), t_j)
    after an arrival at each start s_v (row 0 the s->0+ limit: ``starts``
    begins at node 0) and each time t_j (the starts by default), and
    ``w0[j]`` = omega(0, t_j) before the first arrival.  One broadcast
    kernel call per row strip (``_strips``) writes ``w``, which keeps its
    full shape when the kernel ignores an argument: the kernel is
    elementwise, so a strip has the bits of one whole-table call."""
    times = starts if times is None else times
    w = np.empty((len(starts), len(times)))
    for lo, hi in _strips(len(starts), len(times)):
        w[lo:hi] = omega._fn(np.minimum(starts[lo:hi, None], times), times)
    w0 = np.asarray(omega._fn(np.zeros(len(times)), times), dtype=float)
    w[0] = omega.kernel_s0(times)
    return w, w0


def _require_fine_step(h: float, sup_norm: float, error, name: str) -> None:
    """Refuse a time step with h * sup_norm >= 1 by raising ``error`` with
    ``name``: ``_trapezoid_volterra`` divides by 1 - h w / 2, which is 0
    at h w = 2."""
    if h * sup_norm >= 1.0:
        raise error(f"{name}: too coarse, step*sup_norm = {h * sup_norm:.3g} >= 1")


def _trapezoid_volterra(w, b, pre, h, total=1.0, out=None, work=None):
    """Trapezoid solve of the renewal equation and its no-arrival table.

    ``w[v, j]`` is the hazard omega(t_v, t_j) after an arrival at t_v (row 0
    the s->0+ limit), ``b`` the first-arrival density and ``pre`` the
    probability of no arrival yet.  Solves
    f(u) = b(u) + int_0^u f(v) K(v,u) dv with K(v,u) = w(v,u) e^{-Omega(v,u)},
    then p(s,t) = pre(t) + int_0^s f(v) e^{-Omega(v,t)} dv.  Both are linear
    in (b, pre), so a weighted sum of forcings yields the same weighted sum
    of solutions.  Returns (f, p): p is clipped to [0, total] above the
    diagonal, equals ``total`` (the forcing mass) on it and is 0 below it;
    it is written into ``out`` when given.

    Every (m+1)^2 pass runs in place in two work arrays, the exposure and
    kernel tables of ``work`` (allocated per call if not given; the kernel
    table may be ``w``, which is then overwritten), because a fresh table
    per pass costs more in page faults than in arithmetic; an elementwise
    ufunc gives the same bits wherever it writes.
    """
    m = len(b) - 1
    ea, kern = (None, None) if work is None else work
    below = np.tri(m + 1, k=-1, dtype=bool)
    ea = _exposure_rows(w, h, out=ea)
    # e^{-Omega} on and above the diagonal, 1 below it
    ea[below] = 0.0
    eker = np.exp(np.negative(ea, out=ea), out=ea)
    kern = np.multiply(w, eker, out=kern)  # K[v, j], valid v <= j

    f = np.zeros(m + 1)
    f[0] = b[0]
    for j in range(1, m + 1):
        acc = 0.5 * f[0] * kern[0, j]
        if j > 1:
            acc += float(np.dot(f[1:j], kern[1:j, j]))
        f[j] = (b[j] + h * acc) / (1.0 - 0.5 * h * kern[j, j])

    g = np.multiply(f[:, None], eker, out=kern)  # f(v) e^{-Omega(v,t_j)}
    cum = np.cumsum(g, axis=0, out=ea)
    # int_0^{t_i} over v: h * (cum - 0.5 * (g + g[0]))
    np.add(g, g[0].copy(), out=g)
    np.multiply(0.5, g, out=g)
    np.subtract(cum, g, out=cum)
    trap = np.multiply(h, cum, out=cum)
    p = np.add(pre[None, :], trap, out=trap if out is None else out)
    np.clip(p, 0.0, total, out=p)
    p[below] = 0.0
    np.fill_diagonal(p, total)
    return f, p


def survival_solve(omega: LatpIntensity, grid: np.ndarray) -> SurvivalTable:
    """Volterra solve for the arrival-rate density f and the table p.

    f(u) = omega(0,u) e^{-Omega(0,u)} + int_0^u f(v) K(v,u) dv with kernel
    K(v,u) = omega(v,u) e^{-Omega(v,u)}, then
    p(s,t) = e^{-Omega(0,t)} + int_0^s f(u) e^{-Omega(u,t)} du,
    trapezoid throughout.  The v = 0 kernel node uses the s->0+ hazard limit
    (an arrival at time 0, not the pre-first-arrival row).
    """
    grid = np.asarray(grid, dtype=float)
    m = len(grid) - 1
    if m < 1 or abs(grid[0]) > 1e-12:
        raise DomainError("grid must start at 0 with at least two nodes")
    h = grid[1] - grid[0]
    if np.max(np.abs(np.diff(grid) - h)) > 1e-9 * max(h, 1.0):
        raise DomainError("grid must be uniform")
    if grid[-1] > omega.horizon + 1e-9:
        raise DomainError("grid exceeds the kernel horizon")
    _require_fine_step(h, omega.sup_norm, DomainError, "grid")

    w, w0 = _hazard_rows(omega, grid)
    e0 = np.exp(-_cumulative_trapezoid(w0, h))
    # the hazard rows are read once, so the kernel is written over them
    f, p = _trapezoid_volterra(w, w0 * e0, e0, h, work=(None, w))
    p[np.tri(m + 1, k=-1, dtype=bool)] = np.nan
    return SurvivalTable(grid=grid, p=p, f=f, sup_norm=omega.sup_norm,
                         label=omega.label)


def survival_series(omega: LatpIntensity, s: float, t,
                    kmax: int = 25, step: float = 2.5e-3):
    """Truncated series for P(N(t) = N(s)): a float for one end time t, an
    array of one value per t for a sequence of them.

    Term k integrates the density of k arrivals in (0, s] times the
    no-arrival factor from the last arrival to t.  The k-th arrival-time
    density g_k is built iteratively from g_{k-1}, so the nested simplex
    integrals cost one matrix-vector product per term.  The [0, s] block
    and g_1 ... g_kmax are built once per call; each t adds only its
    exposure from s on, so every value has the bits of a call with that t
    alone.
    """
    _number("s", s, DomainError)
    if np.ndim(t) == 0:
        ends = [("t", t)]
    elif np.ndim(t) == 1:
        ends = [(f"t[{k}]", x) for k, x in enumerate(t)]
    else:
        raise DomainError("t: must be a number or a one-dimensional sequence")
    for name, x in ends:
        _number(name, x, DomainError)
        if s > x + 1e-12:
            raise DomainError(f"{name}: need s <= t, got ({s}, {x})")
        if s < -1e-12 or x > omega.horizon + 1e-9:
            raise DomainError(f"{name}: ({s}, {x}) outside [0, {omega.horizon}]")
    _require_int("kmax", kmax, 0, DomainError)
    _positive("step", step, DomainError)
    # an end time below s by rounding starts its series there
    blocks = {}
    out = np.empty(len(ends))
    for k, (_, x) in enumerate(ends):
        start = min(s, x)
        if start not in blocks:
            blocks[start] = _series_from(omega, start, kmax, step)
        out[k] = blocks[start](x)
    return float(out[0]) if np.ndim(t) == 0 else out


def _series_from(omega: LatpIntensity, s, kmax: int, step: float):
    """The series from start time s: builds its [0, s] block and returns
    the function of an end time t >= s that continues it to t.

    The block lives in two tables: the hazard rows, overwritten row strip
    by row strip with the kernel K(v, u_j) = w e^{-Omega(v, u_j)}, and the
    trapezoid weights, overwritten with the step matrix once their last
    row, the weights of every tail, is kept.  Each strip's exposures are
    a strip temporary; every pass is elementwise or along a row, so the
    bits are those of whole-table passes.
    """
    n1 = max(1, int(np.ceil(s / step))) if s > 0 else 0
    inner = np.linspace(0.0, s, n1 + 1)
    # the series reads the hazard rows of the nodes of [0, s] only, and the
    # k = 0 term none (row 0 is built anyway); each row's exposure integral
    # is independent of the others
    nx = n1 + 1 if kmax and n1 else 0
    starts = inner[:max(nx, 1)]
    w, w0 = _hazard_rows(omega, starts, inner)
    dg = np.diff(inner)
    # exposures from node 0, and to s, which each t continues from
    cum0 = _cumulative_trapezoid(w0, dg)
    at_s0 = cum0[-1]
    gs = []
    if nx:
        at_s, diag = np.empty(nx), np.empty(nx)
        for lo, hi in _strips(nx, nx):
            cum = _cumulative_trapezoid(w[lo:hi], dg)
            at_s[lo:hi] = cum[:, -1]
            diag[lo:hi] = cum.diagonal(lo)
            np.subtract(cum, diag[lo:hi, None], out=cum)
            kern = np.exp(np.negative(cum, out=cum), out=cum)
            np.multiply(w[lo:hi], kern, out=w[lo:hi])
        tw = _trapezoid_weights(nx, s / n1)
        # the weights of int_0^s g(u) e^{-Omega(u, t)} du
        tail_weights = tw[-1].copy()
        step_mat = np.multiply(tw, w.T, out=tw)  # A[j, v] = weight * K(v, u_j)
        g = w0 * np.exp(-cum0)  # first-arrival density g_1
        gs.append(g)
        for _ in range(2, kmax + 1):
            g = step_mat @ g
            gs.append(g)

    def value(t) -> float:
        n2 = max(1, int(np.ceil((t - s) / step))) if t > s + 1e-12 else 0
        nodes = np.linspace(s, t, n2 + 1)
        wt, w0t = _hazard_rows(omega, starts, nodes)
        dgt = np.diff(nodes)
        # k = 0: no arrival up to t
        total = float(np.exp(-_cumulative_trapezoid(w0t, dgt, start=at_s0)[-1]))
        if nx:
            expo = np.empty(nx)
            for lo, hi in _strips(nx, len(nodes)):
                expo[lo:hi] = _cumulative_trapezoid(
                    wt[lo:hi], dgt, start=at_s[lo:hi])[:, -1]
            tail = tail_weights * np.exp(-(expo - diag))
            for g in gs:
                total += float(np.dot(tail, g))
        # a NaN in any hazard the series reads reaches the sum
        if not np.isfinite(total):
            raise ConfigError(f"{omega.label}: survival series at ({s}, {t}) "
                              f"is {total}, not finite")
        return total

    return value


def _trapezoid_weights(nx: int, h: float) -> np.ndarray:
    """Row j holds the trapezoid weights of int_0^{u_j} dv on nodes u_v = v h:
    h / 2 at v = 0 and v = j, h in between, 0 for v > j (row 0 is zero).
    Written one row strip at a time into its one table."""
    tw = np.empty((nx, nx))
    cols = np.arange(nx)
    for lo, hi in _strips(nx, nx):
        tw[lo:hi] = np.where(cols <= np.arange(lo, hi)[:, None], h, 0.0)
    half = 0.5 * h
    tw[1:, 0] = half
    np.fill_diagonal(tw, half)
    tw[0, 0] = 0.0
    return tw


@dataclass(frozen=True)
class DerivativeReport:
    """Worst finite-difference violations of the survival-probability bounds.

    All four values are excesses: nonpositive means the bound held on the
    grid.  dt_sign / dt_excess check 0 <= -dp/dt <= ||omega||, and ds_sign /
    ds_excess check 0 <= dp/ds <= ||omega|| p.  The caller supplies the O(h)
    tolerance.
    """

    dt_sign: float
    dt_excess: float
    ds_sign: float
    ds_excess: float
    step: float

    def max_violation(self) -> float:
        return max(self.dt_sign, self.dt_excess, self.ds_sign, self.ds_excess)


def derivative_bound_check(table: SurvivalTable,
                           omega: LatpIntensity) -> DerivativeReport:
    """The four excesses of ``DerivativeReport`` over the rows p[i, i:] and
    columns p[:j+1, j] of the upper triangle.

    With h > 0 and a constant c, rounding is monotone, so a line's largest
    dt / h is its largest dt over h, and its largest -dt / h - c is
    -(its least dt / h) - c, bit for bit: the rows are read by one max and
    one min of dt, and the columns by one min of ds / h and one max of
    ds / h - sup * p.  The differences are read strip by strip
    (``_upper_strips``); a column's extremes over its strips are those of
    the whole column, a NaN kept by ``np.minimum`` and ``np.maximum``.
    """
    p = table.p
    h = table.step
    sup = omega.sup_norm
    m = len(p)
    dt_hi, dt_lo = np.empty(m), np.empty(m)
    ds_lo, ds_hi = np.full(m, np.inf), np.full(m, -np.inf)
    for rows, _, (dt, in_dt), (ds, in_ds) in _upper_strips(p):
        np.max(dt, axis=1, where=in_dt, initial=-np.inf, out=dt_hi[rows])
        np.min(dt, axis=1, where=in_dt, initial=np.inf, out=dt_lo[rows])
        # ds is a fresh strip of differences, so it is rescaled in place
        np.divide(ds, h, out=ds)
        np.minimum(ds_lo, np.min(ds, axis=0, where=in_ds, initial=np.inf),
                   out=ds_lo)
        ds -= sup * p[rows.start:rows.start + len(ds)]
        np.maximum(ds_hi, np.max(ds, axis=0, where=in_ds, initial=-np.inf),
                   out=ds_hi)
    return DerivativeReport(dt_sign=_top(dt_hi / h),
                            dt_excess=_top(-(dt_lo / h) - sup),
                            ds_sign=_top(-ds_lo),
                            ds_excess=_top(ds_hi),
                            step=h)


def _upper_strips(p):
    """The upper triangle of the square table p and its differences along
    t and along s, one row strip (``_strips``) at a time.

    Yields ``(rows, upper, (dt, in_dt), (ds, in_ds))`` per strip: the
    strip's row slice, its upper-triangle mask (diagonal included),
    ``dt[r, j] = p[i, j+1] - p[i, j]``, which counts for j >= i, and
    ``ds[r, j] = p[i+1, j] - p[i, j]``, which counts for j > i, for its
    rows i = rows.start + r; ds reads one row past the strip and has no
    row for the last row of p.  ``in_dt`` and ``in_ds`` are views of one
    mask of the strip's rows and the row after it.
    """
    m = len(p)
    cols = np.arange(m)
    for lo, hi in _strips(m, m):
        below = min(hi + 1, m)
        mask = np.less_equal.outer(np.arange(lo, below), cols)
        yield (slice(lo, hi), mask[:hi - lo],
               (np.diff(p[lo:hi], axis=1), mask[:hi - lo, :-1]),
               (np.diff(p[lo:below], axis=0), mask[1:]))


def _top(lines):
    """max(0, the largest of the line maxima ``lines``).

    A line holding a NaN has a NaN maximum, which the builtin max of a
    line-by-line loop skips; so it is skipped here.
    """
    return max(0.0, float(np.max(lines, where=~np.isnan(lines),
                                 initial=-np.inf)))
