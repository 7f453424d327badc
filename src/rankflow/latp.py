"""Point process with last-arrival-time dependent intensity.

The counting process has hazard omega(tau*, t) at time t, where tau* is the
last arrival time (0 before the first arrival).  It is Poisson exactly when
omega ignores its first argument.  Three independent evaluations of the
no-arrival probability p(s, t) = P(N(t) = N(s)) are provided:

  * exact path sampling by thinning (``sample_arrivals``),
  * a renewal Volterra solve for the arrival-rate density (``survival_solve``),
  * the explicit series over arrival configurations (``survival_series``),
    kept as a test oracle; each term reuses the previous term's inner
    integral, and the truncation error is bounded by
    (||omega|| s)^(kmax+1) / (kmax+1)!.

``thin_last_arrival`` thins many independent such processes that share one
merged candidate stream: the flow-driven particles, the tagged limit paths
and the batched replicas of ``sample_replicas`` are sampled with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, EnvelopeBreach
from . import streams

# default thinning envelope margin over the declared sup-norm; guards
# against interpolation wobble in tabulated kernels
ENVELOPE_MARGIN = 1.05

# replicas per thinning pass of sample_replicas; bounds its memory at any
# replica count
REPLICA_CHUNK = 65_536

# the most float64 entries of one grid table (128 MiB), checked up front
MAX_TABLE_ENTRIES = 4096 ** 2


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
        if not 0 < horizon < np.inf:
            raise ConfigError(f"horizon must be positive and finite, got {horizon}")
        if sup_norm < 0:
            raise ConfigError(f"sup_norm must be >= 0, got {sup_norm}")
        self._fn = fn
        self.horizon = float(horizon)
        self.sup_norm = float(sup_norm)
        self._s0_limit = s0_limit
        self.label = label or "omega"

    def __call__(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(s < -1e-12) or np.any(t > self.horizon + 1e-12) or np.any(s > t + 1e-12):
            raise DomainError(f"({s!r}, {t!r}) outside 0 <= s <= t <= {self.horizon}")
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
        # the scalar sampler calls it on Python floats
        if isinstance(s, (int, float)) and isinstance(t, (int, float)):
            return value
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


_NOT_INCREASING = "times must be strictly increasing in (0, horizon]"


def _check_arrivals(times: list, horizon: float) -> None:
    """Refuse arrival times, a list of floats, that are not strictly
    increasing in (0, horizon] with ConfigError.  Written so that NaN,
    which fails every comparison, is refused."""
    last = 0.0
    for u in times:
        if not last < u:
            raise ConfigError(_NOT_INCREASING)
        last = u
    if not last <= horizon + 1e-12:
        raise ConfigError(_NOT_INCREASING)


@dataclass(frozen=True)
class ArrivalSequence:
    """Strictly increasing arrival times in (0, horizon]."""

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        # a copy, so the caller's array stays writable, and a 0-d input
        # stays 0-d for the dimension check
        t = np.array(self.times, dtype=float)
        if t.ndim != 1:
            raise ConfigError("times must be one-dimensional")
        _check_arrivals(t.tolist(), self.horizon)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    def count(self, t: float) -> int:
        return int(np.searchsorted(self.times, t, side="right"))

    def no_arrival_in(self, s: float, t: float) -> bool:
        return self.count(t) == self.count(s)


def _breach_bound(envelope):
    """The hazard above which a thinning envelope counts as breached."""
    return envelope * (1.0 + 1e-9) + 1e-12


def _stable_argsort(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in [0, bound).

    Keys below 2^16 fit uint16, whose stable sort is a radix sort: O(m),
    and fast on presorted keys.  Larger keys become the unique keys
    ``key * m + position``, whose order is the stable one under any sort,
    so numpy's default (vectorized) sort gives it.  Those keys are below
    ``bound * m``.  Each caller's bound is a particle count or an owner's
    candidate count, lengths of arrays held in memory and so under 2^31
    (16 GiB of int64), or, in ``positions_of``, 2 * events + 1 <= 2m + 1.
    With m under 2^31 too, the product is below 2^63.
    """
    m = len(keys)
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    assert bound * m < 1 << 63, "unique sort keys would overflow int64"
    unique = np.asarray(keys, dtype=np.int64) * m
    unique += np.arange(m)
    return np.argsort(unique)


def sample_arrivals(omega: LatpIntensity, seed: int,
                    replica: int = 0) -> ArrivalSequence:
    """Exact thinning sample of replica ``replica``'s path under ``seed``.

    Candidates arrive at the envelope rate ENVELOPE_MARGIN * sup_norm with
    marks uniform on [0, envelope); a candidate at u is accepted iff its
    mark falls below omega(tau*, u) for the current last arrival tau*.  An
    acceptance evaluation above the envelope is a hard fault.
    """
    envelope = ENVELOPE_MARGIN * omega.sup_norm
    times, marks = streams.candidate_lists(seed, streams.LATP, replica,
                                           envelope, omega.horizon)
    accepted = []
    tau_star = 0.0
    breach = _breach_bound(envelope)
    fn = omega._fn
    for u, xi in zip(times, marks):
        a = float(fn(tau_star, u))
        if a > breach:
            raise EnvelopeBreach(
                f"{omega.label}: hazard {a} above envelope {envelope} at "
                f"(s={tau_star}, t={u})")
        if xi < a:
            accepted.append(u)
            tau_star = u
    return ArrivalSequence(times=accepted, horizon=omega.horizon)


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
    must dominate the hazard; if it does not, EnvelopeBreach names the
    earliest breaching candidate in stream order.  Returns the accepted
    mask in stream order.
    """
    times = np.asarray(times, dtype=float)
    owners = np.asarray(owners, dtype=np.int64)
    marks = np.asarray(marks, dtype=float)
    envelope = np.broadcast_to(np.asarray(envelope, dtype=float), (n_owners,))
    breach_at = _breach_bound(envelope)
    accepted = np.zeros(len(times), dtype=bool)
    # round of each candidate: its position among its owner's candidates
    counts = np.bincount(owners, minlength=n_owners)
    first = np.repeat(np.cumsum(counts) - counts, counts)
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
        over = a > breach_at[o]
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


def sample_replicas(omega: LatpIntensity, seed: int, replicas: int):
    """Paths of replicas 0, ..., replicas - 1 in one thinning pass per chunk.

    Returns ``(times, offsets)``: replica r's arrival times are
    ``times[offsets[r]:offsets[r + 1]]``, byte-equal to
    ``sample_arrivals(omega, seed=seed, replica=r).times``.  The replicas
    are the owners of one ``thin_last_arrival`` call per chunk of
    ``REPLICA_CHUNK``, in replica order, so the earliest breach in stream
    order is the one the replica loop would hit first; it is raised with
    the scalar sampler's message, prefixed by the replica.
    """
    if replicas < 0:
        raise ConfigError("replicas: must be >= 0")
    horizon = omega.horizon
    envelope = ENVELOPE_MARGIN * omega.sup_norm
    fn = omega._fn
    parts, counts = [np.empty(0)], [np.zeros(1, dtype=np.int64)]
    for lo in range(0, replicas, REPLICA_CHUNK):
        n = min(REPLICA_CHUNK, replicas - lo)
        times, marks, per = streams.replica_candidates(
            seed, streams.LATP, n, envelope, horizon, start=lo)
        owners = np.repeat(np.arange(n), per)
        try:
            accepted = thin_last_arrival(times, owners, marks, n,
                                         lambda o, last, t: fn(last, t),
                                         envelope)
        except EnvelopeBreach as exc:
            raise EnvelopeBreach(
                f"replica {lo + exc.owner}: {omega.label}: hazard {exc.hazard} "
                f"above envelope {envelope} at (s={exc.last}, t={exc.time})",
                owner=lo + exc.owner, last=exc.last, time=exc.time,
                hazard=exc.hazard) from None
        times, owners = times[accepted], owners[accepted]
        # ArrivalSequence's invariant, per replica, refusing NaN as it does
        same = owners[1:] == owners[:-1]
        if len(times) and not (times.min() > 0
                               and np.all(np.diff(times)[same] > 0)
                               and times.max() <= horizon + 1e-12):
            raise ConfigError(_NOT_INCREASING)
        parts.append(times)
        counts.append(np.bincount(owners, minlength=n))
    return np.concatenate(parts), np.cumsum(np.concatenate(counts))


@dataclass(frozen=True)
class SurvivalTable:
    """No-arrival probabilities p[i, j] ~= P(N(t_j) = N(t_i)) on a grid.

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
        m = len(self.grid)
        iu = np.triu_indices(m)
        vals = self.p[iu]
        if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
            raise ConfigError("survival table escapes [0,1]")
        if np.any(np.diag(self.p) != 1.0):
            raise ConfigError("survival table diagonal must be exactly 1")
        slack = 1e-9
        (dt, in_dt), (ds, in_ds) = _upper_diffs(self.p)
        if np.any(dt[in_dt] > slack):
            raise ConfigError("survival table increases in t")
        if np.any(ds[in_ds] < -slack):
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


def _triangle_value(table, h: float, m: int, s, t):
    """Interpolate at every (s, t), s <= t, the upper-triangular ``table``
    whose last two axes hold node (t_i, t_j), i <= j, of a grid of m cells
    of step h; leading axes of the table lead the result.

    Bilinear, except in a cell on the diagonal (constant in the table read
    here, ``PhiEvaluator.bdry_phi``): linear in t - s from the diagonal
    node, with the slope to the next node along t.  An s above t by
    rounding reads that cell.  No value reads an entry below the diagonal.
    """
    i, a = _grid_cells(s, h, m)
    j, b = _grid_cells(t, h, m)
    d = table[..., i, i]
    diagonal = d - (d - table[..., i, i + 1]) / h * (t - s)
    top = table[..., i, j] * (1 - b) + table[..., i, j + 1] * b
    bot = table[..., i + 1, j] * (1 - b) + table[..., i + 1, j + 1] * b
    return np.where(i >= j, diagonal, top * (1 - a) + bot * a)


def _cumulative_trapezoid(vals: np.ndarray, h) -> np.ndarray:
    """Trapezoid integrals of ``vals`` along the last axis from its first
    node to each node, (0.5 h) (v_j + v_{j+1}) summed in order; ``h`` is
    the step, a scalar or one per interval."""
    out = np.empty(vals.shape)
    out[..., :1] = 0.0
    part = out[..., 1:]
    np.add(vals[..., 1:], vals[..., :-1], out=part)
    np.multiply(0.5 * h, part, out=part)
    np.cumsum(part, axis=-1, out=part)
    return out


def _exposure_rows(row_vals: np.ndarray, h) -> np.ndarray:
    """Cumulative trapezoid of each row from its own diagonal node.

    ``row_vals[v, j]`` is the hazard omega(t_v, t_j); the result is
    Omega[v, j] = integral over [t_v, t_j].  Entries left of the diagonal
    are meaningless.
    """
    omega = _cumulative_trapezoid(row_vals, h)
    omega -= omega.diagonal().copy()[:, None]
    return omega


def _hazard_rows(omega: LatpIntensity, grid: np.ndarray, n_rows=None):
    """Hazard tables of ``omega`` on a grid: ``w[v, j]`` = omega(t_v, t_j)
    after an arrival at t_v (row 0 the s->0+ limit) for the first
    ``n_rows`` nodes t_v (all by default), and ``w0[j]`` = omega(0, t_j)
    before the first arrival."""
    ss, tt = np.meshgrid(grid[:n_rows], grid, indexing="ij")
    w = np.asarray(omega._fn(np.minimum(ss, tt), tt), dtype=float)
    w0 = np.asarray(omega._fn(np.zeros(len(grid)), grid), dtype=float)
    w[0] = omega.kernel_s0(grid)
    return w, w0


def _require_fine_step(h: float, sup_norm: float, error, name: str) -> None:
    """Refuse a time step with h * sup_norm >= 1 by raising ``error`` with
    ``name``: ``_trapezoid_volterra`` divides by 1 - h w / 2, which is 0
    at h w = 2."""
    if h * sup_norm >= 1.0:
        raise error(f"{name}: too coarse, step*sup_norm = {h * sup_norm:.3g} >= 1")


def _trapezoid_volterra(w, b, pre, h, total=1.0, out=None):
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

    Every (m+1)^2 pass runs in place in two work arrays allocated per
    call, because a fresh table per pass costs more in page faults than in
    arithmetic; an elementwise ufunc gives the same bits wherever it
    writes.
    """
    m = len(b) - 1
    below = np.tri(m + 1, k=-1, dtype=bool)
    ea = _exposure_rows(w, h)
    # e^{-Omega} on and above the diagonal, 1 below it
    ea[below] = 0.0
    eker = np.exp(np.negative(ea, out=ea), out=ea)
    kern = w * eker  # K[v, j], valid v <= j

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
    f, p = _trapezoid_volterra(w, w0 * e0, e0, h)
    p[np.tri(m + 1, k=-1, dtype=bool)] = np.nan
    return SurvivalTable(grid=grid, p=p, f=f, sup_norm=omega.sup_norm,
                         label=omega.label)


def survival_series(omega: LatpIntensity, s: float, t: float,
                    kmax: int = 25, step: float = 2.5e-3) -> float:
    """Truncated series for P(N(t) = N(s)).

    Term k integrates the density of k arrivals in (0, s] times the
    no-arrival factor from the last arrival to t.  The k-th arrival-time
    density g_k is built iteratively from g_{k-1}, so the nested simplex
    integrals cost one matrix-vector product per term.
    """
    if s > t + 1e-12:
        raise DomainError(f"need s <= t, got ({s}, {t})")
    if s < -1e-12 or t > omega.horizon + 1e-9:
        raise DomainError(f"({s}, {t}) outside [0, {omega.horizon}]")
    if isinstance(kmax, bool) or not isinstance(kmax, (int, np.integer)):
        raise DomainError(f"kmax: must be an integer, got {kmax!r}")
    if kmax < 0:
        raise DomainError(f"kmax: must be >= 0, got {kmax}")
    if not 0 < step < np.inf:  # NaN fails the comparison
        raise DomainError(f"step: must be positive and finite, got {step!r}")
    s = min(s, t)
    n1 = max(1, int(np.ceil(s / step))) if s > 0 else 0
    inner = np.linspace(0.0, s, n1 + 1)
    if t > s + 1e-12:
        n2 = max(1, int(np.ceil((t - s) / step)))
        grid = np.concatenate([inner, np.linspace(s, t, n2 + 1)[1:]])
    else:
        grid = inner
    # the series reads the hazard rows of the nodes of [0, s] only, and the
    # k = 0 term none (row 0 is built anyway); each row's exposure integral
    # is independent of the others
    nx = n1 + 1 if kmax and n1 else 0
    w, w0 = _hazard_rows(omega, grid, max(nx, 1))
    dg = np.diff(grid)
    expo = _exposure_rows(w, dg)
    expo0 = _cumulative_trapezoid(w0, dg)

    i_t = len(grid) - 1
    total = float(np.exp(-expo0[i_t]))  # k = 0: no arrival up to t
    if nx == 0:
        return total

    tw = _trapezoid_weights(nx, s / n1)
    kern = (w[:nx, :nx] * np.exp(-expo[:nx, :nx]))
    step_mat = tw * kern.T  # A[j, v] = weight * K(v, u_j)

    # weights of int_0^s g(u) e^{-Omega(u, t)} du: the last row of tw
    tail = tw[-1] * np.exp(-expo[:nx, i_t])

    g = w0[:nx] * np.exp(-expo0[:nx])  # first-arrival density g_1
    total += float(np.dot(tail, g))
    for _ in range(2, kmax + 1):
        g = step_mat @ g
        total += float(np.dot(tail, g))
    return total


def _trapezoid_weights(nx: int, h: float) -> np.ndarray:
    """Row j holds the trapezoid weights of int_0^{u_j} dv on nodes u_v = v h:
    h / 2 at v = 0 and v = j, h in between, 0 for v > j (row 0 is zero)."""
    tw = np.tril(np.full((nx, nx), h))
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
    p = table.p
    h = table.step
    sup = omega.sup_norm
    (dt, in_dt), (ds, in_ds) = _upper_diffs(p)
    dt, ds = dt / h, ds / h
    # rows p[i, i:] and columns p[:j+1, j] of the upper triangle
    return DerivativeReport(dt_sign=_line_max(dt, in_dt, 1),
                            dt_excess=_line_max(-dt - sup, in_dt, 1),
                            ds_sign=_line_max(-ds, in_ds, 0),
                            ds_excess=_line_max(ds - sup * p[:-1], in_ds, 0),
                            step=h)


def _upper_diffs(p):
    """Differences of p along t and along s, each with its upper-triangle mask.

    ``dt[i, j] = p[i, j+1] - p[i, j]`` counts for j >= i, and
    ``ds[i, j] = p[i+1, j] - p[i, j]`` for j > i.
    """
    m = len(p)
    k = max(m - 1, 0)
    return ((np.diff(p, axis=1), np.triu(np.ones((m, k), dtype=bool))),
            (np.diff(p, axis=0), np.triu(np.ones((k, m), dtype=bool), k=1)))


def _line_max(d, inside, axis):
    """max(0, the largest maximum of a line of d over ``inside``).

    A line holding a NaN has a NaN maximum, which the builtin max of a
    line-by-line loop skips; so it is skipped here.
    """
    lines = np.max(d, axis=axis, where=inside, initial=-np.inf)
    return max(0.0, float(np.max(lines, where=~np.isnan(lines),
                                 initial=-np.inf)))
