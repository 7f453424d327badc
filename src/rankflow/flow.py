"""Limit flows and the deterministic hydrodynamic solver.

The initial/boundary set carries initial points (z, 0) and upstream boundary
points (0, t0), totally ordered with later boundary times largest, then the
shared corner (0, 0), then initial points with smaller z larger.  A flow
assigns to an admissible pair (gamma, t >= t0) a position in [0, 1]; it is
non-increasing in gamma, non-decreasing in t, and starts at y0(gamma).

The limit distribution function phi_theta integrates, over the population
measure restricted to [y0, 1], the no-arrival probability of the point
process whose hazard reads the class rate field along the flow.  The limit
flow y_C is the unique fixed point of theta = 1 - phi_theta(W, ., .), found
here by damped Picard iteration on a grid.
"""

from __future__ import annotations

import logging
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .intensity import ClassHazard, PopulationSpec
from .latp import (MAX_TABLE_ENTRIES, LatpIntensity, _bilinear,
                   _cumulative_trapezoid, _grid_cells,
                   _require_fine_step, _trapezoid_volterra, _triangle_value,
                   _upper_diffs, thin_last_arrival)

log = logging.getLogger(__name__)

_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the initial/boundary set: (z, 0) or (0, t0)."""

    kind: str  # "initial" | "boundary"
    coord: float

    def __post_init__(self):
        if self.kind not in ("initial", "boundary"):
            raise ConfigError(f"unknown boundary point kind {self.kind!r}")
        if not np.isfinite(self.coord):
            raise ConfigError(f"{self.kind} coordinate must be finite, got {self.coord}")
        if self.coord < -_TOL:
            raise ConfigError(f"negative coordinate {self.coord}")

    @property
    def y0(self) -> float:
        return self.coord if self.kind == "initial" else 0.0

    @property
    def t0(self) -> float:
        return self.coord if self.kind == "boundary" else 0.0

    def __str__(self):
        return f"({self.kind[0]}:{self.coord:g})"


def initial(z: float) -> BoundaryPoint:
    return BoundaryPoint("initial", float(z))


def boundary(t0: float) -> BoundaryPoint:
    return BoundaryPoint("boundary", float(t0))


def _require_grid(n_z: int, n_t: int) -> None:
    # the boundary tables are (n_t+1)^2, the initial ones (n_z+1)(n_t+1)
    for name, value, size in (("n_t", n_t, (n_t + 1) ** 2),
                              ("n_z", n_z, (n_z + 1) * (n_t + 1))):
        if value < 1:
            raise ConfigError(f"{name}: must be >= 1, got {value}")
        if size > MAX_TABLE_ENTRIES:
            raise ConfigError(f"{name}: {value} makes a table of {size} "
                              f"entries, above the {MAX_TABLE_ENTRIES} allowed")


def _admissible(y0, t0, t, horizon):
    """y0, t0 and t as broadcast float arrays, refusing a pair with t
    outside [t0, horizon] or y0 above 1, and a NaN (it fails every test)."""
    y0, t0, t = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                      for x in (y0, t0, t)))
    bad = ~((t >= t0 - 1e-12) & (t <= horizon + 1e-9) & (y0 <= 1 + 1e-12))
    if np.any(bad):
        i = np.flatnonzero(bad.ravel())[0]
        raise DomainError(f"(y0={y0.flat[i]}, t0={t0.flat[i]}, "
                          f"t={t.flat[i]}) not admissible")
    return y0, t0, t


class FlowGrid:
    """A flow sampled on initial points z_j = j/n_z and boundary times l*dt.

    Interpolation is linear in time and linear in the gamma coordinate.
    Boundary rows are stored zero-padded before their start time, which
    extends curves continuously by 0 below their start; strict queries
    reject inadmissible (gamma, t) pairs.
    """

    def __init__(self, horizon: float, init_values: np.ndarray,
                 bdry_values: np.ndarray, check: bool = True):
        init_values = np.ascontiguousarray(init_values, dtype=float)
        bdry_values = np.ascontiguousarray(bdry_values, dtype=float)
        n_zp, n_tp = init_values.shape
        if bdry_values.shape != (n_tp, n_tp):
            raise ConfigError(
                f"boundary table must be ({n_tp},{n_tp}), got {bdry_values.shape}")
        if n_zp < 2 or n_tp < 2:
            raise ConfigError("flow grid needs at least 2 nodes per axis")
        self.horizon = float(horizon)
        if not 0 < self.horizon < np.inf:
            raise ConfigError(
                f"horizon: must be positive and finite, got {self.horizon}")
        self.n_z = n_zp - 1
        self.n_t = n_tp - 1
        self.dt = self.horizon / self.n_t
        self.z_nodes = np.arange(n_zp) / self.n_z
        self.t_nodes = np.arange(n_tp) * self.dt
        self.init_values = init_values
        self.bdry_values = bdry_values
        if check:
            self._check()
        init_values.flags.writeable = False
        bdry_values.flags.writeable = False

    def _check(self):
        iv, bv = self.init_values, self.bdry_values
        tol = 1e-9
        for name, table in (("initial", iv), ("boundary", bv)):
            # written so that NaN, which fails every comparison, is refused
            if not (np.all(table >= -tol) and np.all(table <= 1 + tol)):
                raise ConfigError(
                    f"{name} table: flow values escape [0,1] or are NaN")
        if np.max(np.abs(iv[:, 0] - self.z_nodes)) > tol:
            raise ConfigError("initial rows must start at their z")
        if np.any(np.abs(np.diag(bv)) > tol):
            raise ConfigError("boundary rows must start at 0")
        if np.max(np.abs(bv[0] - iv[0])) > tol:
            raise ConfigError("corner rows (0,0) disagree")
        if np.any(np.diff(iv, axis=1) < -tol):
            raise ConfigError("flow not non-decreasing in t (initial rows)")
        (dt, in_dt), (ds, in_ds) = _upper_diffs(bv)
        if np.any(dt[in_dt] < -tol):
            raise ConfigError("flow not non-decreasing in t (boundary rows)")
        if np.any(np.diff(iv, axis=0) < -tol):
            raise ConfigError("flow not non-decreasing in z across initial rows")
        if np.any(ds[in_ds] > tol):
            raise ConfigError("flow not monotone across boundary rows")

    # -- strict evaluation ------------------------------------------------

    def theta(self, gamma: BoundaryPoint, t: float) -> float:
        return float(self._thetas(gamma.y0, gamma.t0, t))

    def _thetas(self, y0, t0, t):
        """theta at every pair given by its y0, t0 and t, if admissible."""
        return self._eval_from(*_admissible(y0, t0, t, self.horizon))

    # -- lenient vector evaluation (engines and kernels) -------------------

    def _z_cell(self, z):
        """Initial row cell of z and z's offset in it (not clipped)."""
        u = np.asarray(z, dtype=float) * self.n_z
        iz = np.minimum(u.astype(int), self.n_z - 1)
        return iz, u - iz

    def _eval_from(self, y0, last, t):
        """theta at t along the curve from a last reset time ``last``.

        ``last == 0`` (no reset yet) follows the initial curve from y0;
        ``last > 0`` follows the boundary curve started at last, which is
        zero-extended before last.
        """
        last = np.asarray(last, dtype=float)
        # a time cell is also the boundary row cell of a start time
        cell = _grid_cells(t, self.dt, self.n_t)
        out = np.where(last == 0.0,
                       _bilinear(self.init_values, *self._z_cell(y0), *cell),
                       _bilinear(self.bdry_values,
                                 *_grid_cells(last, self.dt, self.n_t), *cell))
        return float(out) if out.ndim == 0 else out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(horizon: float, n_z: int, n_t: int) -> "FlowGrid":
        """theta(gamma, t) = y0(gamma): frozen initial positions."""
        _require_grid(n_z, n_t)
        init = np.tile((np.arange(n_z + 1) / n_z)[:, None], (1, n_t + 1))
        bdry = np.zeros((n_t + 1, n_t + 1))
        return FlowGrid(horizon, init, bdry)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("kind,coord,t,theta\n")
            for jz, z in enumerate(self.z_nodes):
                for jt, t in enumerate(self.t_nodes):
                    fh.write(f"initial,{float(z)!r},{float(t)!r},"
                             f"{float(self.init_values[jz, jt])!r}\n")
            for l in range(self.n_t + 1):
                for jt in range(l, self.n_t + 1):
                    fh.write(f"boundary,{float(self.t_nodes[l])!r},"
                             f"{float(self.t_nodes[jt])!r},"
                             f"{float(self.bdry_values[l, jt])!r}\n")


def _hazard_along(flow: FlowGrid, hazard, cls, y0, last, t):
    """The rate read along the flow: ``hazard``, a ``ClassHazard``, of
    class cls at time t at the flow's position on the curve from the
    particle's last reset, the initial curve from y0 before its first jump
    (``last == 0``), the boundary curve started at ``last`` after it."""
    return hazard(cls, flow._eval_from(y0, last, t), t)


def _thin_along_flow(flow: FlowGrid, hazard, cls, y0, times, owners, marks,
                     envelope) -> np.ndarray:
    """Thin the marked candidates of particles that read their hazard along
    the flow: owner o reads class cls[o] of ``hazard``, a ``ClassHazard``,
    from its initial position y0[o].  Given the flow, each is a
    last-arrival process with kernel ``tilde_w(flow, field, y0[o])`` of its
    class's field, so one ``thin_last_arrival`` call thins them all;
    returns its accepted mask."""
    return thin_last_arrival(
        times, owners, marks, len(y0),
        lambda o, last, t: _hazard_along(flow, hazard, cls[o], y0[o], last, t),
        envelope)


def tilde_w(flow: FlowGrid, field, z: float) -> LatpIntensity:
    """Rate field read along the flow: the hazard kernel of one particle.

    The s = 0 row follows the initial curve from z; rows s > 0 follow the
    boundary curve started at s and are independent of z.  The s -> 0+
    limit (the corner curve) is supplied for renewal-kernel quadrature,
    because the kernel is discontinuous at s = 0 whenever z > 0; the corner
    (0, 0) is one point, so it is read as the initial curve from 0.
    """
    if not 0.0 <= z <= 1.0 + _TOL:
        raise DomainError(f"z must lie in [0,1], got {z}")
    hazard = ClassHazard((field,))
    return LatpIntensity(
        lambda s, t: _hazard_along(flow, hazard, 0, z, s, t),
        min(flow.horizon, field.horizon), sup_norm=field.sup_norm,
        s0_limit=lambda t: _hazard_along(flow, hazard, 0, 0.0, 0.0, t),
        label=f"tilde[{field.kind},z={z:g}]")


def _h_vector(h, spec: PopulationSpec) -> np.ndarray:
    if h is None:
        return np.ones(spec.n_classes)
    if hasattr(h, "per_class"):
        return np.asarray(h.per_class(spec), dtype=float)
    arr = np.asarray(h, dtype=float)
    if arr.shape != (spec.n_classes,):
        raise ConfigError(f"h must have one value per class, got shape {arr.shape}")
    return arr


class PhiEvaluator:
    """Limit distribution functions for one flow and one population spec.

    Position cells are the n_z flow cells; within a cell the survival
    probability is evaluated at the midpoint curve, and the class density
    contributes its exact cell mass, so the quadrature is exact at
    histogram-cell resolution.  The pre-first-arrival survival, weighted by
    cell mass and summed from row r up, is the tail ``init_phi[k, r]``.  After
    an arrival the hazard follows a boundary curve, which does not depend on
    the initial position, so every cell of a class shares one renewal kernel.
    The renewal equation and the no-arrival formula are linear in the
    forcing, so the mass-weighted sum of the per-cell survival tables,
    ``bdry_phi[k]``, is one Volterra solve per class, forced by the
    mass-weighted first-arrival density and pre-arrival term.

    Both tables hold the class weight: ``init_phi[k, r, j]`` is
    phi(1_k, (z_r, 0), t_j), and ``bdry_phi[k, l, j]`` is
    phi(1_k, (0, t_l), t_j) for j >= l and 0 for j < l.
    """

    def __init__(self, flow: FlowGrid, spec: PopulationSpec):
        if not abs(flow.horizon - spec.horizon) <= 1e-9:  # NaN disagrees
            raise ConfigError("flow and spec horizons disagree")
        self.flow = flow
        self.spec = spec
        n_c, n_tp = flow.n_z, flow.n_t + 1
        tn = flow.t_nodes
        K = spec.n_classes

        self.mass = np.array([cls.weight * cls.density.cell_masses(flow.z_nodes)
                              for cls in spec.classes])

        # midpoint initial curves; linear-in-z interpolation makes the
        # midpoint value the row average.  The fields broadcast the time
        # nodes across the rows themselves.
        theta_mid = 0.5 * (flow.init_values[:-1] + flow.init_values[1:])

        self.init_phi = np.zeros((K, n_c + 1, n_tp))
        self.bdry_phi = np.empty((K, n_tp, n_tp))
        for k, cls in enumerate(spec.classes):
            w_mid = cls.field._values(theta_mid, tn)
            s0 = np.exp(-_cumulative_trapezoid(w_mid, flow.dt))
            weighted = self.mass[k][:, None] * s0
            self.init_phi[k, :-1] = np.cumsum(weighted[::-1], axis=0)[::-1]
            w_b = cls.field._values(flow.bdry_values, tn)
            _trapezoid_volterra(
                w_b, self.mass[k] @ (w_mid * s0), self.mass[k] @ s0, flow.dt,
                total=float(np.sum(self.mass[k])), out=self.bdry_phi[k])
        self.init_phi.flags.writeable = False
        self.bdry_phi.flags.writeable = False

    # -- grids for the solver ----------------------------------------------

    def phi_grid(self):
        """(init_phi, bdry_phi) of h = 1: the class grids summed."""
        hv = np.ones(self.spec.n_classes)
        return (np.tensordot(hv, self.init_phi, axes=1),
                np.tensordot(hv, self.bdry_phi, axes=1))

    # -- values at pairs ----------------------------------------------------

    def phi(self, h, gamma: BoundaryPoint, t: float) -> float:
        return float(self._phis(_h_vector(h, self.spec)[None],
                                [gamma.kind == "initial"], [gamma.y0],
                                [gamma.t0], [t])[0, 0])

    def _phis(self, hvs, initial, y0, t0, t) -> np.ndarray:
        """phi(h, gamma, t) for every row h of ``hvs`` (values per class)
        at every pair, given by whether gamma is initial, its y0, t0 and t:
        shape (len(hvs), pairs), refused as ``_admissible`` refuses.  An
        initial pair between rows c and c + 1 of ``init_phi`` weighs row
        c + 1 by each class's share of the cell's mass below y0; a boundary
        pair reads the h-weighted ``bdry_phi`` by ``_triangle_value``."""
        fl, edges, tn = self.flow, self.flow.z_nodes, self.flow.t_nodes
        y0, t0, t = _admissible(y0, t0, t, fl.horizon)
        t = np.clip(t, 0.0, fl.horizon)
        c = np.maximum(np.searchsorted(edges, y0 + 1e-15, side="right") - 1, 0)
        inside, c = c < fl.n_z, np.minimum(c, fl.n_z - 1)
        m = self.mass[:, c]
        below = np.array([cls.weight * cls.density.mass(edges[c], y0)
                          for cls in self.spec.classes])
        share = np.divide(below, m, out=np.zeros(m.shape), where=m != 0)
        # the time cell from the nodes themselves, so that node t_j reads
        # column j exactly, though t_j / dt need not be j
        j = np.minimum(np.searchsorted(tn, t, side="right"), fl.n_t) - 1
        mu = np.where(t >= tn[-1], 1.0, (t - tn[j]) / fl.dt)[:, None]
        rows = _bilinear(self.init_phi.transpose(1, 2, 0), c, share.T, j, mu)
        out = np.where(inside, hvs @ rows.T, 0.0)
        if np.all(initial):
            return out
        return np.where(initial, out, _triangle_value(
            np.tensordot(hvs, self.bdry_phi, axes=1), fl.dt, fl.n_t, t0, t))


def _project(init, bdry, work):
    """Clamp a flow iterate back into the admissible class, in place;
    returns the largest correction applied at a node: the initial table and
    the boundary table on and above its diagonal.  ``work``, an array of
    ``bdry``'s shape, is overwritten."""
    n_z, n_tp = len(init) - 1, len(bdry)
    padding = np.tri(n_tp, k=-1, dtype=bool)
    np.clip(init, 0.0, 1.0, out=init)
    np.clip(bdry, 0.0, 1.0, out=bdry)
    init_before = init.copy()
    np.copyto(work, bdry)
    init[:, 0] = np.arange(n_z + 1) / n_z
    # boundary rows start at 0, and the running maximum keeps them 0 before
    # their start; every pass works in place, because each fresh
    # (n_t+1)^2 array costs the solver its page faults
    bdry[np.tri(n_tp, dtype=bool)] = 0.0
    np.maximum.accumulate(init, axis=1, out=init)
    np.maximum.accumulate(bdry, axis=1, out=bdry)
    np.maximum.accumulate(init, axis=0, out=init)
    # the corner (0, 0) is one point, tagged initial or boundary
    bdry[0] = init[0]
    np.minimum(bdry, init[0], out=bdry)
    np.minimum.accumulate(bdry, axis=0, out=bdry)
    # the padding stays +0.0 where init[0] holds a -0.0
    bdry[padding] = 0.0
    np.subtract(bdry, work, out=work)
    work[padding] = 0.0
    return max(float(np.max(np.abs(init - init_before))),
               float(np.max(np.abs(work, out=work))))


# the arrays ``LimitSolution.save`` writes
_CACHE_KEYS = ("horizon", "init_values", "bdry_values", "residual",
               "residual_history", "spec_hash")


@dataclass
class LimitSolution:
    """Solved limit flow with its cached phi evaluator."""

    spec: PopulationSpec
    flow: FlowGrid
    evaluator: PhiEvaluator
    residual: float
    residual_history: list
    iterations: int

    @property
    def spec_hash(self) -> str:
        return self.spec.fingerprint()

    def phi(self, h, gamma: BoundaryPoint, t: float) -> float:
        return self.evaluator.phi(h, gamma, t)

    def save(self, path) -> None:
        np.savez(path, horizon=self.flow.horizon,
                 init_values=self.flow.init_values,
                 bdry_values=self.flow.bdry_values,
                 residual=self.residual,
                 residual_history=np.asarray(self.residual_history),
                 spec_hash=np.bytes_(self.spec_hash.encode()))

    @staticmethod
    def load(path, spec: PopulationSpec) -> "LimitSolution":
        """Read a ``save`` cache; ConfigError names a file that is not one."""
        try:
            data = np.load(path)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path}: not a solve cache: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ConfigError(f"{path}: not a solve cache: one bare array")
        with data:
            missing = [k for k in _CACHE_KEYS if k not in data.files]
            if missing:
                raise ConfigError(
                    f"{path}: not a solve cache: no {missing[0]!r} in it")
            stored = bytes(data["spec_hash"]).decode()
            if stored != spec.fingerprint():
                raise ConfigError(
                    f"cache was solved for spec {stored}, not {spec.fingerprint()}")
            flow = FlowGrid(float(data["horizon"]), data["init_values"],
                            data["bdry_values"])
            history = [float(r) for r in data["residual_history"]]
            return LimitSolution(spec=spec, flow=flow,
                                 evaluator=PhiEvaluator(flow, spec),
                                 residual=float(data["residual"]),
                                 residual_history=history,
                                 iterations=len(history))


def _residual(flow: FlowGrid, upd_init, upd_bdry, upper, work) -> float:
    """Largest admissible-node gap; NaN if any gap is NaN.  ``upper`` masks
    the boundary table's admissible nodes; ``work``, an array of its shape,
    is overwritten."""
    gap = np.abs(np.subtract(flow.bdry_values, upd_bdry, out=work), out=work)
    return float(np.maximum(np.max(np.abs(flow.init_values - upd_init)),
                            np.max(gap, where=upper, initial=-np.inf)))


def solve_y_c(spec: PopulationSpec, n_z: int = 20, n_t: int = 200,
              tol: float = 1e-8, max_iter: int = 80) -> LimitSolution:
    """Picard iteration for the unique flow with theta = 1 - phi_theta(W).

    Starts from the frozen flow theta_0(gamma, t) = y0(gamma) with full
    steps; at the first residual increase the step drops to 0.5.  Raises
    ConvergenceError with the residual history when the budget runs out or
    at the first non-finite residual.
    """
    _require_grid(n_z, n_t)
    _require_fine_step(spec.horizon / n_t,
                       max(c.field.sup_norm for c in spec.classes), ConfigError,
                       "n_t")
    if max_iter < 1:
        raise ConfigError(f"max_iter: must be >= 1, got {max_iter}")
    if not 0 < tol < np.inf:
        raise ConfigError(f"tol: must be positive and finite, got {tol}")
    flow = FlowGrid.identity(spec.horizon, n_z, n_t)
    # the passes over (n_t+1)^2 tables run in place in the fresh update
    # and in one work array, which the solve frees when it returns
    upper = ~np.tri(n_t + 1, k=-1, dtype=bool)
    work = np.empty((n_t + 1, n_t + 1))
    alpha = 1.0
    history = []
    for it in range(1, max_iter + 1):
        ev = PhiEvaluator(flow, spec)
        upd_init, upd_bdry = ev.phi_grid()
        np.subtract(1.0, upd_init, out=upd_init)
        np.subtract(1.0, upd_bdry, out=upd_bdry)
        res = _residual(flow, upd_init, upd_bdry, upper, work)
        history.append(res)
        log.debug("picard iteration %d: residual %.3e (alpha=%.2f)", it, res, alpha)
        if not np.isfinite(res):
            raise ConvergenceError(
                f"non-finite residual {res} at iteration {it}", history)
        if res < tol:
            flow._check()
            return LimitSolution(spec=spec, flow=flow, evaluator=ev,
                                 residual=res, residual_history=history,
                                 iterations=it)
        if len(history) > 1 and res > history[-2] and alpha > 0.5:
            alpha = 0.5
            log.info("residual increased (%.3e -> %.3e); damping to %.2f",
                     history[-2], res, alpha)
        # (1 - alpha) * theta + alpha * update, written over the update
        np.multiply(alpha, upd_init, out=upd_init)
        upd_init += (1 - alpha) * flow.init_values
        np.multiply(alpha, upd_bdry, out=upd_bdry)
        upd_bdry += np.multiply(1 - alpha, flow.bdry_values, out=work)
        moved = _project(upd_init, upd_bdry, work)
        if moved > 1e-10:
            log.info("isotonic projection active: moved %.3e", moved)
        flow = FlowGrid(spec.horizon, upd_init, upd_bdry, check=False)
    raise ConvergenceError(
        f"no fixed point after {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", history)


@dataclass(frozen=True)
class OdeFormReport:
    max_residual: float
    argmax_gamma: str
    argmax_t: float
    n_z: int
    n_t: int


def verify_ode_form(sol: LimitSolution) -> OdeFormReport:
    """Residual of the integral form of the limit flow.

    Both sides of
      y_C(gamma, t) = y0 + int_{t0}^{t} int_{z >= y_C(gamma,s)} w dmu_s ds
    are evaluated on the grid, with mu_s read off through differences of
    phi along the gamma grid.  The residual is second order in dt: at
    n_z = 20 and a 1e-12 tolerance, each doubling of n_t from 100 to 800
    cuts it by 3.98-4.0 on the shipped mixture and affine specs.
    """
    flow = sol.flow
    n_z, h = flow.n_z, flow.dt
    # grid gammas in ascending order: initial z = 1 .. 0, then boundary
    # t0 = dt .. horizon; row q is admissible from time node j0[q] on
    j0 = np.concatenate([np.zeros(n_z + 1, dtype=int), np.arange(1, flow.n_t + 1)])
    adm = np.arange(flow.n_t + 1) >= j0[:, None]
    yvals = np.concatenate([flow.init_values[::-1], flow.bdry_values[1:]])
    integrand = _flux_integrand(sol, yvals, adm)

    # a zero step before t0 starts each row's integral at t0
    y0 = np.concatenate([flow.z_nodes[::-1], np.zeros(flow.n_t)])
    rhs = _cumulative_trapezoid(integrand, np.where(adm[:, :-1], h, 0.0))
    np.add(y0[:, None], rhs, out=rhs)
    resid = np.abs(np.subtract(yvals, rhs, out=rhs), out=rhs)
    resid[~adm] = 0.0
    q, j = np.unravel_index(np.argmax(resid), resid.shape)
    worst = float(resid[q, j])
    arg = ("", 0.0)
    if worst > 0:
        gamma = (initial(flow.z_nodes[n_z - q]) if q <= n_z
                 else boundary((q - n_z) * h))
        arg = (str(gamma), float(flow.t_nodes[j]))
    return OdeFormReport(max_residual=worst, argmax_gamma=arg[0],
                         argmax_t=arg[1], n_z=n_z, n_t=flow.n_t)


def _flux_integrand(sol: LimitSolution, yvals, adm):
    """I[q, j] = flux through [y_C(gamma_q, t_j), 1] on the ordered grid
    rows ``yvals``, admissible where ``adm``: a running sum over the cells
    between rows q' <= q.  Each column's inadmissible rows come last, so
    the fields are read on the cells below admissible rows only, and the
    sum over the admissible rows never reaches the rest."""
    init_phi, bdry_phi = sol.evaluator.init_phi, sol.evaluator.bdry_phi
    cells = adm[1:]
    mids = np.clip(0.5 * (yvals[1:][cells] + yvals[:-1][cells]), 0.0, 1.0)
    tt = np.broadcast_to(sol.flow.t_nodes, cells.shape)[cells]
    flux = np.zeros(len(mids))
    for k, cls in enumerate(sol.spec.classes):
        phi_rows = np.concatenate([init_phi[k, ::-1], bdry_phi[k, 1:]])
        dm = np.clip(phi_rows[1:][cells] - phi_rows[:-1][cells], 0.0, None)
        flux += cls.field._values(mids, tt) * dm
    integrand = np.zeros(yvals.shape)
    integrand[1:][cells] = flux
    return np.cumsum(integrand, axis=0, out=integrand)


@dataclass(frozen=True)
class TaggedPath:
    """Limit path of one tagged particle: flow segments between resets."""

    flow: FlowGrid
    y_start: float
    jump_times: np.ndarray

    def sample(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        resets = np.concatenate([[0.0], self.jump_times])
        last = resets[np.searchsorted(self.jump_times, ts, side="right")]
        return np.asarray(self.flow._eval_from(self.y_start, last, ts))

    def jump_count(self) -> int:
        return len(self.jump_times)


def tagged_limit_path(sol: LimitSolution, field, y_start: float,
                      candidates) -> TaggedPath:
    """Thin one tagged limit path against its marked candidate stream.

    ``candidates = (times, marks)`` must be the particle's own stream with
    marks uniform on [0, sup_norm); sharing it with the finite-N engine
    couples the two paths.  Between jumps the particle rides the limit flow
    from its last reset point; a jump resets it to the boundary curve.
    """
    times, marks = (np.asarray(x, dtype=float) for x in candidates)
    accepted = _thin_along_flow(
        sol.flow, ClassHazard((field,)), np.zeros(1, dtype=np.int64),
        np.array([y_start]), times, np.zeros(len(times), dtype=np.int64),
        marks, field.sup_norm)
    return TaggedPath(flow=sol.flow, y_start=float(y_start),
                      jump_times=times[accepted])
