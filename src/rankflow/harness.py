"""Desk-scale experiment harness.

Reproduces the limit behaviour empirically: N-sweeps of the lattice-sup
distance between empirical and limit distribution functions with a log-log
slope fit, flow-driven sweeps including the uniqueness check against a
non-fixed-point flow, coupling decay, tagged-particle convergence under
shared noise, and cross-method validation of the point-process solvers.

Every report is a pure function of (plan, seeds): rows are emitted in
deterministic order and all aggregates are recomputed from the rows.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field as dc_field, asdict
from functools import cached_property

import numpy as np

from .errors import ConfigError
from . import latp, srp, streams
from .flow import FlowGrid, LimitSolution, PhiEvaluator, solve_y_c, tagged_limit_path
from .intensity import PopulationSpec, assign_population, pin_particles
from .measure import (EvaluationLattice, LogEvaluator, TestFunction,
                      limit_values)


@dataclass(frozen=True)
class SolverSettings:
    n_z: int = 20
    n_t: int = 200
    tol: float = 1e-8
    max_iter: int = 80


@dataclass(frozen=True)
class ExperimentPlan:
    spec: PopulationSpec
    n_values: tuple
    seeds: int = 20
    test_functions: tuple = (TestFunction.ones(),)
    solver: SolverSettings = SolverSettings()
    workers: int = 1

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if len(ns) < 1 or any(b <= a for a, b in zip(ns[:-1], ns[1:])):
            raise ConfigError(f"n_values must be strictly increasing, got {ns}")
        if self.seeds < 2:
            raise ConfigError("at least 2 seeds per N are required")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        object.__setattr__(self, "n_values", ns)

    @cached_property
    def lattice(self) -> EvaluationLattice:
        return EvaluationLattice.regular(self.spec.horizon)


# -- aggregation ---------------------------------------------------------------


@dataclass
class SweepMetric:
    """Per-N distribution of one scalar across seeds, with a log-log fit."""

    label: str
    n_values: list
    rows: list  # (N, seed, value)

    def values_for(self, n) -> np.ndarray:
        return np.array([v for (nn, _, v) in self.rows if nn == n])

    @property
    def means(self) -> list:
        return [float(self.values_for(n).mean()) for n in self.n_values]

    @property
    def stderrs(self) -> list:
        out = []
        for n in self.n_values:
            v = self.values_for(n)
            out.append(float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0)
        return out

    def slope_fit(self):
        """Least-squares slope of log(mean) vs log(N), with its stderr."""
        x = np.log(np.asarray(self.n_values, dtype=float))
        y = np.asarray(self.means)
        if np.any(y <= 0) or len(x) < 2:
            return float("nan"), float("nan")
        ly = np.log(y)
        xbar = x.mean()
        sxx = float(np.sum((x - xbar) ** 2))
        slope = float(np.sum((x - xbar) * (ly - ly.mean())) / sxx)
        if len(x) > 2:
            resid = ly - (ly.mean() + slope * (x - xbar))
            se = math.sqrt(float(np.sum(resid ** 2)) / (len(x) - 2) / sxx)
        else:
            se = float("nan")
        return slope, se

    def endpoint_drop(self) -> float:
        """Decrease first->last in units beyond 2 pooled standard errors."""
        m = self.means
        s = self.stderrs
        pooled = math.sqrt(s[0] ** 2 + s[-1] ** 2)
        return (m[0] - m[-1]) - 2.0 * pooled

    def strictly_decreasing(self) -> bool:
        m = self.means
        return all(b < a for a, b in zip(m[:-1], m[1:]))

    def summary(self) -> dict:
        slope, se = self.slope_fit()
        return {
            "label": self.label,
            "n_values": list(self.n_values),
            "means": self.means,
            "stderrs": self.stderrs,
            "slope": slope,
            "slope_stderr": se,
            "endpoint_drop_beyond_2se": self.endpoint_drop(),
            "strictly_decreasing": self.strictly_decreasing(),
        }


@dataclass
class SweepReport:
    kind: str
    metrics: list
    meta: dict = dc_field(default_factory=dict)

    def metric(self, label: str) -> SweepMetric:
        for m in self.metrics:
            if m.label == label:
                return m
        raise KeyError(label)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("metric,N,seed,value\n")
            for m in self.metrics:
                for n, seed, v in m.rows:
                    fh.write(f"{m.label},{n},{seed},{float(v)!r}\n")

    def summary(self) -> dict:
        return {"kind": self.kind, "meta": self.meta,
                "metrics": [m.summary() for m in self.metrics]}


# -- sweep workers ----------------------------------------------------------


def _distance_worker(args):
    """One (N, seed) run: simulate, then lattice sups against limit values.

    ``flow`` is None for the original model; otherwise the run is
    flow-driven and its empirical curve is also compared to theta.
    """
    assignment, seed, flow, lattice, h_vecs, limit, theta = args
    if flow is None:
        log = srp.simulate(assignment, seed=seed)
    else:
        log = srp.simulate_flow_driven(assignment, flow, seed=seed)
    counts = LogEvaluator(log).lattice_counts(lattice)
    dists = [float(np.max(np.abs(counts.phi(hv) - lim)))
             for hv, lim in zip(h_vecs, limit)]
    char_dist = (None if theta is None
                 else float(np.max(np.abs(counts.curve() - theta))))
    return assignment.n, seed, dists, char_dist


def _assignments(plan: ExperimentPlan) -> list:
    """The stratified assignment of each N; every seed at that N shares it."""
    return [assign_population(plan.spec, n, mode="stratified")
            for n in plan.n_values]


def _run_jobs(jobs, worker, workers: int):
    if workers <= 1:
        return [worker(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, jobs))


def solve_limit(plan: ExperimentPlan) -> LimitSolution:
    s = plan.solver
    return solve_y_c(plan.spec, n_z=s.n_z, n_t=s.n_t, tol=s.tol,
                     max_iter=s.max_iter)


def convergence_sweep(plan: ExperimentPlan,
                      sol: LimitSolution | None = None) -> SweepReport:
    """Original-model sweep: sup |phi^N - phi_{y_C}| per (N, seed, h)."""
    if sol is None:
        sol = solve_limit(plan)
    return _sweep(plan, sol.evaluator, flow=None, kind="convergence",
                  meta={"residual": sol.residual})


def flow_driven_sweep(plan: ExperimentPlan, flow: FlowGrid | None = None,
                      sol: LimitSolution | None = None) -> SweepReport:
    """Flow-driven sweep against phi_theta, plus curve distance to theta.

    With theta = y_C the curve distance must vanish as N grows; for any
    other flow it plateaus above a positive floor (the fixed point is
    unique), while the phi distance still vanishes.
    """
    if flow is None:
        if sol is None:
            sol = solve_limit(plan)
        flow, evaluator = sol.flow, sol.evaluator
    else:
        evaluator = PhiEvaluator(flow, plan.spec)
    return _sweep(plan, evaluator, flow=flow, kind="flow_driven", meta={})


def _sweep(plan, evaluator, flow, kind, meta) -> SweepReport:
    h_vecs = [h.per_class(plan.spec) for h in plan.test_functions]
    lattice = plan.lattice
    limit, theta = limit_values(lattice, evaluator, h_vecs, flow)
    jobs = [(assignment, seed, flow, lattice, h_vecs, limit, theta)
            for assignment in _assignments(plan) for seed in range(plan.seeds)]
    results = _run_jobs(jobs, _distance_worker, plan.workers)
    metrics = []
    for hi, h in enumerate(plan.test_functions):
        rows = [(n, seed, d[hi]) for n, seed, d, _ in results]
        metrics.append(SweepMetric(label=f"sup_phi[{h.label()}]",
                                   n_values=list(plan.n_values), rows=rows))
    if flow is not None:
        rows = [(n, seed, cd) for n, seed, _, cd in results]
        metrics.append(SweepMetric(label="sup_curve_to_theta",
                                   n_values=list(plan.n_values), rows=rows))
    meta = dict(meta)
    meta.update({"engine": "original" if flow is None else "flow",
                 "seeds": plan.seeds, "spec_hash": plan.spec.fingerprint()})
    return SweepReport(kind=kind, metrics=metrics, meta=meta)


# -- coupling -------------------------------------------------------------------


def _coupling_worker(args):
    assignment, seed, flow = args
    _, _, record = srp.simulate_coupled(assignment, flow, seed=seed)
    return assignment.n, seed, record.decoupled_fraction()


def coupling_sweep(plan: ExperimentPlan,
                   sol: LimitSolution | None = None) -> SweepReport:
    """Fraction of particles whose coupled pair ever disagrees, per (N, seed)."""
    if sol is None:
        sol = solve_limit(plan)
    jobs = [(assignment, seed, sol.flow)
            for assignment in _assignments(plan) for seed in range(plan.seeds)]
    results = _run_jobs(jobs, _coupling_worker, plan.workers)
    rows = [(n, seed, frac) for n, seed, frac in results]
    metric = SweepMetric(label="decoupled_fraction",
                         n_values=list(plan.n_values), rows=rows)
    return SweepReport(kind="coupling", metrics=[metric],
                       meta={"seeds": plan.seeds,
                             "spec_hash": plan.spec.fingerprint(),
                             "position_dependent": plan.spec.position_dependent})


# -- tagged particles -----------------------------------------------------------


@dataclass
class TaggedReport:
    n_values: list
    pins: list
    sup_rows: list        # (tagged_idx, N, seed, sup_t |Y^N - Y|)
    count_rows: list      # (tagged_idx, N, seed, jump count of the limit path)
    correlation: float    # cross-tagged jump-count correlation at largest N
    correlation_se: float

    def sup_means(self, i: int) -> list:
        out = []
        for n in self.n_values:
            v = [x for (ti, nn, _, x) in self.sup_rows if ti == i and nn == n]
            out.append(float(np.mean(v)))
        return out

    def summary(self) -> dict:
        return {
            "kind": "tagged",
            "n_values": list(self.n_values),
            "pins": [list(p) for p in self.pins],
            "sup_means": {str(i): self.sup_means(i) for i in range(len(self.pins))},
            "correlation": self.correlation,
            "correlation_se": self.correlation_se,
        }

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("tagged,N,seed,sup_diff,limit_jumps\n")
            counts = {(ti, n, s): c for ti, n, s, c in self.count_rows}
            for ti, n, s, v in self.sup_rows:
                fh.write(f"{ti},{n},{s},{float(v)!r},{counts[(ti, n, s)]}\n")


def tagged_compare(plan: ExperimentPlan, pins=None,
                   sol: LimitSolution | None = None) -> TaggedReport:
    """Tagged particles under shared streams vs their limit paths.

    pins[i] = (class_k, y_star): particle i is pinned to that class with the
    initial slot nearest y_star, its limit path starts at y_star exactly,
    and both consume the candidate stream keyed (seed, i), which does not
    depend on N.  Positions are compared at 101 equally spaced times.
    """
    if sol is None:
        sol = solve_limit(plan)
    spec = plan.spec
    if pins is None:
        pins = [(0, 0.3), (spec.n_classes - 1, 0.7)]
    L = len(pins)
    horizon = spec.horizon
    ts = np.linspace(0.0, horizon, 101)
    # a limit path depends on (seed, pin) and not on N: (values at ts, jumps)
    paths = {}
    for seed in range(plan.seeds):
        for i, (k, y_star) in enumerate(pins):
            fld = spec.classes[k].field
            cand = streams.tagged_candidates(seed, i, fld.sup_norm, horizon)
            path = tagged_limit_path(sol, fld, y_star, cand)
            paths[seed, i] = (path.sample(ts), path.jump_count())
    sup_rows, count_rows = [], []
    for n in plan.n_values:
        assignment = pin_particles(
            assign_population(spec, n, mode="stratified"), pins)
        if np.any(assignment.class_index[:L] != np.array([k for k, _ in pins])):
            raise ConfigError("tagged stream sharing misconfigured: "
                              "pinned classes not in place")
        for seed in range(plan.seeds):
            ev = LogEvaluator(srp.simulate(assignment, seed=seed, tagged=L))
            empirical = ev.positions_of(np.arange(L), ts)
            for i in range(L):
                limit_vals, jumps = paths[seed, i]
                sup = float(np.max(np.abs(empirical[:, i] - limit_vals)))
                sup_rows.append((i, n, seed, sup))
                count_rows.append((i, n, seed, jumps))
    corr, corr_se = float("nan"), float("nan")
    if L >= 2 and plan.seeds >= 3:
        a, b = (np.array([paths[s, i][1] for s in range(plan.seeds)], dtype=float)
                for i in (0, 1))
        if a.std() > 0 and b.std() > 0:
            corr = float(np.corrcoef(a, b)[0, 1])
            corr_se = 1.0 / math.sqrt(len(a))
    return TaggedReport(n_values=list(plan.n_values), pins=list(pins),
                        sup_rows=sup_rows, count_rows=count_rows,
                        correlation=corr, correlation_se=corr_se)


# -- point-process validation ------------------------------------------------


def shipped_omegas(horizon: float = 1.0) -> dict:
    return {
        "zero": latp.zero_intensity(horizon),
        "const2": latp.constant_intensity(2.0, horizon),
        "one_plus_s": latp.last_arrival_affine(1.0, 1.0, horizon),
        "flow_affine": latp.flow_pullback_affine(0.6, 0.9, 0.3, horizon),
    }


@dataclass
class LatpRow:
    label: str
    series_gap: float
    series_tol: float
    mc_max_z: float
    mc_max_gap: float
    deriv_violation: float
    deriv_tol: float

    def passed(self) -> bool:
        return bool(self.series_gap <= self.series_tol and self.mc_max_z <= 4.0
                    and self.deriv_violation <= self.deriv_tol)


@dataclass
class LatpReport:
    rows: list
    replicas: int
    step: float

    def all_passed(self) -> bool:
        return all(r.passed() for r in self.rows)

    def summary(self) -> dict:
        return {"kind": "latp", "replicas": self.replicas, "step": self.step,
                "all_passed": self.all_passed(),
                "rows": [asdict(r) | {"passed": r.passed()} for r in self.rows]}


def latp_validation(omegas: dict | None = None, horizon: float = 1.0,
                    step: float = 1 / 400, replicas: int = 10_000,
                    seed: int = 0, lattice_size: int = 5) -> LatpReport:
    """Three-way agreement: Volterra solve vs series vs Monte Carlo.

    For each kernel, the solver table is compared to the series truncated
    at 25 arrivals on an (s, t) lattice (tolerance 1e-5 + 5 h^2) and to
    survival frequencies from sampled paths (4 standard errors); the
    derivative bounds are checked at O(h) tolerance.
    """
    for name, value in (("replicas", replicas), ("lattice_size", lattice_size)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name}: must be an integer, got {value!r}")
    if replicas < 1:
        raise ConfigError("replicas: must be >= 1")
    # a lattice of one node has no pair with s < t to check
    if lattice_size < 2:
        raise ConfigError(f"lattice_size: must be >= 2, got {lattice_size}")
    # NaN fails the comparisons
    if isinstance(horizon, bool) or not 0 < horizon < math.inf:
        raise ConfigError(f"horizon: must be positive and finite, got {horizon}")
    if not 0 < step < math.inf:
        raise ConfigError(f"step: must be positive and finite, got {step}")
    streams.check_key("seed", seed)
    if omegas is None:
        omegas = shipped_omegas(horizon)
    m = int(round(horizon / step))
    if m < 1:
        raise ConfigError(f"step: {step} leaves fewer than two grid nodes "
                          f"on a horizon of {horizon}")
    if (m + 1) ** 2 > latp.MAX_TABLE_ENTRIES:
        raise ConfigError(f"step: {m + 1} grid nodes make a table above "
                          f"{latp.MAX_TABLE_ENTRIES} entries")
    grid = np.linspace(0.0, horizon, m + 1)
    # lattice on grid nodes, s <= t
    idx = np.linspace(0, m, lattice_size, dtype=int)
    rows = []
    for label, omega in sorted(omegas.items()):
        table = latp.survival_solve(omega, grid)
        series_tol = 1e-5 + 5 * step ** 2
        series_gap = 0.0
        pair_list = [(i, j) for i in idx for j in idx if j >= i]
        for i, j in pair_list:
            ref = latp.survival_series(omega, grid[i], grid[j], kmax=25,
                                       step=step)
            series_gap = max(series_gap, abs(table.p[i, j] - ref))
        times, offsets = latp.sample_replicas(omega, seed, replicas)
        owners = np.repeat(np.arange(replicas), np.diff(offsets))
        mc_max_z = 0.0
        mc_max_gap = 0.0
        for i, j in pair_list:
            # replicas with no arrival in (t_i, t_j]: ArrivalSequence.no_arrival_in
            hit = owners[(times > grid[i]) & (times <= grid[j])]
            hit = np.count_nonzero(np.bincount(hit, minlength=replicas))
            p_hat = (replicas - hit) / replicas
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / replicas)
            gap = abs(p_hat - table.p[i, j])
            mc_max_gap = max(mc_max_gap, gap)
            mc_max_z = max(mc_max_z, gap / se)
        deriv = latp.derivative_bound_check(table, omega)
        deriv_tol = 2.0 * step * (1.0 + omega.sup_norm) ** 2
        rows.append(LatpRow(label=label, series_gap=float(series_gap),
                            series_tol=float(series_tol),
                            mc_max_z=float(mc_max_z),
                            mc_max_gap=float(mc_max_gap),
                            deriv_violation=float(deriv.max_violation()),
                            deriv_tol=float(deriv_tol)))
    return LatpReport(rows=rows, replicas=replicas, step=step)

