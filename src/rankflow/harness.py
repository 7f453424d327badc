"""Desk-scale experiment harness.

Reproduces the limit behaviour empirically: N-sweeps of the lattice-sup
distance between empirical and limit distribution functions with a log-log
slope fit, flow-driven sweeps including the uniqueness check against a
non-fixed-point flow, coupling decay, tagged-particle convergence under
shared noise, and cross-method validation of the point-process solvers.
Three routines measure the steps of the claim's proof, one number or row
per seed: ``identify_rates`` (can the logs tell y_C from a nearby limit?),
``forced_fixed_point`` (theta*, which maps the flow-driven run onto the
original one) and ``coupling_compensator`` (the coupling's splits and
their compensator).

Every report is a pure function of (plan, seeds): rows are emitted in
deterministic order and all aggregates are recomputed from the rows.  A
sweep's job is one N and a run of seeds, which the engines thin as one
batch; it returns one record (N, seed, {label: value}) per seed, and each
label becomes one SweepMetric.  The sweeps, ``tagged_compare`` and the
three evidence routines take their seeds in the runs of
``srp._seed_runs`` and keep only each seed's values before the next run,
read from the run's logs as one batch (``measure._LogBatch``) or, in
``coupling_compensator``, from each coupled run's record: no routine holds
more than one engine batch of candidates or logs.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field as dc_field, asdict
from functools import cached_property

import numpy as np

from .errors import ConfigError, _positive, _real_array, _require_int
from . import latp, srp, streams
from .flow import (FlowGrid, LimitSolution, PhiEvaluator, _limit_jumps,
                   _picard, _sample_paths, solve_y_c)
from .intensity import (PopulationSpec, assign_population, pin_particles,
                        spec_from_config)
from .measure import (EvaluationLattice, TestFunction, _LogBatch, grid_tables,
                      grid_vector, limit_values)


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
        for i, n in enumerate(self.n_values):
            _require_int(f"n_values[{i}]", n, 1)
        ns = tuple(int(n) for n in self.n_values)
        if len(ns) < 1 or any(b <= a for a, b in zip(ns[:-1], ns[1:])):
            raise ConfigError(f"n_values must be strictly increasing, got {ns}")
        _require_int("seeds", self.seeds, 2)
        _require_int("workers", self.workers, 1)
        labels = [h.label() for h in self.test_functions]
        if len(set(labels)) < len(labels):
            # a sweep keys its metrics by these labels
            raise ConfigError(f"test_functions: labels must be distinct, got {labels}")
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
    """One (N, run of seeds) job: simulate, then lattice sups against limit
    values, one record per seed, from the counts of all the job's logs
    read as one batch.

    ``flow`` is None for the original model; otherwise the runs are
    flow-driven and each empirical curve is also compared to theta.
    """
    assignment, seeds, flow, lattice, labels, h_vecs, limit, theta = args
    logs = srp._run_seeds(assignment, seeds,
                          "original" if flow is None else "flow", flow=flow)
    records = []
    for seed, counts in zip(seeds, _LogBatch(logs).lattice_counts(lattice)):
        values = {label: float(np.max(np.abs(counts.phi(hv) - lim)))
                  for label, hv, lim in zip(labels, h_vecs, limit)}
        if flow is not None:
            values["sup_curve_to_theta"] = float(
                np.max(np.abs(counts.curve() - theta)))
        records.append((assignment.n, seed, values))
    return records


def _assignments(plan: ExperimentPlan) -> list:
    """The stratified assignment of each N; every seed at that N shares it."""
    return [assign_population(plan.spec, n, mode="stratified")
            for n in plan.n_values]


def _sweep_metrics(plan: ExperimentPlan, worker, *shared) -> list:
    """Run ``worker`` on the job (assignment, run of seeds, *shared) of
    every N and run of ``srp._seed_runs``, serially or in a process pool,
    and make one SweepMetric per label of the records (N, seed, {label:
    value}) the jobs return, in the first record's label order; rows run
    N-major, then seed."""
    jobs = [(assignment, seeds, *shared) for assignment in _assignments(plan)
            for seeds in srp._seed_runs(assignment, plan.seeds)]
    if plan.workers <= 1:
        records = [r for j in jobs for r in worker(j)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=plan.workers) as ex:
            records = [r for rs in ex.map(worker, jobs) for r in rs]
    return [SweepMetric(label=label, n_values=list(plan.n_values),
                        rows=[(n, seed, values[label]) for n, seed, values in records])
            for label in records[0][2]]


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
    labels = [f"sup_phi[{h.label()}]" for h in plan.test_functions]
    limit, theta = limit_values(plan.lattice, evaluator, h_vecs, flow)
    metrics = _sweep_metrics(plan, _distance_worker, flow, plan.lattice,
                             labels, h_vecs, limit, theta)
    meta = {**meta, "engine": "original" if flow is None else "flow",
            "seeds": plan.seeds, "spec_hash": plan.spec.fingerprint()}
    return SweepReport(kind=kind, metrics=metrics, meta=meta)


# -- coupling -------------------------------------------------------------------


def _coupling_worker(args):
    assignment, seeds, flow = args
    runs = srp._run_seeds(assignment, seeds, "coupled", flow=flow)
    return [(assignment.n, seed, {"decoupled_fraction": record.decoupled_fraction()})
            for seed, (_, _, record) in zip(seeds, runs)]


def coupling_sweep(plan: ExperimentPlan,
                   sol: LimitSolution | None = None) -> SweepReport:
    """Fraction of particles whose coupled pair ever disagrees, per (N, seed)."""
    if sol is None:
        sol = solve_limit(plan)
    return SweepReport(kind="coupling",
                       metrics=_sweep_metrics(plan, _coupling_worker, sol.flow),
                       meta={"seeds": plan.seeds,
                             "spec_hash": plan.spec.fingerprint(),
                             "position_dependent": plan.spec.position_dependent})


# -- tagged particles -----------------------------------------------------------


@dataclass
class TaggedReport:
    n_values: list
    pins: list
    rows: list  # (tagged_idx, N, seed, sup_t |Y^N - Y|, limit path jump count)
    correlation: float    # cross-tagged jump-count correlation at largest N
    correlation_se: float

    def sup_means(self, i: int) -> list:
        out = []
        for n in self.n_values:
            v = [x for (ti, nn, _, x, _) in self.rows if ti == i and nn == n]
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
            for ti, n, s, v, c in self.rows:
                fh.write(f"{ti},{n},{s},{float(v)!r},{c}\n")


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
    # a limit path depends on (seed, pin) and not on N, and each pin's
    # paths are thinned together: (values at ts, jumps)
    paths = {}
    for i, (k, y_star) in enumerate(pins):
        fld = spec.classes[k].field
        cands = [streams.tagged_candidates(seed, i, fld.sup_norm, horizon)
                 for seed in range(plan.seeds)]
        jumps = _limit_jumps(sol.flow, fld, y_star, cands)
        values = _sample_paths(sol.flow, y_star, jumps, ts)
        for seed, (path_jumps, path_values) in enumerate(zip(jumps, values)):
            paths[seed, i] = (path_values, len(path_jumps))
    rows = []
    for n in plan.n_values:
        assignment = pin_particles(
            assign_population(spec, n, mode="stratified"), pins)
        if np.any(assignment.class_index[:L] != np.array([k for k, _ in pins])):
            raise ConfigError("tagged stream sharing misconfigured: "
                              "pinned classes not in place")
        for seeds in srp._seed_runs(assignment, plan.seeds):
            logs = srp._run_seeds(assignment, seeds, "original", tagged=L)
            empirical = _LogBatch(logs).positions_of(np.arange(L), ts)
            for seed, positions in zip(seeds, empirical):
                for i in range(L):
                    limit_vals, jumps = paths[seed, i]
                    sup = float(np.max(np.abs(positions[:, i] - limit_vals)))
                    rows.append((i, n, seed, sup, jumps))
    corr, corr_se = float("nan"), float("nan")
    if L >= 2 and plan.seeds >= 3:
        a, b = (np.array([paths[s, i][1] for s in range(plan.seeds)], dtype=float)
                for i in (0, 1))
        if a.std() > 0 and b.std() > 0:
            corr = float(np.corrcoef(a, b)[0, 1])
            corr_se = 1.0 / math.sqrt(len(a))
    return TaggedReport(n_values=list(plan.n_values), pins=list(pins),
                        rows=rows, correlation=corr, correlation_se=corr_se)


# -- evidence of the claim ---------------------------------------------------


def _moved_spec(spec: PopulationSpec, family: str, eps: float) -> PopulationSpec:
    """``spec`` moved by eps within ``family``: "scale" multiplies every
    class's rate by 1 + eps (a constant's value, an affine field's base and
    slope, a product field's spatial factor, a table's values); "tilt" adds
    eps to an affine field's slope and takes eps / 2 from its base, and a
    class of another kind is a ConfigError."""
    cfg = spec.to_config()
    for k, c in enumerate(cfg["classes"]):
        field = c["field"]
        if family == "scale" and field["kind"] == "table":
            field["values"] = (np.array(field["values"]) * (1 + eps)).tolist()
        elif family == "scale":
            for key in {"constant": ("value",), "affine": ("base", "slope"),
                        "product": ("y_base", "y_slope")}[field["kind"]]:
                field[key] *= 1 + eps
        elif field["kind"] == "affine":
            field["slope"] += eps
            field["base"] -= eps / 2
        else:
            raise ConfigError(f"classes[{k}].field: the tilt family moves "
                              f"affine fields only, got {field['kind']!r}")
    return spec_from_config(cfg)


def identify_rates(spec: PopulationSpec, n: int, seeds: int, family: str,
                   grid) -> np.ndarray:
    """Each seed's eps_hat: where within the one-parameter ``family`` of
    specs around ``spec`` the original engine's logs place their rates.

    The runs of seeds 0..seeds-1 at N = n, thinned and read one
    ``srp._seed_runs`` batch at a time, give phi^N(h = 1) at the pairs of
    the regular lattice.  Each eps of ``grid``, evenly spaced and
    increasing, moves the spec (``_moved_spec``: "scale" or "tilt", the
    latter for affine fields only) to a limit y_C^eps, solved by
    ``solve_y_c`` at its default sizes.  A seed's eps_hat is the argmin
    over the grid of the mean square gap between its phi^N and phi of
    y_C^eps, refined by the parabola through the argmin and its two
    neighbours; logs that converge to y_C give eps_hat near 0.
    ConfigError if an argmin sits on the grid's edge, where no parabola is
    formed.
    """
    _require_int("n", n, 1)
    _require_int("seeds", seeds, 1)
    if family not in ("scale", "tilt"):
        raise ConfigError(f"family: must be 'scale' or 'tilt', got {family!r}")
    grid = _real_array("grid", grid)
    step = np.diff(grid) if grid.ndim == 1 and len(grid) >= 3 else [0.0]
    # written so that NaN fails
    if not (step[0] > 0 and np.allclose(step, step[0])):
        raise ConfigError(f"grid: must be at least 3 evenly spaced, "
                          f"increasing values, got {grid!r}")
    lattice = EvaluationLattice.regular(spec.horizon)
    limits = []
    for eps in grid.tolist():
        sol = solve_y_c(_moved_spec(spec, family, eps))
        limits.append(limit_values(lattice, sol, [TestFunction.ones()])[0][0])
    assignment = assign_population(spec, n)
    hv = TestFunction.ones().per_class(spec)
    emp = []
    for run in srp._seed_runs(assignment, seeds):
        counts = _LogBatch(srp._run_seeds(assignment, run, "original")
                           ).lattice_counts(lattice)
        emp.extend(c.phi(hv) for c in counts)
    emp = np.array(emp)
    mse = ((emp[:, None, :] - np.array(limits)[None]) ** 2).mean(axis=2)
    k = np.argmin(mse, axis=1)
    edge = np.flatnonzero((k == 0) | (k == len(grid) - 1))
    if len(edge):
        raise ConfigError(f"grid: seed {edge[0]}'s argmin sits on the grid's "
                          f"edge, eps = {float(grid[k[edge[0]]])}")
    rows = np.arange(len(k))
    lo, mid, hi = mse[rows, k - 1], mse[rows, k], mse[rows, k + 1]
    return grid[k] + (grid[1] - grid[0]) * (lo - hi) / (2 * (lo - 2 * mid + hi))


@dataclass(frozen=True, eq=False)
class ForcedFixedPoint:
    """Values at the node pairs of a flow's grid (``EvaluationLattice.grid``,
    packed as by ``measure.grid_vector``), one row per seed: ``original``
    and ``driven`` are Y^N of the original and flow-driven sides of each
    seed's coupled run, ``theta`` the fixed point theta* that each seed's
    forcing moves the limit to, and ``y_c`` the limit's one row.  Compared
    by identity: the generated ``==`` would compare arrays."""

    y_c: np.ndarray
    original: np.ndarray
    driven: np.ndarray
    theta: np.ndarray


def forced_fixed_point(sol: LimitSolution, n: int, seeds: int) -> ForcedFixedPoint:
    """theta* for each seed of a coupled run at N = n against ``sol``.

    The seeds run one ``srp._seed_runs`` batch at a time, and each side of
    a batch's coupled runs is read as one batch of logs.  The original run
    is the flow-driven run on the same candidates pushed through the
    fixed-point map: with e = Y_flow - y_C at the grid nodes,
    theta* = Phi(theta*) + e, the fixed point of ``flow._picard`` forced by
    e and solved to a residual of 1e-12, predicts Y_orig well beyond Y_flow
    does.
    """
    _require_int("n", n, 1)
    _require_int("seeds", seeds, 1)
    fl = sol.flow
    lattice = EvaluationLattice.grid(fl)
    assignment = assign_population(sol.spec, n)
    original, driven = [], []
    for run in srp._seed_runs(assignment, seeds):
        runs = srp._run_seeds(assignment, run, "coupled", flow=fl)
        for k, curves in enumerate((original, driven)):
            curves.extend(c.curve() for c in
                          _LogBatch([r[k] for r in runs]).lattice_counts(lattice))
    original, driven = np.array(original), np.array(driven)
    y_c = grid_vector(fl)
    theta = np.array([
        grid_vector(_picard(sol.spec, fl.n_z, fl.n_t, 1e-12, 80,
                            forcing=grid_tables(e, fl))[0])
        for e in driven - y_c])
    return ForcedFixedPoint(y_c=y_c, original=original, driven=driven,
                            theta=theta)


def coupling_compensator(sol: LimitSolution, n: int, seeds: int):
    """Each seed's split count and compensator in a coupled run at N = n
    against ``sol``: two arrays, in seed order.

    While a pair is coupled, its candidate splits it with chance
    |h_orig - h_flow| / envelope, so the split count minus the sum of these
    chances up to each particle's first split is a mean-zero martingale.
    The seeds run one ``srp._seed_runs`` batch at a time, and each coupled
    run's ``srp.CouplingRecord`` gives both: the split pairs are its finite
    ``sigma``, and its ``compensator`` sums the hazards the engine read.
    """
    _require_int("n", n, 1)
    _require_int("seeds", seeds, 1)
    assignment = assign_population(sol.spec, n)
    records = (rec for run in srp._seed_runs(assignment, seeds)
               for _, _, rec in srp._run_seeds(assignment, run, "coupled",
                                               flow=sol.flow))
    splits, comp = zip(*[(int(np.count_nonzero(np.isfinite(r.sigma))),
                          r.compensator) for r in records])
    return np.array(splits), np.array(comp)


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
    _require_int("replicas", replicas, 1)
    # a lattice of one node has no pair with s < t to check
    _require_int("lattice_size", lattice_size, 2)
    _positive("horizon", horizon)
    _positive("step", step)
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
    # lattice on grid nodes, s <= t; a lattice_size above the node count
    # repeats nodes, and every row value is a maximum over the pairs
    idx = np.unique(np.linspace(0, m, lattice_size, dtype=int))
    pair_list = [(i, j) for i in idx for j in idx if j >= i]
    first, last = np.transpose(pair_list)
    rows = []
    for label, omega in sorted(omegas.items()):
        table = latp.survival_solve(omega, grid)
        series_tol = 1e-5 + 5 * step ** 2
        solved = table.p[first, last]
        # one series call per start node, over its end nodes in pair order
        series = np.empty(len(pair_list))
        for i in idx:
            at = first == i
            series[at] = latp.survival_series(omega, grid[i], grid[last[at]],
                                              kmax=25, step=step)
        # np.max, unlike the builtin max, keeps a NaN gap
        series_gap = np.max(np.abs(solved - series))
        times, offsets = latp.sample_replicas(omega, seed, replicas)
        owners = np.repeat(np.arange(replicas), np.diff(offsets))
        # replicas with an arrival in (t_i, t_j]: ArrivalSequence.no_arrival_in
        hits = [np.count_nonzero(np.bincount(
                    owners[(times > grid[i]) & (times <= grid[j])],
                    minlength=replicas)) for i, j in pair_list]
        p_hat = (replicas - np.array(hits)) / replicas
        se = np.sqrt(np.maximum(p_hat * (1 - p_hat), 1e-12) / replicas)
        gaps = np.abs(p_hat - solved)
        mc_max_gap, mc_max_z = np.max(gaps), np.max(gaps / se)
        deriv = latp.derivative_bound_check(table, omega)
        deriv_tol = 2.0 * step * (1.0 + omega.sup_norm) ** 2
        rows.append(LatpRow(label=label, series_gap=float(series_gap),
                            series_tol=float(series_tol),
                            mc_max_z=float(mc_max_z),
                            mc_max_gap=float(mc_max_gap),
                            deriv_violation=float(deriv.max_violation()),
                            deriv_tol=float(deriv_tol)))
    return LatpReport(rows=rows, replicas=replicas, step=step)

