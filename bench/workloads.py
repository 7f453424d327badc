"""The three workloads: their set-up, timed round, candidate counts, checks.

Each workload builds its inputs from the seed in ``setup``, runs one round
of public library calls in ``round`` (the only timed part besides set-up),
redraws the candidate counts of that round in ``count`` from the program's
seeded streams, and checks the round's outputs in ``check`` with the
functions of ``checks``.  ``metrics`` turns the timings into the
end-to-end metrics; ``layer_metrics`` turns a traced round into per-layer
ones.  ``probe`` makes the per-call layer measurements of the traced run.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path
from statistics import median

import numpy as np

from rankflow import flow, harness, intensity, latp, measure, srp, streams
from rankflow.measure import LogEvaluator, TestFunction

import checks
from spans import tail_name

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

PROBE_CALLS = 200


def _global_candidates(rec, assignment, seed, horizon, name=None):
    """Candidates of an untagged engine run, redrawn under the engine's key."""
    total = float(assignment.sup_norms().sum())
    rng = streams.substream(seed, streams.GLOBAL)
    if name is None:
        return streams.candidate_batch(rng, total, horizon)
    with rec.span(name):
        return streams.candidate_batch(rng, total, horizon)


def _sample_events(rng, n_events, k):
    if n_events == 0:
        return np.empty(0, dtype=np.int64)
    picks = rng.integers(0, n_events, size=k)
    return np.unique(np.concatenate([[0, n_events - 1], picks]))


def _survivals(arrivals, grid, pairs):
    """Share of paths with no arrival in (grid[i], grid[j]] per pair."""
    times = np.concatenate(arrivals)
    path = np.repeat(np.arange(len(arrivals)), [len(a) for a in arrivals])
    out = np.empty(len(pairs))
    for q, (i, j) in enumerate(pairs):
        hit = path[(times > grid[i]) & (times <= grid[j])]
        out[q] = 1.0 - len(np.unique(hit)) / len(arrivals)
    return out


class Particles:
    """Large-N engine calls at the guardrail size, plus one event-log write."""

    name = "particles"
    n = 100_000
    kinds = ("constant", "affine", "table")
    engines = ("srp.simulate.constant", "srp.simulate.affine", "srp.simulate.table",
               "srp.simulate_flow_driven", "srp.simulate_coupled")
    # engine runs plus the log write
    ops_per_round = 6
    # each set-up takes several seconds
    setup_repeats = 3

    def __init__(self, seed):
        self.seed = seed

    def setup(self, rec):
        self.specs = {
            "constant": intensity.load_spec(CONFIGS / "constant_unit.json"),
            "affine": intensity.load_spec(CONFIGS / "affine_two_class.json"),
            "table": intensity.load_spec(HERE / "table_two_class.json"),
        }
        self.assignments = {}
        for kind, spec in self.specs.items():
            with rec.span("intensity.assign_population"):
                self.assignments[kind] = intensity.assign_population(spec, self.n)
        with rec.span("flow.solve_y_c"):
            self.sol = flow.solve_y_c(self.specs["affine"])

    def warm(self):
        small = {k: intensity.assign_population(s, 300) for k, s in self.specs.items()}
        for a in small.values():
            srp.simulate(a, seed=self.seed)
        log = srp.simulate_flow_driven(small["affine"], self.sol.flow, seed=self.seed)
        srp.simulate_coupled(small["affine"], self.sol.flow, seed=self.seed)
        log.save(OUT / "warm.npz")
        log.to_csv(OUT / "warm.csv")

    def round(self, rec):
        seed = self.seed
        logs = {}
        for kind in self.kinds:
            with rec.span(f"srp.simulate.{kind}"):
                logs[kind] = srp.simulate(self.assignments[kind], seed=seed)
        aff = self.assignments["affine"]
        with rec.span("srp.simulate_flow_driven"):
            logs["flow"] = srp.simulate_flow_driven(aff, self.sol.flow, seed=seed)
        with rec.span("srp.simulate_coupled"):
            coupled = srp.simulate_coupled(aff, self.sol.flow, seed=seed)
        with rec.span("srp.event_log_write"):
            logs["affine"].save(OUT / "particles-affine.npz")
            logs["affine"].to_csv(OUT / "particles-affine.csv")
        return {"logs": logs, "coupled": coupled}

    def count(self, rec, out):
        horizon = self.specs["affine"].horizon
        cand = {}
        for kind in self.kinds:
            cand[kind] = _global_candidates(
                rec, self.assignments[kind], self.seed, horizon,
                name="streams.candidate_batch")
        counts = {k: len(c[0]) for k, c in cand.items()}
        # flow-driven and coupled runs read the affine stream again
        counts["total"] = sum(counts[k] for k in self.kinds) + 2 * counts["affine"]
        return counts

    def check(self, out, counts):
        logs = out["logs"]
        orig, fl, _ = out["coupled"]
        fails = []
        fails += checks.events_equal_candidates(
            "constant_unit", logs["constant"].n_events, counts["constant"])
        fails += checks.poisson_count(
            "constant_unit events", logs["constant"].n_events,
            self.n * self.specs["constant"].horizon)

        def arrays(log):
            return (log.times, log.particles, log.pre_positions)

        fails += checks.arrays_byte_equal(
            "coupled original side vs simulate", arrays(orig), arrays(logs["affine"]))
        fails += checks.arrays_byte_equal(
            "coupled flow side vs simulate_flow_driven", arrays(fl), arrays(logs["flow"]))
        rng = np.random.default_rng([self.seed, 1])
        for kind, log in logs.items():
            sample = _sample_events(rng, log.n_events, 40)
            fails += checks.mtf_pre_positions(
                f"{kind} pre_positions", log.assignment.slots, log.particles,
                log.pre_positions, sample)
        with np.load(OUT / "particles-affine.npz") as saved:
            fails += checks.arrays_byte_equal(
                "saved event log", (saved["times"], saved["particles"],
                                    saved["pre_positions"]), arrays(logs["affine"]))
        with open(OUT / "particles-affine.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != logs["affine"].n_events:
            fails.append(f"event CSV has {rows} rows for "
                         f"{logs['affine'].n_events} events")
        return fails

    def metrics(self, setups, rounds, counts, scale):
        walls = [r.seconds("round", scale) for r in rounds]
        engine = [sum(r.seconds(n, scale) for n in self.engines) for r in rounds]
        runs = 6  # five engine calls; the coupled one samples two systems
        return {
            "wall_s": median(walls),
            "solve_s": median(r.seconds("flow.solve_y_c", scale) for r in setups),
            "candidates_per_s": median(counts["total"] / e for e in engine),
            "jobs_per_s": median(self.ops_per_round / w for w in walls),
            "replicas_per_s": median(runs / e for e in engine),
        }

    def layer_metrics(self, rec, out, counts):
        m = {}
        for kind in self.kinds:
            c = counts[kind]
            m[f"srp.simulate_us_per_candidate.{kind}"] = \
                1e6 * rec.seconds(f"srp.simulate.{kind}") / c
            m[f"srp.acceptance_ratio.{kind}"] = out["logs"][kind].n_events / c
        c = counts["affine"]
        m["srp.simulate_flow_driven_us_per_candidate"] = \
            1e6 * rec.seconds("srp.simulate_flow_driven") / c
        m["srp.simulate_coupled_us_per_candidate"] = \
            1e6 * rec.seconds("srp.simulate_coupled") / c
        m["srp.event_log_write_s"] = rec.seconds("srp.event_log_write")
        drawn = sum(counts[k] for k in self.kinds)
        m["streams.candidate_batch_us_per_candidate"] = \
            1e6 * rec.seconds("streams.candidate_batch") / drawn
        m["intensity.assign_population_s"] = rec.seconds("intensity.assign_population")
        return m

    def probe(self, rec, out):
        rng = np.random.default_rng([self.seed, 2])
        ys = rng.random(PROBE_CALLS).tolist()
        ts = rng.random(PROBE_CALLS).tolist()
        for kind in self.kinds:
            field = self.specs[kind].classes[0].field
            name = f"intensity.field_call.{kind}"
            for y, t in zip(ys, ts):
                with rec.span(name):
                    field(y, t)
        index = srp.RankIndex(self.assignments["affine"].slots)
        for i in rng.integers(0, self.n, size=PROBE_CALLS).tolist():
            with rec.span("srp.rank"):
                index.rank(i)
            with rec.span("srp.move_to_front"):
                index.move_to_front(i)
        return _per_call(rec, {
            "intensity.field_call_us.constant": "intensity.field_call.constant",
            "intensity.field_call_us.affine": "intensity.field_call.affine",
            "intensity.field_call_us.table": "intensity.field_call.table",
            "srp.rank_us": "srp.rank",
            "srp.move_to_front_us": "srp.move_to_front",
        }, scale=1e6)


class Limit:
    """Deterministic limit numerics at 20x400, plus a sampled LATP check."""

    name = "limit"
    n_z, n_t = 20, 400
    tol = 1e-8
    mc_replicas = 10_000
    lattice_size = 5
    setup_repeats = 5

    def __init__(self, seed):
        self.seed = seed

    def setup(self, rec):
        self.specs = {
            "unit": intensity.load_spec(CONFIGS / "constant_unit.json"),
            "mixture": intensity.load_spec(CONFIGS / "constant_mixture.json"),
            "affine": intensity.load_spec(CONFIGS / "affine_two_class.json"),
            "table": intensity.load_spec(HERE / "table_two_class.json"),
        }
        self.omegas = harness.shipped_omegas(1.0)
        self.grid = np.linspace(0.0, 1.0, self.n_t + 1)
        idx = np.linspace(0, self.n_t, self.lattice_size, dtype=int)
        self.pairs = [(int(i), int(j)) for i in idx for j in idx if j >= i]

    @property
    def ops_per_round(self):
        k = len(self.omegas)
        return 2 * len(self.specs) + k * (1 + len(self.pairs) + self.mc_replicas)

    def warm(self):
        for spec in self.specs.values():
            sol = flow.solve_y_c(spec, n_z=4, n_t=40)
            flow.verify_ode_form(sol)
        small = np.linspace(0.0, 1.0, 41)
        for om in self.omegas.values():
            latp.survival_solve(om, small)
            latp.survival_series(om, 0.5, 1.0, step=1 / 40)
            latp.sample_arrivals(om, seed=self.seed, replica=0)

    def round(self, rec):
        sols, residuals = {}, {}
        for name, spec in self.specs.items():
            with rec.span(f"flow.solve_y_c.{name}"):
                sols[name] = flow.solve_y_c(spec, n_z=self.n_z, n_t=self.n_t,
                                            tol=self.tol)
            with rec.span("flow.verify_ode_form"):
                residuals[name] = flow.verify_ode_form(sols[name]).max_residual
        h = self.grid[1] - self.grid[0]
        tables, series = {}, {}
        for label, om in self.omegas.items():
            with rec.span("latp.survival_solve"):
                tables[label] = latp.survival_solve(om, self.grid)
            vals = []
            for i, j in self.pairs:
                with rec.span("latp.survival_series"):
                    vals.append(latp.survival_series(
                        om, self.grid[i], self.grid[j], kmax=25, step=h))
            series[label] = vals
        arrivals = {}
        for label, om in self.omegas.items():
            with rec.span("latp.monte_carlo"):
                arrivals[label] = [
                    latp.sample_arrivals(om, seed=self.seed, replica=r).times
                    for r in range(self.mc_replicas)]
        return {"sols": sols, "residuals": residuals, "tables": tables,
                "series": series, "arrivals": arrivals}

    def count(self, rec, out):
        total, draws = 0, {}
        for label, om in self.omegas.items():
            env = latp.ENVELOPE_MARGIN * om.sup_norm
            draws[label] = [streams.candidate_batch(
                streams.substream(self.seed, streams.LATP, r), env, 1.0)
                for r in range(self.mc_replicas)]
            total += sum(len(t) for t, _ in draws[label])
        self._draws = draws
        return {"total": total}

    def check(self, out, counts):
        fails = []
        tol = 10 * ((1.0 / self.n_t) ** 2 + self.tol)
        for name, sol in out["sols"].items():
            fl = sol.flow
            fails += checks.flow_shape(name, fl.init_values, fl.bdry_values)
            if not np.isfinite(out["residuals"][name]):
                fails.append(f"{name}: non-finite integral-form residual")
        for name in ("unit", "mixture"):
            spec = self.specs[name]
            rates = [c.field.value for c in spec.classes]
            weights = [c.weight for c in spec.classes]
            fl = out["sols"][name].flow
            fails += checks.flow_closed_form(name, fl.init_values, fl.bdry_values,
                                             spec.horizon, rates, weights, tol)
        h = self.grid[1] - self.grid[0]
        for label, rate in (("const2", 2.0), ("zero", 0.0)):
            fails += checks.survival_closed_form(
                label, out["tables"][label].p, self.grid, rate, 1e-12 + 5 * h ** 2)
        for label, table in out["tables"].items():
            solved = [table.p[i, j] for i, j in self.pairs]
            fails += checks.close_within(f"{label} solve vs series", solved,
                                         out["series"][label], 1e-5 + 5 * h ** 2)
            freq = _survivals(out["arrivals"][label], self.grid, self.pairs)
            # max over 15 lattice pairs and four kernels on every run: 5 SE
            fails += checks.monte_carlo_agrees(
                f"{label} Monte Carlo vs solve", freq, solved, self.mc_replicas, z=5.0)
        for label, rate in (("const2", 2.0), ("zero", 0.0)):
            thinned = [t[m < rate] for t, m in self._draws[label]]
            got = out["arrivals"][label]
            fails += checks.arrays_byte_equal(
                f"{label} sampled arrivals vs thinned stream",
                [np.concatenate(got)] + [np.array([len(a) for a in got])],
                [np.concatenate(thinned)] + [np.array([len(a) for a in thinned])])
        return fails

    def metrics(self, setups, rounds, counts, scale):
        walls = [r.seconds("round", scale) for r in rounds]
        mc = [r.seconds("latp.monte_carlo", scale) for r in rounds]
        problems = len(self.specs) + len(self.omegas)
        reps = len(self.omegas) * self.mc_replicas
        return {
            "wall_s": median(walls),
            "solve_s": median(sum(r.seconds(f"flow.solve_y_c.{n}", scale)
                                  for n in self.specs) for r in rounds),
            "candidates_per_s": median(counts["total"] / t for t in mc),
            "jobs_per_s": median(problems / w for w in walls),
            "replicas_per_s": median(reps / t for t in mc),
        }

    def layer_metrics(self, rec, out, counts):
        m = {}
        for name, sol in out["sols"].items():
            m[f"flow.solve_y_c_s.{name}"] = rec.seconds(f"flow.solve_y_c.{name}")
            m[f"flow.picard_iterations.{name}"] = sol.iterations
        m["flow.verify_ode_form_s"] = rec.seconds("flow.verify_ode_form")
        m["latp.survival_solve_s"] = rec.seconds("latp.survival_solve")
        m.update(_per_call(rec, {"latp.survival_series_ms": "latp.survival_series"},
                           scale=1e3))
        return m

    def probe(self, rec, out):
        sol = out["sols"]["affine"]
        with rec.span("flow.phi_evaluator_build") as s:
            flow.PhiEvaluator(sol.flow, sol.spec)
        build_s = s.elapsed
        tracemalloc.start()
        try:
            flow.PhiEvaluator(sol.flow, sol.spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"flow.phi_evaluator_build_s": build_s,
                "flow.phi_evaluator_peak_mb": peak / 2 ** 20}


class Experiments:
    """The desk-scale harness at the CLI's default sizes, one worker."""

    name = "experiments"
    n_values = (100, 400, 1600)
    seeds = 20
    replicas = 10_000
    ops_per_round = 5
    setup_repeats = 5
    # the harness calls made of (N, seed) jobs
    jobs = ("convergence_sweep", "flow_driven_sweep", "coupling_sweep",
            "tagged_compare")

    def __init__(self, seed):
        self.seed = seed

    def setup(self, rec):
        self.affine = intensity.load_spec(CONFIGS / "affine_two_class.json")
        self.mixture = intensity.load_spec(CONFIGS / "constant_mixture.json")
        self.plan_a = harness.ExperimentPlan(spec=self.affine, n_values=self.n_values,
                                             seeds=self.seeds, workers=1)
        self.plan_m = harness.ExperimentPlan(spec=self.mixture, n_values=self.n_values,
                                             seeds=self.seeds, workers=1)
        rng = np.random.default_rng([self.seed, 3])
        ys = np.round(rng.uniform(0.1, 0.9, size=2), 3)
        self.pins = [(0, float(ys[0])), (1, float(ys[1]))]
        with rec.span("flow.solve_y_c"):
            self.sol_a = harness.solve_limit(self.plan_a)
            self.sol_m = harness.solve_limit(self.plan_m)

    def warm(self):
        for spec, sol in ((self.affine, self.sol_a), (self.mixture, self.sol_m)):
            plan = harness.ExperimentPlan(spec=spec, n_values=(20, 40), seeds=2)
            harness.convergence_sweep(plan, sol=sol)
            harness.flow_driven_sweep(plan, sol=sol)
            harness.coupling_sweep(plan, sol=sol)
            harness.tagged_compare(plan, pins=self.pins, sol=sol)
        harness.latp_validation(replicas=20, step=1 / 40, seed=self.seed,
                                lattice_size=3)

    def round(self, rec):
        out = {}
        for name, fn in (("convergence_sweep", harness.convergence_sweep),
                         ("flow_driven_sweep", harness.flow_driven_sweep),
                         ("coupling_sweep", harness.coupling_sweep)):
            with rec.span(f"harness.{name}"):
                out[name] = fn(self.plan_a, sol=self.sol_a)
        with rec.span("harness.tagged_compare"):
            out["tagged_compare"] = harness.tagged_compare(
                self.plan_m, pins=self.pins, sol=self.sol_m)
        with rec.span("harness.latp_validation"):
            out["latp_validation"] = harness.latp_validation(
                seed=self.seed, replicas=self.replicas)
        return out

    @property
    def jobs_per_round(self):
        # three (N, seed) sweeps plus the tagged comparison
        return 4 * len(self.n_values) * self.seeds

    def count(self, rec, out):
        horizon = self.affine.horizon
        total = 0
        for n in self.n_values:
            a = intensity.assign_population(self.affine, n)
            for seed in range(self.seeds):
                total += 3 * len(_global_candidates(rec, a, seed, horizon)[0])
            base = intensity.assign_population(self.mixture, n)
            sups = intensity.pin_particles(base, self.pins).sup_norms()
            L = len(self.pins)
            for seed in range(self.seeds):
                for i in range(L):
                    # the finite-N particle and its limit path share the stream
                    total += 2 * len(streams.tagged_candidates(
                        seed, i, float(sups[i]), horizon)[0])
                bulk = float(sups[L:].sum())
                rng = streams.substream(seed, streams.BULK)
                total += len(streams.candidate_batch(rng, bulk, horizon)[0])
        draws = {}
        for label, om in harness.shipped_omegas(horizon).items():
            env = latp.ENVELOPE_MARGIN * om.sup_norm
            draws[label] = [streams.candidate_batch(
                streams.substream(self.seed, streams.LATP, r), env, horizon)
                for r in range(self.replicas)]
            total += sum(len(t) for t, _ in draws[label])
        self._draws = draws
        return {"total": total}

    def check(self, out, counts):
        fails = []
        small, large = self.n_values[0], self.n_values[-1]
        for name, label in (("convergence_sweep", "sup_phi[h=1]"),
                            ("flow_driven_sweep", "sup_phi[h=1]"),
                            ("coupling_sweep", "decoupled_fraction")):
            rows = out[name].metric(label).rows
            fails += checks.sweep_drop(f"{name} {label}", rows, small, large)
        a = intensity.assign_population(self.affine, large)
        for s in range(2):
            log = srp.simulate(a, seed=self.seed + s)
            gap = LogEvaluator(log).identity_gap(self.plan_a.lattice)
            fails += checks.is_zero(f"identity_gap N={large} seed={self.seed + s}", gap)
        const_plan = harness.ExperimentPlan(spec=self.mixture, n_values=(100, 400),
                                            seeds=3)
        const = harness.coupling_sweep(const_plan, sol=self.sol_m)
        fails += checks.all_zero("decoupled fraction on a constant spec",
                                 [v for _, _, v in const.metric("decoupled_fraction").rows])
        # the LATP Monte Carlo against closed forms, from the same streams
        grid = np.linspace(0.0, 1.0, 401)
        idx = np.linspace(0, 400, 5, dtype=int)
        pairs = [(int(i), int(j)) for i in idx for j in idx if j > i]
        omegas = harness.shipped_omegas(1.0)
        for label, rate in (("const2", 2.0), ("zero", 0.0)):
            thinned = [t[m < rate] for t, m in self._draws[label]]
            freq = _survivals(thinned, grid, pairs)
            closed = [np.exp(-rate * (grid[j] - grid[i])) for i, j in pairs]
            if rate == 0.0:
                fails += checks.close_within("zero kernel survival", freq, closed, 0.0)
            else:
                fails += checks.monte_carlo_agrees(
                    f"{label} Monte Carlo vs closed form", freq, closed, self.replicas)
            sampled = [latp.sample_arrivals(omegas[label], seed=self.seed,
                                            replica=r).times for r in range(50)]
            fails += checks.arrays_byte_equal(
                f"{label} sample_arrivals vs thinned stream",
                [np.concatenate(sampled)], [np.concatenate(thinned[:50])])
        return fails

    def metrics(self, setups, rounds, counts, scale):
        walls = [r.seconds("round", scale) for r in rounds]
        jobs = [sum(r.seconds(f"harness.{n}", scale) for n in self.jobs) for r in rounds]
        latp_s = [r.seconds("harness.latp_validation", scale) for r in rounds]
        reps = len(harness.shipped_omegas(1.0)) * self.replicas
        return {
            "wall_s": median(walls),
            "solve_s": median(r.seconds("flow.solve_y_c", scale) for r in setups),
            "candidates_per_s": median(counts["total"] / w for w in walls),
            "jobs_per_s": median(self.jobs_per_round / j for j in jobs),
            "replicas_per_s": median(reps / t for t in latp_s),
        }

    def layer_metrics(self, rec, out, counts):
        return {f"harness.{name}_s": rec.seconds(f"harness.{name}")
                for name in self.jobs + ("latp_validation",)}

    def probe(self, rec, out):
        m = {}
        large = self.n_values[-1]
        log = srp.simulate(intensity.assign_population(self.affine, large),
                           seed=self.seed)
        lattice = self.plan_a.lattice
        with rec.span("measure.lattice_distance") as s:
            measure.sup_distance(log, self.sol_a, TestFunction.ones(), lattice)
        m["measure.lattice_distance_s"] = s.elapsed
        with rec.span("measure.identity_gap") as s:
            LogEvaluator(log).identity_gap(lattice)
        m["measure.identity_gap_s"] = s.elapsed
        ev = LogEvaluator(log)
        with rec.span("measure.positions_at") as s:
            for t in np.linspace(0.0, self.affine.horizon, 101).tolist():
                ev.positions_at(t)
        m["measure.positions_at_s"] = s.elapsed
        ones = TestFunction.ones()
        for g, t in lattice.pairs():
            with rec.span("flow.phi_point"):
                self.sol_a.evaluator.phi(ones, g, t)
        k, y = self.pins[0]
        fld = self.mixture.classes[k].field
        n_cand = 0
        for i in range(PROBE_CALLS):
            cand = streams.tagged_candidates(self.seed, i, fld.sup_norm,
                                             self.mixture.horizon)
            n_cand += len(cand[0])
            with rec.span("flow.tagged_limit_path"):
                flow.tagged_limit_path(self.sol_m, fld, y, cand)
        m["flow.tagged_limit_path_us_per_candidate"] = \
            1e6 * rec.seconds("flow.tagged_limit_path") / n_cand
        for r in range(PROBE_CALLS):
            with rec.span("streams.substream"):
                streams.substream(self.seed, streams.LATP, r)
        om = harness.shipped_omegas(1.0)["one_plus_s"]
        for r in range(PROBE_CALLS):
            with rec.span("latp.sample_arrivals"):
                latp.sample_arrivals(om, seed=self.seed, replica=r)
        m.update(_per_call(rec, {
            "flow.phi_point_us": "flow.phi_point",
            "streams.substream_us": "streams.substream",
            "latp.sample_arrivals_us_per_replica": "latp.sample_arrivals",
        }, scale=1e6))
        return m


def _per_call(rec, names, scale):
    """Median per-call time, and the tail percentile where samples allow."""
    m = {}
    for metric, span in names.items():
        d = np.array(rec.durations(span)) * scale
        m[metric] = float(np.median(d))
        tail = tail_name(len(d))
        if tail:
            m[f"{metric}.{tail}"] = float(np.percentile(d, int(tail[1:])))
    return m


WORKLOADS = {w.name: w for w in (Particles, Limit, Experiments)}
