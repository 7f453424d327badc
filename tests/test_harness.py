import math

import numpy as np
import pytest

from rankflow import ConfigError, FlowGrid
from rankflow.cli import _write_json
from rankflow.harness import (ExperimentPlan, SolverSettings, convergence_sweep,
                              coupling_sweep, flow_driven_sweep,
                              latp_validation, tagged_compare)
from rankflow import harness, latp
from rankflow.measure import EvaluationLattice

from conftest import constant_mixture_spec, constant_single_spec, zero_rate_spec


def small_plan(spec, n_values=(50, 200), seeds=4, workers=1):
    return ExperimentPlan(spec=spec, n_values=n_values, seeds=seeds,
                          solver=SolverSettings(n_z=10, n_t=100),
                          workers=workers)


def test_plan_validation():
    spec = constant_single_spec()
    with pytest.raises(ConfigError):
        ExperimentPlan(spec=spec, n_values=(100, 100), seeds=4)
    with pytest.raises(ConfigError):
        ExperimentPlan(spec=spec, n_values=(100,), seeds=1)


def test_plan_lattice_is_the_regular_one():
    spec = constant_single_spec(horizon=2.0)
    plan = ExperimentPlan(spec=spec, n_values=(100,), seeds=2)
    assert plan.lattice == EvaluationLattice.regular(2.0)
    with pytest.raises(TypeError):
        ExperimentPlan(spec=spec, n_values=(100,), seeds=2,
                       lattice=EvaluationLattice.regular(2.0))


def test_convergence_sweep_zero_rates_bounded_by_initial_gap():
    plan = small_plan(zero_rate_spec())
    rep = convergence_sweep(plan)
    for n, _, v in rep.metric("sup_phi[h=1]").rows:
        assert v <= 1.0 / n + 1e-9


def test_convergence_sweep_decreases():
    plan = small_plan(constant_single_spec(), n_values=(50, 400), seeds=6)
    rep = convergence_sweep(plan)
    m = rep.metric("sup_phi[h=1]")
    assert m.strictly_decreasing()
    slope, _ = m.slope_fit()
    assert slope < 0


def test_sweep_report_reproducible_bytes(tmp_path):
    plan = small_plan(constant_mixture_spec(), n_values=(40, 160), seeds=3)
    paths = []
    for tag in ("a", "b"):
        rep = convergence_sweep(plan)
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        rep.to_csv(csv)
        _write_json(js, rep.summary())
        paths.append((csv.read_bytes(), js.read_bytes()))
    assert paths[0] == paths[1]


@pytest.mark.parametrize("sweep", [convergence_sweep, flow_driven_sweep,
                                   coupling_sweep], ids=lambda f: f.__name__)
def test_sweep_workers_match_serial(sweep, sol_affine, spec_affine):
    # the pool pickles the assignments and the flow into every job
    reports = [sweep(small_plan(spec_affine, n_values=(40, 160), seeds=3,
                                workers=workers), sol=sol_affine)
               for workers in (1, 2)]
    assert [m.rows for m in reports[0].metrics] == \
        [m.rows for m in reports[1].metrics]
    assert reports[0].meta == reports[1].meta


def test_sweeps_assign_each_population_once(monkeypatch, sol_affine,
                                            spec_affine):
    calls = []
    assign = harness.assign_population

    def counting(spec, n, *args, **kwargs):
        calls.append(n)
        return assign(spec, n, *args, **kwargs)

    monkeypatch.setattr(harness, "assign_population", counting)
    plan = small_plan(spec_affine, n_values=(30, 60), seeds=3)
    for run in (convergence_sweep, flow_driven_sweep, coupling_sweep,
                tagged_compare):
        calls.clear()
        run(plan, sol=sol_affine)
        assert calls == [30, 60], run.__name__


def test_tagged_compare_solves_each_limit_path_once(monkeypatch, sol_affine,
                                                   spec_affine):
    # a limit path depends on (seed, pin) and not on N
    calls = []
    solve = harness.tagged_limit_path

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "tagged_limit_path", counting)
    plan = small_plan(spec_affine, n_values=(30, 60, 90), seeds=3)
    tagged_compare(plan, pins=[(0, 0.3), (1, 0.7)], sol=sol_affine)
    assert len(calls) == 3 * 2


def test_flow_driven_sweep_reads_the_solutions_evaluator(monkeypatch,
                                                        sol_affine, spec_affine):
    # the flow of ``sol`` has its evaluator already; a given flow needs one
    builds = []
    build = harness.PhiEvaluator

    def counting(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(harness, "PhiEvaluator", counting)
    plan = small_plan(spec_affine, n_values=(30, 60), seeds=2)
    from_sol = flow_driven_sweep(plan, sol=sol_affine)
    assert builds == []
    from_flow = flow_driven_sweep(plan, flow=sol_affine.flow)
    assert builds == [1]
    assert [m.rows for m in from_sol.metrics] == [m.rows for m in from_flow.metrics]


def test_flow_driven_sweep_identity_flow_has_curve_metric():
    spec = constant_mixture_spec()
    plan = small_plan(spec, n_values=(50, 200), seeds=4)
    rep = flow_driven_sweep(plan, flow=FlowGrid.identity(1.0, 10, 100))
    # position independent: same law as the original engine
    assert rep.metric("sup_phi[h=1]").strictly_decreasing()
    assert rep.metric("sup_curve_to_theta").values_for(200).size == 4


def test_flow_driven_sweep_at_fixed_point_curve_converges(sol_affine,
                                                          spec_affine):
    # driving with y_C itself: the empirical curve tracks the flow, so the
    # curve-to-theta distance must fall like the phi distance
    plan = ExperimentPlan(spec=spec_affine, n_values=(100, 800), seeds=6)
    rep = flow_driven_sweep(plan, sol=sol_affine)
    curve = rep.metric("sup_curve_to_theta")
    assert curve.strictly_decreasing(), curve.means
    assert curve.means[-1] < 0.05
    assert rep.metric("sup_phi[h=1]").strictly_decreasing()


def test_coupling_sweep_position_independent_is_zero():
    plan = small_plan(constant_mixture_spec(), n_values=(30, 120), seeds=3)
    rep = coupling_sweep(plan)
    assert all(v == 0.0 for _, _, v in rep.metric("decoupled_fraction").rows)


def test_tagged_compare_zero_rates_exact():
    spec = zero_rate_spec()
    plan = small_plan(spec, n_values=(25, 50), seeds=2)
    rep = tagged_compare(plan, pins=[(0, 0.3), (0, 0.62)])
    for ti, n, seed, v in rep.sup_rows:
        y_star = rep.pins[ti][1]
        slots = np.arange(n) / n
        nearest = slots[np.argmin(np.abs(slots - y_star))]
        assert v == abs(nearest - y_star)
        assert all(c == 0 for _, _, _, c in rep.count_rows)


def test_tagged_jump_times_bitwise_shared_with_limit_path(sol_mixture,
                                                          spec_mixture):
    # constant rates: identical thresholds, identical candidate streams,
    # so the finite-N particle and its limit path jump at the same floats
    from rankflow import simulate, streams
    from rankflow.flow import tagged_limit_path
    from rankflow.intensity import assign_population, pin_particles
    pins = [(1, 0.7)]
    matched = 0
    for seed in range(8):
        a = pin_particles(assign_population(spec_mixture, 300), pins)
        log = simulate(a, seed=seed, tagged=1)
        fld = spec_mixture.classes[1].field
        cand = streams.tagged_candidates(seed, 0, fld.sup_norm, 1.0)
        path = tagged_limit_path(sol_mixture, fld, 0.7, cand)
        assert np.array_equal(log.times[log.particles == 0], path.jump_times)
        matched += len(path.jump_times)
    assert matched > 0  # the assertion above must not be vacuous


def test_latp_validation_small():
    omegas = {"zero": latp.zero_intensity(1.0),
              "const2": latp.constant_intensity(2.0, 1.0)}
    rep = latp_validation(omegas, step=1 / 100, replicas=1500, seed=1)
    assert rep.all_passed()
    zero_row = next(r for r in rep.rows if r.label == "zero")
    assert zero_row.series_gap == 0.0 and zero_row.mc_max_gap == 0.0


def test_latp_report_json(tmp_path):
    omegas = {"zero": latp.zero_intensity(1.0)}
    rep = latp_validation(omegas, step=1 / 50, replicas=200, seed=0)
    path = tmp_path / "latp.json"
    _write_json(path, rep.summary())
    assert b'"all_passed": true' in path.read_bytes()


def test_latp_validation_tallies_match_scalar_loop():
    # the Monte Carlo columns, recomputed from per-replica sample_arrivals
    # tallies, equal the batched pass exactly
    step, reps, seed = 1 / 100, 300, 5
    rep = latp_validation(step=step, replicas=reps, seed=seed)
    grid = np.linspace(0.0, 1.0, 101)
    idx = np.linspace(0, 100, 5, dtype=int)
    pairs = [(i, j) for i in idx for j in idx if j >= i]
    omegas = harness.shipped_omegas(1.0)
    assert sorted(r.label for r in rep.rows) == sorted(omegas)
    for row in rep.rows:
        omega = omegas[row.label]
        table = latp.survival_solve(omega, grid)
        paths = [latp.sample_arrivals(omega, seed=seed, replica=r)
                 for r in range(reps)]
        max_z = max_gap = 0.0
        for i, j in pairs:
            survived = sum(a.no_arrival_in(grid[i], grid[j]) for a in paths)
            p_hat = survived / reps
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / reps)
            gap = abs(p_hat - table.p[i, j])
            max_gap = max(max_gap, gap)
            max_z = max(max_z, gap / se)
        assert row.mc_max_z == max_z and row.mc_max_gap == max_gap
        assert type(row.mc_max_z) is float and type(row.passed()) is bool


@pytest.mark.parametrize("replicas", [0, -3])
def test_latp_validation_refuses_replicas_below_one(replicas):
    with pytest.raises(ConfigError, match="replicas: must be >= 1"):
        latp_validation({"zero": latp.zero_intensity(1.0)}, step=1 / 20,
                        replicas=replicas)


@pytest.mark.parametrize("arg, value, message", [
    ("lattice_size", 0, "lattice_size: must be >= 2"),
    ("lattice_size", 1, "lattice_size: must be >= 2"),
    ("lattice_size", True, "lattice_size: must be an integer"),
    ("step", 0.0, "step: must be positive and finite"),
    ("step", -0.01, "step: must be positive and finite"),
    ("step", math.nan, "step: must be positive and finite"),
    ("step", math.inf, "step: must be positive and finite"),
    ("step", 2.0, "step: 2.0 leaves fewer than two grid nodes"),
    ("step", 3.0, "step: 3.0 leaves fewer than two grid nodes"),
    ("horizon", True, "horizon: must be positive and finite"),
    ("replicas", True, "replicas: must be an integer"),
    ("replicas", 2.5, "replicas: must be an integer"),
])
def test_latp_validation_refuses_bad_settings(arg, value, message):
    # lattice sizes 0 and 1 once reported all_passed with no pair s < t
    # checked, and horizon=True ran as 1.0
    kwargs = {"step": 1 / 20, "replicas": 10} | {arg: value}
    with pytest.raises(ConfigError, match=f"^{message}"):
        latp_validation({"zero": latp.zero_intensity(1.0)}, **kwargs)
