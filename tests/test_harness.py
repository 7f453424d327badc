import json
import math
from pathlib import Path

import numpy as np
import pytest

from rankflow import (ConfigError, FlowGrid, ProductField, assign_population,
                      load_spec, solve_y_c, spec_from_config)
from rankflow.cli import _write_json
from rankflow.harness import (ExperimentPlan, SolverSettings, convergence_sweep,
                              coupling_compensator, coupling_sweep,
                              flow_driven_sweep, forced_fixed_point,
                              identify_rates, latp_validation, tagged_compare)
from rankflow import flow, harness, latp, srp
from rankflow.measure import EvaluationLattice, TestFunction

from conftest import (RANK_FEEDBACK_SPEC, STEEP_SPECS, constant_mixture_spec,
                      constant_single_spec, uniform_single_class,
                      zero_rate_spec)
from oracles import (config_eps_hat, split_and_compensator,
                     triu_forced_fixed_point)

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("field, value, message", [
    ("n_values", (2.7, 4), "n_values[0]: must be an integer, got 2.7"),
    ("n_values", (True, 4), "n_values[0]: must be an integer, got True"),
    ("n_values", (2, math.nan), "n_values[1]: must be an integer, got nan"),
    ("n_values", (2, math.inf), "n_values[1]: must be an integer, got inf"),
    ("n_values", ("8",), "n_values[0]: must be an integer, got '8'"),
    ("n_values", (0, 4), "n_values[0]: must be >= 1, got 0"),
    ("n_values", (-5,), "n_values[0]: must be >= 1, got -5"),
    ("seeds", True, "seeds: must be an integer, got True"),
    ("seeds", 4.0, "seeds: must be an integer, got 4.0"),
    ("seeds", 1, "seeds: must be >= 2, got 1"),
    ("workers", False, "workers: must be an integer, got False"),
    ("workers", 1.5, "workers: must be an integer, got 1.5"),
    ("workers", 0, "workers: must be >= 1, got 0"),
])
def test_plan_refuses_a_bad_field(field, value, message):
    # (2.7, 4) once ran as (2, 4), (True, 4) as (1, 4), and an N of 0
    # passed until the sweep assigned particles
    kwargs = {"n_values": (10, 20), "seeds": 2, "workers": 1} | {field: value}
    with pytest.raises(ConfigError) as exc:
        ExperimentPlan(spec=constant_single_spec(), **kwargs)
    assert str(exc.value) == message


def test_plan_refuses_test_functions_sharing_a_label():
    # a sweep keys each record's values by label, so a repeat would be lost
    with pytest.raises(ConfigError, match="labels must be distinct"):
        ExperimentPlan(spec=constant_single_spec(), n_values=(10,), seeds=2,
                       test_functions=(TestFunction.ones(), TestFunction.ones()))


def test_plan_takes_numpy_integers():
    plan = ExperimentPlan(spec=constant_single_spec(),
                          n_values=np.array([10, 20]), seeds=np.int64(3),
                          workers=np.int32(1))
    assert plan.n_values == (10, 20)
    assert all(type(n) is int for n in plan.n_values)


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


def _one_seed_runs(assignment, seeds):
    return [range(seed, seed + 1) for seed in range(seeds)]


@pytest.mark.parametrize("sweep", [convergence_sweep, flow_driven_sweep,
                                   coupling_sweep, tagged_compare],
                         ids=lambda f: f.__name__)
def test_sweep_bytes_independent_of_seed_runs(sweep, monkeypatch, tmp_path,
                                              sol_affine, spec_affine):
    # jobs of many seeds, thinned as one engine batch, against one seed a job
    plan = small_plan(spec_affine, n_values=(40, 160, 3000), seeds=5)
    assert [len(srp._seed_runs(a, 5)) for a in harness._assignments(plan)] \
        == [1, 1, 2]
    outs = []
    for runs in (srp._seed_runs, _one_seed_runs):
        monkeypatch.setattr(srp, "_seed_runs", runs)
        path = tmp_path / f"{runs.__name__}.csv"
        sweep(plan, sol=sol_affine).to_csv(path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("n, seeds, per", [
    (100, 20, 20), (1600, 20, 7), (1600, 7, 7), (20_000, 3, 1)])
def test_seed_runs_fill_one_batch_window(spec_affine, n, seeds, per):
    # the affine spec's envelopes sum to 1.35 N
    runs = srp._seed_runs(harness.assign_population(spec_affine, n), seeds)
    assert [seed for run in runs for seed in run] == list(range(seeds))
    assert max(len(run) for run in runs) == per


def test_sweep_records_keep_label_and_row_order(sol_affine, spec_affine):
    plan = ExperimentPlan(spec=spec_affine, n_values=(30, 60), seeds=3,
                          test_functions=(TestFunction.ones(),
                                          TestFunction.indicator(0)))
    rep = flow_driven_sweep(plan, sol=sol_affine)
    assert [m.label for m in rep.metrics] == \
        ["sup_phi[h=1]", "sup_phi[h=1_class0]", "sup_curve_to_theta"]
    for m in rep.metrics:
        assert [(n, seed) for n, seed, _ in m.rows] == \
            [(n, seed) for n in (30, 60) for seed in range(3)]


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
    # a limit path depends on (seed, pin) and not on N: one thinning call
    # per pin, whose runs are the pin's paths, one particle each, one per
    # seed
    calls = []
    thin = flow._thin_along_flow

    def counting(*args):
        y0, sizes = args[3], args[-1]
        calls.append((y0.tolist(), len(sizes)))
        return thin(*args)

    monkeypatch.setattr(flow, "_thin_along_flow", counting)
    plan = small_plan(spec_affine, n_values=(30, 60, 90), seeds=3)
    tagged_compare(plan, pins=[(0, 0.3), (1, 0.7)], sol=sol_affine)
    assert calls == [([0.3], 3), ([0.7], 3)]


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
    for ti, n, seed, v, _ in rep.rows:
        y_star = rep.pins[ti][1]
        slots = np.arange(n) / n
        nearest = slots[np.argmin(np.abs(slots - y_star))]
        assert v == abs(nearest - y_star)
        assert all(c == 0 for _, _, _, _, c in rep.rows)


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


def test_latp_validation_keeps_a_nan_series_gap(monkeypatch):
    # the builtin max(0.0, nan) is 0.0, so a NaN series value once passed
    series = latp.survival_series
    calls = []

    def nan_at_third_pair(omega, s, t, **kwargs):
        calls.append((s, t))
        return math.nan if len(calls) == 3 else series(omega, s, t, **kwargs)

    monkeypatch.setattr(harness.latp, "survival_series", nan_at_third_pair)
    rep = latp_validation({"const2": latp.constant_intensity(2.0, 1.0)},
                          step=1 / 50, replicas=200, seed=0)
    (row,) = rep.rows
    assert math.isnan(row.series_gap)
    assert not row.passed() and not rep.all_passed()


def test_latp_validation_series_per_start_node_on_a_repeating_lattice(
        monkeypatch):
    # at step 0.25 a lattice of 9 repeats the nodes 0 to 3, and its report
    # is that of the lattice of each node once; the series runs once per
    # distinct start node, over its end nodes in pair order
    omegas = harness.shipped_omegas(1.0)
    settings = {"step": 0.25, "replicas": 300, "seed": 4}
    want = latp_validation(omegas, lattice_size=5, **settings)
    series = latp.survival_series
    calls = []

    def record(omega, s, t, **kwargs):
        calls.append((omega.label, float(s), np.asarray(t).tolist()))
        return series(omega, s, t, **kwargs)

    monkeypatch.setattr(harness.latp, "survival_series", record)
    got = latp_validation(omegas, lattice_size=9, **settings)
    assert got.summary() == want.summary()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for label, omega in sorted(omegas.items()):
        assert [c[1:] for c in calls if c[0] == omega.label] == \
            [(s, grid[i:]) for i, s in enumerate(grid)]


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
    ("step", True, "step: must be positive and finite"),
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


# -- the evidence routines against their inline references ----------------

# the small byte tests' configs, and eps grids wide enough that no seed's
# argmin sits on an edge at N = 2**10
SMALL_IDENT = {
    "affine": json.loads((ROOT / "configs" / "affine_two_class.json").read_text()),
    "steep": STEEP_SPECS["affine_0_5_5_0"],
}
SMALL_GRIDS = {"scale": np.linspace(-0.4, 0.4, 9),
               "tilt": np.linspace(-0.8, 0.8, 9)}


@pytest.mark.parametrize("name, family", [
    ("affine", "scale"), ("affine", "tilt"), ("steep", "scale")])
def test_identify_rates_is_its_oracle(name, family):
    got = identify_rates(spec_from_config(SMALL_IDENT[name]), 2 ** 10, 4,
                         family, SMALL_GRIDS[family])
    want = config_eps_hat(SMALL_IDENT[name], 2 ** 10, 4, family,
                          SMALL_GRIDS[family])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg", [STEEP_SPECS["affine_0_5_5_0"],
                                 RANK_FEEDBACK_SPEC], ids=["steep", "w20y"])
def test_forced_fixed_point_is_its_oracle(cfg):
    spec = spec_from_config(cfg)
    fp = forced_fixed_point(solve_y_c(spec, n_z=20, n_t=50), 2 ** 10, 4)
    want = triu_forced_fixed_point(spec, 2 ** 10, 50, 4)
    got = (fp.y_c, fp.original, fp.driven, fp.theta)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("cfg", [
    SMALL_IDENT["affine"], *STEEP_SPECS.values()],
    ids=["affine", *STEEP_SPECS])
def test_coupling_compensator_is_its_oracle(cfg):
    sol = solve_y_c(spec_from_config(cfg), n_z=20, n_t=200)
    splits, comp = coupling_compensator(sol, 2 ** 10, 4)
    assignment = assign_population(sol.spec, 2 ** 10)
    want = [split_and_compensator(assignment, sol.flow, seed)
            for seed in range(4)]
    assert splits.tolist() == [s for s, _ in want]
    assert comp.tobytes() == np.array([c for _, c in want]).tobytes()


@pytest.mark.parametrize("path", sorted(
    [p for p in (ROOT / "configs").glob("*.json") if p.stem != "zero_rate"]
    + [ROOT / "bench" / "table_two_class.json"]), ids=lambda p: p.stem)
def test_identify_rates_scales_every_field_kind(path):
    eps_hat = identify_rates(load_spec(path), 2 ** 10, 4, "scale",
                             SMALL_GRIDS["scale"])
    assert eps_hat.shape == (4,) and np.all(np.abs(eps_hat) < 0.4)


def test_identify_rates_scales_a_product_field():
    # a product field scales its spatial factor, so its rate by 1 + eps
    spec = uniform_single_class(ProductField(0.5, 1.0, 1.0, 0.5, 1.0))
    moved = harness._moved_spec(spec, "scale", 0.25)
    assert moved.classes[0].field(0.3, 0.6) == 1.25 * spec.classes[0].field(0.3, 0.6)
    eps_hat = identify_rates(spec, 2 ** 10, 4, "scale", SMALL_GRIDS["scale"])
    assert np.all(np.abs(eps_hat) < 0.4)


def test_identify_rates_refuses_what_it_cannot_measure():
    # the tilt moves affine fields only, and names the first other class
    with pytest.raises(ConfigError, match=r"^classes\[0\]\.field: the tilt "
                                          r"family moves affine fields only, "
                                          r"got 'constant'"):
        identify_rates(constant_mixture_spec(), 2 ** 8, 2, "tilt",
                       SMALL_GRIDS["tilt"])
    with pytest.raises(ConfigError, match="^family: "):
        identify_rates(constant_mixture_spec(), 2 ** 8, 2, "shift",
                       SMALL_GRIDS["scale"])
    for grid in ([0.0, 0.1], [0.1, 0.0, -0.1], [0.0, 0.1, 0.3],
                 [[0.0, 0.1, 0.2]], [0.0, math.nan, 0.2]):
        with pytest.raises(ConfigError, match="^grid: must be at least 3"):
            identify_rates(constant_mixture_spec(), 2 ** 8, 2, "scale", grid)
    # a zero rate does not move under a scale: every eps fits alike, and
    # the argmin sits on the grid's first eps
    with pytest.raises(ConfigError, match="^grid: seed 0's argmin sits on "
                                          "the grid's edge"):
        identify_rates(zero_rate_spec(), 2 ** 8, 2, "scale",
                       SMALL_GRIDS["scale"])
