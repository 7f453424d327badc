"""Argument refusal: every entry point refuses a bool, NaN, an infinity, a
string or None where it takes an integer or a number, with the argument's
name at the start of the message.  ``-k refuse`` selects these tests."""

import argparse
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from rankflow import (ArrivalSequence, ConfigError, ConstantField,
                      DomainError, EvaluationLattice, EventLog, FlowGrid,
                      LatpIntensity, LimitSolution, LogEvaluator,
                      TestFunction, assign_population,
                      boundary, initial, pin_particles, sample_replicas,
                      simulate, solve_y_c, spec_from_config,
                      survival_series, tagged_limit_path, tilde_w)
from rankflow import cli, streams
from rankflow.harness import (ExperimentPlan, coupling_compensator,
                              forced_fixed_point, identify_rates,
                              latp_validation, tagged_compare)
from rankflow.latp import constant_intensity, flow_pullback_affine
from rankflow.measure import _LogBatch

from conftest import constant_single_spec

SPEC = constant_single_spec()
OMEGA = constant_intensity(2.0, 1.0)
FLOW = FlowGrid.identity(1.0, 10, 50)
FIELD = ConstantField(1.0, 1.0)
NO_CANDIDATES = (np.empty(0), np.empty(0))
EVALUATOR = LogEvaluator(simulate(assign_population(SPEC, 50), seed=1))
SOLUTION = solve_y_c(SPEC, n_z=10, n_t=50)


def _kernel(s, t):
    return 5.0 + 0 * s + 0 * t


def _spec_config(horizon):
    return {"horizon": horizon, "classes": [
        {"weight": 1.0, "field": {"kind": "constant", "value": 1.0}}]}


def _latp_args(grid):
    return argparse.Namespace(grid=grid, horizon=1.0, replicas=10, seed=0,
                              out="out")


# entry point: (exception class, argument name, call with the argument)
ENTRY_POINTS = {
    "assign_population.n": (
        ConfigError, "n", lambda x: assign_population(SPEC, x)),
    "replica_candidates.count": (
        ConfigError, "count",
        lambda x: streams.replica_candidates(0, streams.LATP, x, 1.0, 1.0)),
    "sample_replicas.replicas": (
        ConfigError, "replicas", lambda x: sample_replicas(OMEGA, 0, x)),
    "survival_series.kmax": (
        DomainError, "kmax", lambda x: survival_series(OMEGA, 0.2, 0.5, kmax=x)),
    "cmd_latp.grid": (
        ConfigError, "grid", lambda x: cli.cmd_latp(_latp_args(x))),
    "IntensityField.horizon": (
        ConfigError, "horizon", lambda x: ConstantField(1.0, x)),
    "spec_from_config.horizon": (
        ConfigError, "horizon", lambda x: spec_from_config(_spec_config(x))),
    "FlowGrid.horizon": (
        ConfigError, "horizon",
        lambda x: FlowGrid(x, FLOW.init_values, FLOW.bdry_values)),
    "solve_y_c.tol": (
        ConfigError, "tol", lambda x: solve_y_c(SPEC, n_z=10, n_t=50, tol=x)),
    "LatpIntensity.horizon": (
        ConfigError, "horizon", lambda x: LatpIntensity(_kernel, x, 5.0)),
    "survival_series.step": (
        DomainError, "step", lambda x: survival_series(OMEGA, 0.2, 0.5, step=x)),
    "latp_validation.horizon": (
        ConfigError, "horizon",
        lambda x: latp_validation(horizon=x, step=1 / 20, replicas=10)),
    "latp_validation.step": (
        ConfigError, "step", lambda x: latp_validation(step=x, replicas=10)),
    "survival_series.s": (
        DomainError, "s", lambda x: survival_series(OMEGA, x, 0.5)),
    "survival_series.t": (
        DomainError, "t", lambda x: survival_series(OMEGA, 0.2, x)),
    "LatpIntensity.sup_norm": (
        ConfigError, "sup_norm", lambda x: LatpIntensity(_kernel, 1.0, x)),
    "TestFunction.norm_capped": (
        ConfigError, "cap", lambda x: TestFunction.norm_capped(x)),
    "pin_particles.class": (
        ConfigError, "pin 0: class",
        lambda x: pin_particles(assign_population(SPEC, 10), [(x, 0.3)])),
    "pin_particles.target": (
        ConfigError, "pin 0: target",
        lambda x: pin_particles(assign_population(SPEC, 10), [(0, x)])),
    "tagged_limit_path.y_start": (
        DomainError, "y_start",
        lambda x: tagged_limit_path(SimpleNamespace(flow=FLOW), FIELD, x,
                                    NO_CANDIDATES)),
    "tilde_w.z": (DomainError, "z", lambda x: tilde_w(FLOW, FIELD, x)),
    "initial.z": (ConfigError, "coord", initial),
    "boundary.t0": (ConfigError, "coord", boundary),
    "EvaluationLattice.times": (
        ConfigError, "times[1]",
        lambda x: EvaluationLattice(gammas=(initial(0.3),), times=(0.5, x))),
    "flow_pullback_affine.base": (
        ConfigError, "base", lambda x: flow_pullback_affine(x, 0.9, 0.3, 1.0)),
    "flow_pullback_affine.slope": (
        ConfigError, "slope", lambda x: flow_pullback_affine(0.6, x, 0.3, 1.0)),
    "flow_pullback_affine.z": (
        ConfigError, "z", lambda x: flow_pullback_affine(0.6, 0.9, x, 1.0)),
    "flow_pullback_affine.horizon": (
        ConfigError, "horizon",
        lambda x: flow_pullback_affine(0.6, 0.9, 0.3, x)),
    "LogEvaluator.positions_at.t": (
        DomainError, "t", lambda x: EVALUATOR.positions_at(x)),
    "LogEvaluator.positions_of.ts": (
        DomainError, "ts", lambda x: EVALUATOR.positions_of([0], [x])),
    "LogEvaluator.positions_of.particles": (
        ConfigError, "particles", lambda x: EVALUATOR.positions_of([x], [0.5])),
    "LogEvaluator.mu.t": (
        DomainError, "t", lambda x: EVALUATOR.mu(TestFunction.ones(), 0.3, x)),
    "LogEvaluator.mu.y": (
        DomainError, "y", lambda x: EVALUATOR.mu(TestFunction.ones(), x, 0.5)),
    "ArrivalSequence.horizon": (
        ConfigError, "horizon",
        lambda x: ArrivalSequence(times=[0.1], horizon=x)),
    "ArrivalSequence.count.t": (
        DomainError, "t",
        lambda x: ArrivalSequence(times=[0.1], horizon=1.0).count(x)),
    "FlowGrid.theta.t": (
        DomainError, "t", lambda x: FLOW.theta(initial(0.3), x)),
    "PhiEvaluator.phi.t": (
        DomainError, "t",
        lambda x: SOLUTION.evaluator.phi(None, initial(0.3), x)),
    "LimitSolution.phi.t": (
        DomainError, "t", lambda x: SOLUTION.phi(None, initial(0.3), x)),
    "LogEvaluator.phi.t": (
        DomainError, "t", lambda x: EVALUATOR.phi(None, initial(0.3), x)),
    "IntensityField.call.y": (DomainError, "y", lambda x: FIELD(x, 0.5)),
    "IntensityField.call.t": (DomainError, "t", lambda x: FIELD(0.3, x)),
    "LatpIntensity.call.s": (DomainError, "s", lambda x: OMEGA(x, 0.5)),
    "LatpIntensity.call.t": (DomainError, "t", lambda x: OMEGA(0.2, x)),
    "TestFunction.indicator": (
        ConfigError, "class_k", TestFunction.indicator),
    "identify_rates.n": (
        ConfigError, "n",
        lambda x: identify_rates(SPEC, x, 2, "scale", [-0.1, 0.0, 0.1])),
    "identify_rates.seeds": (
        ConfigError, "seeds",
        lambda x: identify_rates(SPEC, 10, x, "scale", [-0.1, 0.0, 0.1])),
    "forced_fixed_point.n": (
        ConfigError, "n", lambda x: forced_fixed_point(SOLUTION, x, 2)),
    "forced_fixed_point.seeds": (
        ConfigError, "seeds", lambda x: forced_fixed_point(SOLUTION, 10, x)),
    "coupling_compensator.n": (
        ConfigError, "n", lambda x: coupling_compensator(SOLUTION, x, 2)),
    "coupling_compensator.seeds": (
        ConfigError, "seeds", lambda x: coupling_compensator(SOLUTION, 10, x)),
}

BAD_VALUES = {"true": True, "np-true": np.True_, "nan": math.nan,
              "inf": math.inf, "str": "1", "none": None}


@pytest.mark.parametrize("value", list(BAD_VALUES.values()),
                         ids=list(BAD_VALUES))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_refuses_a_bad_argument(entry, value):
    # FlowGrid and LatpIntensity once ran horizon=True as 1.0, and
    # latp_validation ran horizon=np.True_; initial(True) built (i:1),
    # EvaluationLattice kept the time True, and flow_pullback_affine built
    # a kernel labelled z=True
    error, name, call = ENTRY_POINTS[entry]
    with pytest.raises(error, match=f"^{re.escape(name)}: "):
        call(value)


# entry point that takes an array: (exception class, argument name, call
# with the argument, an entry the call takes)
ARRAY_ENTRY_POINTS = {
    "IntensityField.call.y": (DomainError, "y", lambda x: FIELD(x, 0.5), 0.3),
    "IntensityField.call.t": (DomainError, "t", lambda x: FIELD(0.3, x), 0.5),
    "LatpIntensity.call.s": (DomainError, "s", lambda x: OMEGA(x, 1.0), 0.2),
    "LatpIntensity.call.t": (DomainError, "t", lambda x: OMEGA(0.2, x), 0.5),
    "LogEvaluator.positions_of.ts": (
        DomainError, "ts", lambda x: EVALUATOR.positions_of([1], x), 0.2),
    "LogEvaluator.positions_of.particles": (
        ConfigError, "particles", lambda x: EVALUATOR.positions_of(x, [0.5]),
        0),
    "ArrivalSequence.times": (
        ConfigError, "times", lambda x: ArrivalSequence(times=x, horizon=1.0),
        0.5),
}

# a bool among numbers, which numpy reads as 1
BOOL_ENTRIES = {"list": lambda ok: [ok, True], "tuple": lambda ok: (ok, True),
                "np-true": lambda ok: [ok, np.True_],
                "nested": lambda ok: [[ok], [True]]}


@pytest.mark.parametrize("where", list(BOOL_ENTRIES))
@pytest.mark.parametrize("entry", list(ARRAY_ENTRY_POINTS))
def test_array_entry_point_refuses_a_bool_among_numbers(entry, where):
    # ConstantField(1.0, 1.0)([0.3, True], 0.5) once returned [1., 1.],
    # positions_of([0, True], [0.5]) read particle 1, and positions_of([1],
    # [0.2, True]) the time 1.0
    error, name, call, ok = ARRAY_ENTRY_POINTS[entry]
    call([ok])
    with pytest.raises(error, match=f"^{re.escape(name)}: must be "):
        call(BOOL_ENTRIES[where](ok))


@pytest.mark.parametrize("sup_norm", [math.nan, math.inf, True, -1.0])
def test_latp_intensity_refuses_a_bad_sup_norm(sup_norm):
    # a NaN bound once passed: survival_solve skipped its fine-step check
    # (h * nan >= 1 is False) and derivative_bound_check read every excess
    # as 0.0 where a bound of 1.0 reads dt_excess 3.88
    with pytest.raises(ConfigError, match="^sup_norm: "):
        LatpIntensity(_kernel, 1.0, sup_norm)


@pytest.mark.parametrize("cap", [math.nan, math.inf, True, "1"])
def test_norm_capped_refuses_a_non_finite_cap(cap):
    # a NaN cap once gave the uncapped norms under the label h=min(norm,nan)
    with pytest.raises(ConfigError, match="^cap: "):
        TestFunction.norm_capped(cap)


def test_tagged_start_points_outside_the_unit_interval_are_refused(
        sol_mixture, spec_mixture):
    # y_start=-0.3 once read the initial table's wrapped-around row 8, so
    # the path stood at 0.8 at t = 0; 1.5 raised EnvelopeBreach and NaN a
    # bare IndexError
    plan = ExperimentPlan(spec=spec_mixture, n_values=(20, 40), seeds=2)
    with pytest.raises(DomainError, match=r"^y_start must lie in \[0,1\]"):
        tagged_compare(plan, pins=[(0, -0.3)], sol=sol_mixture)
    fld = spec_mixture.classes[0].field
    cand = streams.tagged_candidates(0, 0, fld.sup_norm, 1.0)
    for y in (-0.3, 1.5, math.nan):
        with pytest.raises(DomainError, match="^y_start"):
            tagged_limit_path(sol_mixture, fld, y, cand)
    # a bool class once pinned class 1, and a NaN target the class's first
    # particle
    base = assign_population(spec_mixture, 20)
    for pin in ((True, 0.3), (0, math.nan)):
        with pytest.raises(ConfigError, match="^pin 0: "):
            pin_particles(base, [pin])


def test_position_queries_refuse_times_outside_the_horizon():
    # positions_at(nan) and (5.0) once read the positions at the horizon,
    # and (-1.0) the initial slots
    for t in (math.nan, 5.0, -1.0, 1.0 + 1e-6, -1e-9):
        with pytest.raises(DomainError, match="^t: "):
            EVALUATOR.positions_at(t)
        with pytest.raises(DomainError, match="^ts: "):
            EVALUATOR.positions_of([0, 1], [0.5, t])
    # the tolerance of mu and lattice_counts
    ends = EVALUATOR.positions_of([0, 1], [-1e-13, 1.0 + 1e-10])
    assert ends.tobytes() == EVALUATOR.positions_of([0, 1], [0.0, 1.0]).tobytes()
    assert (EVALUATOR.positions_at(1.0 + 1e-10).tobytes()
            == EVALUATOR.positions_at(1.0).tobytes())


@pytest.mark.parametrize("particles", [[-1], [1.5], [True], [50], [0, 50],
                                       np.array([3, -2]), [None]])
def test_position_queries_refuse_a_particle_outside_the_log(particles):
    # [-1] once read particle N-1, [1.5] and [True] particle 1, and [50] a
    # bare IndexError
    with pytest.raises(ConfigError, match="^particles: "):
        EVALUATOR.positions_of(particles, [0.5])


def test_position_queries_take_no_particle():
    assert EVALUATOR.positions_of([], [0.2, 0.5]).shape == (2, 0)


@pytest.mark.parametrize("call, name", [
    (lambda: EVALUATOR.positions_at([0.3]), "t"),
    (lambda: EVALUATOR.mu(TestFunction.ones(), 0.3, [0.5]), "t"),
    (lambda: EVALUATOR.positions_of([0, 1], 0.5), "ts"),
    (lambda: EVALUATOR.positions_of([0, 1], [[0.5, 0.6]]), "ts"),
], ids=["positions_at", "mu", "positions_of-scalar", "positions_of-2d"])
def test_time_queries_refuse_times_of_the_wrong_shape(call, name):
    # positions_at([0.3]) and mu(h, 0.3, [0.5]) once raised a bare
    # TypeError, positions_of([0, 1], 0.5) "len() of unsized object", and
    # a 2-D ts a bare IndexError
    with pytest.raises(DomainError, match=f"^{name}: "):
        call()


@pytest.mark.parametrize("reader", ["evaluator", "batch"])
@pytest.mark.parametrize("particles", [0, np.int64(0), [[0, 1]], [[]],
                                       np.array([[0], [1]])],
                         ids=["int", "np-int", "2d", "2d-empty", "2d-array"])
def test_position_queries_refuse_particles_of_the_wrong_shape(reader,
                                                              particles):
    # positions_of(0, [0.5]) once raised a bare TypeError, "len() of
    # unsized object", and positions_of([[0, 1]], [0.5]) numpy's ValueError
    # about concatenating arrays of different dimensions
    read = EVALUATOR if reader == "evaluator" else _LogBatch([EVALUATOR.log])
    with pytest.raises(ConfigError, match="^particles: must be "):
        read.positions_of(particles, [0.5])


@pytest.mark.parametrize("call, error, name", [
    (lambda: EVALUATOR.positions_of([[0], [1, 2]], [0.5]),
     ConfigError, "particles"),
    (lambda: EVALUATOR.positions_of([0], [[0.5], [0.6, 0.7]]),
     DomainError, "ts"),
    (lambda: FIELD([[0.3], [0.1, 0.2]], 0.5), DomainError, "y"),
    (lambda: FIELD(0.3, [[0.3], [0.1, 0.2]]), DomainError, "t"),
    (lambda: OMEGA([[0.1], [0.1, 0.2]], 0.5), DomainError, "s"),
    (lambda: ArrivalSequence(times=[[0.1], [0.2, 0.3]], horizon=1.0),
     ConfigError, "times"),
], ids=["particles", "ts", "field-y", "field-t", "omega-s", "arrivals"])
def test_array_arguments_refuse_a_ragged_list(call, error, name):
    # each once raised numpy's bare ValueError about an inhomogeneous shape
    with pytest.raises(error, match=f"^{name}: must be .*, got a ragged list"):
        call()


@pytest.mark.parametrize("gamma", [None, [0.3], 0.3, (0.3, 0.0)],
                         ids=["none", "list", "float", "tuple"])
@pytest.mark.parametrize("reader", ["log", "limit", "solution", "theta"])
def test_point_queries_refuse_a_gamma_that_is_no_boundary_point(reader,
                                                                 gamma):
    # phi(ones, None, 0.5) and phi(ones, [0.3], 0.5) once raised a bare
    # AttributeError, from reading gamma.y0 or gamma.kind
    h = TestFunction.ones()
    query = {"log": lambda: EVALUATOR.phi(h, gamma, 0.5),
             "limit": lambda: SOLUTION.evaluator.phi(h, gamma, 0.5),
             "solution": lambda: SOLUTION.phi(h, gamma, 0.5),
             "theta": lambda: FLOW.theta(gamma, 0.5)}[reader]
    with pytest.raises(DomainError, match="^gamma: must be a BoundaryPoint"):
        query()


@pytest.mark.parametrize("loader, what, other", [
    (EventLog.load, "an event log", "text"),
    (EventLog.load, "an event log", "npy"),
    (EventLog.load, "an event log", "solve_cache"),
    (LimitSolution.load, "a solve cache", "text"),
], ids=["log-text", "log-npy", "log-solve_cache", "cache-text"])
def test_loaders_refuse_a_file_that_they_did_not_write(loader, what, other,
                                                       tmp_path):
    # EventLog.load once raised a bare ValueError on a text file, a
    # TypeError on an .npy array and a KeyError on a solve cache; both
    # loaders quoted numpy's advice to load a text file with allow_pickle
    path = tmp_path / "file"
    if other == "text":
        path.write_text("time,particle,pre_position\n")
    elif other == "npy":
        path = tmp_path / "file.npy"
        np.save(path, np.zeros(3))
    else:
        path = tmp_path / "y_c.npz"
        SOLUTION.save(path)
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(str(path))}: not {what}: ") as exc:
        loader(path, SPEC)
    assert "allow_pickle" not in str(exc.value)
