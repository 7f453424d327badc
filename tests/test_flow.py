import io
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rankflow import (ConfigError, ConvergenceError, DomainError, FlowGrid,
                      PhiEvaluator, boundary, initial, solve_y_c, tagged_limit_path, tilde_w, verify_ode_form)
from rankflow.flow import LimitSolution, _project, _require_grid
from rankflow.latp import (MAX_TABLE_ENTRIES, _cumulative_trapezoid,
                           _grid_cells)
from rankflow.intensity import AffineField, ConstantField, load_spec
from rankflow import flow as flow_module, streams

from conftest import (affine_two_class_spec, constant_mixture_spec,
                      constant_single_spec, uniform_single_class)
from oracles import (loop_boundary, loop_initial, loop_project,
                     loop_verify_ode_form)

ROOT = Path(__file__).resolve().parents[1]


def test_identity_flow_values():
    fl = FlowGrid.identity(1.0, 10, 50)
    assert fl.theta(initial(0.35), 0.9) == pytest.approx(0.35)
    assert fl.theta(boundary(0.4), 0.8) == 0.0
    assert fl.theta(initial(1.0), 0.2) == 1.0


def test_flow_admissibility():
    fl = FlowGrid.identity(1.0, 10, 50)
    with pytest.raises(DomainError):
        fl.theta(boundary(0.5), 0.2)


@pytest.mark.parametrize("make", [initial, boundary])
@pytest.mark.parametrize("coord", [math.nan, math.inf, -math.inf])
def test_boundary_point_refuses_a_non_finite_coordinate(make, coord):
    with pytest.raises(ConfigError, match="finite"):
        make(coord)


def test_flow_grid_invariant_checks():
    init = np.tile(np.linspace(0, 1, 11)[:, None], (1, 51))
    bad = init.copy()
    bad[3, 10] = 0.01  # breaks z-monotonicity
    with pytest.raises(ConfigError):
        FlowGrid(1.0, bad, np.zeros((51, 51)))


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_flow_grid_refuses_a_bad_horizon(horizon):
    init = np.tile(np.linspace(0, 1, 11)[:, None], (1, 51))
    with pytest.raises(ConfigError, match="horizon: must be positive and finite"):
        FlowGrid(horizon, init, np.zeros((51, 51)))


@pytest.mark.parametrize("where, message", [
    ((5, slice(10, 11)), "non-decreasing in t (boundary rows)"),
    ((5, slice(10, None)), "not monotone across boundary rows"),
], ids=["decreasing-row", "column-rises"])
def test_flow_grid_refuses_non_monotone_boundary_rows(where, message):
    # identity boundary rows are 0; 0.1 on part of row 5 makes that row
    # fall back to 0, or (on its whole tail) the columns rise at row 5
    bdry = np.zeros((51, 51))
    bdry[where] = 0.1
    init = np.tile(np.linspace(0, 1, 11)[:, None], (1, 51))
    with pytest.raises(ConfigError, match=re.escape(message)):
        FlowGrid(1.0, init, bdry)


@pytest.mark.parametrize("table, where", [
    ("initial", (4, 20)),
    ("boundary", (5, 30)),
    ("boundary", (30, 5)),
], ids=["initial-row", "boundary-row", "padding"])
def test_flow_grid_refuses_nan(table, where):
    # every comparison with NaN is false; a NaN in a boundary row above
    # its diagonal or in the zero padding below it is refused as well
    tables = {"initial": np.tile(np.linspace(0, 1, 11)[:, None], (1, 51)),
              "boundary": np.zeros((51, 51))}
    tables[table][where] = np.nan
    with pytest.raises(ConfigError, match=f"^{table} table: .*NaN"):
        FlowGrid(1.0, tables["initial"], tables["boundary"])


@pytest.mark.parametrize("n_z, n_t, name", [
    (1, 4096, "n_t"), (5000, 4000, "n_z"), (4096, 4096, "n_t"),
])
def test_flow_grid_refuses_oversize_tables(n_z, n_t, name):
    # refused before the tables are built: the first is one (4097)^2
    # boundary table of 134 MB, the second a 5001 x 4001 initial table
    with pytest.raises(ConfigError, match=f"^{name}: .* above the "
                                          f"{MAX_TABLE_ENTRIES} allowed"):
        FlowGrid.identity(1.0, n_z, n_t)


@pytest.mark.parametrize("n_z, n_t", [(4095, 4095), (4192, 4000)])
def test_grid_check_takes_the_largest_tables(n_z, n_t):
    _require_grid(n_z, n_t)
    with pytest.raises(ConfigError, match="^n_z: "):
        _require_grid(n_z + 1, n_t)


def flow_from_function(fn, horizon, n_z, n_t):
    """Sample theta(gamma, t) from a callable on the grid."""
    dt = horizon / n_t
    init = np.empty((n_z + 1, n_t + 1))
    bdry = np.zeros((n_t + 1, n_t + 1))
    for jz in range(n_z + 1):
        g = initial(jz / n_z)
        for jt in range(n_t + 1):
            init[jz, jt] = fn(g, jt * dt)
    for l in range(n_t + 1):
        g = boundary(l * dt)
        for jt in range(l, n_t + 1):
            bdry[l, jt] = fn(g, jt * dt)
    return FlowGrid(horizon, init, bdry)


def closed_form_unit_flow(n_z=20, n_t=100):
    # limit flow of the unit-rate uniform population
    def fn(g, t):
        if g.kind == "initial":
            return 1.0 - (1.0 - g.coord) * math.exp(-t)
        return 1.0 - math.exp(-(t - g.coord))
    return flow_from_function(fn, 1.0, n_z, n_t)


UNIT_FLOW = closed_form_unit_flow(10, 50)


@st.composite
def reset_queries(draw):
    """(y0, last, t) arrays with times drawn among the grid nodes, at the
    horizon and between nodes, and positions and times up to the rounding
    slack that ``theta`` accepts outside [0, 1] and [0, horizon]."""
    fl = UNIT_FLOW
    times = st.one_of(st.sampled_from(fl.t_nodes.tolist()),
                      st.just(fl.horizon), st.floats(-1e-12, fl.horizon + 1e-9))
    n = draw(st.integers(1, 8))
    y0 = draw(st.lists(st.floats(-1e-12, 1.0 + 1e-12), min_size=n, max_size=n))
    last = draw(st.lists(st.one_of(st.just(0.0), times), min_size=n,
                         max_size=n))
    t = draw(st.lists(times, min_size=n, max_size=n))
    return np.array(y0), np.array(last), np.array(t)


@settings(max_examples=300, deadline=None)
@given(reset_queries())
def test_eval_from_matches_per_table_loops(case):
    y0, last, t = case
    fl = UNIT_FLOW
    want = np.where(last == 0, loop_initial(fl, y0, t),
                    loop_boundary(fl, last, t))
    assert fl._eval_from(y0, last, t).tobytes() == want.tobytes()
    one = fl._eval_from(float(y0[0]), float(last[0]), float(t[0]))
    assert type(one) is float and one == want[0]


def test_tilde_w_constant_field():
    fl = closed_form_unit_flow()
    w = ConstantField(3.0, 1.0)
    om = tilde_w(fl, w, 0.4)
    ss = np.array([0.0, 0.1, 0.5])
    tt = np.array([0.3, 0.6, 0.9])
    assert np.allclose(om(ss, tt), 3.0)


def test_tilde_w_initial_row_substitution():
    # w(y,t) = y so the kernel at s = 0 is the initial curve itself
    fl = closed_form_unit_flow()
    w = AffineField(0.0, 1.0, 1.0)
    om = tilde_w(fl, w, 0.25)
    t = 0.6
    assert om(0.0, t) == pytest.approx(fl.theta(initial(0.25), t), abs=1e-12)


def test_tilde_w_z_independent_for_positive_s():
    fl = closed_form_unit_flow()
    w = AffineField(0.2, 0.8, 1.0)
    a = tilde_w(fl, w, 0.1)
    b = tilde_w(fl, w, 0.9)
    ss = np.array([0.05, 0.3, 0.7])
    tt = np.array([0.4, 0.5, 0.95])
    assert np.array_equal(a(ss, tt), b(ss, tt))


def test_phi_theta_at_start_is_initial_tail():
    fl = FlowGrid.identity(1.0, 20, 100)
    spec = affine_two_class_spec()
    val = PhiEvaluator(fl, spec).phi(None, initial(0.3), 0.0)
    assert val == pytest.approx(0.7, abs=1e-12)


def test_phi_theta_constant_closed_form():
    # position independence makes theta irrelevant: phi = (1-y0) e^{-ct}
    spec = constant_single_spec(1.0)
    for fl in (FlowGrid.identity(1.0, 10, 100), closed_form_unit_flow(10, 100)):
        ev = PhiEvaluator(fl, spec)
        val = ev.phi(None, initial(0.5), 1.0)
        assert val == pytest.approx(0.5 * math.exp(-1.0), abs=1e-9)


def test_phi_theta_mixture_closed_form():
    spec = constant_mixture_spec(rates=(0.7, 2.0), weights=(0.5, 0.5))
    ev = PhiEvaluator(FlowGrid.identity(1.0, 10, 200), spec)
    t0, t = 0.3, 0.9
    want = 0.5 * math.exp(-0.7 * (t - t0)) + 0.5 * math.exp(-2.0 * (t - t0))
    assert ev.phi(None, boundary(t0), t) == pytest.approx(want, abs=5e-5)


def phi_initial_per_cell(ev, hv, y0, t):
    """The per-cell sum of Histogram.mass calls, oracle for the initial
    pairs of PhiEvaluator._phis; it computes each cell's pre-arrival
    survival along the midpoint curve."""
    fl = ev.flow
    j, mu = _grid_cells(t, fl.dt, fl.n_t)
    edges = fl.z_nodes
    theta_mid = 0.5 * (fl.init_values[:-1] + fl.init_values[1:])
    total = 0.0
    for k, cls in enumerate(ev.spec.classes):
        s0 = np.exp(-_cumulative_trapezoid(
            cls.field._values(theta_mid, fl.t_nodes), fl.dt))
        s0_t = s0[:, j] * (1 - mu) + s0[:, j + 1] * mu
        for c in range(fl.n_z):
            if edges[c + 1] <= y0 + 1e-15:
                continue
            m = cls.weight * cls.density.mass(max(y0, edges[c]), edges[c + 1])
            total += hv[k] * m * s0_t[c]
    return float(total)


def test_phi_initial_matches_per_cell_sum(sol_affine, spec_affine):
    # densities with a break inside a flow cell (0.37 on a 1/20 grid)
    from rankflow.intensity import Histogram, PopulationClass, PopulationSpec
    b = (1.0 - 0.37 * 1.6) / 0.63
    segregated = PopulationSpec(classes=(
        PopulationClass(0.5, spec_affine.classes[0].field,
                        Histogram((0.0, 0.37, 1.0), (1.6, b))),
        PopulationClass(0.5, spec_affine.classes[1].field,
                        Histogram((0.0, 0.37, 1.0), (0.4, 2.0 - b))),
    ), horizon=1.0)
    rng = np.random.default_rng(5)
    ys = np.concatenate([rng.random(40), sol_affine.flow.z_nodes, [0.0, 1.0]])
    ts = np.concatenate([rng.random(5), [0.0, 1.0]])
    for ev in (sol_affine.evaluator, PhiEvaluator(sol_affine.flow, segregated)):
        for hv in (np.ones(2), np.array([1.0, 0.0]), np.array([0.3, 2.0])):
            for y0 in ys.tolist():
                for t in ts.tolist():
                    got = ev.phi(hv, initial(y0), t)
                    assert abs(got - phi_initial_per_cell(ev, hv, y0, t)) <= 1e-15


@pytest.mark.parametrize("solution", ["sol_affine", "sol_table"])
def test_phi_initial_reads_the_tail_table_at_grid_nodes(solution, request):
    # at a node (z_r, t_j) the point query is the solver's own table entry
    ev = request.getfixturevalue(solution).evaluator
    init_phi = ev.init_phi
    fl = ev.flow
    for hv in (np.ones(2), np.array([0.0, 1.0])):
        for r, z in enumerate(fl.z_nodes.tolist()):
            for j, t in enumerate(fl.t_nodes.tolist()):
                assert ev.phi(hv, initial(z), t) == hv @ init_phi[:, r, j]


def test_phi_theta_inadmissible():
    ev = PhiEvaluator(FlowGrid.identity(1.0, 5, 20), constant_single_spec())
    with pytest.raises(DomainError):
        ev.phi(None, boundary(0.5), 0.25)


@pytest.mark.parametrize("gamma, t", [
    (initial(0.3), math.nan), (initial(0.3), 1.0 + 1e-6), (initial(1.5), 0.5),
    (initial(1.0 + 1e-9), 0.5), (boundary(0.5), math.nan)])
def test_phi_refuses_what_theta_refuses(gamma, t):
    ev = PhiEvaluator(FlowGrid.identity(1.0, 5, 20), constant_single_spec())
    with pytest.raises(DomainError, match="not admissible"):
        ev.phi(None, gamma, t)
    with pytest.raises(DomainError, match="not admissible"):
        ev.flow.theta(gamma, t)


def test_solve_zero_rates_converges_first_iteration(spec_zero):
    sol = solve_y_c(spec_zero, n_z=10, n_t=50)
    assert sol.iterations == 1
    assert sol.residual <= 1e-15  # theta_0 is already the fixed point
    assert sol.flow.theta(initial(0.3), 1.0) == pytest.approx(0.3, abs=1e-12)


def test_solve_unit_rate_closed_form(sol_const1):
    assert sol_const1.flow.theta(initial(0.5), 1.0) == pytest.approx(
        1 - 0.5 * math.exp(-1.0), abs=10 * (1 / 200 ** 2 + 1e-8))
    assert sol_const1.flow.theta(boundary(0.3), 1.0) == pytest.approx(
        1 - math.exp(-0.7), abs=10 * (1 / 200 ** 2 + 1e-8))


def test_solve_mixture_closed_form_every_node(sol_mixture, spec_mixture):
    tol = 10 * ((1 / 200) ** 2 + 1e-8)
    rates = [c.field.sup_norm for c in spec_mixture.classes]
    wts = [c.weight for c in spec_mixture.classes]
    fl = sol_mixture.flow
    for jz, z in enumerate(fl.z_nodes):
        want = 1 - (1 - z) * sum(
            p * np.exp(-c * fl.t_nodes) for p, c in zip(wts, rates))
        assert np.max(np.abs(fl.init_values[jz] - want)) <= tol
    for l in range(fl.n_t + 1):
        dt_el = fl.t_nodes[l:] - fl.t_nodes[l]
        want = 1 - sum(p * np.exp(-c * dt_el) for p, c in zip(wts, rates))
        assert np.max(np.abs(fl.bdry_values[l, l:] - want)) <= tol


def closed_form_node_error(sol, spec):
    """Largest node gap between a constant-rate flow and its closed form
    y_C = 1 - (1 - y0) sum_k p_k exp(-c_k (t - t0))."""
    fl = sol.flow

    def tail(el):
        return sum(c.weight * np.exp(-c.field.sup_norm * el)
                   for c in spec.classes)

    el = fl.t_nodes[None, :] - fl.t_nodes[:, None]
    upper = el >= 0
    want_init = 1 - (1 - fl.z_nodes[:, None]) * tail(fl.t_nodes)
    return max(float(np.max(np.abs(fl.init_values - want_init))),
               float(np.max(np.abs(fl.bdry_values - (1 - tail(el)))[upper])))


@pytest.mark.parametrize("spec", [constant_single_spec(),
                                  constant_mixture_spec()],
                         ids=["unit", "mixture"])
def test_closed_form_error_is_second_order(spec):
    # doubling n_t cuts the node error by about 4 (measured 3.88-3.99 from
    # n_t = 50 to 800), so the bound 10 (dt^2 + tol) is 30-120x loose
    errs = [closed_form_node_error(solve_y_c(spec, n_z=20, n_t=n_t, tol=1e-12),
                                   spec) for n_t in (50, 100, 200, 400)]
    assert all(a / b >= 3 for a, b in zip(errs[:-1], errs[1:])), errs


def test_solve_skewed_densities_closed_form():
    # classes spatially segregated but mixing to the uniform density;
    # constant rates keep the closed form with per-class tails
    # R_k(z) = integral of rho_k over [z, 1]
    from rankflow.intensity import Histogram, PopulationClass, PopulationSpec
    c = (0.8, 1.6)
    spec = PopulationSpec(classes=(
        PopulationClass(0.5, ConstantField(c[0], 1.0),
                        Histogram((0.0, 0.5, 1.0), (1.6, 0.4))),
        PopulationClass(0.5, ConstantField(c[1], 1.0),
                        Histogram((0.0, 0.5, 1.0), (0.4, 1.6))),
    ), horizon=1.0)
    sol = solve_y_c(spec, n_z=10, n_t=100, tol=1e-10)
    fl = sol.flow
    for jz, z in enumerate(fl.z_nodes):
        r1 = 1.6 * max(0.5 - z, 0.0) + 0.4 * (1.0 - max(z, 0.5))
        r2 = 0.4 * max(0.5 - z, 0.0) + 1.6 * (1.0 - max(z, 0.5))
        want = 1 - 0.5 * (r1 * np.exp(-c[0] * fl.t_nodes)
                          + r2 * np.exp(-c[1] * fl.t_nodes))
        # cell-exact quadrature: initial curves carry no Volterra error
        assert np.max(np.abs(fl.init_values[jz] - want)) <= 1e-12
    tol = 10 * ((1 / 100) ** 2 + 1e-10)
    for l in (0, 30, 70):
        el = fl.t_nodes[l:] - fl.t_nodes[l]
        want = 1 - 0.5 * (np.exp(-c[0] * el) + np.exp(-c[1] * el))
        assert np.max(np.abs(fl.bdry_values[l, l:] - want)) <= tol


def test_solution_residual_invariant(sol_affine):
    assert sol_affine.residual < 1e-8


def test_second_solve_leaves_first_solution_bytes(spec_affine):
    # the solver's in-place passes must not write into a returned solution
    first = solve_y_c(spec_affine, n_z=10, n_t=50)
    tables = (first.flow.init_values, first.flow.bdry_values,
              first.evaluator.init_phi, first.evaluator.bdry_phi)
    before = [t.tobytes() for t in tables]
    solve_y_c(constant_mixture_spec(), n_z=10, n_t=50)
    assert [t.tobytes() for t in tables] == before
    assert not any(t.flags.writeable for t in tables)


def test_fixed_point_identity_on_grid(sol_affine):
    # theta + phi_theta(W) = 1 across the admissible grid
    ev = sol_affine.evaluator
    phi_init, phi_bdry = ev.phi_grid()
    fl = sol_affine.flow
    assert np.max(np.abs(fl.init_values + phi_init - 1.0)) < 1e-7
    for l in range(fl.n_t + 1):
        gap = np.abs(fl.bdry_values[l, l:] + phi_bdry[l, l:] - 1.0)
        assert np.max(gap) < 1e-7


def test_phi_monotone_in_t_and_gamma(sol_affine):
    ev = sol_affine.evaluator
    phi_init, phi_bdry = ev.phi_grid()
    assert np.all(np.diff(phi_init, axis=1) <= 1e-12)
    assert np.all(np.diff(phi_init, axis=0) <= 1e-12)   # larger z, smaller tail
    for l in range(sol_affine.flow.n_t):
        assert np.all(np.diff(phi_bdry[l, l:]) <= 1e-12)


def scripted_residuals(monkeypatch, residuals):
    """Make the solver see ``residuals``, in order, as its residuals."""
    script = iter(residuals)
    monkeypatch.setattr(flow_module, "_residual", lambda *args: next(script))


def test_solver_halves_its_step_once_on_a_rising_residual(
        monkeypatch, caplog, spec_affine):
    # the residual rises twice; the step drops to 0.5 at the first rise only
    residuals = [0.5, 0.8, 0.4, 0.6, 0.3, 1e-9]
    scripted_residuals(monkeypatch, residuals)
    with caplog.at_level(logging.DEBUG, logger="rankflow.flow"):
        sol = solve_y_c(spec_affine, n_z=10, n_t=50)
    assert sol.residual_history == residuals and sol.iterations == 6
    rises = [(r.levelno, r.getMessage()) for r in caplog.records
             if r.getMessage().startswith("residual increased")]
    assert rises == [(logging.INFO, "residual increased (5.000e-01 -> "
                                    "8.000e-01); damping to 0.50")]
    alphas = [float(m) for m in re.findall(r"\(alpha=([0-9.]+)\)", caplog.text)]
    assert alphas == [1.0, 1.0, 0.5, 0.5, 0.5, 0.5]


def test_solver_damping_is_in_the_convergence_history(monkeypatch, caplog,
                                                      spec_affine):
    scripted_residuals(monkeypatch, [0.5, 0.8, 0.9, 0.7])
    with caplog.at_level(logging.INFO, logger="rankflow.flow"):
        with pytest.raises(ConvergenceError) as err:
            solve_y_c(spec_affine, n_z=10, n_t=50, max_iter=4)
    assert err.value.residual_history == [0.5, 0.8, 0.9, 0.7]
    assert caplog.text.count("damping to 0.50") == 1


def test_affine_solve_reports_no_projection(caplog, spec_affine):
    # the boundary padding below the diagonal is not a node: the update's
    # 1 - 0 there is no correction of the iterate
    with caplog.at_level(logging.INFO, logger="rankflow.flow"):
        solve_y_c(spec_affine, n_z=20, n_t=200)
    assert "projection" not in caplog.text


def test_solver_nonconvergence_carries_history(spec_affine):
    with pytest.raises(ConvergenceError) as err:
        solve_y_c(spec_affine, n_z=10, n_t=80, tol=1e-12, max_iter=2)
    assert len(err.value.residual_history) == 2


def test_solver_stops_on_non_finite_residual():
    class NanField(ConstantField):
        def _values(self, y, t):
            return np.full(np.broadcast_shapes(np.shape(y), np.shape(t)), np.nan)

    spec = uniform_single_class(NanField(1.0, 1.0))
    with pytest.raises(ConvergenceError) as err:
        solve_y_c(spec, n_z=5, n_t=20)
    history = err.value.residual_history
    assert len(history) == 1 and math.isnan(history[0])


def project(init, bdry):
    """``flow._project`` on copies: the projected arrays and the largest
    correction."""
    init, bdry = init.copy(), bdry.copy()
    moved = _project(init, bdry, np.empty_like(bdry))
    return init, bdry, moved


@st.composite
def flow_iterates(draw):
    n_z = draw(st.integers(1, 5))
    n_t = draw(st.integers(1, 6))
    values = st.floats(-0.5, 1.5, allow_nan=False)
    init = draw(arrays(float, (n_z + 1, n_t + 1), elements=values))
    bdry = draw(arrays(float, (n_t + 1, n_t + 1), elements=values))
    return n_z, n_t, init, bdry


@settings(max_examples=200, deadline=None)
@given(flow_iterates())
def test_project_is_admissible_and_idempotent(case):
    n_z, n_t, init, bdry = case
    init1, bdry1, _ = project(init, bdry)
    FlowGrid(1.0, init1, bdry1)  # runs FlowGrid._check
    init2, bdry2, moved = project(init1, bdry1)
    assert moved == 0.0
    assert np.array_equal(init2, init1) and np.array_equal(bdry2, bdry1)


def test_project_reports_its_correction_at_nodes_only():
    # a dip of 1/8 in one initial row, a boundary value of 1/4 above the
    # corner row's 0, and padding of 1 below the diagonal, which is no node
    init = np.array([[0.0, 0.0, 0.0], [0.5, 0.75, 0.625], [1.0, 1.0, 1.0]])
    bdry = np.tril(np.ones((3, 3)), k=-1)
    assert project(init, bdry)[2] == 0.125
    bdry[1, 2] = 0.25
    assert project(init, bdry)[2] == 0.25


@settings(max_examples=300, deadline=None)
@given(flow_iterates())
@example((1, 2, np.array([[0.0, -0.0, -0.0], [1.0, 1.0, 1.0]]),
          np.zeros((3, 3))))
def test_project_matches_loop(case):
    n_z, n_t, init, bdry = case
    got = project(init, bdry)
    want = loop_project(1.0, init, bdry, n_z, n_t)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]


def test_solution_cache_round_trip(tmp_path, sol_const1, spec_const1, spec_affine):
    path = tmp_path / "yc.npz"
    sol_const1.save(path)
    from rankflow.flow import LimitSolution
    loaded = LimitSolution.load(path, spec_const1)
    assert np.array_equal(loaded.flow.init_values, sol_const1.flow.init_values)
    with pytest.raises(ConfigError):
        LimitSolution.load(path, spec_affine)


@settings(max_examples=100, deadline=None)
@given(case=flow_iterates(), k=st.integers(0, 1), data=st.data())
def test_solution_save_load_keeps_every_byte(case, k, data):
    n_z, n_t, init, bdry = case
    init, bdry, _ = project(init, bdry)
    spec = (constant_single_spec(), affine_two_class_spec())[k]
    flow = FlowGrid(1.0, init, bdry)
    residuals = st.floats(0.0, 1e3, allow_subnormal=True)
    history = data.draw(st.lists(residuals, min_size=1, max_size=5))
    sol = LimitSolution(spec=spec, flow=flow,
                        evaluator=PhiEvaluator(flow, spec),
                        residual=data.draw(residuals),
                        residual_history=history, iterations=len(history))
    buf = io.BytesIO()
    sol.save(buf)
    buf.seek(0)
    loaded = LimitSolution.load(buf, spec)
    assert loaded.flow.init_values.tobytes() == init.tobytes()
    assert loaded.flow.bdry_values.tobytes() == bdry.tobytes()
    assert np.float64(loaded.residual).tobytes() == \
        np.float64(sol.residual).tobytes()
    assert np.array(loaded.residual_history).tobytes() == \
        np.array(history).tobytes()
    assert loaded.iterations == len(history)
    assert loaded.spec_hash == sol.spec_hash


def test_ode_form_zero(spec_zero):
    sol = solve_y_c(spec_zero, n_z=10, n_t=50)
    assert verify_ode_form(sol).max_residual == 0.0


def test_ode_form_unit_rate(sol_const1):
    # both sides equal 1 - (1 - y0) e^{-(t - t0)} up to O(dt)
    rep = verify_ode_form(sol_const1)
    assert rep.max_residual <= 2.0 / 200


def test_ode_form_refines(spec_affine):
    r1 = verify_ode_form(solve_y_c(spec_affine, n_z=10, n_t=50)).max_residual
    r2 = verify_ode_form(solve_y_c(spec_affine, n_z=10, n_t=100)).max_residual
    assert r2 <= r1 / 2 + 1e-9


@pytest.mark.parametrize("config", ["constant_mixture", "affine_two_class"])
def test_ode_form_residual_is_second_order(config):
    # doubling n_t cuts the residual by about 4 (measured 3.98-4.0)
    spec = load_spec(ROOT / "configs" / f"{config}.json")
    resid = [verify_ode_form(solve_y_c(spec, n_z=20, n_t=n_t, tol=1e-12))
             .max_residual for n_t in (100, 200, 400)]
    assert resid[0] / resid[1] >= 3 and resid[1] / resid[2] >= 3


@pytest.mark.parametrize("n_z, n_t", [(10, 50), (20, 200)])
@pytest.mark.parametrize("config", [
    "configs/affine_two_class.json", "configs/constant_mixture.json",
    "configs/constant_unit.json", "configs/zero_rate.json",
    "bench/table_two_class.json",
])
def test_ode_form_matches_loop(config, n_z, n_t):
    sol = solve_y_c(load_spec(ROOT / config), n_z=n_z, n_t=n_t)
    assert verify_ode_form(sol) == loop_verify_ode_form(sol)


def test_evaluator_tables_match_direct_volterra(sol_affine, spec_affine):
    # the evaluator solves one Volterra equation per class, forced by the
    # mass-weighted cells; by linearity it must equal the mass-weighted sum
    # of direct solves of each cell's pulled-back kernel
    from rankflow import survival_solve
    fl = sol_affine.flow
    bdry_phi = sol_affine.evaluator.bdry_phi
    iu = np.triu_indices(fl.n_t + 1)
    for k, cls in enumerate(spec_affine.classes):
        masses = cls.weight * cls.density.cell_masses(fl.z_nodes)
        direct = np.zeros((fl.n_t + 1, fl.n_t + 1))
        for cell, m in enumerate(masses):
            om = tilde_w(fl, cls.field, (cell + 0.5) / fl.n_z)
            direct += m * np.nan_to_num(survival_solve(om, fl.t_nodes).p)
        assert np.max(np.abs(direct[iu] - bdry_phi[k][iu])) <= 1e-12


def test_gridded_kernel_sampler_matches_solver(sol_affine, spec_affine):
    # thinning the pulled-back (interpolated) kernel reproduces the
    # no-arrival probabilities of its Volterra table
    from rankflow import sample_arrivals, survival_solve
    fl = sol_affine.flow
    om = tilde_w(fl, spec_affine.classes[0].field, 0.525)
    table = survival_solve(om, fl.t_nodes)
    reps = 4000
    nodes = [(0, 200), (60, 180)]  # (s, t) = (0, 1) and (0.3, 0.9)
    hits = np.zeros(len(nodes))
    for r in range(reps):
        arr = sample_arrivals(om, seed=8, replica=r)
        for q, (i, j) in enumerate(nodes):
            hits[q] += arr.no_arrival_in(fl.t_nodes[i], fl.t_nodes[j])
    for q, (i, j) in enumerate(nodes):
        p_hat = hits[q] / reps
        se = math.sqrt(p_hat * (1 - p_hat) / reps)
        assert abs(p_hat - table.p[i, j]) <= 4 * se + 1e-3


def test_tagged_path_no_jumps_rides_flow(sol_const1):
    fld = ConstantField(0.0, 1.0)
    path = tagged_limit_path(sol_const1, fld, 0.4,
                             (np.empty(0), np.empty(0)))
    ts = np.linspace(0, 1, 21)
    want = [sol_const1.flow.theta(initial(0.4), t) for t in ts]
    assert np.allclose(path.sample(ts), want)
    assert path.jump_count() == 0


def test_tagged_path_constant_rate_jump_counts(sol_const1, spec_const1):
    # inter-jump survival is position independent: counts are Poisson(cT)
    fld = spec_const1.classes[0].field
    reps = 4000
    counts = []
    for r in range(reps):
        cand = streams.tagged_candidates(r, 0, fld.sup_norm, 1.0)
        counts.append(tagged_limit_path(sol_const1, fld, 0.2, cand).jump_count())
    mean = float(np.mean(counts))
    assert abs(mean - 1.0) <= 3 * math.sqrt(1.0 / reps)


def test_tagged_path_stays_in_unit_interval(sol_affine, spec_affine):
    fld = spec_affine.classes[0].field
    cand = streams.tagged_candidates(11, 0, fld.sup_norm, 1.0)
    path = tagged_limit_path(sol_affine, fld, 0.6, cand)
    vals = path.sample(np.linspace(0, 1, 200))
    assert np.all((vals >= 0) & (vals <= 1))
