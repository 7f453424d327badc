import math

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankflow import (ConfigError, DomainError, EventLog,
                      LogEvaluator, TestFunction, assign_population, boundary,
                      char_sup_distance, initial, load_spec, simulate,
                      simulate_flow_driven, sup_distance)
from rankflow.harness import (affine_two_class_spec, constant_single_spec,
                              zero_rate_spec)
from rankflow.measure import floor_tail_count


def naive_positions(log, t):
    """Particle-by-particle replay oracle: order list, no index structure."""
    order = list(np.argsort(np.rint(log.assignment.position * log.n)))
    for s, i in zip(log.times, log.particles):
        if s > t:
            break
        order.remove(i)
        order.insert(0, i)
    pos = np.empty(log.n)
    for r, i in enumerate(order):
        pos[i] = r / log.n
    return pos


def naive_char_curve(log, gamma, t):
    y0, t0 = gamma.y0, gamma.t0
    at_t0 = naive_positions(log, t0)
    downstream = {i for i in range(log.n) if at_t0[i] >= y0 - 1e-12}
    jumped = {int(i) for s, i in zip(log.times, log.particles)
              if t0 < s <= t and int(i) in downstream}
    return y0 + len(jumped) / log.n


@pytest.fixture(scope="module")
def affine_log():
    spec = affine_two_class_spec()
    return simulate(assign_population(spec, 40), seed=13)


def test_char_curve_at_start(affine_log):
    ev = LogEvaluator(affine_log)
    assert ev.char_curve(initial(0.3), 0.0) == pytest.approx(0.3)
    assert ev.char_curve(boundary(0.5), 0.5) == 0.0


def test_char_curve_top_gamma_constant_one(affine_log):
    for t in (0.0, 0.5, 1.0):
        assert LogEvaluator(affine_log).char_curve(initial(1.0), t) == 1.0


def test_char_curve_matches_naive_replay(affine_log):
    ev = LogEvaluator(affine_log)
    for y0 in np.linspace(0, 1, 10):
        for t in np.linspace(0, 1, 10):
            got = ev.char_curve(initial(y0), t)
            assert got == naive_char_curve(affine_log, initial(y0), t)
    for t0 in np.linspace(0, 0.9, 10):
        for t in np.linspace(0, 1, 10):
            if t >= t0:
                got = ev.char_curve(boundary(t0), t)
                assert got == naive_char_curve(affine_log, boundary(t0), t)


def test_char_curve_admissibility(affine_log):
    with pytest.raises(DomainError):
        LogEvaluator(affine_log).char_curve(boundary(0.8), 0.2)


def test_phi_at_t0_is_floor_count(affine_log):
    n = affine_log.n
    for y0 in (0.0, 0.13, 0.5, 0.525, 0.99, 1.0):
        val = LogEvaluator(affine_log).phi(TestFunction.ones(), initial(y0), 0.0)
        assert val == floor_tail_count(y0, n) / n
        assert floor_tail_count(y0, n) == math.floor(n * (1 - y0) + 1e-9)


def test_phi_constant_in_time_for_zero_rates():
    log = simulate(assign_population(zero_rate_spec(), 30), seed=0)
    vals = [LogEvaluator(log).phi(TestFunction.ones(), initial(0.4), t)
            for t in np.linspace(0, 1, 7)]
    assert len(set(vals)) == 1


def test_identity_holds_exactly_everywhere(affine_log, lattice):
    assert LogEvaluator(affine_log).identity_gap(lattice) == 0


def test_flow_identity_exact_original_and_flow_driven(lattice, sol_affine,
                                                      spec_affine):
    a = assign_population(spec_affine, 60)
    for log in (simulate(a, seed=3),
                simulate_flow_driven(a, sol_affine.flow, seed=3)):
        ev = LogEvaluator(log)
        assert ev.identity_gap(lattice) == 0
        assert ev.flow_identity_gap(lattice.times) == 0


def tie_log(events, n=5, mode="stratified", seed=None):
    """An EventLog of the unit constant spec with the given (time, particle)s."""
    spec = load_spec(Path(__file__).parents[1] / "configs" / "constant_unit.json")
    times, particles = zip(*events) if events else ((), ())
    return EventLog(assignment=assign_population(spec, n, mode=mode, seed=seed),
                    horizon=1.0, times=times, particles=particles,
                    pre_positions=np.zeros(len(times)))


def test_flow_identity_exact_at_a_time_tie():
    # particles 1 and 3 jump at the same time; event order puts 3 in front
    log = tie_log([(0.2, 4), (0.5, 1), (0.5, 3)])
    ev = LogEvaluator(log)
    assert ev.flow_identity_gap([1.0]) == 0
    assert np.array_equal(ev.positions_at(1.0), naive_positions(log, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_positions_at_matches_naive_replay(data):
    n = data.draw(st.integers(1, 8))
    # few distinct times, so exact ties are common
    grid = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    events = sorted(data.draw(st.lists(
        st.tuples(st.sampled_from(grid), st.integers(0, n - 1)), max_size=25)),
        key=lambda e: e[0])
    log = tie_log(events, n=n, mode="seeded-random",
                  seed=data.draw(st.integers(0, 2 ** 16)))
    ev = LogEvaluator(log)
    queries = data.draw(st.lists(st.sampled_from(grid + [0.0, 1.0]),
                                 min_size=1, max_size=6))
    for t in queries:  # in the order drawn, not sorted
        assert np.array_equal(ev.positions_at(t), naive_positions(log, t))
    assert ev.flow_identity_gap(queries) == 0


def test_phi_monotone_in_t(affine_log, lattice):
    ev = LogEvaluator(affine_log)
    for g in lattice.gammas:
        vals = [ev.phi(TestFunction.ones(), g, t)
                for t in lattice.times if t >= g.t0]
        assert all(b <= a for a, b in zip(vals[:-1], vals[1:]))


def test_char_curve_monotone(affine_log, lattice):
    ev = LogEvaluator(affine_log)
    for g in lattice.gammas:
        vals = [ev.char_curve(g, t) for t in lattice.times if t >= g.t0]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))
    # across gammas at fixed t, decreasing gamma raises the curve
    from rankflow import gamma_compare
    t = 1.0
    gs = sorted(lattice.gammas, key=lambda g: g.order_key())
    vals = [ev.char_curve(g, t) for g in gs]
    assert all(b <= a for a, b in zip(vals[:-1], vals[1:]))


def test_mu_marginal_time_independent(affine_log):
    h = TestFunction.norm_capped(1.0)
    ev = LogEvaluator(affine_log)
    vals = {ev.mu(h, 0.0, t) for t in np.linspace(0, 1, 9)}
    assert len(vals) == 1


def test_mu_at_time_zero_counts_slots(affine_log):
    n = affine_log.n
    for y in (0.0, 0.33, 0.8):
        assert LogEvaluator(affine_log).mu(TestFunction.ones(), y, 0.0) == \
            floor_tail_count(y, n) / n


def test_mu_matches_phi_at_char_curve(affine_log):
    # mu_t(W x [Y_C, 1]) with Y_C = char curve equals phi by definition
    ev = LogEvaluator(affine_log)
    h = TestFunction.ones()
    for g in (initial(0.0), initial(0.35), boundary(0.2)):
        for t in (0.3, 0.7, 1.0):
            y = ev.char_curve(g, t)
            assert ev.mu(h, y, t) == pytest.approx(ev.phi(h, g, t), abs=1e-14)


def test_sup_distance_zero_rates(lattice):
    spec = zero_rate_spec()
    from rankflow import solve_y_c
    sol = solve_y_c(spec, n_z=20, n_t=200)
    n = 50
    log = simulate(assign_population(spec, n), seed=0)
    d = sup_distance(log, sol, TestFunction.ones(), lattice)
    assert d.value <= 1.0 / n + 1e-9


def test_sup_distance_bounded_by_ch(lattice, sol_affine, spec_affine):
    log = simulate(assign_population(spec_affine, 64), seed=21)
    h = TestFunction.indicator(1)
    d = sup_distance(log, sol_affine, h, lattice)
    assert 0 <= d.value <= h.bound(spec_affine)


def test_sup_distance_mc_calibrated_threshold(lattice, sol_const1, spec_const1):
    # C_h / sqrt(N) scale: documented threshold 4/sqrt(N) for h = 1
    n = 1600
    log = simulate(assign_population(spec_const1, n), seed=5)
    d = sup_distance(log, sol_const1, TestFunction.ones(), lattice)
    assert d.value <= 4.0 / math.sqrt(n)


def test_sup_distance_spec_hash_mismatch(lattice, sol_affine):
    log = simulate(assign_population(constant_single_spec(), 16), seed=0)
    with pytest.raises(ConfigError):
        sup_distance(log, sol_affine, TestFunction.ones(), lattice)


def test_sup_distance_accepts_phi_evaluator(lattice, spec_affine):
    # flow-driven logs are compared against phi_theta of an arbitrary flow
    from rankflow import FlowGrid, PhiEvaluator
    flow = FlowGrid.identity(1.0, 20, 100)
    evaluator = PhiEvaluator(flow, spec_affine)
    log = simulate_flow_driven(assign_population(spec_affine, 400), flow, seed=4)
    d = sup_distance(log, evaluator, TestFunction.ones(), lattice)
    assert d.value <= 0.12  # about 2/sqrt(N) at this size


def test_char_sup_distance_runs(lattice, sol_affine, spec_affine):
    log = simulate_flow_driven(assign_population(spec_affine, 100),
                               sol_affine.flow, seed=2)
    d = char_sup_distance(log, sol_affine.flow, lattice)
    assert 0 <= d.value <= 1


def test_interior_gamma_supported(affine_log):
    ev = LogEvaluator(affine_log)
    mask = ev.interior_mask(0.4, 0.5)
    assert mask.sum() == floor_tail_count(0.4, affine_log.n)


def test_test_function_vectors():
    spec = affine_two_class_spec()
    assert np.array_equal(TestFunction.ones().per_class(spec), [1, 1])
    assert np.array_equal(TestFunction.indicator(1).per_class(spec), [0, 1])
    capped = TestFunction.norm_capped(1.3).per_class(spec)
    assert np.array_equal(capped, [1.3, 1.2])
    assert TestFunction.norm_capped(1.3).bound(spec) == 1.3
    with pytest.raises(ConfigError):
        TestFunction.indicator(5).per_class(spec)
