import math

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankflow import (ConfigError, DomainError, EvaluationLattice,
                      EventLog, LogEvaluator, RankIndex, TestFunction,
                      assign_population, boundary, initial, load_spec,
                      simulate, simulate_flow_driven, solve_y_c,
                      spec_from_config, sup_distance)
from rankflow.measure import limit_values

from conftest import (STEEP_SPECS, affine_two_class_spec,
                      constant_mixture_spec, constant_single_spec,
                      zero_rate_spec)
from oracles import (NaiveRankIndex, char_curve, first_jump_counts,
                     floor_tail_count, scalar_phi)

ROOT = Path(__file__).resolve().parents[1]


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
    assert char_curve(ev, initial(0.3), 0.0) == pytest.approx(0.3)
    assert char_curve(ev, boundary(0.5), 0.5) == 0.0


def test_char_curve_top_gamma_constant_one(affine_log):
    for t in (0.0, 0.5, 1.0):
        assert char_curve(LogEvaluator(affine_log), initial(1.0), t) == 1.0


def test_char_curve_matches_naive_replay(affine_log):
    ev = LogEvaluator(affine_log)
    for y0 in np.linspace(0, 1, 10):
        for t in np.linspace(0, 1, 10):
            got = char_curve(ev, initial(y0), t)
            assert got == naive_char_curve(affine_log, initial(y0), t)
    for t0 in np.linspace(0, 0.9, 10):
        for t in np.linspace(0, 1, 10):
            if t >= t0:
                got = char_curve(ev, boundary(t0), t)
                assert got == naive_char_curve(affine_log, boundary(t0), t)


def test_char_curve_admissibility(affine_log):
    with pytest.raises(DomainError):
        char_curve(LogEvaluator(affine_log), boundary(0.8), 0.2)


def test_phi_at_t0_is_floor_count(affine_log):
    n = affine_log.n
    for y0 in (0.0, 0.13, 0.5, 0.525, 0.99, 1.0):
        val = LogEvaluator(affine_log).phi(TestFunction.ones(), initial(y0), 0.0)
        assert val == floor_tail_count(y0, n) / n
        assert floor_tail_count(y0, n) == math.floor(n * (1 - y0) + 1e-9)


@pytest.mark.parametrize("t", [math.nan, 1.0 + 1e-6, 5.0, 0.5 - 1e-9])
def test_phi_refuses_times_outside_t0_to_horizon(affine_log, t):
    ev = LogEvaluator(affine_log)
    gamma = boundary(0.5) if t < 0.5 else initial(0.3)
    with pytest.raises(DomainError):
        ev.phi(TestFunction.ones(), gamma, t)


def test_phi_refuses_an_initial_point_above_one(affine_log):
    with pytest.raises(DomainError, match="not admissible"):
        LogEvaluator(affine_log).phi(TestFunction.ones(), initial(1.5), 0.5)


@pytest.mark.parametrize("times, k", [((math.nan, 1.0), 0), ((0.5, math.inf), 1),
                                      ((0.5, 1.0, -math.inf), 2), ((0.5, -0.1), 1)])
def test_lattice_refuses_a_time_that_is_not_finite_and_non_negative(times, k):
    with pytest.raises(ConfigError, match=rf"times\[{k}\]: must be finite"):
        EvaluationLattice(gammas=(initial(0.3),), times=times)


def test_lattice_counts_refuse_a_time_past_the_horizon(affine_log):
    ev = LogEvaluator(affine_log)
    late = EvaluationLattice(gammas=(initial(0.3),), times=(1.0, 5.0))
    with pytest.raises(DomainError, match="past the log's horizon"):
        ev.lattice_counts(late)
    # the bound of the point query, and the lattice at its edges
    edge = EvaluationLattice(gammas=(initial(0.3), boundary(0.0)),
                             times=(-1e-13, 1.0 + 1e-10))
    counts = ev.lattice_counts(edge)
    assert counts.phi([1, 1])[1] == ev.phi(TestFunction.ones(), initial(0.3), 1.0)


def test_phi_accepts_the_ends_of_t0_to_horizon(affine_log):
    ev = LogEvaluator(affine_log)
    ones = TestFunction.ones()
    assert ev.phi(ones, initial(0.3), 1.0) == ev.phi(ones, initial(0.3), 1.0 + 1e-10)
    assert ev.phi(ones, boundary(0.5), 0.5 - 1e-13) == 1.0


def test_phi_constant_in_time_for_zero_rates():
    log = simulate(assign_population(zero_rate_spec(), 30), seed=0)
    vals = [LogEvaluator(log).phi(TestFunction.ones(), initial(0.4), t)
            for t in np.linspace(0, 1, 7)]
    assert len(set(vals)) == 1


def test_identity_holds_exactly_everywhere(affine_log, lattice):
    assert LogEvaluator(affine_log).identity_gap(lattice) == 0


def test_identity_gap_sees_a_particle_counted_as_jumped(affine_log, lattice,
                                                        monkeypatch):
    # the sum alive + jumped stays the floor tail; only positions see it
    counts = LogEvaluator.lattice_counts

    def one_moved(self, lattice):
        c = counts(self, lattice)
        p = np.flatnonzero(c.alive[:, 0])[0]
        c.alive[p, 0] -= 1
        c.jumped[p] += 1
        return c

    monkeypatch.setattr(LogEvaluator, "lattice_counts", one_moved)
    assert LogEvaluator(affine_log).identity_gap(lattice) > 0


def test_flow_identity_exact_original_and_flow_driven(lattice, sol_affine,
                                                      spec_affine):
    a = assign_population(spec_affine, 60)
    for log in (simulate(a, seed=3),
                simulate_flow_driven(a, sol_affine.flow, seed=3)):
        ev = LogEvaluator(log)
        assert ev.identity_gap(lattice) == 0
        assert ev.flow_identity_gap(lattice.times) == 0


class SkipsFifthMove(RankIndex):
    """A RankIndex that drops the fifth move to the front it is asked for."""

    def __init__(self, initial_ranks):
        super().__init__(initial_ranks)
        self.calls = 0

    def move_to_front(self, i):
        self.calls += 1
        if self.calls != 5:
            super().move_to_front(i)


@pytest.mark.parametrize("check_times", [None, "lattice"])
def test_flow_identity_gap_sees_a_skipped_move(check_times, lattice,
                                                monkeypatch):
    log = simulate(assign_population(affine_two_class_spec(), 200), seed=3)
    times = lattice.times if check_times else None
    assert LogEvaluator(log).flow_identity_gap(times) == 0
    monkeypatch.setattr("rankflow.measure.RankIndex", SkipsFifthMove)
    assert LogEvaluator(log).flow_identity_gap(times) > 0


def tie_log(events, n=5, mode="stratified", seed=None):
    """An EventLog of the unit constant spec with the given (time, particle)s
    and their true pre-jump positions."""
    spec = load_spec(Path(__file__).parents[1] / "configs" / "constant_unit.json")
    assignment = assign_population(spec, n, mode=mode, seed=seed)
    times, particles = zip(*events) if events else ((), ())
    index = NaiveRankIndex(assignment.slots)
    pre = []
    for i in particles:
        pre.append(index.rank(i) / n)
        index.move_to_front(i)
    return EventLog(assignment=assignment, horizon=1.0, times=times,
                    particles=particles, pre_positions=pre)


def test_flow_identity_gap_reads_the_recorded_pre_positions():
    log = tie_log([(0.2, 4), (0.5, 1), (0.5, 3), (0.7, 4)])
    assert LogEvaluator(log).flow_identity_gap() == 0
    pre = log.pre_positions.copy()
    pre[2] += 1 / log.n
    corrupt = EventLog(assignment=log.assignment, horizon=1.0, times=log.times,
                       particles=log.particles, pre_positions=pre)
    assert LogEvaluator(corrupt).flow_identity_gap() == 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_counts_match_one_sort_per_gamma(data):
    regular = EvaluationLattice.regular(1.0)
    starts = [g.t0 for g in regular.gammas]  # 0.0 and every boundary t0
    n = data.draw(st.integers(1, 8))
    # few distinct times, so exact ties are common
    grid = starts + data.draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    event = st.tuples(st.sampled_from(grid), st.integers(0, n - 1))
    twice = data.draw(event)  # one particle twice at one time
    at_start = data.draw(st.tuples(st.sampled_from(starts[1:]),
                                   st.integers(0, n - 1)))
    events = data.draw(st.lists(event, max_size=25)) + [
        twice, twice, at_start, (0.0, data.draw(st.integers(0, n - 1)))]
    log = tie_log(sorted(events, key=lambda e: e[0]), n=n,
                  mode="seeded-random", seed=data.draw(st.integers(0, 2 ** 16)))
    # an irregular lattice: repeated times, boundary t0s on event times, a t
    # 1e-13 below a t0, y0 = 0 and 1, and often one kind of gamma only
    zs = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                            max_size=3))
    t0s = data.draw(st.lists(st.sampled_from(grid), max_size=3))
    times = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=5))
    drawn = EvaluationLattice(
        gammas=tuple([initial(z) for z in zs] + [boundary(t0) for t0 in t0s]),
        times=tuple(times + [t0 - 1e-13 for t0 in t0s[:1]]))
    ev = LogEvaluator(log)
    for lattice in (regular, drawn):
        counts = ev.lattice_counts(lattice)
        pairs = list(lattice.pairs())
        assert counts.alive.shape == (len(pairs), 1)
        assert counts.alive.dtype == counts.jumped.dtype == np.int64
        for g in set(g for g, _ in pairs):
            rows = [p for p, (h, _) in enumerate(pairs) if h == g]
            want_alive, want_jumped = first_jump_counts(
                ev, g, [pairs[p][1] for p in rows])
            assert np.array_equal(counts.alive[rows], want_alive)
            assert np.array_equal(counts.jumped[rows], want_jumped)
        if pairs:
            assert ev.identity_gap(lattice) == 0
    # each pair of the drawn lattice, the last counted, as a lattice of its own
    for p, (g, t) in enumerate(drawn.pairs()):
        assert np.array_equal(ev._point_counts(g, t).alive[0], counts.alive[p])


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_positions_of_matches_positions_at(data):
    n = data.draw(st.integers(1, 8))
    grid = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    events = sorted(data.draw(st.lists(
        st.tuples(st.sampled_from(grid), st.integers(0, n - 1)), max_size=25)),
        key=lambda e: e[0])
    log = tie_log(events, n=n, mode="seeded-random",
                  seed=data.draw(st.integers(0, 2 ** 16)))
    ev = LogEvaluator(log)
    particles = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    queries = data.draw(st.lists(st.sampled_from(grid + [0.0, 1.0]),
                                 max_size=6))
    want = np.array([ev.positions_at(t)[particles] for t in queries])
    got = ev.positions_of(particles, queries)
    assert got.shape == (len(queries), len(particles))
    assert got.tobytes() == want.tobytes()


def test_positions_of_reads_a_long_log(affine_log):
    ev = LogEvaluator(affine_log)
    ts = np.linspace(0.0, affine_log.horizon, 41)
    want = np.array([ev.positions_at(float(t)) for t in ts])
    assert ev.positions_of(np.arange(ev.n), ts).tobytes() == want.tobytes()


def test_phi_monotone_in_t(affine_log, lattice):
    ev = LogEvaluator(affine_log)
    for g in lattice.gammas:
        vals = [ev.phi(TestFunction.ones(), g, t)
                for t in lattice.times if t >= g.t0]
        assert all(b <= a for a, b in zip(vals[:-1], vals[1:]))


def test_char_curve_monotone(affine_log, lattice):
    ev = LogEvaluator(affine_log)
    for g in lattice.gammas:
        vals = [char_curve(ev, g, t) for t in lattice.times if t >= g.t0]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))
    # across gammas at fixed t, decreasing gamma raises the curve; gammas
    # ascend as (z, 0) with z from 1 down to 0, then (0, t0) with t0 rising
    t = 1.0
    gs = sorted(lattice.gammas, key=lambda g: (g.t0, -g.y0))
    vals = [char_curve(ev, g, t) for g in gs]
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
            y = char_curve(ev, g, t)
            assert ev.mu(h, y, t) == pytest.approx(ev.phi(h, g, t), abs=1e-14)


# repeated times, a t 1e-13 below a t0, a t past the horizon by less than
# its tolerance, and boundary(0), which reads bdry_phi
IRREGULAR = EvaluationLattice(
    gammas=(initial(0.0), initial(0.37), initial(1.0), boundary(0.0),
            boundary(0.33), boundary(1.0)),
    times=(0.0, 0.33 - 1e-13, 0.33, 0.5, 0.5, 1.0, 1.0 + 1e-10))


def _of_kind(lattice, kind):
    return EvaluationLattice(
        gammas=tuple(g for g in lattice.gammas if g.kind == kind),
        times=lattice.times)


LATTICES = (EvaluationLattice.regular(1.0), IRREGULAR,
            _of_kind(EvaluationLattice.regular(1.0), "initial"),
            _of_kind(IRREGULAR, "boundary"))


def _test_functions(spec):
    return ([TestFunction.ones(), TestFunction.norm_capped(1.0)]
            + [TestFunction.indicator(k) for k in range(spec.n_classes)])


def _scalar_phis(sol, spec, hs, lattice):
    return np.array([[scalar_phi(sol.evaluator, h.per_class(spec), g, t)
                      for g, t in lattice.pairs()] for h in hs])


SPECS = {p.stem: p for p in sorted((ROOT / "configs").glob("*.json"))}
SPECS["affine_0_5_5_0"] = STEEP_SPECS["affine_0_5_5_0"]


@pytest.mark.parametrize("grid", [(10, 50), (20, 200), (20, 400)], ids=str)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_phi_read_equals_scalar_point_queries(name, grid):
    # the shipped specs and the steep one, whose classes weigh a cell's
    # rows apart the most
    source = SPECS[name]
    spec = (load_spec(source) if isinstance(source, Path)
            else spec_from_config(source))
    sol = solve_y_c(spec, n_z=grid[0], n_t=grid[1])
    hs = _test_functions(spec)
    for lattice in LATTICES:
        phi, theta = limit_values(lattice, sol, hs)
        assert theta is None
        assert phi.tobytes() == _scalar_phis(sol, spec, hs, lattice).tobytes()
    # a read of one h, and the point query, a one-pair read, reduce the
    # classes by a matrix-vector product, which the BLAS sums in another
    # order than the dot products of the scalar path: exact where every
    # product is, for h = 1 and the indicators, and within np.spacing(1.0)
    # of values <= 1 where h weighs the classes unevenly
    for h, want in zip(hs, _scalar_phis(sol, spec, hs, IRREGULAR)):
        one_h, _ = limit_values(IRREGULAR, sol, [h])
        points = np.array([sol.phi(h, g, t) for g, t in IRREGULAR.pairs()])
        for got in (one_h[0], points):
            if h.kind == "norm_capped":
                assert np.max(np.abs(got - want)) <= np.spacing(1.0)
            else:
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_classes", [16, 64])
def test_one_phi_read_of_many_classes(n_classes):
    # constant classes at the Exp(1) quantiles.  Each value sums K class
    # terms: the matrix product of the lattice read and the dot product of
    # the point query may add them in different orders (the BLAS picks its
    # order by size), which moves the last bits of a sum of at most 1,
    # hence an absolute gap of 2e-15 and not bytes
    q = (np.arange(n_classes) + 0.5) / n_classes
    spec = constant_mixture_spec(rates=tuple(-np.log1p(-q)),
                                 weights=(1.0 / n_classes,) * n_classes)
    sol = solve_y_c(spec, n_z=20, n_t=200)
    hs = _test_functions(spec)
    lattice = EvaluationLattice.regular(1.0)
    phi, _ = limit_values(lattice, sol, hs)
    assert np.max(np.abs(phi - _scalar_phis(sol, spec, hs, lattice))) <= 2e-15
    # per-class values are the rows of the identity
    ix = lattice._index
    per_class = sol.evaluator._phis(np.eye(n_classes), ix.initial, ix.y0,
                                    ix.t0, ix.t)
    assert per_class.tobytes() == phi[2:].tobytes()


def test_one_theta_read_equals_per_pair_theta(sol_affine):
    flow = sol_affine.flow
    for lattice in (EvaluationLattice.regular(1.0), IRREGULAR):
        _, theta = limit_values(lattice, flow=flow)
        want = np.array([flow.theta(g, t) for g, t in lattice.pairs()])
        assert theta.tobytes() == want.tobytes()


@pytest.mark.parametrize("gammas, times", [
    ((initial(0.5), boundary(0.5)), (0.5, 1.0 + 1e-6)),
    ((initial(0.5), initial(1.0 + 1e-9)), (0.5,)),
])
def test_one_theta_read_refuses_an_inadmissible_pair(sol_affine, gammas, times):
    lattice = EvaluationLattice(gammas=gammas, times=times)
    with pytest.raises(DomainError):
        limit_values(lattice, flow=sol_affine.flow)
    for sol in (sol_affine, sol_affine.evaluator):
        with pytest.raises(DomainError, match="not admissible"):
            limit_values(lattice, sol, [TestFunction.ones()])
    with pytest.raises(DomainError):
        sol_affine.flow._thetas([0.5, 0.5], [0.0, 0.2], [0.5, math.nan])


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
    assert 0 <= d.value <= np.max(np.abs(h.per_class(spec_affine)))


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


def test_interior_gamma_supported(affine_log):
    ev = LogEvaluator(affine_log)
    assert ev.mu(TestFunction.ones(), 0.4, 0.5) == \
        floor_tail_count(0.4, affine_log.n) / affine_log.n


def test_test_function_vectors():
    spec = affine_two_class_spec()
    assert np.array_equal(TestFunction.ones().per_class(spec), [1, 1])
    assert np.array_equal(TestFunction.indicator(1).per_class(spec), [0, 1])
    capped = TestFunction.norm_capped(1.3).per_class(spec)
    assert np.array_equal(capped, [1.3, 1.2])
    assert np.max(np.abs(capped)) == 1.3
    with pytest.raises(ConfigError):
        TestFunction.indicator(5).per_class(spec)
