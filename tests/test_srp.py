import io
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (STEEP_SPECS, affine_two_class_spec,
                      constant_mixture_spec, constant_single_spec,
                      uniform_single_class, zero_rate_spec)
from oracles import (NaiveRankIndex, forward_law, sequential_original_pass,
                     split_and_compensator)
from rankflow import (ConfigError, DomainError, EnvelopeBreach, EventLog,
                      FlowGrid,
                      RankIndex, assign_population, simulate,
                      simulate_coupled, simulate_flow_driven, solve_y_c,
                      spec_from_config, srp, streams, survival_solve,
                      tagged_limit_path, tilde_w)
from rankflow.intensity import (ConstantField, IntensityField, TableField,
                                load_spec)
from rankflow.measure import _LogBatch

ROOT = Path(__file__).resolve().parents[1]


def test_rank_index_move_to_front_example():
    # ranks (a,b,c) = (0,1,2); moving c to the front shifts a and b back
    idx = RankIndex([0, 1, 2])
    idx.move_to_front(2)
    assert [idx.rank(i) for i in range(3)] == [1, 2, 0]


def test_rank_index_front_particle_is_fixed_point():
    idx = RankIndex([2, 0, 1])
    idx.move_to_front(1)
    assert [idx.rank(i) for i in range(3)] == [2, 0, 1]


def test_rank_index_rejects_non_permutation():
    with pytest.raises(ConfigError):
        RankIndex([0, 0, 2])


def test_rank_index_against_naive_oracle_random_ops():
    n = 300
    rng = np.random.default_rng(0)
    start = rng.permutation(n)
    fast = RankIndex(start)
    naive = NaiveRankIndex(start)
    ops = rng.integers(0, n, size=100_000)
    queries = rng.integers(0, 2, size=100_000)
    for step, (i, q) in enumerate(zip(ops.tolist(), queries.tolist())):
        if q:
            assert fast.rank(i) == naive.rank(i)
        else:
            fast.move_to_front(i)
            naive.move_to_front(i)
        if step % 20_000 == 0:
            assert np.array_equal(fast.ranks(), naive.ranks())
    assert np.array_equal(fast.ranks(), naive.ranks())
    assert sorted(fast.ranks().tolist()) == list(range(n))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rank_index_matches_naive_oracle_past_compaction(data):
    n = data.draw(st.integers(1, 40))
    start = data.draw(st.permutations(range(n)))
    # each step moves one particle to the front, then queries one rank
    steps = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               min_size=1, max_size=60))
    fast = RankIndex(start)
    naive = NaiveRankIndex(start)
    # cycle the drawn steps until the moves exceed the free slots in
    # front, so that at least one compaction runs
    moves = 0
    while moves <= fast.headroom:
        for i, j in steps:
            fast.move_to_front(i)
            naive.move_to_front(i)
            assert fast.rank(j) == naive.rank(j)
        moves += len(steps)
        assert np.array_equal(fast.ranks(), naive.ranks())
    assert moves > fast.headroom


def test_single_particle_stays_on_top():
    spec = constant_single_spec(2.0)
    a = assign_population(spec, 1)
    log = simulate(a, seed=4)
    assert log.n_events > 0           # jumps happen, but from slot 0
    assert np.all(log.pre_positions == 0.0)


def test_zero_rates_empty_log():
    a = assign_population(zero_rate_spec(), 50)
    log = simulate(a, seed=1)
    assert log.n_events == 0


def test_two_particle_top_rank_occupancy_matches_ctmc():
    # top-slot occupancy of particle 0 is the 2-state chain value c1/(c1+c2)
    c1, c2, horizon, burn = 1.0, 2.0, 50.0, 10.0
    spec = constant_mixture_spec(rates=(c1, c2), weights=(0.5, 0.5),
                                 horizon=horizon)
    a = assign_population(spec, 2)
    k_of_particle = a.class_index
    reps = 2_000
    vals = np.empty(reps)
    for r in range(reps):
        log = simulate(a, seed=r)
        occupant = int(np.argmin(a.position))
        t_prev, acc = burn, 0.0
        for t, i in zip(log.times, log.particles):
            if t > burn:
                if k_of_particle[occupant] == 0:
                    acc += t - t_prev
                t_prev = t
            occupant = int(i)
        if k_of_particle[occupant] == 0:
            acc += horizon - t_prev
        vals[r] = acc / (horizon - burn)
    want = c1 / (c1 + c2)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - want) <= 3 * se


def test_positions_stay_permutation_at_event_boundaries():
    spec = affine_two_class_spec()
    a = assign_population(spec, 25)
    log = simulate(a, seed=7)
    idx = RankIndex(a.slots)
    for i in log.particles.tolist():
        idx.move_to_front(i)
        assert sorted(idx.ranks().tolist()) == list(range(25))


def test_determinism_same_seed_same_bytes():
    spec = affine_two_class_spec()
    a = assign_population(spec, 64)
    bufs = []
    for _ in range(2):
        log = simulate(a, seed=9)
        buf = io.BytesIO()
        log.save(buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    assert simulate(a, seed=10).n_events != 0


def test_log_round_trip(tmp_path):
    spec = affine_two_class_spec()
    a = assign_population(spec, 32)
    log = simulate(a, seed=2)
    path = tmp_path / "log.npz"
    log.save(path)
    loaded = EventLog.load(path, spec)
    assert np.array_equal(loaded.times, log.times)
    assert np.array_equal(loaded.particles, log.particles)
    assert np.array_equal(loaded.pre_positions, log.pre_positions)
    csv = tmp_path / "log.csv"
    log.to_csv(csv)
    assert csv.read_text().startswith("time,particle,pre_position")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_log_save_load_keeps_every_byte(data):
    n = data.draw(st.integers(1, 12))
    spec = data.draw(st.sampled_from(
        [constant_single_spec(), affine_two_class_spec()]))
    a = assign_population(spec, n, mode="seeded-random",
                          seed=data.draw(st.integers(0, 2 ** 16)))
    # every float a log may hold: times in [0, horizon], positions in [0, 1]
    horizon = data.draw(st.floats(0, 1e300, allow_subnormal=True))
    events = data.draw(st.lists(
        st.tuples(st.floats(0, horizon, allow_subnormal=True),
                  st.integers(0, n - 1),
                  st.floats(0, 1, allow_subnormal=True)), max_size=20))
    times, particles, pre = (list(c) for c in zip(*sorted(events))) \
        if events else ([], [], [])
    log = EventLog(assignment=a, horizon=horizon, times=times,
                   particles=particles, pre_positions=pre,
                   kind=data.draw(st.sampled_from(["original", "flow"])),
                   tie_count=data.draw(st.integers(0, 2 ** 40)))
    buf = io.BytesIO()
    log.save(buf)
    buf.seek(0)
    loaded = EventLog.load(buf, spec)
    for name in ("times", "particles", "pre_positions"):
        assert getattr(loaded, name).tobytes() == getattr(log, name).tobytes()
    assert loaded.assignment.class_index.tobytes() == a.class_index.tobytes()
    assert loaded.assignment.position.tobytes() == a.position.tobytes()
    assert (loaded.kind, loaded.tie_count) == (log.kind, log.tie_count)
    assert np.float64(loaded.horizon).tobytes() == \
        np.float64(log.horizon).tobytes()


def test_log_load_rejects_other_spec(tmp_path):
    a = assign_population(affine_two_class_spec(), 16)
    log = simulate(a, seed=0)
    path = tmp_path / "log.npz"
    log.save(path)
    with pytest.raises(ConfigError):
        EventLog.load(path, constant_single_spec())


@pytest.mark.parametrize("field, at, value", [
    ("times", 3, np.nan), ("times", -1, 1.5), ("particles", 0, 77),
    ("particles", 0, -1), ("pre_positions", 0, 7.0)])
def test_log_load_refuses_what_no_run_records(tmp_path, field, at, value):
    # a log from outside the program, on a horizon of 1 and 50 particles
    spec = load_spec(ROOT / "configs" / "affine_two_class.json")
    path = tmp_path / "log.npz"
    simulate(assign_population(spec, 50), seed=0).save(path)
    with np.load(path) as d:
        arrays = dict(d)
    arrays[field][at] = value
    np.savez(path, **arrays)
    with pytest.raises(ConfigError, match=field):
        EventLog.load(path, spec)


class Lying(ConstantField):
    def __init__(self):
        super().__init__(2.0, 1.0)
        self.sup_norm = 0.5  # wrong on purpose


def _tagged_engine(a, flow, seed):
    cand = streams.tagged_candidates(seed, 0, 0.5, 1.0)
    assert len(cand[0]) > 0
    return tagged_limit_path(SimpleNamespace(flow=flow), Lying(), 0.5, cand)


# every candidate breaches, so each engine reports its first candidate
FIRST_OF_STREAM = "particle 26: hazard 2.0 above envelope 0.5 at t=0.03609107425258373"
# its breach record (owner, last, time, hazard); the original engine's
# hazard reads a rank, so it names no last arrival, and the coupled engine
# breaches in its original pass first
FIRST_RECORD = 26, 0.0, 0.03609107425258373, 2.0
RANK_RECORD = 26, None, 0.03609107425258373, 2.0


@pytest.mark.parametrize("engine, message, record", [
    (lambda a, fl, seed: simulate(a, seed=seed), FIRST_OF_STREAM, RANK_RECORD),
    (simulate_flow_driven, FIRST_OF_STREAM, FIRST_RECORD),
    (simulate_coupled, FIRST_OF_STREAM, RANK_RECORD),
    (_tagged_engine,
     "particle 0: hazard 2.0 above envelope 0.5 at t=0.02603265450550385",
     (0, 0.0, 0.02603265450550385, 2.0)),
], ids=["original", "flow_driven", "coupled", "tagged_limit_path"])
def test_envelope_breach_is_hard_fault(engine, message, record):
    a = assign_population(uniform_single_class(Lying()), 50)
    with pytest.raises(EnvelopeBreach) as exc:
        engine(a, FlowGrid.identity(1.0, 10, 50), seed=0)
    assert str(exc.value) == message
    e = exc.value
    assert (e.owner, e.last, e.time, e.hazard) == record


class NanAbove(IntensityField):
    """A rate of 1 up to y = 0.5 and NaN above it."""

    kind = "nan_above"

    def __init__(self):
        super().__init__(1.0)
        self._set_bounds(1.0, 0.0)

    def _values(self, y, t):
        return np.asarray(np.where(y > 0.5, np.nan, 1.0) + 0.0 * t)

    def params(self):
        return {}


NAN_AT = 0.010124802107260966


@pytest.mark.parametrize("engine, last", [
    (lambda a, fl, seed: simulate(a, seed=seed), None),
    (simulate_flow_driven, 0.0),
    (simulate_coupled, None),
], ids=["original", "flow_driven", "coupled"])
def test_nan_hazard_is_a_breach_in_every_engine(engine, last):
    # a NaN hazard fails every comparison: each engine reports its first,
    # particle 132's first candidate, instead of thinning it away; the
    # coupled engine meets it in its original pass first
    a = assign_population(uniform_single_class(NanAbove()), 200)
    with pytest.raises(EnvelopeBreach) as exc:
        engine(a, FlowGrid.identity(1.0, 10, 50), seed=1)
    assert str(exc.value) == \
        f"particle 132: hazard nan above envelope 1.0 at t={NAN_AT}"
    e = exc.value
    assert (e.owner, e.last, e.time) == (132, last, NAN_AT)
    assert math.isnan(e.hazard)
    # the sequential reference breaches at the same candidate
    times, ids, marks, _ = srp._candidates(a, 1.0, 1, 0)
    with pytest.raises(EnvelopeBreach) as loop:
        sequential_original_pass(a, times, ids, marks)
    assert str(loop.value) == str(exc.value)


def _merged_z(counts, expected):
    """z = (chi2 - dof) / sqrt(2 dof) of ``counts`` against ``expected``,
    the cells of least expected count merged until each expects 5."""
    order = np.argsort(expected, kind="stable")
    cells, e_run, o_run = [], 0.0, 0
    for e, o in zip(expected[order], counts[order]):
        e_run, o_run = e_run + e, o_run + o
        if e_run >= 5:
            cells.append((e_run, o_run))
            e_run, o_run = 0.0, 0
    e, o = np.array(cells).T
    e[-1], o[-1] = e[-1] + e_run, o[-1] + o_run
    dof = len(cells) - 1
    return (((o - e) ** 2 / e).sum() - dof) / math.sqrt(2 * dof)


# two classes whose rates each read both position and time
PRODUCT_LAW_SPEC = {"horizon": 1.0, "classes": [
    {"weight": 0.5, "field": {"kind": "product", "y_base": 0.2, "y_slope": 1.8,
                              "t_base": 0.5, "t_slope": 1.5}},
    {"weight": 0.5, "field": {"kind": "product", "y_base": 2.0, "y_slope": -1.8,
                              "t_base": 1.5, "t_slope": -1.0}}]}

# the specs of the exact-law test, and how many slots off the law must be
# read for the power check to refuse it: the table spec's rates change by
# at most 0.4 across the ranks, so at half a slot off its z is 5 to 8
LAW_SPECS = {
    "affine": (affine_two_class_spec, 0.5),
    "steep": (lambda: spec_from_config(STEEP_SPECS["affine_0_5_5_0"]), 0.5),
    "table": (None, 1.0),
    "product": (lambda: spec_from_config(PRODUCT_LAW_SPEC), 0.5),
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(LAW_SPECS))
def test_original_engine_matches_its_forward_law(name, n, request):
    # the final rank vectors of 20 000 seeded runs against the exact law
    # of the model at N = 2, 3 and 4, where every rate reads position and
    # two read time; the seeds are fixed, so the test is deterministic
    build, off_slots = LAW_SPECS[name]
    spec = build() if build else request.getfixturevalue("spec_table")
    a = assign_population(spec, n)
    runs = 20_000
    logs = srp._run_seeds(a, range(runs), "original")
    final = _LogBatch(logs).positions_of(np.arange(n), [spec.horizon])[:, 0]
    digits = n ** np.arange(n)
    drawn = np.bincount(np.rint(final * n).astype(np.int64) @ digits,
                        minlength=n ** n)
    states, law = forward_law(a, spec.horizon)
    counts = drawn[states @ digits]
    assert counts.sum() == runs
    assert abs(_merged_z(counts, runs * law)) <= 4
    # power: the same counts refuse a law that reads the rates off
    _, off = forward_law(a, spec.horizon, offset=off_slots)
    assert _merged_z(counts, runs * off) > 10


def _no_event_frequencies(logs, n, nodes):
    """Per particle i and lattice pair (a, b), a < b, the fraction of the
    logs in which i has no event in (nodes[a], nodes[b]]."""
    runs, m = len(logs), len(nodes)
    run = np.repeat(np.arange(runs), [len(log.times) for log in logs])
    times = np.concatenate([log.times for log in logs])
    particles = np.concatenate([log.particles for log in logs])
    # an event at u counts from the first node at or after it on
    first = np.searchsorted(nodes, times, side="left")
    counts = np.bincount((run * n + particles) * m + first,
                         minlength=runs * n * m).reshape(runs, n, m)
    seen = np.cumsum(counts, axis=2)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    return pairs, np.array([[np.mean(seen[:, i, b] == seen[:, i, a])
                             for a, b in pairs] for i in range(n)])


@pytest.mark.parametrize("name", ["affine", "steep"])
def test_flow_driven_engine_matches_its_last_arrival_law(name, sol_affine):
    # given the flow, particle i jumps as the point process whose hazard
    # after a jump at s is its class's rate read along the flow from s:
    # the last-arrival kernel tilde_w(flow, field_{k_i}, y_i).  The no-event
    # frequencies of 20 000 seeded runs at N = 3, over the pairs of a
    # 5-node lattice, against survival_solve of that kernel
    if name == "affine":
        spec, sol = sol_affine.spec, sol_affine
    else:
        spec = spec_from_config(STEEP_SPECS["affine_0_5_5_0"])
        sol = solve_y_c(spec, n_z=20, n_t=200, tol=1e-8)
    n, runs = 3, 20_000
    a = assign_population(spec, n)
    logs = srp._run_seeds(a, range(runs), "flow", flow=sol.flow)
    grid = np.linspace(0.0, spec.horizon, 401)
    nodes = np.arange(0, 401, 100)
    pairs, freq = _no_event_frequencies(logs, n, grid[nodes])

    def z_scores(offset):
        z = np.empty_like(freq)
        for i in range(n):
            field = spec.classes[a.class_index[i]].field
            p = survival_solve(tilde_w(sol.flow, field, a.position[i] + offset),
                               grid).p
            want = np.array([p[nodes[u], nodes[v]] for u, v in pairs])
            z[i] = (freq[i] - want) / np.sqrt(want * (1 - want) / runs)
        return z

    assert np.max(np.abs(z_scores(0.0))) <= 4
    # power: the same frequencies refuse the kernel read half a slot off
    assert np.max(np.abs(z_scores(0.5 / n))) > 10


def test_flow_driven_position_independent_matches_original_bitwise():
    # thresholds coincide, and both engines share the candidate stream
    spec = constant_mixture_spec()
    a = assign_population(spec, 100)
    fl = FlowGrid.identity(1.0, 10, 50)
    lo = simulate(a, seed=3)
    lf = simulate_flow_driven(a, fl, seed=3)
    assert np.array_equal(lo.times, lf.times)
    assert np.array_equal(lo.particles, lf.particles)
    assert np.array_equal(lo.pre_positions, lf.pre_positions)


@pytest.mark.parametrize("engine", [simulate_flow_driven, simulate_coupled])
def test_flow_engines_refuse_a_flow_shorter_than_the_spec(engine):
    a = assign_population(constant_mixture_spec(), 30)
    with pytest.raises(DomainError, match="flow horizon shorter"):
        engine(a, FlowGrid.identity(0.5, 10, 50), seed=0)


def test_flow_driven_zero_rates_empty():
    a = assign_population(zero_rate_spec(), 30)
    fl = FlowGrid.identity(1.0, 10, 50)
    assert simulate_flow_driven(a, fl, seed=5).n_events == 0


def test_coupled_position_independent_never_decouples():
    spec = constant_mixture_spec()
    a = assign_population(spec, 120)
    fl = FlowGrid.identity(1.0, 10, 50)
    lo, lf, rec = simulate_coupled(a, fl, seed=6)
    assert rec.decoupled_fraction() == 0.0
    assert np.array_equal(lo.times, lf.times)
    assert np.array_equal(lo.pre_positions, lf.pre_positions)


def test_coupled_zero_rates():
    a = assign_population(zero_rate_spec(), 20)
    fl = FlowGrid.identity(1.0, 10, 50)
    lo, lf, rec = simulate_coupled(a, fl, seed=0)
    assert rec.decoupled_fraction() == 0.0
    assert lo.n_events == 0 and lf.n_events == 0


def test_coupled_affine_decouples_sometimes(sol_affine, spec_affine):
    a = assign_population(spec_affine, 200)
    _, _, rec = simulate_coupled(a, sol_affine.flow, seed=1)
    assert 0.0 < rec.decoupled_fraction() < 0.5
    finite = rec.sigma[np.isfinite(rec.sigma)]
    assert np.all((finite > 0) & (finite <= 1.0))


def _log_bytes(log):
    buf = io.BytesIO()
    log.save(buf)
    return buf.getvalue()


@pytest.mark.parametrize("kind", ["affine", "table"])
def test_coupled_sides_match_single_engines(kind, request):
    spec = request.getfixturevalue(f"spec_{kind}")
    flow = request.getfixturevalue(f"sol_{kind}").flow
    a = assign_population(spec, 300)
    lo, lf, rec = simulate_coupled(a, flow, seed=4)
    assert _log_bytes(lo) == _log_bytes(simulate(a, seed=4))
    assert _log_bytes(lf) == _log_bytes(simulate_flow_driven(a, flow, seed=4))
    # sigma_i is the earliest time at which exactly one side jumps
    want = np.full(a.n, np.inf)
    for i in range(a.n):
        only_one = set(lo.times[lo.particles == i]) ^ \
            set(lf.times[lf.particles == i])
        if only_one:
            want[i] = min(only_one)
    assert np.array_equal(rec.sigma, want)
    assert np.isfinite(want).any()


def test_tagged_mode_preserves_tagged_streams_across_n(spec_mixture):
    # particle 0's jump times must not depend on the population size
    from rankflow.intensity import pin_particles
    pins = [(1, 0.5)]
    jumps = {}
    for n in (50, 400):
        a = pin_particles(assign_population(spec_mixture, n), pins)
        log = simulate(a, seed=12, tagged=1)
        jumps[n] = log.times[log.particles == 0]
    assert np.array_equal(jumps[50], jumps[400])


def test_throughput_guardrail_large_n():
    # documented budget: N = 1e5 at unit rate, T = 1, under 60 s on the
    # reference machine (typically a few seconds)
    import time
    spec = constant_single_spec(1.0)
    a = assign_population(spec, 100_000)
    t0 = time.perf_counter()
    log = simulate(a, seed=0)
    elapsed = time.perf_counter() - t0
    assert log.n_events > 90_000
    assert elapsed < 60.0


def _rank_index_walk(slots, ids, accepted):
    index = RankIndex(slots)
    ranks = []
    for i, acc in zip(ids.tolist(), accepted.tolist()):
        ranks.append(index.rank(i))
        if acc:
            index.move_to_front(i)
    return np.array(ranks, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mtf_ranks_match_rank_index_walk(data):
    n = data.draw(st.integers(1, 300))
    slots = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    # a small id range repeats particles often; the full range rarely
    top = data.draw(st.integers(0, n - 1))
    ids = np.array(data.draw(st.lists(st.integers(0, top), max_size=300)),
                   dtype=np.int64)
    accepted = np.array(data.draw(st.lists(st.booleans(), min_size=len(ids),
                                           max_size=len(ids))), dtype=bool)
    want = _rank_index_walk(slots, ids, accepted)
    got = srp._mtf_ranks(slots, ids, accepted)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    start = data.draw(st.integers(0, len(ids)))
    assert np.array_equal(
        srp._mtf_ranks(slots, ids, accepted, start, srp._by_particle(ids, n)),
        want[start:])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_count_below_coarse_levels_split_the_bound_bucket(data):
    # small values share many buckets; values up to 2^40 walk 41 levels
    high = data.draw(st.sampled_from([5000, 1 << 40]))
    values = np.array(data.draw(st.lists(st.integers(0, high), max_size=80)),
                      dtype=np.int64)
    q = data.draw(st.integers(0, 30))
    ranges = data.draw(st.lists(st.tuples(st.integers(0, len(values)),
                                          st.integers(0, len(values))),
                                min_size=q, max_size=q))
    # the ranges of a batch's runs start anywhere, a lone run's at 0
    if data.draw(st.booleans()):
        ranges = [(0, hi) for _, hi in ranges]
    starts = np.array([min(r) for r in ranges], dtype=np.int64)
    ends = np.array([max(r) for r in ranges], dtype=np.int64)
    bounds = np.array(data.draw(st.lists(st.integers(0, high + high // 5),
                                         min_size=q, max_size=q)),
                      dtype=np.int64)
    levels = data.draw(st.integers(1, 14) | st.none())
    inputs = [a.copy() for a in (values, starts, ends, bounds)]
    got = srp._count_below(values, starts, ends, bounds, levels)
    # _mtf_ranks passes a view of an array it reads again as the bounds
    for a, b in zip((values, starts, ends, bounds), inputs):
        assert np.array_equal(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == _brute_count_below(values, starts, ends, bounds,
                                              levels)


def _brute_count_below(values, starts, ends, bounds, levels):
    """``_count_below`` query by query, on the top bits alone: the values
    in the range below the bound's bucket, plus half of those in it,
    rounded down; exact when no bits are left below."""
    top = int(max(values.max(initial=0), bounds.max(initial=0))).bit_length()
    shift = 0 if levels is None else max(top - levels, 0)
    want = []
    for lo, hi, b in zip(starts.tolist(), ends.tolist(), bounds.tolist()):
        head, bucket = values[lo:hi] >> shift, b >> shift
        half = int(np.sum(head == bucket)) // 2 if shift else 0
        want.append(int(np.sum(head < bucket)) + half)
    return want


INT32_MAX = (1 << 31) - 1


def test_lane_is_int32_up_to_its_largest_value():
    assert srp._lane(INT32_MAX) is np.int32
    assert srp._lane(INT32_MAX + 1) is np.int64


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_count_below_straddling_the_int32_lane_is_the_brute_force_count(data):
    # a few values near 2^31 - 1: up to it the count walks int32 lanes,
    # past it int64 ones; past 2^32, an int32 lane would drop the top bits
    high = data.draw(st.sampled_from([INT32_MAX, INT32_MAX + 40,
                                      (1 << 32) + 40]))
    near = st.integers(high - 80, high) | st.integers(0, 40)
    values = np.array(data.draw(st.lists(near, min_size=1, max_size=12)),
                      dtype=np.int64)
    q = data.draw(st.integers(1, 12))
    ranges = data.draw(st.lists(st.tuples(st.integers(0, len(values)),
                                          st.integers(0, len(values))),
                                min_size=q, max_size=q))
    starts = np.array([min(r) for r in ranges], dtype=np.int64)
    ends = np.array([max(r) for r in ranges], dtype=np.int64)
    bounds = np.array(data.draw(st.lists(near, min_size=q, max_size=q)),
                      dtype=np.int64)
    for levels in (None, data.draw(st.integers(1, 33))):
        got = srp._count_below(values, starts, ends, bounds, levels)
        assert got.dtype == np.int64
        assert got.tolist() == _brute_count_below(values, starts, ends,
                                                  bounds, levels)


@pytest.mark.parametrize("n, m, top, share", [
    (1, 50, 0, 0.5), (7, 3000, 6, 0.3), (300, 3000, 299, 0.7),
    (300, 3000, 20, 0.5), (2000, 5000, 1999, 0.95),
    # 18 bit levels, as in the benchmark's windows
    (100_000, 1 << 15, 99_999, 0.7)])
def test_mtf_ranks_match_rank_index_walk_on_long_streams(n, m, top, share):
    rng = np.random.default_rng([n, m])
    slots = rng.permutation(n)
    ids = rng.integers(0, top + 1, size=m)
    accepted = rng.random(m) < share
    want = _rank_index_walk(slots, ids, accepted)
    assert np.array_equal(srp._mtf_ranks(slots, ids, accepted), want)


PASS_SPECS = {
    **{p.stem: p for p in sorted((ROOT / "configs").glob("*.json"))},
    "table_two_class": ROOT / "bench" / "table_two_class.json",
    **STEEP_SPECS,
}


def _assert_pass_matches_loop(name, n):
    cfg = PASS_SPECS[name]
    spec = spec_from_config(cfg) if isinstance(cfg, dict) else load_spec(cfg)
    a = assign_population(spec, n)
    for seed in range(3):
        for tagged in sorted({0, min(n, 2)}):
            times, ids, marks, _ = srp._candidates(a, spec.horizon, seed, tagged)
            got = srp._original_pass(a, times, ids, marks)
            want = sequential_original_pass(a, times, ids, marks)
            assert np.array_equal(got[0], want[0])
            assert got[1].dtype == want[1].dtype
            assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("n", [1, 2, 100, 1600])
@pytest.mark.parametrize("name", sorted(PASS_SPECS))
def test_original_pass_matches_sequential_loop(name, n):
    _assert_pass_matches_loop(name, n)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_next_slots_are_the_rank_index_walk(data):
    n = data.draw(st.integers(1, 60))
    slots = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    top = data.draw(st.integers(0, n - 1))
    ids = np.array(data.draw(st.lists(st.integers(0, top), min_size=1,
                                      max_size=100)), dtype=np.int64)
    accepted = np.array(data.draw(st.lists(st.booleans(), min_size=len(ids),
                                           max_size=len(ids))), dtype=bool)
    index = RankIndex(slots)
    for i in ids[accepted].tolist():
        index.move_to_front(i)
    got = srp._next_slots(slots, ids, accepted, srp._by_particle(ids, n))
    assert got.dtype == np.int64 and np.array_equal(got, index.ranks())


# a window of a few dozen candidates, so that every stream crosses many
WINDOW = 37


@pytest.mark.parametrize("n", [100, 1600])
@pytest.mark.parametrize("name", sorted(PASS_SPECS))
def test_original_pass_matches_sequential_loop_across_windows(name, n,
                                                              monkeypatch):
    monkeypatch.setattr(srp, "_window", lambda n: WINDOW)
    _assert_pass_matches_loop(name, n)


def _pass_counts(caplog):
    """(rounds, windows, candidates, predicted) of the one original pass
    logged."""
    (msg,) = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("original pass")]
    words = msg.split()
    assert words[3:5] == ["rounds", "in"] and words[6:8] == ["windows", "over"]
    assert words[9] == "candidates," and words[11] == "predicted"
    return int(words[2]), int(words[5]), int(words[8]), int(words[10])


def test_original_pass_logs_its_rounds(caplog):
    a = assign_population(spec_from_config(STEEP_SPECS["affine_0_5_5_0"]), 400)
    with caplog.at_level("DEBUG", logger="rankflow.srp"):
        simulate(a, seed=1)
    rounds, windows, _, _ = _pass_counts(caplog)
    assert rounds > 1 and windows == 1


def _stale_guess(slots, ids, guess, grouped, accept):
    return guess


def test_original_pass_logs_its_windows(caplog, monkeypatch):
    monkeypatch.setattr(srp, "_window", lambda n: WINDOW)
    a = assign_population(spec_from_config(STEEP_SPECS["affine_0_5_5_0"]), 400)
    with caplog.at_level("DEBUG", logger="rankflow.srp"):
        simulate(a, seed=1)
    rounds, windows, m, predicted = _pass_counts(caplog)
    assert windows == -(-m // WINDOW) and windows >= 2
    assert predicted == windows
    # the stale guess alone needs a second exact round in some window
    monkeypatch.setattr(srp, "_predict", _stale_guess)
    caplog.clear()
    with caplog.at_level("DEBUG", logger="rankflow.srp"):
        simulate(a, seed=1)
    rounds, windows, m, predicted = _pass_counts(caplog)
    assert predicted == windows and rounds > windows


@pytest.mark.parametrize("predictor", ["on", "stale"])
def test_original_pass_prediction_saves_a_round_per_window(caplog, monkeypatch,
                                                           predictor):
    # at N = 1e5 each window's stale guess needs three exact rounds and the
    # predicted one two: the first round no longer only buys a better guess
    if predictor == "stale":
        monkeypatch.setattr(srp, "_predict", _stale_guess)
    a = assign_population(load_spec(ROOT / "configs" / "affine_two_class.json"),
                          100_000)
    with caplog.at_level("DEBUG", logger="rankflow.srp"):
        simulate(a, seed=3)
    rounds, windows, _, _ = _pass_counts(caplog)
    assert windows == 9
    assert (rounds <= 2 * windows) == (predictor == "on")


def test_original_pass_predicts_only_where_position_matters(caplog):
    a = assign_population(load_spec(ROOT / "configs" / "constant_mixture.json"),
                          400)
    with caplog.at_level("DEBUG", logger="rankflow.srp"):
        simulate(a, seed=1)
    rounds, windows, _, predicted = _pass_counts(caplog)
    assert predicted == 0 and rounds == windows == 1


def _mask_predictor(kind):
    """A ``srp._predict`` stand-in that returns a fixed kind of mask."""
    if kind == "stale":
        return _stale_guess

    def predict(slots, ids, guess, grouped, accept):
        if kind == "random":
            return np.random.default_rng(len(ids)).random(len(ids)) < 0.5
        return np.full(len(ids), kind == "accept_all")
    return predict


@pytest.mark.parametrize("kind", ["stale", "accept_all", "reject_all",
                                  "random"])
@pytest.mark.parametrize("n", [100, 1600])
@pytest.mark.parametrize("name", sorted(PASS_SPECS))
def test_original_pass_is_exact_whatever_the_prediction(name, n, kind,
                                                        monkeypatch):
    monkeypatch.setattr(srp, "_window", lambda n: WINDOW)
    monkeypatch.setattr(srp, "_predict", _mask_predictor(kind))
    _assert_pass_matches_loop(name, n)


def test_original_pass_crosses_windows_at_its_own_width(caplog):
    a = assign_population(spec_from_config(STEEP_SPECS["affine_0_5_5_0"]),
                          2 ** 15)
    times, ids, marks, _ = srp._candidates(a, 1.0, 1, 0)
    with caplog.at_level("DEBUG", logger="rankflow.srp"):
        got = srp._original_pass(a, times, ids, marks)
    _, windows, m, predicted = _pass_counts(caplog)
    assert m == len(times) and windows >= 2 and predicted == windows
    want = sequential_original_pass(a, times, ids, marks)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_candidates_count_exact_time_ties(monkeypatch, caplog):
    times = np.array([0.1, 0.2, 0.2, 0.5, 0.5, 0.5, 0.9])

    def repeated(seed, kind, index, rate, horizon, picks=False):
        return times, np.zeros(len(times)), np.linspace(0.0, 0.99, len(times))

    monkeypatch.setattr(streams, "stream_candidates", repeated)
    a = assign_population(load_spec(ROOT / "configs" / "constant_unit.json"), 4)
    with caplog.at_level("WARNING", logger="rankflow.srp"):
        log = simulate(a, seed=0)
    assert log.tie_count == 3
    assert log.n_events == len(times)
    assert [r.getMessage() for r in caplog.records] == [
        "candidate stream has 3 exact time ties"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_picks_are_a_plain_searchsorted(data):
    # zero envelopes repeat a cumulative value; some uniforms sit exactly on
    # a boundary, where side="right" picks the particle after it
    sups = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                       min_size=1, max_size=40)))
    sups[-1] += 1.0
    cum = np.cumsum(sups) / sups.sum()
    u = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(list(cum)),
        max_size=200)))
    got = srp._picks(cum, u)
    assert np.array_equal(got, np.searchsorted(cum, u, side="right"))


@pytest.mark.parametrize("tagged", [0, 2])
def test_candidates_pick_by_plain_searchsorted(spec_affine, tagged):
    a = assign_population(spec_affine, 1000)
    sups = a.sup_norms()
    times, ids, marks, _ = srp._candidates(a, 1.0, 3, tagged)
    bulk = sups[tagged:]
    t, _, u = streams.stream_candidates(
        3, streams.BULK if tagged else streams.GLOBAL, 0, float(bulk.sum()),
        1.0, picks=True)
    want = tagged + np.searchsorted(np.cumsum(bulk) / bulk.sum(), u,
                                    side="right")
    bulk_ids = ids[ids >= tagged]
    assert len(bulk_ids) == len(t) and np.array_equal(bulk_ids, want)
    assert np.all(np.diff(times) >= 0)


def test_flow_pass_pre_positions_are_the_move_to_front_replay(sol_affine,
                                                             spec_affine):
    a = assign_population(spec_affine, 1600)
    for seed in range(3):
        log = simulate_flow_driven(a, sol_affine.flow, seed=seed)
        want = _rank_index_walk(a.slots, log.particles,
                                np.ones(log.n_events, dtype=bool))
        assert log.pre_positions.tobytes() == (want * (1.0 / a.n)).tobytes()


class LyingSpike(TableField):
    """Declares a sup-norm that only ranks near N/2 exceed."""

    def __init__(self):
        super().__init__([[1, 1], [1, 1], [3, 3], [1, 1], [1, 1]], 1.0)
        self.sup_norm = 2.9


def _first_breach():
    """The sequential loop's first breach on LyingSpike at N = 200, seed 6,
    checked against ``simulate``'s; returns its message and the candidate
    times."""
    a = assign_population(uniform_single_class(LyingSpike()), 200)
    times, ids, marks, _ = srp._candidates(a, 1.0, 6, 0)
    with pytest.raises(EnvelopeBreach) as want:
        sequential_original_pass(a, times, ids, marks)
    with pytest.raises(EnvelopeBreach) as got:
        simulate(a, seed=6)
    assert str(got.value) == str(want.value)
    i = int(str(want.value).split()[1].rstrip(":"))
    assert LyingSpike()(a.position[i], 0.0) < 2.9
    return str(want.value), times


def test_state_dependent_breach_is_the_sequential_loop_first():
    # the breaching particle starts outside the band the hazard breaches in
    # and is pushed into it by jumps from behind, so the first breach
    # depends on the decisions before it
    _first_breach()


def test_state_dependent_breach_in_a_later_window(monkeypatch):
    # the first breach is candidate 44, and the second window of 40 also
    # holds the breaches at 78 and 79, which must not be the one raised
    monkeypatch.setattr(srp, "_window", lambda n: 40)
    message, times = _first_breach()
    t = float(message.rsplit("t=", 1)[1])
    assert int(np.flatnonzero(times == t)[0]) == 44


# -- batches of seeds -----------------------------------------------------------

BATCH_SPECS = {
    "constant": constant_single_spec(),
    "mixture": constant_mixture_spec(),
    "affine": affine_two_class_spec(),
    "table": load_spec(ROOT / "bench" / "table_two_class.json"),
    **{name: spec_from_config(cfg) for name, cfg in STEEP_SPECS.items()},
}
IDENTITY_FLOW = FlowGrid.identity(1.0, 10, 50)


def _one_seed_run(a, seed, engine, tagged=0):
    if engine == "original":
        return simulate(a, seed=seed, tagged=tagged)
    if engine == "flow":
        return simulate_flow_driven(a, IDENTITY_FLOW, seed=seed)
    return simulate_coupled(a, IDENTITY_FLOW, seed=seed)


def _run_bytes(run):
    """A log's saved bytes, or a coupled run's two logs and sigma."""
    if isinstance(run, EventLog):
        return _log_bytes(run)
    lo, lf, rec = run
    return _log_bytes(lo), _log_bytes(lf), rec.sigma.tobytes()


def _assert_batch_equals_one_seed_runs(a, seeds, engine, tagged=0):
    got = srp._run_seeds(a, seeds, engine,
                         flow=None if engine == "original" else IDENTITY_FLOW,
                         tagged=tagged)
    assert len(got) == len(seeds)
    for seed, run in zip(seeds, got):
        assert _run_bytes(run) == _run_bytes(_one_seed_run(a, seed, engine,
                                                           tagged))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batch_runs_equal_one_seed_runs(data):
    spec = BATCH_SPECS[data.draw(st.sampled_from(sorted(BATCH_SPECS)))]
    n = data.draw(st.integers(1, 40) | st.integers(1, 2000))
    seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                               max_size=6))
    engine = data.draw(st.sampled_from(["original", "flow", "coupled"]))
    tagged = data.draw(st.integers(0, min(n, 3))) if engine == "original" else 0
    _assert_batch_equals_one_seed_runs(assign_population(spec, n), seeds,
                                       engine, tagged)


@pytest.mark.parametrize("engine", ["original", "flow", "coupled"])
def test_batch_with_empty_runs_equals_one_seed_runs(engine):
    # at rate 0.3 one particle draws no candidate in about 3 seeds of 4
    a = assign_population(constant_single_spec(0.3), 1)
    sizes = [len(srp._candidates(a, 1.0, seed, 0)[0]) for seed in range(12)]
    assert 0 in sizes and max(sizes) > 0
    _assert_batch_equals_one_seed_runs(a, list(range(12)), engine)
    _assert_batch_equals_one_seed_runs(assign_population(zero_rate_spec(), 30),
                                       [4, 0, 9], engine)


def _batch_stream(a, lengths):
    """Prefixes of the streams of seeds 0, 1, ..., ``lengths[s]`` candidates
    of seed s, each a run of one assignment, laid one after another."""
    runs = []
    for seed, k in enumerate(lengths):
        times, ids, marks, _ = srp._candidates(a, 1.0, seed, 0)
        assert len(times) >= k
        runs.append((times[:k], ids[:k], marks[:k]))
    return runs, [np.concatenate(parts) for parts in zip(*runs)]


# with windows of 40, runs 0-2 and 4-5 share a window each, and run 3 is
# windowed alone across five
LENGTHS = [5, 0, 30, 200, 7, 12, 41]


@pytest.mark.parametrize("name", sorted(BATCH_SPECS))
def test_batch_passes_with_a_run_longer_than_the_window(name, monkeypatch):
    monkeypatch.setattr(srp, "_window", lambda n: 40)
    assert srp._groups(LENGTHS, 40) == [(0, 3), (3, 4), (4, 6), (6, 7)]
    a = assign_population(BATCH_SPECS[name], 1000)
    runs, (times, ids, marks) = _batch_stream(a, LENGTHS)
    edges = np.r_[0, np.cumsum(LENGTHS)]
    for batch_pass, one_pass in (
            (lambda *s: srp._original_pass(a, times, ids, marks, *s),
             lambda run: srp._original_pass(a, *run)),
            (lambda *s: srp._flow_pass(a, IDENTITY_FLOW, times, ids, marks, *s),
             lambda run: srp._flow_pass(a, IDENTITY_FLOW, *run))):
        accepted, pre, _ = batch_pass(LENGTHS)
        shares = np.r_[0, np.cumsum(accepted)][edges]
        for s, run in enumerate(runs):
            want = one_pass(run)
            assert accepted[edges[s]:edges[s + 1]].tobytes() == want[0].tobytes()
            assert pre[shares[s]:shares[s + 1]].tobytes() == want[1].tobytes()
        # the batch of one run is the pass without sizes
        one = batch_pass([len(times)])
        whole = batch_pass()
        assert one[0].tobytes() == whole[0].tobytes()
        assert one[1].tobytes() == whole[1].tobytes()


@pytest.mark.parametrize("engine", ["original", "flow", "coupled"])
def test_batch_runs_across_windows_equal_one_seed_runs(engine, monkeypatch):
    # in windows of 21, seeds 1 and 3 share one, and seed 2 crosses two
    monkeypatch.setattr(srp, "_window", lambda n: 21)
    a = assign_population(BATCH_SPECS["affine_0_5_5_0"], 4)
    seeds = [1, 3, 2, 10, 0]
    sizes = [len(srp._candidates(a, 1.0, seed, 0)[0]) for seed in seeds]
    assert sizes == [11, 9, 22, 13, 20]
    assert srp._groups(sizes, 21) == [(0, 2), (2, 3), (3, 4), (4, 5)]
    _assert_batch_equals_one_seed_runs(a, seeds, engine)


def test_batch_coupling_records_carry_the_compensator_of_one_seed_runs(
        monkeypatch):
    # the windows of test_batch_runs_across_windows_equal_one_seed_runs:
    # seeds 1 and 3 share one, and seed 2 crosses two
    monkeypatch.setattr(srp, "_window", lambda n: 21)
    a = assign_population(BATCH_SPECS["affine_0_5_5_0"], 4)
    seeds = [1, 3, 2, 10, 0]
    got = srp._run_seeds(a, seeds, "coupled", flow=IDENTITY_FLOW)
    splits = 0
    for seed, (_, _, rec) in zip(seeds, got):
        alone = simulate_coupled(a, IDENTITY_FLOW, seed=seed)[2]
        count, comp = split_and_compensator(a, IDENTITY_FLOW, seed)
        assert int(np.count_nonzero(np.isfinite(rec.sigma))) == count
        assert (np.float64(rec.compensator).tobytes()
                == np.float64(alone.compensator).tobytes()
                == np.float64(comp).tobytes())
        splits += count
    assert splits > 0


def test_batch_coupling_compensator_is_zero_on_constant_rates():
    # a constant rate reads the same hazard at every position, so no pair
    # splits and no candidate has a chance to split one
    a = assign_population(load_spec(ROOT / "configs" / "constant_mixture.json"),
                          200)
    sol = solve_y_c(a.spec, n_z=20, n_t=50)
    for _, _, rec in srp._run_seeds(a, range(6), "coupled", flow=sol.flow):
        assert rec.compensator == 0.0 and np.isinf(rec.sigma).all()


@pytest.mark.parametrize("engine", ["original", "flow", "coupled"])
def test_batch_whole_runs_share_the_full_window(engine):
    # at N = 1600 a run has about 2.1k candidates, so seven whole runs share
    # one window of _window(N), and each run's count walks its own levels
    a = assign_population(BATCH_SPECS["affine"], 1600)
    seeds = list(range(7))
    sizes = [len(srp._candidates(a, 1.0, seed, 0)[0]) for seed in seeds]
    assert srp._groups(sizes, srp._window(a.n)) == [(0, 7)]
    _assert_batch_equals_one_seed_runs(a, seeds, engine)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batch_mtf_ranks_equal_per_system_calls(data):
    n = data.draw(st.integers(1, 40))
    systems = []
    for _ in range(data.draw(st.integers(1, 5))):
        slots = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        top = data.draw(st.integers(0, n - 1))
        ids = np.array(data.draw(st.lists(st.integers(0, top), max_size=60)),
                       dtype=np.int64)
        accepted = np.array(data.draw(st.lists(
            st.booleans(), min_size=len(ids), max_size=len(ids))), dtype=bool)
        systems.append((slots, ids, accepted))
    k = len(systems)
    sizes = [len(ids) for _, ids, _ in systems]
    slots = np.concatenate([s[0] for s in systems])
    ids = np.concatenate([s[1] + n * j for j, s in enumerate(systems)])
    accepted = np.concatenate([s[2] for s in systems])
    want = np.concatenate([srp._mtf_ranks(*s) for s in systems]
                          + [np.empty(0, dtype=np.int64)])
    grouped = srp._by_particle(ids, k * n, sizes)
    got = srp._mtf_ranks(slots, ids, accepted, grouped=grouped)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    at = np.flatnonzero(np.array(data.draw(st.lists(
        st.booleans(), min_size=len(ids), max_size=len(ids))), dtype=bool))
    assert np.array_equal(srp._mtf_ranks(slots, ids, accepted, at, grouped),
                          want[at])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mtf_and_reset_ranks_equal_on_int32_and_int64_lanes(data):
    # a batch of one to four runs of n particles; a run alone is the batch
    # of one, and the reset-point identity takes one run's slots
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 4))
    runs = []
    for _ in range(k):
        top = data.draw(st.integers(0, n - 1))
        ids = np.array(data.draw(st.lists(st.integers(0, top), max_size=60)),
                       dtype=np.int64)
        accepted = np.array(data.draw(st.lists(
            st.booleans(), min_size=len(ids), max_size=len(ids))), dtype=bool)
        runs.append((np.array(data.draw(st.permutations(range(n))),
                              dtype=np.int64), ids, accepted))
    slots = np.concatenate([r[0] for r in runs])
    ids = np.concatenate([r[1] + n * j for j, r in enumerate(runs)])
    accepted = np.concatenate([r[2] for r in runs])
    grouped = srp._by_particle(ids, k * n, [len(r[1]) for r in runs])

    def lanes():
        """(mtf ranks, next slots and reset ranks of each run) from int64
        and int32 slots."""
        out = []
        for dtype in (np.int64, np.int32):
            got = [srp._mtf_ranks(slots.astype(dtype), ids, accepted,
                                  grouped=grouped)]
            for run_slots, run_ids, run_acc in runs:
                s = run_slots.astype(dtype)
                nxt = srp._next_slots(s, run_ids, run_acc,
                                      srp._by_particle(run_ids, n))
                movers = np.unique(run_ids[run_acc])
                reset = srp._reset_ranks(s, movers)
                assert nxt.dtype == reset.dtype == dtype
                got += [nxt, reset]
            assert got[0].dtype == np.int64
            out.append(got)
        return out

    narrow = lanes()
    # the whole path on int64 lanes, as before the lanes were chosen
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(srp, "_lane", lambda top: np.int64)
        wide = lanes()
    for got in narrow + wide:
        assert all(np.array_equal(a, b) for a, b in zip(got, wide[0]))


@pytest.mark.parametrize("engine", ["original", "flow", "coupled"])
def test_engine_arrays_keep_dtypes_and_bytes_on_either_lane(engine):
    a = assign_population(affine_two_class_spec(), 300)
    seeds = [0, 1, 2]

    def arrays():
        """Every array of the runs of ``seeds``, one run alone and in a
        batch."""
        runs = [_one_seed_run(a, seeds[0], engine)]
        runs += srp._run_seeds(a, seeds, engine, IDENTITY_FLOW)
        out = []
        for run in runs:
            for log in run[:2] if engine == "coupled" else [run]:
                out += [log.times, log.particles, log.pre_positions]
            if engine == "coupled":
                out.append(run[2].sigma)
        return out

    narrow = arrays()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(srp, "_lane", lambda top: np.int64)
        wide = arrays()
    # times, particles and positions per log, then sigma per coupled run
    want = [np.float64, np.int64, np.float64] * 2 + [np.float64]
    dtypes = [x.dtype for x in narrow]
    assert dtypes == (want if engine == "coupled" else want[:3]) * 4
    assert [x.tobytes() for x in narrow] == [x.tobytes() for x in wide]


class LyingFront(TableField):
    """Declares a sup-norm that only slots near the front exceed, where a
    flow-driven particle reads its hazard after its first jump on the
    identity flow."""

    def __init__(self):
        super().__init__([[3, 3], [1, 1], [1, 1], [1, 1], [1, 1]], 1.0)
        self.sup_norm = 2.9


def _serial_breach(a, seeds, engine):
    """The message of the first breach a loop over the seeds meets."""
    with pytest.raises(EnvelopeBreach) as exc:
        for seed in seeds:
            _one_seed_run(a, seed, engine)
    return str(exc.value)


@pytest.mark.parametrize("field, n, seeds", [
    # every seed breaches, seed 2 later in time than seed 0 in both models
    (LyingSpike, 200, [2, 0, 4]),
    # seed 21 breaches in the flow-driven model alone, seed 0 in both
    (LyingFront, 10, [21, 0]),
    # one particle at an envelope of 0.5: the seeds without a candidate
    # do not breach
    (Lying, 1, [1, 3, 0, 2])])
@pytest.mark.parametrize("engine", ["original", "flow", "coupled"])
def test_batch_breach_is_the_seed_loop_first(field, n, seeds, engine):
    a = assign_population(uniform_single_class(field()), n)
    want = _serial_breach(a, seeds, engine)
    with pytest.raises(EnvelopeBreach) as got:
        srp._run_seeds(a, seeds, engine, flow=IDENTITY_FLOW)
    assert str(got.value) == want


def _flow_thinning_calls(monkeypatch):
    """The run sizes of every ``_thin_along_flow`` call of the engines."""
    calls = []
    thin = srp._thin_along_flow

    def counting(*args):
        calls.append(list(args[-1]))
        return thin(*args)

    monkeypatch.setattr(srp, "_thin_along_flow", counting)
    return calls


@pytest.mark.parametrize("engine", ["original", "flow"])
def test_batch_pass_breach_is_the_lowest_run_first(engine, monkeypatch):
    # seed 2 breaches later in time than seeds 0 and 1; the original pass
    # windows the runs apart at a width of 600 candidates and packs them
    # at 2^14, and the flow pass thins all three in one call at any width
    a = assign_population(uniform_single_class(LyingSpike()), 200)
    runs = [srp._candidates(a, 1.0, seed, 0)[:3] for seed in (2, 0, 1)]
    one_pass = (srp._original_pass if engine == "original" else
                lambda a, *run: srp._flow_pass(a, IDENTITY_FLOW, *run))
    with pytest.raises(EnvelopeBreach) as want:
        one_pass(a, *runs[0])
    times, ids, marks = (np.concatenate(parts) for parts in zip(*runs))
    sizes = [len(run[0]) for run in runs]
    assert sum(sizes) > 600
    calls = _flow_thinning_calls(monkeypatch)
    for width in (600, 1 << 14):
        monkeypatch.setattr(srp, "_window", lambda n: width)
        calls.clear()
        with pytest.raises(EnvelopeBreach) as got:
            one_pass(a, times, ids, marks, sizes)
        assert str(got.value) == str(want.value)
        assert calls == ([sizes] if engine == "flow" else [])


@pytest.mark.parametrize("engine", ["flow", "coupled"])
def test_flow_pass_thins_a_batch_in_one_call(engine, monkeypatch):
    # twelve runs of about 2.1k candidates exceed _window(1600) = 2^14
    # together, and the flow pass still thins them in one call, each run
    # with the bytes of its one-seed run
    a = assign_population(BATCH_SPECS["affine"], 1600)
    seeds = list(range(12))
    sizes = [len(srp._candidates(a, 1.0, seed, 0)[0]) for seed in seeds]
    assert sum(sizes) > srp._window(a.n)
    calls = _flow_thinning_calls(monkeypatch)
    got = srp._run_seeds(a, seeds, engine, flow=IDENTITY_FLOW)
    assert calls == [sizes]
    for seed, run in zip(seeds, got):
        assert _run_bytes(run) == _run_bytes(_one_seed_run(a, seed, engine))


@pytest.mark.parametrize("tagged", [True, False, 1.0, np.float64(2.0), "1"])
def test_tagged_count_must_be_an_integer(tagged):
    a = assign_population(constant_mixture_spec(), 20)
    with pytest.raises(ConfigError, match="^tagged: must be an integer"):
        simulate(a, seed=0, tagged=tagged)


@pytest.mark.parametrize("tagged", [-1, 21])
def test_tagged_count_must_fit_the_population(tagged):
    a = assign_population(constant_mixture_spec(), 20)
    with pytest.raises(ConfigError, match="^tagged: "):
        simulate(a, seed=0, tagged=tagged)


@pytest.mark.parametrize("seed", [True, -1, 2 ** 32, 1.0])
def test_batch_refuses_a_bad_seed_before_any_run(seed, monkeypatch):
    def drawn(*args):
        raise AssertionError("a candidate stream was drawn")
    monkeypatch.setattr(srp, "_candidates", drawn)
    a = assign_population(constant_mixture_spec(), 20)
    with pytest.raises(ConfigError, match="^seed: "):
        srp._run_seeds(a, [0, seed], "original")
