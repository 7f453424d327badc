"""Acceptance criteria, one test per criterion, and three for the first.

Each test prints a single [criterion k] PASS line (run pytest with -s to see
them live).  Tolerances are pinned here, not calibrated elsewhere:

  1 exact combinatorial identities and the pathwise coupling bound, zero
    tolerance, and the coupling's compensator, |z| <= 4
  2 closed-form limit flows within 10 (dt^2 + tol)
  3 point-process three-way agreement (series / Volterra / Monte Carlo)
  4 hydrodynamic convergence: decreasing sup distances, slope <= -0.3
  5 flow-driven LLN plus uniqueness of the fixed point
  6 coupling decay
  7 tagged particles under shared streams
  8 engine oracles (CTMC occupancy, order-statistic index, reproducibility)

Beside the criteria, three gates measure the steps of the claim's proof,
each through its ``rankflow.harness`` routine:

  identification   each seed's eps_hat (``identify_rates``): a mean within
                   4 SE of 0, for a scale and a tilt of the affine spec and
                   a scale of the steep one
  forced fixed     theta* (``forced_fixed_point``): closer to the original
    point          run than the flow-driven run is, on the steep spec; on
                   w = 20y, the original engine's variance within 10% of
                   theta*'s and above 1.15x the flow-driven engine's
  compensator      the coupling's splits minus their compensator
                   (``coupling_compensator``, criterion 1): |z| <= 4

Each routine's per-seed output on a gate's own seeds equals, byte for
byte, the gate's former inline computation, kept in ``tests/oracles.py``
(the ``*_is_its_oracle_on_the_gate_seeds`` tests).
"""

import functools
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (RANK_FEEDBACK_SPEC, STEEP_SPECS, affine_two_class_spec,
                      constant_mixture_spec, zero_rate_spec)
from oracles import (NaiveRankIndex, config_eps_hat, split_and_compensator,
                     triu_forced_fixed_point)
from rankflow import (EvaluationLattice, FlowGrid, LogEvaluator, RankIndex,
                      TestFunction, assign_population, initial, simulate,
                      simulate_coupled, simulate_flow_driven, solve_y_c,
                      spec_from_config, srp)
from rankflow.harness import (ExperimentPlan, convergence_sweep,
                              coupling_compensator, coupling_sweep,
                              flow_driven_sweep, forced_fixed_point,
                              identify_rates, latp_validation, tagged_compare)

ROOT = Path(__file__).resolve().parents[1]


def report(k, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {k} runtime {elapsed:.1f}s over budget"
    print(f"[criterion {k}] PASS ({elapsed:.1f}s): {detail}")


def test_criterion_1_exact_identities(spec_affine, lattice):
    start = time.time()
    ident = FlowGrid.identity(1.0, 20, 200)
    runs = 0
    for n in (1, 2, 10, 100, 1000):
        assignment = assign_population(spec_affine, n)
        for seed in range(5):
            for log in (simulate(assignment, seed=seed),
                        simulate_flow_driven(assignment, ident, seed=seed)):
                ev = LogEvaluator(log)
                assert ev.identity_gap(lattice) == 0
                assert ev.flow_identity_gap(lattice.times) == 0
                runs += 1
    assignment = assign_population(spec_affine, 100_000)
    for log in (simulate(assignment, seed=0),
                simulate_flow_driven(assignment, ident, seed=0)):
        ev = LogEvaluator(log)
        assert ev.identity_gap(lattice) == 0
        assert ev.flow_identity_gap(lattice.times) == 0
        runs += 1
    report(1, time.time() - start, 60,
           f"curve/phi and reset-point identities exact on {runs} runs, "
           f"N up to 100000, zero tolerance")


def test_criterion_1_pathwise_coupling_bound(spec_affine, sol_affine, lattice):
    # a coupled particle's rank counts the particles that jumped after its
    # last jump, and before its first the non-jumpers ahead of it too;
    # coupled particles count the same in both models, and each decoupled
    # one moves the count by at most one
    start = time.time()
    sols = {"affine": sol_affine}
    for name, cfg in STEEP_SPECS.items():
        sols[name] = solve_y_c(spec_from_config(cfg), n_z=20, n_t=200)
    times = sorted({*lattice.times, 1.0})
    checks = attained = 0
    for name, sol in sols.items():
        for n in (10, 100, 1000, 10_000):
            assignment = assign_population(sol.spec, n)
            for seed in range(5):
                orig, fl, rec = simulate_coupled(assignment, sol.flow, seed=seed)
                ev_orig, ev_flow = LogEvaluator(orig), LogEvaluator(fl)
                for t in times:
                    coupled = rec.sigma > t
                    bound = n - int(np.count_nonzero(coupled))
                    gap = np.rint(np.abs(ev_orig.positions_at(t)
                                         - ev_flow.positions_at(t)) * n)
                    worst = int(np.max(gap[coupled], initial=0))
                    assert worst <= bound, (name, n, seed, t, worst, bound)
                    checks += 1
                    attained += bound > 0 and worst == bound
    assert attained > 0  # the bound is sharp on these runs
    report(1, time.time() - start, 60,
           f"|rank_orig - rank_flow| <= #decoupled at {checks} (run, time) "
           f"pairs on {len(sols)} specs, attained at {attained}")


# the compensator gate's specs and sizes, and each one's (solution, N,
# splits, compensator) over its 200 seeds, shared with the oracle test
COMPENSATOR_CASES = {
    "affine": (affine_two_class_spec(), 2 ** 12),
    "steep": (spec_from_config(STEEP_SPECS["affine_0_5_5_0"]), 2 ** 10),
}


@functools.cache
def _compensator(name):
    spec, n = COMPENSATOR_CASES[name]
    sol = solve_y_c(spec, n_z=20, n_t=200)
    return (sol, n, *coupling_compensator(sol, n, 200))


def test_criterion_1_coupling_compensator():
    # the number of split pairs minus its compensator is a mean-zero
    # martingale: while a pair is coupled its candidate splits it with
    # chance |h_orig - h_flow| / envelope; the z of the mean over 200
    # seeds stays within 4, and a compensator 25% too large reads |z| > 8
    start = time.time()
    details = []
    for name in COMPENSATOR_CASES:
        sol, n, splits, comp = _compensator(name)
        records = [rec for _, _, rec in srp._run_seeds(
            assign_population(sol.spec, n), range(len(splits)), "coupled",
            flow=sol.flow)]
        assert splits.tolist() == [int(np.count_nonzero(r.sigma <= r.horizon))
                                   for r in records]
        z = {}
        for scale in (1.0, 1.25):
            gap = splits - scale * comp
            z[scale] = gap.mean() / (gap.std(ddof=1) / math.sqrt(len(gap)))
        assert abs(z[1.0]) <= 4.0, (name, z)
        assert abs(z[1.25]) > 8.0, (name, z)
        details.append(f"{name} N={n}: z {z[1.0]:+.2f}, x1.25 {z[1.25]:+.1f}, "
                       f"mean splits {splits.mean():.1f}")
    report(1, time.time() - start, 60,
           f"coupling compensator over {len(splits)} seeds: "
           + "; ".join(details))


@pytest.mark.parametrize("name", list(COMPENSATOR_CASES))
def test_coupling_compensator_is_its_oracle_on_the_gate_seeds(name):
    sol, n, splits, comp = _compensator(name)
    assignment = assign_population(sol.spec, n)
    want = [split_and_compensator(assignment, sol.flow, seed)
            for seed in range(len(splits))]
    assert splits.tolist() == [s for s, _ in want]
    assert comp.tobytes() == np.array([c for _, c in want]).tobytes()


# the specs of the identification gate
IDENT_SPECS = {
    "affine": json.loads((ROOT / "configs" / "affine_two_class.json").read_text()),
    "steep": STEEP_SPECS["affine_0_5_5_0"],
}

# each family's eps grid, 33 points: a tilt is identified about 4x more
# weakly than a scale, and at [-0.08, 0.08] 3 of 40 seeds' argmins sat on
# an edge; the steep tilt is not formed, as class 0 would be negative at
# y = 0 for eps > 0
IDENT_GRIDS = {
    "scale": np.linspace(-0.08, 0.08, 33),
    "tilt": np.linspace(-0.24, 0.24, 33),
}
IDENT_CASES = [("affine", "scale"), ("affine", "tilt"), ("steep", "scale")]


@functools.cache
def _eps_hat(name, family):
    # each seed's eps_hat from 40 runs of the original engine at N = 2**14
    return identify_rates(spec_from_config(IDENT_SPECS[name]), 2 ** 14, 40,
                          family, IDENT_GRIDS[family])


@pytest.mark.parametrize("name, family", IDENT_CASES)
def test_rates_are_identified_from_the_logs(name, family):
    # each seed's eps_hat (harness.identify_rates) is the argmin over eps
    # of the mean square gap between its phi^N and the limit y_C^eps of the
    # spec moved by eps, refined by a parabola through the argmin and its
    # neighbours; logs that converge to y_C give a mean eps_hat within 4 SE
    # of 0
    start = time.time()
    eps_hat = _eps_hat(name, family)
    mean, sd = eps_hat.mean(), eps_hat.std(ddof=1)
    se = sd / math.sqrt(len(eps_hat))
    assert abs(mean) <= 4 * se, (mean, se)
    print(f"[identification] {name} {family}: mean eps_hat {mean:+.5f} "
          f"+- {se:.5f}, sqrt(N) sd {math.sqrt(2 ** 14) * sd:.3f} "
          f"({time.time() - start:.1f}s)")


@pytest.mark.parametrize("name, family", IDENT_CASES)
def test_identify_rates_is_its_oracle_on_the_gate_seeds(name, family):
    want = config_eps_hat(IDENT_SPECS[name], 2 ** 14, 40, family,
                          IDENT_GRIDS[family])
    assert _eps_hat(name, family).tobytes() == want.tobytes()


@functools.cache
def _forced_steep():
    # the steep spec's coupled batch of 40 seeds at N = 2**14 on the
    # 20 x 100 grid
    spec = spec_from_config(STEEP_SPECS["affine_0_5_5_0"])
    return forced_fixed_point(solve_y_c(spec, n_z=20, n_t=100), 2 ** 14, 40)


def test_forced_fixed_point_predicts_the_original_engine():
    # the original run is the flow-driven run on the same candidates pushed
    # through the fixed-point map: with e = Y_flow - y_C at the grid nodes,
    # theta* = Phi(theta*) + e, and on the steep spec sqrt(N)(Y_orig -
    # theta*) is well below sqrt(N)(Y_orig - Y_flow); the lattice is every
    # grid pair
    start = time.time()
    fp = _forced_steep()
    to_theta, to_flow = (
        math.sqrt(2 ** 14) * np.sqrt(np.mean((fp.original - y) ** 2, axis=1))
        for y in (fp.theta, fp.driven))
    got, ref = np.mean(to_theta), np.mean(to_flow)
    assert got < 0.75 * ref, (got, ref)
    print(f"[forced fixed point] steep: sqrt(N) RMS Y_orig - theta* {got:.4f} "
          f"against Y_orig - Y_flow {ref:.4f} ({time.time() - start:.1f}s)")


def test_forced_fixed_point_is_its_oracle_on_the_gate_seeds():
    fp = _forced_steep()
    want = triu_forced_fixed_point(
        spec_from_config(STEEP_SPECS["affine_0_5_5_0"]), 2 ** 14, 100, 40)
    got = (fp.y_c, fp.original, fp.driven, fp.theta)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_forced_fixed_point_predicts_the_rank_feedback():
    # on one class with w = 20y the rank feedback shows: the original
    # engine's N x variance over 40 seeds at N = 2**12, averaged over the
    # 7171 pairs of the 20 x 100 grid, lies 25% above the flow-driven
    # (auxiliary) engine's, and theta*, which reads only the auxiliary
    # run, predicts it within 10%
    start = time.time()
    n = 2 ** 12
    sol = solve_y_c(spec_from_config(RANK_FEEDBACK_SPEC), n_z=20, n_t=100)
    fp = forced_fixed_point(sol, n, 40)
    pairs = list(EvaluationLattice.grid(sol.flow).pairs())
    assert fp.theta.shape == (40, len(pairs)) == (40, 7171)
    orig, theta, aux = (n * float(np.var(y, axis=0, ddof=1).mean())
                        for y in (fp.original, fp.theta, fp.driven))
    assert abs(orig - theta) <= 0.10 * theta, (orig, theta)
    assert orig > 1.15 * aux, (orig, aux)
    print(f"[forced fixed point] w = 20y: mean N var original {orig:.4f}, "
          f"theta* {theta:.4f}, auxiliary {aux:.4f} "
          f"({time.time() - start:.1f}s)")


def test_criterion_2_closed_form_limit(sol_const1, sol_mixture, spec_mixture):
    start = time.time()
    tol = 10 * ((1 / 200) ** 2 + 1e-8)
    worst = 0.0
    for sol, rates, wts in (
            (sol_const1, [1.0], [1.0]),
            (sol_mixture, [c.field.sup_norm for c in spec_mixture.classes],
             [c.weight for c in spec_mixture.classes])):
        fl = sol.flow
        for jz, z in enumerate(fl.z_nodes):
            want = 1 - (1 - z) * sum(
                p * np.exp(-c * fl.t_nodes) for p, c in zip(wts, rates))
            worst = max(worst, float(np.max(np.abs(fl.init_values[jz] - want))))
        for l in range(fl.n_t + 1):
            el = fl.t_nodes[l:] - fl.t_nodes[l]
            want = 1 - sum(p * np.exp(-c * el) for p, c in zip(wts, rates))
            worst = max(worst, float(np.max(np.abs(fl.bdry_values[l, l:] - want))))
    spot = sol_const1.flow.theta(initial(0.5), 1.0)
    assert abs(spot - (1 - 0.5 * math.exp(-1.0))) <= tol
    assert worst <= tol
    report(2, time.time() - start, 30,
           f"worst grid-node error {worst:.2e} <= {tol:.2e} "
           f"(both constant populations, every node)")


def test_criterion_3_point_process_three_way():
    start = time.time()
    rep = latp_validation(step=1 / 400, replicas=10_000, seed=0)
    for row in rep.rows:
        assert row.series_gap <= row.series_tol, row
        assert row.mc_max_z <= 4.0, row
        assert row.deriv_violation <= row.deriv_tol, row
    detail = ", ".join(f"{r.label}: series {r.series_gap:.1e} mc_z {r.mc_max_z:.2f}"
                       for r in rep.rows)
    report(3, time.time() - start, 120, detail)


def test_criterion_4_hydrodynamic_convergence(spec_affine, sol_affine):
    start = time.time()
    plan = ExperimentPlan(
        spec=spec_affine, n_values=(100, 400, 1600, 6400), seeds=20,
        test_functions=(TestFunction.ones(), TestFunction.indicator(0)))
    rep = convergence_sweep(plan, sol=sol_affine)
    details = []
    for h in plan.test_functions:
        m = rep.metric(f"sup_phi[{h.label()}]")
        slope, _ = m.slope_fit()
        assert m.strictly_decreasing(), m.means
        assert m.endpoint_drop() > 0, (m.means, m.stderrs)
        assert slope <= -0.3, slope
        details.append(f"{h.label()}: slope {slope:.2f}, "
                       f"means {['%.3f' % v for v in m.means]}")
    report(4, time.time() - start, 600, "; ".join(details))


def test_criterion_5_flow_driven_lln_uniqueness(spec_affine):
    start = time.time()
    ident = FlowGrid.identity(1.0, 20, 200)
    plan = ExperimentPlan(
        spec=spec_affine, n_values=(100, 400, 1600, 6400), seeds=20,
        test_functions=(TestFunction.ones(),))
    rep = flow_driven_sweep(plan, flow=ident)
    m_phi = rep.metric("sup_phi[h=1]")
    slope, _ = m_phi.slope_fit()
    assert m_phi.strictly_decreasing(), m_phi.means
    assert m_phi.endpoint_drop() > 0
    assert slope <= -0.3, slope
    m_curve = rep.metric("sup_curve_to_theta")
    floor = min(m_curve.means)
    assert floor > 0.1, m_curve.means           # bounded away from zero
    assert m_curve.endpoint_drop() <= 0, (m_curve.means, m_curve.stderrs)
    report(5, time.time() - start, 600,
           f"phi distance slope {slope:.2f} while curve-to-theta floor "
           f"{floor:.3f} persists (no drop beyond 2 pooled se)")


def test_criterion_6_coupling_decay(spec_affine, sol_affine, sol_mixture,
                                    spec_mixture):
    start = time.time()
    pi_plan = ExperimentPlan(spec=spec_mixture, n_values=(50, 200), seeds=5)
    pi_rep = coupling_sweep(pi_plan, sol=sol_mixture)
    assert all(v == 0.0 for _, _, v in pi_rep.metric("decoupled_fraction").rows)

    plan = ExperimentPlan(spec=spec_affine, n_values=(100, 400, 1600), seeds=20)
    rep = coupling_sweep(plan, sol=sol_affine)
    m = rep.metric("decoupled_fraction")
    assert m.strictly_decreasing(), m.means
    assert m.endpoint_drop() > 0, (m.means, m.stderrs)
    report(6, time.time() - start, 300,
           f"position-independent fraction exactly 0; affine fractions "
           f"{['%.4f' % v for v in m.means]} decreasing beyond 2 pooled se")


def test_criterion_7_tagged_particles(spec_mixture, sol_mixture):
    start = time.time()
    # zero-rate exactness: the gap is exactly the initial slot offset
    zspec = zero_rate_spec()
    zsol = solve_y_c(zspec, n_z=10, n_t=50)
    zplan = ExperimentPlan(spec=zspec, n_values=(25, 50), seeds=2)
    zrep = tagged_compare(zplan, pins=[(0, 0.3)], sol=zsol)
    for ti, n, _, v, _ in zrep.rows:
        slots = np.arange(n) / n
        nearest = slots[np.argmin(np.abs(slots - zrep.pins[ti][1]))]
        assert v == abs(nearest - zrep.pins[ti][1])

    plan = ExperimentPlan(spec=spec_mixture, n_values=(100, 400, 1600), seeds=20)
    rep = tagged_compare(plan, pins=[(0, 0.3), (1, 0.7)], sol=sol_mixture)
    for i in range(2):
        means = rep.sup_means(i)
        assert all(b < a for a, b in zip(means[:-1], means[1:])), means
    assert abs(rep.correlation) <= 4 * rep.correlation_se, rep.correlation
    report(7, time.time() - start, 300,
           f"sup gaps decrease over N for both tagged particles "
           f"({['%.4f' % v for v in rep.sup_means(0)]}); "
           f"correlation {rep.correlation:.3f} within 4 se")


def test_criterion_8_engine_oracles():
    start = time.time()
    # (a) two-particle top-slot occupancy vs the 2-state chain
    c1, c2, horizon, burn = 1.0, 2.0, 50.0, 10.0
    spec = constant_mixture_spec(rates=(c1, c2), weights=(0.5, 0.5),
                                 horizon=horizon)
    a = assign_population(spec, 2)
    reps = 10_000
    vals = np.empty(reps)
    for r in range(reps):
        log = simulate(a, seed=r)
        occupant = int(np.argmin(a.position))
        t_prev, acc = burn, 0.0
        for t, i in zip(log.times, log.particles):
            if t > burn:
                if a.class_index[occupant] == 0:
                    acc += t - t_prev
                t_prev = t
            occupant = int(i)
        if a.class_index[occupant] == 0:
            acc += horizon - t_prev
        vals[r] = acc / (horizon - burn)
    want = c1 / (c1 + c2)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - want) <= 3 * se, (vals.mean(), want, se)

    # (b) order-statistic index vs the naive array oracle
    rng = np.random.default_rng(42)
    n = 200
    fast = RankIndex(rng.permutation(n))
    naive = NaiveRankIndex(fast.ranks())
    for i, q in zip(rng.integers(0, n, 100_000).tolist(),
                    rng.integers(0, 2, 100_000).tolist()):
        if q:
            assert fast.rank(i) == naive.rank(i)
        else:
            fast.move_to_front(i)
            naive.move_to_front(i)
    assert np.array_equal(fast.ranks(), naive.ranks())

    # (c) byte reproducibility per seed
    spec_a = constant_mixture_spec()
    asg = assign_population(spec_a, 128)
    blobs = []
    for _ in range(2):
        buf = io.BytesIO()
        simulate(asg, seed=77).save(buf)
        blobs.append(buf.getvalue())
    assert blobs[0] == blobs[1]
    lo1, lf1, rec1 = simulate_coupled(asg, FlowGrid.identity(1.0, 10, 50), seed=5)
    lo2, lf2, rec2 = simulate_coupled(asg, FlowGrid.identity(1.0, 10, 50), seed=5)
    assert np.array_equal(rec1.sigma, rec2.sigma)
    assert np.array_equal(lo1.times, lo2.times)

    report(8, time.time() - start, 120,
           f"occupancy {vals.mean():.4f} vs {want:.4f} (3se = {3*se:.4f}); "
           f"index matches oracle over 1e5 ops; logs byte-stable")
