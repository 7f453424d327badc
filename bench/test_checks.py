"""Each benchmark check passes a right input and rejects a wrong one.

    python3 -m pytest bench/test_checks.py
"""

import math

import numpy as np

import checks


def _mtf_log(n=30, events=200, seed=0):
    """Naive move-to-front run: initial slots, jumpers, pre-jump positions."""
    rng = np.random.default_rng(seed)
    slots0 = rng.permutation(n)
    order = [int(i) for i in np.argsort(slots0)]
    particles = rng.integers(0, n, size=events)
    pre = []
    for i in particles.tolist():
        pre.append(order.index(i) / n)
        order.remove(i)
        order.insert(0, i)
    return slots0, particles, np.array(pre)


def _unit_flow(n_z=4, n_t=20, horizon=1.0, shift=0.0):
    z = np.arange(n_z + 1) / n_z
    t = np.arange(n_t + 1) * horizon / n_t
    init = 1 - (1 - z)[:, None] * np.exp(-t)[None, :]
    lag = np.clip(t[None, :] - t[:, None], 0.0, None)
    bdry = np.triu(1 - np.exp(-lag))
    return init + shift, bdry + np.triu(np.full(bdry.shape, shift))


def test_events_equal_candidates():
    assert checks.events_equal_candidates("c", 100, 100) == []
    assert checks.events_equal_candidates("c", 100, 101)
    assert checks.events_equal_candidates("c", 101, 100)


def test_poisson_count():
    assert checks.poisson_count("p", 10_000, 10_000.0) == []
    assert checks.poisson_count("p", 10_000 + 499, 10_000.0) == []
    assert checks.poisson_count("p", 10_000 + 501, 10_000.0)


def test_arrays_byte_equal():
    t = np.array([0.1, 0.2, 0.3])
    p = np.array([4, 5, 6])
    assert checks.arrays_byte_equal("b", (t, p), (t.copy(), p.copy())) == []
    swapped = p[[1, 0, 2]]
    assert checks.arrays_byte_equal("b", (t, p), (t, swapped))
    assert checks.arrays_byte_equal("b", (t, p), (t, p.astype(np.int32)))
    assert checks.arrays_byte_equal("b", (t, p), (t,))


def test_mtf_pre_positions_accepts_naive_run():
    slots0, particles, pre = _mtf_log()
    every = np.arange(len(particles))
    assert checks.mtf_pre_positions("m", slots0, particles, pre, every) == []


def test_mtf_pre_positions_rejects_swapped_events():
    slots0, particles, pre = _mtf_log()
    k = int(np.flatnonzero(particles[1:] != particles[:-1])[5])
    bad = particles.copy()
    bad[[k, k + 1]] = bad[[k + 1, k]]
    every = np.arange(len(particles))
    assert checks.mtf_pre_positions("m", slots0, bad, pre, every)


def test_mtf_pre_positions_rejects_off_by_one_slot():
    slots0, particles, pre = _mtf_log()
    bad = pre.copy()
    bad[17] += 1 / len(slots0)
    assert checks.mtf_pre_positions("m", slots0, particles, bad, [17])


def test_flow_shape():
    init, bdry = _unit_flow()
    assert checks.flow_shape("f", init, bdry) == []
    shifted_init, shifted_bdry = _unit_flow(shift=1e-3)
    assert checks.flow_shape("f", shifted_init, bdry)
    assert checks.flow_shape("f", init, shifted_bdry)
    dip = init.copy()
    dip[2, 7] = dip[2, 6] - 1e-3
    assert checks.flow_shape("f", dip, bdry)
    late = bdry.copy()
    late[5, 9] = bdry[4, 9] + 1e-3
    assert checks.flow_shape("f", init, late)
    assert checks.flow_shape("f", np.clip(init * 1.5, 0, None), bdry)


def test_flow_closed_form():
    init, bdry = _unit_flow()
    assert checks.flow_closed_form("f", init, bdry, 1.0, [1.0], [1.0], 1e-12) == []
    s_init, s_bdry = _unit_flow(shift=1e-3)
    assert checks.flow_closed_form("f", s_init, bdry, 1.0, [1.0], [1.0], 6e-5)
    assert checks.flow_closed_form("f", init, s_bdry, 1.0, [1.0], [1.0], 6e-5)
    # a mixture is not the unit-rate flow
    assert checks.flow_closed_form("f", init, bdry, 1.0, [0.7, 2.0], [0.5, 0.5], 6e-5)


def test_survival_closed_form():
    grid = np.linspace(0.0, 1.0, 11)
    p = np.triu(np.exp(-2.0 * np.clip(grid[None, :] - grid[:, None], 0, None)))
    assert checks.survival_closed_form("s", p, grid, 2.0, 1e-12) == []
    assert checks.survival_closed_form("s", p + 1e-3, grid, 2.0, 1e-4)
    assert checks.survival_closed_form("s", np.triu(np.ones_like(p)), grid, 0.0, 0.0) == []


def test_close_within():
    assert checks.close_within("c", [1.0, 2.0], [1.0, 2.0 + 1e-6], 1e-5) == []
    assert checks.close_within("c", [1.0, 2.0], [1.0, 2.0 + 1e-4], 1e-5)


def test_monte_carlo_agrees():
    p = np.array([0.2, 0.5, 0.9])
    n = 10_000
    se = np.sqrt(p * (1 - p) / n)
    assert checks.monte_carlo_agrees("m", p + 3.9 * se, p, n) == []
    assert checks.monte_carlo_agrees("m", p + 4.1 * se, p, n)
    assert checks.monte_carlo_agrees("m", p + 4.1 * se, p, n, z=5.0) == []


def test_zero_checks():
    assert checks.is_zero("z", 0) == []
    assert checks.is_zero("z", 1)
    assert checks.all_zero("z", [0.0, 0.0]) == []
    assert checks.all_zero("z", [0.0, 1 / 400])


def test_sweep_drop():
    rng = np.random.default_rng(0)
    rows = [(n, s, 1 / math.sqrt(n) + 0.001 * rng.standard_normal())
            for n in (100, 400, 1600) for s in range(20)]
    assert checks.sweep_drop("d", rows, 100, 1600) == []
    flat = [(n, s, 0.05 + 0.01 * rng.standard_normal())
            for n in (100, 400, 1600) for s in range(20)]
    assert checks.sweep_drop("d", flat, 100, 1600)
