"""Correctness checks computed apart from the program.

Every check takes plain numbers or numpy arrays and returns a list of
failure messages (empty when the check passes).  None of them calls into
rankflow: positions are recomputed from the move-to-front rule with numpy,
flows and survival tables are compared with closed forms, and sweep
aggregates are recomputed from the report rows.
"""

from __future__ import annotations

import math

import numpy as np


def events_equal_candidates(label, n_events, n_candidates):
    """A constant field accepts every candidate."""
    if n_events != n_candidates:
        return [f"{label}: {n_events} events but {n_candidates} candidates "
                "(a constant field accepts every candidate)"]
    return []


def poisson_count(label, count, mean, sds=5.0):
    """A Poisson count lies within ``sds`` standard deviations of its mean."""
    if abs(count - mean) > sds * math.sqrt(mean):
        return [f"{label}: count {count} more than {sds:g} sd from mean {mean:g}"]
    return []


def arrays_byte_equal(label, left, right):
    """Two tuples of arrays agree in dtype, shape and bytes."""
    if len(left) != len(right):
        return [f"{label}: {len(left)} arrays against {len(right)}"]
    for k, (a, b) in enumerate(zip(left, right)):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return [f"{label}: array {k} differs"]
    return []


def mtf_pre_positions(label, slots0, particles, pre_positions, sample):
    """Pre-jump positions against the move-to-front reset-point rule.

    Before event e, a particle whose last jump was event L sits behind
    exactly the distinct particles that jumped in events L+1..e-1.  A
    particle that has not jumped yet sits at its initial slot plus the
    number of distinct particles from behind it that have jumped.
    """
    slots0 = np.asarray(slots0, dtype=np.int64)
    particles = np.asarray(particles, dtype=np.int64)
    pre_positions = np.asarray(pre_positions, dtype=float)
    n = len(slots0)
    for e in np.asarray(sample, dtype=np.int64).tolist():
        i = int(particles[e])
        earlier = np.flatnonzero(particles[:e] == i)
        if len(earlier):
            rank = len(np.unique(particles[earlier[-1] + 1:e]))
        else:
            jumped = np.unique(particles[:e])
            rank = int(slots0[i] + np.count_nonzero(slots0[jumped] > slots0[i]))
        got = pre_positions[e] * n
        if abs(got - rank) > 1e-6:
            return [f"{label}: event {e} of particle {i} at slot {got:.6g}, "
                    f"move-to-front rule gives {rank}"]
    return []


def flow_shape(label, init_values, bdry_values, tol=1e-9):
    """A flow grid lies in [0,1], starts at y0, and is monotone.

    Rows are non-decreasing in t; initial rows are non-decreasing in z;
    boundary curves started later lie below earlier ones and below the
    corner curve.
    """
    iv = np.asarray(init_values, dtype=float)
    bv = np.asarray(bdry_values, dtype=float)
    n_z = iv.shape[0] - 1
    upper = np.triu(np.ones(bv.shape, dtype=bool))
    out = []
    if not (np.all(np.isfinite(iv)) and np.all(np.isfinite(bv))):
        return [f"{label}: non-finite flow values"]
    if iv.min() < -tol or iv.max() > 1 + tol or bv[upper].min() < -tol \
            or bv[upper].max() > 1 + tol:
        out.append(f"{label}: flow leaves [0,1]")
    if np.max(np.abs(iv[:, 0] - np.arange(n_z + 1) / n_z)) > tol:
        out.append(f"{label}: initial curves do not start at their z")
    if np.max(np.abs(np.diag(bv))) > tol:
        out.append(f"{label}: boundary curves do not start at 0")
    if np.any(np.diff(iv, axis=1) < -tol):
        out.append(f"{label}: initial curve decreases in t")
    dt_b = np.diff(bv, axis=1)
    if np.any(dt_b[upper[:, 1:]] < -tol):
        out.append(f"{label}: boundary curve decreases in t")
    if np.any(np.diff(iv, axis=0) < -tol):
        out.append(f"{label}: initial curves not ordered in z")
    later_above = (np.diff(bv, axis=0) > tol) & upper[1:]
    above_corner = (bv - iv[0][None, :] > tol) & upper
    if np.any(later_above) or np.any(above_corner):
        out.append(f"{label}: boundary curves not ordered in their start")
    return out


def flow_closed_form(label, init_values, bdry_values, horizon, rates,
                     weights, tol):
    """A constant-rate mixture flow against its closed form at every node.

    Initial curves are 1 - (1-z) sum_k p_k e^{-c_k t}; boundary curves are
    1 - sum_k p_k e^{-c_k (t-s)}.
    """
    iv = np.asarray(init_values, dtype=float)
    bv = np.asarray(bdry_values, dtype=float)
    n_z, n_t = iv.shape[0] - 1, iv.shape[1] - 1
    z = np.arange(n_z + 1) / n_z
    t = np.arange(n_t + 1) * (horizon / n_t)
    decay = sum(p * np.exp(-c * t) for p, c in zip(weights, rates))
    want_init = 1.0 - (1.0 - z)[:, None] * decay[None, :]
    lag = np.clip(t[None, :] - t[:, None], 0.0, None)
    want_bdry = 1.0 - sum(p * np.exp(-c * lag) for p, c in zip(weights, rates))
    upper = np.triu(np.ones(bv.shape, dtype=bool))
    worst = max(float(np.max(np.abs(iv - want_init))),
                float(np.max(np.abs(bv - want_bdry)[upper])))
    if not worst <= tol:
        return [f"{label}: closed-form error {worst:.3e} above {tol:.3e}"]
    return []


def survival_closed_form(label, p, grid, rate, tol):
    """A constant kernel's no-arrival table equals e^{-c (t-s)}."""
    p = np.asarray(p, dtype=float)
    grid = np.asarray(grid, dtype=float)
    lag = grid[None, :] - grid[:, None]
    upper = np.triu(np.ones(p.shape, dtype=bool))
    err = np.abs(p - np.exp(-rate * np.clip(lag, 0.0, None)))[upper]
    worst = float(np.max(err))
    if not worst <= tol:
        return [f"{label}: survival table off e^(-c(t-s)) by {worst:.3e} "
                f"above {tol:.3e}"]
    return []


def close_within(label, values, reference, tol):
    """Values agree with a reference pointwise within tol."""
    gap = float(np.max(np.abs(np.asarray(values, dtype=float)
                              - np.asarray(reference, dtype=float))))
    if not gap <= tol:
        return [f"{label}: gap {gap:.3e} above {tol:.3e}"]
    return []


def monte_carlo_agrees(label, frequencies, probabilities, replicas, z=4.0):
    """Survival frequencies within z standard errors of the probabilities."""
    f = np.asarray(frequencies, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    se = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / replicas)
    worst = float(np.max(np.abs(f - p) / se))
    if not worst <= z:
        return [f"{label}: Monte Carlo {worst:.2f} standard errors off"]
    return []


def is_zero(label, value):
    if value != 0:
        return [f"{label}: expected exactly 0, got {value!r}"]
    return []


def sweep_drop(label, rows, n_small, n_large, z=2.0):
    """Mean over seeds falls from n_small to n_large by more than z pooled SEs.

    ``rows`` are (N, seed, value) triples as a sweep report stores them.
    """
    def stats(n):
        v = np.array([x for nn, _, x in rows if nn == n], dtype=float)
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))

    m0, s0 = stats(n_small)
    m1, s1 = stats(n_large)
    pooled = math.sqrt(s0 ** 2 + s1 ** 2)
    if not m0 - m1 > z * pooled:
        return [f"{label}: mean {m0:.4g} at N={n_small} to {m1:.4g} at "
                f"N={n_large} is not a drop beyond {z:g} pooled SE ({pooled:.3g})"]
    return []


def all_zero(label, values):
    bad = [v for v in values if v != 0]
    if bad:
        return [f"{label}: {len(bad)} nonzero values, e.g. {bad[0]!r}"]
    return []
