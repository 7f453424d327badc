"""Reference implementations that the tests compare the package against."""

import numpy as np

from rankflow import ConfigError, EnvelopeBreach, RankIndex
from rankflow.latp import DerivativeReport


class NaiveRankIndex:
    """Array-backed oracle with the same interface as RankIndex."""

    def __init__(self, initial_ranks):
        ranks = np.asarray(initial_ranks, dtype=np.int64)
        self.order = [0] * len(ranks)
        for i, r in enumerate(ranks.tolist()):
            self.order[r] = i

    def rank(self, i: int) -> int:
        return self.order.index(i)

    def move_to_front(self, i: int) -> None:
        self.order.remove(i)
        self.order.insert(0, i)

    def ranks(self) -> np.ndarray:
        out = np.empty(len(self.order), dtype=np.int64)
        for r, i in enumerate(self.order):
            out[i] = r
        return out


def sequential_original_pass(assignment, times, ids, marks):
    """One candidate at a time through a RankIndex: ``srp._original_pass``
    as a loop, with the same returns and the same breach message."""
    values = [c.field._values for c in assignment.spec.classes]
    cls = assignment.class_index.tolist()
    sups = assignment.sup_norms().tolist()
    index = RankIndex(assignment.slots)
    inv_n = 1.0 / assignment.n
    accepted = np.zeros(len(times), dtype=bool)
    pre = []
    for c, (t, i, xi) in enumerate(zip(times.tolist(), ids.tolist(),
                                       marks.tolist())):
        y = index.rank(i) * inv_n
        a = float(values[cls[i]](y, t))
        if a > sups[i] * (1 + 1e-9) + 1e-12:
            raise EnvelopeBreach(
                f"particle {i}: hazard {a} above envelope {sups[i]} at t={t}")
        if xi < a:
            accepted[c] = True
            pre.append(y)
            index.move_to_front(i)
    return accepted, np.asarray(pre)


def loop_survival_table_check(p):
    """``SurvivalTable``'s monotonicity checks, one row and column at a time."""
    m = len(p)
    slack = 1e-9
    for i in range(m):
        if np.any(np.diff(p[i, i:]) > slack):
            raise ConfigError("survival table increases in t")
    for j in range(m):
        if np.any(np.diff(p[: j + 1, j]) < -slack):
            raise ConfigError("survival table decreases in the start time")


def loop_derivative_bound_check(table, omega):
    """``latp.derivative_bound_check`` as a loop over rows and columns."""
    p = table.p
    h = table.step
    sup = omega.sup_norm
    m = len(table.grid) - 1
    dt_sign = 0.0
    dt_excess = 0.0
    ds_sign = 0.0
    ds_excess = 0.0
    for i in range(m + 1):
        row = p[i, i:m + 1]
        if len(row) > 1:
            d = np.diff(row) / h
            dt_sign = max(dt_sign, float(d.max(initial=-np.inf)))
            dt_excess = max(dt_excess, float((-d - sup).max(initial=-np.inf)))
    for j in range(1, m + 1):
        col = p[: j + 1, j]
        d = np.diff(col) / h
        ds_sign = max(ds_sign, float((-d).max(initial=-np.inf)))
        ds_excess = max(ds_excess, float((d - sup * col[:-1]).max(initial=-np.inf)))
    return DerivativeReport(dt_sign=dt_sign, dt_excess=dt_excess,
                            ds_sign=ds_sign, ds_excess=ds_excess, step=h)


def loop_trapezoid_weights(nx, h):
    """``latp._trapezoid_weights`` one row at a time."""
    tw = np.zeros((nx, nx))
    for j in range(1, nx):
        tw[j, :j + 1] = np.concatenate([[0.5], np.ones(j - 1), [0.5]]) * h
    return tw


def loop_regularity_moduli(vals):
    """``LatpIntensity.check_regularity``'s (ds, dt) moduli of a kernel
    table ``vals[i, j]`` = omega(min(s_i, t_j), t_j), one row and column at
    a time; the s-modulus skips the s = 0 row."""
    n = len(vals) - 1
    dt_mod = 0.0
    for i in range(n + 1):
        row = vals[i, i:]
        if len(row) > 1:
            dt_mod = max(dt_mod, float(np.max(np.abs(np.diff(row)))))
    ds_mod = 0.0
    for j in range(2, n + 1):
        col = vals[1: j + 1, j]
        if len(col) > 1:
            ds_mod = max(ds_mod, float(np.max(np.abs(np.diff(col)))))
    return ds_mod, dt_mod
