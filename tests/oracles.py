"""Reference implementations and scans that the tests check the package with."""

import numpy as np

from rankflow import ConfigError, EnvelopeBreach, RankIndex
from rankflow.flow import OdeFormReport, boundary, initial
from rankflow.latp import (DerivativeReport, _bilinear, _cumulative_trapezoid,
                           _grid_cells,
                           _hazard_rows, _line_max, _trapezoid_weights,
                           _upper_diffs)
from rankflow.measure import _slot_threshold


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


def class_hazard_loop(fields, cls, y, t):
    """``intensity.ClassHazard`` as one boolean mask per class: each class's
    entries gathered, read by its field's ``_values`` and scattered back."""
    out = np.empty(len(y))
    for k, fld in enumerate(fields):
        sel = cls == k
        out[sel] = fld._values(y[sel], t[sel])
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


def allocating_cumulative_trapezoid(vals, h):
    """``latp._cumulative_trapezoid`` with a fresh array for every pass."""
    out = np.zeros(vals.shape)
    out[..., 1:] = np.cumsum(0.5 * h * (vals[..., 1:] + vals[..., :-1]),
                             axis=-1)
    return out


def allocating_exposure_rows(row_vals, h):
    """``latp._exposure_rows`` with a fresh array for every pass."""
    omega = allocating_cumulative_trapezoid(row_vals, h)
    return omega - np.diagonal(omega)[:, None]


def allocating_trapezoid_volterra(w, b, pre, h, total=1.0):
    """``latp._trapezoid_volterra`` with a fresh array for every pass."""
    m = len(b) - 1
    eker = np.exp(-np.triu(allocating_exposure_rows(w, h)))
    kern = w * eker  # K[v, j], valid v <= j

    f = np.zeros(m + 1)
    f[0] = b[0]
    for j in range(1, m + 1):
        acc = 0.5 * f[0] * kern[0, j]
        if j > 1:
            acc += float(np.dot(f[1:j], kern[1:j, j]))
        f[j] = (b[j] + h * acc) / (1.0 - 0.5 * h * kern[j, j])

    g = f[:, None] * eker                      # f(v) e^{-Omega(v,t_j)}
    cum = np.cumsum(g, axis=0)
    trap = h * (cum - 0.5 * (g + g[0][None, :]))   # int_0^{t_i} over v
    p = pre[None, :] + trap
    p = np.where(np.triu(np.ones_like(p)) > 0, np.clip(p, 0.0, total), 0.0)
    np.fill_diagonal(p, total)
    return f, p


def full_survival_series(omega, s, t, kmax=25, step=2.5e-3):
    """``latp.survival_series`` building and integrating every hazard row
    of its grid, not only the rows of [0, s] that the series reads."""
    s = min(s, t)
    n1 = max(1, int(np.ceil(s / step))) if s > 0 else 0
    inner = np.linspace(0.0, s, n1 + 1)
    if t > s + 1e-12:
        n2 = max(1, int(np.ceil((t - s) / step)))
        grid = np.concatenate([inner, np.linspace(s, t, n2 + 1)[1:]])
    else:
        grid = inner
    w, w0 = _hazard_rows(omega, grid)
    dg = np.diff(grid)
    expo = allocating_exposure_rows(w, dg)
    expo0 = allocating_cumulative_trapezoid(w0, dg)

    i_t = len(grid) - 1
    total = float(np.exp(-expo0[i_t]))  # k = 0: no arrival up to t
    if kmax == 0 or n1 == 0:
        return total

    nx = n1 + 1  # nodes of [0, s]
    tw = _trapezoid_weights(nx, s / n1)
    kern = (w[:nx, :nx] * np.exp(-expo[:nx, :nx]))
    step_mat = tw * kern.T  # A[j, v] = weight * K(v, u_j)
    tail = tw[-1] * np.exp(-expo[:nx, i_t])
    g = w0[:nx] * np.exp(-expo0[:nx])  # first-arrival density g_1
    total += float(np.dot(tail, g))
    for _ in range(2, kmax + 1):
        g = step_mat @ g
        total += float(np.dot(tail, g))
    return total


def loop_trapezoid_weights(nx, h):
    """``latp._trapezoid_weights`` one row at a time."""
    tw = np.zeros((nx, nx))
    for j in range(1, nx):
        tw[j, :j + 1] = np.concatenate([[0.5], np.ones(j - 1), [0.5]]) * h
    return tw


def check_regularity(omega, n=200):
    """Grid scan of a kernel: sup-norm excess and continuity moduli.

    Raises on negative values.  Returns (sup_excess, ds_modulus,
    dt_modulus): a nonpositive excess means the declared sup-norm
    dominates, and the moduli are the largest adjacent-node jumps in each
    argument (the s-modulus is taken over s > 0, since kernels pulled back
    from a flow are allowed a jump at s = 0).
    """
    ts = np.linspace(0.0, omega.horizon, n + 1)
    ss, tt = np.meshgrid(ts, ts, indexing="ij")
    vals = np.asarray(omega._fn(np.minimum(ss, tt), tt), dtype=float)
    tri = vals[np.triu_indices(n + 1)]
    if np.any(tri < -1e-12):
        raise ConfigError(f"{omega.label}: negative hazard on the domain")
    (dt, in_dt), (ds, in_ds) = _upper_diffs(vals)
    # the s-modulus skips the s = 0 row
    return (float(tri.max(initial=0.0) - omega.sup_norm),
            _line_max(np.abs(ds[1:]), in_ds[1:], 0),
            _line_max(np.abs(dt), in_dt, 1))


def loop_regularity_moduli(vals):
    """``check_regularity``'s (ds, dt) moduli of a kernel
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


def table_values(field, y, t):
    """``TableField._values`` written out inline: cells and offsets in y and
    t, then linear in y within the two time columns and linear across
    them."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    ny, nt = field.values.shape
    iy = np.clip((y / field._dy).astype(int), 0, ny - 2)
    it = np.clip((t / field._dt).astype(int), 0, nt - 2)
    ay = np.clip(y / field._dy - iy, 0.0, 1.0)
    at = np.clip(t / field._dt - it, 0.0, 1.0)
    v = field.values
    return np.asarray(
        (v[iy, it] * (1 - ay) + v[iy + 1, it] * ay) * (1 - at)
        + (v[iy, it + 1] * (1 - ay) + v[iy + 1, it + 1] * ay) * at)


def loop_t_weights(flow, t):
    """``FlowGrid``'s time cell (j, mu) of t, as the loops read it."""
    t = np.asarray(t, dtype=float)
    j = np.clip((t / flow.dt).astype(int), 0, flow.n_t - 1)
    mu = np.clip(t / flow.dt - j, 0.0, 1.0)
    return j, mu


def loop_initial(flow, z, t):
    """Initial curves from z, bilinear in (z, t)."""
    z = np.asarray(z, dtype=float)
    iz = np.minimum((z * flow.n_z).astype(int), flow.n_z - 1)
    a = z * flow.n_z - iz
    j, mu = loop_t_weights(flow, t)
    iv = flow.init_values
    lo = iv[iz, j] * (1 - mu) + iv[iz, j + 1] * mu
    hi = iv[iz + 1, j] * (1 - mu) + iv[iz + 1, j + 1] * mu
    out = lo * (1 - a) + hi * a
    return float(out) if np.ndim(out) == 0 else out


def loop_boundary(flow, t0, t):
    """Boundary curves from start times t0 (zero-extended before t0)."""
    t0 = np.asarray(t0, dtype=float)
    l = np.clip((t0 / flow.dt).astype(int), 0, flow.n_t - 1)
    lam = np.clip(t0 / flow.dt - l, 0.0, 1.0)
    j, mu = loop_t_weights(flow, t)
    bv = flow.bdry_values
    lo = bv[l, j] * (1 - mu) + bv[l, j + 1] * mu
    hi = bv[l + 1, j] * (1 - mu) + bv[l + 1, j + 1] * mu
    out = lo * (1 - lam) + hi * lam
    return float(out) if np.ndim(out) == 0 else out


def scalar_mass(density, a, b):
    """``Histogram.mass`` over one interval [a, b]."""
    if b <= a:
        return 0.0
    br = np.asarray(density.breaks)
    va = np.asarray(density.values)
    lo = np.maximum(br[:-1], a)
    hi = np.minimum(br[1:], b)
    return float(np.sum(va * np.clip(hi - lo, 0.0, None)))


def scalar_triangle_value(at, h, m, s, t):
    """``latp._triangle_value`` at one (s, t), reading node (i, j), i <= j,
    as ``at(i, j)`` and no other node."""
    i, a = _grid_cells(s, h, m)
    j, b = _grid_cells(t, h, m)
    if i >= j:
        d = at(i, i)
        return d - (d - at(i, i + 1)) / h * (t - s)
    top = at(i, j) * (1 - b) + at(i, j + 1) * b
    bot = at(i + 1, j) * (1 - b) + at(i + 1, j + 1) * b
    return top * (1 - a) + bot * a


def scalar_phi(ev, hv, gamma, t):
    """``PhiEvaluator.phi`` at one admissible pair, for h given per class:
    an initial gamma's per-class shares of its cell's mass in a Python
    list, a boundary gamma's triangle read with one dot product per
    node."""
    fl = ev.flow
    t = min(max(t, 0.0), fl.horizon)
    if gamma.kind == "boundary":
        return float(scalar_triangle_value(
            lambda l, j: float(hv @ ev.bdry_phi[:, l, j]), fl.dt, fl.n_t,
            gamma.t0, t))
    y0 = gamma.coord
    edges = fl.z_nodes
    c = max(int(np.searchsorted(edges, y0 + 1e-15, side="right")) - 1, 0)
    if c >= fl.n_z:
        return 0.0
    share = np.array([cls.weight * scalar_mass(cls.density, edges[c], y0) / m
                      if m else 0.0
                      for cls, m in zip(ev.spec.classes, ev.mass[:, c])])
    tn = fl.t_nodes
    j = min(int(np.searchsorted(tn, t, side="right")), fl.n_t) - 1
    mu = 1.0 if t >= tn[-1] else (t - tn[j]) / fl.dt
    rows = _bilinear(ev.init_phi.transpose(1, 2, 0), c, share, j, mu)
    return float(hv @ rows)


def stratified_quota_loop(spec, n):
    """``assign_population``'s stratified classes, one numpy argmax per slot."""
    K = spec.n_classes
    edges = np.arange(n + 1) / n
    quota = np.empty((K, n))
    for k, cls in enumerate(spec.classes):
        quota[k] = cls.weight * cls.density.cell_masses(edges) * n
    class_of = np.empty(n, dtype=np.int64)
    deficit = np.zeros(K)
    for i in range(n - 1, -1, -1):
        deficit += quota[:, i]
        k_star = int(np.argmax(deficit))
        class_of[i] = k_star
        deficit[k_star] -= 1.0
    return class_of


def initial_tail(assignment, y, class_k=None):
    """Empirical initial mass of W x [y, 1] (optionally one class)."""
    mask = assignment.position >= y - 1e-12
    if class_k is not None:
        mask &= assignment.class_index == class_k
    return float(mask.sum()) / assignment.n


def floor_tail_count(y0: float, n: int) -> int:
    """floor(N (1 - y0)) = number of slots at or above y0."""
    return n - _slot_threshold(y0, n)


def first_jump_counts(evaluator, gamma, ts):
    """``LogEvaluator.lattice_counts`` at (gamma, t) for every t in ts, with
    one sort of the log per gamma: each particle's first event after t0
    from ``np.unique``, then per class the sorted first-jump times of the
    downstream particles."""
    log = evaluator.log
    ts = np.asarray(ts, dtype=float)
    down = evaluator.slots0 >= _slot_threshold(gamma.y0, evaluator.n)
    start = int(np.searchsorted(log.times, gamma.t0, side="right"))
    movers, first = np.unique(log.particles[start:], return_index=True)
    first_jump = np.full(evaluator.n, np.inf)
    first_jump[movers] = log.times[start + first]
    n_classes = evaluator.spec.n_classes
    alive = np.empty((len(ts), n_classes), dtype=np.int64)
    jumped = np.zeros(len(ts), dtype=np.int64)
    for k in range(n_classes):
        f = np.sort(first_jump[down & (evaluator.classes == k)])
        gone = np.searchsorted(f, ts, side="right")
        alive[:, k] = len(f) - gone
        jumped += gone
    return alive, jumped


def char_curve(evaluator, gamma, t):
    """Empirical characteristic curve at t: y0 plus the distinct downstream
    particles that jumped in (t0, t], over N, from ``LogEvaluator``'s
    counting routine at the one pair."""
    return float(evaluator._point_counts(gamma, t).curve()[0])


def loop_project(horizon, init, bdry, n_z, n_t):
    """``flow._project`` one boundary row and column at a time; ``moved`` is
    the largest correction at a node, the boundary padding below the
    diagonal left out."""
    init = np.clip(init, 0.0, 1.0)
    bdry = np.clip(bdry, 0.0, 1.0)
    before = (init.copy(), bdry.copy())
    init[:, 0] = np.arange(n_z + 1) / n_z
    for l in range(n_t + 1):
        bdry[l, :l + 1] = 0.0
    init = np.maximum.accumulate(init, axis=1)
    bdry = np.maximum.accumulate(bdry, axis=1)
    for l in range(n_t + 1):
        bdry[l, :l] = 0.0
    init = np.maximum.accumulate(init, axis=0)
    # the corner (0, 0) is one point, tagged initial or boundary
    bdry[0] = init[0]
    for j in range(n_t + 1):
        bdry[: j + 1, j] = np.minimum.accumulate(
            np.minimum(bdry[: j + 1, j], init[0, j]))
    moved = max(float(np.max(np.abs(init - before[0]))),
                float(np.max(np.abs(np.triu(bdry - before[1])))))
    return init, bdry, moved


def loop_gamma_grid(flow):
    """All grid gamma points, ascending in the total order."""
    gammas = [initial(z) for z in flow.z_nodes[::-1]]
    gammas += [boundary(l * flow.dt) for l in range(1, flow.n_t + 1)]
    return gammas


def loop_ordered_values(flow) -> np.ndarray:
    """theta on the ordered gamma grid; NaN where inadmissible."""
    rows = [flow.init_values[::-1]]
    bd = flow.bdry_values[1:].copy()
    for l in range(1, flow.n_t + 1):
        bd[l - 1, :l] = np.nan
    rows.append(bd)
    return np.concatenate(rows, axis=0)


def loop_verify_ode_form(sol) -> OdeFormReport:
    """``flow.verify_ode_form`` one time node and one gamma at a time."""
    flow, spec = sol.flow, sol.spec
    n_t = flow.n_t
    gammas = loop_gamma_grid(flow)
    yvals = loop_ordered_values(flow)
    n_rows = len(gammas)

    init_phi, bdry_phi = sol.evaluator.init_phi, sol.evaluator.bdry_phi
    K = spec.n_classes
    phi_rows = np.empty((K, n_rows, n_t + 1))
    for k in range(K):
        phi_rows[k] = np.concatenate([init_phi[k][::-1], bdry_phi[k][1:]], axis=0)

    # integrand I[q, j] = flux through [y_C(gamma_q, t_j), 1]
    integrand = np.zeros((n_rows, n_t + 1))
    for j in range(n_t + 1):
        n_adm = flow.n_z + 1 + j  # ordered rows admissible at t_j
        y = yvals[:n_adm, j]
        mids = 0.5 * (y[1:] + y[:-1])
        flux = np.zeros(n_adm - 1)
        for k in range(K):
            w_mid = spec.classes[k].field._values(
                np.clip(mids, 0.0, 1.0), np.full(n_adm - 1, flow.t_nodes[j]))
            dm = phi_rows[k, 1:n_adm, j] - phi_rows[k, : n_adm - 1, j]
            flux += w_mid * np.clip(dm, 0.0, None)
        integrand[:n_adm, j] = np.concatenate([[0.0], np.cumsum(flux)])

    h = flow.dt
    worst = 0.0
    arg = ("", 0.0)
    for q, gamma in enumerate(gammas):
        j0 = 0 if gamma.kind == "initial" else int(round(gamma.coord / h))
        vals = integrand[q, j0:]
        if len(vals) < 1:
            continue
        rhs = gamma.y0 + _cumulative_trapezoid(vals, h)
        resid = np.abs(yvals[q, j0:] - rhs)
        i = int(np.argmax(resid))
        if resid[i] > worst:
            worst = float(resid[i])
            arg = (str(gamma), float(flow.t_nodes[j0 + i]))
    return OdeFormReport(max_residual=worst, argmax_gamma=arg[0],
                         argmax_t=arg[1], n_z=flow.n_z, n_t=flow.n_t)
