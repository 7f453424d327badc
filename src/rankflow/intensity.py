"""Jump-rate fields and population specifications.

A rate field w(y, t) is defined on [0,1] x [0,T] and must be nonnegative
with a bounded position derivative.  A population spec is a finite mixture
of classes, each carrying a weight, a rate field, and a conditional spatial
density for the initial positions.  Because the N-particle initial positions
are always exactly the slots {i/N}, the spatial marginal of the mixture must
be uniform on [0,1]; the spec validator enforces that.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigError, DomainError, _number, _positive,
                     _real_array, _require_int)
from .latp import _grid_cells
from . import streams

_DOMAIN_TOL = 1e-12
_SUM_TOL = 1e-9
_SWEEP_BLOCK = 4096  # slots per block of the stratified sweep


def _numbers(values, name: str) -> np.ndarray:
    """``values`` as a float array, each entry checked by ``_number``."""
    items = np.asarray(values, dtype=object)
    for x in items.flat:
        _number(name, x)
    return items.astype(float)


def _table_read(flat, off, ny, nt, dy, dt, y, t):
    """The bilinear read at (y, t) of tables stored transposed, row after
    row, in ``flat``: a table has ny nodes of step dy in y and nt of step
    dt in t, from flat index ``off``, and each of these may be one per
    entry.  Linear along a row of the transposed table first, in y, then
    across the two rows, in t: ``latp._bilinear``'s products and sums, on
    nodes read by ``take``."""
    r, a = _grid_cells(t, dt, nt - 1)
    j, mu = _grid_cells(y, dy, ny - 1)
    at = off + r * ny + j
    lo = flat.take(at) * (1 - mu) + flat.take(at + 1) * mu
    at += ny
    hi = flat.take(at) * (1 - mu) + flat.take(at + 1) * mu
    return lo * (1 - a) + hi * a


def _check_domain(y, t, horizon):
    """y and t as float arrays, if numbers in [0, 1] and [0, horizon];
    written so that NaN, which fails every comparison, is refused."""
    y, t = _real_array("y", y, DomainError), _real_array("t", t, DomainError)
    if not np.all((y >= -_DOMAIN_TOL) & (y <= 1.0 + _DOMAIN_TOL)):
        raise DomainError(f"y: position outside [0,1]: {y!r}")
    if not np.all((t >= -_DOMAIN_TOL) & (t <= horizon + _DOMAIN_TOL)):
        raise DomainError(f"t: time outside [0,{horizon}]: {t!r}")
    return y, t


class IntensityField:
    """Base class for rate fields w(y, t).

    Subclasses set exact ``sup_norm`` and ``y_deriv_bound`` at construction,
    through ``_set_bounds``, and either a row ``_row = (yb, ys, tb, ts)``,
    read by the one rate formula ``(yb + ys*y) * (tb + ts*t)``, or their own
    ``_values`` (vectorized, unvalidated).  Calls validate the domain and
    return nonnegative rates; evaluation is pure, so repeated calls are
    bit-stable.
    """

    kind = "abstract"
    _row = None

    def __init__(self, horizon: float):
        self.horizon = _positive("horizon", horizon)
        self.sup_norm = 0.0
        self.y_deriv_bound = 0.0

    def _set_bounds(self, sup_norm: float, y_deriv_bound: float) -> None:
        """Set both bounds; finite parameters whose bound overflows are
        refused, as the engines cannot draw candidates at an infinite rate."""
        for name, value in (("sup_norm", sup_norm),
                            ("y_deriv_bound", y_deriv_bound)):
            if not math.isfinite(value):
                raise ConfigError(f"{name}: the parameters give {value}")
        self.sup_norm = float(sup_norm)
        self.y_deriv_bound = float(y_deriv_bound)

    def __call__(self, y, t):
        y, t = _check_domain(y, t, self.horizon)
        out = self._values(y, t)
        if out.ndim == 0:
            return float(out)
        return out

    def _values(self, y, t) -> np.ndarray:
        yb, ys, tb, ts = self._row
        return np.asarray((yb + ys * y) * (tb + ts * t))

    def params(self) -> dict:
        raise NotImplementedError

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        cfg.update(self.params())
        return cfg

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps}, horizon={self.horizon})"


class ConstantField(IntensityField):
    kind = "constant"

    def __init__(self, value: float, horizon: float):
        super().__init__(horizon)
        self.value = _number("value", value)
        if value < 0:
            raise ConfigError(f"value: constant rate must be >= 0, got {value}")
        self._set_bounds(self.value, 0.0)
        # -0.0 * y is -0.0, the additive identity, for y >= 0
        self._row = (self.value, -0.0, 1.0, 0.0)

    def params(self):
        return {"value": self.value}


class AffineField(IntensityField):
    """w(y, t) = base + slope * y, constant in time."""

    kind = "affine"

    def __init__(self, base: float, slope: float, horizon: float):
        super().__init__(horizon)
        self.base, self.slope = _number("base", base), _number("slope", slope)
        if base < 0:
            raise ConfigError(f"base: affine field negative at y=0, got {base}")
        if base + slope < 0:
            raise ConfigError(
                f"slope: affine field negative at y=1: base={base}, slope={slope}")
        self._set_bounds(max(self.base, self.base + self.slope), abs(self.slope))
        # base + 0.0 turns a -0.0 base into 0.0, as adding 0.0 * t to
        # base + slope*y would
        self._row = (self.base + 0.0, self.slope, 1.0, 0.0)

    def params(self):
        return {"base": self.base, "slope": self.slope}


class ProductField(IntensityField):
    """w(y, t) = (y_base + y_slope*y) * (t_base + t_slope*t).

    Each factor must be nonnegative on its interval, so extrema sit at the
    domain corners and the declared bounds are exact.
    """

    kind = "product"

    def __init__(self, y_base, y_slope, t_base, t_slope, horizon):
        super().__init__(horizon)
        self.y_base, self.y_slope = _number("y_base", y_base), _number("y_slope", y_slope)
        self.t_base, self.t_slope = _number("t_base", t_base), _number("t_slope", t_slope)
        if y_base < 0:
            raise ConfigError(f"y_base: spatial factor negative at y=0, got {y_base}")
        if y_base + y_slope < 0:
            raise ConfigError(
                f"y_slope: spatial factor negative at y=1: {y_base}+{y_slope}*y")
        if t_base < 0:
            raise ConfigError(f"t_base: time factor negative at t=0, got {t_base}")
        if t_base + t_slope * horizon < 0:
            raise ConfigError(
                f"t_slope: time factor negative at the horizon: {t_base}+{t_slope}*t")
        fy = max(self.y_base, self.y_base + self.y_slope)
        ft = max(self.t_base, self.t_base + self.t_slope * horizon)
        self._set_bounds(fy * ft, abs(self.y_slope) * ft)
        self._row = (self.y_base, self.y_slope, self.t_base, self.t_slope)

    def params(self):
        return {"y_base": self.y_base, "y_slope": self.y_slope,
                "t_base": self.t_base, "t_slope": self.t_slope}


class TableField(IntensityField):
    """Bilinear interpolation of nonnegative node values on a uniform grid.

    A bilinear patch attains its extrema at cell corners, so the node maxima
    give the exact sup-norm and the node y-differences the exact slope bound.
    """

    kind = "table"

    def __init__(self, values, horizon):
        super().__init__(horizon)
        vals = _numbers(values, "values")
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise ConfigError(f"values: table must be at least 2x2, got {vals.shape}")
        if np.any(vals < 0):
            raise ConfigError("values: table values must be >= 0")
        self.values = vals.copy()
        self.values.flags.writeable = False
        # the rows of the transposed table are the time nodes
        self._flat = vals.T.ravel()
        ny, nt = vals.shape
        self._dy = 1.0 / (ny - 1)
        self._dt = horizon / (nt - 1)
        # a float division overflows to inf without a numpy warning
        self._set_bounds(vals.max(),
                         float(np.abs(np.diff(vals, axis=0)).max()) / self._dy)

    def _values(self, y, t):
        return np.asarray(_table_read(self._flat, 0, *self.values.shape,
                                      self._dy, self._dt, y, t))

    def params(self):
        return {"values": self.values.tolist()}


_FIELD_KINDS = {c.kind: c for c in (ConstantField, AffineField, ProductField, TableField)}


class ClassHazard:
    """The rate ``fields[cls[c]](y[c], t[c])`` of every entry c, read by
    gathering each class's parameters, with no pass per class.

    One field is read at y and t as they come, of any shape, by its own
    ``_values``.  Otherwise every class with a row ``_row`` is read by the
    fields' one rate formula at its class's row, and table classes by the
    one flat read, ``_table_read``, of a stack of the transposed tables at
    their class's offset, steps and sizes; a spec with both kinds adds the
    two parts.  Each part is -0.0, the additive identity, on the other
    part's classes, so for y and t that are not negative the bytes are
    those of each field's ``_values``.
    """

    def __init__(self, fields):
        self.fields = tuple(fields)
        if len(self.fields) == 1:
            return
        rows, tables = [], []
        for k, fld in enumerate(self.fields):
            if isinstance(fld, TableField):
                rows.append((-0.0, -0.0, 1.0, 0.0))
                tables.append((k, fld))
            elif fld._row is not None:
                rows.append(fld._row)
            else:
                raise ConfigError(f"classes[{k}].field: no gathered form for "
                                  f"kind {fld.kind!r}")
        yb, ys, tb, ts = np.array(rows).T
        self._rows = (yb, ys) if len(tables) < len(rows) else None
        # the time factor is 1.0 for all but product classes, and
        # multiplying by 1.0 is exact
        self._time = (tb, ts) if np.any((tb != 1) | (ts != 0)) else None
        self._table = None
        if tables:
            # the other classes read a 2x2 table of -0.0 at offset 0
            k_all = len(rows)
            off = np.zeros(k_all, dtype=np.int64)
            ny, nt = np.full(k_all, 2), np.full(k_all, 2)
            dy, dt = np.ones(k_all), np.ones(k_all)
            blocks, at = [np.full(4, -0.0)], 4
            for k, fld in tables:
                off[k], at = at, at + fld.values.size
                ny[k], nt[k] = fld.values.shape
                dy[k], dt[k] = fld._dy, fld._dt
                blocks.append(fld._flat)
            self._table = (np.concatenate(blocks), off, ny, nt, dy, dt)

    def __call__(self, cls, y, t):
        if len(self.fields) == 1:
            return self.fields[0]._values(y, t)
        out = None
        if self._rows is not None:
            yb, ys = self._rows
            out = yb[cls] + ys[cls] * y
            if self._time is not None:
                tb, ts = self._time
                out *= tb[cls] + ts[cls] * t
        if self._table is not None:
            flat, *per_class = self._table
            part = _table_read(flat, *(x[cls] for x in per_class), y, t)
            out = part if out is None else out + part
        return out


def field_from_config(cfg: dict, horizon: float, where: str = "field") -> IntensityField:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _FIELD_KINDS:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}, "
                          f"expected one of {sorted(_FIELD_KINDS)}")
    kwargs = {k: v for k, v in cfg.items() if k != "kind"}
    try:
        return _FIELD_KINDS[kind](horizon=horizon, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"{where}: bad parameters for kind {kind!r}: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


@dataclass(frozen=True)
class Histogram:
    """Piecewise-constant probability density on [0,1]."""

    breaks: tuple
    values: tuple

    def __post_init__(self):
        b = _numbers(self.breaks, "density.breaks")
        v = _numbers(self.values, "density.values")
        if b.ndim != 1 or len(b) != len(v) + 1:
            raise ConfigError("density: need len(breaks) == len(values) + 1")
        if abs(b[0]) > _SUM_TOL or abs(b[-1] - 1.0) > _SUM_TOL:
            raise ConfigError("density.breaks: must start at 0 and end at 1")
        if np.any(np.diff(b) <= 0):
            raise ConfigError("density.breaks: must be strictly increasing")
        if np.any(v < 0):
            raise ConfigError("density.values: must be >= 0")
        total = float(np.sum(v * np.diff(b)))
        if abs(total - 1.0) > _SUM_TOL:
            raise ConfigError(f"density: integrates to {total}, expected 1")
        object.__setattr__(self, "breaks", tuple(float(x) for x in b))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    @staticmethod
    def uniform() -> "Histogram":
        return Histogram(breaks=(0.0, 1.0), values=(1.0,))

    def density_at(self, z):
        b = np.asarray(self.breaks)
        v = np.asarray(self.values)
        idx = np.clip(np.searchsorted(b, z, side="right") - 1, 0, len(v) - 1)
        return v[idx]

    def mass(self, a, b):
        """Exact integral of the density over [a, b], 0 where b <= a; a
        and b may be arrays."""
        a, b = (np.asarray(x, dtype=float)[..., None] for x in (a, b))
        cut = np.minimum(self.breaks[1:], b) - np.maximum(self.breaks[:-1], a)
        out = np.sum(np.asarray(self.values) * np.clip(cut, 0.0, None), axis=-1)
        return float(out) if out.ndim == 0 else out

    def _cumulative_mass(self) -> np.ndarray:
        """Mass below each break; the CDF is linear in between."""
        return np.concatenate(
            [[0.0], np.cumsum(np.asarray(self.values) * np.diff(self.breaks))])

    def cell_masses(self, edges) -> np.ndarray:
        """Masses of the cells between consecutive increasing edges."""
        return np.diff(np.interp(np.asarray(edges, dtype=float), self.breaks,
                                 self._cumulative_mass()))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF draws."""
        br = np.asarray(self.breaks)
        va = np.asarray(self.values)
        cum = self._cumulative_mass()
        cum[-1] = 1.0
        u = rng.random(n)
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(va) - 1)
        width = np.diff(br)[idx]
        dens = va[idx]
        frac = np.where(dens > 0, (u - cum[idx]) / np.where(dens > 0, dens, 1.0), 0.0)
        return br[idx] + np.clip(frac, 0.0, width)


@dataclass(frozen=True)
class PopulationClass:
    weight: float
    field: IntensityField
    density: Histogram


@dataclass(frozen=True)
class PopulationSpec:
    """Limit population: class weights, rate fields, conditional densities.

    Invariants enforced here:
      * weights are positive and sum to 1,
      * every class density integrates to 1,
      * the weighted mixture of densities is the uniform density on [0,1]
        (initial positions are always the slots {i/N}, so any weak limit of
        the empirical initial measure has uniform spatial marginal),
      * all fields share the horizon.
    """

    classes: tuple
    horizon: float

    def __post_init__(self):
        _positive("horizon", self.horizon)
        if not self.classes:
            raise ConfigError("classes: at least one class required")
        wsum = 0.0
        for k, cls in enumerate(self.classes):
            _positive(f"classes[{k}].weight", cls.weight)
            if abs(cls.field.horizon - self.horizon) > _DOMAIN_TOL:
                raise ConfigError(f"classes[{k}].field: horizon mismatch")
            wsum += cls.weight
        if abs(wsum - 1.0) > _SUM_TOL:
            raise ConfigError(f"classes: weights sum to {wsum}, expected 1")
        merged = sorted({b for cls in self.classes for b in cls.density.breaks})
        for a, b in zip(merged[:-1], merged[1:]):
            mid = 0.5 * (a + b)
            mix = sum(cls.weight * float(cls.density.density_at(mid))
                      for cls in self.classes)
            if abs(mix - 1.0) > 1e-7:
                raise ConfigError(
                    f"classes: weighted density mixture is {mix:.6g} on "
                    f"[{a:.6g},{b:.6g}], expected the uniform density 1 "
                    "(initial slots force a uniform spatial marginal)")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.classes])

    @property
    def c_w(self) -> float:
        """Largest position-derivative bound across classes."""
        return max(c.field.y_deriv_bound for c in self.classes)

    @property
    def m_w(self) -> float:
        """Weight-averaged sup-norm of the rate fields."""
        return float(sum(c.weight * c.field.sup_norm for c in self.classes))

    @property
    def position_dependent(self) -> bool:
        return any(c.field.y_deriv_bound > 0 for c in self.classes)

    @cached_property
    def class_hazard(self) -> "ClassHazard":
        """The engines' rate read, ``ClassHazard`` of the class fields,
        built once per spec."""
        return ClassHazard(c.field for c in self.classes)

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_config(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_config(self) -> dict:
        return {
            "horizon": self.horizon,
            "classes": [
                {"weight": c.weight,
                 "field": c.field.to_config(),
                 "density": {"breaks": list(c.density.breaks),
                             "values": list(c.density.values)}}
                for c in self.classes
            ],
        }


def spec_from_config(cfg: dict) -> PopulationSpec:
    if not isinstance(cfg, dict):
        raise ConfigError("spec: expected a JSON object")
    if "horizon" not in cfg:
        raise ConfigError("horizon: missing")
    horizon = _positive("horizon", cfg["horizon"])
    raw_classes = cfg.get("classes")
    if not isinstance(raw_classes, list) or not raw_classes:
        raise ConfigError("classes: expected a non-empty list")
    classes = []
    for k, rc in enumerate(raw_classes):
        where = f"classes[{k}]"
        if not isinstance(rc, dict):
            raise ConfigError(f"{where}: expected an object")
        if "weight" not in rc:
            raise ConfigError(f"{where}.weight: missing")
        weight = _positive(f"{where}.weight", rc["weight"])
        fld = field_from_config(rc.get("field"), horizon, where=f"{where}.field")
        dens_cfg = rc.get("density")
        if dens_cfg is None:
            dens = Histogram.uniform()
        else:
            try:
                dens = Histogram(breaks=tuple(dens_cfg["breaks"]),
                                 values=tuple(dens_cfg["values"]))
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"{where}.density: {exc}") from exc
            except ConfigError as exc:
                raise ConfigError(f"{where}.{exc}") from exc
        classes.append(PopulationClass(weight=weight, field=fld, density=dens))
    return PopulationSpec(classes=tuple(classes), horizon=horizon)


def load_spec(path) -> PopulationSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    return spec_from_config(cfg)


@dataclass(frozen=True, eq=False)
class PopulationAssignment:
    """Deterministic N-particle discretization of a population spec,
    compared and hashed by identity."""

    spec: PopulationSpec
    class_index: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        ci = np.ascontiguousarray(self.class_index, dtype=np.int64)
        pos = np.ascontiguousarray(self.position, dtype=float)
        n = len(pos)
        if len(ci) != n or n < 1:
            raise ConfigError("assignment arrays must be non-empty and equal length")
        slots = np.rint(pos * n).astype(np.int64)
        if np.any(np.abs(pos * n - slots) > 1e-9) or \
                not np.array_equal(np.sort(slots), np.arange(n)):
            raise ConfigError("positions must be a permutation of {i/N}")
        counts = np.bincount(ci, minlength=self.spec.n_classes)
        for k, cls in enumerate(self.spec.classes):
            if abs(counts[k] / n - cls.weight) > 1.0 / n + 1e-12:
                raise ConfigError(
                    f"class {k} frequency {counts[k]/n:.6g} deviates from "
                    f"weight {cls.weight} by more than 1/N")
        ci.flags.writeable = False
        pos.flags.writeable = False
        object.__setattr__(self, "class_index", ci)
        object.__setattr__(self, "position", pos)

    @property
    def n(self) -> int:
        return len(self.position)

    @property
    def slots(self) -> np.ndarray:
        return np.rint(self.position * self.n).astype(np.int64)

    def sup_norms(self) -> np.ndarray:
        per_class = np.array([c.field.sup_norm for c in self.spec.classes])
        return per_class[self.class_index]



def assign_population(spec: PopulationSpec, n: int, mode: str = "stratified",
                      seed: int | None = None) -> PopulationAssignment:
    """Realize the limit measure as N particles on the slots {i/N}.

    stratified: slot i gets the class with the largest running quota deficit,
    where quotas are the exact per-slot class masses p_k * rho_k(cell).  The
    per-class tail counts then track their targets within one particle
    uniformly, so the initial discrepancy is O(1/N).  The sweep runs on
    Python floats, whose + and - are the same IEEE double operations an
    array does, in the same order, and a tie goes to the first maximum, the
    lowest class, as ``np.argmax`` picks it, so the classes match a numpy
    loop byte for byte.  Two classes, the common case, keep two running
    deficits d0 and d1: each slot adds its quotas, then takes class 1 and
    subtracts 1 from d1 if d1 > d0, else takes class 0 and subtracts 1 from
    d0.  More classes keep a list and pick ``deficit.index(max(deficit))``.
    One class takes every slot without a sweep.

    seeded-random: class counts are fixed to largest-remainder quotas, class
    positions are drawn i.i.d. from the class densities, and slots are
    assigned by rank of the draws.
    """
    _require_int("n", n, 1)
    K = spec.n_classes
    if mode == "stratified":
        edges = np.arange(n + 1) / n
        position = edges[:-1]
        if K == 1:
            # the only class has the largest deficit at every slot
            return PopulationAssignment(spec=spec,
                                        class_index=np.zeros(n, dtype=np.int64),
                                        position=position)
        quota = np.empty((K, n))
        for k, cls in enumerate(spec.classes):
            quota[k] = cls.weight * cls.density.cell_masses(edges) * n
        class_of = np.empty(n, dtype=np.int64)
        deficit = [0.0] * K
        d0 = d1 = 0.0
        # sweep from the top slot down: tail counts are what the
        # distribution-function discrepancy measures.  Quotas become Python
        # floats one block of slots at a time, which keeps the peak memory
        # of the conversion fixed.
        for hi in range(n, 0, -_SWEEP_BLOCK):
            lo = max(hi - _SWEEP_BLOCK, 0)
            rows = [row[::-1].tolist() for row in quota[:, lo:hi]]
            picks = []
            if K == 2:
                for q0, q1 in zip(*rows):
                    d0 += q0
                    d1 += q1
                    if d1 > d0:
                        d1 -= 1.0
                        picks.append(1)
                    else:
                        d0 -= 1.0
                        picks.append(0)
            else:
                for q in zip(*rows):
                    deficit = list(map(operator.add, deficit, q))
                    k_star = deficit.index(max(deficit))
                    deficit[k_star] -= 1.0
                    picks.append(k_star)
            class_of[lo:hi] = picks[::-1]
        return PopulationAssignment(spec=spec, class_index=class_of,
                                    position=position)
    if mode == "seeded-random":
        if seed is None:
            raise ConfigError("seeded-random mode requires a seed")
        rng = streams.substream(seed, streams.ASSIGN)
        # largest-remainder class quotas keep frequencies within 1/N
        raw = spec.weights * n
        counts = np.floor(raw).astype(np.int64)
        rem = raw - counts
        for k in np.argsort(-rem, kind="stable")[: n - counts.sum()]:
            counts[k] += 1
        class_of = np.repeat(np.arange(K), counts)
        rng.shuffle(class_of)
        z = np.empty(n)
        for k, cls in enumerate(spec.classes):
            sel = class_of == k
            z[sel] = cls.density.sample(rng, int(sel.sum()))
        order = np.argsort(z, kind="stable")
        position = np.empty(n)
        position[order] = np.arange(n) / n
        return PopulationAssignment(spec=spec, class_index=class_of,
                                    position=position)
    raise ConfigError(f"unknown assignment mode {mode!r}")


def pin_particles(assignment: PopulationAssignment, pins) -> PopulationAssignment:
    """Relabel particles so particle i matches pins[i] = (class_k, y_target).

    Swaps whole particles (class and position together), so the assignment
    law is unchanged up to labels.  Pin i receives the particle of the wanted
    class whose slot is nearest y_target among those not already pinned.
    """
    ci = assignment.class_index.copy()
    pos = assignment.position.copy()
    n = assignment.n
    if len(pins) > n:
        raise ConfigError(f"cannot pin {len(pins)} particles out of {n}")
    taken = np.zeros(n, dtype=bool)
    for i, (k, y_target) in enumerate(pins):
        _require_int(f"pin {i}: class", k, 0)
        if k >= assignment.spec.n_classes:
            raise ConfigError(f"pin {i}: no class {k}")
        _number(f"pin {i}: target", y_target)
        cand = np.flatnonzero((ci == k) & ~taken)
        if len(cand) == 0:
            raise ConfigError(f"pin {i}: class {k} exhausted")
        j = cand[np.argmin(np.abs(pos[cand] - y_target))]
        ci[i], ci[j] = ci[j], ci[i]
        pos[i], pos[j] = pos[j], pos[i]
        taken[i] = True
    return PopulationAssignment(spec=assignment.spec, class_index=ci, position=pos)

