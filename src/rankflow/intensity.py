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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from . import streams

_DOMAIN_TOL = 1e-12
_SUM_TOL = 1e-9


def _number(x, name: str) -> float:
    """x as a float; booleans, non-numbers and NaN/inf raise ConfigError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise ConfigError(f"{name}: must be a finite number, got {x!r}")
    return float(x)


def _numbers(values, name: str) -> np.ndarray:
    """``values`` as a float array, each entry checked by ``_number``."""
    items = np.asarray(values, dtype=object)
    for x in items.flat:
        _number(x, name)
    return items.astype(float)


def _check_domain(y, t, horizon):
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(y < -_DOMAIN_TOL) or np.any(y > 1.0 + _DOMAIN_TOL):
        raise DomainError(f"position outside [0,1]: {y!r}")
    if np.any(t < -_DOMAIN_TOL) or np.any(t > horizon + _DOMAIN_TOL):
        raise DomainError(f"time outside [0,{horizon}]: {t!r}")
    return y, t


class IntensityField:
    """Base class for rate fields w(y, t).

    Subclasses set exact ``sup_norm`` and ``y_deriv_bound`` at construction
    and implement ``_values`` (vectorized, unvalidated).  Calls validate the
    domain and return nonnegative rates; evaluation is pure, so repeated
    calls are bit-stable.
    """

    kind = "abstract"

    def __init__(self, horizon: float):
        if _number(horizon, "horizon") <= 0:
            raise ConfigError(f"horizon: must be positive, got {horizon}")
        self.horizon = float(horizon)
        self.sup_norm = 0.0
        self.y_deriv_bound = 0.0

    def __call__(self, y, t):
        y, t = _check_domain(y, t, self.horizon)
        out = self._values(y, t)
        if out.ndim == 0:
            return float(out)
        return out

    def _values(self, y, t) -> np.ndarray:
        raise NotImplementedError

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
        self.value = _number(value, "value")
        if value < 0:
            raise ConfigError(f"value: constant rate must be >= 0, got {value}")
        self.sup_norm = self.value
        self.y_deriv_bound = 0.0

    def _values(self, y, t):
        if np.ndim(y) == 0 and np.ndim(t) == 0:
            return np.float64(self.value)
        return np.full(np.broadcast_shapes(np.shape(y), np.shape(t)), self.value)

    def params(self):
        return {"value": self.value}


class AffineField(IntensityField):
    """w(y, t) = base + slope * y, constant in time."""

    kind = "affine"

    def __init__(self, base: float, slope: float, horizon: float):
        super().__init__(horizon)
        self.base, self.slope = _number(base, "base"), _number(slope, "slope")
        if base < 0:
            raise ConfigError(f"base: affine field negative at y=0, got {base}")
        if base + slope < 0:
            raise ConfigError(
                f"slope: affine field negative at y=1: base={base}, slope={slope}")
        self.sup_norm = max(self.base, self.base + self.slope)
        self.y_deriv_bound = abs(self.slope)

    def _values(self, y, t):
        return np.asarray(self.base + self.slope * y + 0.0 * t)

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
        self.y_base, self.y_slope = _number(y_base, "y_base"), _number(y_slope, "y_slope")
        self.t_base, self.t_slope = _number(t_base, "t_base"), _number(t_slope, "t_slope")
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
        self.sup_norm = fy * ft
        self.y_deriv_bound = abs(self.y_slope) * ft

    def _values(self, y, t):
        return np.asarray(
            (self.y_base + self.y_slope * y) * (self.t_base + self.t_slope * t))

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
        ny, nt = vals.shape
        self._dy = 1.0 / (ny - 1)
        self._dt = horizon / (nt - 1)
        self.sup_norm = float(vals.max())
        self.y_deriv_bound = float(np.abs(np.diff(vals, axis=0)).max() / self._dy)

    def _values(self, y, t):
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        ny, nt = self.values.shape
        iy = np.clip((y / self._dy).astype(int), 0, ny - 2)
        it = np.clip((t / self._dt).astype(int), 0, nt - 2)
        ay = np.clip(y / self._dy - iy, 0.0, 1.0)
        at = np.clip(t / self._dt - it, 0.0, 1.0)
        v = self.values
        return np.asarray(
            (v[iy, it] * (1 - ay) + v[iy + 1, it] * ay) * (1 - at)
            + (v[iy, it + 1] * (1 - ay) + v[iy + 1, it + 1] * ay) * at)

    def params(self):
        return {"values": self.values.tolist()}


_FIELD_KINDS = {c.kind: c for c in (ConstantField, AffineField, ProductField, TableField)}


def field_from_config(cfg: dict, horizon: float, where: str = "field") -> IntensityField:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = cfg["kind"]
    if kind not in _FIELD_KINDS:
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

    def mass(self, a: float, b: float) -> float:
        """Exact integral of the density over [a, b]."""
        if b <= a:
            return 0.0
        br = np.asarray(self.breaks)
        va = np.asarray(self.values)
        lo = np.maximum(br[:-1], a)
        hi = np.minimum(br[1:], b)
        return float(np.sum(va * np.clip(hi - lo, 0.0, None)))

    def tail(self, y: float) -> float:
        return self.mass(y, 1.0)

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
        _number(self.horizon, "horizon")
        if not self.classes:
            raise ConfigError("classes: at least one class required")
        wsum = 0.0
        for k, cls in enumerate(self.classes):
            if not cls.weight > 0:
                raise ConfigError(f"classes[{k}].weight: must be > 0, got {cls.weight}")
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
    horizon = _number(cfg["horizon"], "horizon")
    if horizon <= 0:
        raise ConfigError(f"horizon: must be positive, got {horizon!r}")
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
        weight = _number(rc["weight"], f"{where}.weight")
        if weight <= 0:
            raise ConfigError(f"{where}.weight: must be > 0, got {weight!r}")
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


@dataclass(frozen=True)
class PopulationAssignment:
    """Deterministic N-particle discretization of a population spec."""

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

    def mean_sup_norm(self) -> float:
        return float(self.sup_norms().mean())

    def initial_tail(self, y: float, class_k: int | None = None) -> float:
        """Empirical initial mass of W x [y, 1] (optionally one class)."""
        mask = self.position >= y - 1e-12
        if class_k is not None:
            mask &= self.class_index == class_k
        return float(mask.sum()) / self.n


def assign_population(spec: PopulationSpec, n: int, mode: str = "stratified",
                      seed: int | None = None) -> PopulationAssignment:
    """Realize the limit measure as N particles on the slots {i/N}.

    stratified: slot i gets the class with the largest running quota deficit,
    where quotas are the exact per-slot class masses p_k * rho_k(cell).  The
    per-class tail counts then track their targets within one particle
    uniformly, so the initial discrepancy is O(1/N).

    seeded-random: class counts are fixed to largest-remainder quotas, class
    positions are drawn i.i.d. from the class densities, and slots are
    assigned by rank of the draws.
    """
    if n < 1:
        raise ConfigError(f"N must be >= 1, got {n}")
    K = spec.n_classes
    if mode == "stratified":
        edges = np.arange(n + 1) / n
        quota = np.empty((K, n))
        for k, cls in enumerate(spec.classes):
            quota[k] = cls.weight * cls.density.cell_masses(edges) * n
        class_of = np.empty(n, dtype=np.int64)
        deficit = np.zeros(K)
        # sweep from the top slot down: tail counts are what the
        # distribution-function discrepancy measures
        for i in range(n - 1, -1, -1):
            deficit += quota[:, i]
            k_star = int(np.argmax(deficit))
            class_of[i] = k_star
            deficit[k_star] -= 1.0
        position = edges[:-1]
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
        for k in np.argsort(-rem)[: n - counts.sum()]:
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
        if not 0 <= k < assignment.spec.n_classes:
            raise ConfigError(f"pin {i}: no class {k}")
        cand = np.flatnonzero((ci == k) & ~taken)
        if len(cand) == 0:
            raise ConfigError(f"pin {i}: class {k} exhausted")
        j = cand[np.argmin(np.abs(pos[cand] - y_target))]
        ci[i], ci[j] = ci[j], ci[i]
        pos[i], pos[j] = pos[j], pos[i]
        taken[i] = True
    return PopulationAssignment(spec=assignment.spec, class_index=ci, position=pos)


def uniform_single_class(field: IntensityField) -> PopulationSpec:
    """One class, uniform initial density."""
    return PopulationSpec(
        classes=(PopulationClass(1.0, field, Histogram.uniform()),),
        horizon=field.horizon)


def constant_mixture(rates, weights, horizon: float) -> PopulationSpec:
    """Position-independent mixture of constant-rate classes."""
    classes = tuple(
        PopulationClass(float(p), ConstantField(float(c), horizon), Histogram.uniform())
        for c, p in zip(rates, weights))
    return PopulationSpec(classes=classes, horizon=horizon)
