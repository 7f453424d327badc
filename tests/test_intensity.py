import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankflow import (AffineField, ConfigError, ConstantField, DomainError,
                      Histogram, ProductField, TableField, assign_population,
                      load_spec, pin_particles, spec_from_config)
from rankflow.intensity import (ClassHazard, IntensityField,
                                PopulationClass, PopulationSpec)

from conftest import (affine_two_class_spec, constant_mixture_spec,
                      uniform_single_class)
from oracles import (class_hazard_loop, initial_tail, scalar_mass,
                     stratified_quota_loop, table_values)

ALL_FIELDS = [
    ConstantField(2.0, 1.0),
    AffineField(1.0, 0.5, 1.0),
    AffineField(1.2, -0.7, 1.0),
    ProductField(0.0, 1.0, 0.0, 1.0, 2.0),      # w = y*t on T=2
    TableField([[0.0, 1.0], [2.0, 0.5]], 1.0),
]


def test_eval_constant():
    w = ConstantField(2.0, 1.0)
    assert w(0.3, 0.5) == 2.0 and type(w(0.3, 0.5)) is float
    out = w(np.array([0.1, 0.9]), np.zeros((3, 1)))
    assert out.shape == (3, 2) and np.all(out == 2.0)


def test_eval_affine():
    w = AffineField(1.0, 0.5, 1.0)
    assert w(1.0, 0.0) == 1.5


def test_eval_table_at_node():
    vals = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
    w = TableField(vals, 1.0)
    for iy, y in enumerate((0.0, 0.5, 1.0)):
        for it, t in enumerate((0.0, 0.5, 1.0)):
            assert w(y, t) == pytest.approx(vals[iy, it], abs=1e-14)


@st.composite
def table_queries(draw):
    """A table field from 2x2 to 6x6 and (y, t) queries, scalar or array,
    at the grid nodes, at 1 and at the horizon, between nodes, and up to
    1e-12 outside the domain."""
    ny, nt = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    horizon = draw(st.sampled_from([1.0, 0.7, 2.5]))
    values = draw(st.lists(st.lists(st.floats(0.0, 5.0), min_size=nt,
                                    max_size=nt), min_size=ny, max_size=ny))
    field = TableField(values, horizon)

    def coords(nodes, top):
        return st.one_of(st.sampled_from(nodes), st.just(top),
                         st.floats(-1e-12, top + 1e-12))

    ys = coords((np.arange(ny) / (ny - 1)).tolist(), 1.0)
    ts = coords((np.arange(nt) * (horizon / (nt - 1))).tolist(), horizon)
    if draw(st.booleans()):
        return field, draw(ys), draw(ts)
    n = draw(st.integers(1, 8))
    return (field, np.array(draw(st.lists(ys, min_size=n, max_size=n))),
            np.array(draw(st.lists(ts, min_size=n, max_size=n))))


@settings(max_examples=300, deadline=None)
@given(table_queries())
def test_table_lookup_matches_its_own_formula(case):
    # the shared cell and bilinear rules must do the inline formula's float
    # operations in the same order, so that the bytes agree
    field, y, t = case
    got, want = field._values(y, t), table_values(field, y, t)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_eval_is_bit_stable():
    w = ProductField(0.2, 0.8, 1.0, 0.5, 1.0)
    assert w(0.37, 0.61) == w(0.37, 0.61)


def test_eval_domain_errors():
    w = ConstantField(1.0, 1.0)
    with pytest.raises(DomainError):
        w(-0.1, 0.5)
    with pytest.raises(DomainError):
        w(0.5, 1.5)


def test_bounds_constant():
    w = ConstantField(2.0, 1.0)
    assert (w.sup_norm, w.y_deriv_bound) == (2.0, 0.0)


def test_bounds_product_corner():
    # w = y*t on horizon 2 peaks at the corner (1, 2)
    w = ProductField(0.0, 1.0, 0.0, 1.0, 2.0)
    assert (w.sup_norm, w.y_deriv_bound) == (2.0, 2.0)


def test_bounds_table_exhaustive_scan_oracle():
    rng = np.random.default_rng(1)
    vals = rng.random((5, 7)) * 3
    w = TableField(vals, 1.0)
    sup, deriv = w.sup_norm, w.y_deriv_bound
    # 420 is divisible by both node counts, so the scan hits every node
    ys = np.linspace(0, 1, 421)
    ts = np.linspace(0, 1, 421)
    yy, tt = np.meshgrid(ys, ts, indexing="ij")
    sampled = w(yy, tt)
    assert sampled.max() <= sup + 1e-12
    assert sup <= sampled.max() + 1e-9  # attained on the refined grid
    slopes = np.abs(np.diff(sampled, axis=0)) / (ys[1] - ys[0])
    assert slopes.max() <= deriv * (1 + 1e-6)


@pytest.mark.parametrize("w", ALL_FIELDS, ids=lambda w: w.kind)
def test_nonnegative_on_grid(w):
    ys = np.linspace(0, 1, 200)
    ts = np.linspace(0, w.horizon, 200)
    yy, tt = np.meshgrid(ys, ts, indexing="ij")
    assert np.all(w(yy, tt) >= 0)


@pytest.mark.parametrize("w", ALL_FIELDS, ids=lambda w: w.kind)
def test_lipschitz_bound_on_grid(w):
    ys = np.linspace(0, 1, 200)
    ts = np.linspace(0, w.horizon, 200)
    yy, tt = np.meshgrid(ys, ts, indexing="ij")
    vals = w(yy, tt)
    slopes = np.abs(np.diff(vals, axis=0)) / (ys[1] - ys[0])
    assert slopes.max(initial=0.0) <= w.y_deriv_bound * (1 + 1e-6) + 1e-12


def test_negative_field_rejected():
    with pytest.raises(ConfigError):
        AffineField(0.5, -1.0, 1.0)
    with pytest.raises(ConfigError):
        ConstantField(-0.1, 1.0)
    # non-finite numbers and booleans are not rates
    with pytest.raises(ConfigError, match="base"):
        AffineField(float("nan"), 0.5, 1.0)
    with pytest.raises(ConfigError, match="value"):
        ConstantField(float("inf"), 1.0)
    with pytest.raises(ConfigError, match="value"):
        ConstantField(True, 1.0)
    with pytest.raises(ConfigError, match="horizon"):
        ConstantField(1.0, float("nan"))
    with pytest.raises(ConfigError, match="t_slope"):
        ProductField(0.0, 1.0, 0.0, float("-inf"), 1.0)
    with pytest.raises(ConfigError, match="values"):
        TableField([[0.0, 1.0], [float("nan"), 0.5]], 1.0)
    with pytest.raises(ConfigError, match="values"):
        TableField([[0.0, 1.0], [True, 0.5]], 1.0)
    with pytest.raises(ConfigError, match=r"density\.values"):
        Histogram(breaks=(0.0, 1.0), values=(float("nan"),))
    with pytest.raises(ConfigError, match=r"density\.breaks"):
        Histogram(breaks=(False, 1.0), values=(1.0,))


def test_histogram_validation():
    with pytest.raises(ConfigError):
        Histogram(breaks=(0.0, 0.5, 1.0), values=(1.0, 0.5))  # mass 0.75
    h = Histogram(breaks=(0.0, 0.5, 1.0), values=(1.6, 0.4))
    assert h.mass(0.0, 0.5) == pytest.approx(0.8)
    assert h.mass(0.25, 1.0) == pytest.approx(1.0 - 0.4)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cell_masses_match_per_cell_mass(data):
    widths = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=1,
                                         max_size=6)))
    raw = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=len(widths),
                                      max_size=len(widths))))
    assume(raw.sum() > 0.1)
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    h = Histogram(breaks=tuple(breaks),
                  values=tuple(raw / np.sum(raw * np.diff(breaks))))
    points = st.one_of(st.floats(0.0, 1.0), st.sampled_from(h.breaks))
    edges = sorted(data.draw(st.lists(points, min_size=2, max_size=30,
                                      unique=True)))
    masses = h.cell_masses(edges)
    per_cell = [h.mass(a, b) for a, b in zip(edges[:-1], edges[1:])]
    assert np.max(np.abs(masses - per_cell)) <= 1e-15
    assert masses.sum() == pytest.approx(h.mass(edges[0], edges[-1]), abs=1e-14)
    # one array call reads every interval as the scalar sum does, 0 where
    # the interval is reversed
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    want = np.array([scalar_mass(h, a, b) for a, b in zip(lo, hi)])
    assert h.mass(lo, hi).tobytes() == want.tobytes()
    assert np.all(h.mass(hi, lo) == 0.0)


def test_spec_rejects_nonuniform_mixture():
    # one skewed class alone cannot have uniform spatial marginal
    skew = Histogram(breaks=(0.0, 0.5, 1.0), values=(1.6, 0.4))
    with pytest.raises(ConfigError):
        PopulationSpec(classes=(
            PopulationClass(1.0, ConstantField(1.0, 1.0), skew),), horizon=1.0)


def test_spec_rejects_bad_weights():
    with pytest.raises(ConfigError):
        PopulationSpec(classes=(
            PopulationClass(0.4, ConstantField(1.0, 1.0), Histogram.uniform()),
            PopulationClass(0.5, ConstantField(2.0, 1.0), Histogram.uniform()),
        ), horizon=1.0)
    with pytest.raises(ConfigError):
        spec_from_config({"horizon": 1.0, "classes": [
            {"weight": 0.0, "field": {"kind": "constant", "value": 1.0}}]})
    with pytest.raises(ConfigError, match=r"classes\[0\]\.weight"):
        spec_from_config({"horizon": 1.0, "classes": [
            {"weight": float("nan"), "field": {"kind": "constant", "value": 1.0}}]})
    with pytest.raises(ConfigError, match=r"classes\[0\]\.weight"):
        PopulationSpec(classes=(
            PopulationClass(float("nan"), ConstantField(1.0, 1.0), Histogram.uniform()),
        ), horizon=1.0)
    with pytest.raises(ConfigError, match="horizon"):
        spec_from_config({"horizon": True, "classes": [
            {"weight": 1.0, "field": {"kind": "constant", "value": 1.0}}]})
    with pytest.raises(ConfigError, match=r"classes\[0\]\.field\.base"):
        spec_from_config({"horizon": 1.0, "classes": [
            {"weight": 1.0, "field": {"kind": "affine", "base": float("nan"),
                                      "slope": 0.5}}]})


def test_c_w_m_w():
    spec = affine_two_class_spec()
    assert spec.c_w == 0.9
    assert spec.m_w == pytest.approx(0.5 * 1.5 + 0.5 * 1.2)


def test_m_w_examples():
    one = uniform_single_class(ConstantField(2.0, 1.0))
    assert one.m_w == 2.0
    mix = constant_mixture_spec(rates=(4.0, 0.0001), weights=(0.25, 0.75))
    assert mix.m_w == pytest.approx(0.25 * 4.0, abs=1e-3)


def test_assignment_average_tracks_m_w():
    spec = constant_mixture_spec(rates=(0.7, 2.0), weights=(0.5, 0.5))
    a = assign_population(spec, 100, mode="stratified")
    assert abs(a.sup_norms().mean() - spec.m_w) <= max(2.0, 0.7) / 100


def test_stratified_uniform_in_order():
    spec = uniform_single_class(ConstantField(1.0, 1.0))
    a = assign_population(spec, 4, mode="stratified")
    assert np.array_equal(a.position, [0.0, 0.25, 0.5, 0.75])


def test_stratified_exact_proportions_two_classes():
    spec = constant_mixture_spec(rates=(1.0, 2.0), weights=(0.5, 0.5))
    a = assign_population(spec, 2, mode="stratified")
    assert sorted(a.class_index.tolist()) == [0, 1]


def test_stratified_discrepancy_uniform_spec():
    spec = uniform_single_class(ConstantField(1.0, 1.0))
    for n in (7, 40, 1000):
        a = assign_population(spec, n, mode="stratified")
        for y in np.linspace(0, 1, 1001):
            gap = abs(initial_tail(a, y) - spec.classes[0].density.mass(y, 1.0))
            assert gap <= 1.0 / n + 1e-12


def skewed_spec():
    return PopulationSpec(classes=(
        PopulationClass(0.5, ConstantField(0.8, 1.0),
                        Histogram((0.0, 0.5, 1.0), (1.6, 0.4))),
        PopulationClass(0.5, ConstantField(1.6, 1.0),
                        Histogram((0.0, 0.5, 1.0), (0.4, 1.6))),
    ), horizon=1.0)


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("make_spec", [affine_two_class_spec, skewed_spec],
                         ids=["uniform-density", "skewed-density"])
def test_stratified_per_class_discrepancy(n, make_spec):
    spec = make_spec()
    a = assign_population(spec, n, mode="stratified")
    c_bound = spec.n_classes / n
    for y in np.linspace(0, 1, 1001):
        for k, cls in enumerate(spec.classes):
            gap = abs(initial_tail(a, y, k) - cls.weight * cls.density.mass(y, 1.0))
            assert gap <= c_bound + 1e-12


@st.composite
def mixture_specs(draw):
    """Specs of 1-4 classes on shared breaks: a positive matrix with columns
    normalized to 1 gives each class's share of each cell, so the weighted
    mixture is uniform."""
    k = draw(st.integers(1, 4))
    widths = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=1,
                                    max_size=5)))
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    share = np.array(draw(st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=len(widths),
                 max_size=len(widths)), min_size=k, max_size=k)))
    share /= share.sum(axis=0)
    weights = share @ np.diff(breaks)
    return PopulationSpec(classes=tuple(
        PopulationClass(float(w), ConstantField(1.0, 1.0),
                        Histogram(tuple(breaks), tuple(row / w)))
        for w, row in zip(weights, share)), horizon=1.0)


@settings(max_examples=60, deadline=None)
@given(spec=mixture_specs(), n=st.integers(1, 3000))
def test_stratified_sweep_matches_quota_loop(spec, n):
    a = assign_population(spec, n, mode="stratified")
    assert a.class_index.tobytes() == stratified_quota_loop(spec, n).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stratified_sweep_matches_quota_loop_on_ties(k):
    # equal weights on one uniform cell tie every quota, so floating-point
    # drift in the deficits decides each pick; one class skips the sweep
    spec = constant_mixture_spec(rates=(1.0,) * k, weights=(1.0 / k,) * k)
    for n in (1, 7, 1600, 3000):
        a = assign_population(spec, n, mode="stratified")
        assert a.class_index.tobytes() == \
            stratified_quota_loop(spec, n).tobytes()


@pytest.mark.parametrize("mode,seed", [("stratified", None), ("seeded-random", 5)])
def test_positions_are_exact_permutation(mode, seed):
    spec = affine_two_class_spec()
    for n in (1, 13, 256):
        a = assign_population(spec, n, mode=mode, seed=seed)
        assert np.array_equal(np.sort(np.rint(a.position * n)), np.arange(n))


def test_seeded_random_reproducible():
    spec = affine_two_class_spec()
    a = assign_population(spec, 50, mode="seeded-random", seed=3)
    b = assign_population(spec, 50, mode="seeded-random", seed=3)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.class_index, b.class_index)


@pytest.mark.parametrize("k, n, want", [(3, 100, [34, 33, 33]),
                                        (2, 101, [51, 50])])
def test_seeded_random_quota_ties_go_to_the_lowest_class(k, n, want):
    # equal weights tie every largest remainder
    spec = constant_mixture_spec(rates=(1.0,) * k, weights=(1.0 / k,) * k)
    a = assign_population(spec, n, mode="seeded-random", seed=1)
    assert np.bincount(a.class_index, minlength=k).tolist() == want


def test_pin_particles():
    spec = constant_mixture_spec()
    a = assign_population(spec, 40, mode="stratified")
    pinned = pin_particles(a, [(1, 0.7), (0, 0.25)])
    assert pinned.class_index[0] == 1
    assert pinned.class_index[1] == 0
    assert abs(pinned.position[0] - 0.7) <= 0.5 / 40 + 1e-12
    assert np.array_equal(np.sort(pinned.position), np.sort(a.position))


# numbers from valid ones to +-1e308, the smallest subnormal, an integer
# beyond the float range, NaN and inf, and booleans; any other JSON value
# may stand in for one
FUZZ_NUMBERS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, 1e200, 1e308, -1e308, 5e-324,
                     10 ** 400]),
    st.floats(), st.booleans())
FUZZ_JUNK = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
FUZZ_VALUE = FUZZ_NUMBERS | FUZZ_JUNK


def _fuzz_kind(name, *params):
    return st.fixed_dictionaries(
        {"kind": st.just(name), **{p: FUZZ_NUMBERS for p in params}})


# every kind, with square, ragged and empty tables, and kinds that are not
FUZZ_FIELD = st.one_of(
    _fuzz_kind("constant", "value"), _fuzz_kind("affine", "base", "slope"),
    _fuzz_kind("product", "y_base", "y_slope", "t_base", "t_slope"),
    st.fixed_dictionaries({"kind": st.just("table"), "values": st.lists(
        st.lists(FUZZ_NUMBERS, max_size=4), max_size=4)}),
    st.fixed_dictionaries({"kind": FUZZ_VALUE}))


def _slots(node):
    """(container, key) of every value and subtree of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


@st.composite
def fuzz_specs(draw):
    """One to three classes of equal weight and uniform density, then up
    to three values or subtrees, at any depth, replaced by fuzzed ones or,
    in an object, deleted."""
    n = draw(st.integers(1, 3))
    cfg = {"horizon": 1.0, "classes": [
        {"weight": 1 / n, "field": draw(FUZZ_FIELD),
         "density": {"breaks": [0.0, 1.0], "values": [1.0]}}
        for _ in range(n)]}
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(cfg))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(FUZZ_VALUE)
    return cfg


def _one_class(field):
    return {"horizon": 1.0, "classes": [{"weight": 1.0, "field": field}]}


@settings(max_examples=200, deadline=None)
@given(cfg=FUZZ_JUNK | fuzz_specs())
@example(cfg=_one_class({"kind": []}))
@example(cfg=_one_class({"kind": {}}))
@example(cfg=_one_class({"kind": "affine", "base": 1e308, "slope": 1e308}))
@example(cfg=_one_class({"kind": "product", "y_base": 1e200, "y_slope": 0.0,
                         "t_base": 1e200, "t_slope": 0.0}))
@example(cfg={"horizon": 10 ** 400, "classes": []})
def test_spec_from_config_fuzz_raises_only_config_error(cfg):
    try:
        spec = spec_from_config(cfg)
    except ConfigError:
        return
    # a spec that validates can be simulated: its rate bounds are finite
    for cls in spec.classes:
        assert math.isfinite(cls.field.sup_norm)
        assert math.isfinite(cls.field.y_deriv_bound)


def test_spec_file_round_trip(tmp_path):
    spec = affine_two_class_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_config()))
    loaded = load_spec(path)
    assert loaded.fingerprint() == spec.fingerprint()


def test_spec_file_errors_carry_field_path(tmp_path):
    cfg = {"horizon": 1.0, "classes": [
        {"weight": 1.0, "field": {"kind": "constant", "value": -2.0}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=r"classes\[0\].field"):
        load_spec(path)


# signed zeros and small numbers, where the rounding of the two reads could
# part, besides plain draws
_PARAMS = st.sampled_from([0.0, -0.0, 1.0, 0.5, 3e-17]) | st.floats(0.0, 5.0)


@st.composite
def _gathered_field(draw, horizon):
    """A field of any kind on [0, 1] x [0, horizon] with valid parameters."""
    kind = draw(st.sampled_from(["constant", "affine", "product", "table"]))
    if kind == "constant":
        return ConstantField(draw(_PARAMS), horizon)
    if kind == "table":
        ny, nt = draw(st.sampled_from([(2, 3), (2, 2), (5, 2)])
                      | st.tuples(st.integers(2, 5), st.integers(2, 5)))
        values = draw(st.lists(_PARAMS, min_size=ny * nt, max_size=ny * nt)
                      | st.just([-0.0] * (ny * nt)))
        return TableField(np.reshape(values, (ny, nt)), horizon)
    base = draw(_PARAMS)
    slope = draw(st.sampled_from([-0.0, 0.0, -base]) | st.floats(-base, 5.0))
    if kind == "affine":
        return AffineField(base, slope, horizon)
    t_base = draw(_PARAMS)
    t_slope = draw(st.sampled_from([-0.0, 0.0, -t_base / horizon])
                   | st.floats(-t_base / horizon, 5.0))
    assume(t_base + t_slope * horizon >= 0)
    return ProductField(base, slope, t_base, t_slope, horizon)


def _grid_points(draw, fields, top, axis):
    """Points in [0, top], top >= 1: its ends, 1, the cell edges of every
    table along ``axis`` (0 for y, 1 for t), and plain draws."""
    edges = {0.0, 1.0, top}
    for fld in fields:
        if isinstance(fld, TableField):
            m = fld.values.shape[axis] - 1
            edges.update(float(x) for x in np.arange(m + 1) * (top / m))
    point = st.sampled_from(sorted(edges)) | st.floats(0.0, top)
    return lambda size: np.array(draw(st.lists(point, min_size=size,
                                               max_size=size)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_class_hazard_is_the_mask_loop(data):
    horizon = data.draw(st.sampled_from([1.0, 2.5]))
    fields = data.draw(st.lists(_gathered_field(horizon), min_size=2,
                                max_size=6))
    size = data.draw(st.integers(1, 40))
    cls = np.array(data.draw(st.lists(st.integers(0, len(fields) - 1),
                                      min_size=size, max_size=size)))
    y = _grid_points(data.draw, fields, 1.0, 0)(size)
    t = _grid_points(data.draw, fields, horizon, 1)(size)
    got = ClassHazard(fields)(cls, y, t)
    want = class_hazard_loop(fields, cls, y, t)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_class_hazard_of_one_field_is_its_values():
    for fld in ALL_FIELDS:
        y, t = np.linspace(0, 1, 7), np.linspace(0, fld.horizon, 7)
        assert ClassHazard((fld,))(0, y, t).tobytes() == fld._values(y, t).tobytes()
        assert ClassHazard((fld,))(0, 0.5, 0.5) == fld._values(0.5, 0.5)


def test_class_hazard_is_built_once_per_spec():
    spec = affine_two_class_spec()
    assert spec.class_hazard is spec.class_hazard
    assert spec.class_hazard.fields == tuple(c.field for c in spec.classes)


class _Opaque(IntensityField):
    kind = "opaque"

    def _values(self, y, t):
        return np.asarray(1.0 + 0.0 * y * t)


def test_class_hazard_refuses_a_field_it_cannot_gather():
    with pytest.raises(ConfigError, match=r"classes\[1\].field.*'opaque'"):
        ClassHazard((ConstantField(1.0, 1.0), _Opaque(1.0)))
