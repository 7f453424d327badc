import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankflow import (AffineField, ConfigError, ConstantField, DomainError,
                      Histogram, ProductField, TableField, assign_population,
                      load_spec, pin_particles, spec_from_config)
from rankflow.harness import affine_two_class_spec, constant_mixture_spec
from rankflow.intensity import PopulationClass, PopulationSpec, uniform_single_class

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
    assert h.tail(0.25) == pytest.approx(1.0 - 0.4)


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
    assert abs(a.mean_sup_norm() - spec.m_w) <= max(2.0, 0.7) / 100


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
            gap = abs(a.initial_tail(y) - spec.classes[0].density.tail(y))
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
            gap = abs(a.initial_tail(y, k) - cls.weight * cls.density.tail(y))
            assert gap <= c_bound + 1e-12


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


def test_pin_particles():
    spec = constant_mixture_spec()
    a = assign_population(spec, 40, mode="stratified")
    pinned = pin_particles(a, [(1, 0.7), (0, 0.25)])
    assert pinned.class_index[0] == 1
    assert pinned.class_index[1] == 0
    assert abs(pinned.position[0] - 0.7) <= 0.5 / 40 + 1e-12
    assert np.array_equal(np.sort(pinned.position), np.sort(a.position))


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
