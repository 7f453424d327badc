"""Shared specs, flows and lattices of the tests.

The spec builders are plain functions too, for tests that need a variant;
``configs/`` holds the same example populations as files.
"""

import contextlib
from unittest import mock

import pytest

from rankflow import (AffineField, ConstantField, EvaluationLattice,
                      Histogram, PopulationClass, PopulationSpec, latp,
                      solve_y_c, spec_from_config)

# rows per strip of the grid passes under test: one, three, and the
# default size of ``latp._strips``
STRIP_ROWS = (1, 3, None)


@contextlib.contextmanager
def strips_of(rows, row_len):
    """Make ``latp._strips`` cut a table of ``row_len`` columns into strips
    of ``rows`` rows (tables of other widths get other sizes); None keeps
    the default.  A context manager, so hypothesis tests can use it."""
    if rows is None:
        yield
        return
    with mock.patch.object(latp, "_STRIP_BYTES", 8 * rows * row_len):
        yield


def uniform_single_class(field):
    """One class, uniform initial density."""
    return PopulationSpec(
        classes=(PopulationClass(1.0, field, Histogram.uniform()),),
        horizon=field.horizon)


def constant_single_spec(rate=1.0, horizon=1.0):
    return uniform_single_class(ConstantField(rate, horizon))


def constant_mixture_spec(rates=(0.7, 2.0), weights=(0.5, 0.5), horizon=1.0):
    """Position-independent mixture of constant-rate classes."""
    return PopulationSpec(classes=tuple(
        PopulationClass(float(p), ConstantField(float(c), horizon),
                        Histogram.uniform())
        for c, p in zip(rates, weights)), horizon=horizon)


def affine_two_class_spec(horizon=1.0):
    """Position-dependent two-class population used across the experiments."""
    return PopulationSpec(classes=(
        PopulationClass(0.5, AffineField(0.6, 0.9, horizon), Histogram.uniform()),
        PopulationClass(0.5, AffineField(1.2, -0.7, horizon), Histogram.uniform()),
    ), horizon=horizon)


def zero_rate_spec(horizon=1.0):
    return uniform_single_class(ConstantField(0.0, horizon))


# two steep specs: rates that change by 5 across the ranks, where a guessed
# mask is far from the sequential one and the rounds are most numerous
STEEP_SPECS = {
    "affine_0_5_5_0": {"horizon": 1.0, "classes": [
        {"weight": 0.5, "field": {"kind": "affine", "base": 0.0, "slope": 5.0}},
        {"weight": 0.5, "field": {"kind": "affine", "base": 5.0, "slope": -5.0}}]},
    "spike_table": {"horizon": 1.0, "classes": [
        {"weight": 1.0, "field": {"kind": "table",
                                  "values": [[0, 0], [0, 0], [5, 5], [0, 0], [0, 0]]}}]},
}


# one class with w = 20y, where the rank feedback shows: the original
# engine's fluctuations exceed the flow-driven engine's by about 25%, where
# on the specs above they agree to about 1%
RANK_FEEDBACK_SPEC = {"horizon": 1.0, "classes": [
    {"weight": 1.0, "field": {"kind": "affine", "base": 0.0, "slope": 20.0}}]}


@pytest.fixture(scope="session")
def spec_const1():
    return constant_single_spec(1.0)


@pytest.fixture(scope="session")
def spec_mixture():
    return constant_mixture_spec()


@pytest.fixture(scope="session")
def spec_affine():
    return affine_two_class_spec()


@pytest.fixture(scope="session")
def spec_table():
    """Two classes with bilinear table fields, one of them time dependent."""
    return spec_from_config({"horizon": 1.0, "classes": [
        {"weight": 0.5, "field": {"kind": "table",
                                  "values": [[0.6, 0.4, 0.2], [0.2, 0.4, 0.6]]}},
        {"weight": 0.5, "field": {"kind": "table",
                                  "values": [[0.3, 0.5], [0.6, 0.1]]}}]})


@pytest.fixture(scope="session")
def spec_zero():
    return zero_rate_spec()


@pytest.fixture(scope="session")
def sol_const1(spec_const1):
    return solve_y_c(spec_const1, n_z=20, n_t=200, tol=1e-8)


@pytest.fixture(scope="session")
def sol_mixture(spec_mixture):
    return solve_y_c(spec_mixture, n_z=20, n_t=200, tol=1e-8)


@pytest.fixture(scope="session")
def sol_affine(spec_affine):
    return solve_y_c(spec_affine, n_z=20, n_t=200, tol=1e-8)


@pytest.fixture(scope="session")
def sol_table(spec_table):
    return solve_y_c(spec_table, n_z=20, n_t=200, tol=1e-8)


@pytest.fixture(scope="session")
def lattice():
    return EvaluationLattice.regular(1.0)
