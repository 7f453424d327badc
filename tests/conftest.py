import pytest

from rankflow import EvaluationLattice, solve_y_c, spec_from_config
from rankflow.harness import (affine_two_class_spec, constant_mixture_spec,
                              constant_single_spec, zero_rate_spec)


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
