"""Shared fixtures: small hand-built models with known geometry (see sbc_test_models)."""

import numpy as np
import pytest

from sbc_test_models import make_gaussian_model


@pytest.fixture
def std_normal_model():
    return make_gaussian_model(np.eye(1))


@pytest.fixture
def correlated_gaussian_model():
    rho = 0.9
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return make_gaussian_model(np.linalg.inv(cov))
